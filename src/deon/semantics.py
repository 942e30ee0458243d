"""Direct evaluation over explicit finite models.

Worlds are dense integers 0..n-1 and every set of worlds is a bitmask,
so valuations are one int per ground atom and the truth set of a
formula is computed bottom-up with integer bitwise operations.

Kripke models carry an accessibility relation (serial in SDL use);
preference models carry an unconstrained betterness relation, where
``rows[s]`` holds the worlds s is at least as good as.  In system E
the box quantifies over all worlds and the dyadic obligation uses the
optimality rule: O(b/c) holds iff every c-world that is at least as
good as all c-worlds satisfies b.  Both are therefore world-independent
("rigid").

One compiled evaluator, ``CompiledBank``, gives every connective and
modal operator its meaning.  Model checking (``Evaluator``), bounded
search and both type-elimination procedures (run over type space with
the modal ops bound to chosen bits) go through it, and ``deon.sat``
reads its op array as clauses for complete mode in both logics, every
MUS check and propositional compliance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping

from . import formula as F


class SemanticsError(Exception):
    pass


AtomKey = tuple[str, tuple[str, ...]]


def atom_key(a: F.Atom) -> AtomKey:
    for t in a.args:
        if not isinstance(t, F.Const):
            raise SemanticsError(f"formula is not ground: variable {t.name!r}")
    return (a.pred, tuple(t.name for t in a.args))


def atom_key_str(key: AtomKey) -> str:
    name, args = key
    return name if not args else f"{name}({','.join(args)})"


def parse_atom_key(s: str) -> AtomKey:
    s = s.strip()
    if "(" not in s:
        return (s, ())
    name, rest = s.split("(", 1)
    if not rest.endswith(")"):
        raise SemanticsError(f"bad atom key {s!r}")
    args = tuple(a.strip() for a in rest[:-1].split(",") if a.strip())
    return (name.strip(), args)


def _mask(worlds: Iterable[int], n: int) -> int:
    out = 0
    for w in worlds:
        if not 0 <= w < n:
            raise SemanticsError(f"world {w} out of range 0..{n - 1}")
        out |= 1 << w
    return out


def _bits(mask: int) -> Iterator[int]:
    w = 0
    while mask:
        if mask & 1:
            yield w
        mask >>= 1
        w += 1


class _ModelBase:
    """Shared structure: worlds, one relation, valuation, domain."""

    kind = "model"

    def __init__(self, n_worlds: int, relation: Iterable[tuple[int, int]],
                 valuation: Mapping[AtomKey | str, Iterable[int]],
                 domain: Iterable[str] = ()):
        if n_worlds < 1:
            raise SemanticsError("a model needs at least one world")
        self.n = n_worlds
        self.full = (1 << n_worlds) - 1
        rows = [0] * n_worlds
        pairs = []
        for s, t in relation:
            if not (0 <= s < n_worlds and 0 <= t < n_worlds):
                raise SemanticsError(f"relation pair ({s},{t}) out of range")
            rows[s] |= 1 << t
            pairs.append((s, t))
        self.rows = tuple(rows)
        self.relation = frozenset(pairs)
        val: dict[AtomKey, int] = {}
        for key, worlds in valuation.items():
            k = parse_atom_key(key) if isinstance(key, str) else (key[0], tuple(key[1]))
            val[k] = _mask(worlds, n_worlds)
        self.valuation = val
        self.domain = tuple(sorted(set(domain)))

    @property
    def worlds(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    def atom_mask(self, key: AtomKey) -> int:
        if key[0] == F.RESERVED_ATOM:
            return 0
        try:
            return self.valuation[key]
        except KeyError:
            raise SemanticsError(f"unknown atom {atom_key_str(key)!r}") from None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "worlds": list(range(self.n)),
            "relation": sorted([s, t] for (s, t) in self.relation),
            "valuation": {atom_key_str(k): list(_bits(m))
                          for k, m in sorted(self.valuation.items())},
            "domain": list(self.domain),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def __eq__(self, other):
        return (type(self) is type(other) and self.n == other.n
                and self.relation == other.relation
                and self.valuation == other.valuation
                and self.domain == other.domain)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, relation={sorted(self.relation)})"


class KripkeModel(_ModelBase):
    """Finite Kripke model; the relation is accessibility.

    SDL asks for seriality (every world sees some world); construction
    checks it.
    """

    kind = "kripke"

    def __init__(self, n_worlds, relation, valuation, domain=()):
        super().__init__(n_worlds, relation, valuation, domain)
        if not self.is_serial():
            bad = next(w for w in range(self.n) if not self.rows[w])
            raise SemanticsError(f"accessibility is not serial: world {bad} has no successor")

    def is_serial(self) -> bool:
        return all(self.rows[w] for w in range(self.n))


class PreferenceModel(_ModelBase):
    """Finite preference model; rows[s] is the set of t with s >= t."""

    kind = "preference"


def model_from_dict(d: Mapping):
    """The model a document describes (as ``to_dict`` writes it); a
    document of another shape raises SemanticsError naming the field."""
    if not isinstance(d, Mapping):
        raise SemanticsError("a model must be a JSON object")
    worlds, relation = d.get("worlds"), d.get("relation", [])
    valuation, domain = d.get("valuation", {}), d.get("domain", ())

    def seq(x, ok=lambda v: isinstance(v, int)) -> bool:
        return isinstance(x, (list, tuple)) and all(map(ok, x))

    for name, ok, what in (
            ("worlds", seq(worlds), "a list of world numbers"),
            ("relation", seq(relation, lambda p: seq(p) and len(p) == 2),
             "a list of [s, t] world pairs"),
            ("valuation", isinstance(valuation, Mapping) and all(map(seq, valuation.values())),
             "an object from atoms to lists of world numbers"),
            ("domain", seq(domain, lambda c: isinstance(c, str)), "a list of names")):
        if not ok:
            raise SemanticsError(f"model field {name!r} must be {what}")
    kind = d.get("kind", "preference")
    n = len(worlds)
    if sorted(worlds) != list(range(n)):
        raise SemanticsError("worlds must be the dense range 0..n-1")
    args = (n, [tuple(p) for p in relation], dict(valuation), domain)
    if kind == "kripke":
        return KripkeModel(*args)
    if kind == "preference":
        return PreferenceModel(*args)
    raise SemanticsError(f"unknown model kind {kind!r}")


def model_from_json(text: str):
    return model_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Evaluation


class Evaluator:
    """Truth sets of ground formulas over one model: formulas are
    compiled by CompiledBank and run on the model, memoized per formula;
    a bank given already compiled seeds the memo with one run."""

    def __init__(self, model: _ModelBase, logic: str, bank: CompiledBank | None = None):
        serial = F.check_logic(logic, SemanticsError).serial
        if not isinstance(model, KripkeModel if serial else PreferenceModel):
            raise SemanticsError(f"logic {logic} evaluates over "
                                 f"{'Kripke' if serial else 'preference'} models")
        if bank is not None and bank.logic != logic:
            raise SemanticsError(f"a bank of logic {bank.logic} cannot evaluate {logic}")
        self.model = model
        self.logic = logic
        self._memo = {} if bank is None else dict(zip(bank.formulas, bank.masks(model)))

    def masks(self, fs: Iterable[F.Formula]) -> list[int]:
        """The masks of fs; those not seen yet are compiled in one bank."""
        fs = list(fs)
        memo = self._memo
        new = [f for f in dict.fromkeys(fs) if f not in memo]
        if new:
            memo.update(zip(new, CompiledBank(new, self.logic).masks(self.model)))
        return [memo[f] for f in fs]

    def mask(self, f: F.Formula) -> int:
        return self.masks([f])[0]

    def holds(self, f: F.Formula, world: int) -> bool:
        if not 0 <= world < self.model.n:
            raise SemanticsError(f"world {world} out of range")
        return bool(self.mask(f) >> world & 1)

    def valid(self, f: F.Formula) -> bool:
        return self.mask(f) == self.model.full


def eval_formula(model: _ModelBase, world: int, f: F.Formula, logic: str) -> bool:
    return Evaluator(model, logic).holds(f, world)


class Lanes:
    """Block arithmetic on masks made of ``count`` n-bit blocks, one per
    lane: a block-wide test costs a few big-int operations however many
    lanes there are."""

    __slots__ = ("n", "full", "low", "high", "rest")

    def __init__(self, n: int, count: int = 1):
        self.n = n
        self.full = (1 << (n * count)) - 1
        self.low = self.full // ((1 << n) - 1)  # bit 0 of every block
        self.high = self.low << (n - 1)         # top bit of every block
        self.rest = self.high - self.low        # the other n-1 bits

    # A block's low n-1 bits plus rest reach its top bit iff one of them
    # is set, and plus 1 iff all are; neither carries out of the block.

    def empty(self, x: int) -> int:
        """Bit 0 of every block of x that is 0."""
        rest = self.rest
        return (~(((x & rest) + rest) | x) & self.high) >> (self.n - 1)

    def whole(self, x: int) -> int:
        """Bit 0 of every block of x that is all ones."""
        return (((x & self.rest) + self.low) & x & self.high) >> (self.n - 1)

    def spread(self, a: int) -> int:
        """Every bit 0 of a, set across its block."""
        return (a << self.n) - a


class CompiledBank:
    """The evaluator: compiles a formula list once, then runs it over any
    number of finite structures.

    The formulas are compiled as given, in one post-order fold over them
    all (children left to right; a node met again keeps its slot), into
    an array of ops, children before parents.  A primitive node becomes
    one op, tagged by the logic's ``modal`` if it is modal; a derived
    one compiles its rewrite rule (the logic's ``rules``, ``F.LOGICS``)
    with the placeholder ``F.CHILD`` bound to its child's slot.  Ops are
    interned by their tuple, so the array is that of the desugared
    formulas compiled one op per node, in the same order: each rule
    meets its placeholder before any constant subtree (TOP) in
    post-order, as the fold over a desugared node meets its child
    first.  No formula node is built.

    A run walks the array once over raw relation rows and valuation
    masks (one int per atom, in the sorted order of ``atoms``), so a
    caller needs no model object.  ``roots`` lists the slots of the
    input formulas, ``modal`` the slots of the modal ops in op order;
    an op's operands are its children's slots, in F.children order, or
    for ``atom`` an index into ``atoms``.  ``subformulas`` counts the
    distinct subformulas of the inputs: the nodes the fold visits.

    One run can also evaluate many valuations over one relation side by
    side, each in its own lane of every mask (bitslicing, as in Biham's
    DES of 1997, with Python's big ints as the wide word): the bounded
    scan decides a whole chunk of candidates with one walk of the ops.
    """

    def __init__(self, formulas: Iterable[F.Formula], logic: str):
        lg = F.check_logic(logic, SemanticsError)
        self.logic = logic
        self.formulas = tuple(formulas)
        tags = {F.Not: "not", F.And: "and", F.Or: "or", F.Implies: "imp", F.Iff: "iff",
                **lg.modal}
        rules = lg.rules
        slot: dict[tuple, int] = {}  # the ops, interned
        intern = slot.setdefault

        def compile_node(f: F.Formula, kids: list[int]) -> int:
            """The slot of f, whose children have the slots kids."""
            tag = tags.get(type(f))
            if tag is not None:
                return intern((tag, *kids), len(slot))
            if type(f) in rules:
                return F.fold(rules[type(f)], compile_node, {F.CHILD: kids[0]})
            if type(f) is F.Atom:
                op = ("atom", atom_key(f))  # a variable is refused under the reserved name too
                return intern(("false",) if f.pred == F.RESERVED_ATOM else op, len(slot))
            if isinstance(f, (F.Forall, F.Exists)):
                raise SemanticsError("formula is not ground: quantifier present "
                                     "(expand with formula.ground first)")
            raise SemanticsError(F.SDL_DYADIC if type(f) is F.Oblig
                                 else f"cannot compile {f!r} for logic {logic}")

        memo: dict[F.Formula, int] = {}
        try:
            self.roots = tuple(F.fold(f, compile_node, memo) for f in self.formulas)
        except SemanticsError:
            # name an SDL dyadic obligation in any input first, then the
            # first node a top-down walk rejects, so that a quantifier is
            # reported before the variables it binds
            walk = [g for f in self.formulas for g in F.subformulas(f)]
            for g in sorted(walk, key=lambda g: type(g) is not F.Oblig):
                if type(g) not in tags and type(g) not in rules:
                    compile_node(g, [])
            raise
        self.subformulas = len(memo)
        self.atoms: tuple[AtomKey, ...] = tuple(sorted({op[1] for op in slot if op[0] == "atom"}))
        index = {a: i for i, a in enumerate(self.atoms)}
        self.ops = tuple(("atom", index[op[1]]) if op[0] == "atom" else op for op in slot)
        self.modal = tuple(i for i, op in enumerate(self.ops) if op[0] in lg.modal.values())

    def run(self, n: int, rows: tuple[int, ...], vals, modal=None,
            lanes: int = 1) -> list[int]:
        """Truth mask of every slot over ``lanes`` n-world structures.

        The structures share the relation ``rows`` and each has its own
        valuation: lane b holds worlds b*n ... b*n+n-1 of every mask, so
        ``vals`` gives one lanes*n-bit mask per atom.  The connectives
        are bitwise and never mix lanes; a modal op tests each n-bit
        block as a whole (see ``Lanes``) and spreads the block's answer
        over the block.  With one lane this is a single structure.

        Given ``modal``, the i-th modal op takes modal[i] instead of
        being computed from ``rows``: that binds the box and obligation
        bits a type-space caller has chosen.  The run always walks every
        op; a lane's verdict is read from the returned root masks.
        """
        ln = Lanes(n, lanes)
        full, low, empty, whole, spread = ln.full, ln.low, ln.empty, ln.whole, ln.spread
        bound = None if modal is None else iter(modal)
        if bound is None and self.modal:
            seen = [r * low for r in rows]  # rows[w] in every block
        out: list[int] = []
        for op in self.ops:
            tag = op[0]
            if tag == "atom":
                m = vals[op[1]]
            elif tag == "not":
                m = ~out[op[1]] & full
            elif tag == "and":
                m = out[op[1]] & out[op[2]]
            elif tag == "or":
                m = out[op[1]] | out[op[2]]
            elif tag == "imp":
                m = (~out[op[1]] & full) | out[op[2]]
            elif tag == "iff":
                m = ~(out[op[1]] ^ out[op[2]]) & full
            elif tag == "false":
                m = 0
            elif bound is not None:
                m = next(bound)
            elif tag == "boxe":
                m = out[op[1]]
                m = full if m == full else spread(whole(m))
            elif tag == "boxs":
                # w is in the box when no world of its row lies outside sub
                gap = ~out[op[1]]
                m = 0
                for w in range(n):
                    m |= empty(gap & seen[w]) << w
            else:  # oblig
                # O(body | c) fails in a lane when some w of c outside body
                # is optimal: opt(c)(w) = c(w) and not c(u) for every u
                # outside rows[w]
                c = out[op[2]]
                m = full
                if viol := c & ~out[op[1]]:
                    bad = 0
                    for w in range(n):
                        if at := viol >> w & low:
                            bad |= at & empty(c & ~seen[w])
                    m ^= spread(bad)
            out.append(m)
        return out

    def masks(self, model: _ModelBase) -> list[int]:
        """Truth masks of the input formulas over the model."""
        out = self.run(model.n, model.rows, tuple(model.atom_mask(a) for a in self.atoms))
        return [out[r] for r in self.roots]


# ---------------------------------------------------------------------------
# Frame conditions


@dataclass(frozen=True)
class FrameConditions:
    """Which frame properties to require or check."""

    serial: bool = False
    reflexive: bool = False
    total: bool = False
    transitive: bool = False

    def flags(self) -> tuple[str, ...]:
        return tuple(name for name in ("serial", "reflexive", "total", "transitive")
                     if getattr(self, name))

    def none(self) -> bool:
        return not self.flags()


@dataclass(frozen=True)
class FrameCheck:
    prop: str
    holds: bool
    witness: tuple[int, ...] | None  # counterexample worlds when it fails


def _check_prop(n: int, rows: tuple[int, ...], prop: str) -> FrameCheck:
    if prop == "serial":
        for s in range(n):
            if not rows[s]:
                return FrameCheck(prop, False, (s,))
        return FrameCheck(prop, True, None)
    if prop == "reflexive":
        for s in range(n):
            if not rows[s] >> s & 1:
                return FrameCheck(prop, False, (s,))
        return FrameCheck(prop, True, None)
    if prop == "total":
        for s in range(n):
            for t in range(n):
                if not (rows[s] >> t & 1 or rows[t] >> s & 1):
                    return FrameCheck(prop, False, (s, t))
        return FrameCheck(prop, True, None)
    if prop == "transitive":
        for s in range(n):
            for t in _bits(rows[s]):
                if rows[t] & ~rows[s]:
                    u = next(_bits(rows[t] & ~rows[s]))
                    return FrameCheck(prop, False, (s, t, u))
        return FrameCheck(prop, True, None)
    raise SemanticsError(f"unknown frame property {prop!r}")


def check_frame(model: _ModelBase, cond: FrameConditions) -> tuple[FrameCheck, ...]:
    """Check each requested property, with a witness tuple on failure."""
    return tuple(_check_prop(model.n, model.rows, p) for p in cond.flags())


def frame_holds(n: int, rows: tuple[int, ...], cond: FrameConditions) -> bool:
    """Does the relation given by its rows satisfy every requested property?"""
    return all(_check_prop(n, rows, p).holds for p in cond.flags())


# ---------------------------------------------------------------------------
# Exhaustive enumeration (raw, no isomorphism pruning)


def _models(cls, n: int, rows_seq: Iterable[tuple[int, ...]], atoms: Iterable[AtomKey | str],
            domain: Iterable[str]) -> Iterator:
    """Models of class cls with n worlds: for each relation in rows_seq,
    in order, one model per valuation of the atoms."""
    keys = tuple(parse_atom_key(a) if isinstance(a, str) else (a[0], tuple(a[1])) for a in atoms)
    dom = tuple(domain)
    full = (1 << n) - 1
    for rows in rows_seq:
        relation = frozenset((s, t) for s in range(n) for t in _bits(rows[s]))
        for bits in range(1 << (len(keys) * n)):
            m = cls.__new__(cls)
            m.n, m.full, m.rows, m.relation, m.domain = n, full, rows, relation, dom
            m.valuation = {a: (bits >> (i * n)) & full for i, a in enumerate(keys)}
            yield m


def iter_preference_models(n_worlds: int, atoms: Iterable[AtomKey | str],
                           frame: FrameConditions | None = None,
                           domain: Iterable[str] = ()) -> Iterator[PreferenceModel]:
    """All preference models with exactly n_worlds worlds, every betterness
    relation and every valuation of the given atoms; optionally filtered
    by frame conditions.  Intended for exhaustive small-scale checks."""
    n = n_worlds
    full = (1 << n) - 1
    relations = (tuple((bits >> (s * n)) & full for s in range(n)) for bits in range(1 << (n * n)))
    if frame is not None:
        relations = (rows for rows in relations if frame_holds(n, rows, frame))
    return _models(PreferenceModel, n, relations, atoms, domain)


def iter_serial_kripke_models(n_worlds: int, atoms: Iterable[AtomKey | str],
                              domain: Iterable[str] = ()) -> Iterator[KripkeModel]:
    """All serial Kripke models with exactly n_worlds worlds."""
    # each world's row is a nonempty successor set
    return _models(KripkeModel, n_worlds, product(range(1, 1 << n_worlds), repeat=n_worlds),
                   atoms, domain)
