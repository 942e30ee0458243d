"""Direct evaluation over explicit finite models.

Worlds are dense integers 0..n-1 and every set of worlds is a bitmask,
so valuations are one int per ground atom and the truth set of a
formula is computed bottom-up with integer bitwise operations.

Kripke models carry an accessibility relation (serial in SDL use);
preference models carry an unconstrained betterness relation, where
``better[s]`` holds the worlds s is at least as good as.  In system E
the box quantifies over all worlds and the dyadic obligation uses the
optimality rule: O(b/c) holds iff every c-world that is at least as
good as all c-worlds satisfies b.  Both are therefore world-independent
("rigid").

One compiled evaluator, ``CompiledBank``, gives every connective and
modal operator its meaning.  Model checking (``Evaluator``), bounded
search and both type-elimination procedures (run over type space with
the modal ops bound to chosen bits) go through it, and ``deon.sat``
reads its op array as clauses for System E complete mode and
propositional compliance.
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
    checks it unless require_serial=False.
    """

    kind = "kripke"

    def __init__(self, n_worlds, relation, valuation, domain=(), require_serial: bool = True):
        super().__init__(n_worlds, relation, valuation, domain)
        if require_serial and not self.is_serial():
            bad = next(w for w in range(self.n) if not self.rows[w])
            raise SemanticsError(f"accessibility is not serial: world {bad} has no successor")

    def is_serial(self) -> bool:
        return all(self.rows[w] for w in range(self.n))


class PreferenceModel(_ModelBase):
    """Finite preference model; rows[s] is the set of t with s >= t."""

    kind = "preference"

    @property
    def better(self):
        return self.relation


def model_from_dict(d: Mapping, require_serial: bool = True):
    kind = d.get("kind", "preference")
    worlds = d["worlds"]
    n = len(worlds)
    if sorted(worlds) != list(range(n)):
        raise SemanticsError("worlds must be the dense range 0..n-1")
    args = (n, [tuple(p) for p in d.get("relation", [])],
            dict(d.get("valuation", {})), d.get("domain", ()))
    if kind == "kripke":
        return KripkeModel(*args, require_serial=require_serial)
    if kind == "preference":
        return PreferenceModel(*args)
    raise SemanticsError(f"unknown model kind {kind!r}")


def model_from_json(text: str, require_serial: bool = True):
    return model_from_dict(json.loads(text), require_serial=require_serial)


# ---------------------------------------------------------------------------
# The optimality rule


def opt(model: PreferenceModel, worlds: Iterable[int]) -> frozenset[int]:
    """Optimal members of a world set: those at least as good as all of it."""
    s = _mask(worlds, model.n)
    return frozenset(_bits(opt_mask(model.rows, s)))


def opt_mask(rows: tuple[int, ...], s: int) -> int:
    """Members w of the world set s with s inside rows[w]."""
    out = 0
    rest = s
    w = 0
    while rest:
        if rest & 1 and s & ~rows[w] == 0:
            out |= 1 << w
        rest >>= 1
        w += 1
    return out


def bit_mask(i: int, width: int) -> int:
    """Mask over worlds 0..width-1 selecting those whose index has bit i
    set; with width 2^k and i < k this is atom i's column of the truth
    table whose worlds are the k-bit assignments."""
    step = 1 << (i + 1)
    m = ((1 << (1 << i)) - 1) << (1 << i)
    while step < width:
        m |= m << step
        step <<= 1
    return m


# ---------------------------------------------------------------------------
# Evaluation


class Evaluator:
    """Truth sets of ground formulas over one model: each formula is
    compiled by CompiledBank and run on the model, memoized per formula."""

    def __init__(self, model: _ModelBase, logic: str):
        if logic not in ("sdl", "e"):
            raise SemanticsError(f"unknown logic {logic!r}")
        if logic == "sdl" and not isinstance(model, KripkeModel):
            raise SemanticsError("logic sdl evaluates over Kripke models")
        if logic == "e" and not isinstance(model, PreferenceModel):
            raise SemanticsError("logic e evaluates over preference models")
        self.model = model
        self.logic = logic
        self._memo: dict[F.Formula, int] = {}

    def mask(self, f: F.Formula) -> int:
        m = self._memo.get(f)
        if m is None:
            m = self._memo[f] = CompiledBank([f], self.logic).masks(self.model)[0]
        return m

    def holds(self, f: F.Formula, world: int) -> bool:
        if not 0 <= world < self.model.n:
            raise SemanticsError(f"world {world} out of range")
        return bool(self.mask(f) >> world & 1)

    def valid(self, f: F.Formula) -> bool:
        return self.mask(f) == self.model.full


def eval_formula(model: _ModelBase, world: int, f: F.Formula, logic: str) -> bool:
    return Evaluator(model, logic).holds(f, world)


def valid_in_model(model: _ModelBase, f: F.Formula, logic: str) -> bool:
    """True iff f holds at every world of the model."""
    return Evaluator(model, logic).valid(f)


class CompiledBank:
    """The evaluator: compiles a formula list once, then runs it over any
    number of finite structures.

    The formulas are desugared to the logic's primitive operators and
    every distinct node becomes one op in an array, children before
    parents.  A run walks the array once over raw relation rows and
    valuation masks (one int per atom, in the sorted order of
    ``atoms``), so a caller needs no model object.  ``index`` maps each
    desugared node to its slot, ``roots`` lists the slots of the input
    formulas and ``modal`` the slots of the modal ops in op order.
    """

    def __init__(self, formulas: Iterable[F.Formula], logic: str):
        if logic not in ("sdl", "e"):
            raise SemanticsError(f"unknown logic {logic!r}")
        self.logic = logic
        try:
            self.formulas = [F.desugar(f, logic) for f in formulas]
        except F.FormulaError as ex:
            raise SemanticsError(str(ex)) from None
        index: dict[F.Formula, int] = {}
        ops: list[tuple] = []

        def compile_node(f: F.Formula) -> int:
            got = index.get(f)
            if got is not None:
                return got
            if isinstance(f, F.Atom):
                op = ("false",) if f.pred == F.RESERVED_ATOM else ("atom", atom_key(f))
            elif isinstance(f, F.Not):
                op = ("not", compile_node(f.sub))
            elif isinstance(f, (F.And, F.Or, F.Implies, F.Iff)):
                tag = {F.And: "and", F.Or: "or", F.Implies: "imp", F.Iff: "iff"}[type(f)]
                op = (tag, compile_node(f.left), compile_node(f.right))
            elif isinstance(f, F.ObligM) and logic == "sdl":
                op = ("boxs", compile_node(f.sub))
            elif isinstance(f, F.Box) and logic == "e":
                op = ("boxe", compile_node(f.sub))
            elif isinstance(f, F.Oblig) and logic == "e":
                op = ("oblig", compile_node(f.body), compile_node(f.cond))
            elif isinstance(f, (F.Forall, F.Exists)):
                raise SemanticsError("formula is not ground: quantifier present "
                                     "(expand with formula.ground first)")
            else:
                raise SemanticsError(f"cannot compile {f!r} for logic {logic}")
            index[f] = len(ops)
            ops.append(op)
            return index[f]

        self.roots = [compile_node(f) for f in self.formulas]
        self.index = index
        self.atoms: tuple[AtomKey, ...] = tuple(sorted({op[1] for op in ops if op[0] == "atom"}))
        slot = {a: i for i, a in enumerate(self.atoms)}
        self.ops = [("atom", slot[op[1]]) if op[0] == "atom" else op for op in ops]
        self.modal = [i for i, op in enumerate(self.ops) if op[0] in ("boxs", "boxe", "oblig")]

    def run(self, n: int, rows: tuple[int, ...], vals, modal=None,
            valid: int = 0) -> list[int] | None:
        """Truth mask of every slot over an n-world structure.

        Given ``modal``, the i-th modal op takes modal[i] instead of
        being computed from ``rows``: that binds the box and obligation
        bits a type-space caller has chosen.  Given ``valid``, the first
        ``valid`` input formulas must hold at every world: the run stops
        with None at the first root slot that does not, so a rejected
        candidate costs only the ops up to its first false root.
        """
        full = (1 << n) - 1
        bound = None if modal is None else iter(modal)
        stops = sorted(set(self.roots[:valid]))
        stops.append(-1)
        si = 0
        out: list[int] = []
        for i, op in enumerate(self.ops):
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
                m = full if out[op[1]] == full else 0
            elif tag == "boxs":
                sub = out[op[1]]
                m = 0
                for w in range(n):
                    if rows[w] & ~sub == 0:
                        m |= 1 << w
            else:  # oblig
                m = full if opt_mask(rows, out[op[2]]) & ~out[op[1]] == 0 else 0
            out.append(m)
            if i == stops[si]:
                if m != full:
                    return None
                si += 1
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


def satisfies_frame(model: _ModelBase, cond: FrameConditions) -> bool:
    return frame_holds(model.n, model.rows, cond)


def frame_holds(n: int, rows: tuple[int, ...], cond: FrameConditions) -> bool:
    """satisfies_frame over raw relation rows."""
    return all(_check_prop(n, rows, p).holds for p in cond.flags())


# ---------------------------------------------------------------------------
# Exhaustive enumeration (raw, no isomorphism pruning)


def _decode_valuation(bits: int, atoms: tuple[AtomKey, ...], n: int) -> dict[AtomKey, int]:
    full = (1 << n) - 1
    return {a: (bits >> (i * n)) & full for i, a in enumerate(atoms)}


def iter_preference_models(n_worlds: int, atoms: Iterable[AtomKey | str],
                           frame: FrameConditions | None = None,
                           domain: Iterable[str] = ()) -> Iterator[PreferenceModel]:
    """All preference models with exactly n_worlds worlds, every betterness
    relation and every valuation of the given atoms; optionally filtered
    by frame conditions.  Intended for exhaustive small-scale checks."""
    keys = tuple(parse_atom_key(a) if isinstance(a, str) else (a[0], tuple(a[1])) for a in atoms)
    n = n_worlds
    dom = tuple(domain)
    full = (1 << n) - 1
    for rel_bits in range(1 << (n * n)):
        rows = tuple((rel_bits >> (s * n)) & full for s in range(n))
        if frame is not None and not frame_holds(n, rows, frame):
            continue
        relation = frozenset((s, t) for s in range(n) for t in _bits(rows[s]))
        for val_bits in range(1 << (len(keys) * n)):
            m = PreferenceModel.__new__(PreferenceModel)
            m.n, m.full, m.rows, m.relation, m.domain = n, full, rows, relation, dom
            m.valuation = _decode_valuation(val_bits, keys, n)
            yield m


def iter_serial_kripke_models(n_worlds: int, atoms: Iterable[AtomKey | str],
                              domain: Iterable[str] = ()) -> Iterator[KripkeModel]:
    """All serial Kripke models with exactly n_worlds worlds."""
    keys = tuple(parse_atom_key(a) if isinstance(a, str) else (a[0], tuple(a[1])) for a in atoms)
    n = n_worlds
    dom = tuple(domain)
    row_choices = [r for r in range(1, 1 << n)]  # nonempty successor sets
    for rows in product(row_choices, repeat=n):
        relation = frozenset((s, t) for s in range(n) for t in _bits(rows[s]))
        for val_bits in range(1 << (len(keys) * n)):
            m = KripkeModel.__new__(KripkeModel)
            m.n = n
            m.full = (1 << n) - 1
            m.rows = tuple(rows)
            m.relation = relation
            m.domain = dom
            m.valuation = _decode_valuation(val_bits, keys, n)
            yield m
