"""Finite model finding and bounded decision procedures.

Bounded search enumerates candidate models in a fixed canonical order:
increasing world count, then relation bits ascending, then valuation
bits ascending, with non-canonical representatives under world
permutation pruned away.  Candidates stay raw relation rows and
valuation masks, run through one semantics.CompiledBank per scan; only
a hit becomes a model object, and every returned witness is re-checked
through semantics.Evaluator before it leaves this module.

Complete mode decides satisfiability outright instead of walking the
whole bounded space.  Both logics admit a small-model argument through
"world types":

* SDL (serial Kripke): a type assigns truth to every atom and every
  O-subformula.  Iterated elimination keeps a type only while some
  surviving type can serve as successor (realizing seriality and every
  negative O-bit); the survivors themselves form a model, so the input
  is satisfiable iff a survivor meeting the local constraints remains.
* System E (preference): the box and the dyadic obligation are global,
  so a candidate is a truth assignment to the modal subformulas plus a
  set of realized atom-types.  Such a candidate is realizable by an
  actual betterness relation iff every false obligation O(b/c) has a
  witness type (c and not b) that is not forced optimal into a true
  obligation O(b'/c') whose c'-types are contained in the c-types; a
  larger realized-type set only makes these conditions easier, so only
  the maximal consistent type set needs checking.  Types are never
  listed: the candidates and every question about their types are
  queries to the DPLL solver of deon.sat over the Tseitin clauses of
  the compiled inputs, so memory grows with the input, not with 2^atoms.

SDL runs the compiled inputs over all its types as bitmask worlds; E asks
the solver, and runs the compiled inputs only over the types it picked.
Either way a satisfiable input has a model no bigger than 2^|subformulas|,
the bound recorded on Valid/DecidedUnsatisfiable verdicts.  A satisfiable
complete-mode answer then goes through the canonical bounded scan up to
the constructed witness's size, with its own node budget charged one
unit per compiled op per candidate; if that runs out, the constructed
witness is returned.  The node budget is the only limit on the size of
an input: an input too large to decide ends in BudgetExceeded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import permutations

from . import formula as F
from . import sat
from . import semantics as S


class SearchError(Exception):
    pass


class BudgetExceeded(SearchError):
    """The configured node budget ran out before a verdict was reached."""

    def __init__(self, budget: int):
        super().__init__(f"node budget of {budget} exceeded")
        self.budget = budget


def _default_budget() -> int:
    try:
        return int(os.environ.get("DEON_NODE_BUDGET", "") or 10_000_000)
    except ValueError:
        return 10_000_000


@dataclass(frozen=True)
class SearchConfig:
    logic: str = "e"
    frame: S.FrameConditions = S.FrameConditions()
    max_worlds: int = 3
    complete: bool = False
    node_budget: int = field(default_factory=_default_budget)

    def __post_init__(self):
        if self.logic not in ("sdl", "e"):
            raise SearchError(f"unknown logic {self.logic!r}")
        if self.max_worlds < 1:
            raise SearchError("max_worlds must be at least 1")


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class ModelFound:
    model: object
    tag = "model_found"


@dataclass(frozen=True)
class NoModelUpTo:
    bound: int
    tag = "no_model_up_to"


@dataclass(frozen=True)
class DecidedUnsatisfiable:
    bound_used: int
    tag = "unsatisfiable"


@dataclass(frozen=True)
class Valid:
    bound_used: int
    tag = "valid"


@dataclass(frozen=True)
class CountermodelFound:
    model: object
    world: int
    tag = "countermodel"


Verdict = ModelFound | NoModelUpTo | DecidedUnsatisfiable | Valid | CountermodelFound


class _Budget:
    __slots__ = ("left", "total")

    def __init__(self, total: int):
        self.left = total
        self.total = total

    def tick(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded(self.total)


def filtration_bound(fs: list[F.Formula]) -> int:
    """2 to the number of distinct subformulas across the input set."""
    return 1 << len(_sigma(fs))


def _require_ground(fs) -> None:
    for f in fs:
        if F.free_vars(f):
            raise SearchError(f"formula has free variables: {sorted(F.free_vars(f))}")
        for g in F.subformulas(f):
            if isinstance(g, (F.Forall, F.Exists)):
                raise SearchError("quantified input: expand with formula.ground first")


def _domain(fs) -> tuple[str, ...]:
    """The constants the formulas mention, sorted."""
    return tuple(sorted({t.name for f in fs for a in F.atoms_of(f) for t in a.args}))


def _check_cfg(cfg: SearchConfig) -> None:
    if cfg.logic == "sdl" and not (cfg.frame.none() or cfg.frame.flags() == ("serial",)):
        raise SearchError("SDL search supports only the (implied) serial frame")
    if cfg.complete and cfg.logic == "e" and not cfg.frame.none():
        raise SearchError("complete mode decides the unrestricted frame only")


# ---------------------------------------------------------------------------
# Canonical bounded enumeration


def _perm_rel_table(n: int, perm: tuple[int, ...]) -> tuple[int, ...]:
    # bit position s*n+t maps to perm[s]*n+perm[t]
    return tuple(perm[s] * n + perm[t] for s in range(n) for t in range(n))


def _apply_bits(bits: int, table: tuple[int, ...]) -> int:
    out = 0
    i = 0
    while bits:
        if bits & 1:
            out |= 1 << table[i]
        bits >>= 1
        i += 1
    return out


class _Enum:
    """Per-size canonical enumeration state."""

    def __init__(self, n: int):
        self.n = n
        perms = [p for p in permutations(range(n)) if p != tuple(range(n))]
        self.rel_tables = [_perm_rel_table(n, p) for p in perms]
        self.world_tables = perms

    def rel_status(self, rel: int) -> tuple[bool, list[tuple[int, ...]]]:
        """Is rel minimal among its permutations, and its stabilizer."""
        stab = []
        for tab, wt in zip(self.rel_tables, self.world_tables):
            pr = _apply_bits(rel, tab)
            if pr < rel:
                return False, []
            if pr == rel:
                stab.append(wt)
        return True, stab

    @staticmethod
    def val_canonical(vals: tuple[int, ...], stab: list[tuple[int, ...]]) -> bool:
        for wt in stab:
            perm_vals = tuple(_apply_bits(v, wt) for v in vals)
            if perm_vals < vals:
                return False
        return True


def _iter_models(n: int, k: int, cfg: SearchConfig, budget: _Budget,
                 frame_mode: str = "require", cost: int = 1):
    """Canonical candidates of exactly n worlds over k atoms, as raw
    (relation rows, valuation masks), each charged cost budget units.

    frame_mode "require" keeps models satisfying cfg.frame, "violate"
    keeps those failing at least one requested condition.
    """
    enum = _Enum(n)
    full = (1 << n) - 1
    for rel in range(1 << (n * n)):
        rows = tuple((rel >> (s * n)) & full for s in range(n))
        if cfg.logic == "sdl" and not all(rows):
            continue
        if not cfg.frame.none():
            ok = S.frame_holds(n, rows, cfg.frame)
            if frame_mode == "require" and not ok:
                continue
            if frame_mode == "violate" and ok:
                continue
        minimal, stab = enum.rel_status(rel)
        if not minimal:
            continue
        for vbits in range(1 << (k * n)):
            budget.tick(cost)
            vals = tuple((vbits >> (i * n)) & full for i in range(k))
            if stab and not enum.val_canonical(vals, stab):
                continue
            yield rows, vals


def _model(logic: str, n: int, rows: tuple[int, ...], atoms, vals, domain):
    """The public model object for a raw candidate."""
    cls = S.KripkeModel if logic == "sdl" else S.PreferenceModel
    relation = [(s, t) for s in range(n) for t in S._bits(rows[s])]
    return cls(n, relation, {a: list(S._bits(v)) for a, v in zip(atoms, vals)}, domain)


def _revalidate(model, fs, logic: str, false_somewhere: F.Formula | None = None,
                world: int | None = None) -> None:
    ev = S.Evaluator(model, logic)
    for f in fs:
        if not ev.valid(f):
            raise SearchError(f"internal error: witness fails {F.print_formula(f)}")
    if false_somewhere is not None:
        if ev.holds(false_somewhere, world):
            raise SearchError("internal error: countermodel does not falsify the goal")


# ---------------------------------------------------------------------------
# Complete decision, system E


def _sigma(fs) -> dict[F.Formula, None]:
    """Distinct subformulas of fs, in pre-order."""
    sigma: dict[F.Formula, None] = {}
    for f in fs:
        for g in F.subformulas(f):
            sigma[g] = None
    return sigma


class _Unrealizable(Exception):
    """A type the realizability of an E candidate needs does not exist."""


def _exact_e(globals_: list[F.Formula], locals_: list[F.Formula], budget: _Budget):
    """Decide satisfiability: all of globals_ valid and every member of
    locals_ true somewhere.  Returns (model, local_worlds) or None.

    A candidate is a truth assignment gbits to the boxes and obligations
    (bit i for the i-th box, then one per obligation, each in pre-order)
    whose core, the atom-types (bit i of a type is atom i) where the
    globals and the true boxes' bodies hold, is not empty.  It is
    realizable when every false box has a core type falsifying its body,
    every false obligation j has a witness type in core, cond_j and not
    body_j outside ``bad`` (the cond_m-and-not-body_m types of each true
    obligation m whose core cond_m-types all lie in cond_j), and every
    local holds at some core type.  _build_e_witness turns the least
    such types into a model.

    Each question is one query to a sat.Solver holding the Tseitin
    clauses of the compiled inputs, the globals as units, the clause
    "box_i false or body_i" for every box, and one variable per
    obligation m equivalent to "cond_m implies body_m".  The order
    argument, which makes the result the one of a plain loop over
    gbits = 0, 1, 2, ... that skips empty cores and takes least types:

    * The candidate search decides the modal variables first, most
      significant gbits bit first, then atom k-1 down to atom 0, false
      first, so its first model is the least gbits with a non-empty core
      together with that core's least type.  Unit propagation fixes a
      global root that is a box or obligation before any decision.
    * A realizability query fixes the modal variables by assumptions and
      decides only the atoms, most significant first, so its model is
      the least type with the asked property; the containment
      "core cond_m-types inside cond_j" is the query for core, cond_m
      and not cond_j coming back empty, and otherwise its model is the
      separator type that _build_e_witness needs.
    * A candidate that fails is blocked: the candidate search resumes
      past its modal assignment (``Solver.models`` with ``keep`` the
      modal variables), the backtrack a clause blocking exactly that
      assignment would cause.  It rules out that one gbits and nothing
      else, so it is sound (no realizable candidate is lost) and the
      next model is the next candidate of the loop.  The search ends at
      the least realizable gbits, or with None when no candidate is left.
    """
    bank = S.CompiledBank(globals_ + locals_, "e")
    sigma = _sigma(bank.formulas)
    slot = bank.index
    modal_fs = ([f for f in sigma if isinstance(f, F.Box)]
                + [f for f in sigma if isinstance(f, F.Oblig)])
    nboxes = sum(isinstance(f, F.Box) for f in modal_fs)
    boxes = [slot[f.sub] for f in modal_fs[:nboxes]]
    obls = [(slot[f.body], slot[f.cond]) for f in modal_fs[nboxes:]]
    bit = {slot[f]: i for i, f in enumerate(modal_fs)}
    bits = [bit[s] for s in bank.modal]
    gs, ls = bank.roots[:len(globals_)], bank.roots[len(globals_):]
    k, n_ops = len(bank.atoms), len(bank.ops)

    # variable s + 1 is slot s; variable n_ops + 1 + m is "cond_m implies body_m"
    modal_vars = [slot[f] + 1 for f in modal_fs]
    clauses = list(sat.bank_clauses(bank.ops))
    clauses += [[g + 1] for g in gs] + [[-v, b + 1] for v, b in zip(modal_vars, boxes)]
    for m, (body, cond) in enumerate(obls):
        clauses += sat.TSEITIN["imp"](n_ops + 1 + m, cond + 1, body + 1)
    atom_var = {op[1]: s + 1 for s, op in enumerate(bank.ops) if op[0] == "atom"}
    types = [atom_var[i] for i in reversed(range(k))]
    solver = sat.Solver(n_ops + len(obls), clauses)  # answers the queries

    def least(*lits):
        t = solver.solve(types, fixed + list(lits), budget)
        if t is None:
            raise _Unrealizable
        return t

    for model in sat.Solver(n_ops + len(obls), clauses).models(
            modal_vars[::-1] + types, (), budget, keep=len(modal_vars)):
        gbits = model >> k
        fixed = [v if gbits >> i & 1 else -v for i, v in enumerate(modal_vars)]
        true_obls = [m for m in range(len(obls)) if gbits >> (nboxes + m) & 1]
        try:
            box_types = [least(-(b + 1)) for i, b in enumerate(boxes) if not gbits >> i & 1]
            witnesses, seps = [], {}
            for j, (body, cond) in enumerate(obls):
                if gbits >> (nboxes + j) & 1:
                    continue
                found = [(m, solver.solve(types, fixed + [obls[m][1] + 1, -(cond + 1)], budget))
                         for m in true_obls]
                # a true obligation whose core cond_m-types lie inside cond_j's
                # must not see the witness among its cond_m-and-not-body_m types
                safe = [n_ops + 1 + m for m, sep in found if sep is None]
                witnesses.append((j, least(cond + 1, -(body + 1), *safe)))
                seps[j] = [(m, sep) for m, sep in found if sep is not None]
            local_types = [least(f + 1) for f in ls]
        except _Unrealizable:
            continue
        return _build_e_witness(bank, gbits, bits, boxes, obls, model & ((1 << k) - 1),
                                box_types, witnesses, seps, local_types, len(globals_))
    return None


def _build_e_witness(bank: S.CompiledBank, gbits: int, bits, boxes, obls, core_type,
                     box_types, witnesses, seps, local_types, n_globals: int):
    """Deterministic preference model realizing the chosen type assignment.

    boxes holds the slot of each box's body and obls the (body, cond)
    slots of each obligation; box_types are the false boxes' counterexample
    types, witnesses pairs each false obligation's index with its witness
    type, seps maps that index to the (true obligation, separator type)
    pairs breaking a containment, and core_type is the least core type.
    One compiled run over the chosen types re-checks the solver's answers.
    """
    k = len(bank.atoms)
    needed = dict.fromkeys(local_types + box_types)
    for j, t in witnesses:
        needed[t] = None
        # separator types breaking the containment for each endangered
        # true obligation
        at = bank.run(1, (), [t >> i & 1 for i in range(k)], [gbits >> b & 1 for b in bits])
        for m, sep in seps[j]:
            body_m, cond_m = obls[m]
            if at[cond_m] and not at[body_m]:
                needed[sep] = None
    if not needed:
        needed[core_type] = None
    base_types = sorted(needed)
    world_type = base_types + [t for _, t in witnesses]
    n = len(world_type)
    full = (1 << n) - 1
    vals = [sum(1 << w for w, t in enumerate(world_type) if t >> i & 1) for i in range(k)]
    tm = bank.run(n, (), vals, [full if gbits >> b & 1 else 0 for b in bits])
    local_worlds = [base_types.index(t) for t in local_types]
    witness_worlds = list(enumerate(witnesses, len(base_types)))
    if not (all(tm[g] == full for g in bank.roots[:n_globals])
            and all((tm[b] == full) == bool(gbits >> i & 1) for i, b in enumerate(boxes))
            and all(tm[f] >> w & 1 for f, w in zip(bank.roots[n_globals:], local_worlds))
            and all(tm[obls[j][1]] >> w & ~tm[obls[j][0]] >> w & 1
                    for w, (j, _) in witness_worlds)):
        raise SearchError("internal error: a chosen world type fails the compiled check")
    relation = [(w, u) for w, (j, _) in witness_worlds for u in range(n)
                if tm[obls[j][1]] >> u & 1]
    valuation = {a: [w for w, t in enumerate(world_type) if t >> i & 1]
                 for i, a in enumerate(bank.atoms)}
    # the domain is the constants the atoms mention (the model sorts it)
    domain = {c for _, args in bank.atoms for c in args}
    return S.PreferenceModel(n, relation, valuation, domain), local_worlds


# ---------------------------------------------------------------------------
# Complete decision, SDL


def _exact_sdl(globals_: list[F.Formula], locals_: list[F.Formula], budget: _Budget):
    """Type elimination.  A type is a (k + p)-bit index: the truth of the
    k atoms, then of the p O-subformulas in pre-order; the compiled
    inputs run once over all 2^(k+p) types as worlds, with atom i bound
    to bit i and O-subformula j to bit k + j."""
    bank = S.CompiledBank(globals_ + locals_, "sdl")
    sigma = _sigma(bank.formulas)
    boxes = [f for f in sigma if isinstance(f, F.ObligM)]
    k, p = len(bank.atoms), len(boxes)
    n_types = 1 << (k + p)
    budget.tick(max(1, ((len(sigma) + (1 << p)) * n_types) >> 6))  # before any mask
    full = (1 << n_types) - 1

    box_bit = {bank.index[b]: k + j for j, b in enumerate(boxes)}
    tm = bank.run(n_types, (), [S.bit_mask(i, n_types) for i in range(k)],
                  [S.bit_mask(box_bit[s], n_types) for s in bank.modal])

    survivors = full
    for g in bank.roots[:len(globals_)]:
        survivors &= tm[g]
    # types sharing a box-bit pattern b occupy the contiguous block
    # [b*2^k, (b+1)*2^k)
    block = (1 << (1 << k)) - 1
    pattern_mask = [block << (b << k) for b in range(1 << p)]
    body_mask = [tm[bank.index[box.sub]] for box in boxes]

    while survivors:
        budget.tick(max(1, ((1 << p) * n_types) >> 6))
        keep = 0
        for b in range(1 << p):
            if not survivors & pattern_mask[b]:
                continue
            succ = survivors
            for j in range(p):
                if b >> j & 1:
                    succ &= body_mask[j]
            if not succ:
                continue
            if any(not (succ & ~body_mask[j]) for j in range(p) if not b >> j & 1):
                continue
            keep |= pattern_mask[b]
        new = survivors & keep
        if new == survivors:
            break
        survivors = new
    if not survivors:
        return None
    local_types = []
    for f in bank.roots[len(globals_):]:
        hits = survivors & tm[f]
        if not hits:
            return None
        local_types.append((hits & -hits).bit_length() - 1)

    # closure construction: start from the needed types, add successors
    start = list(dict.fromkeys(local_types)) or [(survivors & -survivors).bit_length() - 1]
    included: dict[int, None] = dict.fromkeys(start)
    queue = list(included)
    while queue:
        t = queue.pop(0)
        b = t >> k
        succ = survivors
        for j in range(p):
            if b >> j & 1:
                succ &= body_mask[j]
        picks = []
        for j in range(p):
            if not b >> j & 1:
                need = succ & ~body_mask[j]
                hit = next((u for u in included if need >> u & 1), None)
                if hit is None:
                    hit = (need & -need).bit_length() - 1
                picks.append(hit)
        if not picks:
            hit = next((u for u in included if succ >> u & 1), None)
            if hit is None:
                hit = (succ & -succ).bit_length() - 1
            picks.append(hit)
        for u in picks:
            if u not in included:
                included[u] = None
                queue.append(u)
    world_type = sorted(included)
    index = {t: w for w, t in enumerate(world_type)}
    n = len(world_type)
    relation = []
    for t in world_type:
        b = t >> k
        for u in world_type:
            if all(body_mask[j] >> u & 1 for j in range(p) if b >> j & 1):
                relation.append((index[t], index[u]))
    valuation = {a: [index[t] for t in world_type if t >> i & 1]
                 for i, a in enumerate(bank.atoms)}
    domain = {c for _, args in bank.atoms for c in args}
    model = S.KripkeModel(n, relation, valuation, domain)
    local_worlds = [index[t] for t in local_types]
    return model, local_worlds


# ---------------------------------------------------------------------------
# Public operations


def _bounded_scan(valid_fs, falsify: F.Formula | None, domain,
                  cfg: SearchConfig, budget: _Budget, max_n: int,
                  frame_mode: str = "require"):
    """Scan sizes 1..max_n; returns (model, world) or None.

    When falsify is given the world is the least world where it fails,
    and candidate models must additionally make it false somewhere.
    In complete mode this is the canonical re-scan below a constructed
    witness: each candidate costs one unit per compiled op, and running
    out of budget returns None instead of raising.
    """
    bank = S.CompiledBank(list(valid_fs) + ([falsify] if falsify is not None else []),
                          cfg.logic)
    n_valid = len(valid_fs)
    cost = len(bank.ops) if cfg.complete else 1
    try:
        for n in range(1, max_n + 1):
            full = (1 << n) - 1
            for rows, vals in _iter_models(n, len(bank.atoms), cfg, budget, frame_mode,
                                           cost):
                out = bank.run(n, rows, vals, valid=n_valid)
                if out is None:
                    continue
                world = None
                if falsify is not None:
                    false_at = ~out[bank.roots[n_valid]] & full
                    if not false_at:
                        continue
                    world = (false_at & -false_at).bit_length() - 1
                model = _model(cfg.logic, n, rows, bank.atoms, vals, domain)
                _revalidate(model, valid_fs, cfg.logic,
                            false_somewhere=falsify, world=world)
                return model, world
    except BudgetExceeded:
        if cfg.complete:
            return None  # caller falls back to the constructed witness
        raise
    return None


def _search(valid_fs: list[F.Formula], falsify: F.Formula | None, cfg: SearchConfig):
    """find_model and entails: (model, world) as _bounded_scan gives it,
    or None; complete mode decides first, then re-scans canonically."""
    every = valid_fs + ([] if falsify is None else [falsify])
    _require_ground(every)
    _check_cfg(cfg)
    domain = _domain(every)
    budget = _Budget(cfg.node_budget)
    if not cfg.complete:
        return _bounded_scan(valid_fs, falsify, domain, cfg, budget, cfg.max_worlds)
    exact = _exact_sdl if cfg.logic == "sdl" else _exact_e
    got = exact(valid_fs, [] if falsify is None else [F.Not(falsify)], budget)
    if got is None:
        return None
    witness, worlds = got
    found = _bounded_scan(valid_fs, falsify, domain, cfg, _Budget(cfg.node_budget), witness.n)
    if found is not None:
        return found
    world = None if falsify is None else worlds[0]
    _revalidate(witness, valid_fs, cfg.logic, false_somewhere=falsify, world=world)
    return witness, world


def find_model(fs, cfg: SearchConfig) -> Verdict:
    """First canonical model making every formula valid, or a negative
    verdict; complete mode turns exhaustion into DecidedUnsatisfiable."""
    fs = list(fs)
    found = _search(fs, None, cfg)
    if found is not None:
        return ModelFound(found[0])
    if cfg.complete:
        return DecidedUnsatisfiable(filtration_bound(fs))
    return NoModelUpTo(cfg.max_worlds)


def entails(assumptions, goal: F.Formula, cfg: SearchConfig) -> Verdict:
    """Countermodel search: assumptions valid, goal false at some world."""
    assumptions = list(assumptions)
    found = _search(assumptions, goal, cfg)
    if found is not None:
        return CountermodelFound(*found)
    if cfg.complete:
        return Valid(filtration_bound(assumptions + [goal]))
    return NoModelUpTo(cfg.max_worlds)


def decide_valid(f: F.Formula, cfg: SearchConfig) -> Verdict:
    """Validity via countermodel search; complete mode decides it."""
    return entails([], f, cfg)


@dataclass(frozen=True)
class CorrespondenceReport:
    schema: F.Formula
    frame: S.FrameConditions
    bound: int
    holds_under_frame: bool
    frame_counterexample: object | None  # model where frame holds, schema fails
    violating_witness: object | None     # model violating frame, schema valid


def correspondence(schema: F.Formula, frame: S.FrameConditions,
                   cfg: SearchConfig) -> CorrespondenceReport:
    """Two frame-correspondence probes for a schema instance.

    (a) is the schema valid in every model satisfying the frame, up to
    the bound; (b) is there a model violating the frame in which the
    schema is still valid.
    """
    _require_ground([schema])
    if cfg.logic != "e":
        raise SearchError("correspondence probes run over preference models")
    if frame.none():
        raise SearchError("correspondence needs at least one frame condition")
    domain = _domain([schema])
    probe_cfg = SearchConfig(logic="e", frame=frame, max_worlds=cfg.max_worlds,
                             node_budget=cfg.node_budget)
    budget = _Budget(cfg.node_budget)

    counterexample = None
    found = _bounded_scan([], schema, domain, probe_cfg, budget,
                          cfg.max_worlds, frame_mode="require")
    if found is not None:
        counterexample = found[0]

    budget = _Budget(cfg.node_budget)
    witness = None
    found = _bounded_scan([schema], None, domain, probe_cfg, budget,
                          cfg.max_worlds, frame_mode="violate")
    if found is not None:
        witness = found[0]
        for check in S.check_frame(witness, frame):
            if check.holds:
                raise SearchError(f"internal error: witness satisfies {check.prop}")

    return CorrespondenceReport(schema, frame, cfg.max_worlds,
                                counterexample is None, counterexample, witness)


def minimal_unsat_subset(fs, cfg: SearchConfig) -> list[int]:
    """Deletion-based shrink to a minimal unsatisfiable subset.

    Returns the core as ascending positions in fs (equal formulas are
    one object, so only positions tell them apart).  Requires complete
    mode; both the result's unsatisfiability and the satisfiability of
    every one-element-removed subset are re-verified.
    """
    fs = list(fs)
    if not cfg.complete:
        raise SearchError("minimal_unsat_subset needs complete mode")
    verdict = find_model(fs, cfg)
    if not isinstance(verdict, DecidedUnsatisfiable):
        raise SearchError("minimal_unsat_subset expects an unsatisfiable input set")

    def model_of(positions: list[int]) -> Verdict:
        return find_model([fs[j] for j in positions], cfg)

    core = list(range(len(fs)))
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1:]
        if trial and isinstance(model_of(trial), DecidedUnsatisfiable):
            core = trial
        else:
            i += 1

    if not isinstance(model_of(core), DecidedUnsatisfiable):
        raise SearchError("internal error: shrunken core is satisfiable")
    for i in range(len(core)):
        trial = core[:i] + core[i + 1:]
        if trial and not isinstance(model_of(trial), ModelFound):
            raise SearchError("internal error: core is not minimal")
    return core
