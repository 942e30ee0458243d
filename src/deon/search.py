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
  the maximal consistent type set needs checking.

Either way a satisfiable input has a model no bigger than 2^|subformulas|,
the bound recorded on Valid/DecidedUnsatisfiable verdicts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import permutations

from . import formula as F
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
                 frame_mode: str = "require"):
    """Canonical candidates of exactly n worlds over k atoms, as raw
    (relation rows, valuation masks).

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
            budget.tick()
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


def _exact_e(globals_: list[F.Formula], locals_: list[F.Formula], budget: _Budget):
    """Decide satisfiability: all of globals_ valid and every member of
    locals_ true somewhere.  Returns (model, local_worlds) or None.

    The compiled inputs run over the 2^k atom-types as worlds, once per
    truth assignment gbits to the boxes and obligations (bit i for the
    i-th box, then one per obligation, each in pre-order), with those
    modal ops bound to all types or none.
    """
    bank = S.CompiledBank(globals_ + locals_, "e")
    sigma = _sigma(bank.formulas)
    slot = bank.index
    modal_fs = ([f for f in sigma if isinstance(f, F.Box)]
                + [f for f in sigma if isinstance(f, F.Oblig)])
    boxes = [slot[f.sub] for f in modal_fs if isinstance(f, F.Box)]
    obls = [(slot[f.body], slot[f.cond]) for f in modal_fs if isinstance(f, F.Oblig)]
    bit = {slot[f]: i for i, f in enumerate(modal_fs)}
    bits = [bit[s] for s in bank.modal]
    gs, ls = bank.roots[:len(globals_)], bank.roots[len(globals_):]
    k = len(bank.atoms)
    n_types = 1 << k
    full = (1 << n_types) - 1
    work = max(1, (len(sigma) * n_types) >> 6)
    atom_masks = [S.bit_mask(i, n_types) for i in range(k)]
    nboxes = len(boxes)

    for gbits in range(1 << len(modal_fs)):
        budget.tick(work)
        tm = bank.run(n_types, (), atom_masks, [full if gbits >> b & 1 else 0 for b in bits])
        core = full
        for g in gs:
            core &= tm[g]
        for i, b in enumerate(boxes):
            if gbits >> i & 1:
                core &= tm[b]
        if not core:
            continue
        if any(not (core & ~tm[b]) for i, b in enumerate(boxes)
               if not gbits >> i & 1):
            continue
        witnesses: list[tuple[int, int]] = []
        ok = True
        for j, (body, cond) in enumerate(obls):
            if gbits >> (nboxes + j) & 1:
                continue
            cands = core & tm[cond] & ~tm[body]
            if not cands:
                ok = False
                break
            bad = 0
            for m, (body_m, cond_m) in enumerate(obls):
                if not gbits >> (nboxes + m) & 1:
                    continue
                if not (core & tm[cond_m] & ~tm[cond]):  # cond_m types inside cond_j's
                    bad |= tm[cond_m] & ~tm[body_m]
            cands &= ~bad
            if not cands:
                ok = False
                break
            witnesses.append((j, (cands & -cands).bit_length() - 1))
        if not ok:
            continue
        local_types = []
        for f in ls:
            hits = core & tm[f]
            if not hits:
                ok = False
                break
            local_types.append((hits & -hits).bit_length() - 1)
        if not ok:
            continue
        return _build_e_witness(core, tm, bank.atoms, boxes, obls,
                                gbits, witnesses, local_types)
    return None


def _build_e_witness(core: int, tm: list[int], atoms, boxes, obls, gbits,
                     witnesses, local_types):
    """Deterministic preference model realizing the chosen type assignment.

    boxes holds the slot of each box's body and obls the (body, cond)
    slots of each obligation; witnesses pairs each false obligation's
    index with its witness type.
    """
    nboxes = len(boxes)
    needed: dict[int, None] = {}
    for t in local_types:
        needed[t] = None
    for i, b in enumerate(boxes):
        if not gbits >> i & 1:  # a false box needs a realized counterexample type
            wit = core & ~tm[b]
            needed[(wit & -wit).bit_length() - 1] = None
    for j, t in witnesses:
        needed[t] = None
        # separator types breaking the containment for each endangered
        # true obligation
        for m, (body_m, cond_m) in enumerate(obls):
            if not gbits >> (nboxes + m) & 1:
                continue
            danger = tm[cond_m] & ~tm[body_m]
            if danger >> t & 1:
                seps = core & tm[cond_m] & ~tm[obls[j][1]]
                needed[(seps & -seps).bit_length() - 1] = None
    if not needed:
        needed[(core & -core).bit_length() - 1] = None
    base_types = sorted(needed)
    world_type = list(base_types)
    witness_world: dict[int, int] = {}
    for idx, (j, t) in enumerate(witnesses):
        witness_world[idx] = len(world_type)
        world_type.append(t)
    n = len(world_type)
    relation = []
    for idx, (j, t) in enumerate(witnesses):
        w = witness_world[idx]
        cond_mask = tm[obls[j][1]]
        for u, ut in enumerate(world_type):
            if cond_mask >> ut & 1:
                relation.append((w, u))
    valuationat = {}
    for i, a in enumerate(atoms):
        valuation_worlds = [w for w, ut in enumerate(world_type) if ut >> i & 1]
        valuationat[a] = valuation_worlds
    # the domain is the constants the atoms mention (the model sorts it)
    domain = {c for _, args in atoms for c in args}
    model = S.PreferenceModel(n, relation, valuationat, domain)
    local_worlds = [base_types.index(t) for t in local_types]
    return model, local_worlds


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
    full = (1 << n_types) - 1
    budget.tick(max(1, ((len(sigma) + (1 << p)) * n_types) >> 6))

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


def _exact(globals_, locals_, cfg: SearchConfig, budget: _Budget):
    if cfg.logic == "sdl":
        return _exact_sdl(globals_, locals_, budget)
    return _exact_e(globals_, locals_, budget)


# ---------------------------------------------------------------------------
# Public operations


def find_model(fs, cfg: SearchConfig) -> Verdict:
    """First canonical model making every formula valid, or a negative
    verdict; complete mode turns exhaustion into DecidedUnsatisfiable."""
    fs = list(fs)
    _require_ground(fs)
    _check_cfg(cfg)
    domain = _domain(fs)
    budget = _Budget(cfg.node_budget)

    if cfg.complete:
        got = _exact(fs, [], cfg, budget)
        if got is None:
            return DecidedUnsatisfiable(filtration_bound(fs))
        witness, _ = got
        found = _bounded_scan(fs, None, domain, cfg, budget, witness.n)
        if found is not None:
            return ModelFound(found[0])
        _revalidate(witness, fs, cfg.logic)
        return ModelFound(witness)

    found = _bounded_scan(fs, None, domain, cfg, budget, cfg.max_worlds)
    if found is not None:
        return ModelFound(found[0])
    return NoModelUpTo(cfg.max_worlds)


def _bounded_scan(valid_fs, falsify: F.Formula | None, domain,
                  cfg: SearchConfig, budget: _Budget, max_n: int,
                  frame_mode: str = "require"):
    """Scan sizes 1..max_n; returns (model, world) or None.

    When falsify is given the world is the least world where it fails,
    and candidate models must additionally make it false somewhere.
    """
    bank = S.CompiledBank(list(valid_fs) + ([falsify] if falsify is not None else []),
                          cfg.logic)
    n_valid = len(valid_fs)
    try:
        for n in range(1, max_n + 1):
            full = (1 << n) - 1
            for rows, vals in _iter_models(n, len(bank.atoms), cfg, budget, frame_mode):
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


def entails(assumptions, goal: F.Formula, cfg: SearchConfig) -> Verdict:
    """Countermodel search: assumptions valid, goal false at some world."""
    assumptions = list(assumptions)
    _require_ground(assumptions + [goal])
    _check_cfg(cfg)
    domain = _domain(assumptions + [goal])
    budget = _Budget(cfg.node_budget)

    if cfg.complete:
        got = _exact(assumptions, [F.Not(goal)], cfg, budget)
        if got is None:
            return Valid(filtration_bound(assumptions + [goal]))
        witness, worlds = got
        found = _bounded_scan(assumptions, goal, domain, cfg, budget, witness.n)
        if found is not None:
            return CountermodelFound(found[0], found[1])
        _revalidate(witness, assumptions, cfg.logic, false_somewhere=goal,
                    world=worlds[0])
        return CountermodelFound(witness, worlds[0])

    found = _bounded_scan(assumptions, goal, domain, cfg, budget, cfg.max_worlds)
    if found is not None:
        return CountermodelFound(found[0], found[1])
    return NoModelUpTo(cfg.max_worlds)


def decide_valid(f: F.Formula, cfg: SearchConfig) -> Verdict:
    """Validity via countermodel search; complete mode decides it."""
    _require_ground([f])
    _check_cfg(cfg)
    if cfg.complete and len(F.subformulas(f)) > 20:
        raise SearchError("complete mode rejects formulas with more than 20 subformulas")
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
