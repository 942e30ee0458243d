"""Finite model finding and bounded decision procedures.

Bounded search enumerates candidate models in a fixed canonical order:
increasing world count, then relation bits ascending, then valuation
bits ascending, with non-canonical representatives under world
permutation pruned away.  Candidates stay raw relation rows and
valuation masks, run through one semantics.CompiledBank per search
(shared by exact procedure, re-scan and MUS), and bit-parallel: one
run decides a chunk of up to 2^CHUNK_BITS valuations of one relation,
each in its own lane of the masks.  The hit is the least canonical lane
that passes, and the chunk is charged what a loop over one candidate at
a time charges up to that hit (or for the whole chunk).  That loop runs
out as soon as its running charge passes the budget, so it runs out
inside a chunk exactly when the chunk's charge passes the budget: the
hit, the budget left and the point at which the budget runs out are
that loop's (it is kept with the tests as the reference).  Testing a
relation for canonicity costs one unit per permutation applied, and a
world count whose n! - 1 permutations the budget cannot pay for is
refused before they are listed.  Only a hit becomes a model object, and
every returned witness is re-checked before it leaves this module: a
semantics.Evaluator runs the search's bank once over the model object.

Complete mode decides satisfiability outright instead of walking the
whole bounded space.  Both logics admit a small-model argument through
"world types":

* SDL (serial Kripke): a type assigns truth to every atom and every
  O-subformula.  Iterated elimination keeps a type only while some
  surviving type can serve as successor (realizing seriality and every
  negative O-bit); the survivors themselves form a model, so the input
  is satisfiable iff a survivor meeting the local constraints remains.
  Elimination is lazy: a closure over least types asks the solver for
  each successor, and a failed request teaches the solver a clause that
  removes the types which cannot have one.
* System E (preference): the box and the dyadic obligation are global,
  so a candidate is a truth assignment to the modal subformulas plus a
  set of realized atom-types.  Such a candidate is realizable by an
  actual betterness relation iff every false obligation O(b/c) has a
  witness type (c and not b) that is not forced optimal into a true
  obligation O(b'/c') whose c'-types are contained in the c-types; a
  larger realized-type set only makes these conditions easier, so only
  the maximal consistent type set needs checking.

Neither logic lists its types: every question about them is a query to
the DPLL solver of deon.sat over the Tseitin clauses of the compiled
inputs, so memory grows with the input, not with 2^atoms, and the
compiled inputs run only over the types picked for a witness.  A
satisfiable input has a model no bigger than 2^|subformulas|, the bound
recorded on Valid/DecidedUnsatisfiable verdicts.  A satisfiable
complete-mode answer then goes through the canonical bounded scan up to
the constructed witness's size, with its own node budget charged one
unit per compiled op per candidate; if that runs out, the constructed
witness is returned.  The node budget is the only limit on the size of
an input: an input too large to decide ends in BudgetExceeded.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, permutations
from math import factorial

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
        F.check_logic(self.logic, SearchError)
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
    """The input has no model: by filtration it would have one of at
    most 2^subformulas worlds, subformulas being its number of distinct
    subformulas.  bank, neither compared nor printed, is the search's."""

    subformulas: int
    bank: S.CompiledBank = field(compare=False, repr=False)
    tag = "unsatisfiable"


@dataclass(frozen=True)
class Valid:
    """The goal holds at every world of every model of the assumptions;
    `subformulas` as for DecidedUnsatisfiable."""

    subformulas: int
    tag = "valid"


@dataclass(frozen=True)
class CountermodelFound:
    model: object
    world: int
    tag = "countermodel"


Verdict = ModelFound | NoModelUpTo | DecidedUnsatisfiable | Valid | CountermodelFound


# The bounded scan decides up to 2^CHUNK_BITS valuations of one relation
# with one compiled run.
CHUNK_BITS = 12


class _Budget:
    __slots__ = ("left", "total")

    def __init__(self, total: int):
        self.left = total
        self.total = total

    def tick(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded(self.total)


def _require_ground(fs) -> None:
    for f in fs:
        if not F.is_ground(f):
            if F.free_vars(f):
                raise SearchError(f"formula has free variables: {sorted(F.free_vars(f))}")
            raise SearchError("quantified input: expand with formula.ground first")


def _check_cfg(cfg: SearchConfig) -> None:
    serial = F.LOGICS[cfg.logic].serial
    if serial and not (cfg.frame.none() or cfg.frame.flags() == ("serial",)):
        raise SearchError("SDL search supports only the (implied) serial frame")
    if cfg.complete and not serial and not cfg.frame.none():
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
    """Per-size canonical enumeration state.  Testing a relation charges
    one budget unit per permutation applied to it."""

    def __init__(self, n: int, budget: _Budget):
        # the first relation that reaches rel_status is canonical (the
        # frame filters are invariant under permutation), so it applies
        # all n! - 1 permutations: refuse before listing them
        if factorial(n) - 1 > budget.left:
            raise BudgetExceeded(budget.total)
        self.budget = budget
        perms = [p for p in permutations(range(n)) if p != tuple(range(n))]
        self.rel_tables = [_perm_rel_table(n, p) for p in perms]
        self.world_tables = perms

    def rel_status(self, rel: int) -> tuple[bool, list[tuple[int, ...]]]:
        """Is rel minimal among its permutations, and its stabilizer."""
        stab = []
        for applied, (tab, wt) in enumerate(zip(self.rel_tables, self.world_tables), 1):
            pr = _apply_bits(rel, tab)
            if pr < rel:
                self.budget.tick(applied)
                return False, []
            if pr == rel:
                stab.append(wt)
        self.budget.tick(len(self.rel_tables))
        return True, stab

    @staticmethod
    def val_canonical(vals: tuple[int, ...], stab: list[tuple[int, ...]]) -> bool:
        for wt in stab:
            perm_vals = tuple(_apply_bits(v, wt) for v in vals)
            if perm_vals < vals:
                return False
        return True


def _canonical_relations(n: int, cfg: SearchConfig, budget: _Budget,
                         frame_mode: str = "require"):
    """Relations of exactly n worlds that are least among their
    permutations, ascending, as (rows, stabilizer).

    frame_mode "require" keeps relations satisfying cfg.frame, "violate"
    keeps those failing at least one requested condition.
    """
    enum = _Enum(n, budget)
    full = (1 << n) - 1
    serial = F.LOGICS[cfg.logic].serial
    for rel in range(1 << (n * n)):
        rows = tuple((rel >> (s * n)) & full for s in range(n))
        if serial and not all(rows):
            continue
        if not cfg.frame.none():
            ok = S.frame_holds(n, rows, cfg.frame)
            if frame_mode == "require" and not ok:
                continue
            if frame_mode == "violate" and ok:
                continue
        minimal, stab = enum.rel_status(rel)
        if minimal:
            yield rows, stab


def _lane_column(q: int, n: int, count: int) -> int:
    """Bit 0 of the n-bit block of every lane among count (a power of
    two) whose index has bit q, built by shift-doubling."""
    run = ((1 << (n << q)) - 1) // ((1 << n) - 1)  # bit 0 of 2^q blocks
    m = run << (n << q)
    step = n << (q + 1)
    while step < n * count:
        m |= m << step
        step <<= 1
    return m


def _model(logic: str, n: int, rows: tuple[int, ...], atoms, vals):
    """The public model object for a raw candidate, over its atoms' constants."""
    cls = S.KripkeModel if F.LOGICS[logic].serial else S.PreferenceModel
    relation = [(s, t) for s in range(n) for t in S._bits(rows[s])]
    return cls(n, relation, {a: list(S._bits(v)) for a, v in zip(atoms, vals)},
               {c for _, args in atoms for c in args})


def _revalidate(model, bank: S.CompiledBank, n_valid: int, world: int | None = None) -> None:
    """Re-check a witness (see _bounded_scan) with one run of its search's bank."""
    ev = S.Evaluator(model, bank.logic, bank)
    for f in bank.formulas[:n_valid]:
        if not ev.valid(f):
            raise SearchError(f"internal error: witness fails {F.print_formula(f)}")
    if len(bank.roots) > n_valid and ev.holds(bank.formulas[n_valid], world):
        raise SearchError("internal error: countermodel does not falsify the goal")


# ---------------------------------------------------------------------------
# Complete decision, system E


def _inputs(bank: S.CompiledBank, globals_at, locals_):
    """For both exact procedures, the inputs of bank at globals_at (valid)
    and locals_ ((position, truth) pairs, that truth somewhere): their
    slots in pre-order, the same sorted (the cone), the global roots, the
    local literals and the cone's (atom id, variable) pairs, sorted.

    The walk reads the op array alone: from the roots at the positions,
    in order, it visits operands left to right (an atom's is an atom id,
    not a slot) and keeps a slot at its first visit.  That is the order
    of F.subformulas over the inputs' F.desugar forms, merged: each such
    node is one slot, whose operands are its children's in F.children
    order, and a slot seen before has had all its descendants seen.
    """
    ops = bank.ops
    seen: dict[int, None] = {}
    stack = [bank.roots[i] for i in chain(globals_at, (i for i, _ in locals_))][::-1]
    while stack:
        if (s := stack.pop()) not in seen:
            seen[s] = None
            stack.extend(ops[s][:0:-1] if ops[s][0] != "atom" else ())
    cone = sorted(seen)
    gs = [bank.roots[i] for i in globals_at]
    ls = [bank.roots[i] + 1 if truth else -(bank.roots[i] + 1) for i, truth in locals_]
    atoms = sorted((ops[s][1], s + 1) for s in cone if ops[s][0] == "atom")
    return list(seen), cone, gs, ls, atoms


def _valuation(bank: S.CompiledBank, atoms, world_type, low: int = 0) -> list[int]:
    """Each atom's mask over worlds of the given types, whose bit low + i
    is the i-th atom of the cone; atoms outside it are false."""
    vals = [0] * len(bank.atoms)
    for i, (a, _) in enumerate(atoms):
        vals[a] = sum(1 << w for w, t in enumerate(world_type) if t >> (low + i) & 1)
    return vals


class _Unrealizable(Exception):
    """A type the realizability of an E candidate needs does not exist."""


def _exact_e(bank: S.CompiledBank, globals_at, locals_, budget: _Budget):
    """Decide satisfiability of the inputs of bank at the given
    positions (see _inputs).  Returns (model, local_worlds) or None.

    A candidate is a truth assignment gbits to the boxes and obligations
    of the cone, read off the op array by tag (bit i for the i-th
    ``boxe`` op, then one per ``oblig`` op, each in the pre-order of
    _inputs), whose core, the types over the cone's atoms (bit i of
    a type is atom i) where the globals and the true boxes' bodies hold,
    is not empty.  It is realizable when every false box has a core type
    falsifying its body, every false obligation j has a witness type in
    core, cond_j and not body_j outside ``bad`` (the
    cond_m-and-not-body_m types of each true obligation m whose core
    cond_m-types all lie in cond_j), and every local literal holds at
    some core type.  The least such types become the model, which one
    compiled run over them re-checks.

    The candidates and the questions come from one sat.Solver holding
    the Tseitin clauses of the cone, the globals as units, the clause
    "box_i false or body_i" for every box, and one variable per
    obligation m equivalent to "cond_m implies body_m".  The order
    argument, which makes the result the one of a plain loop over
    gbits = 0, 1, 2, ... that skips empty cores and takes least types:

    * The candidate search decides the modal variables first, most
      significant gbits bit first, then atom k-1 down to atom 0, false
      first, so its first model is the least gbits with a non-empty core
      together with that core's least type.  Unit propagation fixes a
      global root that is a box or obligation before any decision.
    * The candidate search waits at each candidate backtracked to its
      last modal decision (``Solver.models`` with ``keep`` the modal
      variables), so the assignment there is the root units and the
      decided modal literals closed under unit propagation.  Every modal
      literal of the candidate is decided or propagated from those, so
      this is also the closure of the root units and all of them: the
      assignment a query assuming the whole candidate would reach.
    * A realizability query runs on that assignment under only its own
      literals and decides only the atoms, most significant first, so
      its model is the least type with the asked property; the
      containment "core cond_m-types inside cond_j" is the query for
      core, cond_m and not cond_j coming back empty, and otherwise its
      model is a separator type the witness may need.
    * A candidate that fails is blocked: the candidate search resumes
      past its modal assignment (``Solver.models`` with ``keep`` the
      modal variables), the backtrack a clause blocking exactly that
      assignment would cause.  It rules out that one gbits and nothing
      else, so it is sound (no realizable candidate is lost) and the
      next model is the next candidate of the loop.  The search ends at
      the least realizable gbits, or with None when no candidate is left.
    """
    pre, cone, gs, ls, atoms = _inputs(bank, globals_at, locals_)
    ops = bank.ops
    modal = [s for tag in ("boxe", "oblig") for s in pre if ops[s][0] == tag]
    nboxes = sum(ops[s][0] == "boxe" for s in modal)
    boxes = [ops[s][1] for s in modal[:nboxes]]
    obls = [ops[s][1:] for s in modal[nboxes:]]  # (body, cond) slots
    # the gbits bit of each modal op of the bank; none outside the cone
    bit = {s: 1 << i for i, s in enumerate(modal)}
    bits = [bit.get(s, 0) for s in bank.modal]
    k, n_ops = len(atoms), len(ops)

    # variable s + 1 is slot s; variable n_ops + 1 + m is "cond_m implies body_m"
    modal_vars = [s + 1 for s in modal]
    clauses = list(sat.bank_clauses(ops, cone))
    clauses += [[g + 1] for g in gs] + [[-v, b + 1] for v, b in zip(modal_vars, boxes)]
    for m, (body, cond) in enumerate(obls):
        clauses += sat.TSEITIN["imp"](n_ops + 1 + m, cond + 1, body + 1)
    types = [v for _, v in reversed(atoms)]
    solver = sat.Solver(n_ops + len(obls), clauses)

    def least(*lits):
        t = solver.solve(types, lits, budget)
        if t is None:
            raise _Unrealizable
        return t

    for model in solver.models(modal_vars[::-1] + types, (), budget, keep=len(modal_vars)):
        gbits = model >> k
        true_obls = [m for m in range(len(obls)) if gbits >> (nboxes + m) & 1]
        try:
            box_types = [least(-(b + 1)) for i, b in enumerate(boxes) if not gbits >> i & 1]
            witnesses, seps = [], {}
            for j, (body, cond) in enumerate(obls):
                if gbits >> (nboxes + j) & 1:
                    continue
                found = [(m, solver.solve(types, [obls[m][1] + 1, -(cond + 1)], budget))
                         for m in true_obls]
                # a true obligation whose core cond_m-types lie inside cond_j's
                # must not see the witness among its cond_m-and-not-body_m types
                safe = [n_ops + 1 + m for m, sep in found if sep is None]
                witnesses.append((j, least(cond + 1, -(body + 1), *safe)))
                seps[j] = [(m, sep) for m, sep in found if sep is not None]
            local_types = [least(l) for l in ls]
        except _Unrealizable:
            continue
        break
    else:
        return None

    # the model: the least types the answers name, then one world per
    # false obligation's witness type, seeing every cond-world of it
    needed = dict.fromkeys(local_types + box_types)
    for j, t in witnesses:
        needed[t] = None
        # the separators of the true obligations the witness type endangers
        at = bank.run(1, (), _valuation(bank, atoms, [t]), [1 if gbits & b else 0 for b in bits])
        for m, sep in seps[j]:
            body_m, cond_m = obls[m]
            if at[cond_m] and not at[body_m]:
                needed[sep] = None
    if not needed:
        needed[model & ((1 << k) - 1)] = None  # the least core type
    base_types = sorted(needed)
    world_type = base_types + [t for _, t in witnesses]
    n = len(world_type)
    full = (1 << n) - 1
    vals = _valuation(bank, atoms, world_type)
    tm = bank.run(n, (), vals, [full if gbits & b else 0 for b in bits])
    local_worlds = [base_types.index(t) for t in local_types]
    if not (all(tm[g] == full for g in gs)
            and all((tm[b] == full) == bool(gbits >> i & 1) for i, b in enumerate(boxes))
            and all((tm[abs(l) - 1] >> w & 1) == (l > 0) for l, w in zip(ls, local_worlds))
            and all(tm[obls[j][1]] >> w & ~tm[obls[j][0]] >> w & 1
                    for w, (j, _) in enumerate(witnesses, len(base_types)))):
        raise SearchError("internal error: a chosen world type fails the compiled check")
    rows = [0] * len(base_types) + [tm[obls[j][1]] for j, _ in witnesses]
    return _model(bank.logic, n, rows, bank.atoms, vals), local_worlds


# ---------------------------------------------------------------------------
# Complete decision, SDL


def _exact_sdl(bank: S.CompiledBank, globals_at, locals_, budget: _Budget,
               reflexive: bool = False):
    """Type elimination on the solver of deon.sat, in the spirit of
    global caching (Goré & Nguyen 2007), over the inputs of bank at the
    given positions (see _inputs).  Returns (model, local_worlds) or
    None.  With ``reflexive`` (decide-only callers), the solver is first
    asked for a type with O_j equivalent to body_j for every j: one such
    world seeing itself is a serial model.

    A type assigns truth to the k atoms of the cone and its p ``boxs``
    ops (its O-subformulas, in the pre-order of _inputs); its index has
    atom i at bit i and O_j at bit k + j.  The types are never listed:
    S, the current type set, is the models of a sat.Solver holding the
    Tseitin clauses of the cone, the globals as units and the clauses
    learned so far.  The solver decides O_p-1 ... O_0, then atom k-1
    ... 0, false first, so its least model under assumptions is the
    least type index with that property.  The bodies follow in the
    order, body_p-1 ... body_0 (propagation fixes them), so a type is
    read as its index shifted left by p, with bit j the truth of body_j.

    A type with true O's T needs a successor in S satisfying every body
    of T (seriality), and for each false O_j one that also falsifies
    body_j.  The closure starts from the least type where each local
    literal holds (or else the least type), and meets each need with the
    first included type that meets it, else with the least type of S
    that does.  When that query fails, QuickXplain shrinks its
    assumptions (the bodies of T, and not body_j) to a core C, and the
    solver learns "some O_i whose body is in C is false, or O_j is true"
    (without O_j when not body_j is outside C); then the closure starts
    again.

    Soundness: a type the clause removes makes the O's of C true and O_j
    false, so its successors lie among the types of S satisfying C's
    bodies, and none of those falsifies body_j (or there are none): it
    fails the elimination rule in S.  S only shrinks, so the greatest
    fixpoint of elimination, which lies in S, loses nothing.  Each clause
    removes at least the type whose need failed, so the loop ends.  A
    pass that learns nothing leaves a closed set: every included type
    has its needs met by included types, so the set lies in the greatest
    fixpoint, and a type that is least in S is least in the fixpoint.
    The pass therefore makes the choices the closure over the fixpoint
    makes with explicit type masks (kept with the tests as the
    reference), and builds the same model.  One compiled run re-checks
    it.
    """
    pre, cone, gs, ls, atoms = _inputs(bank, globals_at, locals_)
    boxes = [s for s in pre if bank.ops[s][0] == "boxs"]
    k, p = len(atoms), len(boxes)
    o_var = [s + 1 for s in boxes]
    body = [bank.ops[s][1] + 1 for s in boxes]
    order = o_var[::-1] + [v for _, v in reversed(atoms)] + body[::-1]
    clauses = list(sat.bank_clauses(bank.ops, cone)) + [[g + 1] for g in gs]
    n_vars = len(bank.ops)
    if reflexive:  # variable n_vars selects the types with O_j <-> body_j
        n_vars += 1
        for o, b in zip(o_var, body):
            clauses += [[-n_vars, -o, b], [-n_vars, o, -b]]
    solver = sat.Solver(n_vars, clauses)
    # an assumption literal and the literal it contributes to a learned clause
    blame = {b: -o for o, b in zip(o_var, body)} | {-b: o for o, b in zip(o_var, body)}

    def least(lits):
        return solver.solve(order, lits, budget)

    def learn(lits):
        if solver.conflicts(lits, budget):
            core = _quickxplain(lits, lambda c: solver.conflicts(c, budget))
        else:
            core = _quickxplain(lits, lambda c: least(c) is None)
        solver.add([blame[l] for l in core])

    included = None
    if reflexive:
        t = least([n_vars] + ls)
        if t is not None:
            included, local_types = {t: None}, [t] * len(ls)
    while included is None:
        start = [least([l]) for l in ls] or [least([])]
        if None in start:
            return None
        local_types = start[:len(ls)]
        included = dict.fromkeys(start)
        queue = deque(included)
        while queue:
            t = queue.popleft()
            pat = t >> (k + p)  # bit i: O_i is true at t, so body_i holds at every successor
            bodies = [body[i] for i in range(p) if pat >> i & 1]
            picks = []
            for j in [j for j in range(p) if not pat >> j & 1] or [None]:
                hit = next((u for u in included
                            if (u & pat) == pat and (j is None or not u >> j & 1)), None)
                lits = bodies if j is None else bodies + [-body[j]]
                if hit is None and (hit := least(lits)) is None:
                    learn(lits)
                    included = None
                    break
                picks.append(hit)
            if included is None:
                break
            for u in picks:
                if u not in included:
                    included[u] = None
                    queue.append(u)

    world_type = sorted(included)
    n = len(world_type)
    pats = [t >> (k + p) for t in world_type]
    rows = tuple(sum(1 << w for w, u in enumerate(world_type) if (u & pat) == pat) for pat in pats)
    vals = _valuation(bank, atoms, world_type, p)
    local_worlds = [world_type.index(t) for t in local_types]
    tm = bank.run(n, rows, vals)
    if not (all(tm[g] == (1 << n) - 1 for g in gs)
            and all((tm[abs(l) - 1] >> w & 1) == (l > 0) for l, w in zip(ls, local_worlds))):
        raise SearchError("internal error: a closed type set fails the compiled check")
    return _model(bank.logic, n, rows, bank.atoms, vals), local_worlds


def _quickxplain(items, refuted) -> list:
    """QuickXplain (Junker 2004): a minimal refuted sublist of items,
    which must be refuted as a whole; ``refuted`` must be monotone (a
    list containing a refuted list is refuted).

    Of the minimal refuted sublists it returns the preferred one: it
    keeps the item that ends the shortest refuted prefix, then makes the
    same choice among the items before it with that item kept.  Over
    positions taken in reverse, that is the core a front-to-back deletion
    loop keeps.
    """
    def shrink(background: list, items: list, fresh: bool) -> list:
        if fresh and refuted(background):
            return []
        if len(items) <= 1:
            return items
        half = len(items) // 2
        later = shrink(background + items[:half], items[half:], True)
        return shrink(background + later, items[:half], bool(later)) + later

    return shrink([], list(items), False)


# ---------------------------------------------------------------------------
# Public operations


def _bounded_scan(bank: S.CompiledBank, n_valid: int, cfg: SearchConfig, budget: _Budget,
                  max_n: int, frame_mode: str = "require"):
    """Scan sizes 1..max_n for a model where the first n_valid inputs of
    bank are valid; returns (model, world) or None.

    When bank has a goal after them, the world is the least world where
    it fails, and candidate models must additionally make it false
    somewhere.
    Each candidate costs one budget unit; in complete mode this is the
    canonical re-scan below a constructed witness: each candidate costs
    one unit per compiled op, and running out of budget returns None
    instead of raising.

    The valuations of each relation go through the compiled bank in
    chunks of up to 2^CHUNK_BITS lanes, lane b of chunk h holding
    valuation bits h * lanes + b: the low atoms take every value inside
    a chunk and the others are constant.  The least canonical lane that
    passes is the hit; the chunk is charged one cost per lane up to and
    including it, or per lane when there is none, so the budget runs out
    where the one-candidate-at-a-time loop's would.
    """
    goal = len(bank.roots) > n_valid
    k = len(bank.atoms)
    cost = len(bank.ops) if cfg.complete else 1
    try:
        for n in range(1, max_n + 1):
            full = (1 << n) - 1
            low_atoms = min(k, CHUNK_BITS // n)
            count = 1 << (low_atoms * n)
            lanes = S.Lanes(n, count)
            columns = [sum(_lane_column(i * n + w, n, count) << w for w in range(n))
                       for i in range(low_atoms)]
            for rows, stab in _canonical_relations(n, cfg, budget, frame_mode):
                for high in range(1 << ((k - low_atoms) * n)):
                    masks = columns + [(high >> (i * n) & full) * lanes.low
                                       for i in range(k - low_atoms)]
                    out = bank.run(n, rows, masks, valid=n_valid, lanes=count)
                    passed = 0
                    if out is not None:
                        passed = lanes.low
                        for r in bank.roots[:n_valid]:
                            passed &= lanes.whole(out[r])
                        if goal:
                            passed &= ~lanes.empty(~out[bank.roots[n_valid]] & lanes.full)
                    while passed:
                        lane = ((passed & -passed).bit_length() - 1) // n
                        vbits = high << (low_atoms * n) | lane
                        vals = tuple((vbits >> (i * n)) & full for i in range(k))
                        if not stab or _Enum.val_canonical(vals, stab):
                            break
                        passed &= passed - 1
                    else:
                        budget.tick(cost * count)
                        continue
                    budget.tick(cost * (lane + 1))
                    world = None
                    if goal:
                        false_at = ~out[bank.roots[n_valid]] >> (lane * n) & full
                        world = (false_at & -false_at).bit_length() - 1
                    model = _model(cfg.logic, n, rows, bank.atoms, vals)
                    _revalidate(model, bank, n_valid, world)
                    return model, world
    except BudgetExceeded:
        if cfg.complete:
            return None  # caller falls back to the constructed witness
        raise
    return None


def _compile(fs: list[F.Formula], cfg: SearchConfig) -> S.CompiledBank:
    """The one bank of a search's inputs, once cfg is checked."""
    _check_cfg(cfg)
    try:
        return S.CompiledBank(fs, cfg.logic)
    except S.SemanticsError:  # the compiler is the ground check: word it as one
        _require_ground(fs)
        raise


def _search(bank: S.CompiledBank, n: int, cfg: SearchConfig):
    """find_model and entails: (model, world) as _bounded_scan gives it,
    or None; complete mode decides first, then re-scans canonically,
    both over bank: its first n inputs valid, input n (if any) false."""
    budget = _Budget(cfg.node_budget)
    goal = len(bank.roots) > n
    if not cfg.complete:
        return _bounded_scan(bank, n, cfg, budget, cfg.max_worlds)
    exact = _exact_sdl if F.LOGICS[cfg.logic].serial else _exact_e
    got = exact(bank, range(n), [(n, False)] if goal else [], budget)
    if got is None:
        return None
    witness, worlds = got
    found = _bounded_scan(bank, n, cfg, _Budget(cfg.node_budget), witness.n)
    if found is not None:
        return found
    world = worlds[0] if goal else None
    _revalidate(witness, bank, n, world)
    return witness, world


def find_model(fs, cfg: SearchConfig) -> Verdict:
    """First canonical model making every formula valid, or a negative
    verdict; complete mode turns exhaustion into DecidedUnsatisfiable."""
    fs = list(fs)
    bank = _compile(fs, cfg)
    found = _search(bank, len(fs), cfg)
    if found is not None:
        return ModelFound(found[0])
    if cfg.complete:
        return DecidedUnsatisfiable(bank.subformulas, bank)
    return NoModelUpTo(cfg.max_worlds)


def entails(assumptions, goal: F.Formula, cfg: SearchConfig) -> Verdict:
    """Countermodel search: assumptions valid, goal false at some world."""
    assumptions = list(assumptions)
    bank = _compile(assumptions + [goal], cfg)
    found = _search(bank, len(assumptions), cfg)
    if found is not None:
        return CountermodelFound(*found)
    if cfg.complete:
        return Valid(bank.subformulas)
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
    if F.LOGICS[cfg.logic].serial:
        raise SearchError("correspondence probes run over preference models")
    probe_cfg = SearchConfig(logic=cfg.logic, frame=frame, max_worlds=cfg.max_worlds,
                             node_budget=cfg.node_budget)
    bank = _compile([schema], probe_cfg)  # names a non-ground schema first
    if frame.none():
        raise SearchError("correspondence needs at least one frame condition")

    def probe(n_valid, frame_mode):
        found = _bounded_scan(bank, n_valid, probe_cfg, _Budget(cfg.node_budget),
                              cfg.max_worlds, frame_mode)
        return None if found is None else found[0]

    counterexample = probe(0, "require")  # the schema is the goal to falsify
    witness = probe(1, "violate")
    if witness is not None:
        for check in S.check_frame(witness, frame):
            if check.holds:
                raise SearchError(f"internal error: witness satisfies {check.prop}")

    return CorrespondenceReport(schema, frame, cfg.max_worlds,
                                counterexample is None, counterexample, witness)


def minimal_unsat_subset(verdict: DecidedUnsatisfiable, cfg: SearchConfig) -> list[int]:
    """A minimal unsatisfiable subset, found by QuickXplain from the
    search's refutation: it shrinks the bank the verdict keeps.

    Returns the core as ascending positions in the refuted input (equal
    formulas are one object, so only positions tell them apart).
    QuickXplain runs over the positions in reverse, so the core is the
    one a front-to-back deletion loop keeps.  Its oracle only decides:
    the complete procedure of the bank's logic, with no canonical
    re-scan, each satisfiable answer re-checked by one compiled run (SDL
    first tries a one-world reflexive model) under cfg's node budget.
    The core's unsatisfiability and the satisfiability of every
    one-element-removed subset are re-verified.
    """
    if not isinstance(verdict, DecidedUnsatisfiable):
        raise SearchError("minimal_unsat_subset shrinks a DecidedUnsatisfiable input")
    bank = verdict.bank
    exact = partial(_exact_sdl, reflexive=True) if F.LOGICS[bank.logic].serial else _exact_e

    def refuted(positions) -> bool:
        return exact(bank, sorted(positions), (), _Budget(cfg.node_budget)) is None

    core = sorted(_quickxplain(range(len(bank.roots) - 1, -1, -1), refuted))
    if not refuted(core):
        raise SearchError("internal error: shrunken core is satisfiable")
    for i in range(len(core)):
        trial = core[:i] + core[i + 1:]
        if trial and refuted(trial):
            raise SearchError("internal error: core is not minimal")
    return core
