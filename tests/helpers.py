"""Shared generators and brute-force oracles for the test suite."""

from __future__ import annotations

import random

from deon import formula as F
from deon import lam as L
from deon import search as SE
from deon import semantics as S

P, Q, R = F.Atom("p"), F.Atom("q"), F.Atom("r")
SIG = F.Signature({"p": 0, "q": 0, "r": 0, "P1": 1, "Q1": 1},
                  frozenset({"c0", "c1", "c2"}))


class BudgetLog(list):
    """The node budgets a command draws, in the order it draws them:
    detachment, search, canonical re-scan, each MUS check."""

    def units(self) -> list[int]:
        """The units each budget has charged; one that ran out shows
        more than its total."""
        return [b.total - b.left for b in self]


def record_budgets(monkeypatch) -> BudgetLog:
    """Record every search._Budget made while monkeypatch is in place."""
    log = BudgetLog()

    class Recorded(SE._Budget):
        def __init__(self, total: int):
            super().__init__(total)
            log.append(self)

    monkeypatch.setattr(SE, "_Budget", Recorded)
    return log


def gen_formula(rng: random.Random, logic: str, depth: int,
                quantifiers: bool = False, scope: tuple[str, ...] = ()) -> F.Formula:
    """Random closed formula over p, q, r (and P1/Q1 with quantifiers)."""
    leaf_roll = rng.random()
    if depth == 0 or leaf_roll < 0.25:
        if quantifiers and scope and rng.random() < 0.6:
            pred = rng.choice(["P1", "Q1"])
            term: F.Term = F.Var(rng.choice(scope))
            return F.Atom(pred, (term,))
        if quantifiers and rng.random() < 0.15:
            return F.Atom(rng.choice(["P1", "Q1"]), (F.Const("c0"),))
        return rng.choice([P, Q, R])
    roll = rng.random()
    if roll < 0.2:
        return F.Not(gen_formula(rng, logic, depth - 1, quantifiers, scope))
    if roll < 0.45:
        ctor = rng.choice([F.And, F.Or, F.Implies, F.Iff])
        return ctor(gen_formula(rng, logic, depth - 1, quantifiers, scope),
                    gen_formula(rng, logic, depth - 1, quantifiers, scope))
    if quantifiers and roll < 0.6 and len(scope) < 2:
        var = f"x{len(scope)}"
        ctor = rng.choice([F.Forall, F.Exists])
        return ctor(var, gen_formula(rng, logic, depth - 1, quantifiers, scope + (var,)))
    if logic == "sdl":
        ctor = rng.choice([F.ObligM, F.Box, F.Dia, F.Perm, F.Forb])
        return ctor(gen_formula(rng, logic, depth - 1, quantifiers, scope))
    if roll < 0.8:
        return F.Oblig(gen_formula(rng, logic, depth - 1, quantifiers, scope),
                       gen_formula(rng, logic, depth - 1, quantifiers, scope))
    if roll < 0.85:
        # monadic obligation: e-mode ASTs carry the elaborated dyadic form
        return F.Oblig(gen_formula(rng, logic, depth - 1, quantifiers, scope), F.TOP)
    ctor = rng.choice([F.Box, F.Dia, F.Perm, F.Forb])
    return ctor(gen_formula(rng, logic, depth - 1, quantifiers, scope))


def balanced(size: int, logic: str, depth: int = 0) -> F.Formula:
    """A formula of exactly ``size`` nodes: modal at depths 1, 3 and 5,
    Boolean elsewhere with the nodes split evenly, operators and atoms
    cycled by size."""
    atoms = (P, Q, R)
    if size <= 2:
        leaf = atoms[size % 3]
        return leaf if size == 1 else F.Not(leaf)
    if depth in (1, 3, 5):
        if logic == "e" and size % 2:
            return F.Oblig(balanced(size - 2, logic, depth + 1), atoms[size % 3])
        op = (F.Box, F.Dia, F.ObligM, F.Perm)[size % 4]
        return op(balanced(size - 1, logic, depth + 1))
    left = (size - 1) // 2
    op = (F.And, F.Or, F.Implies, F.Iff)[size % 4]
    return op(balanced(left, logic, depth + 1), balanced(size - 1 - left, logic, depth + 1))


def gen_model(rng: random.Random, logic: str, max_worlds: int = 4,
              max_indivs: int = 3):
    """Random finite model whose valuation covers the helpers signature."""
    n = rng.randint(1, max_worlds)
    domain = ["c0", "c1", "c2"][: rng.randint(1, max_indivs)]
    pairs = [(s, t) for s in range(n) for t in range(n) if rng.random() < 0.5]
    if logic == "sdl":
        for s in range(n):
            if not any(x == s for x, _ in pairs):
                pairs.append((s, rng.randrange(n)))
    atoms = [("p", ()), ("q", ()), ("r", ())]
    atoms += [(pred, (c,)) for pred in ("P1", "Q1") for c in domain]
    valuation = {a: [w for w in range(n) if rng.random() < 0.5] for a in atoms}
    cls = S.KripkeModel if logic == "sdl" else S.PreferenceModel
    return cls(n, pairs, valuation, domain)


def atoms_of(f: F.Formula) -> tuple[F.Atom, ...]:
    """Distinct atoms occurring in f, reserved atom excluded."""
    return tuple(g for g in F.subformulas(f) if isinstance(g, F.Atom) and g.pred != F.RESERVED_ATOM)


def brute_sat(logic: str, globals_, locals_, max_n: int = 3) -> bool:
    """Enumeration oracle: is there a model of at most max_n worlds making
    every global valid and each local true somewhere?"""
    fs = list(globals_) + list(locals_)
    atoms = sorted({S.atom_key(a) for f in fs for a in atoms_of(f)})
    iterator = S.iter_preference_models if logic == "e" else S.iter_serial_kripke_models
    bank = S.CompiledBank(fs, logic)  # what Evaluator runs, compiled once
    n_globals = len(globals_)
    for n in range(1, max_n + 1):
        full = (1 << n) - 1
        for m in iterator(n, atoms):
            out = bank.run(n, m.rows, [m.valuation[a] for a in bank.atoms])
            if (all(out[r] == full for r in bank.roots[:n_globals])
                    and all(out[r] for r in bank.roots[n_globals:])):
                return True
    return False


def brute_valid_everywhere(logic: str, f: F.Formula, max_n: int = 3) -> bool:
    """Enumeration oracle for validity over all models up to max_n worlds."""
    return not brute_sat(logic, [], [F.Not(f)], max_n)


_TYPES = [L.O, L.I, L.TAU, L.Arrow(L.I, L.I), L.Arrow(L.TAU, L.O)]


def gen_typed_term(rng: random.Random, ty: L.Ty, env: tuple[tuple[str, L.Ty], ...] = (),
                   depth: int = 4) -> L.LTerm:
    """Random well-typed term of the requested type, redex-rich."""
    candidates = [name for name, t in env if t == ty]
    roll = rng.random()
    if depth == 0 or (roll < 0.25 and candidates):
        if candidates:
            return L.Var(rng.choice(candidates), ty)
        return L.Const(f"k{abs(hash(str(ty))) % 7}", ty)
    if isinstance(ty, L.Arrow) and roll < 0.6:
        var = f"x{len(env)}"
        body = gen_typed_term(rng, ty.dst, env + ((var, ty.src),), depth - 1)
        return L.Abs(var, ty.src, body)
    if roll < 0.85:
        arg_ty = rng.choice(_TYPES)
        fun = gen_typed_term(rng, L.Arrow(arg_ty, ty), env, depth - 1)
        arg = gen_typed_term(rng, arg_ty, env, depth - 1)
        return L.App(fun, arg)
    if candidates:
        return L.Var(rng.choice(candidates), ty)
    return L.Const(f"k{abs(hash(str(ty))) % 7}", ty)
