"""The DPLL solver of complete mode against brute-force truth tables."""

from __future__ import annotations

import random

import pytest

from deon import formula as F
from deon import sat
from deon import search as SE
from deon import semantics as S

ATOMS = [F.Atom(f"a{i}") for i in range(8)]
BUDGET = SE._Budget(10**12)


def gen_boolean(rng: random.Random, atoms, depth: int) -> F.Formula:
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(atoms + [F.TOP, F.BOT])
    roll = rng.random()
    if roll < 0.2:
        return F.Not(gen_boolean(rng, atoms, depth - 1))
    ctor = rng.choice([F.And, F.Or, F.Implies, F.Iff])
    return ctor(gen_boolean(rng, atoms, depth - 1), gen_boolean(rng, atoms, depth - 1))


def truth(f: F.Formula, true_atoms: set[str]) -> bool:
    """Independent evaluator over Boolean ASTs."""
    if isinstance(f, F.Atom):
        return f.pred in true_atoms
    if isinstance(f, F.Not):
        return not truth(f.sub, true_atoms)
    left, right = truth(f.left, true_atoms), truth(f.right, true_atoms)
    if isinstance(f, F.And):
        return left and right
    if isinstance(f, F.Or):
        return left or right
    if isinstance(f, F.Implies):
        return not left or right
    return left == right


def instance(rng: random.Random):
    """A Boolean formula over at most 8 atoms, compiled, its Tseitin
    solver asserting it, random extra clauses over its atoms, and an
    order of the atom variables."""
    atoms = ATOMS[:rng.randint(1, 8)]
    f = gen_boolean(rng, atoms, rng.randint(1, 4))
    bank = S.CompiledBank([f], "e")
    var = {bank.atoms[op[1]][0]: s + 1 for s, op in enumerate(bank.ops) if op[0] == "atom"}
    names = sorted(var)
    extra = [[rng.choice([1, -1]) * var[rng.choice(names)] for _ in range(rng.randint(1, 3))]
             for _ in range(rng.randint(0, 2 * len(names)))] if names else []
    solver = sat.Solver(len(bank.ops), list(sat.bank_clauses(bank.ops))
                        + [[bank.roots[0] + 1]] + extra)
    rng.shuffle(names)
    return f, names, var, extra, solver


def brute_models(f, names, var, extra):
    """Every satisfying assignment to names, read as an integer with
    names[0] most significant, ascending."""
    out = []
    for bits in range(1 << len(names)):
        true = {a for i, a in enumerate(names) if bits >> (len(names) - 1 - i) & 1}
        lit = {var[a]: a in true for a in names}
        if truth(f, true) and all(any(lit[abs(l)] == (l > 0) for l in c) for c in extra):
            out.append(bits)
    return out


class TestLeastModel:
    def test_least_model_is_the_truth_table_minimum(self):
        rng = random.Random(3)
        unsat = 0
        for _ in range(600):
            f, names, var, extra, solver = instance(rng)
            models = brute_models(f, names, var, extra)
            got = solver.solve([var[a] for a in names], (), BUDGET)
            assert got == (models[0] if models else None), F.print_formula(f)
            unsat += not models
        assert 50 < unsat < 550  # both outcomes are exercised

    def test_enumeration_steps_over_each_prefix(self):
        rng = random.Random(4)
        for _ in range(300):
            f, names, var, extra, solver = instance(rng)
            keep = rng.randint(0, len(names))
            drop = len(names) - keep
            want, seen = [], set()
            for m in brute_models(f, names, var, extra):
                if m >> drop not in seen:
                    seen.add(m >> drop)
                    want.append(m)
            got = list(solver.models([var[a] for a in names], (), BUDGET, keep=keep))
            assert got == want

    def test_assumptions_and_reuse(self):
        rng = random.Random(5)
        for _ in range(200):
            f, names, var, extra, solver = instance(rng)
            if not names:
                continue
            a = rng.choice(names)
            order = [var[n] for n in names]
            models = brute_models(f, names, var, extra + [[var[a]]])
            got = solver.solve(order, [var[a]], BUDGET)
            assert got == (models[0] if models else None)
            assert solver.solve(order, [var[a]], BUDGET) == got
            assert not any(solver.val)  # every solve leaves all variables open

    def test_charges_the_budget(self):
        solver = sat.Solver(20, [[v, v + 1] for v in range(1, 20)])
        with pytest.raises(SE.BudgetExceeded):
            solver.solve(range(1, 21), (), SE._Budget(5))
