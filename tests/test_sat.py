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
        """The models, one per assignment to order[:keep]; at each, the
        enumeration waits at that prefix, and a query on the same solver
        answers as if it assumed the prefix, then leaves it in place."""
        rng, ask = random.Random(4), random.Random(41)
        for _ in range(300):
            f, names, var, extra, solver = instance(rng)
            keep = rng.randint(0, len(names))
            drop = len(names) - keep
            want, seen = [], set()
            for m in brute_models(f, names, var, extra):
                if m >> drop not in seen:
                    seen.add(m >> drop)
                    want.append(m)
            order = [var[a] for a in names]
            root = list(solver.val)
            got = []
            for m in solver.models(order, (), BUDGET, keep=keep):
                got.append(m)
                for _ in range(2):
                    assume = [ask.choice([1, -1]) * var[a]
                              for a in ask.sample(names, ask.randint(0, len(names)))]
                    least = [x for x in brute_models(f, names, var, extra + [[l] for l in assume])
                             if x >> drop == m >> drop]
                    assert solver.solve(order, assume, BUDGET) == (least[0] if least else None)
            assert got == want
            assert solver.val == root

    def test_assumptions_and_reuse(self):
        rng = random.Random(5)
        for _ in range(200):
            f, names, var, extra, solver = instance(rng)
            if not names:
                continue
            a = rng.choice(names)
            order = [var[n] for n in names]
            root = list(solver.val)
            models = brute_models(f, names, var, extra + [[var[a]]])
            got = solver.solve(order, [var[a]], BUDGET)
            assert got == (models[0] if models else None)
            assert solver.solve(order, [var[a]], BUDGET) == got
            # every solve leaves exactly the root-level assignment: the
            # root trail's literals true, every other variable open
            assert solver.val == root
            assert {l for l in range(-solver.n, solver.n + 1)
                    if l and root[l] == 1} == set(solver.root)

    def test_added_clauses_agree_with_brute_force(self):
        rng = random.Random(6)
        refuted = 0
        for _ in range(300):
            f, names, var, extra, solver = instance(rng)
            if not names:
                continue
            order = [var[a] for a in names]
            for _ in range(rng.randint(1, 4)):
                clause = [rng.choice([1, -1]) * var[rng.choice(names)]
                          for _ in range(rng.randint(1, 3))]
                solver.add(clause)
                extra = extra + [clause]
                models = brute_models(f, names, var, extra)
                assert solver.solve(order, (), BUDGET) == (models[0] if models else None)
                assert solver.ok or not models  # a root conflict refutes the clauses
                refuted += not solver.ok
        assert refuted > 0

    def test_propagation_conflicts_are_refutations(self):
        rng = random.Random(7)
        outcomes = set()
        for _ in range(400):
            f, names, var, extra, solver = instance(rng)
            if not names:
                continue
            picked = rng.sample(names, rng.randint(1, len(names)))
            assume = [rng.choice([1, -1]) * var[a] for a in picked]
            models = brute_models(f, names, var, extra + [[l] for l in assume])
            root = list(solver.val)
            got = solver.conflicts(assume, BUDGET)
            assert solver.val == root
            if got:
                assert not models
            if len(picked) == len(names):  # every atom fixed: propagation decides
                assert got == (not models)
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_charges_the_budget(self):
        solver = sat.Solver(20, [[v, v + 1] for v in range(1, 20)])
        with pytest.raises(SE.BudgetExceeded):
            solver.solve(range(1, 21), (), SE._Budget(5))


class TestCone:
    """A query decides the variables of its order and no others: with
    the free variables of its cone in the order it costs what its cone
    costs, whatever other clauses the solver holds."""

    A = F.And(F.Or(ATOMS[0], ATOMS[1]), F.Implies(ATOMS[2], F.Not(ATOMS[0])))
    B = F.Or(F.Iff(ATOMS[3], ATOMS[4]), F.Not(ATOMS[5]))  # atoms disjoint from A's

    def test_a_query_decides_only_its_cone(self):
        runs = []
        for fs in ([self.A], [self.A, self.B]):
            bank = S.CompiledBank(fs, "e")
            solver = sat.Solver(len(bank.ops), sat.bank_clauses(bank.ops))
            _, cone_a, _, root, atoms = SE._inputs(bank, (), [(0, True)])
            others = [s + 1 for s in range(len(bank.ops)) if s not in cone_a]
            assert len(others) == 6 * (len(fs) - 1)  # B's slots

            class Untouched(SE._Budget):  # each charge: nothing outside A's cone is assigned
                def tick(self, n=1):
                    assert not any(solver.val[v] for v in others)
                    super().tick(n)

            budget = Untouched(10**6)
            found = list(solver.models([v for _, v in atoms], root, budget))
            runs.append((found, budget.total - budget.left))
        assert runs[0] == runs[1]
        assert runs[0][0] == [0b010, 0b011, 0b100, 0b110]  # a0 a1 a2, a0 most significant
