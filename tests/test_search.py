"""Model finding, bounded decision, correspondence, unsat cores."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from deon import formula as F
from deon import search as SE
from deon import semantics as S

from helpers import P, Q, R, brute_sat, gen_formula

CFG_E = SE.SearchConfig(logic="e")
CFG_EC = SE.SearchConfig(logic="e", complete=True)
CFG_SC = SE.SearchConfig(logic="sdl", complete=True)


def revalidate(model, fs, logic):
    ev = S.Evaluator(model, logic)
    assert all(ev.valid(f) for f in fs)


class TestFindModel:
    def test_contradiction_unsatisfiable(self):
        v = SE.find_model([P, F.Not(P)], CFG_EC)
        assert isinstance(v, SE.DecidedUnsatisfiable)

    def test_conflicting_obligations_consistent_in_e(self):
        fs = [F.Oblig(P, F.TOP), F.Oblig(F.Not(P), F.TOP)]
        v = SE.find_model(fs, CFG_E)
        assert isinstance(v, SE.ModelFound)
        revalidate(v.model, fs, "e")
        # the witness works by making no world optimal
        assert S.opt(v.model, range(v.model.n)) == frozenset()

    def test_negated_obligation_conflict_unsatisfiable(self):
        fs = [F.Oblig(P, F.TOP), F.Not(F.Oblig(P, F.TOP))]
        assert isinstance(SE.find_model(fs, CFG_EC), SE.DecidedUnsatisfiable)

    def test_canonical_first_model_is_stable(self):
        fs = [F.Or(P, Q)]
        v1 = SE.find_model(fs, CFG_E)
        v2 = SE.find_model(fs, SE.SearchConfig(logic="e", max_worlds=4))
        assert v1.model == v2.model

    def test_no_model_up_to(self):
        v = SE.find_model([P, F.Not(P)], CFG_E)
        assert v == SE.NoModelUpTo(3)

    def test_budget_exceeded_is_distinct(self):
        cfg = SE.SearchConfig(logic="e", max_worlds=4, node_budget=10)
        with pytest.raises(SE.BudgetExceeded):
            SE.find_model([P, F.Not(P)], cfg)

    def test_quantified_input_rejected(self):
        with pytest.raises(SE.SearchError, match="ground"):
            SE.find_model([F.Forall("x", F.Atom("P1", (F.Var("x"),)))], CFG_E)

    def test_frame_restricted_search(self):
        cfg = SE.SearchConfig(logic="e", frame=S.FrameConditions(reflexive=True))
        v = SE.find_model([P], cfg)
        assert isinstance(v, SE.ModelFound)
        assert S.satisfies_frame(v.model, S.FrameConditions(reflexive=True))


class TestEntails:
    def test_nothing_entails_an_atom(self):
        v = SE.entails([], P, CFG_E)
        assert isinstance(v, SE.CountermodelFound)
        assert not S.eval_formula(v.model, v.world, P, "e")

    def test_explosion_from_inconsistency(self):
        v = SE.entails([P, F.Not(P)], Q, CFG_EC)
        assert isinstance(v, SE.Valid)

    def test_countermodel_respects_assumptions(self):
        v = SE.entails([F.Oblig(Q, P)], F.Oblig(P, Q), CFG_E)
        assert isinstance(v, SE.CountermodelFound)
        revalidate(v.model, [F.Oblig(Q, P)], "e")
        assert not S.eval_formula(v.model, v.world, F.Oblig(P, Q), "e")


class TestDecideValid:
    def test_id_instance_valid(self):
        assert SE.decide_valid(F.Oblig(P, P), CFG_EC) == SE.Valid(4)

    def test_conditional_obligation_not_valid(self):
        # derived by the canonical enumeration: the first countermodel
        # has a single reflexive world where q holds and p fails
        v = SE.decide_valid(F.Oblig(P, Q), CFG_EC)
        assert isinstance(v, SE.CountermodelFound)
        assert v.model.n == 1 and v.world == 0
        assert v.model.relation == frozenset({(0, 0)})
        assert v.model.valuation == {("p", ()): 0, ("q", ()): 1}

    def test_excluded_middle(self):
        assert SE.decide_valid(F.Or(P, F.Not(P)), CFG_EC) == SE.Valid(8)

    def test_complete_mode_has_no_size_guard(self):
        big = P
        for _ in range(21):
            big = F.And(big, F.Not(big))  # 43 distinct subformulas, always false
        for cfg in (CFG_EC, CFG_SC):
            v = SE.decide_valid(big, cfg)
            assert isinstance(v, SE.CountermodelFound)
            assert SE.decide_valid(F.Or(big, F.Not(big)), cfg) == SE.Valid(1 << 45)

    def test_bound_recorded_is_subformula_exponential(self):
        v = SE.decide_valid(F.Implies(P, P), CFG_EC)
        assert v == SE.Valid(1 << 2)  # two distinct subformulas

    def test_dyadic_axioms_decided_valid(self):
        # the proof system's axiom schemata, one instance each, through
        # the complete decision procedure
        instances = {
            "K": F.Implies(F.Box(F.Implies(P, Q)), F.Implies(F.Box(P), F.Box(Q))),
            "4": F.Implies(F.Box(P), F.Box(F.Box(P))),
            "5": F.Implies(F.Not(F.Box(P)), F.Box(F.Not(F.Box(P)))),
            "COK": F.Implies(F.Oblig(F.Implies(Q, R), P),
                             F.Implies(F.Oblig(Q, P), F.Oblig(R, P))),
            "Id": F.Oblig(P, P),
            "Sh": F.Implies(F.Oblig(R, F.And(P, Q)), F.Oblig(F.Implies(Q, R), P)),
            "Abs": F.Implies(F.Oblig(Q, P), F.Box(F.Oblig(Q, P))),
            "Nec": F.Implies(F.Box(Q), F.Oblig(Q, P)),
            "Ext": F.Implies(F.Box(F.Iff(P, Q)),
                             F.Iff(F.Oblig(R, P), F.Oblig(R, Q))),
        }
        for name, inst in instances.items():
            verdict = SE.decide_valid(inst, CFG_EC)
            assert isinstance(verdict, SE.Valid), f"axiom {name} not valid"

    def test_d_fails_in_the_dyadic_logic(self):
        # conflict tolerance: a model can make both O p and O ~p hold,
        # so the monadic D schema is invalid over preference models
        d = F.Not(F.And(F.Oblig(P, F.TOP), F.Oblig(F.Not(P), F.TOP)))
        verdict = SE.decide_valid(d, CFG_EC)
        assert isinstance(verdict, SE.CountermodelFound)
        assert S.opt(verdict.model, range(verdict.model.n)) == frozenset()

    def test_verdicts_agree_with_enumeration_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            logic = rng.choice(["sdl", "e"])
            f = gen_formula(rng, logic, 2)
            cfg = SE.SearchConfig(logic=logic, complete=True)
            got = SE.decide_valid(f, cfg)
            small_counterexample = brute_sat(logic, [], [F.Not(f)], max_n=2)
            if small_counterexample:
                assert isinstance(got, SE.CountermodelFound)
            if isinstance(got, SE.Valid):
                assert not small_counterexample


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(["sdl", "e"]))
    def test_identical_inputs_identical_verdicts(self, seed, logic):
        rng = random.Random(seed)
        fs = [gen_formula(rng, logic, 2) for _ in range(2)]
        cfg = SE.SearchConfig(logic=logic, complete=True)
        a = SE.find_model(fs, cfg)
        b = SE.find_model(fs, cfg)
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_monotone_bounds(self, seed):
        rng = random.Random(seed)
        fs = [gen_formula(rng, "e", 2) for _ in range(2)]
        v2 = SE.find_model(fs, SE.SearchConfig(logic="e", max_worlds=2))
        v3 = SE.find_model(fs, SE.SearchConfig(logic="e", max_worlds=3))
        if isinstance(v2, SE.ModelFound):
            assert isinstance(v3, SE.ModelFound) and v3.model == v2.model
        if isinstance(v3, SE.ModelFound) and v3.model.n <= 2:
            assert isinstance(v2, SE.ModelFound)


class TestExactAgainstEnumeration:
    """The complete-mode deciders against the brute-force oracle."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(["sdl", "e"]))
    def test_sat_verdicts_validated_and_unsat_confirmed(self, seed, logic):
        rng = random.Random(seed)
        fs = [gen_formula(rng, logic, 2) for _ in range(rng.randint(1, 3))]
        cfg = SE.SearchConfig(logic=logic, complete=True)
        got = SE.find_model(fs, cfg)
        if isinstance(got, SE.ModelFound):
            revalidate(got.model, fs, logic)
        else:
            assert isinstance(got, SE.DecidedUnsatisfiable)
            assert not brute_sat(logic, fs, [], max_n=2)

    def test_agreement_with_translation_path(self):
        # Valid at complete mode iff the lowered embedding is true in all
        # corresponding finite structures (checked up to 3 worlds)
        from deon import embed as E
        rng = random.Random(13)
        checked_valid = 0
        for _ in range(60):
            logic = rng.choice(["sdl", "e"])
            f = gen_formula(rng, logic, 2)
            got = SE.decide_valid(f, SE.SearchConfig(logic=logic, complete=True))
            fo = E.translate(f, logic)
            atoms = [S.atom_key(a) for a in F.atoms_of(f)]
            iterator = (S.iter_preference_models if logic == "e"
                        else S.iter_serial_kripke_models)
            fo_everywhere = all(E.fo_eval(fo, m, logic)
                                for n in (1, 2, 3) for m in iterator(n, atoms))
            if isinstance(got, SE.Valid):
                assert fo_everywhere
                checked_valid += 1
            else:
                assert isinstance(got, SE.CountermodelFound)
                assert not E.fo_eval(fo, got.model, logic)
        assert checked_valid > 0


class TestExactE:
    """System E complete mode (the lazy SAT search) on global/local sets."""

    @staticmethod
    def check_witness(got, globals_, locals_):
        model, worlds = got
        SE._revalidate(model, globals_, "e")
        ev = S.Evaluator(model, "e")
        assert all(ev.holds(f, w) for f, w in zip(locals_, worlds))

    def test_verdicts_agree_with_brute_force(self):
        rng = random.Random(17)
        verdicts = set()
        for _ in range(150):
            gl = [gen_formula(rng, "e", 2) for _ in range(rng.randint(0, 3))]
            lo = [gen_formula(rng, "e", 2) for _ in range(rng.randint(0, 2))]
            got = SE._exact_e(gl, lo, SE._Budget(10_000_000))
            if got is None:
                assert not brute_sat("e", gl, lo, max_n=2)
            else:
                self.check_witness(got, gl, lo)
            verdicts.add(got is None)
        assert verdicts == {True, False}

    def test_witnesses_beyond_brute_force(self):
        # 12 to 40 atoms: far past any enumeration, and past the 2^k-bit
        # type masks of the old procedure at the upper end
        rng = random.Random(23)
        sat_inputs = 0
        for _ in range(30):
            pool = [F.Atom(f"a{i}") for i in range(rng.randint(12, 40))]

            def boolean(depth):
                if depth == 0 or rng.random() < 0.1:
                    return rng.choice(pool)
                if rng.random() < 0.2:
                    return F.Not(boolean(depth - 1))
                return rng.choice([F.And, F.Or, F.Implies])(boolean(depth - 1),
                                                            boolean(depth - 1))

            def modal():
                roll = rng.random()
                if roll < 0.5:
                    return F.Oblig(boolean(3), boolean(2))
                if roll < 0.7:
                    return rng.choice([F.Box, F.Dia])(boolean(3))
                if roll < 0.8:
                    return F.Not(modal())
                return rng.choice([F.And, F.Or, F.Implies])(modal(), boolean(2))

            gl, lo = [modal()], []
            while len({a for f in gl + lo for a in F.atoms_of(f)}) < max(12, 0.75 * len(pool)):
                (gl if rng.random() < 0.7 else lo).append(modal())
            got = SE._exact_e(gl, lo, SE._Budget(10_000_000))
            if got is not None:
                self.check_witness(got, gl, lo)
                sat_inputs += 1
        assert sat_inputs >= 20


class TestNodeBudgetEnv:
    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("DEON_NODE_BUDGET", "123")
        assert SE.SearchConfig().node_budget == 123
        monkeypatch.setenv("DEON_NODE_BUDGET", "not a number")
        assert SE.SearchConfig().node_budget == 10_000_000
        monkeypatch.delenv("DEON_NODE_BUDGET")
        assert SE.SearchConfig().node_budget == 10_000_000


class TestCorrespondence:
    def test_requires_a_condition(self):
        with pytest.raises(SE.SearchError):
            SE.correspondence(P, S.FrameConditions(), CFG_E)

    def test_reports_counterexample_for_failing_schema(self):
        # O(p/q) is not validated by reflexivity
        rep = SE.correspondence(F.Oblig(P, Q), S.FrameConditions(reflexive=True),
                                SE.SearchConfig(logic="e", max_worlds=2))
        assert not rep.holds_under_frame
        assert rep.frame_counterexample is not None

    def test_id_needs_no_reflexivity(self):
        # Id is an axiom, so a non-reflexive validating model exists; the
        # canonical first witness is the single irreflexive world
        rep = SE.correspondence(F.Oblig(P, P), S.FrameConditions(reflexive=True),
                                SE.SearchConfig(logic="e", max_worlds=3))
        assert rep.holds_under_frame
        witness = rep.violating_witness
        assert witness is not None and witness.n == 1
        assert witness.relation == frozenset()
        assert S.valid_in_model(witness, F.Oblig(P, P), "e")


class TestMus:
    def test_simple_core(self):
        fs = [P, F.Not(P), Q]
        core = [fs[i] for i in SE.minimal_unsat_subset(fs, CFG_EC)]
        assert core == [P, F.Not(P)]

    def test_already_minimal_unchanged(self):
        fs = [P, F.Not(P)]
        assert [fs[i] for i in SE.minimal_unsat_subset(fs, CFG_EC)] == fs

    def test_precondition_enforced(self):
        with pytest.raises(SE.SearchError):
            SE.minimal_unsat_subset([P], CFG_EC)
        with pytest.raises(SE.SearchError):
            SE.minimal_unsat_subset([P, F.Not(P)], CFG_E)

    def test_contract_on_random_cores(self):
        rng = random.Random(17)
        done = 0
        for _ in range(120):
            logic = rng.choice(["sdl", "e"])
            fs = [gen_formula(rng, logic, 2) for _ in range(rng.randint(2, 5))]
            cfg = SE.SearchConfig(logic=logic, complete=True)
            if not isinstance(SE.find_model(fs, cfg), SE.DecidedUnsatisfiable):
                continue
            core = [fs[i] for i in SE.minimal_unsat_subset(fs, cfg)]
            assert isinstance(SE.find_model(core, cfg), SE.DecidedUnsatisfiable)
            for i in range(len(core)):
                rest = core[:i] + core[i + 1:]
                if rest:
                    assert isinstance(SE.find_model(rest, cfg), SE.ModelFound)
            done += 1
        assert done >= 5
