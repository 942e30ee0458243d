"""Model finding, bounded decision, correspondence, unsat cores."""

from __future__ import annotations

import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from deon import formula as F
from deon import search as SE
from deon import semantics as S

import oracles
from helpers import P, Q, R, atoms_of, brute_sat, gen_formula, gen_model

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
        assert oracles.opt(v.model, range(v.model.n)) == frozenset()

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

    def test_free_variables_reported_before_quantifiers(self):
        open_atom = F.Atom("P1", (F.Var("y"),))
        quantified = F.Forall("x", F.Atom("P1", (F.Var("x"),)))
        with pytest.raises(SE.SearchError, match=r"^formula has free variables: \['y'\]$"):
            SE.find_model([F.And(quantified, open_atom)], CFG_E)
        with pytest.raises(SE.SearchError, match="^quantified input: expand"):
            SE.find_model([P, quantified], CFG_E)

    def test_a_variable_under_the_reserved_name_is_not_ground(self):
        # the compiler, the only ground check, must not read it as false
        reserved = F.Atom(F.RESERVED_ATOM, (F.Var("x"),))
        with pytest.raises(SE.SearchError, match=r"^formula has free variables: \['x'\]$"):
            SE.find_model([reserved], CFG_E)

    def test_frame_restricted_search(self):
        cfg = SE.SearchConfig(logic="e", frame=S.FrameConditions(reflexive=True))
        v = SE.find_model([P], cfg)
        assert isinstance(v, SE.ModelFound)
        assert oracles.satisfies_frame(v.model, S.FrameConditions(reflexive=True))


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
        assert SE.decide_valid(F.Oblig(P, P), CFG_EC) == SE.Valid(2)

    def test_conditional_obligation_not_valid(self):
        # derived by the canonical enumeration: the first countermodel
        # has a single reflexive world where q holds and p fails
        v = SE.decide_valid(F.Oblig(P, Q), CFG_EC)
        assert isinstance(v, SE.CountermodelFound)
        assert v.model.n == 1 and v.world == 0
        assert v.model.relation == frozenset({(0, 0)})
        assert v.model.valuation == {("p", ()): 0, ("q", ()): 1}

    def test_excluded_middle(self):
        assert SE.decide_valid(F.Or(P, F.Not(P)), CFG_EC) == SE.Valid(3)

    def test_complete_mode_has_no_size_guard(self):
        big = P
        for _ in range(21):
            big = F.And(big, F.Not(big))  # 43 distinct subformulas, always false
        for cfg in (CFG_EC, CFG_SC):
            v = SE.decide_valid(big, cfg)
            assert isinstance(v, SE.CountermodelFound)
            assert SE.decide_valid(F.Or(big, F.Not(big)), cfg) == SE.Valid(45)

    def test_bound_recorded_is_subformula_exponential(self):
        v = SE.decide_valid(F.Implies(P, P), CFG_EC)
        assert v == SE.Valid(2)  # two distinct subformulas: at most 2^2 worlds

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
        assert oracles.opt(verdict.model, range(verdict.model.n)) == frozenset()

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
            atoms = [S.atom_key(a) for a in atoms_of(f)]
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


@pytest.mark.parametrize("logic", ["sdl", "e"])
def test_witness_revalidation_compiles_no_bank(logic, monkeypatch):
    rng = random.Random(41)
    banks = []

    class Counted(S.CompiledBank):
        def __init__(self, formulas, logic):
            banks.append(formulas)
            super().__init__(formulas, logic)

    monkeypatch.setattr(S, "CompiledBank", Counted)
    for _ in range(50):
        model = gen_model(rng, logic)
        fs = [gen_formula(rng, logic, 3) for _ in range(rng.randint(0, 4))]
        valid = [F.Or(f, F.Not(f)) for f in fs]
        goal = F.And(P, F.Not(P))
        bank = S.CompiledBank(valid + [goal], logic)
        banks.clear()
        SE._revalidate(model, bank, len(valid), world=0)
        assert banks == []
        with pytest.raises(SE.SearchError, match="witness fails"):
            SE._revalidate(model, S.CompiledBank(valid + [F.Not(F.Or(P, F.Not(P)))], logic),
                           len(valid) + 1)
        with pytest.raises(SE.SearchError, match="does not falsify"):
            SE._revalidate(model, S.CompiledBank(valid + [F.Not(goal)], logic), len(valid),
                           world=0)


@pytest.mark.parametrize("complete", [False, True])
@pytest.mark.parametrize("logic", ["sdl", "e"])
def test_a_search_leaves_its_bank_as_compiled(logic, complete, monkeypatch):
    # the re-check trusts the ops its search read: after the search they
    # must still be what a fresh compile of the same inputs gives
    rng = random.Random(43)
    plain, read = S.CompiledBank, []

    class Kept(plain):
        def __init__(self, formulas, logic):
            formulas = list(formulas)
            read.append((formulas, self))
            super().__init__(formulas, logic)

    monkeypatch.setattr(S, "CompiledBank", Kept)
    fields = ("formulas", "roots", "ops", "modal", "atoms")
    cfg = SE.SearchConfig(logic=logic, complete=complete, max_worlds=2)
    for _ in range(20):
        fs = [gen_formula(rng, logic, 2) for _ in range(rng.randint(1, 3))]
        read.clear()
        SE.find_model(fs[1:], cfg)
        SE.entails(fs[1:], fs[0], cfg)
        assert len(read) == 2
        for formulas, bank in read:
            fresh = plain(formulas, logic)
            assert all(type(getattr(bank, f)) is tuple for f in fields[:4])
            assert all(getattr(bank, f) == getattr(fresh, f) for f in fields)


def test_evaluator_reads_a_bank_of_its_own_logic_only():
    rng = random.Random(47)
    for logic, other in (("sdl", "e"), ("e", "sdl")):
        model = gen_model(rng, logic)
        fs = [gen_formula(rng, logic, 3) for _ in range(6)]
        bank = S.CompiledBank(fs, logic)
        seeded, lazy = S.Evaluator(model, logic, bank), S.Evaluator(model, logic)
        assert [seeded.mask(f) for f in bank.formulas] == lazy.masks(fs)
        with pytest.raises(S.SemanticsError, match=f"bank of logic {other}"):
            S.Evaluator(model, logic, S.CompiledBank([P], other))


def _exact(logic, globals_, locals_, budget, **kw):
    """The complete procedure of logic over one bank of globals_ and
    locals_, each local to hold at some world."""
    n = len(globals_)
    exact = SE._exact_sdl if logic == "sdl" else SE._exact_e
    return exact(S.CompiledBank(globals_ + locals_, logic), range(n),
                 [(i, True) for i in range(n, n + len(locals_))], budget, **kw)


@pytest.mark.parametrize("logic", ["sdl", "e"])
def test_the_slot_walk_lists_the_subformulas_in_pre_order(logic):
    # _inputs reads the inputs' Σ off the op array: the slots of the
    # distinct subformulas of the chosen desugared inputs, in the
    # pre-order F.subformulas gives them formula by formula
    rng = random.Random(53)
    for _ in range(300):
        fs = [gen_formula(rng, logic, rng.randint(0, 4)) for _ in range(rng.randint(1, 6))]
        bank = S.CompiledBank(fs, logic)
        forms = [F.desugar(f, logic) for f in bank.formulas]
        slot: dict = {}  # the desugared compile's numbering: one per node, children first
        for f in forms:
            F.fold(f, lambda g, kids: len(slot), slot)
        positions = rng.sample(range(len(fs)), rng.randint(1, len(fs)))
        cut = rng.randint(0, len(positions))
        globals_at = positions[:cut]
        locals_ = [(i, rng.random() < 0.5) for i in positions[cut:]]
        chosen = [forms[i] for i in globals_at + [i for i, _ in locals_]]
        sigma = dict.fromkeys(g for f in chosen for g in F.subformulas(f))
        assert SE._inputs(bank, globals_at, locals_)[0] == [slot[g] for g in sigma]


def test_an_exact_decision_walks_no_formula(monkeypatch):
    rng = random.Random(59)
    cases = []
    for logic in ("e", "sdl"):
        for _ in range(60):
            gl = [gen_formula(rng, logic, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            lo = [gen_formula(rng, logic, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
            cases.append((logic, S.CompiledBank(gl + lo, logic), len(gl), len(lo)))

    def walk(*args, **kwargs):
        raise AssertionError("an exact decision walked a formula")

    monkeypatch.setattr(F, "subformulas", walk)
    monkeypatch.setattr(F, "fold", walk)
    procedures = {"e": [("e", SE._exact_e)],
                  "sdl": [("sdl", SE._exact_sdl),
                          ("sdl-reflexive", partial(SE._exact_sdl, reflexive=True))]}
    seen = set()
    for logic, bank, n, m in cases:
        for name, exact in procedures[logic]:
            got = exact(bank, range(n), [(i, True) for i in range(n, n + m)],
                        SE._Budget(10**8))
            seen.add((name, got is None, m > 0))
    assert seen == {(name, unsat, local) for name in ("e", "sdl", "sdl-reflexive")
                    for unsat in (False, True) for local in (False, True)}


@pytest.mark.parametrize("complete", [False, True])
@pytest.mark.parametrize("logic", ["sdl", "e"])
def test_a_ground_search_walks_no_formula_outside_the_compiler(logic, complete, monkeypatch):
    # the compiler is the only ground check: a walk of the inputs is left
    # for the words of a refusal
    def walk(f):
        raise AssertionError("a search walked a formula outside the compiler")

    rng = random.Random(53)
    cases = [[P, F.Not(P), Q]] + [[gen_formula(rng, logic, 2) for _ in range(rng.randint(1, 3))]
                                  for _ in range(20)]
    for name in ("subformulas", "is_ground", "free_vars"):
        monkeypatch.setattr(F, name, walk)
    cfg = SE.SearchConfig(logic=logic, complete=complete, max_worlds=2)
    refuted = 0
    for fs in cases:
        verdict = SE.find_model(fs, cfg)
        SE.entails(fs[1:], fs[0], cfg)
        SE.decide_valid(fs[0], cfg)
        if isinstance(verdict, SE.DecidedUnsatisfiable):
            SE.minimal_unsat_subset(verdict, cfg)
            refuted += 1
        if not F.LOGICS[logic].serial:  # the probes run over preference models
            SE.correspondence(fs[0], S.FrameConditions(reflexive=True), cfg)
    assert (refuted > 0) == complete


class TestExactE:
    """System E complete mode (the lazy SAT search) on global/local sets."""

    @staticmethod
    def check_witness(got, globals_, locals_):
        model, worlds = got
        SE._revalidate(model, S.CompiledBank(globals_, "e"), len(globals_))
        ev = S.Evaluator(model, "e")
        assert all(ev.holds(f, w) for f, w in zip(locals_, worlds))

    def test_verdicts_agree_with_brute_force(self):
        rng = random.Random(17)
        verdicts = set()
        for _ in range(150):
            gl = [gen_formula(rng, "e", 2) for _ in range(rng.randint(0, 3))]
            lo = [gen_formula(rng, "e", 2) for _ in range(rng.randint(0, 2))]
            got = _exact("e", gl, lo, SE._Budget(10_000_000))
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
            while len({a for f in gl + lo for a in atoms_of(f)}) < max(12, 0.75 * len(pool)):
                (gl if rng.random() < 0.7 else lo).append(modal())
            got = _exact("e", gl, lo, SE._Budget(10_000_000))
            if got is not None:
                self.check_witness(got, gl, lo)
                sat_inputs += 1
        assert sat_inputs >= 20


class TestExactSdl:
    """SDL complete mode (type elimination on the solver) against the
    explicit type masks of tests/oracles.py and the enumeration oracle."""

    @pytest.mark.parametrize("seed", [29, 31])
    def test_same_witness_as_the_type_masks(self, seed):
        rng = random.Random(seed)
        verdicts = set()
        for _ in range(3000):
            gl = [gen_formula(rng, "sdl", rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
            lo = [gen_formula(rng, "sdl", rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
            got = _exact("sdl", gl, lo, SE._Budget(10**9))
            assert got == oracles.mask_exact_sdl(gl, lo, SE._Budget(10**9))
            # the decide-only variant tries a one-world reflexive model first
            quick = _exact("sdl", gl, lo, SE._Budget(10**9), reflexive=True)
            assert (quick is None) == (got is None)
            if got is None:
                assert not brute_sat("sdl", gl, lo, max_n=2)
            for model, worlds in [m for m in (got, quick) if m is not None]:
                ev = S.Evaluator(model, "sdl")
                assert all(ev.valid(f) for f in gl)
                assert all(ev.holds(f, w) for f, w in zip(lo, worlds))
            verdicts.add(got is None)
        assert verdicts == {True, False}

    def test_a_learned_clause_empties_the_type_set(self):
        # every world sees only q-worlds (O q) and a q-world only p-worlds
        # (q -> O p), so no successor of a world falsifies p & q as
        # ~O(p & q) asks: the least type's need fails, and the clause the
        # solver learns leaves no type
        gl = [F.Implies(Q, F.ObligM(P)), F.Not(F.ObligM(F.And(P, Q))), F.ObligM(Q)]
        assert _exact("sdl", gl, [Q], SE._Budget(10**6)) is None
        assert oracles.mask_exact_sdl(gl, [Q], SE._Budget(10**9)) is None
        assert not brute_sat("sdl", gl, [Q])


def _scan_case(rng: random.Random, logic: str):
    """A random bounded scan: assumptions, maybe a goal to falsify, a
    frame in either mode (E), maybe the complete-mode allowance."""
    valid = [gen_formula(rng, logic, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    falsify = gen_formula(rng, logic, rng.randint(1, 3)) if rng.random() < 0.6 else None
    every = valid + ([falsify] if falsify is not None else [])
    frame, mode = S.FrameConditions(), "require"
    if logic == "e" and rng.random() < 0.5:
        frame = rng.choice([S.FrameConditions(reflexive=True), S.FrameConditions(total=True),
                            S.FrameConditions(transitive=True, serial=True)])
        mode = rng.choice(["require", "violate"])
    k = len(S.CompiledBank(every, logic).atoms)
    cfg = SE.SearchConfig(logic=logic, frame=frame, max_worlds=3 if k <= 2 else 2,
                          complete=rng.random() < 0.3)
    return valid, falsify, cfg, mode


def _both_scans(case, budget: int):
    """(outcome, budget left) of the chunked scan and of the reference;
    an outcome is the (model, world) found, None, or BudgetExceeded, and
    a negative budget left reads -1."""
    valid, falsify, cfg, mode = case
    bank = S.CompiledBank(valid + ([falsify] if falsify is not None else []), cfg.logic)
    got = []
    for scan in (partial(SE._bounded_scan, bank, len(valid)),
                 partial(oracles.sequential_scan, valid, falsify)):
        b = SE._Budget(budget)
        try:
            found = scan(cfg, b, cfg.max_worlds, mode)
        except SE.BudgetExceeded:
            found = SE.BudgetExceeded
        got.append((found, max(b.left, -1)))
    return got


class TestBitParallelScan:
    """The bounded scan decides a chunk of valuations per compiled run;
    it must find what the one-candidate-at-a-time loop finds and charge
    what it charges."""

    @pytest.mark.parametrize("chunk_bits", [1, 3, SE.CHUNK_BITS])
    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_same_hit_and_budget_as_the_sequential_scan(self, logic, chunk_bits,
                                                        monkeypatch):
        monkeypatch.setattr(SE, "CHUNK_BITS", chunk_bits)
        rng = random.Random(chunk_bits * 7 + (logic == "e"))
        outcomes = set()
        for _ in range(40):
            case = _scan_case(rng, logic)
            chunked, sequential = _both_scans(case, 10**7)
            assert chunked == sequential
            found = chunked[0]
            outcomes.add(found is None)
            # spent is the reference's whole charge; the budget must run
            # out below it, mid-chunk too, and not at or above it
            spent = 10**7 - sequential[1]
            for budget in {0, spent // 3, spent // 2, spent - 2, spent - 1, spent, spent + 1}:
                if budget >= 0:
                    chunked, sequential = _both_scans(case, budget)
                    assert chunked == sequential
                    if budget >= spent:
                        assert chunked == (found, budget - spent)
                    else:
                        assert chunked[0] is (None if case[2].complete else SE.BudgetExceeded)
        assert outcomes == {True, False}

    def test_hit_in_a_later_chunk_of_its_relation(self):
        # three worlds are needed, and a3/a4 first take the needed values
        # past the first 2^12 valuations of the empty relation
        a = [F.Atom(f"a{i}") for i in range(5)]
        goal = F.Not(F.And(F.And(F.Dia(F.And(a[4], a[3])), F.Dia(F.And(a[4], F.Not(a[3])))),
                           F.And(F.Dia(F.Not(a[4])), F.Or(a[0], F.Or(a[1], a[2])))))
        cfg = SE.SearchConfig(logic="e", max_worlds=3)
        chunked, sequential = _both_scans(([], goal, cfg, "require"), 10**7)
        assert chunked == sequential
        model, world = chunked[0]
        assert model.n == 3 and not model.relation

    def test_a_passing_lane_that_is_not_canonical_is_skipped(self):
        # on the empty two-world relation, p = {1}, q = {0} (valuation
        # bits 6) passes before p = {0}, q = {1} (bits 9), but swapping
        # the worlds maps it to the smaller valuation tuple
        fs = [F.Dia(P), F.Dia(F.Not(P)), F.Iff(Q, F.Not(P))]
        cfg = SE.SearchConfig(logic="e", max_worlds=2)
        chunked, sequential = _both_scans((fs, None, cfg, "require"), 10**7)
        assert chunked == sequential
        model = chunked[0][0]
        assert model.valuation[("p", ())] == 0b01 and not model.relation

    def test_relation_walk_is_charged(self, monkeypatch):
        applied = 0
        apply_bits = SE._apply_bits

        def counting(bits, table):
            nonlocal applied
            applied += 1
            return apply_bits(bits, table)

        # no atoms, so every permutation applied is applied to a relation
        monkeypatch.setattr(SE, "_apply_bits", counting)
        cfg = SE.SearchConfig(logic="e", max_worlds=5, node_budget=20_000)
        with pytest.raises(SE.BudgetExceeded):
            SE.decide_valid(F.TOP, cfg)
        assert 0 < applied <= 20_000

    def test_permutation_tables_need_the_budget_first(self):
        relations = SE._canonical_relations(12, SE.SearchConfig(), SE._Budget(10**7))
        with pytest.raises(SE.BudgetExceeded):
            next(relations)


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
        assert oracles.valid_in_model(witness, F.Oblig(P, P), "e")


class TestMus:
    def test_simple_core(self):
        fs = [P, F.Not(P), Q]
        core = [fs[i] for i in SE.minimal_unsat_subset(SE.find_model(fs, CFG_EC), CFG_EC)]
        assert core == [P, F.Not(P)]

    def test_already_minimal_unchanged(self):
        fs = [P, F.Not(P)]
        verdict = SE.find_model(fs, CFG_EC)
        assert [fs[i] for i in SE.minimal_unsat_subset(verdict, CFG_EC)] == fs

    def test_precondition_enforced(self):
        # the MUS shrinks a refutation: a model or a bounded miss is none
        found, missed = SE.find_model([P], CFG_EC), SE.find_model([P, F.Not(P)], CFG_E)
        assert isinstance(found, SE.ModelFound) and isinstance(missed, SE.NoModelUpTo)
        for verdict in (found, missed):
            with pytest.raises(SE.SearchError, match="shrinks a DecidedUnsatisfiable"):
                SE.minimal_unsat_subset(verdict, CFG_EC)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_input_errors_come_before_the_bank(self, logic):
        # the search that hands the MUS its verdict names them; the bank
        # alone would raise SemanticsError on the quantifier
        cfg = SE.SearchConfig(logic=logic, complete=True)
        px = F.Atom("P1", (F.Var("x"),))
        with pytest.raises(SE.SearchError, match="quantified input"):
            SE.find_model([P, F.Not(P), F.Forall("x", px)], cfg)
        reflexive = SE.SearchConfig(logic="sdl", complete=True,
                                    frame=S.FrameConditions(reflexive=True))
        with pytest.raises(SE.SearchError, match="only the"):
            SE.find_model([P, F.Not(P)], reflexive)
        # a rejected config is named before a non-ground input
        with pytest.raises(SE.SearchError, match="only the"):
            SE.find_model([P, F.Forall("x", px)], reflexive)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_same_core_as_front_to_back_deletion(self, logic):
        rng = random.Random(41)
        cfg = SE.SearchConfig(logic=logic, complete=True)
        done = 0
        while done < 300:
            fs = [gen_formula(rng, logic, 2) for _ in range(rng.randint(2, 7))]
            if _exact(logic, fs, [], SE._Budget(10**7)) is None:
                core = SE.minimal_unsat_subset(SE.find_model(fs, cfg), cfg)
                assert core == oracles.deletion_mus(fs, cfg)
                done += 1

    def test_contract_on_random_cores(self):
        rng = random.Random(17)
        done = 0
        for _ in range(120):
            logic = rng.choice(["sdl", "e"])
            fs = [gen_formula(rng, logic, 2) for _ in range(rng.randint(2, 5))]
            cfg = SE.SearchConfig(logic=logic, complete=True)
            verdict = SE.find_model(fs, cfg)
            if not isinstance(verdict, SE.DecidedUnsatisfiable):
                continue
            core = [fs[i] for i in SE.minimal_unsat_subset(verdict, cfg)]
            assert isinstance(SE.find_model(core, cfg), SE.DecidedUnsatisfiable)
            for i in range(len(core)):
                rest = core[:i] + core[i + 1:]
                if rest:
                    assert isinstance(SE.find_model(rest, cfg), SE.ModelFound)
            done += 1
        assert done >= 5
