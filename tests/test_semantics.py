"""Finite-model evaluation: the optimality rule, rigidity, frames."""

from __future__ import annotations

import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from deon import embed as E
from deon import formula as F
from deon import semantics as S

import oracles
from helpers import P, Q, R, gen_formula, gen_model

d1 = F.Const("d1")


def pref(n, relation, valuation, domain=()):
    return S.PreferenceModel(n, relation, valuation, domain)


class TestOpt:
    def test_empty_set(self):
        m = pref(2, [(0, 0)], {"p": []})
        assert oracles.opt(m, []) == frozenset()

    def test_singleton_reflexive(self):
        m = pref(1, [(0, 0)], {"p": [0]})
        assert oracles.opt(m, [0]) == frozenset({0})

    def test_singleton_irreflexive(self):
        m = pref(1, [], {"p": [0]})
        assert oracles.opt(m, [0]) == frozenset()

    def test_incomparable_pair_has_no_optimum(self):
        # two mutually incomparable p-worlds: opt is empty, so any
        # obligation conditional on p holds vacuously -- checked
        # exhaustively over every 2-world valuation with p = {0, 1}
        for bits in range(4):
            m = pref(2, [], {"p": [0, 1], "q": [w for w in range(2) if bits >> w & 1]})
            assert oracles.opt(m, [0, 1]) == frozenset()
            assert oracles.valid_in_model(m, F.Oblig(Q, P), "e")


class TestEval:
    def test_obligation_world_independent(self):
        rng = random.Random(5)
        for _ in range(60):
            m = gen_model(rng, "e")
            f = F.Oblig(gen_formula(rng, "e", 2), gen_formula(rng, "e", 2))
            ev = S.Evaluator(m, "e")
            assert ev.mask(f) in (0, m.full)

    def test_box_rigid_in_e(self):
        rng = random.Random(6)
        for _ in range(60):
            m = gen_model(rng, "e")
            f = F.Box(gen_formula(rng, "e", 2))
            assert S.Evaluator(m, "e").mask(f) in (0, m.full)

    def test_sdl_box_looks_at_successors(self):
        m = S.KripkeModel(3, [(0, 1), (1, 2), (2, 2)], {"p": [1, 2]})
        ev = S.Evaluator(m, "sdl")
        assert ev.holds(F.Box(P), 0) and ev.holds(F.Box(P), 1) and ev.holds(F.Box(P), 2)
        m2 = S.KripkeModel(2, [(0, 0), (0, 1), (1, 1)], {"p": [1]})
        assert not S.eval_formula(m2, 0, F.Box(P), "sdl")

    def test_one_world_reflexive_e_model(self):
        m = pref(1, [(0, 0)], {"p": [0], "q": [0]})
        assert S.eval_formula(m, 0, F.Oblig(Q, P), "e")

    def test_unground_rejected(self):
        m = pref(1, [(0, 0)], {"p": [0]})
        with pytest.raises(S.SemanticsError, match="ground"):
            S.eval_formula(m, 0, F.Forall("x", F.Atom("p")), "e")

    def test_unknown_atom_rejected(self):
        m = pref(1, [(0, 0)], {"p": [0]})
        with pytest.raises(S.SemanticsError, match="unknown atom"):
            S.eval_formula(m, 0, Q, "e")

    def test_dyadic_rejected_in_sdl(self):
        m = S.KripkeModel(1, [(0, 0)], {"p": [0], "q": [0]})
        with pytest.raises(S.SemanticsError):
            S.eval_formula(m, 0, F.Oblig(P, Q), "sdl")

    def test_perm_forb_duality(self):
        rng = random.Random(7)
        for logic in ("sdl", "e"):
            for _ in range(40):
                m = gen_model(rng, logic)
                g = gen_formula(rng, logic, 2)
                ev = S.Evaluator(m, logic)
                assert ev.mask(F.Perm(g)) == ev.mask(F.Not(F.Forb(g)))


class TestValidInModel:
    def test_top(self):
        m = pref(2, [], {"p": [0]})
        assert oracles.valid_in_model(m, F.TOP, "e")

    def test_fails_somewhere(self):
        m = pref(2, [], {"p": [0]})
        assert not oracles.valid_in_model(m, P, "e")

    def test_id_instance_valid_in_sampled_models(self):
        rng = random.Random(8)
        for _ in range(80):
            m = gen_model(rng, "e")
            assert oracles.valid_in_model(m, F.Oblig(P, P), "e")


class TestIsomorphismInvariance:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**9))
    def test_eval_invariant_under_world_renaming(self, seed):
        rng = random.Random(seed)
        m = gen_model(rng, "e")
        f = gen_formula(rng, "e", 3)
        perm = list(range(m.n))
        rng.shuffle(perm)
        relation = [(perm[s], perm[t]) for (s, t) in m.relation]
        valuation = {k: [perm[w] for w in range(m.n) if mask >> w & 1]
                     for k, mask in m.valuation.items()}
        m2 = S.PreferenceModel(m.n, relation, valuation, m.domain)
        for w in range(m.n):
            assert S.eval_formula(m, w, f, "e") == S.eval_formula(m2, perm[w], f, "e")


class TestFrames:
    def test_total_order_passes_all(self):
        rel = [(s, t) for s in range(3) for t in range(3) if s >= t]
        m = pref(3, rel, {"p": []})
        checks = S.check_frame(m, S.FrameConditions(reflexive=True, total=True,
                                                    transitive=True))
        assert all(c.holds for c in checks)

    def test_transitivity_witness(self):
        m = pref(3, [(0, 1), (1, 2)], {"p": []})
        (check,) = S.check_frame(m, S.FrameConditions(transitive=True))
        assert not check.holds and check.witness == (0, 1, 2)

    def test_reflexive_fails_on_empty_relation(self):
        m = pref(1, [], {"p": []})
        (check,) = S.check_frame(m, S.FrameConditions(reflexive=True))
        assert not check.holds and check.witness == (0,)

    def test_serial_check(self):
        m = pref(2, [(0, 1)], {"p": []})
        (check,) = S.check_frame(m, S.FrameConditions(serial=True))
        assert not check.holds and check.witness == (1,)

    def test_kripke_requires_seriality(self):
        with pytest.raises(S.SemanticsError, match="serial"):
            S.KripkeModel(2, [(0, 1)], {"p": []})


class TestSerialization:
    def test_round_trip(self):
        m = S.KripkeModel(2, [(0, 1), (1, 0)], {"p": [0], "q(d1)": [1]}, ["d1"])
        again = S.model_from_json(m.to_json())
        assert again == m and isinstance(again, S.KripkeModel)

    def test_preference_round_trip(self):
        m = pref(3, [(0, 1), (2, 2)], {"p": [0, 2]}, ["a"])
        assert S.model_from_json(m.to_json()) == m

    def test_atom_keys(self):
        assert S.parse_atom_key("p") == ("p", ())
        assert S.parse_atom_key("erase(d1, d2)") == ("erase", ("d1", "d2"))
        assert S.atom_key_str(("erase", ("d1",))) == "erase(d1)"


class TestBatchMasks:
    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_batch_masks_equal_single_masks(self, logic):
        """masks(fs) against one fresh mask per formula, with repeats in fs
        and some formulas already seen one at a time."""
        rng = random.Random(31)
        for _ in range(300):
            m = gen_model(rng, logic)
            fs = [gen_formula(rng, logic, rng.randint(0, 4)) for _ in range(rng.randint(0, 6))]
            fs += rng.sample(fs, min(2, len(fs)))
            ev = S.Evaluator(m, logic)
            for f in fs[:rng.randint(0, len(fs))]:
                ev.mask(f)
            want = [S.Evaluator(m, logic).mask(f) for f in fs]
            assert ev.masks(fs) == want
            assert [ev.mask(f) for f in fs] == want


class TestCompiledBank:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(["sdl", "e"]))
    def test_agrees_with_evaluator(self, seed, logic):
        """Compiled masks, world by world, against the independent
        first-order evaluator of the embedding, embed.fo_eval.  fo_eval
        decides validity only, so a fresh atom z true at world w alone
        reads one bit: z -> f is valid iff f holds at w."""
        rng = random.Random(seed)
        m = gen_model(rng, logic)
        fs = [gen_formula(rng, logic, 3) for _ in range(4)]
        got = S.CompiledBank(fs, logic).masks(m)
        z = F.Atom("z")
        for w in range(m.n):
            valuation = {k: [v for v in m.worlds if mask >> v & 1]
                         for k, mask in m.valuation.items()}
            mw = type(m)(m.n, m.relation, {**valuation, ("z", ()): [w]}, m.domain)
            for f, mask in zip(fs, got):
                # desugaring preserves meaning: the oracle reads both forms
                for g in (f, F.desugar(f, logic)):
                    holds = E.fo_eval(E.translate(F.Implies(z, g), logic), mw, logic)
                    assert holds == bool(mask >> w & 1)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_compiles_as_desugaring_first_did(self, logic):
        """The op array against the reference that desugars each input
        and then makes one op per node: inputs mix derived operators
        (monadic O in E too) with their desugared forms, which must share
        slots.  The compile's fold visits each distinct input node once."""
        rng = random.Random(61)
        for _ in range(1_500):
            fs = [gen_formula(rng, logic, rng.randint(0, 4)) for _ in range(rng.randint(1, 5))]
            if logic == "e":
                fs += [F.ObligM(f) for f in rng.sample(fs, rng.randint(0, len(fs)))]
            fs += [F.desugar(f, logic) for f in rng.sample(fs, min(2, len(fs)))]
            bank = S.CompiledBank(fs, logic)
            got = (bank.ops, bank.roots, bank.atoms, bank.modal)
            assert got == oracles.desugared_bank(fs, logic)
            assert bank.formulas == tuple(fs)
            assert bank.subformulas == len(set().union(*map(F.subformulas, fs)))

    def test_compiling_builds_no_formula_node(self):
        """With the collector off, the table holds exactly the live nodes:
        compiling fresh formulas full of derived operators adds none."""
        gc.disable()
        try:
            fs = [F.Implies(F.Dia(F.Atom(f"fresh{i}")), F.Perm(F.And(F.Atom(f"fresh{i}"), Q)))
                  for i in range(2_000)]
            forbidden = [F.Forb(F.Box(F.Atom(f"fresh{i}"))) for i in range(2_000)]
            monadic = [F.ObligM(F.Atom(f"fresh{i}")) for i in range(2_000)]
            before = len(F._TABLE)
            banks = [S.CompiledBank(fs + forbidden, "sdl"), S.CompiledBank(fs + monadic, "e")]
            assert len(F._TABLE) == before and all(len(b.ops) > 8_000 for b in banks)
        finally:
            gc.enable()

    def test_an_sdl_dyadic_obligation_is_named_first(self):
        """As when every input was desugared before compiling: the dyadic
        obligation is reported before a variable or quantifier met first."""
        px = F.Atom("P", (F.Var("x"),))
        for fs in ([px, F.Oblig(P, Q)], [F.Forall("x", px), F.Box(F.Oblig(P, Q))]):
            with pytest.raises(S.SemanticsError) as err:
                S.CompiledBank(fs, "sdl")
            assert str(err.value) == "dyadic obligation is not part of the SDL language"

    def test_first_rejected_node_top_down(self):
        """A quantifier is named before the variable it binds."""
        px = F.Atom("P", (F.Var("x"),))
        with pytest.raises(S.SemanticsError, match="quantifier present"):
            S.CompiledBank([P, F.Not(F.Forall("x", px))], "e")
        with pytest.raises(S.SemanticsError, match="variable 'x'"):
            S.CompiledBank([F.And(px, F.Exists("x", px))], "sdl")
        with pytest.raises(S.SemanticsError, match="quantifier present"):
            S.CompiledBank([F.Box(F.Forall("x", px))], "sdl")


class TestLanes:
    def test_block_tests_agree_with_each_block(self):
        rng = random.Random(5)
        for _ in range(2000):
            n, count = rng.randint(1, 5), rng.randint(1, 20)
            ln = S.Lanes(n, count)
            x = rng.getrandbits(n * count) & rng.getrandbits(n * count)
            if rng.random() < 0.3:
                x |= rng.getrandbits(n * count) | rng.getrandbits(n * count)
            blocks = [x >> (b * n) & ((1 << n) - 1) for b in range(count)]
            assert ln.empty(x) == sum(1 << (b * n) for b, v in enumerate(blocks) if v == 0)
            assert ln.whole(x) == sum(1 << (b * n) for b, v in enumerate(blocks)
                                      if v == (1 << n) - 1)
            assert ln.spread(ln.empty(x)) == sum(((1 << n) - 1) << (b * n)
                                                 for b, v in enumerate(blocks) if v == 0)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_lanes_agree_with_one_run_per_lane(self, logic):
        """One run over many valuations side by side gives every lane the
        masks of a run over that valuation alone, so each lane's verdict
        (its first ``valid`` roots full) is read from the shared masks."""
        rng = random.Random(11 if logic == "e" else 13)
        verdicts = set()
        for _ in range(400):
            fs = [gen_formula(rng, logic, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            bank = S.CompiledBank(fs, logic)
            n, count = rng.randint(1, 4), rng.randint(1, 24)
            full = (1 << n) - 1
            rows = tuple(rng.randint(logic == "sdl", full) for _ in range(n))
            lane_vals = [[rng.getrandbits(n) for _ in bank.atoms] for _ in range(count)]
            vals = [sum(v[i] << (b * n) for b, v in enumerate(lane_vals))
                    for i in range(len(bank.atoms))]
            valid = rng.randint(0, len(fs))
            out = bank.run(n, rows, vals, lanes=count)
            alone = [bank.run(n, rows, v) for v in lane_vals]
            alive = [all(o[r] == full for r in bank.roots[:valid]) for o in alone]
            verdicts.update(alive)
            ln = S.Lanes(n, count)
            passed = ln.low
            for r in bank.roots[:valid]:
                passed &= ln.whole(out[r])
            for b, v in enumerate(lane_vals):
                assert [m >> (b * n) & full for m in out] == alone[b]
                assert bool(passed >> (b * n) & 1) == alive[b]
        assert verdicts == {True, False}


class TestEnumeration:
    def test_counts_without_pruning(self):
        models = list(S.iter_preference_models(2, ["p"]))
        assert len(models) == (1 << 4) * (1 << 2)
        serial = list(S.iter_serial_kripke_models(2, ["p"]))
        assert len(serial) == 9 * 4  # 3 nonempty rows per world, 2^2 valuations

    def test_frame_filter(self):
        cond = S.FrameConditions(reflexive=True)
        models = list(S.iter_preference_models(2, [], frame=cond))
        assert len(models) == 4  # diagonal forced, two free off-diagonal bits
        assert all(oracles.satisfies_frame(m, cond) for m in models)
