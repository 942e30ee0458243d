"""The embedding pipeline: typing, normal forms, lowering, TPTP."""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deon import embed as E
from deon import formula as F
from deon import lam as L
from deon import semantics as S

from helpers import P, Q, R, gen_formula, gen_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

sig = F.Signature({"p": 0, "q": 0, "P": 1})
w, v, x, y, z = (L.Var(n, L.I) for n in "wvxyz")
Pc = E.atom_const("P", 1)
pc, qc = E.atom_const("p", 0), E.atom_const("q", 0)


class TestOperatorTypes:
    def test_oblig_operator_type(self):
        tau = L.TAU
        assert L.type_of(E.E_OBLIG) == L.fn(tau, tau, tau)

    def test_embeddings_are_world_predicates(self):
        for logic in ("sdl", "e"):
            rng = random.Random(1)
            for _ in range(30):
                f = gen_formula(rng, logic, 3)
                assert L.type_of(E.embed(f, logic)) == L.TAU

    def test_atom_embeds_to_constant(self):
        assert E.embed_e(P) == L.Const("p", L.TAU)
        assert E.embed_sdl(P) == L.Const("p", L.TAU)

    def test_dyadic_rejected_in_sdl(self):
        with pytest.raises(E.EmbedError):
            E.embed_sdl(F.Oblig(P, Q))


class TestNormalForms:
    def test_dia_forall_matches_conversion_chain_final_line(self):
        f = F.parse("dia forall x. P(x)", sig, logic="sdl")
        nf = L.normalize(E.embed_sdl(f))
        expected = L.Abs("w", L.I, L.neg(L.App(L.Pi(L.I), L.Abs("v", L.I, L.neg(
            L.land(L.app(E.R_ACC, w, v),
                   L.App(L.Pi(L.I), L.Abs("x", L.I, L.app(Pc, x, v)))))))))
        assert L.alpha_eq(nf, expected)

    def test_chain_is_step_listable(self):
        f = F.parse("dia forall x. P(x)", sig, logic="sdl")
        steps = L.normalize_steps(E.embed_sdl(f))
        assert len(steps) >= 4  # several definition-unfolding beta steps
        assert L.alpha_eq(steps[-1], L.normalize(E.embed_sdl(f)))

    def test_e_box_is_unguarded_global(self):
        nf = L.normalize(E.embed_e(F.Box(P)))
        assert L.alpha_eq(nf, L.Abs("x", L.I, L.App(L.Pi(L.I), pc)))

    def test_e_oblig_normal_form(self):
        nf = L.normalize(E.embed_e(F.Oblig(Q, P)))
        inner = L.limp(
            L.land(L.App(pc, w),
                   L.App(L.Pi(L.I), L.Abs("y", L.I, L.limp(L.App(pc, y),
                                                           L.app(E.R_BET, w, y))))),
            L.App(qc, w))
        expected = L.Abs("x", L.I, L.App(L.Pi(L.I), L.Abs("w", L.I, inner)))
        assert L.alpha_eq(nf, expected)

    def test_monadic_equals_dyadic_with_top(self):
        a = L.normalize(E.embed_e(F.ObligM(P)))
        b = L.normalize(E.embed_e(F.Oblig(P, F.TOP)))
        assert L.alpha_eq(a, b)


class TestVld:
    def test_global_wraps_universally(self):
        # the displayed validity reduction: one world quantifier over the
        # condition/betterness guard (canonical binder names v1, v2)
        t = E.vld(E.embed_e(F.Oblig(Q, P)))
        fo = E.lower(L.normalize(t))
        assert fo == E.FOForall("v1", E.WORLD, E.FOImp(
            E.FOAnd(E.FOAtom("p", (E.FOVar("v1"),)),
                    E.FOForall("v2", E.WORLD, E.FOImp(
                        E.FOAtom("p", (E.FOVar("v2"),)),
                        E.FOAtom("Rb", (E.FOVar("v1"), E.FOVar("v2")))))),
            E.FOAtom("q", (E.FOVar("v1"),))))

    def test_local_plugs_actual_world(self):
        t = L.normalize(E.vld(E.embed_sdl(P), mode="local"))
        assert t == L.App(L.Const("p", L.TAU), E.AW)

    def test_top_is_fo_valid(self):
        # the normal form keeps the reserved-atom tautology; lowering and
        # evaluating yields truth in every structure
        fo = E.translate(F.TOP, "e")
        rng = random.Random(2)
        for _ in range(20):
            assert E.fo_eval(fo, gen_model(rng, "e"), "e")

    def test_wrong_type_rejected(self):
        with pytest.raises(E.EmbedError):
            E.vld(L.Const("c", L.I))


class TestLower:
    def test_sdl_box_shape(self):
        fo = E.translate(F.Box(P), "sdl")
        assert fo == E.FOForall("v0", E.WORLD, E.FOForall("v1", E.WORLD, E.FOOr(
            E.FONot(E.FOAtom("R", (E.FOVar("v0"), E.FOVar("v1")))),
            E.FOAtom("p", (E.FOVar("v1"),)))))

    def test_higher_order_residue(self):
        t = L.forall("phi", L.TAU, L.App(L.Var("phi", L.TAU), L.Const("c", L.I)))
        with pytest.raises(E.HigherOrderResidue):
            E.lower(t)

    def test_free_predicate_variable_is_residue(self):
        with pytest.raises(E.HigherOrderResidue):
            E.lower(L.Var("b", L.O))

    def test_vacuous_world_binder_dropped(self):
        fo = E.translate(F.Oblig(Q, P), "e")
        assert isinstance(fo, E.FOForall)
        assert not isinstance(fo.body, E.FOForall) or fo.body.var != fo.var

    def test_shadowed_binder(self):
        x = L.Var("x", L.I)
        t = L.forall("x", L.I, L.forall("x", L.I, L.app(E.R_ACC, x, x)))
        assert E.lower(t) == E.FOForall(
            "v1", E.WORLD, E.FOAtom("R", (E.FOVar("v1"), E.FOVar("v1"))))

    def test_binder_names_avoid_free_names(self):
        pred = L.Const("P", L.fn(L.I, L.I, L.O))
        t = L.forall("x", L.I, L.app(pred, L.Var("v0", L.I), L.Var("x", L.I)))
        assert E.lower(t) == E.FOForall(
            "v0'", E.WORLD, E.FOAtom("P", (E.FOVar("v0"), E.FOVar("v0'"))))

    @pytest.mark.parametrize("const,logic,fo,tptp_var", [
        ("v1", "sdl", "∀v0:world. ∀v1':world. (¬R(v0, v1')) ∨ P(v1, v1')", "V1_"),
        ("q1", "e", "∀q1':world. P(q1, q1')", "Q1_"),
    ])
    def test_binder_names_avoid_constant_names(self, const, logic, fo, tptp_var):
        f = F.parse(f"box P({const})", F.Signature({"P": 1}, frozenset({const})), logic=logic)
        nf = L.normalize(E.vld(E.embed(f, logic)))
        lowered = E.lower(nf)
        assert E.fo_show(lowered) == fo
        tptp = E.emit_tptp(lowered, "goal", "conjecture", logic=logic)
        assert f"! [{tptp_var}]" in tptp and "'" not in tptp
        if logic == "sdl":
            assert L.show(nf) == "Π(λv0. Π(λv1'. ¬(R v0 v1') ∨ (P v1 v1')))"

    def test_tptp_names_of_primed_binders_stay_distinct(self):
        # a primed binder is written with an underscore in TPTP, so it
        # must also avoid the free names that end in underscores
        pred = L.Const("P", L.fn(L.I, L.I, L.I, L.O))
        free = [L.Var("v0", L.I), L.Var("v0_", L.I)]
        t = L.forall("x", L.I, L.app(pred, *free, L.Var("x", L.I)))
        fo = E.lower(t)
        assert fo.var == "v0''"
        assert "! [V0__]" in E.emit_tptp(fo, "goal", "conjecture")

    def test_eta_binder_not_captured_by_a_same_named_binder(self):
        pred = L.Const("P", L.fn(L.I, L.I, L.O))
        t = L.forall("q1", L.I, L.App(L.Pi(L.I), L.App(pred, L.Var("q1", L.I))))
        assert E.lower(t) == E.FOForall("v0", E.INDIV, E.FOForall(
            "q1", E.WORLD, E.FOAtom("P", (E.FOVar("v0"), E.FOVar("q1")))))

    def test_sort_conflict(self):
        pred = L.Const("P", L.fn(L.I, L.I, L.O))
        x = L.Var("x", L.I)
        with pytest.raises(E.LowerError, match="both sorts"):
            E.lower(L.forall("x", L.I, L.app(pred, x, x)))


class TestGuardedFragment:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_propositional_sdl_lowers_into_guarded_fragment(self, seed):
        rng = random.Random(seed)
        f = gen_formula(rng, "sdl", 3, quantifiers=False)
        fo = E.translate(f, "sdl")
        assert E.in_guarded_fragment(fo)


class TestGoldenTptp:
    @pytest.mark.parametrize("fname,text,logic,name", [
        ("golden_guarded_box.p", "box (p & q)", "sdl", "guarded_box"),
        ("golden_dia_forall.p", "dia forall x. P(x)", "sdl", "dia_forall"),
        ("golden_oblig_validity.p", "O{q | p}", "e", "oblig_validity"),
    ])
    def test_byte_exact(self, fname, text, logic, name):
        f = F.parse(text, sig, logic=logic)
        out = E.emit_tptp(E.translate(f, logic), name, "conjecture", logic=logic)
        assert out == (FIXTURES / fname).read_text()

    def test_seriality_axiom_only_for_sdl(self):
        fo = E.translate(P, "e")
        assert "seriality" not in E.emit_tptp(fo, "t", "axiom")
        fo = E.translate(P, "sdl")
        assert "seriality" in E.emit_tptp(fo, "t", "axiom", logic="sdl")


class TestFaithfulnessSpot:
    """Small deterministic slice of the big acceptance property."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(["sdl", "e"]))
    def test_direct_eval_equals_fo_eval(self, seed, logic):
        rng = random.Random(seed)
        f = gen_formula(rng, logic, 3, quantifiers=True)
        fo = E.translate(f, logic)
        for _ in range(3):
            m = gen_model(rng, logic)
            direct = S.valid_in_model(m, F.ground(f, m.domain), logic)
            assert direct == E.fo_eval(fo, m, logic)


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


def tree_size(f: F.Formula) -> int:
    subs = [getattr(f, a) for a in ("sub", "left", "right", "body", "cond") if hasattr(f, a)]
    return 1 + sum(tree_size(g) for g in subs)


class TestNormalizerScales:
    """Normalization is one evaluation and one read-back: time grows with
    the size of the term, not with the number of beta steps."""

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_large_balanced_formula(self, logic):
        f = balanced(1446, logic)
        assert tree_size(f) == 1446
        t0 = time.perf_counter()
        fo = E.translate(f, logic)
        # the single-step normalizer took 29.6 s on a formula of this size
        assert time.perf_counter() - t0 < 5.0
        rng = random.Random(3)
        for _ in range(3):
            m = gen_model(rng, logic, max_worlds=3)
            assert S.valid_in_model(m, f, logic) == E.fo_eval(fo, m, logic)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_time_grows_linearly(self, logic):
        def best_time(size):
            t = E.vld(E.embed(balanced(size, logic), logic))
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                L.normalize(t)
                times.append(time.perf_counter() - t0)
            return min(times)

        # four times the nodes: about 4x the time when linear, 16x when
        # quadratic (the single-step normalizer measured about 10x)
        assert best_time(1440) / best_time(360) < 8

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_deep_negation(self, logic):
        f = P
        for _ in range(300):
            f = F.Not(f)
        body = L.App(pc, x)
        for _ in range(300):
            body = L.neg(body)
        expected = L.App(L.Pi(L.I), L.Abs("x", L.I, body))
        assert L.alpha_eq(L.normalize(E.vld(E.embed(f, logic))), expected)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_deep_box(self, logic):
        f = P
        for _ in range(150):
            f = F.Box(f)
        nf = L.normalize(E.vld(E.embed(f, logic)))
        assert L.type_of(nf) == L.O
        assert L.show(nf).count("Π") == 151  # one quantifier per box, one for vld
