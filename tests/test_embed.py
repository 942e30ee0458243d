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

import oracles
from helpers import P, Q, R, balanced, gen_formula, gen_model

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
        assert E.embed(P, "e") == L.Const("p", L.TAU)
        assert E.embed(P, "sdl") == L.Const("p", L.TAU)

    def test_dyadic_rejected_in_sdl(self):
        with pytest.raises(E.EmbedError):
            E.embed(F.Oblig(P, Q), "sdl")


class TestNormalForms:
    def test_dia_forall_matches_conversion_chain_final_line(self):
        f = F.parse("dia forall x. P(x)", sig, logic="sdl")
        nf = L.normalize(E.embed(f, "sdl"))
        expected = L.Abs("w", L.I, L.neg(L.App(L.Pi(L.I), L.Abs("v", L.I, L.neg(
            L.land(L.app(E.R_ACC, w, v),
                   L.App(L.Pi(L.I), L.Abs("x", L.I, L.app(Pc, x, v)))))))))
        assert oracles.alpha_eq(nf, expected)

    def test_chain_is_step_listable(self):
        f = F.parse("dia forall x. P(x)", sig, logic="sdl")
        steps = L.normalize_steps(E.embed(f, "sdl"))
        assert len(steps) >= 4  # several definition-unfolding beta steps
        assert oracles.alpha_eq(steps[-1], L.normalize(E.embed(f, "sdl")))

    def test_e_box_is_unguarded_global(self):
        nf = L.normalize(E.embed(F.Box(P), "e"))
        assert oracles.alpha_eq(nf, L.Abs("x", L.I, L.App(L.Pi(L.I), pc)))

    def test_e_oblig_normal_form(self):
        nf = L.normalize(E.embed(F.Oblig(Q, P), "e"))
        inner = L.limp(
            L.land(L.App(pc, w),
                   L.App(L.Pi(L.I), L.Abs("y", L.I, L.limp(L.App(pc, y),
                                                           L.app(E.R_BET, w, y))))),
            L.App(qc, w))
        expected = L.Abs("x", L.I, L.App(L.Pi(L.I), L.Abs("w", L.I, inner)))
        assert oracles.alpha_eq(nf, expected)

    def test_monadic_equals_dyadic_with_top(self):
        a = L.normalize(E.embed(F.ObligM(P), "e"))
        b = L.normalize(E.embed(F.Oblig(P, F.TOP), "e"))
        assert oracles.alpha_eq(a, b)


class TestVld:
    def test_global_wraps_universally(self):
        # the displayed validity reduction: one world quantifier over the
        # condition/betterness guard (canonical binder names v1, v2)
        t = E.vld(E.embed(F.Oblig(Q, P), "e"))
        fo = E.lower(L.normalize(t))
        assert fo == E.FOForall("v1", E.WORLD, E.FOImp(
            E.FOAnd(E.FOAtom("p", (E.FOVar("v1"),)),
                    E.FOForall("v2", E.WORLD, E.FOImp(
                        E.FOAtom("p", (E.FOVar("v2"),)),
                        E.FOAtom("Rb", (E.FOVar("v1"), E.FOVar("v2")))))),
            E.FOAtom("q", (E.FOVar("v1"),))))

    def test_local_plugs_actual_world(self):
        t = L.normalize(E.vld(E.embed(P, "sdl"), mode="local"))
        assert t == L.App(L.Const("p", L.TAU), E.AW)

    def test_top_is_fo_valid(self):
        # the normal form keeps the reserved-atom tautology; lowering and
        # evaluating yields truth in every structure
        fo = E.translate(F.TOP, "e")
        rng = random.Random(2)
        for _ in range(20):
            assert E.fo_eval(fo, gen_model(rng, "e"), "e")

    def test_a_free_z_is_not_captured(self):
        # the world binder takes a name that no free variable of the term has
        f = F.Atom("P1", (F.Var("z"),))
        t = E.vld(E.embed(f, "e"))
        assert "z" in L.names(t)
        fo = E.FOForall("q0", E.WORLD, E.FOAtom("P1", (E.FOVar("z"), E.FOVar("q0"))))
        assert E.lower(L.normalize(t)) == fo
        assert E.translate(f, "e") == fo

    def test_wrong_type_rejected(self):
        with pytest.raises(E.EmbedError):
            E.vld(L.Const("c", L.I))


def reference(f, logic, mode="global"):
    """What `E.translation` must give: `L.show` of the normal form that
    normalization by evaluation gives for the vld-wrapped embedding, and
    `E.lower` of that node."""
    nf = L.normalize(E.vld(E.embed(f, logic), mode))
    return L.show(nf), E.lower(nf)


class TestNormalFormBuilder:
    """`E.translation` writes the text of the normal form of the
    vld-wrapped embedding and builds its first-order reading, as
    normalizing the embedding and lowering the result do."""

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    @pytest.mark.parametrize("quantifiers", [False, True])
    def test_same_node_as_normalize_on_random_formulas(self, logic, quantifiers):
        rng = random.Random(20 + quantifiers)
        for _ in range(800):
            f = gen_formula(rng, logic, rng.randint(0, 5), quantifiers)
            for mode in ("global", "local"):
                assert E.translation(f, logic, mode) == reference(f, logic, mode), \
                    (F.print_formula(f), mode)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_each_operator(self, logic):
        ops = [F.Not, F.Box, F.Dia, F.ObligM, F.Perm, F.Forb,
               F.And, F.Or, F.Implies, F.Iff] + [F.Oblig] * (logic == "e")
        for op in ops:
            f = op(P) if op in F._UNARY else op(P, Q)
            for mode in ("global", "local"):
                assert E.translation(f, logic, mode) == reference(f, logic, mode), op

    @pytest.mark.parametrize("f", [
        F.Forall("x", F.Forall("x", F.Atom("P1", (F.Var("x"),)))),
        F.Atom("P1", (F.Var("y"),)),
        # vld binds its world over a fresh name, so a free z stays free
        F.Atom("P1", (F.Var("z"),)),
        F.And(F.Atom("v0"), F.Box(F.Dia(F.Atom("v1")))),
        F.Box(F.Atom("P1", (F.Const("c0"),))),
        F.Forall("x", F.Box(F.Atom("P1", (F.Var("x"),)))),
        P,
        F.Oblig(P, F.Oblig(Q, F.Oblig(R, P))),
        # the existential read through a vacuous binder: ~box exists x. box ~q
        F.Not(F.Box(F.Exists("x", F.Box(F.Not(Q))))),
        # P box dia (P1(c0) | r)
        F.Perm(F.Box(F.Dia(F.Or(F.Atom("P1", (F.Const("c0"),)), R)))),
        # free names that a binder's name meets, in the text, in first
        # order (v<k>, q<k>) and in TPTP (a prime is written _)
        F.And(F.Atom("v0"), F.And(F.Atom("v0_"), F.Box(F.Atom("q1")))),
        F.Atom("q0"),
        F.Forall("v0", F.Box(F.Atom("P1", (F.Var("v0"),)))),
        # an atom named as the rules' placeholder, F.CHILD, is read as an atom
        F.Perm(F.Forb(F.And(F.CHILD, F.Box(F.CHILD)))),
    ], ids=["shadowing", "free", "free-z", "primed", "eta-const", "eta-var", "atom",
            "nested-conditions", "exists-through-vacuous", "perm-box-dia", "binder-names",
            "q0", "bound-v0", "placeholder"])
    def test_hand_cases(self, f):
        for logic in ("sdl", "e"):
            if logic == "sdl" and F.Oblig in map(type, F.subformulas(f)):
                continue
            for mode in ("global", "local"):
                assert E.translation(f, logic, mode) == reference(f, logic, mode), \
                    (logic, mode)

    def test_eta_contracts_as_the_read_back_does(self):
        box_c0 = F.Box(F.Atom("P1", (F.Const("c0"),)))
        assert E.translation(box_c0, "e")[0] == "Π(λv0. Π (P1 c0))"
        assert E.translation(P, "sdl")[0] == "Π p"
        primed = F.And(F.Atom("v0"), F.Box(F.Atom("v1")))
        assert E.translation(primed, "sdl")[0] == \
            "Π(λv0'. (v0 v0') ∧ Π(λv1'. ¬(R v0' v1') ∨ (v1 v1')))"
        text, fo = E.translation(F.Forall("x", F.Not(F.Box(P))), "e", "local")
        assert text == "Π(λv0. ¬(Π p))"
        assert E.fo_show(fo) == "¬(∀q1:world. p(q1))"

    def test_the_existential_is_read_through_vacuous_binders(self):
        f = F.Not(F.Box(F.Exists("x", F.Box(F.Not(Q)))))
        text, fo = E.translation(f, "e")
        assert text == "Π(λv0. ¬Π(λv1. ¬Π(λv2. ¬Π(λv3. ¬(q v3)))))"
        # not box not (forall x. not box not q): x and the box's world do
        # not occur, and the inner not box not is a dia
        assert fo == E.FOExists("v3", E.WORLD, E.FOAtom("q", (E.FOVar("v3"),)))

    def test_free_names_prime_the_binders(self):
        f = F.And(F.Atom("v0"), F.And(F.Atom("v0_"), F.Box(F.Atom("q1"))))
        text, fo = E.translation(f, "e")
        assert text == "Π(λv0'. (v0 v0') ∧ ((v0_ v0') ∧ (Π q1)))"
        assert E.fo_show(fo) == "∀v0'':world. v0(v0'') ∧ (v0_(v0'') ∧ (∀q1':world. q1(q1')))"
        assert "! [V0__]" in E.emit_tptp(fo, "goal", "conjecture")

    @pytest.mark.parametrize("name", ["not", "or", "and", "imp", "iff", "Pi"])
    def test_predicates_named_as_logical_constants_are_rejected(self, name):
        # the normal form would print them, and lowering read them, as the
        # kernel's connectives and quantifier
        with pytest.raises(E.EmbedError, match="logical constant"):
            E.translation(F.Box(F.Atom(name)), "sdl")

    @pytest.mark.parametrize("f", [F.Atom("R", (F.Const("c"),)), F.Atom("Rb"),
                                   F.Forall("x", F.Atom("R", (F.Var("x"),)))])
    def test_predicates_named_as_relation_constants_are_rejected(self, f):
        # lowering reads every argument of R and Rb as a world
        for logic in ("sdl", "e"):
            with pytest.raises(E.EmbedError, match="relation constant"):
                E.translation(f, logic)

    def test_dyadic_obligation_in_sdl_is_the_same_error(self):
        f = F.Oblig(Q, P)
        with pytest.raises(E.EmbedError) as expected:
            E.vld(E.embed(f, "sdl"))
        with pytest.raises(E.EmbedError) as got:
            E.translation(f, "sdl")
        assert str(got.value) == str(expected.value)
        with pytest.raises(E.EmbedError, match="unknown validity mode"):
            E.translation(P, "e", "nowhere")

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_deep_chains_do_not_recurse(self, logic):
        assert E.translation(chain(200), logic) == reference(chain(200), logic)
        text, fo = E.translation(chain(10_000), logic)
        # one Pi per operator and one for vld; O opens two in E
        assert text.count("Π") == 10_001 + 2_500 * (logic == "e")

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_time_grows_linearly(self, logic):
        # four times the nodes: about 4x the time when linear, 16x when
        # quadratic.  Each round times both sizes back to back, so that a
        # slow stretch of the host slows both, and each keeps its best
        formulas = [balanced(360, logic), balanced(1440, logic)]
        best = [float("inf")] * 2
        for _ in range(5):
            for i, f in enumerate(formulas):
                t0 = time.perf_counter()
                E.translation(f, logic)
                best[i] = min(best[i], time.perf_counter() - t0)
        assert best[1] / best[0] < 8


def chain(depth: int) -> F.Formula:
    """box, O, dia and forall x in turn, depth deep, over P1(x)."""
    f = F.Atom("P1", (F.Var("x"),))
    ops = (F.Box, F.ObligM, F.Dia, lambda g: F.Forall("x", g))
    for i in range(depth):
        f = ops[i % 4](f)
    return f


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


class TestFOFormula:
    """Hash-consed nodes: equal formulas are one object, and repr writes
    the dataclass text without recursion."""

    def test_repr_as_the_dataclass_wrote_it(self):
        assert repr(E.translate(F.Box(P), "sdl")) == (
            "FOForall(var='v0', sort='world', body=FOForall(var='v1', sort='world', "
            "body=FOOr(left=FONot(sub=FOAtom(pred='R', args=(FOVar(name='v0'), "
            "FOVar(name='v1')))), right=FOAtom(pred='p', args=(FOVar(name='v1'),)))))")
        assert repr(E.translate(F.Not(F.Dia(F.Atom("P1", (F.Const("c0"),)))), "e")) == (
            "FONot(sub=FOExists(var='v1', sort='world', body=FOAtom(pred='P1', "
            "args=(FOConst(name='c0'), FOVar(name='v1')))))")

    def test_equality_tells_every_field_apart(self):
        a, b = E.FOAtom("p", (E.FOVar("x"),)), E.FOAtom("p", (E.FOConst("x"),))
        assert a == E.FOAtom("p", (E.FOVar("x"),)) and a != b
        assert E.FOAnd(a, b) != E.FOOr(a, b) and E.FOAnd(a, b) != E.FOAnd(b, a)
        assert E.FONot(a) != a and E.FONot(a) == E.FONot(E.FOAtom("p", (E.FOVar("x"),)))
        assert E.FOForall("x", E.WORLD, a) != E.FOExists("x", E.WORLD, a)
        assert E.FOForall("x", E.WORLD, a) != E.FOForall("x", E.INDIV, a)
        assert E.FOForall("x", E.WORLD, a) != E.FOForall("y", E.WORLD, a)
        assert E.FOAnd(a, E.FOAnd(a, a)) != E.FOAnd(E.FOAnd(a, a), a)
        assert a != "p" and a != ("p", (E.FOVar("x"),))
        assert {E.translate(F.Box(P), "sdl"): 1}[E.translate(F.Box(P), "sdl")] == 1

    def test_three_thousand_nested_boxes(self):
        f = P
        for _ in range(3000):
            f = F.Box(f)
        fo, again = E.translate(f, "sdl"), E.translate(f, "sdl")
        assert fo is again
        assert fo != E.translate(F.Box(f), "sdl")
        text = repr(fo)
        assert text.startswith("FOForall(var='v0', sort='world', body=FOForall(var='v1', ")
        assert text.count("FOForall(") == 3001 and text.endswith(")" * 3006)


class TestGuardedFragment:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_propositional_sdl_lowers_into_guarded_fragment(self, seed):
        rng = random.Random(seed)
        f = gen_formula(rng, "sdl", 3, quantifiers=False)
        fo = E.translate(f, "sdl")
        assert E.in_guarded_fragment(fo)

    def test_each_world_quantifier_needs_a_guard_on_its_own_variable(self):
        w, v = E.FOVar("w"), E.FOVar("v")
        p = E.FOAtom("p", (v,))
        guarded = E.FOForall("v", E.WORLD, E.FOOr(E.FONot(E.FOAtom("R", (w, v))), p))
        assert E.in_guarded_fragment(guarded, outermost=False)
        assert E.in_guarded_fragment(E.FOForall("w", E.WORLD, guarded))
        assert E.in_guarded_fragment(E.FOExists("v", E.WORLD, E.FOAnd(E.FOAtom("Rb", (w, v)), p)))
        assert not E.in_guarded_fragment(E.FOForall("v", E.WORLD, p), outermost=False)
        assert not E.in_guarded_fragment(  # the guard is on another variable
            E.FOForall("u", E.WORLD, guarded.body), outermost=False)
        assert not E.in_guarded_fragment(  # an unguarded quantifier below the wrapper
            E.FOForall("w", E.WORLD, E.FOAnd(guarded, E.FONot(E.FOForall("v", E.WORLD, p)))))
        assert not E.in_guarded_fragment(E.translate(F.Dia(P), "e"))


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
            direct = oracles.valid_in_model(m, F.ground(f, m.domain), logic)
            assert direct == E.fo_eval(fo, m, logic)


def tree_size(f: F.Formula) -> int:
    subs = [getattr(f, a) for a in ("sub", "left", "right", "body", "cond") if hasattr(f, a)]
    return 1 + sum(tree_size(g) for g in subs)


class TestNormalizerScales:
    """The translation is one walk over the formula: time grows with the
    number of its occurrences, at any width and any depth."""

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_large_balanced_formula(self, logic):
        f = balanced(1446, logic)
        assert tree_size(f) == 1446
        t0 = time.perf_counter()
        text, fo = E.translation(f, logic)
        # the single-step normalizer took 29.6 s on a formula of this size
        assert time.perf_counter() - t0 < 5.0
        assert (text, fo) == reference(f, logic)
        rng = random.Random(3)
        for _ in range(3):
            m = gen_model(rng, logic, max_worlds=3)
            assert oracles.valid_in_model(m, f, logic) == E.fo_eval(fo, m, logic)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_time_grows_linearly(self, logic):
        def best_time(depth):
            f = chain(depth)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                E.translation(f, logic)
                times.append(time.perf_counter() - t0)
            return min(times)

        # four times the depth: about 4x the time when linear, 16x when
        # quadratic
        assert best_time(8000) / best_time(2000) < 8

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_deep_negation(self, logic):
        f = P
        for _ in range(300):
            f = F.Not(f)
        body = L.App(pc, L.Var("v0", L.I))
        for _ in range(300):
            body = L.neg(body)
        expected = L.App(L.Pi(L.I), L.Abs("v0", L.I, body))
        text, fo = E.translation(f, logic)
        assert text == L.show(expected)
        expected_fo = E.FOAtom("p", (E.FOVar("v0"),))
        for _ in range(300):
            expected_fo = E.FONot(expected_fo)
        assert fo == E.FOForall("v0", E.WORLD, expected_fo)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_deep_box(self, logic):
        f = P
        for _ in range(150):
            f = F.Box(f)
        text, fo = E.translation(f, logic)
        assert text.count("Π") == 151  # one quantifier per box, one for vld
        # in E every world binder but the innermost, eta-contracted one is
        # vacuous
        assert E.fo_show(fo).count("∀") == (151 if logic == "sdl" else 1)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_embedding_a_deep_chain_does_not_recurse(self, logic):
        f, expected = P, E.embed(P, logic)
        for i in range(10_000):
            f = F.Box(f) if i % 2 else F.ObligM(f)
            if logic == "sdl":
                expected = L.App(E.SDL_BOX, expected)
            elif i % 2:
                expected = L.App(E.E_BOX, expected)
            else:
                expected = L.app(E.E_OBLIG, expected, E.embed(F.TOP, "e"))
        t = E.embed(f, logic)
        assert t is expected and L.type_of(t) == L.TAU
