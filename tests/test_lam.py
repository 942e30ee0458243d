"""The typed lambda kernel: typing, substitution, normalization."""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from deon import embed as E
from deon import formula as F
from deon import lam as L

import oracles
from helpers import gen_formula, gen_typed_term

x_i = L.Var("x", L.I)
c_i = L.Const("c", L.I)


class TestTyping:
    def test_identity(self):
        assert L.type_of(L.Abs("x", L.I, x_i)) == L.Arrow(L.I, L.I)

    def test_application(self):
        f = L.Const("f", L.Arrow(L.I, L.O))
        assert L.type_of(L.App(f, c_i)) == L.O

    def test_ill_typed_application_reports_types(self):
        f = L.Const("f", L.Arrow(L.O, L.O))
        with pytest.raises(L.LamTypeError, match="expected o, got i"):
            L.type_of(L.App(f, c_i))

    def test_non_function_application(self):
        with pytest.raises(L.LamTypeError, match="non-function"):
            L.type_of(L.App(c_i, c_i))

    def test_binders_leave_the_environment_as_given(self):
        # a λ binds its variable in place; the shadowed entry comes back
        # after its body is typed, and after a type error too
        env = {"x": L.O}
        shadowing = L.Abs("x", L.I, L.Abs("y", L.O, x_i))
        assert L.type_of(shadowing, env) == L.fn(L.I, L.O, L.I)
        assert env == {"x": L.O}
        with pytest.raises(L.LamTypeError, match="variable x annotated o, bound at i"):
            L.type_of(L.Abs("x", L.I, L.Var("x", L.O)), env)
        assert env == {"x": L.O}
        assert L.type_of(L.Var("x", L.O), env) == L.O

    def test_a_clash_names_the_first_variable_in_pre_order(self):
        f = L.Const("f", L.fn(L.I, L.I, L.O))
        t = L.app(f, L.Var("x", L.I), L.Var("y", L.I))
        with pytest.raises(L.LamTypeError, match="variable x annotated i, bound at o"):
            L.type_of(t, {"x": L.O, "y": L.O})
        with pytest.raises(L.LamTypeError, match="variable y annotated i, bound at o"):
            L.type_of(L.Abs("x", L.I, t), {"x": L.O, "y": L.O})


class TestWellTypedByConstruction:
    """The node constructor is the only type check: an ill-typed node is
    never made, so every term has a type."""

    @pytest.mark.parametrize("fun, arg, message", [
        (L.Const("f", L.Arrow(L.O, L.O)), c_i, "argument type mismatch: expected o, got i"),
        (c_i, c_i, "applying non-function of type i"),
        (L.Const("g", L.fn(L.I, L.O, L.O)), L.Const("a", L.O),
         "argument type mismatch: expected i, got o"),
    ])
    def test_ill_typed_applications_raise_when_built(self, fun, arg, message):
        gc.collect()
        before = len(F._TABLE)
        with pytest.raises(L.LamTypeError, match=f"^{message}$"):
            L.App(fun, arg)
        assert len(F._TABLE) == before

    def test_a_binder_over_its_name_at_another_type_raises(self):
        a = L.Const("a", L.O)
        with pytest.raises(L.LamTypeError, match="^variable x annotated o, bound at i$"):
            L.Abs("x", L.I, L.land(a, L.neg(L.Var("x", L.O))))
        # an occurrence under an inner binder of its name belongs to that binder
        inner = L.Abs("x", L.O, L.Var("x", L.O))
        assert L.type_of(L.Abs("x", L.I, inner)) == L.fn(L.I, L.O, L.O)

    def test_a_deep_open_term_is_typed_under_an_environment(self):
        t = L.Var("x", L.O)
        for _ in range(10_000):
            t = L.neg(t)
        assert L.type_of(t, {"x": L.O}) == L.O
        with pytest.raises(L.LamTypeError, match="^variable x annotated o, bound at i$"):
            L.type_of(t, {"x": L.I})

    def test_a_deep_term_over_an_ill_typed_application_raises(self):
        with pytest.raises(L.LamTypeError, match="expected o, got i"):
            t = L.App(L.Const("f", L.Arrow(L.O, L.O)), c_i)
            for _ in range(10_000):
                t = L.neg(t)
        t = L.Const("a", L.O)
        for _ in range(10_000):
            t = L.neg(t)
        with pytest.raises(L.LamTypeError, match="expected i, got o"):
            L.App(L.Const("f", L.Arrow(L.I, L.O)), t)

    def test_the_first_node_built_that_fails_gives_the_error(self):
        # the inner App fails before the binder meets x at type o
        with pytest.raises(L.LamTypeError, match="^applying non-function of type i$"):
            L.Abs("x", L.I, L.App(L.Const("c", L.I), L.Var("x", L.O)))

    @pytest.mark.parametrize("left_first, message", [
        (True, "^variable x annotated o, bound at i$"),
        (False, "^variable x annotated i>o, bound at i$"),
    ])
    def test_a_binder_reports_its_leftmost_clash(self, left_first, message):
        at_o, at_tau = L.Var("x", L.O), L.App(L.Var("x", L.TAU), c_i)
        body = L.land(at_o, at_tau) if left_first else L.land(at_tau, at_o)
        with pytest.raises(L.LamTypeError, match=message):
            L.Abs("x", L.I, body)

    def test_a_binder_over_a_deep_body_is_built(self):
        t = L.Var("x", L.O)
        for _ in range(10_000):
            t = L.neg(t)
        u = L.Abs("x", L.O, t)
        assert L.type_of(u) == L.fn(L.O, L.O)
        u = u.scope
        for _ in range(10_000):
            assert u.fun is L.NOT
            u = u.arg
        assert u is L.BVar(0, L.O)
        with pytest.raises(L.LamTypeError, match="^variable x annotated o, bound at i$"):
            L.Abs("x", L.I, t)

    def test_closing_a_body_and_reading_it_back_gives_the_body(self):
        rng = random.Random(8)
        env = (("x", L.I), ("y", L.TAU))
        for _ in range(300):
            t = gen_typed_term(rng, rng.choice([L.O, L.I, L.TAU]), env, depth=rng.randint(1, 5))
            for var, ty in env:
                assert L.Abs(var, ty, t).body is t

    def test_non_terms_are_rejected(self):
        with pytest.raises(L.LamError, match="unknown term"):
            L.type_of(L.O)

    def test_names_as_read_off_the_named_term(self):
        rng = random.Random(21)
        env = (("x", L.I), ("y", L.TAU))
        terms = [gen_typed_term(rng, rng.choice([L.O, L.I, L.TAU, L.Arrow(L.TAU, L.O)]),
                                env, depth=rng.randint(2, 5)) for _ in range(500)]
        for logic in ("sdl", "e"):
            terms += [E.embed(gen_formula(rng, logic, 3, quantifiers=True), logic)
                      for _ in range(20)]
            terms += [E.embed(g, logic) for g in F.subformulas(
                gen_formula(rng, logic, 4, quantifiers=True))]
        assert any("x" in oracles.names(t) for t in terms)
        for t in terms:
            assert L.names(t) == oracles.names(t)


class TestNodes:
    def test_building_a_term_twice_gives_one_object(self):
        assert L.Abs("x", L.I, x_i) is L.Abs("x", L.I, x_i)
        assert L.Abs("x", L.I, x_i) != L.Abs("y", L.I, L.Var("y", L.I))
        assert L.Abs("x", L.I, x_i).body is x_i

    def test_walks_of_a_deep_term_do_not_recurse(self):
        def chain():
            t = L.Const("a", L.O)
            for _ in range(10_000):
                t = L.neg(t)
            return t

        t = chain()
        assert L.type_of(t) == L.O
        assert t == chain() and hash(t) == hash(chain())
        assert L.names(t) == {"a", "not"}

    def test_abs_repr_writes_the_named_body(self):
        def named(t):  # each binder's body read back by .body, as repr wrote it
            if type(t) is L.Abs:
                return f"Abs(var={t.var!r}, var_ty={t.var_ty!r}, body={named(t.body)})"
            if type(t) is L.App:
                return f"App(fun={named(t.fun)}, arg={named(t.arg)})"
            return repr(t)

        rng = random.Random(5)
        for _ in range(300):
            t = gen_typed_term(rng, rng.choice([L.O, L.TAU, L.fn(L.I, L.I, L.O)]), depth=6)
            for u in F.subformulas(t):
                if type(u) is L.Abs:
                    assert repr(u) == named(u)
                    assert repr(u.scope) == named(u.scope)  # its own index is loose there

    def test_abs_repr_of_deep_binders_does_not_recurse(self):
        # binder x<i> is named inside x<i-1>; the outermost names a free x<n+1>
        p = L.Const("p", L.fn(L.I, L.O))
        for n in (300, 10_000):
            t = p
            for i in range(1, n + 1):
                t = L.Abs(f"x{i}", L.I, L.App(t, L.Var(f"x{i + 1}", L.I)))
            head = "".join(f"Abs(var='x{i}', var_ty={L.I!r}, body=App(fun="
                           for i in range(n, 0, -1))
            tail = "".join(f", arg=Var(name='x{i + 1}', ty={L.I!r})))" for i in range(1, n + 1))
            assert repr(t) == head + repr(p) + tail


class TestSubstitute:
    def test_variable_hit(self):
        assert oracles.substitute(x_i, x_i, c_i) == c_i

    def test_variable_miss(self):
        y = L.Var("y", L.I)
        assert oracles.substitute(y, x_i, c_i) == y

    def test_capture_avoided(self):
        # [y/x](lam y. x) renames the binder
        y = L.Var("y", L.I)
        t = L.Abs("y", L.I, x_i)
        got = oracles.substitute(t, x_i, y)
        assert got == L.Abs("y'", L.I, y)
        assert "y" in oracles.free_vars(got)

    def test_renamed_binder_not_captured_by_inner_binder(self):
        # [y/x](lam y. lam y'. r x y): the outer binder becomes y', which
        # an inner binder already uses; renaming must not capture there
        y = L.Var("y", L.I)
        r = L.Const("r", L.fn(L.I, L.I, L.O))
        t = L.Abs("y", L.I, L.Abs("y'", L.I, L.app(r, x_i, y)))
        expected = L.Abs("a", L.I, L.Abs("b", L.I, L.app(r, y, L.Var("a", L.I))))
        assert oracles.alpha_eq(oracles.substitute(t, x_i, y), expected)

    def test_no_substitution_under_shadowing_binder(self):
        t = L.Abs("x", L.I, x_i)
        assert oracles.substitute(t, x_i, c_i) == t

    def test_type_mismatch(self):
        with pytest.raises(L.LamTypeError):
            oracles.substitute(x_i, x_i, L.Const("b", L.O))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_free_variables_of_replacement_stay_free(self, seed):
        rng = random.Random(seed)
        t = gen_typed_term(rng, L.O, ((("x"), L.I),), depth=3)
        s = L.Var("free_marker", L.I)
        got = oracles.substitute(t, x_i, s)
        if "x" in oracles.free_vars(t):
            assert "free_marker" in oracles.free_vars(got)


class TestNormalize:
    def test_beta(self):
        assert L.normalize(L.App(L.Abs("x", L.I, x_i), c_i)) == c_i

    def test_eta(self):
        f = L.Const("f", L.Arrow(L.I, L.O))
        assert L.normalize(L.Abs("x", L.I, L.App(f, x_i))) == f

    def test_eta_blocked_when_var_used_twice(self):
        r = L.Const("r", L.fn(L.I, L.I, L.O))
        t = L.Abs("x", L.I, L.app(r, x_i, x_i))
        nf = L.normalize(t)
        assert isinstance(nf, L.Abs)

    def test_canonical_binder_names(self):
        t = L.Abs("weird", L.I, L.Abs("names", L.O, L.Var("weird", L.I)))
        assert L.normalize(t) == L.Abs("v0", L.I, L.Abs("v1", L.O, L.Var("v0", L.I)))

    def test_alpha_eq(self):
        a = L.Abs("x", L.I, x_i)
        b = L.Abs("y", L.I, L.Var("y", L.I))
        assert oracles.alpha_eq(a, b)
        k1 = L.Abs("x", L.I, L.Abs("y", L.I, x_i))
        k2 = L.Abs("x", L.I, L.Abs("y", L.I, L.Var("y", L.I)))
        assert not oracles.alpha_eq(k1, k2)

    def test_steps_recorded(self):
        t = L.App(L.Abs("x", L.I, x_i), c_i)
        steps = L.normalize_steps(t)
        assert len(steps) == 2
        assert oracles.alpha_eq(steps[0], t) and steps[-1] == c_i


SEEDS = st.integers(0, 10**9)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(SEEDS, st.sampled_from([L.O, L.I, L.TAU, L.Arrow(L.TAU, L.O)]))
    def test_subject_reduction(self, seed, ty):
        rng = random.Random(seed)
        t = gen_typed_term(rng, ty, depth=4)
        assert L.type_of(L.normalize(t)) == L.type_of(t)

    @settings(max_examples=300, deadline=None)
    @given(SEEDS, st.sampled_from([L.O, L.TAU]))
    def test_confluence_across_strategies(self, seed, ty):
        rng = random.Random(seed)
        t = gen_typed_term(rng, ty, depth=4)
        nf = L.normalize(t)
        assert oracles.alpha_eq(nf, L.normalize_steps(t, "lo")[-1])
        assert oracles.alpha_eq(nf, L.normalize_steps(t, "ri")[-1])

    @settings(max_examples=300, deadline=None)
    @given(SEEDS, st.sampled_from([L.O, L.I, L.TAU, L.Arrow(L.TAU, L.O)]),
           st.sampled_from(["lo", "ri"]), st.integers(3, 5))
    def test_same_names_as_the_stepper(self, seed, ty, strategy, depth):
        # both name binders away from the input's free variable and
        # constant names
        rng = random.Random(seed)
        t = gen_typed_term(rng, ty, depth=depth)
        assert L.normalize(t) == L.normalize_steps(t, strategy)[-1]

    def test_same_steps_as_the_plain_stepper(self):
        # skipping redex-free subterms and memoizing the naming change no
        # step: random terms, and embedded formulas for the eta phase
        rng = random.Random(13)
        terms = [gen_typed_term(rng, rng.choice([L.O, L.I, L.TAU, L.Arrow(L.TAU, L.O)]),
                                depth=rng.randint(2, 5)) for _ in range(500)]
        for logic in ("sdl", "e"):
            terms += [E.embed(gen_formula(rng, logic, 3, quantifiers=True), logic)
                      for _ in range(20)]
        for t in terms:
            for strategy in ("lo", "ri"):
                assert L.normalize_steps(t, strategy) == oracles.normalize_steps(t, strategy)

    @settings(max_examples=200, deadline=None)
    @given(SEEDS, st.sampled_from([L.O, L.I, L.TAU]))
    def test_normalize_idempotent(self, seed, ty):
        rng = random.Random(seed)
        t = gen_typed_term(rng, ty, depth=4)
        nf = L.normalize(t)
        assert oracles.alpha_eq(L.normalize(nf), nf)


class TestShow:
    def test_connectives(self):
        t = L.lor(L.neg(L.Const("a", L.O)), L.Const("b", L.O))
        assert L.show(t) == "¬a ∨ b"

    def test_types_annotated(self):
        t = L.Abs("x", L.I, x_i)
        assert L.show(t, types=True) == "λx:i. x"

    def test_a_shared_node_is_printed_under_each_binder(self):
        # the scopes are one node, P #0, under binders named x and y
        pred = L.Const("P", L.TAU)
        t = L.land(L.forall("x", L.I, L.App(pred, x_i)),
                   L.forall("y", L.I, L.App(pred, L.Var("y", L.I))))
        assert t.fun.arg.arg.scope is t.arg.arg.scope
        assert L.show(t) == "Π(λx. P x) ∧ Π(λy. P y)"
        assert L.show(L.Abs("x", L.I, L.App(pred, x_i)).scope) == "P #0"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_same_text_as_the_recursive_printer(self, seed):
        rng = random.Random(seed)
        t = gen_typed_term(rng, rng.choice([L.O, L.TAU, L.fn(L.I, L.I, L.O)]))
        for types in (False, True):
            assert L.show(t, types) == oracles.show(t, types)

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_the_steps_of_a_reduction_share_one_memo(self, logic):
        rng = random.Random(9)
        for i in range(20):
            f = gen_formula(rng, logic, 3, quantifiers=bool(i % 2))
            memo: dict = {}
            for s in L.normalize_steps(E.vld(E.embed(f, logic))):
                assert L.show(s, memo=memo) == oracles.show(s)
        # the long texts of the nodes near each step's root are not kept
        f = F.Atom("p")
        for _ in range(60):
            f = F.Box(f)
        memo = {}
        for s in L.normalize_steps(E.vld(E.embed(f, logic))):
            assert L.show(s, memo=memo) == oracles.show(s)
        assert max(map(len, memo.values())) <= L._KEPT_TEXT < len(oracles.show(s))

    def test_deep_terms_print(self):
        t = L.Const("p", L.O)
        for _ in range(10_000):
            t = L.neg(t)
        assert L.show(t) == "¬" * 10_000 + "p"
