"""The typed lambda kernel: typing, substitution, normalization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from deon import lam as L

from helpers import gen_typed_term

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


class TestSubstitute:
    def test_variable_hit(self):
        assert L.substitute(x_i, x_i, c_i) == c_i

    def test_variable_miss(self):
        y = L.Var("y", L.I)
        assert L.substitute(y, x_i, c_i) == y

    def test_capture_avoided(self):
        # [y/x](lam y. x) renames the binder
        y = L.Var("y", L.I)
        t = L.Abs("y", L.I, x_i)
        got = L.substitute(t, x_i, y)
        assert got == L.Abs("y'", L.I, y)
        assert "y" in L.free_vars(got)

    def test_renamed_binder_not_captured_by_inner_binder(self):
        # [y/x](lam y. lam y'. r x y): the outer binder becomes y', which
        # an inner binder already uses; renaming must not capture there
        y = L.Var("y", L.I)
        r = L.Const("r", L.fn(L.I, L.I, L.O))
        t = L.Abs("y", L.I, L.Abs("y'", L.I, L.app(r, x_i, y)))
        expected = L.Abs("a", L.I, L.Abs("b", L.I, L.app(r, y, L.Var("a", L.I))))
        assert L.alpha_eq(L.substitute(t, x_i, y), expected)

    def test_no_substitution_under_shadowing_binder(self):
        t = L.Abs("x", L.I, x_i)
        assert L.substitute(t, x_i, c_i) == t

    def test_type_mismatch(self):
        with pytest.raises(L.LamTypeError):
            L.substitute(x_i, x_i, L.Const("b", L.O))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_free_variables_of_replacement_stay_free(self, seed):
        rng = random.Random(seed)
        t = gen_typed_term(rng, L.O, ((("x"), L.I),), depth=3)
        s = L.Var("free_marker", L.I)
        got = L.substitute(t, x_i, s)
        if "x" in L.free_vars(t):
            assert "free_marker" in L.free_vars(got)


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
        assert L.alpha_eq(a, b)
        k1 = L.Abs("x", L.I, L.Abs("y", L.I, x_i))
        k2 = L.Abs("x", L.I, L.Abs("y", L.I, L.Var("y", L.I)))
        assert not L.alpha_eq(k1, k2)

    def test_steps_recorded(self):
        t = L.App(L.Abs("x", L.I, x_i), c_i)
        steps = L.normalize_steps(t)
        assert len(steps) == 2
        assert L.alpha_eq(steps[0], t) and steps[-1] == c_i


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
        assert L.alpha_eq(nf, L.normalize_steps(t, "lo")[-1])
        assert L.alpha_eq(nf, L.normalize_steps(t, "ri")[-1])

    @settings(max_examples=300, deadline=None)
    @given(SEEDS, st.sampled_from([L.O, L.I, L.TAU, L.Arrow(L.TAU, L.O)]),
           st.sampled_from(["lo", "ri"]), st.integers(3, 5))
    def test_same_names_as_the_stepper(self, seed, ty, strategy, depth):
        # both name binders away from the input's free variable and
        # constant names
        rng = random.Random(seed)
        t = gen_typed_term(rng, ty, depth=depth)
        assert L.normalize(t) == L.normalize_steps(t, strategy)[-1]

    @settings(max_examples=200, deadline=None)
    @given(SEEDS, st.sampled_from([L.O, L.I, L.TAU]))
    def test_normalize_idempotent(self, seed, ty):
        rng = random.Random(seed)
        t = gen_typed_term(rng, ty, depth=4)
        nf = L.normalize(t)
        assert L.alpha_eq(L.normalize(nf), nf)


class TestShow:
    def test_connectives(self):
        t = L.lor(L.neg(L.Const("a", L.O)), L.Const("b", L.O))
        assert L.show(t) == "¬a ∨ b"

    def test_types_annotated(self):
        t = L.Abs("x", L.I, x_i)
        assert L.show(t, types=True) == "λx:i. x"
