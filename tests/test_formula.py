"""Object-language syntax: parser, printer, grounding, structure."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from deon import formula as F
from deon import semantics as S

from helpers import SIG, gen_formula

sig = F.Signature(
    {"p": 0, "q": 0, "r": 0, "erase": 1, "lawful": 1, "protected": 1, "P": 1},
    frozenset({"d1", "a", "b"}),
)


def parse_e(text):
    return F.parse(text, sig, logic="e")


def parse_sdl(text):
    return F.parse(text, sig, logic="sdl")


class TestSignature:
    def test_rejects_bad_names(self):
        with pytest.raises(F.FormulaError):
            F.Signature({"9bad": 0})
        with pytest.raises(F.FormulaError):
            F.Signature({}, frozenset({"forall"}))

    def test_rejects_overlap(self):
        with pytest.raises(F.FormulaError):
            F.Signature({"p": 0}, frozenset({"p"}))

    def test_rejects_negative_arity(self):
        with pytest.raises(F.FormulaError):
            F.Signature({"p": -1})


class TestParse:
    def test_dyadic_obligation(self):
        f = parse_e("O{erase(d1) | ~lawful(d1)}")
        assert f == F.Oblig(F.Atom("erase", (F.Const("d1"),)),
                            F.Not(F.Atom("lawful", (F.Const("d1"),))))

    def test_box_conjunction(self):
        assert parse_e("box (p & q)") == F.Box(F.And(F.Atom("p"), F.Atom("q")))

    def test_quantified_norm(self):
        f = parse_e("forall d. O{lawful(d) | protected(d)}")
        assert f == F.Forall("d", F.Oblig(F.Atom("lawful", (F.Var("d"),)),
                                          F.Atom("protected", (F.Var("d"),))))

    def test_monadic_obligation_elaborates_in_e(self):
        assert parse_e("O p") == F.Oblig(F.Atom("p"), F.TOP)

    def test_monadic_obligation_primitive_in_sdl(self):
        assert parse_sdl("O p") == F.ObligM(F.Atom("p"))

    def test_dyadic_rejected_in_sdl(self):
        with pytest.raises(F.ParseError):
            parse_sdl("O{p | q}")

    def test_precedence(self):
        assert parse_e("~p & q | r -> p <-> q") == F.Iff(
            F.Implies(F.Or(F.And(F.Not(F.Atom("p")), F.Atom("q")), F.Atom("r")),
                      F.Atom("p")),
            F.Atom("q"))

    def test_implies_right_associative(self):
        assert parse_e("p -> q -> r") == F.Implies(
            F.Atom("p"), F.Implies(F.Atom("q"), F.Atom("r")))

    def test_unary_binds_like_negation(self):
        assert parse_e("box p & q") == F.And(F.Box(F.Atom("p")), F.Atom("q"))

    def test_error_positions(self):
        with pytest.raises(F.ParseError) as err:
            parse_e("p &\n& q")
        assert err.value.line == 2 and err.value.col == 1

    def test_unknown_predicate(self):
        with pytest.raises(F.ParseError, match="unknown predicate"):
            parse_e("mystery")

    def test_unknown_constant(self):
        with pytest.raises(F.ParseError, match="unknown constant"):
            parse_e("erase(nobody)")

    def test_arity_mismatch(self):
        with pytest.raises(F.ParseError, match="argument"):
            parse_e("erase(d1, a)")
        with pytest.raises(F.ParseError, match="argument"):
            parse_e("erase")

    def test_true_false_are_derived_forms(self):
        assert parse_e("true") == F.TOP
        assert parse_e("false") == F.BOT

    def test_reserved_atom_not_declarable(self):
        with pytest.raises(F.FormulaError):
            F.Signature({"__t": 0})

    def test_declared_P_is_a_predicate_not_an_operator(self):
        assert parse_e("P(d1)") == F.Atom("P", (F.Const("d1"),))

    def test_undeclared_P_is_permission(self):
        plain = F.Signature({"p": 0})
        assert F.parse("P p", plain, "e") == F.Perm(F.Atom("p"))

    def test_variable_used_as_formula(self):
        with pytest.raises(F.ParseError, match="used as a formula"):
            parse_e("forall d. d")

    def test_dyadic_splits_at_first_toplevel_pipe(self):
        f = parse_e("O{p | q | r}")
        assert f == F.Oblig(F.Atom("p"), F.Or(F.Atom("q"), F.Atom("r")))


class TestPrint:
    def test_monadic_sugar(self):
        assert F.print_formula(F.Oblig(F.Atom("p"), F.TOP)) == "O p"

    def test_negated_box(self):
        assert F.print_formula(F.Not(F.Box(F.Atom("p")))) == "~box p"

    def test_implies_prints_right_associatively(self):
        f = F.Implies(F.Atom("p"), F.Implies(F.Atom("q"), F.Atom("r")))
        assert F.print_formula(f) == "p -> q -> r"
        g = F.Implies(F.Implies(F.Atom("p"), F.Atom("q")), F.Atom("r"))
        assert F.print_formula(g) == "(p -> q) -> r"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(["sdl", "e"]),
           st.booleans())
    def test_parse_print_roundtrip(self, seed, logic, quantifiers):
        rng = random.Random(seed)
        f = gen_formula(rng, logic, depth=4, quantifiers=quantifiers)
        printed = F.print_formula(f)
        assert F.parse(printed, SIG, logic=logic) == f


class TestStructure:
    def test_subformulas_atom(self):
        assert F.subformulas(F.Atom("p")) == (F.Atom("p"),)

    def test_subformulas_oblig(self):
        f = F.Oblig(F.Atom("p"), F.Atom("q"))
        assert set(F.subformulas(f)) == {f, F.Atom("p"), F.Atom("q")}

    def test_subformulas_box(self):
        f = F.Box(F.And(F.Atom("p"), F.Atom("q")))
        assert set(F.subformulas(f)) == {
            f, F.And(F.Atom("p"), F.Atom("q")), F.Atom("p"), F.Atom("q")}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_subformula_count_bounded_by_size(self, seed):
        rng = random.Random(seed)
        f = gen_formula(rng, "e", depth=4, quantifiers=True)
        assert len(F.subformulas(f)) <= F.size(f)

    def test_free_vars(self):
        f = F.Forall("d", F.Atom("lawful", (F.Var("d"),)))
        assert F.free_vars(f) == frozenset()
        assert F.free_vars(f.body) == frozenset({"d"})


class TestInterning:
    def test_equal_nodes_are_one_object(self):
        assert F.And(F.Atom("p"), F.Atom("q")) is F.And(F.Atom("p"), F.Atom("q"))
        assert F.TOP is F.Or(F.Atom("__t"), F.Not(F.Atom("__t")))

    def test_walks_of_a_deep_chain_do_not_recurse(self):
        depth = 10_000

        def chain(base, box=F.Box):
            f = base
            for i in range(depth):
                f = F.Not(f) if i % 2 else box(f)
            return f

        base = F.Atom("lawful", (F.Var("d"),))
        f = chain(base)
        assert len(F.subformulas(f)) == F.size(f) == depth + 1
        assert F.free_vars(f) == frozenset({"d"})
        assert F.desugar(f, "sdl") is chain(base, F.ObligM)
        assert F.desugar(f, "e") is f
        assert F.subst_var(f, "d", F.Const("a")) is chain(F.Atom("lawful", (F.Const("a"),)))
        assert F.instantiate(chain(F.Atom("p")), {"p": F.Atom("q")}) is chain(F.Atom("q"))
        grounded = F.ground(F.Forall("d", f), ["a", "b"])
        assert grounded is F.And(F.subst_var(f, "d", F.Const("a")),
                                 F.subst_var(f, "d", F.Const("b")))
        assert hash(f) == hash(chain(base)) and f == chain(base)


class TestTokenize:
    @staticmethod
    def stream(text):
        return [(t.kind, t.text, t.line, t.col) for t in F._tokenize(text)]

    def test_tokens_lines_and_columns(self):
        # a comment does not advance the column: the EOF after a trailing
        # comment keeps the column of its "#"
        assert self.stream("p\t& q\r\n  # note\n~r -> (s<->t) # tail") == [
            ("IDENT", "p", 1, 1), ("PUNCT", "&", 1, 3), ("IDENT", "q", 1, 5),
            ("PUNCT", "~", 3, 1), ("IDENT", "r", 3, 2), ("PUNCT", "->", 3, 4),
            ("PUNCT", "(", 3, 7), ("IDENT", "s", 3, 8), ("PUNCT", "<->", 3, 9),
            ("IDENT", "t", 3, 12), ("PUNCT", ")", 3, 13), ("EOF", "", 3, 15)]
        assert self.stream("O{a|b}, forall x. c_1") == [
            ("IDENT", "O", 1, 1), ("PUNCT", "{", 1, 2), ("IDENT", "a", 1, 3),
            ("PUNCT", "|", 1, 4), ("IDENT", "b", 1, 5), ("PUNCT", "}", 1, 6),
            ("PUNCT", ",", 1, 7), ("IDENT", "forall", 1, 9), ("IDENT", "x", 1, 16),
            ("PUNCT", ".", 1, 17), ("IDENT", "c_1", 1, 19), ("EOF", "", 1, 22)]

    @pytest.mark.parametrize("text, char, line, col", [
        ("p - q", "-", 1, 3),
        ("p <- q", "<", 1, 3),
        ("a\n\t$b", "$", 2, 2),
        ("# c\n\r@", "@", 2, 2),
    ])
    def test_unexpected_character_position(self, text, char, line, col):
        with pytest.raises(F.ParseError) as got:
            F._tokenize(text)
        assert got.value.message == f"unexpected character {char!r}"
        assert (got.value.line, got.value.col) == (line, col)


class TestGround:
    def test_forall_expands_to_conjunction(self):
        f = F.Forall("d", F.Atom("P", (F.Var("d"),)))
        assert F.ground(f, {"a", "b"}) == F.And(
            F.Atom("P", (F.Const("a"),)), F.Atom("P", (F.Const("b"),)))

    def test_exists_singleton(self):
        f = F.Exists("d", F.Atom("P", (F.Var("d"),)))
        assert F.ground(f, {"a"}) == F.Atom("P", (F.Const("a"),))

    def test_gdpr_ctd_rule_grounds(self):
        f = parse_e("forall d. O{erase(d) | protected(d) & ~lawful(d)}")
        got = F.ground(f, {"d1"})
        d1 = F.Const("d1")
        assert got == F.Oblig(
            F.Atom("erase", (d1,)),
            F.And(F.Atom("protected", (d1,)), F.Not(F.Atom("lawful", (d1,)))))

    def test_empty_domain_rejected(self):
        with pytest.raises(F.FormulaError):
            F.ground(F.Forall("d", F.Atom("P", (F.Var("d"),))), set())

    def test_commutes_with_connectives(self):
        a = F.Forall("d", F.Atom("P", (F.Var("d"),)))
        b = F.Exists("d", F.Atom("lawful", (F.Var("d"),)))
        dom = {"a", "d1"}
        assert F.ground(F.And(a, b), dom) == F.And(F.ground(a, dom), F.ground(b, dom))

    def test_shadowing(self):
        f = F.Forall("d", F.And(F.Atom("P", (F.Var("d"),)),
                                F.Exists("d", F.Atom("lawful", (F.Var("d"),)))))
        got = F.ground(f, {"a"})
        assert got == F.And(F.Atom("P", (F.Const("a"),)),
                            F.Atom("lawful", (F.Const("a"),)))


class TestBarcanDirection:
    def test_box_forall_equivalent_to_forall_box_under_constant_domain(self):
        # grounding turns both into finite combinations that agree in
        # every small Kripke model
        dom = ["a", "b"]
        f1 = F.ground(F.Box(F.Forall("d", F.Atom("P", (F.Var("d"),)))), dom)
        f2 = F.ground(F.Forall("d", F.Box(F.Atom("P", (F.Var("d"),)))), dom)
        atoms = [("P", ("a",)), ("P", ("b",))]
        for n in (1, 2, 3):
            for model in S.iter_serial_kripke_models(n, atoms, domain=dom):
                ev = S.Evaluator(model, "sdl")
                assert ev.mask(f1) == ev.mask(f2)
