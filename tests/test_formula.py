"""Object-language syntax: parser, printer, grounding, structure."""

from __future__ import annotations

import ast
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deon import cli
from deon import embed as E
from deon import formula as F
from deon import kb as K
from deon import lam as L
from deon import search as SE
from deon import semantics as S

import oracles
from helpers import P, Q, SIG, gen_formula

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

    def test_is_ground(self):
        # no quantifier and no variable argument: a closed formula with a
        # quantifier is not ground, nor is an open one without
        rng = random.Random(4)
        fs = [g for _ in range(300)
              for g in F.subformulas(gen_formula(rng, "e", depth=4, quantifiers=True))]
        assert {F.is_ground(g) for g in fs} == {True, False}
        for g in fs:
            quantified = any(isinstance(h, (F.Forall, F.Exists)) for h in F.subformulas(g))
            assert F.is_ground(g) == (not F.free_vars(g) and not quantified), g
        deep = F.Atom("p")
        for _ in range(10_000):
            deep = F.Not(deep)
        assert F.is_ground(deep)
        assert not F.is_ground(F.And(deep, F.Atom("P1", (F.Var("x"),))))

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
        assert oracles.instantiate(chain(F.Atom("p")), {"p": F.Atom("q")}) is chain(F.Atom("q"))
        grounded = F.ground(F.Forall("d", f), ["a", "b"])
        assert grounded is F.And(F.subst_var(f, "d", F.Const("a")),
                                 F.subst_var(f, "d", F.Const("b")))
        assert hash(f) == hash(chain(base)) and f == chain(base)

    def test_repr_of_deep_nodes_does_not_recurse(self):
        depth = 10_000
        f, t, fo = F.Atom("p"), L.Const("p", L.O), E.FOAtom("p", ())
        for i in range(depth):
            f = F.Box(f) if i % 2 else F.Not(f)
            t = L.neg(t)
            fo = E.FONot(fo)
        assert repr(f) == ("Box(sub=Not(sub=" * (depth // 2) + "Atom(pred='p', args=())"
                           + ")" * depth)
        assert repr(t) == ("App(fun=Const(name='not', ty=Arrow(src=Base(name='o'), "
                           "dst=Base(name='o'))), arg=" * depth
                           + "Const(name='p', ty=Base(name='o'))" + ")" * depth)
        assert repr(fo) == "FONot(sub=" * depth + "FOAtom(pred='p', args=())" + ")" * depth

    def test_children_are_the_node_valued_trailing_fields(self):
        """Every node class declares its `_lead` so that the shared walks
        see exactly its fields of its own family, which come last."""
        p, x, w = F.Atom("p"), F.Var("x"), L.Var("w", L.I)
        a = E.FOAtom("R", (E.FOVar("w"), E.FOConst("aw")))
        samples = [
            F.Const("c"), x, F.Atom("P", (x, F.Const("c"))), F.Forall("x", p),
            F.Exists("x", p), F.Oblig(p, p),
            *(cls(p) for cls in (F.Not, F.Box, F.Dia, F.ObligM, F.Perm, F.Forb)),
            *(cls(p, p) for cls in (F.And, F.Or, F.Implies, F.Iff)),
            L.I, L.TAU, L.NOT, w, L.BVar(0, L.I), L.App(L.NOT, L.Const("a", L.O)),
            L.Abs("w", L.I, w),
            a, E.FONot(a), *(cls(a, a) for cls in (E.FOAnd, E.FOOr, E.FOImp, E.FOIff)),
            E.FOForall("w", E.WORLD, a), E.FOExists("w", E.WORLD, a),
        ]
        classes, stack = set(), [F._Node]
        while stack:
            cls = stack.pop()
            stack += cls.__subclasses__()
            if cls._fields and not cls.__subclasses__() and cls.__module__ in (
                    "deon.formula", "deon.lam", "deon.embed"):
                classes.add(cls)
        assert {type(g) for g in samples} == classes
        for g in samples:
            mro = type(g).__mro__
            family = mro[mro.index(F._Node) - 1]
            values = tuple(getattr(g, name) for name in g._fields)
            kids = F.children(g)
            assert kids == tuple(v for v in values if isinstance(v, family)), g
            assert kids == values[len(values) - len(kids):], g

    def test_dead_nodes_leave_the_table(self):
        before = len(F._TABLE)
        fs = [F.And(F.Atom(f"fresh{i}"), F.Atom("q")) for i in range(5_000)]
        ts = [L.App(L.Const(f"fresh{i}", L.TAU), L.Var("w", L.I)) for i in range(5_000)]
        assert len(F._TABLE) >= before + 20_000
        del fs, ts
        assert len(F._TABLE) == before

    def test_a_node_rebuilt_after_its_copy_died_is_found_again(self):
        key = (F.Not, F.Atom("reborn"))
        first = F.Not(F.Atom("reborn"))
        stale = F._TABLE[key]
        del first
        assert key not in F._TABLE and stale() is None
        f = F.Not(F.Atom("reborn"))
        F._drop(stale)  # the dead copy's callback, late: the entry stays
        assert F._TABLE[key]() is f and F.Not(F.Atom("reborn")) is f

    @pytest.mark.parametrize("build", [
        lambda: F.Not(F.Atom("p"), F.Atom("q")),
        lambda: L.App(L.Const("a", L.O)),
        lambda: L.Const("a", L.O, L.I),
    ])
    def test_wrong_number_of_fields(self, build):
        with pytest.raises(TypeError, match="field"):
            build()


class TestDesugar:
    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_one_form_per_node(self, logic):
        rng = random.Random(21)
        derived = F.LOGICS[logic].rules
        for _ in range(500):
            f = gen_formula(rng, logic, rng.randint(0, 5), quantifiers=rng.random() < 0.3)
            g = F.desugar(f, logic)
            assert F.desugar(f, logic) is g
            assert F.desugar(g, logic) is g  # a primitive node is its own form
            assert not any(type(h) in derived for h in F.subformulas(g))

    def test_sdl_dyadic_obligation_raises_on_every_call(self):
        f = F.And(F.Box(P), F.Oblig(F.Dia(P), Q))
        for _ in range(3):
            with pytest.raises(F.FormulaError, match="dyadic obligation"):
                F.desugar(f, "sdl")
        assert F.desugar(F.Box(P), "sdl") is F.ObligM(P)
        assert F.desugar(f, "e") is F.And(F.Box(P), F.Oblig(F.Not(F.Box(F.Not(P))), Q))


_BOX_P = F.Box(P)
_ONE_WORLD = S.PreferenceModel(1, [(0, 0)], {"p": [0]})
_TAKES_A_LOGIC = {
    "parse": (F.FormulaError, lambda lg: F.parse("p", sig, logic=lg)),
    "desugar": (F.FormulaError, lambda lg: F.desugar(_BOX_P, lg)),
    "CompiledBank": (S.SemanticsError, lambda lg: S.CompiledBank([P], lg)),
    "Evaluator": (S.SemanticsError, lambda lg: S.Evaluator(_ONE_WORLD, lg)),
    "eval_formula": (S.SemanticsError, lambda lg: S.eval_formula(_ONE_WORLD, 0, P, lg)),
    "SearchConfig": (SE.SearchError, lambda lg: SE.SearchConfig(logic=lg)),
    "ground_kb": (K.KBError,
                  lambda lg: K.ground_kb(K.load_kb("[signature]\npred p/0\n[facts]\np\n"), lg)),
    "embed": (E.EmbedError, lambda lg: E.embed(_BOX_P, lg)),
    "occurrences": (E.EmbedError, lambda lg: E.occurrences(_BOX_P, lg)),
    "translation": (E.EmbedError, lambda lg: E.translation(_BOX_P, lg)),
    "translate": (E.EmbedError, lambda lg: E.translate(_BOX_P, lg)),
    "print_program": (E.EmbedError, lambda lg: E.print_program(
        E.occurrences(_BOX_P, "e")[1], "goal", "conjecture", lg)),
    "emit_tptp": (E.EmbedError, lambda lg: E.emit_tptp(
        E.translate(_BOX_P, "e"), "goal", "conjecture", lg)),
    "fo_eval": (E.EmbedError, lambda lg: E.fo_eval(E.translate(_BOX_P, "e"), _ONE_WORLD, lg)),
}


class TestUnknownLogic:
    """Every public function whose result depends on its logic reads
    only "sdl" and "e", and rejects any other name with one message in
    its module's error class."""

    @pytest.mark.parametrize("logic", ["bogus", "SDL", "E", ""])
    @pytest.mark.parametrize("name", sorted(_TAKES_A_LOGIC))
    def test_is_an_error(self, name, logic):
        error, call = _TAKES_A_LOGIC[name]
        with pytest.raises(error, match=f"^unknown logic {re.escape(repr(logic))}$"):
            call(logic)


SRC = Path(__file__).resolve().parent.parent / "src" / "deon"


def logic_name_tests(path: Path) -> list[str]:
    """"file:line" of each ==, !=, in or not in in the file that has the
    string "sdl" or "e" as an operand, or inside a literal tuple, list or
    set operand."""
    def names(x: ast.expr) -> bool:
        return (isinstance(x, ast.Constant) and x.value in ("sdl", "e")
                or isinstance(x, (ast.Tuple, ast.List, ast.Set)) and any(map(names, x.elts)))

    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) and (names(a) or names(b))
                   for op, a, b in zip(node.ops, operands, operands[1:])):
                found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


class TestLogicRecords:
    """What sets a logic apart is its record in F.LOGICS: no module
    compares a logic's name, and the CLI offers the table's logics."""

    def test_no_module_compares_a_logic_name(self):
        assert [hit for path in sorted(SRC.glob("*.py")) for hit in logic_name_tests(path)] == []

    def test_the_scan_finds_each_comparison(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text('a == "sdl"\nif "e" != b.logic: pass\nc in ("sdl", "e")\n'
                       'd not in ["x", "e"]\n0 < x == "e"\n'
                       'e == "sd"\nf in {"e": 1}\ng = "sdl"\nh("e")\n', encoding="utf-8")
        assert logic_name_tests(src) == ["m.py:1", "m.py:2", "m.py:3", "m.py:4", "m.py:5"]

    def test_the_logic_choices_are_the_table(self):
        params, stack = [], [cli.MAIN]
        while stack:
            cmd = stack.pop()
            params += [p for p in cmd.params if p.dest == "logic"]
            stack += (cmd.commands or {}).values()
        assert len(params) >= 2 and all(p.kind == tuple(F.LOGICS) for p in params)

    def test_each_derived_operator_is_defined_once(self):
        # by its rule; only dia keeps an embedding of its own too, picked
        # by seriality, and the modal embeddings are keyed by op tag
        assert not set(E._OPS) & set(F.LOGICS)
        assert set(E._OPS) == {tag for lg in F.LOGICS.values() for tag in lg.modal.values()}
        assert set(E._DIA) == {lg.serial for lg in F.LOGICS.values()}
        for lg in F.LOGICS.values():
            assert not (set(E._PW) | set(lg.modal)) & set(lg.rules)

    def test_each_rule_holds_its_child_once_and_no_derived_node(self):
        # embed._occurrences binds CHILD through a stack of pending operands:
        # a rule must meet its CHILD exactly once, and before entering any
        # other rule, so not in an Oblig condition (walked twice)
        for lg in F.LOGICS.values():
            for rule in lg.rules.values():
                conds, stack = [], [(rule, False)]
                while stack:
                    g, in_cond = stack.pop()
                    assert type(g) not in lg.rules
                    if g is F.CHILD:
                        conds.append(in_cond)
                    elif type(g) is F.Oblig:
                        stack += [(g.body, in_cond), (g.cond, True)]
                    else:
                        stack += [(k, in_cond) for k in F.children(g)]
                assert conds == [False]

    def test_each_record_is_filed_under_its_name(self):
        assert {name: lg.name for name, lg in F.LOGICS.items()} == {"sdl": "sdl", "e": "e"}
        assert all(F.check_logic(name) is lg for name, lg in F.LOGICS.items())


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


def test_tokens_are_the_tokenize_texts():
    """`tokens` takes a text `_tokenize` takes, with the same texts, and
    raises its error on any other, down to single odd characters."""
    rng = random.Random(5)
    alphabet = list("aZ9_ \t\r\n\f\v\x00#<->~&|(){},.$é ") + ["<->", "->", "box", "p1"]
    for _ in range(20000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            want = [t.text for t in F._tokenize(text)]
        except F.ParseError as ex:
            with pytest.raises(F.ParseError) as got:
                F.tokens(text)
            assert str(got.value) == str(ex), repr(text)
        else:
            assert F.tokens(text) == want, repr(text)


def outcome(parse, text, sig, logic):
    """The node a parse returns, or its error's (message, line, column)."""
    try:
        return parse(text, sig, logic)
    except F.ParseError as ex:
        return (ex.message, ex.line, ex.col)


class TestParseAgainstRecursiveDescent:
    """`parse` against `oracles.recursive_parse`: the same node, or the
    same message at the same place."""

    # identifiers declared and undeclared, soft keywords, reserved words,
    # the punctuation, and fragments that reach O{...} and quantifiers
    WORDS = ["p", "q", "r", "P1", "Q1", "c0", "x0", "zz", "O", "P", "F", "box", "dia",
             "forall", "exists", "true", "false", "~", "&", "|", "->", "<->", "(", ")",
             "{", "}", ",", ".", "O{", "O{p |", "forall x0.", "exists x1 .", "P1(c0)",
             "P1(x0)", "P(c0, x0)", "O{p | q}", "(p", "p)", "|}", "#c\n"]
    BAD = ["$", "-", "<", "9", "_", "é", "<-", ">"]
    # declares the soft keywords P (a predicate), O (an atom) and F (a constant)
    SOFT = F.Signature({"p": 0, "q": 0, "P": 1, "O": 0}, frozenset({"F", "c0"}))

    @staticmethod
    def noisy(rng, text):
        """text with redundant parentheses, blanks, newlines and comments."""
        words = [f"({t})" if t in ("p", "q", "r") and rng.random() < 0.2 else t
                 for t in F.tokens(text)[:-1]]
        seps = [" ", "\t", "\n", "\r\n", "  # note\n", "\t# ( | } $\n"]
        k = rng.randrange(3)
        return ("(" * k + "".join(w + rng.choice(seps) for w in words) + ")" * k
                + rng.choice(["", "# tail"]))

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    @pytest.mark.parametrize("quantifiers", [False, True])
    def test_printed_formulas(self, logic, quantifiers):
        rng = random.Random(11)
        for _ in range(1250):
            f = gen_formula(rng, logic, rng.randint(1, 5), quantifiers)
            text = self.noisy(rng, F.print_formula(f))
            assert F.parse(text, SIG, logic) is f, text
            assert oracles.recursive_parse(text, SIG, logic) is f, text

    def soup(self, rng):
        parts = []
        for _ in range(rng.randint(1, 14)):
            parts.append(rng.choice(self.BAD) if rng.random() < 0.02 else rng.choice(self.WORDS))
            parts.append(rng.choice([" ", " ", "\n", "\t", ""]))
        if rng.random() < 0.2:
            parts.append("# tail $")
        return "".join(parts)

    def mutant(self, rng, logic):
        """A printed formula with one or two tokens deleted, added or replaced."""
        f = gen_formula(rng, logic, rng.randint(1, 5), quantifiers=rng.random() < 0.5)
        words = list(F.tokens(F.print_formula(f))[:-1])
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(len(words) + 1)
            roll = rng.random()
            if roll < 0.3 and k < len(words):
                del words[k]
            elif roll < 0.6:
                words.insert(k, rng.choice(self.WORDS))
            elif k < len(words):
                words[k] = rng.choice(self.WORDS)
        return " ".join(words)

    def test_token_soups(self):
        rng = random.Random(12)
        messages = set()
        for n in range(8000):
            logic = rng.choice(["sdl", "e"])
            if n < 5000:
                text, sig = self.soup(rng), rng.choice([SIG, self.SOFT])
            else:
                text, sig = self.mutant(rng, logic), SIG
            got = outcome(F.parse, text, sig, logic)
            assert got == outcome(oracles.recursive_parse, text, sig, logic), text
            messages.add(re.sub(r"'[^']*'|\d+", "X", got[0]) if type(got) is tuple else None)
        # some texts parse, and every message of the tokenizer and parser shows
        assert messages == {
            None, "unexpected character X", "expected a formula, found X", "expected X, found X",
            "unexpected trailing input X", "unknown predicate X", "unknown constant X",
            "predicate X expects X argument(s), got X", "variable X used as a formula",
            "variable X already bound", "expected a variable name after quantifier",
            "expected a term", "dyadic obligation O{...} requires logic e",
            "unterminated O{...}", "O{...} needs a X separating body and condition"}

    @staticmethod
    def repeated(rng, logic):
        """Texts that repeat the groups of a printed formula A, each with
        its node and the number of its tokens up to the end of the first
        copy of (A)."""
        f = gen_formula(rng, logic, rng.randint(1, 5), quantifiers=rng.random() < 0.5)
        a = F.print_formula(f)
        n = len(F.tokens(a)) - 1
        return [(f"({a}) & ({a})", F.And(f, f), n + 2),
                (f"~({a}) | (({a}) -> ({a}))", F.Or(F.Not(f), F.Implies(f, f)), n + 3)]

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_repeated_groups(self, logic):
        rng = random.Random(13)
        for _ in range(600):
            for text, f, _ in self.repeated(rng, logic):
                assert F.parse(text, SIG, logic) is f, text
                assert oracles.recursive_parse(text, SIG, logic) is f, text

    def test_repeated_groups_broken_in_a_later_copy(self):
        """The first copy parses and is stored; a later one is broken.
        The outcome is the recursive parser's, node or error and place."""
        rng = random.Random(14)
        errors = 0
        for _ in range(3000):
            logic = rng.choice(["sdl", "e"])
            text, _, first = rng.choice(self.repeated(rng, logic))
            words = F.tokens(text)[:-1]
            for _ in range(rng.randint(1, 2)):
                k = rng.randint(first, len(words))
                roll = rng.random()
                if roll < 0.3 and k < len(words):
                    del words[k]
                elif roll < 0.6:
                    words.insert(k, rng.choice(self.WORDS))
                elif k < len(words):
                    words[k] = rng.choice(self.WORDS)
            text = " ".join(words)
            got = outcome(F.parse, text, SIG, logic)
            assert got == outcome(oracles.recursive_parse, text, SIG, logic), text
            errors += type(got) is tuple
        assert 1000 < errors < 3000  # most mutants are errors, not all

    def test_a_group_reads_its_scope(self):
        """The same group under different binders gives different nodes:
        x is a variable under `forall x.` and a constant outside it."""
        sig = F.Signature({"P": 1, "p": 0}, frozenset({"x"}))
        var, const = F.Atom("P", (F.Var("x"),)), F.Atom("P", (F.Const("x"),))
        for text, f in [
            ("(forall x. (P(x))) & (P(x))", F.And(F.Forall("x", var), const)),
            ("(P(x)) & (forall x. (P(x)))", F.And(const, F.Forall("x", var))),
            ("(forall x. (P(x))) & (forall x. (P(x)))",
             F.And(F.Forall("x", var), F.Forall("x", var))),
            ("(exists y. (P(x))) | (forall x. exists y. (P(x))) | (P(x))",
             F.Or(F.Or(F.Exists("y", const), F.Forall("x", F.Exists("y", var))), const)),
        ]:
            assert F.parse(text, sig, "e") is f, text
            assert oracles.recursive_parse(text, sig, "e") is f, text
        # a variable bound outside a group is bound inside it too
        text = "(p) & forall x. (p) & (x)"
        got = outcome(F.parse, text, sig, "e")
        assert got == outcome(oracles.recursive_parse, text, sig, "e")
        assert got == ("variable 'x' used as a formula", 1, 24)

    def test_a_doubling_text_builds_each_distinct_node_about_once(self, monkeypatch):
        """x(k+1) = x(k) op u(x(k)), as the benchmark's shared-DAG texts:
        the text doubles with each level and its distinct nodes grow by
        two, and the parser builds about as many nodes as are distinct."""
        text, f = "(p | ~(q))", F.Or(F.Atom("p"), F.Not(F.Atom("q")))
        ops = [("&", F.And), ("->", F.Implies), ("|", F.Or), ("<->", F.Iff)]
        for k in range(12):
            word, op = ops[k % 4]
            head, u = ("box ", F.Box) if k in (0, 11) else ("O ", F.ObligM) if k == 6 \
                else ("~", F.Not)
            text = f"({text} {word} {head}({text}))"
            f = op(f, u(f))
        assert len(F.tokens(text)) > 50_000
        built = []
        new = F._Node.__new__

        def counted(cls, *args):
            built.append(cls)
            return new(cls, *args)

        monkeypatch.setattr(F._Node, "__new__", staticmethod(counted))
        assert F.parse(text, SIG, "sdl") is f
        distinct = len(F.subformulas(f))
        assert distinct == 28 and len(built) <= 2 * distinct

    def test_nested_dyadic_obligations_parse_in_one_pass(self):
        depth = 2000
        text = "O{" * depth + "p" + " | q}" * depth
        f = F.Atom("p")
        for _ in range(depth):
            f = F.Oblig(f, F.Atom("q"))
        assert F.parse(text, SIG, "e") is f
        assert F.print_formula(f) == text


class TestFold:
    """Repeated groups are folded before the token pass (`formula._fold`).
    Each text gives the node or the (message, line, column) of
    `oracles.recursive_parse`, and a text that parses is read from its
    folded tokens, not parsed again unfolded."""

    SIG = F.Signature({"p": 0, "q": 0, "P": 1, "R": 2}, frozenset({"a", "b", "x"}))

    def check(self, text, folds=True, sig=SIG, logics=("sdl", "e")):
        for logic in logics:
            got = outcome(F.parse, text, sig, logic)
            assert got == outcome(oracles.recursive_parse, text, sig, logic), (text, logic)
            groups = {}
            try:
                toks = F.tokens(text, groups)
            except F.ParseError:  # a character no token takes
                toks = None
            assert folds is None or bool(groups) is folds, text
            if groups and type(got) is not tuple:
                assert F._read(text, toks, groups, sig, logic) is got, (text, logic)
        return bool(groups)

    @pytest.mark.parametrize("text", ["(p) & (p) & \x00", "(p)\x00 & (p)", "\x000\x00 & (p) & (p)",
                                      "(p) & (p) #\x00\n& q"])
    def test_the_placeholder_character(self, text):
        self.check(text, folds=text.endswith("q"))

    @pytest.mark.parametrize("text", [
        "P(x) & (x)", "(x) & P(x)", "(q) & P(q)", "P(q) & (q)", "forall x. P(x) & (x)",
        "R(a, b) & (a, b)", "P(a) & P(a) & (P(a))", "forall x. P(x) -> P(x) & R(x, a)"])
    def test_an_argument_group_equal_to_a_formula_group(self, text):
        self.check(text)

    @pytest.mark.parametrize("text", ["P((a))", "P((a)) & (a)", "P((a)) & P((a))",
                                      "(P(a)) & P((a))", "P(a) & P(a)("])
    def test_a_group_inside_an_argument_list(self, text):
        self.check(text, folds=text != "P((a))")

    @pytest.mark.parametrize("text", ["(p) # (p) & (\n& (p)", "(p # )\n) & (p # )\n)",
                                      "(p # (\n) & (p # (\n)", "(q) & (q) # )"])
    def test_parentheses_in_a_comment(self, text):
        self.check(text)

    @pytest.mark.parametrize("text", ["(p\n& q) | (p\n& q)", "(p\n&\nq) -> ~(p\n&\nq) & r",
                                      "(p\n& q) | (p\r\n& q) | (p\n& q) | (p\r\n& q)", "(p\n&\n(q)) & (q) $"])
    def test_groups_that_span_lines(self, text):
        self.check(text)

    @pytest.mark.parametrize("text", ["(p) & (p))", "((p) & (p)))", "(p)) & (p)",
                                      "((p)) & ((p)) )"])
    def test_a_stray_close_after_a_folded_group(self, text):
        self.check(text)

    @pytest.mark.parametrize("text", [
        "(P(x)) & forall x. (P(x)) & exists y. (P(x))",
        "forall x. (P(x)) & (forall y. (P(x))) & exists y. (P(y)) & (P(y))",
        "(forall y. (P(x))) & forall x. (forall y. (P(x)))",
        "(O{P(x) | q}) & forall x. (O{P(x) | q}) & (O{P(x) | q})",
        "forall x. (O{P(x) | (P(x))}) | exists y. (O{P(x) | (P(x))})"])
    def test_one_group_under_different_binders(self, text):
        self.check(text)

    @pytest.mark.parametrize("text", [
        "(O{p | q}) & (O{p | q})", "O{(p) | (p)}", "O{(p | q) | (p | q)}",
        "O{(O{p | q}) | (O{p | q})}", "O{ (p) | q } & O{ q | (p) }", "(O{p | q) & (O{p | q)",
        "O{(p} | (p}) & (p})",
        "O{(p | q} | (p | q}) | (p | q})", "(O{(p) | (q)}) -> O{(O{(p) | (q)}) | (q)}",
        "O{(p) | (p) & O{(q) | (p)}}", "(p | O{q) & (p | O{q)", "(O{p}) | (O{p})"])
    def test_dyadic_obligations_inside_and_around_folded_groups(self, text):
        self.check(text)

    def test_soups_and_formulas_with_repeated_groups(self):
        rng = random.Random(15)
        folded = 0
        for n in range(4000):
            logic = rng.choice(["sdl", "e"])
            if n % 2:
                words = TestParseAgainstRecursiveDescent.WORDS
                text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
            else:
                f = gen_formula(rng, logic, rng.randint(1, 4), quantifiers=rng.random() < 0.5)
                text = F.print_formula(f)
            for _ in range(rng.randint(1, 3)):  # repeat a group, or the start of one
                i = text.find("(", rng.randrange(len(text) + 1))
                j = text.find(")", i)
                if i >= 0 and j >= 0:
                    text += rng.choice([" & ", " ", ") & (", " -> ~", "\n| "]) + text[i:j + 1]
            folded += self.check(text, None, SIG, (logic,))
        assert folded > 800

    @pytest.mark.parametrize("depth, copies, width, pairs", [
        (20_000, 1, 0, 0), (10_000, 2, 0, 0), (0, 0, 10_000, 0), (0, 0, 0, 10_000)])
    def test_folding_stays_linear(self, depth, copies, width, pairs):
        """Deep, unshared and barely shared texts: the fold stops at its
        work bound, and the rest goes to the token pass."""
        names = [f"p{i}" for i in range(max(width, pairs))] or ["p"]
        sig = F.Signature(dict.fromkeys(names, 0))
        if depth:
            text = " & ".join(["(" * depth + "p" + ")" * depth] * copies)
            leaves = [F.Atom("p")] * copies
        else:
            leaves = [F.Atom(n) for n in names for _ in range(1 if width else 2)]
            text = " & ".join(f"({g.pred})" for g in leaves)
        f = leaves[0]
        for g in leaves[1:]:
            f = F.And(f, g)
        start = time.perf_counter()
        assert F.parse(text, sig, "e") is f
        assert time.perf_counter() - start < 1.0


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
