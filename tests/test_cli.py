"""Command-line interface: subcommands, exit codes, JSON reports."""

from __future__ import annotations

import ast
import gc
import importlib.util
import inspect
import json
import os
import random
import re
import subprocess
import sys
import time
import typing
from pathlib import Path

import pytest
from click.testing import CliRunner

from deon import cli
from deon import embed as E
from deon import formula as F
from deon import lam as L
from deon import sat
from deon import search as SE
from deon import semantics as S

import oracles
from helpers import balanced, gen_formula

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

runner = CliRunner()


def run(*args):
    return runner.invoke(cli.main, [str(a) for a in args])


def run_json(*args):
    result = run(*args, "--format", "json")
    payload = json.loads(result.output)
    assert payload["schema"] == 1
    return result, payload


def _model_file(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "kind": "preference", "worlds": [0], "relation": [[0, 0]],
        "valuation": {"p": [0]}, "domain": []}))
    return str(model)


class TestInferSignature:
    def test_applied_identifiers_become_predicates(self):
        sig = cli.infer_signature("dia forall x. P(x)")
        assert sig.predicates == {"P": 1}

    def test_bare_identifiers_become_atoms(self):
        sig = cli.infer_signature("p & q -> box r")
        assert sig.predicates == {"p": 0, "q": 0, "r": 0}

    def test_argument_constants(self):
        sig = cli.infer_signature("erase(d1) | lawful(d1, d2)")
        assert sig.predicates == {"erase": 1, "lawful": 2}
        assert sig.constants == {"d1", "d2"}

    def test_arity_conflict_rejected(self):
        with pytest.raises(F.FormulaError):
            cli.infer_signature("erase(d1) & erase(d1, d2)")

    def test_operator_before_a_parenthesized_formula(self):
        sig = cli.infer_signature("O (p & q) -> P(c1, c2) | F (~r)")
        assert sig.predicates == {"p": 0, "q": 0, "P": 2, "r": 0}
        assert sig.constants == {"c1", "c2"}
        assert run("model", "O (p & q)").exit_code == 0

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_printed_formulas_parse_back(self, logic):
        rng = random.Random(5)
        for _ in range(3000):
            f = gen_formula(rng, logic, rng.randint(1, 4))
            text = F.print_formula(f)
            assert F.parse(text, cli.infer_signature(text), logic=logic) is f, text

    def test_same_as_the_plain_scan_on_token_soups(self):
        # unbalanced parentheses, soft keywords before identifier lists
        # and formulas, binders and braces
        def infer(infer_signature, text):
            try:
                return infer_signature(text)
            except F.FormulaError as ex:
                return str(ex)

        rng = random.Random(8)
        vocab = ["(", "(", ")", ")", ",", ",", "O", "P", "F", "p", "q", "a", "b", "x",
                 "forall", "exists", ".", "{", "}", "|", "~", "&", "box", "true",
                 "O ( a )", "P ( a , b )", "F ( x , p , q )", "p ( a )", "q ( a , x )"]
        for _ in range(20_000):
            text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 20)))
            assert infer(cli.infer_signature, text) == infer(oracles.infer_signature, text), text

    def test_same_as_the_plain_scan_on_repeated_groups(self):
        # texts whose groups repeat are read from their folded tokens:
        # printed formulas, doubling texts with quantifiers and dyadic
        # obligations, comments cut in anywhere, and arity conflicts
        def infer(infer_signature, text):
            try:
                return infer_signature(text)
            except F.FormulaError as ex:
                return str(ex)

        rng = random.Random(9)
        units = ["p", "q(a)", "P1(c0)", "q(a, b)", "forall x. P1(x)", "exists y. q(y, a)",
                 "O{p | q(a)}", "O(a, b)", "O (p)", "a", "P(a)", "~r"]
        for i in range(2000):
            if i % 3 == 0:
                text = F.print_formula(gen_formula(rng, "e", rng.randint(1, 4), quantifiers=True))
            else:
                text = rng.choice(units)
                for k in range(rng.randint(1, 6)):
                    op = rng.choice(["&", "|", "->", "<->"])
                    u = rng.choice(["~", "box ", "O ", "dia ", "forall x. ", ""])
                    other = rng.choice([text, rng.choice(units)])
                    text = (f"O{{({text}) | {other}}}" if rng.random() < 0.2
                            else f"({text} {op} {u}({other}))")
            if i % 2:
                cuts = sorted(rng.sample(range(len(text) + 1), 2))
                text = "".join(part + ("# (a, b\n" if j < 2 else "")
                               for j, part in enumerate(
                                   (text[:cuts[0]], text[cuts[0]:cuts[1]], text[cuts[1]:])))
            assert infer(cli.infer_signature, text) == infer(oracles.infer_signature, text), text

    def test_doubling_text_is_read_once_per_distinct_group(self):
        text = "(p | ~(q))"
        for k in range(12):
            text = f"({text} {('&', '->', '|', '<->')[k % 4]} {('~', 'box ', 'O ')[k % 3]}({text}))"
        assert len(text) > 75_000

        def best(fn):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        sig = cli.infer_signature(text)
        assert sig == oracles.infer_signature(text) and sig.predicates == {"p": 0, "q": 0}
        # reading every token took 20 times the parse
        assert best(lambda: cli.infer_signature(text)) < 4 * best(lambda: F.parse(text, sig))

    def test_deep_nesting_is_read_in_linear_time(self):
        text = "O(~" * 10_000 + "p" + ")" * 10_000
        start = time.perf_counter()
        sig = cli.infer_signature(text)
        assert time.perf_counter() - start < 1.0
        assert sig.predicates == {"p": 0} and not sig.constants
        # no group is closed: each is read up to the next "("
        unclosed = "r(a, " * 10_000
        start = time.perf_counter()
        sig = cli.infer_signature(unclosed)
        assert time.perf_counter() - start < 1.0
        assert sig == oracles.infer_signature("r(a, " * 100)

    def test_a_comment_in_a_model_text_hides_no_other_text(self):
        # `model` infers one signature from all of its texts
        for texts in [("p # note", "q"), ("p", "q # note"), ("p # (", "q(a) # )", "r")]:
            r = run("model", *texts)
            assert r.exit_code == 0, (texts, r.output)
        r = run("model", "p(a)", "p")
        assert r.exit_code == 3
        assert r.output == "error: 1:1: predicate 'p' expects 1 argument(s), got 0\n"


class TestExitCodes:
    def test_gdpr_sdl_consistency_negative(self):
        r = run("kb", "consistency", FIXTURES / "gdpr_sdl.kb",
                "--logic", "sdl", "--complete")
        assert r.exit_code == 1
        assert "unsatisfiable" in r.output

    def test_gdpr_e_consistency_positive(self):
        r = run("kb", "consistency", FIXTURES / "gdpr_e.kb", "--logic", "e")
        assert r.exit_code == 0

    def test_undetermined_is_two(self):
        r = run("model", "p & ~p", "--logic", "e")
        assert r.exit_code == 2

    def test_parse_error_is_three(self):
        r = run("parse", "p &")
        assert r.exit_code == 3

    def test_check_valid_zero(self):
        assert run("check", "O{p | p}", "--complete").exit_code == 0

    def test_check_countermodel_one(self):
        assert run("check", "O{p | q}", "--complete").exit_code == 1

    def test_eval_truth_in_exit_code(self, tmp_path):
        model = _model_file(tmp_path)
        assert run("eval", "p", "--model", model).exit_code == 0
        assert run("eval", "~p", "--model", model).exit_code == 1

    @pytest.mark.parametrize("argv, message", [
        (("check", "p", "--logic", "e", "--complete", "--frame", "total"),
         "complete mode decides the unrestricted frame only"),
        (("kb", "consistency", FIXTURES / "gdpr_e.kb", "--logic", "e", "--complete",
          "--frame", "reflexive"), "complete mode decides the unrestricted frame only"),
        (("check", "p", "--logic", "sdl", "--frame", "reflexive", "--bound", "2"),
         "SDL search supports only the (implied) serial frame"),
        (("kb", "comply", FIXTURES / "gdpr_sdl.kb", "--logic", "sdl", "--complete",
          "--frame", "transitive"), "SDL search supports only the (implied) serial frame"),
    ])
    def test_a_frame_the_search_cannot_decide_is_an_input_error(self, argv, message):
        r = run(*argv)
        assert (r.exit_code, r.stdout, r.stderr) == (3, "", f"error: {message}\n")


class TestFailuresAreNotVerdicts:
    def program(self, *args):
        """Exit code of the ``deon`` program itself."""
        with pytest.raises(SystemExit) as got:
            cli.entry([str(a) for a in args])
        return got.value.code

    def test_recursion_exhaustion_exits_4(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli.SE, "decide_valid", boom)
        assert isinstance(run("check", "p").exception, RecursionError)
        assert self.program("check", "p") == 4
        assert capsys.readouterr().err.startswith("internal error: RecursionError")

    def test_wide_grounding_is_a_budget_overrun(self, capsys):
        # 1,500 constants ground to a 1,500-atom formula: the compile
        # takes no stack, so the bounded scan runs out of budget
        consts = ", ".join(f"a{i}" for i in range(1500))
        argv = ("check", "(forall x. P(x)) -> P(a0)", "--sig", f"pred P/1; const {consts}")
        assert self.program(*argv) == 2
        assert capsys.readouterr().err.startswith("budget exceeded")

    def test_deep_sdl_translation_is_printed(self):
        # 300 nested boxes: the first-order and TPTP printers use an
        # explicit stack, and no read-back walk takes over two frames a box
        r = run("translate", "box " * 300 + "p", "--logic", "sdl", "--format", "json")
        assert r.exit_code == 0
        assert json.loads(r.stdout)["detail"]["fo"].count("∀") == 301

    @pytest.mark.parametrize("text, printed", [
        ("(" * 10_000 + "p" + ")" * 10_000, "p"),
        ("~" * 10_000 + "p", "~" * 10_000 + "p"),
    ], ids=["parentheses", "negations"])
    def test_deep_input_is_parsed_and_printed(self, text, printed):
        r = run("parse", text)
        assert r.exit_code == 0
        assert r.output == printed + "\n"

    def test_deep_parentheses_are_decided(self):
        assert run("model", "(" * 10_000 + "p" + ")" * 10_000, "--complete").exit_code == 0

    def test_deep_negation_is_decided(self):
        # an even number of negations over a tautology
        assert run("check", "~" * 3_000 + "(p | ~p)", "--complete").exit_code == 0

    def test_memory_exhaustion_exits_4(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.SE, "find_model", boom)
        assert self.program("model", "p") == 4
        assert capsys.readouterr().err.startswith("internal error: MemoryError")

    def test_any_crash_exits_4(self, capsys):
        # a --sig predicate without arity is an unpacking ValueError
        argv = ("model", "p", "--sig", "pred p")
        assert isinstance(run(*argv).exception, ValueError)
        assert self.program(*argv) == 4
        assert capsys.readouterr().err.startswith("internal error: ValueError")

    def test_verdicts_keep_their_codes(self, capsys):
        assert self.program("model", "p") == 0
        assert self.program("check", "p") == 1

    GOOD_MODEL = {"kind": "preference", "worlds": [0], "relation": [[0, 0]],
                  "valuation": {"p": [0]}, "domain": []}
    WORLDS = "model field 'worlds' must be a list of world numbers"
    RELATION = "model field 'relation' must be a list of [s, t] world pairs"
    VALUATION = "model field 'valuation' must be an object from atoms to lists of world numbers"
    DOMAIN = "model field 'domain' must be a list of names"

    @pytest.mark.parametrize("doc, message", [
        # shapes that used to crash the reader
        ({}, WORLDS), ([1, 2], "a model must be a JSON object"),
        ("x", "a model must be a JSON object"), (None, "a model must be a JSON object"),
        ({"worlds": 3}, WORLDS), ({"worlds": ["a", 0]}, WORLDS),
        ({"relation": [[0]]}, RELATION), ({"relation": [0]}, RELATION),
        ({"relation": [["a", "b"]]}, RELATION), ({"relation": [[0, 0, 0]]}, RELATION),
        ({"valuation": {"p": 5}}, VALUATION), ({"valuation": [1]}, VALUATION),
        ({"valuation": {"p": ["a"]}}, VALUATION), ({"domain": 5}, DOMAIN),
        ({"domain": ["c", 1]}, DOMAIN),
        # shapes that were input errors already, with their messages
        ({"worlds": [0, 2]}, "worlds must be the dense range 0..n-1"),
        ({"worlds": []}, "a model needs at least one world"),
        ({"relation": [[0, 3]]}, "relation pair (0,3) out of range"),
        ({"valuation": {"p": [4]}}, "world 4 out of range 0..0"),
        ({"valuation": {"p(": [0]}}, "bad atom key 'p('"),
        ({"kind": "foo"}, "unknown model kind 'foo'"),
    ], ids=repr)
    def test_a_malformed_model_file_is_an_input_error(self, doc, message, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.GOOD_MODEL | doc if isinstance(doc, dict) and doc
                                   else doc))
        for logic in ("e", "sdl"):
            assert self.program("eval", "p", "--model", path, "--logic", logic) == 3
            assert capsys.readouterr().err == f"error: {message}\n"


class TestJsonReports:
    def test_consistency_report_schema(self):
        r, payload = run_json("kb", "consistency", FIXTURES / "gdpr_sdl.kb",
                              "--logic", "sdl", "--complete")
        assert r.exit_code == 1
        assert payload["verdict"] == "unsatisfiable"
        assert payload["mus"] == ["a1[d1]", "fact1"]
        assert payload["complete"] is True
        assert isinstance(payload["timing_ms"], float)

    def test_timing_covers_the_decision(self, monkeypatch):
        decide_valid = cli.SE.decide_valid

        def slow(f, cfg):
            time.sleep(0.05)
            return decide_valid(f, cfg)

        monkeypatch.setattr(cli.SE, "decide_valid", slow)
        r, payload = run_json("check", "p -> p")
        assert payload["verdict"] == "no_model_up_to"
        assert payload["timing_ms"] >= 50

    def test_mus_labels_by_position_when_facts_repeat(self, tmp_path):
        # equal formulas are one node, so the core maps back by position
        kb = tmp_path / "dup.kb"
        kb.write_text("[signature]\npred p/0\n[norms]\na1: O{ p | true }\n"
                      "[facts]\n~p\n~p\n")
        r, payload = run_json("kb", "consistency", kb, "--logic", "sdl", "--complete")
        assert r.exit_code == 1
        assert payload["mus"] == ["a1", "fact2"]

    def test_model_witness_round_trips(self):
        from deon import semantics as S
        r, payload = run_json("kb", "consistency", FIXTURES / "gdpr_e.kb")
        assert r.exit_code == 0
        model = S.model_from_dict(payload["witness"])
        assert model.n >= 1

    def test_a_wide_decided_verdict_is_reported(self):
        # 2^15001 worlds bound the filtration: the report gives the exponent
        text = " | ".join(f"p{i}" for i in range(7500)) + " | ~p0"
        t0 = time.perf_counter()
        r, payload = run_json("check", text, "--logic", "e", "--complete")
        took = time.perf_counter() - t0
        assert r.exit_code == 0 and payload["verdict"] == "valid"
        assert payload["bound_used"] is None
        assert payload["detail"] == {"filtration_subformulas": 15001}
        assert took < 1.0

    def test_entail_json(self):
        r, payload = run_json("kb", "entail", FIXTURES / "gdpr_e.kb",
                              "--goal", "O kill(mary)")
        assert r.exit_code == 1
        assert payload["verdict"] == "countermodel"
        assert payload["world"] == 0

    def test_translate_json_has_pipeline_fields(self):
        r, payload = run_json("translate", "box (p & q)")
        assert set(payload["detail"]) == {"input", "steps", "normal_form", "fo", "tptp"}
        assert "fof(" in payload["detail"]["tptp"]

    def test_comply_json(self):
        r, payload = run_json("kb", "comply", FIXTURES / "gdpr_e_protected.kb")
        assert r.exit_code == 1
        assert payload["verdict"] == "violations"
        assert payload["detail"]["violations"] == [["a1[d1]", "process_lawfully(d1)"]]


    @pytest.mark.parametrize("args", [
        ("check", "O{p | q}", "--complete"),
        ("model", "O p", "q"),
        ("correspondence", "d", "--frame", "serial", "--bound", "2"),
        ("kb", "consistency", FIXTURES / "gdpr_e.kb"),
        ("kb", "entail", FIXTURES / "gdpr_e.kb", "--goal", "O kill(mary)"),
    ])
    def test_a_witness_is_encoded_once(self, args, monkeypatch):
        """Text output prints each witness as `to_json`; a JSON report
        holds it already and never calls that."""
        assert '"kind": ' in run(*args).output
        monkeypatch.setattr(S._ModelBase, "to_json", lambda model: pytest.fail("to_json"))
        r, payload = run_json(*args)
        assert r.exit_code in (0, 1)
        assert payload["witness"] or payload["detail"]["violating_witness"]


class TestJsonEverySubcommand:
    @pytest.mark.parametrize("args", [
        ("parse", "p -> q"),
        ("check", "p | ~p", "--complete"),
        ("model", "O p", "O ~p"),
        ("translate", "box p"),
        ("correspondence", "id", "--frame", "reflexive", "--bound", "2"),
        ("kb", "consistency", FIXTURES / "chisholm_e.kb"),
        ("kb", "entail", FIXTURES / "chisholm_e.kb", "--goal", "O go"),
        ("kb", "comply", FIXTURES / "chisholm_e.kb"),
    ])
    def test_schema_stable(self, args):
        result = run(*args, "--format", "json")
        payload = json.loads(result.output)
        assert payload["schema"] == 1
        assert set(payload) == {"schema", "command", "verdict", "witness", "world",
                                "mus", "bound_used", "complete", "timing_ms", "detail"}
        assert payload["verdict"] is not None

    def test_eval_json(self, tmp_path):
        model = _model_file(tmp_path)
        result = run("eval", "p", "--model", model, "--format", "json")
        payload = json.loads(result.output)
        assert payload["schema"] == 1 and payload["verdict"] == "true"


class TestGrounding:
    def test_quantifier_grounds_over_mentioned_constants(self):
        r = run("check", "(forall x. P(x)) -> P(c0)", "--complete")
        assert r.exit_code == 0  # valid once grounded over {c0}

    def test_quantifier_without_domain_is_an_input_error(self):
        r = run("check", "forall x. P(x) <-> exists y. P(y)")
        assert r.exit_code == 3
        assert "constant domain" in r.output

    def test_explicit_sig_supplies_the_domain(self):
        r = run("check", "forall x. P(x) <-> exists y. P(y)",
                "--sig", "pred P/1; const a, b")
        assert r.exit_code == 1  # invalid over a 2-element domain


class TestTranslate:
    def test_show_steps_reproduces_chain(self):
        r = run("translate", "dia forall x. P(x)", "--show-steps")
        assert r.exit_code == 0
        assert "reduction:" in r.output
        assert "R v0 v1" in r.output  # guard appears in the normal form

    def test_local_mode_uses_actual_world(self):
        r = run("translate", "p", "--local")
        assert "aw" in r.output

    def test_out_writes_problem_file(self, tmp_path):
        r = run("translate", "box (p & q)", "--name", "guarded_box",
                "--out", tmp_path)
        assert r.exit_code == 0
        written = (tmp_path / "guarded_box.p").read_text()
        assert written == (FIXTURES / "golden_guarded_box.p").read_text()

    @pytest.mark.parametrize("option, value", [
        ("--name", "Goal 1"), ("--role", "whatever"), ("--name", "../escaped"),
    ])
    def test_name_and_role_must_be_tptp(self, tmp_path, option, value):
        r = run("translate", "p", option, value, "--out", tmp_path / "d")
        assert r.exit_code == 3
        assert r.output.startswith(f"error: {option} {value!r} is not a TPTP")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("logic, foralls", [("sdl", 10_001), ("e", 1)])
    def test_ten_thousand_nested_boxes(self, logic, foralls):
        r, payload = run_json("translate", "box " * 10_000 + "p", "--logic", logic)
        assert r.exit_code == 0
        detail = payload["detail"]
        # one Pi per box and one for the validity wrapper; in E every world
        # binder but the innermost, eta-contracted one is vacuous
        assert detail["normal_form"].count("Π") == 10_001
        assert detail["fo"].count("∀") == foralls

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_the_normal_form_is_the_last_step(self, logic):
        sig = "pred p/0; pred q/0; pred r/0; pred P1/1; pred Q1/1; const c0"
        rng = random.Random(5)
        for i in range(30):
            f = gen_formula(rng, logic, rng.randint(0, 3), quantifiers=bool(i % 2))
            local = ("--local",) * (i // 2 % 2)
            r, payload = run_json("translate", F.print_formula(f), "--logic", logic,
                                  "--show-steps", "--sig", sig, *local)
            assert r.exit_code == 0
            assert payload["detail"]["normal_form"] == payload["detail"]["steps"][-1]

    def test_plain_translate_builds_no_lambda_term(self, monkeypatch):
        # every node that enters the table gets a weak reference made there
        made = []

        class Ref(F._Ref):
            __slots__ = ()

            def __new__(cls, node, callback):
                if isinstance(node, L.LTerm):
                    made.append(node)
                return super().__new__(cls, node, callback)

        monkeypatch.setattr(F, "_Ref", Ref)
        for logic in ("sdl", "e"):
            text = F.print_formula(balanced(380, logic))
            assert run("translate", text, "--logic", logic).exit_code == 0
        assert made == []
        run("translate", "p", "--show-steps")
        assert made  # the stepper still builds its terms

    def test_plain_translate_builds_no_first_order_formula(self, monkeypatch):
        made = []

        class Ref(F._Ref):
            __slots__ = ()

            def __new__(cls, node, callback):
                if isinstance(node, E.FOFormula):
                    made.append(node)
                return super().__new__(cls, node, callback)

        monkeypatch.setattr(F, "_Ref", Ref)
        for logic in ("sdl", "e"):
            text = F.print_formula(balanced(380, logic))
            assert run("translate", text, "--logic", logic).exit_code == 0
        assert made == []
        E.translate(F.Box(F.Atom("built_here")), "sdl")
        assert made  # the API still builds its formula

    def test_one_printer_writes_every_first_order_text(self, monkeypatch):
        calls = []
        printer = E.print_program
        monkeypatch.setattr(E, "print_program", lambda *a: calls.append(a) or printer(*a))
        fo = E.translate(F.Box(F.Atom("p")), "sdl")
        E.fo_show(fo)
        E.emit_tptp(fo, "goal", "conjecture")
        assert run("translate", "box p").exit_code == 0
        assert len(calls) == 3

    @staticmethod
    def assert_printed_as_the_tree(f: F.Formula, logic: str, mode: str, *argv):
        local = ("--local",) * (mode == "local")
        r, payload = run_json("translate", F.print_formula(f), "--logic", logic, *local, *argv)
        assert r.exit_code == 0
        fo = E.translate(f, logic, mode)
        assert payload["detail"]["fo"] == oracles.fo_print(fo, oracles.FO_SHOW)
        assert payload["detail"]["tptp"] == oracles.emit_tptp(fo, "goal", "conjecture", logic)
        return payload["detail"]

    @pytest.mark.parametrize("quantifiers", [False, True])
    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_printed_as_the_reference_prints_the_tree(self, logic, quantifiers):
        sig = "pred p/0; pred q/0; pred r/0; pred P1/1; pred Q1/1; const c0"
        rng = random.Random(17)
        for i in range(30):
            f = gen_formula(rng, logic, rng.randint(0, 4), quantifiers=quantifiers)
            self.assert_printed_as_the_tree(f, logic, ("global", "local")[i % 2], "--sig", sig)

    @pytest.mark.parametrize("mode", ["global", "local"])
    @pytest.mark.parametrize("logic", ["sdl", "e"])
    @pytest.mark.parametrize("f, depth", [
        (F.Forall("x", F.Box(F.Atom("p"))), 0),  # x does not occur
        (F.Box(F.Box(F.Atom("p"))), 0),  # in E, neither does the outer box's world
        (F.Not(F.Dia(F.Atom("p"))), 0),  # ¬Π¬ read as ∃ under a negation
        (F.Box(F.BOT), 0),  # the reserved atom, printed as $false
        (F.And(F.Atom("v0"), F.Box(F.Not(F.Atom("v0_")))), 0),  # primed binders, _ in TPTP
        (F.Atom("p"), 10_000),  # under 10,000 nested boxes
    ], ids=["vacuous-binder", "vacuous-world", "not-dia", "reserved-atom", "v0-v0_",
            "deep-box"])
    def test_printed_as_the_tree_by_hand(self, f, depth, logic, mode):
        for _ in range(depth):
            f = F.Box(f)
        detail = self.assert_printed_as_the_tree(f, logic, mode)
        assert "'" not in detail["tptp"]
        assert F.RESERVED_ATOM not in detail["fo"] + detail["tptp"]

    @pytest.mark.parametrize("logic", ["sdl", "e"])
    def test_time_grows_linearly_in_the_nesting(self, logic):
        def best_time(depth):
            argv = ("translate", "box " * depth + "p", "--logic", logic)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                assert run(*argv).exit_code == 0
                times.append(time.perf_counter() - t0)
            return min(times)

        # four times the depth: about 4x the time when linear, 16x when
        # quadratic
        assert best_time(8000) / best_time(2000) < 8

    @pytest.mark.parametrize("argv, pred", [
        (("forall x. R(x)", "--logic", "e"), "R"),
        (("R(c)", "--logic", "sdl", "--sig", "pred R/1; const c"), "R"),
        (("Rb & p", "--show-steps"), "Rb"),
    ])
    def test_relation_constant_names_are_rejected(self, argv, pred):
        # read as the embedding's accessibility or betterness relation, a
        # predicate R would sort its individual arguments as worlds
        r = run("translate", *argv)
        assert (r.exit_code, r.stdout) == (3, "")
        assert r.stderr == (f"error: predicate {pred!r} has the name of a relation "
                            "constant of the embedding\n")

    def test_in_process_runs_free_their_streams(self):
        # click.echo caches every sys.stdout it writes to, keyed weakly
        # but holding the stream itself, so each CliRunner run would keep
        # its captured streams and buffers alive for good
        def live_streams():
            gc.collect()
            return sum(type(o).__module__ == "click.testing" for o in gc.get_objects())

        for _ in range(3):
            run("translate", "box p")
        before = live_streams()
        for _ in range(30):
            assert run("translate", "box p", "--format", "json").exit_code == 0
        assert live_streams() <= before


class TestDispatcher:
    """Commands return their report and text lines; `_parse` alone prints
    them and maps the verdict to an exit code through `cli._EXIT`."""

    def test_commands_return_their_reports(self, tmp_path):
        model = _model_file(tmp_path)
        search = ("e", "", 3, True)
        cases = [
            (cli.cmd_parse, ("p & q", "e", None), "parsed"),
            (cli.cmd_eval, ("p", model, 0, "e", None), "true"),
            (cli.cmd_eval, ("~p", model, 0, "e", None), "false"),
            (cli.cmd_check, ("O{p | p}", *search, None), "valid"),
            (cli.cmd_check, ("O{p | q}", *search, None), "countermodel"),
            (cli.cmd_kb_comply, (str(FIXTURES / "gdpr_e_protected.kb"), *search[:3], False),
             "violations"),
        ]
        for run_cmd, args, verdict in cases:
            rep, lines = run_cmd(*args)
            assert isinstance(rep, cli.Report) and lines
            assert rep.data["verdict"] == verdict
            assert rep.data["timing_ms"] is None  # set when printed

    @staticmethod
    def _commands():
        tree = ast.parse(inspect.getsource(cli))
        return [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]

    def test_every_verdict_a_command_sets_has_an_exit_code(self):
        verdicts = {v.tag for v in typing.get_args(SE.Verdict)}
        for fn in self._commands():
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign)
                        and ast.unparse(node.targets[0]) == "rep.data['verdict']"):
                    verdicts |= {c.value for c in ast.walk(node.value)
                                 if isinstance(c, ast.Constant)}
        assert len(verdicts) == 13  # the five search verdicts and eight set by name
        assert verdicts <= set(cli._EXIT)

    def test_only_decided_verdicts_exit_0_or_1(self):
        undecided = {v for v, code in cli._EXIT.items() if code not in (0, 1)}
        assert undecided == {"no_model_up_to", "budget_exceeded"}
        assert {cli._EXIT[v] for v in undecided} == {2}

    def test_no_command_prints_or_exits(self):
        assert len(self._commands()) == 9
        for fn in self._commands():
            calls = {ast.unparse(node.func) for node in ast.walk(fn)
                     if isinstance(node, ast.Call)}
            assert not calls & {"sys.exit", "print", "rep.emit"}, fn.name

    def test_the_readme_lists_each_verdicts_exit_code(self):
        readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("| verdict | set by | code |\n|---|---|---|\n")[1].split("\n\n")[0]
        rows = [re.fullmatch(r"\| `([a-z_]+)` \| [^|]+ \| `([0-9])` \|", line)
                for line in table.splitlines()]
        assert all(rows), table
        assert {m[1]: int(m[2]) for m in rows} == cli._EXIT
        assert len(rows) == len(cli._EXIT)


class TestCorrespondence:
    def test_cv_with_transitivity(self):
        r = run("correspondence", "cv", "--frame", "transitive", "--bound", "2")
        assert r.exit_code == 0
        assert "True" in r.output

    def test_unknown_frame_rejected(self):
        r = run("correspondence", "cv", "--frame", "shiny")
        assert r.exit_code == 3


def _bench_gen():
    """The benchmark's generator of the GDPR-N and Chisholm-N bases."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOneBankPerSearch:
    """A command compiles its search's inputs once: the exact procedure,
    the canonical re-scan, both correspondence probes, the Evaluator
    that re-checks each witness and the MUS, which shrinks the search's
    refutation, read that bank.  Each exact decision builds one solver,
    which answers its candidate search and every question it asks."""

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = {"banks": 0, "evaluators": 0, "solvers": 0}

        class Bank(S.CompiledBank):
            def __init__(self, *args):
                counts["banks"] += 1
                super().__init__(*args)

        class Checker(S.Evaluator):
            def __init__(self, *args, **kwargs):
                counts["evaluators"] += 1
                super().__init__(*args, **kwargs)

        class Solver(sat.Solver):
            def __init__(self, *args):
                counts["solvers"] += 1
                super().__init__(*args)

        monkeypatch.setattr(S, "CompiledBank", Bank)
        monkeypatch.setattr(S, "Evaluator", Checker)
        monkeypatch.setattr(sat, "Solver", Solver)
        return counts

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("family", ["gdpr", "chisholm"])
    @pytest.mark.parametrize("logic", ["e", "sdl"])
    def test_kb_consistency_builds_one_in_e_two_in_sdl(self, logic, family, n, builds,
                                                       tmp_path):
        kb = tmp_path / "family.kb"
        kb.write_text(getattr(_bench_gen(), f"{family}_kb")(n, logic))
        _, payload = run_json("kb", "consistency", kb, "--logic", logic, "--complete")
        # E: the search, whose bank re-checks the witness; SDL: the search,
        # whose bank the MUS shrinks with a solver for each of its checks
        assert payload["verdict"] == ("model_found" if logic == "e" else "unsatisfiable")
        mus_checks = {("gdpr", 1): 12, ("gdpr", 4): 17, ("chisholm", 1): 10, ("chisholm", 4): 16}
        assert builds == {"banks": 1, "evaluators": int(logic == "e"),
                          "solvers": 1 if logic == "e" else 1 + mus_checks[family, n]}

    @pytest.mark.parametrize("argv", [
        ("check", "O p -> p", "--logic", "e", "--complete"),
        ("check", "O p -> P p", "--logic", "sdl", "--complete"),
        ("check", "O{q | p} -> O{q | p & r}", "--logic", "e", "--complete"),
        ("check", "O p -> p", "--logic", "sdl", "--bound", "2"),
        ("model", "O p", "P ~q", "--logic", "e", "--complete"),
        ("model", "O p", "~p", "--logic", "sdl", "--complete"),
        ("model", "O p", "~p", "--logic", "sdl", "--bound", "2"),
        ("model", "dia p", "dia ~p", "--logic", "e", "--bound", "2"),
        ("kb", "entail", FIXTURES / "gdpr_e.kb", "--goal", "false", "--logic", "e", "--complete"),
        ("kb", "entail", FIXTURES / "gdpr_sdl.kb", "--goal", "false", "--logic", "sdl",
         "--complete"),
        ("kb", "entail", FIXTURES / "chisholm_e.kb", "--goal", "O ~tell", "--logic", "e",
         "--complete"),
    ])
    def test_one_per_search_and_one_per_witness(self, argv, builds):
        _, payload = run_json(*argv)
        witnesses = int(payload["witness"] is not None)
        assert builds == {"banks": 1, "evaluators": witnesses,
                          "solvers": int("--complete" in argv)}

    @pytest.mark.parametrize("schema", ["O{p | p}", "O{p | q}", "O{p | q} -> ~O{~p | q}"])
    def test_correspondence_probes_share_one(self, schema, builds):
        _, payload = run_json("correspondence", schema, "--frame", "reflexive", "--bound", "2")
        detail = payload["detail"]
        witnesses = sum(detail[k] is not None
                        for k in ("frame_counterexample", "violating_witness"))
        assert builds == {"banks": 1, "evaluators": witnesses, "solvers": 0}

    @pytest.mark.parametrize("argv, banks, solvers", [
        # the search and the detachment questions, a bank and a solver each
        (("kb", "comply", FIXTURES / "gdpr_e.kb", "--logic", "e", "--complete"), 2, 2),
        # the search, whose bank the MUS shrinks with one solver per check
        (("kb", "consistency", FIXTURES / "gdpr_sdl.kb", "--logic", "sdl", "--complete"),
         1, 16),
        # both, with the detachment questions' bank and solver
        (("kb", "comply", FIXTURES / "gdpr_sdl.kb", "--logic", "sdl", "--complete"), 2, 17),
        (("kb", "comply", FIXTURES / "chisholm_sdl.kb", "--logic", "sdl", "--complete"),
         2, 12),
    ], ids=["comply-e", "consistency-sdl", "comply-sdl-gdpr", "comply-sdl-chisholm"])
    def test_one_solver_per_decision(self, argv, banks, solvers, builds):
        run_json(*argv)
        assert (builds["banks"], builds["solvers"]) == (banks, solvers)


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = [case for name in ("kb_complete_reports.json", "translate_reports.json")
          for case in json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))]
SURFACE = json.loads((GOLDEN_DIR / "cli_surface.json").read_text(encoding="utf-8"))


class TestGoldenReports:
    """Complete-mode reports on every fixture KB and `translate` reports
    on seeded random formulas, frozen: verdicts, canonical first
    witnesses, MUS labels, normal forms, reduction steps, first-order
    and TPTP text, exit codes and stderr."""

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"][:3] + c["argv"][-4:-3]))
    def test_report_is_unchanged(self, case, monkeypatch):
        monkeypatch.delenv("DEON_NODE_BUDGET", raising=False)
        argv = [str(FIXTURES.parent / a) if a.startswith("fixtures/") else a
                for a in case["argv"]]
        result = runner.invoke(cli.main, argv)
        assert (result.exit_code, result.stderr) == (case["exit"], case["stderr"])
        if case["report"] is None:
            assert result.stdout == ""
        else:
            report = json.loads(result.stdout)
            del report["timing_ms"]
            assert json.dumps(report, indent=2) == json.dumps(case["report"], indent=2)


class TestCliSurface:
    """Help texts, usage errors and accepted spellings of every command,
    frozen byte for byte: exit code, stdout and stderr."""

    @pytest.mark.parametrize("case", SURFACE, ids=lambda c: " ".join(c["argv"]) or "(none)")
    def test_surface_is_unchanged(self, case, monkeypatch):
        monkeypatch.delenv("DEON_NODE_BUDGET", raising=False)
        monkeypatch.chdir(FIXTURES.parent)
        result = runner.invoke(cli.main, case["argv"])
        assert ((result.exit_code, result.stdout, result.stderr)
                == (case["exit"], case["stdout"], case["stderr"]))


class TestNoRuntimeDependency:
    def test_the_cli_imports_without_click(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(FIXTURES.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys, deon.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout == "[]\n"

    def test_usage_names_the_program(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["/usr/local/bin/deon"])
        with pytest.raises(SystemExit) as got:
            cli.entry(["check"])
        assert got.value.code == 3
        assert capsys.readouterr().err.startswith("Usage: deon check [OPTIONS] TEXT\n")
