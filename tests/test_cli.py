"""Command-line interface: subcommands, exit codes, JSON reports."""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from deon import cli
from deon import formula as F

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

runner = CliRunner()


def run(*args):
    return runner.invoke(cli.main, [str(a) for a in args])


def run_json(*args):
    result = run(*args, "--format", "json")
    payload = json.loads(result.output)
    assert payload["schema"] == 1
    return result, payload


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
        model = tmp_path / "m.json"
        model.write_text(json.dumps({
            "kind": "preference", "worlds": [0], "relation": [[0, 0]],
            "valuation": {"p": [0]}, "domain": []}))
        assert run("eval", "p", "--model", model).exit_code == 0
        assert run("eval", "~p", "--model", model).exit_code == 1


class TestFailuresAreNotVerdicts:
    def program(self, *args):
        """Exit code of the ``deon`` program itself."""
        with pytest.raises(SystemExit) as got:
            cli.entry([str(a) for a in args])
        return got.value.code

    def test_recursion_exhaustion_exits_4(self, capsys):
        consts = ", ".join(f"a{i}" for i in range(1500))
        argv = ("check", "(forall x. P(x)) -> P(a0)", "--sig", f"pred P/1; const {consts}")
        assert isinstance(run(*argv).exception, RecursionError)
        assert self.program(*argv) == 4
        assert capsys.readouterr().err.startswith("internal error: RecursionError")

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


class TestJsonReports:
    def test_consistency_report_schema(self):
        r, payload = run_json("kb", "consistency", FIXTURES / "gdpr_sdl.kb",
                              "--logic", "sdl", "--complete")
        assert r.exit_code == 1
        assert payload["verdict"] == "unsatisfiable"
        assert payload["mus"] == ["a1[d1]", "fact1"]
        assert payload["complete"] is True
        assert isinstance(payload["timing_ms"], float)

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
        model = tmp_path / "m.json"
        model.write_text(json.dumps({
            "kind": "preference", "worlds": [0], "relation": [[0, 0]],
            "valuation": {"p": [0]}, "domain": []}))
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


class TestCorrespondence:
    def test_cv_with_transitivity(self):
        r = run("correspondence", "cv", "--frame", "transitive", "--bound", "2")
        assert r.exit_code == 0
        assert "True" in r.output

    def test_unknown_frame_rejected(self):
        r = run("correspondence", "cv", "--frame", "shiny")
        assert r.exit_code == 3


GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" /
                     "kb_complete_reports.json").read_text(encoding="utf-8"))


class TestGoldenReports:
    """Complete-mode reports on every fixture KB, frozen: verdicts,
    canonical first witnesses, MUS labels, exit codes and stderr."""

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
