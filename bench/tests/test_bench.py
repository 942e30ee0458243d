"""Self-tests of the benchmark: generators, expected answers, span
arithmetic, outcome classification and the ladder's stopping rule.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from deon import cli  # noqa: E402
from deon import formula as F  # noqa: E402
from deon import search as SE  # noqa: E402
from deon import semantics as S  # noqa: E402


def _snapshot(workload: str, seed: int, work: Path):
    work.mkdir()
    wl = gen.WORKLOADS[workload](seed, work)
    argvs = [[a.replace(str(work), "<work>") for a in q.argv] for q in wl.queries]
    files = {p.name: p.read_text() for p in sorted(work.iterdir())}
    warmup = [[a.replace(str(work), "<work>") for a in w] for w in wl.warmup]
    return argvs, files, warmup


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    a = _snapshot(workload, 7, tmp_path / "a")
    b = _snapshot(workload, 7, tmp_path / "b")
    c = _snapshot(workload, 8, tmp_path / "c")
    assert a == b
    assert a[0] != c[0]


def test_ladder_families_match_fixture_shape():
    assert gen.chisholm_kb(1, "e").count(": O{") == 3
    assert gen.gdpr_kb(3, "sdl").count("\nd") == 3


def _sdl_render(norms, facts):
    """The SDL grounding of kb.py: O{b|true} -> O b, else c -> O b, O(c -> b)."""
    out = []
    for label, body, cond in norms:
        if cond == gen.TRUE:
            out.append((label, ("O", body)))
        else:
            out += [(label + ":fd", ("imp", cond, ("O", body))),
                    (label + ":dd", ("O", ("imp", cond, body)))]
    return out + [(f"fact{i}", f) for i, f in enumerate(facts, 1)]


def _e_render(norms, facts):
    return ([(label, ("O2", body, cond)) for label, body, cond in norms]
            + [(f"fact{i}", ("box", f)) for i, f in enumerate(facts, 1)])


@pytest.mark.parametrize("family", ["gdpr", "chisholm"])
def test_kb_answers_by_construction_match_brute_force(family):
    # E: consistent, and neither false nor the unrelated goal is entailed.
    norms, facts = gen.kb_norms(f"{family}_e", 1)
    e = [f for _, f in _e_render(norms, facts)]
    assert oracle.brute_model(e, "e", 2)
    unrelated = (("O2", gen.atom("w"), gen.atom("p2")) if family == "chisholm"
                 else ("O", gen.atom("kill", "d1")))
    assert oracle.brute_model(e + [("not", unrelated)], "e", 2)
    # SDL: the by-construction core is unsatisfiable up to the bound and
    # every proper subset of it is satisfiable.
    norms, facts = gen.kb_norms(f"{family}_sdl", 1)
    rendered = dict(_sdl_render(norms, facts))
    core = gen.ladder_expect(family, "sdl")["mus"]
    assert not oracle.brute_model([rendered[label] for label in core], "sdl", 2)
    for drop in core:
        assert oracle.brute_model([rendered[l] for l in core if l != drop], "sdl", 2)


def _prop_entails(premises, goal) -> bool:
    """Truth-table entailment over the generator's tuples."""
    atoms = sorted({(g[1], g[2]) for f in (*premises, goal) for g in oracle._walk(f)
                    if g[0] == "a"})
    for bits in range(1 << len(atoms)):
        m = oracle.Model(1, [1], {a: bits >> i & 1 for i, a in enumerate(atoms)})
        if all(oracle.truth(p, m, "e") for p in premises) and not oracle.truth(goal, m, "e"):
            return False
    return True


@pytest.mark.parametrize("family,logic,n", [("gdpr", "e", 2), ("gdpr", "sdl", 2),
                                            ("chisholm", "e", 3), ("chisholm", "sdl", 2)])
def test_compliance_answers_match_truth_tables(family, logic, n):
    norms, facts = gen.kb_norms(f"{family}_{logic}", n)
    detached = sorted(label for label, _, cond in norms if _prop_entails(facts, cond))
    violated = sorted(label for label, body, cond in norms
                      if label in detached and _prop_entails(facts, ("not", body)))
    exp = gen.compliance_expect(family, n, logic)
    assert (exp["detached"], exp["violations"]) == (detached, violated)


@pytest.mark.parametrize("name", sorted(gen.SCHEMAS))
def test_schema_table_matches_brute_force(name):
    f, valid = gen.SCHEMAS[name]
    assert oracle.brute_check(f, "e", gen.SCHEMA_BOUND[name]) == valid


@pytest.mark.parametrize("logic", ["e", "sdl"])
def test_oracle_evaluator_agrees_with_semantics(logic):
    rng = random.Random(3)
    sig = F.Signature({"p": 0, "q": 0, "r": 0})
    for _ in range(40):
        f = gen.random_formula(rng, 3, logic)
        g = F.parse(gen.text(f), sig, logic=logic)
        it = (S.iter_preference_models(2, gen.PROP_ATOMS) if logic == "e"
              else S.iter_serial_kripke_models(2, gen.PROP_ATOMS))
        for i, m in enumerate(it):
            if i % 7 == 0:
                assert oracle.truth(f, oracle.Model.from_semantics(m), logic) == \
                    S.Evaluator(m, logic).mask(g)


def test_self_time_on_a_synthetic_span_tree():
    sp = tracing.Spans()
    rows = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1),
            ("a", 5.0, 9.0, 0), ("c", 6.0, 6.5, 3)]
    for name, start, end, parent in rows:
        sp.name.append(sp.name_id(name))
        sp.start.append(start)
        sp.end.append(end)
        sp.parent.append(parent)
        sp.qid.append(0)
    assert sp.self_times() == {"root": (3.0, 1), "a": (5.5, 2), "b": (1.0, 1),
                               "c": (0.5, 1)}
    assert sp.count_nested("b", "root") == 1
    assert sp.count_nested("c", "a") == 1
    assert sp.count_nested("root", "a") == 0


def test_traced_wrappers_record_outermost_calls_and_restore():
    sp = tracing.Spans()
    mods = {m: sys.modules[f"deon.{m}"] for m in ("formula", "kb", "search", "semantics",
                                                   "lam", "embed")}
    original = SE.find_model
    saved = tracing.install(sp, mods)
    try:
        r = CliRunner().invoke(cli.main, ["model", "p", "--bound", "1"])
    finally:
        tracing.uninstall(saved)
    assert r.exit_code == 0
    assert SE.find_model is original and "counted_init" not in repr(S.Evaluator.__init__)
    times = sp.self_times()
    assert times["search.find_model"][1] == 1
    assert times["semantics.Evaluator"][1] >= 1
    assert sp.counts["semantics.Evaluator.instances"] >= 1


def _query(kind="model"):
    return gen.Query(0, [], kind, {"logic": "e", "bound": 2, "sat": True}, (gen.p,))


def test_budget_exceeded_with_empty_stdout_is_budget(monkeypatch):
    monkeypatch.setenv("DEON_NODE_BUDGET", "10")
    r = CliRunner().invoke(cli.main, ["model", "p & ~p", "--bound", "3", "--format", "json"])
    assert r.exit_code == 2 and r.stdout == ""
    exc = type(r.exception).__name__
    assert oracle.classify(_query(), r.exit_code, exc, r.stdout, r.stderr, None) == "budget"


@pytest.mark.parametrize("argv,outcome", [
    (["model", "p", "--sig", "pred p", "--format", "json"], "crash"),
    (["model", "p", "--signature", "pred p/0", "--format", "json"], "no_report"),
    (["model", "p", "--bound", "x", "--format", "json"], "no_report"),
])
def test_broken_argv_is_never_a_budget_overrun(argv, outcome):
    r = CliRunner().invoke(cli.main, argv)
    assert r.stdout == ""
    exc = type(r.exception).__name__
    assert oracle.classify(_query(), r.exit_code, exc, r.stdout, r.stderr, None) == outcome


def test_empty_exit_2_counts_as_budget_only_with_the_budget_message():
    q = _query()
    assert oracle.classify(q, 2, "SystemExit", "", "budget exceeded: 10 nodes", None) == "budget"
    assert oracle.classify(q, 2, "SystemExit", "", "Error: no such option", None) == "no_report"


def test_raised_memory_error_is_a_crash_not_a_verdict(monkeypatch):
    def boom(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(SE, "find_model", boom)
    r = CliRunner().invoke(cli.main, ["model", "p", "--format", "json"])
    assert r.exit_code == 1  # the exit code of a negative verdict
    assert oracle.classify(_query(), r.exit_code, type(r.exception).__name__,
                           r.stdout, r.stderr, None) == "crash"


def test_timeouts_input_errors_and_wrong_verdicts():
    q = _query()
    assert oracle.classify(q, 1, "WallTimeout", "", "", None) == "budget"
    assert oracle.classify(q, 3, "SystemExit", "", "error: bad", None) == "no_report"
    assert oracle.classify(q, 0, None, "not json", "", None) == "no_report"
    rep = '{"verdict": "no_model_up_to", "bound_used": 2}'
    orc = oracle.Oracle(ROOT / "fixtures")
    assert oracle.classify(q, 2, "SystemExit", rep, "", orc) == "wrong"


class _LadderProgram:
    """Stands in for run.Program: decides each family up to ``limits``,
    then overruns the node budget; ``odd`` maps (family, N) to the
    (exit code, exception) of a step that ends otherwise."""

    def __init__(self, limits, odd):
        self.limits, self.odd, self.steps = limits, odd, []

    def invoke(self, argv, cap, spans=None):
        family, n = Path(argv[2]).stem.rsplit("_", 1)
        n = int(n)
        self.steps.append((family, n))
        if (family, n) in self.odd:
            code, exc = self.odd[family, n]
            return 0.001, code, exc, "", ""
        if n > self.limits[family]:
            return 0.001, 2, "SystemExit", "", "budget exceeded: node budget"
        exp = gen.ladder_expect(family, gen.LADDER_FAMILIES[family][1])
        rep = json.dumps({"verdict": exp["verdict"], "mus": exp["mus"]})
        return 0.001, exp["exit"], "SystemExit" if exp["exit"] else None, rep, ""


def test_ladder_ends_each_family_at_its_own_first_undecided_step(tmp_path, capsys):
    limits = {"gdpr_sdl": 2, "chisholm_sdl": 2, "gdpr_e": 3, "chisholm_e": 9}
    odd = {("gdpr_sdl", 2): (1, "MemoryError"), ("gdpr_e", 4): (1, "WallTimeout")}
    prog = _LadderProgram(limits, odd)
    max_n, curve, failures = run.ladder(prog, tmp_path, None)
    assert max_n == {"gdpr_sdl": 1, "chisholm_sdl": 2, "gdpr_e": 3, "chisholm_e": 9}
    assert failures == ["gdpr_sdl N=2: crash"]
    assert "gdpr_e N=4 was ended by the 20 s wall cap" in capsys.readouterr().out
    assert ("chisholm_e", 10) in prog.steps and ("chisholm_e", 11) not in prog.steps
    assert sorted(curve["gdpr_sdl"]) == [1, 2]


def test_best_times_take_each_pass_at_its_own_scale():
    t = run.Tally()
    t.add_pass([(0, 0.010), (1, 0.100)], 1.0)
    t.add_pass([(0, 0.016), (1, 0.060)], 0.5)
    assert t.attempted == 4
    assert t.best() == pytest.approx([0.008, 0.030])
    assert t.best(raw=True) == pytest.approx([0.010, 0.060])
    assert 0.0 < run.Reference().scale(3)
