"""Knowledge bases: format, grounding, and the reasoning tasks."""

from __future__ import annotations

import random
import time
import tracemalloc
from pathlib import Path

import pytest

from deon import formula as F
from deon import kb as KB
from deon import search as SE
from deon import semantics as S

from helpers import P, Q, R, brute_sat

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CFG_E = SE.SearchConfig(logic="e")
CFG_EC = SE.SearchConfig(logic="e", complete=True)
CFG_SC = SE.SearchConfig(logic="sdl", complete=True)

MINIMAL_GDPR = """
# the scenario exactly as published: three rules, one situation fact
[signature]
pred process_lawfully/1
pred erase/1
pred is_protected_by_GDPR/1
[individuals]
d1
[norms]
a1: O{ process_lawfully(d) | is_protected_by_GDPR(d) } forall d
a2: O{ erase(d) | is_protected_by_GDPR(d) & ~process_lawfully(d) } forall d
a3: O{ ~erase(d) | is_protected_by_GDPR(d) & process_lawfully(d) } forall d
[facts]
~process_lawfully(d1)
"""


def load(name):
    return KB.load_kb((FIXTURES / name).read_text())


class TestLoad:
    def test_minimal_gdpr_shape(self):
        base = KB.load_kb(MINIMAL_GDPR)
        assert len(base.norms) == 3
        assert len(base.facts) == 1
        assert base.individuals == ("d1",)

    def test_empty_norms_allowed(self):
        base = KB.load_kb("[signature]\npred p/0\n[facts]\np\n")
        assert base.norms == () and len(base.facts) == 1

    def test_undeclared_predicate_rejected(self):
        with pytest.raises(KB.KBError, match="unknown predicate"):
            KB.load_kb("[signature]\npred p/0\n[facts]\nq\n")

    def test_duplicate_norm_ids_rejected(self):
        text = "[signature]\npred p/0\n[norms]\nn1: O{ p | true }\nn1: O{ ~p | true }\n"
        with pytest.raises(KB.KBError, match="duplicate norm id"):
            KB.load_kb(text)

    def test_error_carries_line(self):
        with pytest.raises(KB.KBError, match="line 3"):
            KB.load_kb("[signature]\npred p/0\nnot a pred line\n")

    def test_modal_fact_rejected(self):
        with pytest.raises(KB.KBError, match="Boolean"):
            KB.load_kb("[signature]\npred p/0\n[facts]\nbox p\n")

    def test_unbound_norm_variable_rejected(self):
        # a variable not covered by the norm's binders never resolves
        text = "[signature]\npred e/1\n[individuals]\nd1\n[norms]\nn: O{ e(d) | true }\n"
        with pytest.raises(KB.KBError, match="in norm n.*'d'"):
            KB.load_kb(text)

    def test_fixtures_parse(self):
        for name in ("gdpr_sdl.kb", "gdpr_e.kb", "chisholm_sdl.kb",
                     "chisholm_e.kb", "gdpr_e_protected.kb"):
            base = load(name)
            assert base.norms and base.facts


class TestGround:
    def test_gdpr_ctd_rule_instance(self):
        base = KB.load_kb(MINIMAL_GDPR)
        grounded = {lf.label: lf.formula for lf in KB.ground_kb(base, "e")}
        d1 = F.Const("d1")
        assert grounded["a2[d1]"] == F.Oblig(
            F.Atom("erase", (d1,)),
            F.And(F.Atom("is_protected_by_GDPR", (d1,)),
                  F.Not(F.Atom("process_lawfully", (d1,)))))

    def test_unbound_norm_passes_through(self):
        base = KB.load_kb("[signature]\npred p/0\n[norms]\nn: O{ p | true }\n")
        (lf,) = KB.ground_kb(base, "e")
        assert lf.label == "n" and lf.formula == F.Oblig(F.Atom("p"), F.TOP)

    def test_two_individuals_double_bound_norms(self):
        text = MINIMAL_GDPR.replace("d1\n[norms]", "d1\nd2\n[norms]")
        base = KB.load_kb(text)
        labels = [lf.label for lf in KB.ground_kb(base, "e")]
        assert labels.count("a1[d1]") == 1 and labels.count("a1[d2]") == 1

    def test_monotone_in_individuals(self):
        base = KB.load_kb(MINIMAL_GDPR)
        bigger = KB.KnowledgeBase(
            F.Signature(dict(base.signature.predicates),
                        base.signature.constants | {"d2"}),
            base.individuals + ("d2",), base.norms, base.facts)
        small = {lf.label for lf in KB.ground_kb(base, "e")}
        large = {lf.label for lf in KB.ground_kb(bigger, "e")}
        assert small <= large

    def test_facts_wrapped_as_settled_in_e(self):
        base = KB.load_kb(MINIMAL_GDPR)
        grounded = {lf.label: lf.formula for lf in KB.ground_kb(base, "e")}
        assert isinstance(grounded["fact1"], F.Box)

    def test_sdl_rendering_is_the_detachment_pair(self):
        base = KB.load_kb("[signature]\npred p/0\npred b/0\n"
                          "[norms]\nn: O{ b | p }\n")
        grounded = {lf.label: lf.formula for lf in KB.ground_kb(base, "sdl")}
        assert grounded["n:fd"] == F.Implies(F.Atom("p"), F.ObligM(F.Atom("b")))
        assert grounded["n:dd"] == F.ObligM(F.Implies(F.Atom("p"), F.Atom("b")))

    def test_empty_domain_with_binders_rejected(self):
        text = ("[signature]\npred e/1\n[norms]\nn: O{ e(d) | true } forall d\n")
        base = KB.load_kb(text)
        with pytest.raises(KB.KBError, match="empty"):
            KB.ground_kb(base, "e")


class TestConsistency:
    def test_gdpr_e_has_a_model(self):
        result = KB.consistency(load("gdpr_e.kb"), CFG_E)
        assert isinstance(result.verdict, SE.ModelFound)
        assert result.verdict.model.n <= 3

    def test_gdpr_sdl_inconsistent_with_core(self):
        result = KB.consistency(load("gdpr_sdl.kb"), CFG_SC)
        assert isinstance(result.verdict, SE.DecidedUnsatisfiable)
        # under validity-based consistency the violated primary
        # obligation alone already clashes with the settled violation
        assert result.mus == ("a1[d1]", "fact1")

    def test_empty_kb_consistent(self):
        base = KB.load_kb("[signature]\npred p/0\n")
        result = KB.consistency(base, CFG_EC)
        assert isinstance(result.verdict, SE.ModelFound)

    def test_agrees_with_raw_search(self):
        base = load("chisholm_e.kb")
        grounded = [lf.formula for lf in KB.ground_kb(base, "e")]
        assert KB.consistency(base, CFG_EC).verdict == SE.find_model(grounded, CFG_EC)

    def test_entailment_agrees_with_raw_search(self):
        base = load("gdpr_e.kb")
        goal = F.parse("O kill(mary)", base.signature, "e")
        grounded = [lf.formula for lf in KB.ground_kb(base, "e")]
        assert KB.entailment(base, goal, CFG_E).verdict == \
            SE.entails(grounded, goal, CFG_E)


class TestEntailment:
    def test_kb_entails_its_facts(self):
        base = load("gdpr_e.kb")
        fact = F.parse("~process_lawfully(d1)", base.signature, "e")
        result = KB.entailment(base, fact, CFG_EC)
        assert isinstance(result.verdict, SE.Valid)

    def test_quantified_query_is_grounded(self):
        base = load("gdpr_e.kb")
        q = F.parse("forall d. ~process_lawfully(d)", base.signature, "e")
        result = KB.entailment(base, q, CFG_E)
        assert isinstance(result.verdict, SE.CountermodelFound)


class TestCompliance:
    def test_gdpr_protected_scenario(self):
        report = KB.compliance(load("gdpr_e_protected.kb"), CFG_E)
        detached = {label: F.print_formula(f) for label, f in report.detached}
        assert detached == {"a1[d1]": "process_lawfully(d1)",
                            "a2[d1]": "erase(d1)"}
        assert [label for label, _ in report.violations] == ["a1[d1]"]
        assert report.consistent and not report.compliant

    def test_erasing_adds_no_violation(self):
        text = (FIXTURES / "gdpr_e_protected.kb").read_text() + "\nerase(d1)\n"
        report = KB.compliance(KB.load_kb(text), CFG_E)
        assert [label for label, _ in report.violations] == ["a1[d1]"]

    def test_no_facts_no_detachment(self):
        base = KB.load_kb("[signature]\npred p/0\npred b/0\n[norms]\nn: O{ b | p }\n")
        report = KB.compliance(base, CFG_E)
        assert report.detached == () and report.compliant

    def test_prohibition_violated_by_fact(self):
        base = KB.load_kb("[signature]\npred bad/0\n[norms]\nn: F{ bad | true }\n"
                          "[facts]\nbad\n")
        report = KB.compliance(base, CFG_E)
        assert [label for label, _ in report.violations] == ["n"]

    def test_violations_subset_of_detached(self):
        rng = random.Random(23)
        preds = ["p", "q", "r", "s"]
        for _ in range(40):
            lines = ["[signature]"] + [f"pred {p}/0" for p in preds] + ["[norms]"]
            for i in range(rng.randint(1, 3)):
                body = rng.choice(preds)
                cond = rng.choice(preds + ["true"])
                kind = rng.choice(["O", "F"])
                lines.append(f"n{i}: {kind}{{ {body} | {cond} }}")
            lines.append("[facts]")
            facts = [rng.choice([p, "~" + p]) for p in rng.sample(preds, rng.randint(0, 2))]
            lines += facts
            base = KB.load_kb("\n".join(lines) + "\n")
            report = KB.compliance(base, CFG_E)
            labels = {label for label, _ in report.detached}
            assert all(label in labels for label, _ in report.violations)
            # antitone under fact removal: dropping a fact never creates
            # a new violation for the surviving detached instances
            if facts:
                smaller = KB.KnowledgeBase(base.signature, base.individuals,
                                           base.norms, base.facts[:-1])
                rep2 = KB.compliance(smaller, CFG_E)
                assert {l for l, _ in rep2.violations} <= {l for l, _ in report.violations}

    def test_contradictory_facts_rejected(self):
        base = KB.load_kb("[signature]\npred p/0\n[facts]\np\n~p\n")
        with pytest.raises(KB.KBError, match="contradictory"):
            KB.compliance(base, CFG_E)


def boolean_formula(rng: random.Random, depth: int) -> F.Formula:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([P, Q, R, F.TOP, F.BOT])
    if rng.random() < 0.25:
        return F.Not(boolean_formula(rng, depth - 1))
    ctor = rng.choice([F.And, F.Or, F.Implies, F.Iff])
    return ctor(boolean_formula(rng, depth - 1), boolean_formula(rng, depth - 1))


class TestPropEntails:
    def test_agrees_with_enumeration(self):
        rng = random.Random(31)
        for _ in range(1200):
            premises = [boolean_formula(rng, 3) for _ in range(rng.randint(0, 3))]
            goal = boolean_formula(rng, 3)
            counter = F.Not(goal)
            for p in premises:
                counter = F.And(p, counter)
            assert KB.prop_entails(premises, goal) == \
                (not brute_sat("e", [], [counter], max_n=1))

    def test_modal_premise_rejected(self):
        with pytest.raises(KB.KBError, match="Boolean"):
            KB.prop_entails([F.Box(P)], Q)

    def test_no_atom_cap(self):
        # 41 atoms, past the 2^22-row truth table of the old procedure
        atoms = [F.Atom(f"a{i}") for i in range(41)]
        chain = [F.Implies(a, b) for a, b in zip(atoms, atoms[1:])]
        assert KB.prop_entails(chain + [atoms[0]], atoms[-1])
        assert not KB.prop_entails(chain, atoms[-1])
        assert not KB.prop_entails(chain + [atoms[0]], F.Not(atoms[-1]))
        assert KB.prop_entails(chain + [atoms[0], F.Not(atoms[-1])], F.BOT)


class TestCtdSignature:
    """The central behavioral contrast at corpus scale (spot size here;
    the acceptance suite runs the full hundred)."""

    def test_quadruples_split_the_logics(self):
        rng = random.Random(29)
        for _ in range(10):
            a, e = rng.sample(["p", "q", "r", "s", "t"], 2)
            text = (f"[signature]\npred {a}/0\npred {e}/0\n[norms]\n"
                    f"n1: O{{ {a} | true }}\n"
                    f"n2: O{{ ~{e} | {a} }}\n"
                    f"n3: O{{ {e} | ~{a} }}\n"
                    f"[facts]\n~{a}\n")
            base = KB.load_kb(text)
            sdl = KB.consistency(base, CFG_SC)
            assert isinstance(sdl.verdict, SE.DecidedUnsatisfiable)
            e_res = KB.consistency(base, CFG_E)
            assert isinstance(e_res.verdict, SE.ModelFound)


def gdpr_kb(n: int, logic: str) -> str:
    """GDPR-N: the shipped GDPR scenario over individuals d1..dN (dyadic
    reading in E, the monadic one of gdpr_sdl.kb in SDL)."""
    if logic == "e":
        norms = ["a1: O{ process_lawfully(d) | is_protected_by_GDPR(d) } forall d",
                 "a2: O{ erase(d) | is_protected_by_GDPR(d) & ~process_lawfully(d) } forall d",
                 "a3: O{ ~erase(d) | is_protected_by_GDPR(d) & process_lawfully(d) } forall d"]
        facts = ["~process_lawfully(d1)"]
    else:
        norms = ["a1: O{ process_lawfully(d) | true } forall d",
                 "a2: O{ ~erase(d) | process_lawfully(d) } forall d",
                 "a3: O{ erase(d) | ~process_lawfully(d) } forall d"]
        facts = ["~process_lawfully(d1)", "is_protected_by_GDPR(d1)"]
    preds = ["process_lawfully", "erase", "is_protected_by_GDPR", "kill"]
    return "\n".join(["[signature]"] + [f"pred {p}/1" for p in preds]
                     + ["[individuals]"] + [f"d{i}" for i in range(1, n + 1)]
                     + ["[norms]"] + norms + ["[facts]"] + facts) + "\n"


def gdpr_facts_kb(n: int) -> str:
    """GDPR-E-N with ~process_lawfully(di) and is_protected_by_GDPR(di)
    for every individual: 2N fact atoms."""
    return gdpr_kb(n, "e") + "".join(
        [f"~process_lawfully(d{i})\n" for i in range(2, n + 1)]
        + [f"is_protected_by_GDPR(d{i})\n" for i in range(1, n + 1)])


def chisholm_kb(n: int) -> str:
    """Chisholm-N: O{p1|true}, O{p(i+1)|pi}, O{~p(i+1)|~pi}, fact ~p1."""
    lines = ["[signature]"] + [f"pred p{i}/0" for i in range(1, n + 2)] + ["[norms]"]
    lines.append("c0: O{ p1 | true }")
    for i in range(1, n + 1):
        lines += [f"t{i}: O{{ p{i + 1} | p{i} }}", f"n{i}: O{{ ~p{i + 1} | ~p{i} }}"]
    return "\n".join(lines + ["[facts]", "~p1"]) + "\n"


class TestScaling:
    """Complete mode on the GDPR-N and Chisholm-N families, at sizes the
    2^k-bit type masks of the old System E procedure could not reach."""

    @pytest.mark.parametrize("family", ["gdpr", "chisholm"])
    def test_e_at_forty_individuals(self, family):
        base = KB.load_kb(gdpr_kb(40, "e") if family == "gdpr" else chisholm_kb(40))
        for task in ("consistency", "entail", "comply"):
            t0 = time.perf_counter()
            if task == "consistency":
                assert isinstance(KB.consistency(base, CFG_EC).verdict, SE.ModelFound)
            elif task == "entail":
                verdict = KB.entailment(base, F.BOT, CFG_EC).verdict
                assert isinstance(verdict, SE.CountermodelFound)
            else:
                report = KB.compliance(base, CFG_EC)
                assert report.consistent
                detached = [label for label, _ in report.detached]
                violated = [label for label, _ in report.violations]
                if family == "gdpr":  # the only fact satisfies no condition
                    assert detached == violated == []
                else:
                    assert (detached, violated) == (["c0", "n1"], ["c0"])
            assert time.perf_counter() - t0 < 2.0, task

    def test_unrelated_obligation_not_entailed_at_thirty(self):
        # the canonical re-scan over 91 atoms cannot finish; its own
        # allowance runs out and the constructed witness is returned
        base = KB.load_kb(gdpr_kb(30, "e"))
        goal = F.parse("O kill(d1)", base.signature, logic="e")
        t0 = time.perf_counter()
        verdict = KB.entailment(base, goal, CFG_EC).verdict
        assert isinstance(verdict, SE.CountermodelFound)
        assert time.perf_counter() - t0 < 15.0

    @pytest.mark.parametrize("n", [12, 30])
    def test_e_compliance_with_both_facts(self, n):
        # by construction: every a1 and a2 instance is detached, and only
        # a1 (process lawfully) is violated; 2N atoms are past the old
        # 22-atom cap of the truth-table detachment
        report = KB.compliance(KB.load_kb(gdpr_facts_kb(n)), CFG_EC)
        individuals = range(1, n + 1)
        assert [label for label, _ in report.detached] == \
            [f"a1[d{i}]" for i in individuals] + [f"a2[d{i}]" for i in individuals]
        assert [label for label, _ in report.violations] == \
            [f"a1[d{i}]" for i in individuals]
        assert report.consistent

    def test_compliance_runs_out_of_budget_not_memory(self, monkeypatch):
        monkeypatch.setenv("DEON_NODE_BUDGET", "1000")
        cfg = SE.SearchConfig(logic="e", complete=True)
        with pytest.raises(SE.BudgetExceeded):
            KB.compliance(KB.load_kb(gdpr_facts_kb(64)), cfg)

    def test_sdl_budget_is_charged_before_the_type_masks(self):
        # GDPR-SDL-6 has 2^31 types: a mask over them is a 256 MB integer
        base = KB.load_kb(gdpr_kb(6, "sdl"))
        tracemalloc.start()
        try:
            with pytest.raises(SE.BudgetExceeded):
                KB.consistency(base, CFG_SC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
