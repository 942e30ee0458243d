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

import oracles
from helpers import P, Q, R, brute_sat, record_budgets

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CFG_E = SE.SearchConfig(logic="e")
CFG_EC = SE.SearchConfig(logic="e", complete=True)
CFG_SC = SE.SearchConfig(logic="sdl", complete=True)
CFG_EC_100K = SE.SearchConfig(logic="e", complete=True, node_budget=100_000)

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

    def test_duplicate_individual_rejected_at_its_line(self):
        text = "[signature]\npred p/1\n[individuals]\nd1, d2\nd3 d1\n"
        with pytest.raises(KB.KBError) as err:
            KB.load_kb(text)
        assert str(err.value) == "line 5: duplicate individual 'd1'"

    @pytest.mark.parametrize("norm, error", [
        ("n1: O{ s(x) | true } forall x", "column 8: unknown predicate 's'"),
        ("n1: O{ s(a) | true }", "column 8: unknown predicate 's'"),
        ("  n1: O{ s(a) | true }", "column 10: unknown predicate 's'"),
        ("n1: O{ r(x, x) | true } forall x, x", "column 35: variable 'x' already bound"),
        # an error at the norm's own brace names its kind; an inner O{...} keeps its own
        ("n1: F{ r(a, a) | r( }", "column 5: unterminated F{...}"),
        ("n1: P{ r(a, a) | r( }", "column 5: unterminated P{...}"),
        ("n1: P{ r(a, a) }", "column 5: P{...} needs a '|' separating body and condition"),
        ("n1: F{ O{ r(a, a) } | true }", "column 8: O{...} needs a '|' separating body "
                                         "and condition"),
    ])
    def test_a_norm_error_names_its_column_in_the_line(self, norm, error):
        text = "[signature]\npred r/2\n[individuals]\na\n[norms]\n" + norm + "\n"
        with pytest.raises(KB.KBError) as err:
            KB.load_kb(text)
        assert str(err.value) == f"line 6: in norm n1: {error}"

    @pytest.mark.parametrize("fact, error", [
        ("   q", "column 4: unknown predicate 'q'"),
        ("r(a, a) & \tr(a, b)", "column 17: unknown constant 'b'"),
        ("  r(a, a) | # a comment", "column 13: expected a formula, found 'end of input'"),
    ])
    def test_a_fact_error_names_its_column_in_the_line(self, fact, error):
        text = "[signature]\npred r/2\n[individuals]\na\n[facts]\n" + fact + "\n"
        with pytest.raises(KB.KBError) as err:
            KB.load_kb(text)
        assert str(err.value) == f"line 6: {error}"

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

    def test_two_binders_ground_lexicographically(self):
        text = ("[signature]\npred r/2\npred q/1\n[individuals]\na\nb\nc\n"
                "[norms]\nn1: O{ r(x, y) | q(y) } forall x, y\n")
        base = KB.load_kb(text)
        pairs = [(x, y) for x in "abc" for y in "abc"]

        def r(x, y):
            return F.Atom("r", (F.Const(x), F.Const(y)))

        def q(y):
            return F.Atom("q", (F.Const(y),))

        assert [lf.label for lf in KB.ground_kb(base, "e")] == [
            "n1[a,a]", "n1[a,b]", "n1[a,c]", "n1[b,a]", "n1[b,b]", "n1[b,c]",
            "n1[c,a]", "n1[c,b]", "n1[c,c]"]
        assert KB.ground_kb(base, "e") == [KB.Labeled(f"n1[{x},{y}]", F.Oblig(r(x, y), q(y)))
                                           for x, y in pairs]
        assert KB.ground_kb(base, "sdl") == [
            lf for x, y in pairs for lf in (
                KB.Labeled(f"n1[{x},{y}]:fd", F.Implies(q(y), F.ObligM(r(x, y)))),
                KB.Labeled(f"n1[{x},{y}]:dd", F.ObligM(F.Implies(q(y), r(x, y)))))]

    def test_a_repeated_binder_takes_the_first_individual(self):
        # the file format refuses forall x, x; a norm built directly grounds
        # it, and the second binding finds no x left to substitute
        with pytest.raises(KB.KBError, match="variable 'x' already bound"):
            KB.load_kb("[signature]\npred r/2\n[individuals]\na\nb\n"
                       "[norms]\nn1: O{ r(x, x) | true } forall x, x\n")
        x = F.Var("x")
        norm = KB.Norm("n1", "obligation", F.Atom("r", (x, x)), F.TOP, ("x", "x"))
        base = KB.KnowledgeBase(F.Signature({"r": 2}, frozenset("ab")), ("a", "b"), (norm,), ())
        grounded = KB.ground_kb(base, "e")
        assert [lf.label for lf in grounded] == ["n1[a,a]", "n1[a,b]", "n1[b,a]", "n1[b,b]"]
        assert [lf.formula for lf in grounded] == [
            F.Oblig(F.Atom("r", (F.Const(c), F.Const(c))), F.TOP) for c in "aabb"]

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

    def test_questions_after_the_first_agree_with_the_truth_table(self):
        # disjunctive premises over two groups of atoms fall into one or
        # two components; a later question decides only the components
        # its goal meets, once goal 0 (false) finds the premises
        # satisfiable.  Three-literal clauses need decisions, not just
        # propagation, so a question that leaves out a component it
        # meets is caught
        rng = random.Random(37)
        groups = [[F.Atom(a) for a in "pqrs"], [F.Atom(a) for a in "tuvw"]]

        def literal(group):
            a = rng.choice(group)
            return a if rng.random() < 0.5 else F.Not(a)

        def anywhere():
            return literal(rng.choice(groups))

        asked = 0
        for _ in range(400):
            premises = []
            for _ in range(rng.randint(2, 12)):
                g = rng.choice(groups)
                premises.append(F.Or(F.Or(literal(g), literal(g)), literal(g)))
            goals = [rng.choice([anywhere, lambda: F.Or(anywhere(), anywhere()),
                                 lambda: F.And(anywhere(), anywhere())])() for _ in range(4)]
            entailed = KB._entailed(premises, [F.BOT] + goals, SE._Budget(10**6))
            if entailed(0):
                continue
            for j, goal in enumerate(goals, 1):
                asked += 1
                assert entailed(j) == KB.prop_entails(premises, goal) == \
                    (not brute_sat("e", premises, [F.Not(goal)], max_n=1))
        assert asked > 1000


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


@pytest.mark.parametrize("logic", ["sdl", "e"])
def test_the_families_compile_as_desugaring_first_did(logic):
    for n in (1, 2, 4, 8):
        for text in (gdpr_kb(n, logic), chisholm_kb(n)):
            fs = [lf.formula for lf in KB.ground_kb(KB.load_kb(text), logic)]
            bank = S.CompiledBank(fs, logic)
            got = (bank.ops, bank.roots, bank.atoms, bank.modal)
            assert got == oracles.desugared_bank(fs, logic)


class TestScaling:
    """Complete mode on the GDPR-N and Chisholm-N families, at sizes the
    explicit type masks of the old E and SDL procedures could not reach."""

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

    def test_loading_grows_linearly_in_the_individuals(self):
        def best_time(n):
            text = gdpr_kb(n, "e")
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                base = KB.load_kb(text)
                times.append(time.perf_counter() - t0)
            assert len(base.individuals) == n
            return min(times)

        # four times the individuals: about 4x the time when linear, 16x
        # when quadratic (a duplicate check against the list measured 14x)
        assert best_time(16_384) / best_time(4_096) < 8

    def test_unrelated_obligation_not_entailed_at_thirty(self):
        # the canonical re-scan over 91 atoms cannot finish; its own
        # allowance runs out and the constructed witness is returned
        base = KB.load_kb(gdpr_kb(30, "e"))
        goal = F.parse("O kill(d1)", base.signature, logic="e")
        t0 = time.perf_counter()
        verdict = KB.entailment(base, goal, CFG_EC).verdict
        assert isinstance(verdict, SE.CountermodelFound)
        assert time.perf_counter() - t0 < 15.0

    @pytest.mark.parametrize("n", [12, 30, 1024])
    def test_e_compliance_with_both_facts(self, n):
        # by construction: every a1 and a2 instance is detached, and only
        # a1 (process lawfully) is violated; 2N atoms are past the old
        # 22-atom cap of the truth-table detachment.  At N = 1024 it runs
        # under 100,000 units, which only a linear detachment fits
        cfg = CFG_EC if n < 1024 else CFG_EC_100K
        report = KB.compliance(KB.load_kb(gdpr_facts_kb(n)), cfg)
        individuals = range(1, n + 1)
        assert [label for label, _ in report.detached] == \
            [f"a1[d{i}]" for i in individuals] + [f"a2[d{i}]" for i in individuals]
        assert [label for label, _ in report.violations] == \
            [f"a1[d{i}]" for i in individuals]
        assert report.consistent

    def test_compliance_runs_out_of_budget_not_memory(self, monkeypatch):
        # detachment charges 2,051 units at N = 256, the search 3,840
        monkeypatch.setenv("DEON_NODE_BUDGET", "1000")
        cfg = SE.SearchConfig(logic="e", complete=True)
        with pytest.raises(SE.BudgetExceeded):
            KB.compliance(KB.load_kb(gdpr_facts_kb(256)), cfg)

    def test_detachment_grows_linearly(self, monkeypatch):
        # each question decides only the facts' atoms and its own, so four
        # times the individuals is about four times the units, where a
        # quadratic detachment would take about sixteen
        budgets = record_budgets(monkeypatch)

        def detachment_units(n):
            budgets.clear()
            KB.compliance(KB.load_kb(gdpr_facts_kb(n)), CFG_EC_100K)
            return budgets.units()[0]

        at_1024 = detachment_units(1024)
        assert at_1024 <= 10_000
        assert at_1024 <= 4.5 * detachment_units(256)

    def test_detachment_with_disjunctive_facts_grows_linearly(self, monkeypatch):
        # erase(di) | kill(di) leaves both atoms open for every individual;
        # a question decides only the ones its goal meets, so four times
        # the individuals is about four times the units (it was 15.7x
        # when each question decided every open fact atom)
        budgets = record_budgets(monkeypatch)

        def detachment_units(n):
            budgets.clear()
            text = gdpr_kb(n, "e") + "".join(f"erase(d{i}) | kill(d{i})\n"
                                             for i in range(1, n + 1))
            report = KB.compliance(KB.load_kb(text), CFG_EC_100K)
            assert report.detached == report.violations == ()
            return budgets.units()[0]

        assert detachment_units(256) <= 4.5 * detachment_units(64)

    def test_sdl_decided_without_type_masks(self):
        # GDPR-SDL-6 has 2^31 types: a mask over them would be a 256 MB
        # integer; the solver decides it in a few megabytes
        base = KB.load_kb(gdpr_kb(6, "sdl"))
        tracemalloc.start()
        try:
            result = KB.consistency(base, CFG_SC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(result.verdict, SE.DecidedUnsatisfiable)
        assert result.mus == ("a1[d1]", "fact1")
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("family", ["gdpr", "chisholm"])
    def test_sdl_at_sixty_four_individuals(self, family):
        # by construction: O p against the settled ~p is the only conflict
        base = KB.load_kb(gdpr_kb(64, "sdl") if family == "gdpr" else chisholm_kb(64))
        core = ("a1[d1]", "fact1") if family == "gdpr" else ("c0", "fact1")
        t0 = time.perf_counter()
        result = KB.consistency(base, CFG_SC)
        assert time.perf_counter() - t0 < 3.0
        assert isinstance(result.verdict, SE.DecidedUnsatisfiable)
        assert result.mus == core
