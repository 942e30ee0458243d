"""Acceptance suite: one test per criterion, one pass line per run.

Every expected value here is either copied from the published scenario
(verdicts of the data-protection experiments), asserted directly, or
frozen from an enumeration oracle in this repository (model sizes,
witness shapes); nothing is tuned to the implementation after the fact.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

import pytest

from deon import embed as E
from deon import formula as F
from deon import kb as KB
from deon import lam as L
from deon import search as SE
from deon import semantics as S

import oracles
from helpers import gen_formula, gen_model, gen_typed_term

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

P, Q, R = F.Atom("p"), F.Atom("q"), F.Atom("r")
CFG_E = SE.SearchConfig(logic="e")
CFG_EC = SE.SearchConfig(logic="e", complete=True)
CFG_SC = SE.SearchConfig(logic="sdl", complete=True)


def report(num: int, text: str):
    print(f"[criterion {num}] PASS  {text}")


def load(name: str) -> KB.KnowledgeBase:
    return KB.load_kb((FIXTURES / name).read_text())


def test_criterion_1_gdpr_sdl_fails_as_published():
    t0 = time.perf_counter()
    base = load("gdpr_sdl.kb")
    consistency = KB.consistency(base, CFG_SC)
    assert isinstance(consistency.verdict, SE.DecidedUnsatisfiable)
    assert consistency.mus  # inconsistency explained by a minimal core

    falsum = KB.entailment(base, F.BOT, CFG_SC)
    assert isinstance(falsum.verdict, SE.Valid)

    kill = F.parse("O kill(mary)", base.signature, logic="sdl")
    killed = KB.entailment(base, kill, CFG_SC)
    assert isinstance(killed.verdict, SE.Valid)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"SDL reading: inconsistent, falsum and O kill(mary) both "
              f"derivable ({elapsed:.2f}s)")


def test_criterion_2_gdpr_e_succeeds_as_published():
    t0 = time.perf_counter()
    base = load("gdpr_e.kb")
    consistency = KB.consistency(base, CFG_E)
    assert isinstance(consistency.verdict, SE.ModelFound)
    assert consistency.verdict.model.n <= 3
    # frozen regression value: the canonical first model has one world
    assert consistency.verdict.model.n == 1

    kill = F.parse("O kill(mary)", base.signature, logic="e")
    killed = KB.entailment(base, kill, CFG_E)
    assert isinstance(killed.verdict, SE.CountermodelFound)
    grounded = [lf.formula for lf in KB.ground_kb(base, "e")]
    ev = S.Evaluator(killed.verdict.model, "e")
    assert all(ev.valid(f) for f in grounded)
    assert not ev.holds(kill, killed.verdict.world)

    falsum = KB.entailment(base, F.BOT, CFG_E)
    assert isinstance(falsum.verdict, SE.CountermodelFound)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"E reading: 1-world model, O kill(mary) and falsum both "
              f"non-entailed with countermodels ({elapsed:.2f}s)")


def _axiom_instances():
    """Axiom schemata of the dyadic system, instantiated over p, q, r."""
    atoms = [P, Q, R]
    pairs = list(itertools.product(atoms, repeat=2))
    perms = list(itertools.permutations(atoms))
    instances: list[F.Formula] = []
    # propositional tautologies
    instances += [F.Or(P, F.Not(P)),
                  F.Implies(F.Implies(F.Implies(P, Q), P), P),
                  F.Not(F.And(Q, F.Not(Q)))]
    # K, 4, 5 for the settledness box
    instances += [F.Implies(F.Box(F.Implies(a, b)),
                            F.Implies(F.Box(a), F.Box(b))) for a, b in pairs]
    instances += [F.Implies(F.Box(a), F.Box(F.Box(a))) for a in atoms]
    instances += [F.Implies(F.Not(F.Box(a)), F.Box(F.Not(F.Box(a)))) for a in atoms]
    # COK
    instances += [F.Implies(F.Oblig(F.Implies(b, c), a),
                            F.Implies(F.Oblig(b, a), F.Oblig(c, a)))
                  for a, b, c in perms]
    # Id
    instances += [F.Oblig(a, a) for a in atoms]
    # Sh
    instances += [F.Implies(F.Oblig(c, F.And(a, b)),
                            F.Oblig(F.Implies(b, c), a)) for a, b, c in perms]
    # Abs
    instances += [F.Implies(F.Oblig(b, a), F.Box(F.Oblig(b, a))) for a, b in pairs]
    # Nec (the rule's axiomatic companion)
    instances += [F.Implies(F.Box(b), F.Oblig(b, a)) for a, b in pairs]
    # Ext
    instances += [F.Implies(F.Box(F.Iff(a, b)),
                            F.Iff(F.Oblig(c, a), F.Oblig(c, b)))
                  for a, b, c in perms]
    return instances


def test_criterion_3_system_e_soundness_exhaustive():
    t0 = time.perf_counter()
    instances = _axiom_instances()
    bank = S.CompiledBank(instances, "e")
    assert set(bank.atoms) <= {("p", ()), ("q", ()), ("r", ())}
    slot = {a: i for i, a in enumerate(bank.atoms)}
    order = [slot[k] for k in (("p", ()), ("q", ()), ("r", ()))]

    counts = {"all": 0, "reflexive": 0, "total": 0}
    for n in (1, 2, 3):
        full = (1 << n) - 1
        diag = sum(1 << (s * n + s) for s in range(n))
        for rel in range(1 << (n * n)):
            rows = tuple((rel >> (s * n)) & full for s in range(n))
            reflexive = (rel & diag) == diag
            total = all(rows[s] >> t & 1 or rows[t] >> s & 1
                        for s in range(n) for t in range(s, n))
            for vbits in range(1 << (3 * n)):
                raw = tuple((vbits >> (i * n)) & full for i in range(3))
                vals = tuple(raw[order[i]] for i in range(3))
                ok = bank.run(n, rows, vals, valid=len(bank.roots)) is not None
                if not ok:
                    pytest.fail(f"axiom instance fails: n={n} rel={rel} val={vbits}")
                counts["all"] += 1
                if reflexive:
                    counts["reflexive"] += 1
                if total:
                    counts["total"] += 1
    elapsed = time.perf_counter() - t0
    assert counts["all"] == sum((1 << (n * n)) * (1 << (3 * n)) for n in (1, 2, 3))
    assert counts["reflexive"] > 0 and counts["total"] > 0
    assert elapsed < 60.0
    report(3, f"{len(instances)} axiom instances valid in all {counts['all']} "
              f"preference models up to 3 worlds (covering {counts['reflexive']} "
              f"reflexive, {counts['total']} total) in {elapsed:.1f}s")


def test_criterion_4_sdl_kd_suite_exhaustive():
    t0 = time.perf_counter()
    atoms = [P, Q]
    pairs = list(itertools.product(atoms, repeat=2))
    k_instances = [F.Implies(F.ObligM(F.Implies(a, b)),
                             F.Implies(F.ObligM(a), F.ObligM(b))) for a, b in pairs]
    d_instances = [F.Not(F.And(F.ObligM(a), F.ObligM(F.Not(a)))) for a in atoms]
    nec_sources = [P, Q, F.Implies(P, Q), F.And(P, Q), F.Or(P, F.Not(P))]
    bank = S.CompiledBank(
        k_instances + d_instances + nec_sources + [F.ObligM(f) for f in nec_sources],
        "sdl")
    n_models = 0
    for n in (1, 2, 3):
        full = (1 << n) - 1
        rowspace = [r for r in range(1, 1 << n)]
        for rows in itertools.product(rowspace, repeat=n):
            for vbits in range(1 << (2 * n)):
                vals = tuple((vbits >> (i * n)) & full for i in range(2))
                out = bank.run(n, rows, vals)
                masks = [out[r] for r in bank.roots]
                kd = masks[:len(k_instances) + len(d_instances)]
                assert all(m == full for m in kd)
                phi = masks[len(kd):len(kd) + len(nec_sources)]
                obl = masks[len(kd) + len(nec_sources):]
                for fm, om in zip(phi, obl):
                    if fm == full:  # necessitation, model-wise
                        assert om == full
                n_models += 1
    elapsed = time.perf_counter() - t0
    assert n_models == sum(((1 << n) - 1) ** n * (1 << (2 * n)) for n in (1, 2, 3))
    report(4, f"K and D instances valid and necessitation holds in all "
              f"{n_models} serial Kripke models up to 3 worlds ({elapsed:.1f}s)")


CV = F.Implies(F.And(F.Oblig(Q, P), F.Not(F.Oblig(F.Not(R), P))),
               F.Oblig(Q, F.And(P, R)))


def test_criterion_5_cv_correspondence():
    t0 = time.perf_counter()
    rep = SE.correspondence(CV, S.FrameConditions(transitive=True),
                            SE.SearchConfig(logic="e", max_worlds=3))
    assert rep.holds_under_frame, "CV must be valid in transitive models <= 3 worlds"

    witness = rep.violating_witness
    assert witness is not None, "a CV-validating non-transitive model must exist"
    assert witness.n <= 4
    # frozen from the canonical enumeration: two mutually-better worlds
    assert witness.n == 2
    assert witness.relation == frozenset({(0, 1), (1, 0)})
    # re-validate the witness through the public evaluator and checker
    assert oracles.valid_in_model(witness, CV, "e")
    (check,) = S.check_frame(witness, S.FrameConditions(transitive=True))
    assert not check.holds
    elapsed = time.perf_counter() - t0
    report(5, f"CV valid under transitivity up to 3 worlds; non-transitive "
              f"CV-validating 2-world witness found and re-validated ({elapsed:.1f}s)")


def test_criterion_6_translation_faithfulness_corpus():
    t0 = time.perf_counter()
    rng = random.Random(20240)
    formulas = ([("e", gen_formula(rng, "e", 3, quantifiers=True)) for _ in range(250)]
                + [("sdl", gen_formula(rng, "sdl", 3, quantifiers=True))
                   for _ in range(250)])
    models = {"e": [gen_model(rng, "e") for _ in range(100)],
              "sdl": [gen_model(rng, "sdl") for _ in range(100)]}
    pairs = 0
    for i, (logic, f) in enumerate(formulas):
        fo = E.translate(f, logic)
        pool = models[logic]
        for j in range(20):
            m = pool[(i * 7 + j * 13) % len(pool)]
            direct = oracles.valid_in_model(m, F.ground(f, m.domain), logic)
            lowered = E.fo_eval(fo, m, logic)
            assert direct == lowered, (logic, F.print_formula(f), m.to_dict())
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert len(formulas) >= 500 and sum(map(len, models.values())) >= 200
    report(6, f"direct evaluation equals lowered first-order evaluation on "
              f"{pairs} formula/model pairs, 100% agreement ({elapsed:.1f}s)")


def test_criterion_7_lambda_kernel():
    t0 = time.perf_counter()
    sig = F.Signature({"p": 0, "q": 0, "P": 1})
    # the worked conversion: embedding of "possibly everything is P"
    f = F.parse("dia forall x. P(x)", sig, logic="sdl")
    steps = L.normalize_steps(E.embed(f, "sdl"))
    assert len(steps) >= 4
    w, v, x = (L.Var(n, L.I) for n in "wvx")
    Pc = E.atom_const("P", 1)
    expected = L.Abs("w", L.I, L.neg(L.App(L.Pi(L.I), L.Abs("v", L.I, L.neg(
        L.land(L.app(E.R_ACC, w, v),
               L.App(L.Pi(L.I), L.Abs("x", L.I, L.app(Pc, x, v)))))))))
    assert oracles.alpha_eq(steps[-1], expected)

    rng = random.Random(99)
    agree = 0
    for _ in range(1000):
        ty = rng.choice([L.O, L.TAU, L.Arrow(L.TAU, L.O)])
        t = gen_typed_term(rng, ty, depth=4)
        nf = L.normalize(t)
        assert oracles.alpha_eq(nf, L.normalize_steps(t, "lo")[-1])
        assert oracles.alpha_eq(nf, L.normalize_steps(t, "ri")[-1])
        agree += 1

    for fname, text, logic, name in [
            ("golden_guarded_box.p", "box (p & q)", "sdl", "guarded_box"),
            ("golden_dia_forall.p", "dia forall x. P(x)", "sdl", "dia_forall"),
            ("golden_oblig_validity.p", "O{q | p}", "e", "oblig_validity")]:
        g = F.parse(text, sig, logic=logic)
        out = E.emit_tptp(E.translate(g, logic), name, "conjecture", logic=logic)
        assert out == (FIXTURES / fname).read_text(), f"{fname} drifted"
    elapsed = time.perf_counter() - t0
    report(7, f"conversion chain reproduced ({len(steps)} steps), {agree}/1000 "
              f"strategy-agreement, 3 golden TPTP files byte-exact ({elapsed:.1f}s)")


def test_criterion_8_ctd_signature_property():
    t0 = time.perf_counter()
    atom_names = [f"s{i}" for i in range(11)]
    quadruples = [(a, b) for a in atom_names for b in atom_names if a != b][:100]
    assert len(quadruples) == 100
    for a_name, e_name in quadruples:
        a, e = F.Atom(a_name), F.Atom(e_name)
        sdl_set = [F.ObligM(a),
                   F.Implies(a, F.ObligM(F.Not(e))), F.ObligM(F.Implies(a, F.Not(e))),
                   F.Implies(F.Not(a), F.ObligM(e)), F.ObligM(F.Implies(F.Not(a), e)),
                   F.Not(a)]
        assert isinstance(SE.find_model(sdl_set, CFG_SC), SE.DecidedUnsatisfiable)
        e_set = [F.Oblig(a, F.TOP), F.Oblig(F.Not(e), a), F.Oblig(e, F.Not(a)),
                 F.Box(F.Not(a))]
        verdict = SE.find_model(e_set, CFG_E)
        assert isinstance(verdict, SE.ModelFound)
        ev = S.Evaluator(verdict.model, "e")
        assert all(ev.valid(g) for g in e_set)
    elapsed = time.perf_counter() - t0
    report(8, f"100/100 quadruples: SDL rendering unsatisfiable, dyadic "
              f"rendering satisfiable ({elapsed:.1f}s)")


def test_criterion_9_mus_contract_on_inconsistent_fixtures():
    t0 = time.perf_counter()
    cases = []
    for name in ("gdpr_sdl.kb", "chisholm_sdl.kb"):
        base = load(name)
        cases.append(("sdl", [lf.formula for lf in KB.ground_kb(base, "sdl")]))
    cases.append(("e", [P, F.Not(P), Q]))
    cases.append(("e", [F.Oblig(P, F.TOP), F.Not(F.Oblig(P, F.TOP)), R]))
    checked = 0
    for logic, fs in cases:
        cfg = SE.SearchConfig(logic=logic, complete=True)
        verdict = SE.find_model(fs, cfg)
        assert isinstance(verdict, SE.DecidedUnsatisfiable)
        core = [fs[i] for i in SE.minimal_unsat_subset(verdict, cfg)]
        assert isinstance(SE.find_model(core, cfg), SE.DecidedUnsatisfiable)
        for i in range(len(core)):
            rest = core[:i] + core[i + 1:]
            if rest:
                assert isinstance(SE.find_model(rest, cfg), SE.ModelFound)
        checked += 1
    elapsed = time.perf_counter() - t0
    report(9, f"{checked} inconsistent inputs: cores unsatisfiable, every "
              f"one-element-removed subset satisfiable ({elapsed:.1f}s)")
