"""Seeded input generators for the benchmark workloads and the ladder.

Formulas are built here as plain nested tuples, independent of
``deon.formula``, and printed to deon's concrete syntax.  The program
under test only ever sees the printed text and the written ``.kb``
files; the tuples stay with the benchmark so that expected answers
(``oracle.py``) are computed from the generator's own representation.

Tuple forms::

    ("a", pred, args)        atom, args a tuple of constant/variable names
    ("true",) ("false",)
    ("not", x)  ("and"|"or"|"imp"|"iff", x, y)
    ("box", x)  ("dia", x)   ("O"|"P"|"F", x)   ("O2", body, cond)
    ("forall"|"exists", var, x)

A query is a ``Query``: the argv handed to ``deon.cli.main`` plus the
expectation the oracle checks the JSON report against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

PROP_ATOMS = ("p", "q", "r")
PROP_SIG = "pred p/0; pred q/0; pred r/0"
QUANT_SIG = "pred p/0; pred q/0; pred s/1; pred t/1; const a, b"
BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}
UNARY = {"not": "~", "box": "box ", "dia": "dia ", "O": "O ", "P": "P ", "F": "F "}


def atom(name: str, *args: str) -> tuple:
    return ("a", name, tuple(args))


TRUE = ("true",)


def text(f: tuple) -> str:
    """Print a tuple formula, fully parenthesized, in deon syntax.

    Shared sub-tuples are printed once and the string reused, so a DAG
    with repeated subterms prints in time linear in its distinct nodes
    while the text itself repeats them.
    """
    memo: dict[int, str] = {}

    def go(g: tuple) -> str:
        s = memo.get(id(g))
        if s is not None:
            return s
        tag = g[0]
        if tag == "a":
            s = g[1] if not g[2] else f"{g[1]}({','.join(g[2])})"
        elif tag in ("true", "false"):
            s = tag
        elif tag in BINARY:
            s = f"({go(g[1])} {BINARY[tag]} {go(g[2])})"
        elif tag in UNARY:
            s = f"{UNARY[tag]}({go(g[1])})"
        elif tag == "O2":
            s = f"O{{{go(g[1])} | {go(g[2])}}}"
        elif tag in ("forall", "exists"):
            s = f"({tag} {g[1]}. {go(g[2])})"
        else:
            raise ValueError(f"unknown tuple formula {g!r}")
        memo[id(g)] = s
        return s

    return go(f)


def tree_nodes(f: tuple) -> int:
    """Node count of the formula unfolded as a tree."""
    memo: dict[int, int] = {}

    def go(g: tuple) -> int:
        n = memo.get(id(g))
        if n is None:
            n = 1 if g[0] == "a" else 1 + sum(go(c) for c in g[1:] if isinstance(c, tuple))
            memo[id(g)] = n
        return n

    return go(f)


def distinct_nodes(fs) -> int:
    """Structurally distinct subformulas across a set of formulas."""
    seen: set[tuple] = set()
    stack = list(fs)
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if g[0] != "a":
            stack.extend(c for c in g[1:] if isinstance(c, tuple))
    return len(seen)


# ---------------------------------------------------------------------------
# Queries


@dataclass
class Query:
    """One CLI invocation and what its report must say.

    ``kind`` selects the oracle check; ``exp`` holds the expected
    answer or the data the oracle derives it from.
    """

    qid: int
    argv: list[str]
    kind: str
    exp: dict = field(default_factory=dict)
    formulas: tuple = ()


@dataclass
class Workload:
    name: str
    queries: list[Query]
    formulas: list[tuple]       # every input formula, for the sharing counts
    warmup: list[list[str]]     # trivial runs of each command, before timing


# A part of a mix: its queries, input formulas and warm-up runs.
Part = tuple[list[Query], list[tuple], list[list[str]]]


def _warmup(commands) -> list[list[str]]:
    """One trivial invocation per command and logic, so that lazy
    set-up in click and deon is done before timing starts."""
    out = []
    for logic in ("e", "sdl"):
        for cmd in commands:
            if cmd == "correspondence":
                out.append(["correspondence", "id", "--frame", "serial", "--bound", "1",
                            "--format", "json"])
                continue
            argv = [cmd, "p", "--logic", logic, "--sig", PROP_SIG, "--format", "json"]
            if cmd in ("check", "model"):
                argv += ["--bound", "1"]
            out.append(argv)
    return out


# ---------------------------------------------------------------------------
# Ladder families (seed-independent, so capacity is a property of the code)


GDPR_PREDS = ("process_lawfully", "erase", "is_protected_by_GDPR", "kill")


def gdpr_kb(n: int, logic: str) -> str:
    """GDPR-N: the shipped GDPR scenario over individuals d1..dN.

    System E uses the dyadic reading of ``fixtures/gdpr_e.kb``; SDL uses
    the monadic reading of ``fixtures/gdpr_sdl.kb``.  By construction E
    is consistent and does not explode, and SDL is inconsistent with the
    minimal core {a1[d1], fact1}: O process_lawfully(d1) against the
    settled ~process_lawfully(d1).
    """
    lines = ["[signature]"] + [f"pred {p}/1" for p in GDPR_PREDS]
    lines += ["[individuals]"] + [f"d{i}" for i in range(1, n + 1)]
    lines.append("[norms]")
    if logic == "e":
        lines += [
            "a1: O{ process_lawfully(d) | is_protected_by_GDPR(d) } forall d",
            "a2: O{ erase(d) | is_protected_by_GDPR(d) & ~process_lawfully(d) } forall d",
            "a3: O{ ~erase(d) | is_protected_by_GDPR(d) & process_lawfully(d) } forall d",
            "[facts]", "~process_lawfully(d1)"]
    else:
        lines += [
            "a1: O{ process_lawfully(d) | true } forall d",
            "a2: O{ ~erase(d) | process_lawfully(d) } forall d",
            "a3: O{ erase(d) | ~process_lawfully(d) } forall d",
            "[facts]", "~process_lawfully(d1)", "is_protected_by_GDPR(d1)"]
    return "\n".join(lines) + "\n"


def chisholm_kb(n: int, logic: str) -> str:
    """Chisholm-N: the contrary-to-duty chain over p1..p(N+1).

    c0: O{p1 | true}; ti: O{p(i+1) | pi}; ni: O{~p(i+1) | ~pi}; fact ~p1.
    Chisholm-1 is ``fixtures/chisholm_*.kb`` with go/tell renamed.  The
    unrelated atom w never occurs in a norm.  By construction E is
    consistent and does not explode; SDL is inconsistent with the
    minimal core {c0, fact1}.  The text is the same for both logics.
    """
    del logic
    lines = ["[signature]"] + [f"pred p{i}/0" for i in range(1, n + 2)] + ["pred w/0"]
    lines += ["[norms]", "c0: O{ p1 | true }"]
    for i in range(1, n + 1):
        lines.append(f"t{i}: O{{ p{i + 1} | p{i} }}")
        lines.append(f"n{i}: O{{ ~p{i + 1} | ~p{i} }}")
    lines += ["[facts]", "~p1"]
    return "\n".join(lines) + "\n"


LADDER_FAMILIES = {
    # name: (function writing the .kb text, logic); cheapest families first
    "gdpr_sdl": (gdpr_kb, "sdl"),
    "chisholm_sdl": (chisholm_kb, "sdl"),
    "gdpr_e": (gdpr_kb, "e"),
    "chisholm_e": (chisholm_kb, "e"),
}
LADDER_CAP = 64


def kb_norms(family: str, n: int) -> tuple[list[tuple], list[tuple]]:
    """The ground norm instances (label, body, cond) and the facts of a
    family at size n, as tuples; ``family`` is e.g. "gdpr_e"."""
    norms = []
    if family.startswith("gdpr"):
        for i in range(1, n + 1):
            d = f"d{i}"
            pl, er, pr = (atom("process_lawfully", d), atom("erase", d),
                          atom("is_protected_by_GDPR", d))
            if family.endswith("_e"):
                norms += [(f"a1[{d}]", pl, pr), (f"a2[{d}]", er, ("and", pr, ("not", pl))),
                          (f"a3[{d}]", ("not", er), ("and", pr, pl))]
            else:
                norms += [(f"a1[{d}]", pl, TRUE), (f"a2[{d}]", ("not", er), pl),
                          (f"a3[{d}]", er, ("not", pl))]
        facts = [("not", atom("process_lawfully", "d1"))]
        if family.endswith("_sdl"):
            facts.append(atom("is_protected_by_GDPR", "d1"))
        return norms, facts
    norms.append(("c0", atom("p1"), TRUE))
    for i in range(1, n + 1):
        a, b = atom(f"p{i}"), atom(f"p{i + 1}")
        norms += [(f"t{i}", b, a), (f"n{i}", ("not", b), ("not", a))]
    return norms, [("not", atom("p1"))]


def kb_formulas(family: str, n: int) -> list[tuple]:
    """Norms as dyadic obligations, plus the facts, for the sharing counts."""
    norms, facts = kb_norms(family, n)
    return [("O2", body, cond) for _, body, cond in norms] + facts


def ladder_expect(family: str, logic: str) -> dict:
    """Expected ``kb consistency --complete`` answer, by construction."""
    if logic == "e":
        return {"verdict": "model_found", "exit": 0, "mus": None}
    core = ["a1[d1]", "fact1"] if family.startswith("gdpr") else ["c0", "fact1"]
    return {"verdict": "unsatisfiable", "exit": 1, "mus": core}


def compliance_expect(family: str, n: int, logic: str) -> dict:
    """Detachment by construction: facts are literals, conditions are
    true or conjunctions of literals, so a condition is entailed iff
    each of its literals is a fact."""
    if family == "gdpr":
        if logic == "e":  # fact ~process_lawfully(d1); no condition detaches
            detached, violated = [], []
        else:             # a1 detaches everywhere (cond true), a3 at d1
            detached = [f"a1[d{i}]" for i in range(1, n + 1)] + ["a3[d1]"]
            violated = ["a1[d1]"]
    else:                 # fact ~p1: c0 (cond true) and n1 (cond ~p1)
        detached, violated = ["c0", "n1"], ["c0"]
    exp = {"detached": sorted(detached), "violations": sorted(violated),
           "consistent": logic == "e"}
    exp["exit"] = 0 if not violated else 1
    exp["mus"] = None if logic == "e" else ladder_expect(family, logic)["mus"]
    return exp


# ---------------------------------------------------------------------------
# Part of the reasoning mix: kb-complete


KB_COMPLETE_SIZES = (("gdpr", "e", (1, 2, 3)), ("gdpr", "sdl", (1, 2)),
                     ("chisholm", "e", (1, 2, 3, 4, 5)), ("chisholm", "sdl", (1, 2)))


def kb_complete(seed: int, work: Path) -> Part:
    """The KB part of the reasoning mix, the task mix users run: the
    exact type-elimination decision and the MUS shrink do nearly all the
    work.

    Every query uses --complete.  The seed picks the individual named in
    the unrelated-obligation goal and the order of the mix; the KB
    shapes are fixed so that the cost mix does not drift with the seed.
    """
    rng = random.Random(seed)
    queries: list[Query] = []
    formulas: list[tuple] = []
    for family, logic, sizes in KB_COMPLETE_SIZES:
        for n in sizes:
            build = gdpr_kb if family == "gdpr" else chisholm_kb
            path = work / f"{family}_{logic}_{n}.kb"
            path.write_text(build(n, logic), encoding="utf-8")
            fam = f"{family}_{logic}"
            formulas += kb_formulas(fam, n)
            common = ["--logic", logic, "--complete", "--format", "json"]
            if family == "gdpr":
                unrelated = f"O kill(d{rng.randint(1, n)})"
            elif logic == "e":
                # conditional: with ~p1 settled, O{p1|true} leaves no best
                # world overall, so any O{_|true} goal holds vacuously in E
                unrelated = rng.choice(("O{w | p2}", "O{~w | p2}"))
            else:
                unrelated = rng.choice(("O w", "O ~w"))
            entail = ({"verdict": "countermodel", "exit": 1} if logic == "e"
                      else {"verdict": "valid", "exit": 0})
            queries += [
                Query(0, ["kb", "consistency", str(path)] + common, "kb_consistency",
                      ladder_expect(fam, logic)),
                Query(0, ["kb", "entail", str(path), "--goal", "false"] + common,
                      "kb_entail", entail),
                Query(0, ["kb", "entail", str(path), "--goal", unrelated] + common,
                      "kb_entail", entail),
                Query(0, ["kb", "comply", str(path)] + common, "kb_comply",
                      compliance_expect(family, n, logic)),
            ]
    return queries, formulas, [[*q.argv] for q in queries[:4]]  # gdpr_e_1: the cheapest KB


def _numbered(name: str, queries: list[Query], formulas: list[tuple],
              warmup: list[list[str]], seed: int) -> Workload:
    """Shuffle the mix with the seed and number its queries."""
    random.Random(seed).shuffle(queries)
    for i, q in enumerate(queries):
        q.qid = i
    return Workload(name, queries, formulas, warmup)


# ---------------------------------------------------------------------------
# Part of the reasoning mix: bounded-sweep

p, q, r = atom("p"), atom("q"), atom("r")

# The CLI's eleven named schemas plus aggregation, over p, q, r, with
# their bounded-validity status in system E.  "valid" means no
# countermodel exists up to the bound; the benchmark self-tests confirm
# each entry against brute-force enumeration.
SCHEMAS = {
    "cv": (("imp", ("and", ("O2", q, p), ("not", ("O2", ("not", r), p))),
            ("O2", q, ("and", p, r))), False),
    "id": (("O2", p, p), True),
    "k": (("imp", ("box", ("imp", p, q)), ("imp", ("box", p), ("box", q))), True),
    "4": (("imp", ("box", p), ("box", ("box", p))), True),
    "5": (("imp", ("not", ("box", p)), ("box", ("not", ("box", p)))), True),
    "cok": (("imp", ("O2", ("imp", q, r), p), ("imp", ("O2", q, p), ("O2", r, p))), True),
    "sh": (("imp", ("O2", r, ("and", p, q)), ("O2", ("imp", q, r), p)), True),
    "abs": (("imp", ("O2", q, p), ("box", ("O2", q, p))), True),
    "nec": (("imp", ("box", q), ("O2", q, p)), True),
    "ext": (("imp", ("box", ("iff", p, q)), ("iff", ("O2", r, p), ("O2", r, q))), True),
    "d": (("not", ("and", ("O", p), ("O", ("not", p)))), False),
    "agg": (("imp", ("and", ("O2", q, p), ("O2", r, p)), ("O2", ("and", q, r), p)), True),
}
# Aggregation, CV (whose countermodel needs three worlds) and the cheap
# schemas are checked at bound 3, the others at bound 2: at bound 3 they
# would double the time of a pass and so halve the repetitions of each
# query in a run.
SCHEMA_BOUND = {name: 2 for name in SCHEMAS} | {n: 3 for n in ("cv", "id", "4", "5", "d", "agg")}
FRAMES = ("serial", "reflexive", "total", "transitive")
RANDOM_PER_LOGIC = 16


def random_formula(rng: random.Random, depth: int, logic: str) -> tuple:
    """Random formula over p, q, r with the given depth on every branch,
    so that sizes vary little between seeds.  E draws from
    box/dia/O/P/F/O{|}, SDL from box/dia/O/P/F."""
    if depth == 0:
        return atom(rng.choice(PROP_ATOMS))
    ops = ["not", "and", "or", "imp", "iff", "box", "dia", "O", "P", "F"]
    if logic == "e":
        ops.append("O2")
    op = rng.choice(ops)
    sub = random_formula(rng, depth - 1, logic)
    if op in UNARY:
        return (op, sub)
    return (op, sub, random_formula(rng, depth - 1, logic))


def bounded_sweep(seed: int) -> Part:
    """The bounded part of the reasoning mix: canonical enumeration plus the
    per-candidate Evaluator do the work (aggregation at bound 3 walks
    45,280 candidates).  Same search module as kb-complete on a
    different path, so a gain for one path that costs the other shows.

    Mix per pass: the twelve schemas (check), four correspondence
    probes at bound 2, and RANDOM_PER_LOGIC random depth-3/4 formulas
    per logic, each as check and as model at bound 2.
    """
    rng = random.Random(seed)
    queries: list[Query] = []
    formulas: list[tuple] = []
    for name, (f, valid) in SCHEMAS.items():
        b = SCHEMA_BOUND[name]
        queries.append(Query(0, ["check", text(f), "--logic", "e", "--bound", str(b),
                                 "--sig", PROP_SIG, "--format", "json"],
                             "check", {"logic": "e", "bound": b, "valid": valid}, (f,)))
        formulas.append(f)
    probe_names = [n for n in SCHEMAS if n != "agg"]
    for _ in range(4):
        name, frame = rng.choice(probe_names), rng.choice(FRAMES)
        f = SCHEMAS[name][0]
        queries.append(Query(0, ["correspondence", text(f), "--frame", frame,
                                 "--bound", "2", "--format", "json"],
                             "correspondence", {"bound": 2, "frame": frame}, (f,)))
    for logic in ("e", "sdl"):
        for i in range(RANDOM_PER_LOGIC):
            f = random_formula(rng, 3 + i % 2, logic)
            formulas.append(f)
            common = ["--logic", logic, "--bound", "2", "--sig", PROP_SIG,
                      "--format", "json"]
            queries.append(Query(0, ["check", text(f)] + common, "check",
                                 {"logic": logic, "bound": 2}, (f,)))
            queries.append(Query(0, ["model", text(f)] + common, "model",
                                 {"logic": logic, "bound": 2}, (f,)))
    return queries, formulas, _warmup(("check", "model", "correspondence"))


# ---------------------------------------------------------------------------
# Workload: embed-tptp

# Balanced-tree sizes per pass: five trees of each size, then six at the
# largest, so that the percentiles are order statistics of several
# like-sized trees rather than the cost of one seed's tree, and the mix
# has over a hundred queries.  The largest stays near 380 nodes because
# translation time grows steeply with size at the seed commit.
EMBED_SIZES = tuple(sorted((10, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 128, 160, 200, 250,
                            300) * 5))
EMBED_TOP = (380,) * 6
GOLDEN = (("golden_guarded_box", "box (p & q)", "sdl", "guarded_box"),
          ("golden_dia_forall", "dia forall x. P(x)", "sdl", "dia_forall"),
          ("golden_oblig_validity", "O{q | p}", "e", "oblig_validity"))
MODAL_DEPTHS = (1, 3, 5)


def balanced_formula(rng: random.Random, size: int, logic: str) -> tuple:
    """Random formula of exactly ``size`` nodes whose shape depends on
    the size alone.  Nodes at MODAL_DEPTHS from the root are modal with
    one subformula of ``size - 1`` nodes (O{x | atom} for the dyadic
    obligation) and the others Boolean, split evenly.  The seed picks the
    Boolean operators and the atoms, and deals the modal operators from
    shuffled decks that hold each operator once, so each operator's share
    of the modal nodes, and with it the work of the embedding, varies
    little between seeds."""
    modal = ("box", "dia", "O", "P", "F") + (("O2",) if logic == "e" else ())
    deck: list[str] = []

    def build(size: int, depth: int) -> tuple:
        if size <= 2:
            leaf = atom(rng.choice(PROP_ATOMS))
            return leaf if size == 1 else ("not", leaf)
        if depth in MODAL_DEPTHS:
            if not deck:
                deck.extend(rng.sample(modal, len(modal)))
            op = deck.pop()
            if op == "O2":
                return (op, build(size - 2, depth + 1), atom(rng.choice(PROP_ATOMS)))
            return (op, build(size - 1, depth + 1))
        left = (size - 1) // 2
        return (rng.choice(("and", "or", "imp", "iff")), build(left, depth + 1),
                build(size - 1 - left, depth + 1))

    return build(size, 0)


def quantified_formula(rng: random.Random, logic: str) -> tuple:
    """A small first-order formula over s/1, t/1 and constants a, b."""
    x = "x"
    sx, tx = atom("s", x), atom("t", x)
    mod = rng.choice(("box", "dia", "O"))
    body = rng.choice((("imp", sx, (mod, tx)), ("and", (mod, sx), ("not", tx)),
                       ("or", sx, (mod, ("not", tx)))))
    inner = (rng.choice(("forall", "exists")), x, body)
    outer = rng.choice(("box", "dia", "not"))
    return (outer, ("imp", inner, (rng.choice(("box", "dia")), atom("s", "a"))))


def embed_tptp(seed: int, work: Path) -> Workload:
    """Why: lam.normalize does most of the work (574 ms at 364 nodes at
    the seed commit) and search does none.  About a tenth of the queries
    are small ones with --show-steps, which guards the stepper.  The
    three frozen goldens ride along and must match byte for byte.
    """
    del work
    rng = random.Random(seed)
    queries: list[Query] = []
    formulas: list[tuple] = []
    for i, size in enumerate(EMBED_SIZES + EMBED_TOP):
        logic = ("sdl", "e")[i % 2]
        f = balanced_formula(rng, size, logic)
        formulas.append(f)
        queries.append(Query(0, ["translate", text(f), "--logic", logic,
                                 "--sig", PROP_SIG, "--format", "json"],
                             "translate", {"logic": logic}, (f,)))
    for logic in ("sdl", "e") * 2:
        f = quantified_formula(rng, logic)
        formulas.append(f)
        queries.append(Query(0, ["translate", text(f), "--logic", logic,
                                 "--sig", QUANT_SIG, "--format", "json"],
                             "translate", {"logic": logic}, (f,)))
    for logic in ("sdl", "e") * 4:
        f = balanced_formula(rng, 8, logic)
        formulas.append(f)
        queries.append(Query(0, ["translate", text(f), "--logic", logic, "--show-steps",
                                 "--sig", PROP_SIG, "--format", "json"],
                             "translate", {"logic": logic, "steps": True}, (f,)))
    for fname, src, logic, name in GOLDEN:
        queries.append(Query(0, ["translate", src, "--logic", logic, "--name", name,
                                 "--format", "json"], "golden", {"file": fname + ".p"}))
    return _numbered("embed-tptp", queries, formulas,
                     _warmup(("translate",)) + [["translate", "p", "--show-steps", "--format", "json"]],
                     seed)


# ---------------------------------------------------------------------------
# Part of the reasoning mix: shared-dag

DAG_LEVELS = (5, 6, 7, 8, 9)
DAG_UNSAT_BOUNDED = 7  # highest level of the bounded unsatisfiable case


def doubling_formula(rng: random.Random, levels: int) -> tuple:
    """x0 = a | ~b; x(k+1) = x(k) op u(x(k)) with u unary.

    Each level doubles the unfolded tree and adds two distinct
    subformulas, so 9 levels give about 3k tree nodes over 22 distinct
    ones.  u is box, O and dia once each, at the first, middle and last
    level, and negation elsewhere, which keeps the modal search small:
    the cost is in the size of the tree.  The binary operators cycle
    through and, imp, or, iff.  The seed picks the atoms a and b; the
    shape is fixed because with the operators drawn too the cost of one
    query varied by more than 2x between seeds.  The tuples share x(k)
    by reference.
    """
    a, b = rng.sample(PROP_ATOMS, 2)
    x = ("or", atom(a), ("not", atom(b)))
    modal = {0: "box", levels // 2: "O", levels - 1: "dia"}
    cycle = ("and", "imp", "or", "iff")
    for k in range(levels):
        x = (cycle[k % 4], x, (modal.get(k, "not"), x))
    return x


def shared_dag(seed: int) -> Part:
    """The shared-subterm part of the reasoning mix: the cost of hashing and
    walking formulas, which grows with the unfolded tree, dominates every
    other layer; it is the input property formula interning targets.

    Per level (5 to 9: 190 to 3,070 tree nodes over 14 to 22 distinct
    subformulas) and logic: `model` at bound 2 and with --complete, each
    on a satisfiable case (x | p, true at a one-world model where p
    holds) and an unsatisfiable one (x and ~x both valid).  The bounded
    unsatisfiable case, which scans every model, stops at level 7: at
    levels 8 and 9 it alone would take 2 s of a pass.
    """
    rng = random.Random(seed)
    queries: list[Query] = []
    formulas: list[tuple] = []
    for levels, logic in ((lv, lg) for lv in DAG_LEVELS for lg in ("e", "sdl")):
        x = doubling_formula(rng, levels)
        sat = ("or", x, p)
        neg = ("not", x)
        formulas += [sat, neg]
        for mode in (["--bound", "2"], ["--complete"]):
            common = ["--logic", logic] + mode + ["--sig", PROP_SIG, "--format", "json"]
            complete = mode[0] == "--complete"
            queries.append(Query(0, ["model", text(sat)] + common, "model",
                                 {"logic": logic, "bound": 2, "sat": True,
                                  "complete": complete}, (sat,)))
            if complete or levels <= DAG_UNSAT_BOUNDED:
                queries.append(Query(0, ["model", text(x), text(neg)] + common, "model",
                                     {"logic": logic, "bound": 2, "sat": False,
                                      "complete": complete}, (x, neg)))
    return queries, formulas, _warmup(("model",)) + [
        ["model", "p", "--logic", lg, "--complete", "--sig", PROP_SIG, "--format", "json"]
        for lg in ("e", "sdl")]


def reasoning(seed: int, work: Path) -> Workload:
    """Why: every decision path of the search module in one mix.  The
    kb-complete part (the task mix users run) spends its time in the
    exact decision and the MUS shrink; the bounded part in canonical
    enumeration and the per-candidate Evaluator; the shared-subterm part
    in hashing and walking the unfolded tree, the input property that
    formula interning targets.  lam and embed do no work here.  The three
    share one workload so that a run is long enough to be steady on a
    noisy two-core host; the traced run still separates their layers.
    """
    queries, formulas, warmup = [], [], []
    for part in (kb_complete(seed, work), bounded_sweep(seed), shared_dag(seed)):
        queries += part[0]
        formulas += part[1]
        warmup += part[2]
    return _numbered("reasoning", queries, formulas, warmup, seed)


WORKLOADS = {
    "reasoning": reasoning,
    "embed-tptp": embed_tptp,
}
