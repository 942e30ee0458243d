"""Normative knowledge bases: file format, grounding, and the reasoning
tasks (consistency, entailment, compliance, and their failure analyses).

File format (line oriented, UTF-8, # comments)::

    [signature]
    pred process_lawfully/1
    [individuals]
    d1
    [norms]
    a1: O{ process_lawfully(d) | is_protected(d) } forall d
    [facts]
    ~process_lawfully(d1)

Norm kinds are O{..|..} (obligation), P{..|..} (permission) and
F{..|..} (prohibition); `forall v1, v2` binds individual variables used
in body or condition.  Norm bodies, conditions and facts are Boolean
combinations of atoms.

Grounding expands binders over the individuals.  In logic e a norm
becomes the dyadic operator applied to body and condition and facts are
wrapped in box (settled truths constrain every world).  In logic sdl a
conditional obligation O{b|c} is rendered as the classical pair
{c -> O b, O(c -> b)} (factual and deontic detachment), a prohibition
as the same pair for ~b, and a permission as c -> ~O~b; unconditional
norms collapse to the single monadic formula.

Compliance decides each detachment question with one query to a deon.sat
solver shared by the run, which decides the question's atoms and those
of the facts they meet alone: the node budget, not the atom count,
limits it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, product

from . import formula as F
from . import sat
from . import search as SE
from . import semantics as S

KINDS = {"O": "obligation", "P": "permission", "F": "prohibition"}


class KBError(Exception):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Norm:
    id: str
    kind: str  # obligation | permission | prohibition
    body: F.Formula
    cond: F.Formula
    binders: tuple[str, ...] = ()


@dataclass(frozen=True)
class KnowledgeBase:
    signature: F.Signature
    individuals: tuple[str, ...]
    norms: tuple[Norm, ...]
    facts: tuple[F.Formula, ...]


@dataclass(frozen=True)
class Labeled:
    label: str
    formula: F.Formula


_MODAL = (F.Box, F.Dia, F.Oblig, F.ObligM, F.Perm, F.Forb)
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NORM_RE = re.compile(
    r"\s*(?P<id>[A-Za-z][A-Za-z0-9_]*)\s*:\s*(?P<kind>[OPF])\s*\{(?P<inner>.*)\}"
    r"\s*(?:forall\s+(?P<binders>[A-Za-z][A-Za-z0-9_]*(?:\s*,\s*[A-Za-z][A-Za-z0-9_]*)*))?\s*$"
)


def _boolean_only(f: F.Formula, what: str, line: int | None) -> None:
    for g in F.subformulas(f):
        if isinstance(g, _MODAL):
            raise KBError(f"{what} must be a Boolean combination of atoms", line)
        if isinstance(g, (F.Forall, F.Exists)):
            raise KBError(f"{what} must not quantify; use the norm's binders", line)


def load_kb(text: str) -> KnowledgeBase:
    """Parse and validate a knowledge-base file."""
    section = None
    predicates: dict[str, int] = {}
    individuals: list[str] = []
    known: set[str] = set()  # the individuals, for the duplicate check
    norm_lines: list[tuple[int, str]] = []  # each with its leading blanks
    fact_lines: list[tuple[int, str]] = []  # each with its leading blanks

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[signature]", "[individuals]", "[norms]", "[facts]"):
                raise KBError(f"unknown section {line}", lineno)
            section = line[1:-1]
            continue
        if section == "signature":
            m = re.match(r"pred\s+([A-Za-z][A-Za-z0-9_]*)\s*/\s*(\d+)\s*$", line)
            if not m:
                raise KBError("expected: pred <name>/<arity>", lineno)
            name, arity = m.group(1), int(m.group(2))
            if name in predicates:
                raise KBError(f"duplicate predicate {name!r}", lineno)
            predicates[name] = arity
        elif section == "individuals":
            for name in re.split(r"[,\s]+", line):
                if not name:
                    continue
                if not _NAME_RE.fullmatch(name):
                    raise KBError(f"bad individual name {name!r}", lineno)
                if name in known:
                    raise KBError(f"duplicate individual {name!r}", lineno)
                known.add(name)
                individuals.append(name)
        elif section == "norms":
            norm_lines.append((lineno, code))
        elif section == "facts":
            fact_lines.append((lineno, code))
        else:
            raise KBError("content before any section header", lineno)

    try:
        sig = F.Signature(predicates, frozenset(individuals))
    except F.FormulaError as ex:
        raise KBError(str(ex)) from ex

    norms: list[Norm] = []
    seen_ids: set[str] = set()
    for lineno, line in norm_lines:
        m = _NORM_RE.match(line)
        if not m:
            raise KBError("expected: <id>: O{ body | cond } [forall vars]", lineno)
        nid = m.group("id")
        if nid in seen_ids:
            raise KBError(f"duplicate norm id {nid!r}", lineno)
        seen_ids.add(nid)
        # Parsed in place, so that an error names its column in the line:
        # one line "forall b." per binder b, with b at its own column (at
        # least 8, as "forall " comes before it), then the norm at its own,
        # read as O{...}: an error at its kind letter names the kind.  Only
        # the binders are variables: a loose one is an unknown constant.
        at = m.start("binders")
        placed = [(b.group(), at + b.start()) for b in _NAME_RE.finditer(m.group("binders") or "")]
        binders = tuple(b for b, _ in placed)
        wrapped = [" " * (col - 7) + f"forall {b}." for b, col in placed]
        kind = m.start("kind")
        wrapped.append(" " * kind + "O" + line[kind + 1:m.end("inner") + 1])
        try:
            core = F.parse("\n".join(wrapped), sig, logic="e")
        except F.ParseError as ex:
            msg = ex.message
            if (ex.line, ex.col) == (len(wrapped), kind + 1):
                msg = msg.replace("O{", m.group("kind") + "{")
            raise KBError(f"in norm {nid}: column {ex.col}: {msg}", lineno) from ex
        for _ in binders:
            core = core.body
        body, cond = core.body, core.cond
        _boolean_only(body, "norm body", lineno)
        _boolean_only(cond, "norm condition", lineno)
        norms.append(Norm(nid, KINDS[m.group("kind")], body, cond, binders))

    facts: list[F.Formula] = []
    for lineno, line in fact_lines:
        try:
            f = F.parse(line, sig, logic="e")  # in place, for the column
        except F.ParseError as ex:
            raise KBError(f"column {ex.col}: {ex.message}", lineno) from ex
        _boolean_only(f, "fact", lineno)
        if not F.is_ground(f):
            raise KBError("facts must be ground", lineno)
        facts.append(f)

    return KnowledgeBase(sig, tuple(individuals), tuple(norms), tuple(facts))


# ---------------------------------------------------------------------------
# Grounding


def _instances(norm: Norm, individuals: tuple[str, ...]):
    if norm.binders and not individuals:
        raise KBError(f"norm {norm.id} has binders but the individual set is empty")
    for picked in product(individuals, repeat=len(norm.binders)):
        body, cond = norm.body, norm.cond
        for x, c in zip(norm.binders, map(F.Const, picked)):
            body, cond = F.subst_var(body, x, c), F.subst_var(cond, x, c)
        yield "[" + ",".join(picked) + "]" if picked else "", body, cond


def _render_norm(norm: Norm, suffix: str, body: F.Formula, cond: F.Formula,
                 lg: F.Logic) -> list[Labeled]:
    label = norm.id + suffix
    if F.Oblig in lg.modal:  # the logic has the dyadic obligation
        if norm.kind == "obligation":
            out = F.Oblig(body, cond)
        elif norm.kind == "prohibition":
            out = F.Oblig(F.Not(body), cond)
        else:
            out = F.Not(F.Oblig(F.Not(body), cond))
        return [Labeled(label, out)]
    # SDL rendering
    eff = body if norm.kind == "obligation" else F.Not(body)
    if norm.kind == "permission":
        detached = F.Not(F.ObligM(F.Not(body)))
        if cond == F.TOP:
            return [Labeled(label, detached)]
        return [Labeled(label + ":fd", F.Implies(cond, detached))]
    if cond == F.TOP:
        return [Labeled(label, F.ObligM(eff))]
    return [
        Labeled(label + ":fd", F.Implies(cond, F.ObligM(eff))),
        Labeled(label + ":dd", F.ObligM(F.Implies(cond, eff))),
    ]


def ground_kb(kb: KnowledgeBase, logic: str) -> list[Labeled]:
    """Expand norms over the individuals and render for the logic."""
    lg = F.check_logic(logic, KBError)
    out: list[Labeled] = []
    for norm in kb.norms:
        for suffix, body, cond in _instances(norm, kb.individuals):
            out.extend(_render_norm(norm, suffix, body, cond, lg))
    for i, fact in enumerate(kb.facts, start=1):
        rendered = F.Box(fact) if F.Box in lg.modal else fact  # a global box settles it
        out.append(Labeled(f"fact{i}", rendered))
    return out


# ---------------------------------------------------------------------------
# Tasks


@dataclass(frozen=True)
class TaskResult:
    task: str
    verdict: SE.Verdict
    labels: tuple[str, ...]            # labels of the grounded input set
    mus: tuple[str, ...] | None = None  # labels of the minimal unsat core


def consistency(kb: KnowledgeBase, cfg: SE.SearchConfig) -> TaskResult:
    """Model search over the grounded set; in complete mode an unsatisfiable
    outcome carries the minimal core shrunk from the search's refutation."""
    labeled = ground_kb(kb, cfg.logic)
    verdict = SE.find_model([lf.formula for lf in labeled], cfg)
    mus = None
    if isinstance(verdict, SE.DecidedUnsatisfiable):
        mus = tuple(labeled[j].label for j in SE.minimal_unsat_subset(verdict, cfg))
    return TaskResult("consistency", verdict, tuple(lf.label for lf in labeled), mus)


def entailment(kb: KnowledgeBase, query: F.Formula, cfg: SE.SearchConfig) -> TaskResult:
    """Does the grounded knowledge base entail the query?"""
    labeled = ground_kb(kb, cfg.logic)
    goal = query
    if any(isinstance(g, (F.Forall, F.Exists)) for g in F.subformulas(query)):
        goal = F.ground(query, kb.individuals)
    verdict = SE.entails([lf.formula for lf in labeled], goal, cfg)
    return TaskResult("entailment", verdict, tuple(lf.label for lf in labeled))


@dataclass(frozen=True)
class ComplianceReport:
    detached: tuple[tuple[str, F.Formula], ...]
    violations: tuple[tuple[str, F.Formula], ...]
    consistent: bool
    witness: object | None          # model when consistent, else None
    mus: tuple[str, ...] | None     # unsat core labels when inconsistent

    @property
    def compliant(self) -> bool:
        return not self.violations


def _entailed(premises, goals, budget: SE._Budget):
    """A function telling whether the premises propositionally entail
    goal j: one sat.Solver holds the Tseitin clauses of them all, with
    the premises' roots as units, and goal j is entailed iff assuming
    its root false leaves no model (charged to budget).

    Goal 0 decides every premise atom the root trail leaves open, a
    later goal only its own atoms and those of the premises' components
    (premises meet where their cones share a slot) that hold one.  That
    is sound once goal 0 is not entailed, so the caller asks it first
    (compliance asks ``false``): the premises are then satisfiable, so
    are the other components, and as they share no open variable with
    the question, any model of the question extends to them."""
    premises = list(premises)
    fs = premises + list(goals)
    for f in fs:
        _boolean_only(f, "an entailment's input", None)
    bank = S.CompiledBank(fs, "e")
    ops = bank.ops
    cone, _, roots, _, atoms = SE._inputs(bank, range(len(premises)), ())
    solver = sat.Solver(len(ops), chain(sat.bank_clauses(ops), ([r + 1] for r in roots)))
    part = {s: s for s in cone}

    def find(s):
        while part[s] != s:
            part[s] = s = part[part[s]]
        return s
    for s in cone:
        for c in ops[s][1:] if ops[s][0] != "atom" else ():
            part[find(c)] = find(s)
    open_atoms: dict[int, list] = {}  # component -> its open (atom id, variable) pairs
    for a, v in atoms:
        if not solver.val[v]:  # the root trail fixes the others
            open_atoms.setdefault(find(v - 1), []).append((a, v))

    def entailed(j):
        _, _, _, goal, atoms = SE._inputs(bank, (), [(len(premises) + j, False)])
        met = {find(v - 1) for _, v in atoms if v - 1 in part} if j else open_atoms
        order = [v for _, v in sorted(chain(*(open_atoms.get(c, ()) for c in met)))]
        return solver.solve(order + [v for _, v in atoms], goal, budget) is None
    return entailed


def prop_entails(premises, goal: F.Formula) -> bool:
    """Classical propositional entailment, one query to the solver of
    ``_entailed`` under the default node budget."""
    return _entailed(premises, [goal], SE._Budget(SE._default_budget()))(0)


def compliance(kb: KnowledgeBase, cfg: SE.SearchConfig) -> ComplianceReport:
    """Detachment-based compliance check.

    A norm instance is detached when the facts propositionally entail
    its condition; a detached obligation (or prohibition) is violated
    when the facts also entail the negation of its effective body.
    Detachment is an extralogical, auditable policy: preference
    semantics alone never licenses factual detachment.  Permissions
    detach nothing and cannot be violated.
    """
    instances = [(norm.id + suffix, body if norm.kind == "obligation" else F.Not(body), cond)
                 for norm in kb.norms if norm.kind != "permission"
                 for suffix, body, cond in _instances(norm, kb.individuals)]
    # goal 0 (false) is entailed iff the facts are contradictory; instance
    # i asks for its condition (goal 2i + 1), then for its effect's negation
    goals = [F.BOT] + [g for _, eff, cond in instances for g in (cond, F.Not(eff))]
    entailed = _entailed(kb.facts, goals, SE._Budget(cfg.node_budget))
    if entailed(0):
        raise KBError("facts are propositionally contradictory")
    detached: list[tuple[str, F.Formula]] = []
    violations: list[tuple[str, F.Formula]] = []
    for i, (label, eff, _) in enumerate(instances):
        if entailed(2 * i + 1):
            detached.append((label, eff))
            if entailed(2 * i + 2):
                violations.append((label, eff))
    result = consistency(kb, cfg)
    consistent = isinstance(result.verdict, SE.ModelFound)
    witness = result.verdict.model if consistent else None
    return ComplianceReport(tuple(detached), tuple(violations), consistent,
                            witness, result.mus)
