"""Command-line front end.

One subcommand per pipeline stage: parse, eval, check (validity), model
(satisfiability), translate (the embedding pipeline), correspondence,
and the kb group (consistency, entail, comply).  Exit codes: 0 positive
verdict, 1 negative verdict, 2 undetermined (bound or budget exhausted),
3 usage or input error, 4 internal error (any other exception).
--format json emits a stable schema-1 report.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import click

from . import embed as E
from . import formula as F
from . import kb as KB
from . import lam as L
from . import search as SE
from . import semantics as S

SCHEMA_VERSION = 1

# exit code 2 means "undetermined verdict" here; route usage errors to 3
click.UsageError.exit_code = 3


def infer_signature(text: str) -> F.Signature:
    """Best-effort signature for ad-hoc formulas: applied identifiers
    become predicates, quantifier-bound names variables, other argument
    names constants, remaining bare identifiers propositional atoms.

    An applied identifier's group is read at its depth 1 only: each
    inner group is jumped to its ")" as `formula._brackets` pairs it, and
    after an inner "(" never closed nothing is at depth 1, so each token
    is read once."""
    toks = F.tokens(text)  # the token texts, "" last
    groups, _ = F._brackets(toks, False)
    binders: set[str] = set()
    for i, t in enumerate(toks):
        if t in ("forall", "exists") and toks[i + 1][:1].isalpha():
            binders.add(toks[i + 1])
    predicates: dict[str, int] = {}
    constants: set[str] = set()
    skip = F.RESERVED_WORDS
    for i, t in enumerate(toks):
        if not t[:1].isalpha() or t in skip or t in binders:
            continue
        if toks[i + 1] == "(":
            arity, args = 1, []
            plain, n = True, 0  # an identifier comma list so far, of n tokens
            j = i + 2
            while (tt := toks[j]) and tt != ")":  # up to the ")" or the final ""
                if tt == "(":
                    plain = False
                    if j not in groups:
                        break
                    j = groups[j][1] + 1
                    continue
                if tt == ",":
                    arity += 1
                elif tt[:1].isalpha():
                    args.append(tt)
                plain = plain and (tt == "," if n % 2 else tt[:1].isalpha())
                n += 1
                j += 1
            # O, P and F before anything but a comma list of identifiers
            # are operators over a parenthesized formula, as
            # formula.print_formula writes them
            if t in F.SOFT_KEYWORDS and not (plain and n % 2):
                continue
            old = predicates.get(t)
            if old is not None and old != arity:
                raise F.FormulaError(f"{t!r} used with arities {old} and {arity}")
            predicates[t] = arity
            for a in args:
                if a not in binders:
                    constants.add(a)
            continue  # argument identifiers are revisited but end up as constants
        if t in F.SOFT_KEYWORDS:
            continue
        if t not in constants:
            predicates.setdefault(t, 0)
    for c in constants:
        predicates.pop(c, None)
    return F.Signature(predicates, frozenset(constants))


def _frame_option(value: str) -> S.FrameConditions:
    flags = {f.strip() for f in value.split(",") if f.strip()}
    known = {"serial", "reflexive", "total", "transitive"}
    unknown = flags - known
    if unknown:
        raise click.UsageError(f"unknown frame conditions: {sorted(unknown)}")
    return S.FrameConditions(**{f: True for f in flags})


def _config(logic, frame, bound, complete) -> SE.SearchConfig:
    return SE.SearchConfig(logic=logic, frame=_frame_option(frame or ""),
                           max_worlds=bound, complete=complete)


def _witness_dict(model) -> dict | None:
    return model.to_dict() if model is not None else None


class Report:
    """A command's report; a command creates it on entry, so that
    ``timing_ms`` covers all of the command's work."""

    def __init__(self, command: str, complete: bool = False):
        self.data = {
            "schema": SCHEMA_VERSION,
            "command": command,
            "verdict": None,
            "witness": None,
            "world": None,
            "mus": None,
            "bound_used": None,
            "complete": complete,
            "timing_ms": None,
            "detail": {},
        }
        self._t0 = time.perf_counter()

    def verdict(self, v: SE.Verdict):
        self.data["verdict"] = v.tag
        if isinstance(v, (SE.ModelFound, SE.CountermodelFound)):
            self.data["witness"] = v.model.to_dict()
        if isinstance(v, SE.CountermodelFound):
            self.data["world"] = v.world
        if isinstance(v, (SE.Valid, SE.DecidedUnsatisfiable)):
            self.data["bound_used"] = v.bound_used
        if isinstance(v, SE.NoModelUpTo):
            self.data["bound_used"] = v.bound
        return self

    def emit(self, fmt: str, text_lines: list[str]) -> None:
        self.data["timing_ms"] = round((time.perf_counter() - self._t0) * 1000.0, 3)
        # print, not click.echo: click caches every stream it writes to,
        # which keeps each in-process (CliRunner) call's streams alive
        if fmt == "json":
            print(json.dumps(self.data, indent=2))
        else:
            for line in text_lines:
                print(line)


_EXIT = {"model_found": 0, "valid": 0, "countermodel": 1, "unsatisfiable": 1,
         "no_model_up_to": 2, "budget_exceeded": 2}


def _ground_for_search(f: F.Formula, signature: F.Signature) -> F.Formula:
    if any(isinstance(g, (F.Forall, F.Exists)) for g in F.subformulas(f)):
        if not signature.constants:
            raise F.FormulaError(
                "quantified formula needs a constant domain to ground over; "
                "declare one with --sig 'const a, b' or mention constants")
        return F.ground(f, sorted(signature.constants))
    return f


def _run_guard(func):
    """Translate domain errors to exit code 3, budget overruns to 2."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except SE.BudgetExceeded as ex:
            print(f"budget exceeded: {ex}", file=sys.stderr)
            sys.exit(2)
        except (F.FormulaError, L.LamError, E.EmbedError, S.SemanticsError,
                SE.SearchError, KB.KBError, OSError, json.JSONDecodeError) as ex:
            print(f"error: {ex}", file=sys.stderr)
            sys.exit(3)

    return wrapper


logic_opt = click.option("--logic", type=click.Choice(["sdl", "e"]), default="e",
                         show_default=True)
frame_opt = click.option("--frame", default="", help="comma list: serial,reflexive,total,transitive")
bound_opt = click.option("--bound", type=int, default=3, show_default=True,
                         help="maximum world count for bounded search")
complete_opt = click.option("--complete", is_flag=True, help="decide instead of bounding")
format_opt = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                          default="text", show_default=True)
sig_opt = click.option("--sig", default=None,
                       help="signature as 'pred name/arity; const a,b' (default: inferred)")


def _signature(sig: str | None, text: str) -> F.Signature:
    if sig is None:
        return infer_signature(text)
    predicates: dict[str, int] = {}
    constants: set[str] = set()
    for part in sig.split(";"):
        part = part.strip()
        if not part:
            continue
        if part.startswith("pred "):
            name, arity = part[5:].split("/")
            predicates[name.strip()] = int(arity)
        elif part.startswith("const "):
            constants.update(c.strip() for c in part[6:].split(",") if c.strip())
        else:
            raise click.UsageError(f"bad --sig entry {part!r}")
    return F.Signature(predicates, frozenset(constants))


@click.group()
def main():
    """Deontic-logic workbench: SDL and system E over finite models."""


@main.command("parse")
@click.argument("text")
@logic_opt
@sig_opt
@format_opt
@_run_guard
def cmd_parse(text, logic, sig, fmt):
    """Parse a formula and print its canonical form."""
    rep = Report("parse")
    f = F.parse(text, _signature(sig, text), logic=logic)
    pretty = F.print_formula(f)
    rep.data["verdict"] = "parsed"
    rep.data["detail"] = {"pretty": pretty, "size": F.size(f)}
    rep.emit(fmt, [pretty])


@main.command("eval")
@click.argument("text")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True),
              help="model JSON file (semantics serialization)")
@click.option("--world", type=int, default=0, show_default=True)
@logic_opt
@sig_opt
@format_opt
@_run_guard
def cmd_eval(text, model_path, world, logic, sig, fmt):
    """Evaluate a formula at a world of a finite model."""
    rep = Report("eval")
    with open(model_path, "r", encoding="utf-8") as fh:
        model = S.model_from_json(fh.read(), require_serial=(logic == "sdl"))
    f = F.parse(text, _signature(sig, text), logic=logic)
    if not F.is_ground(f):
        f = F.ground(f, model.domain)
    value = S.eval_formula(model, world, f, logic)
    rep.data["verdict"] = "true" if value else "false"
    rep.data["detail"] = {"world": world}
    rep.emit(fmt, [f"{'true' if value else 'false'} at world {world}"])
    sys.exit(0 if value else 1)


@main.command("check")
@click.argument("text")
@logic_opt
@frame_opt
@bound_opt
@complete_opt
@sig_opt
@format_opt
@_run_guard
def cmd_check(text, logic, frame, bound, complete, sig, fmt):
    """Decide validity of a formula (countermodel search)."""
    rep = Report("check", complete)
    signature = _signature(sig, text)
    f = _ground_for_search(F.parse(text, signature, logic=logic), signature)
    cfg = _config(logic, frame, bound, complete)
    v = SE.decide_valid(f, cfg)
    rep.verdict(v)
    lines = [f"verdict: {v.tag}"]
    if isinstance(v, SE.CountermodelFound):
        lines += [f"falsified at world {v.world}", v.model.to_json()]
    rep.emit(fmt, lines)
    sys.exit(_EXIT[v.tag])


@main.command("model")
@click.argument("texts", nargs=-1, required=True)
@logic_opt
@frame_opt
@bound_opt
@complete_opt
@sig_opt
@format_opt
@_run_guard
def cmd_model(texts, logic, frame, bound, complete, sig, fmt):
    """Search for a model making every given formula valid."""
    rep = Report("model", complete)
    # the texts are joined only to infer one signature for all of them
    signature = _signature(sig, " & ".join(f"({t})" for t in texts) if sig is None else "")
    fs = [_ground_for_search(F.parse(t, signature, logic=logic), signature)
          for t in texts]
    cfg = _config(logic, frame, bound, complete)
    v = SE.find_model(fs, cfg)
    rep.verdict(v)
    lines = [f"verdict: {v.tag}"]
    if isinstance(v, SE.ModelFound):
        lines.append(v.model.to_json())
    rep.emit(fmt, lines)
    sys.exit(_EXIT[v.tag])


@main.command("translate")
@click.argument("text")
@click.option("--logic", type=click.Choice(["sdl", "e"]), default="sdl",
              show_default=True,
              help="sdl demonstrates the guarded standard translation")
@click.option("--local", is_flag=True, help="local validity at the actual world")
@click.option("--show-steps", is_flag=True, help="print every reduction step")
@click.option("--name", default="goal", show_default=True, help="TPTP formula name")
@click.option("--role", default="conjecture", show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="also write the problem to <out>/<name>.p")
@sig_opt
@format_opt
@_run_guard
def cmd_translate(text, logic, local, show_steps, name, role, out_dir, sig, fmt):
    """Embed a formula, normalize, lower to first order, emit TPTP."""
    rep = Report("translate")
    f = F.parse(text, _signature(sig, text), logic=logic)
    mode = "local" if local else "global"
    term = E.vld(E.embed(f, logic), mode)
    steps = L.normalize_steps(term) if show_steps else None
    nf = L.normalize(term) if steps is None else steps[-1]
    fo = E.lower(nf)
    tptp = E.emit_tptp(fo, name, role, logic=logic)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{name}.p"), "w", encoding="utf-8") as fh:
            fh.write(tptp)
    detail = {
        "input": F.print_formula(f),
        "steps": [L.show(s) for s in steps] if steps is not None else None,
        "normal_form": L.show(nf),
        "fo": E.fo_show(fo),
        "tptp": tptp,
    }
    rep.data["verdict"] = "translated"
    rep.data["detail"] = detail
    lines = [f"input:       {detail['input']}"]
    if steps is not None:
        lines.append("reduction:")
        lines += [f"  [{i}] {s}" for i, s in enumerate(detail["steps"])]
    lines += [f"normal form: {detail['normal_form']}",
              f"first-order: {detail['fo']}",
              "tptp:",
              tptp.rstrip("\n")]
    rep.emit(fmt, lines)


_SCHEMAS = {
    "cv": "(O{q | p} & ~O{~r | p}) -> O{q | p & r}",
    "id": "O{p | p}",
    "k": "box (p -> q) -> (box p -> box q)",
    "4": "box p -> box box p",
    "5": "~box p -> box ~box p",
    "cok": "O{q -> r | p} -> (O{q | p} -> O{r | p})",
    "sh": "O{r | p & q} -> O{q -> r | p}",
    "abs": "O{q | p} -> box O{q | p}",
    "nec": "box q -> O{q | p}",
    "ext": "box (p <-> q) -> (O{r | p} <-> O{r | q})",
    "d": "~(O p & O ~p)",
}


@main.command("correspondence")
@click.argument("schema")
@click.option("--frame", required=True,
              help="comma list of conditions the probe is about")
@bound_opt
@format_opt
@_run_guard
def cmd_correspondence(schema, frame, bound, fmt):
    """Probe a schema against frame conditions over preference models.

    SCHEMA is a named schema (cv, id, k, 4, 5, cok, sh, abs, nec, ext)
    or a formula over atoms p, q, r.
    """
    rep = Report("correspondence")
    text = _SCHEMAS.get(schema.lower(), schema)
    sig = F.Signature({"p": 0, "q": 0, "r": 0})
    f = F.parse(text, sig, logic="e")
    cond = _frame_option(frame)
    cfg = SE.SearchConfig(logic="e", max_worlds=bound)
    report = SE.correspondence(f, cond, cfg)
    ok = report.holds_under_frame and report.violating_witness is not None
    rep.data["verdict"] = "correspondence_confirmed" if ok else "correspondence_incomplete"
    rep.data["detail"] = {
        "schema": F.print_formula(f),
        "frame": list(cond.flags()),
        "holds_under_frame": report.holds_under_frame,
        "frame_counterexample": _witness_dict(report.frame_counterexample),
        "violating_witness": _witness_dict(report.violating_witness),
    }
    lines = [f"schema: {F.print_formula(f)}",
             f"valid in all {'+'.join(cond.flags())} models up to {bound} worlds: "
             f"{report.holds_under_frame}"]
    if report.frame_counterexample is not None:
        lines += ["counterexample:", report.frame_counterexample.to_json()]
    if report.violating_witness is not None:
        lines += [f"model violating the frame where the schema stays valid:",
                  report.violating_witness.to_json()]
    else:
        lines.append("no frame-violating validating model within the bound")
    rep.emit(fmt, lines)
    sys.exit(0 if ok else 1)


@main.group("kb")
def kb_group():
    """Knowledge-base tasks over .kb files."""


def _load(path: str) -> KB.KnowledgeBase:
    with open(path, "r", encoding="utf-8") as fh:
        return KB.load_kb(fh.read())


@kb_group.command("consistency")
@click.argument("kbfile", type=click.Path(exists=True))
@logic_opt
@frame_opt
@bound_opt
@complete_opt
@format_opt
@_run_guard
def cmd_kb_consistency(kbfile, logic, frame, bound, complete, fmt):
    """Is the knowledge base consistent?"""
    rep = Report("kb consistency", complete)
    base = _load(kbfile)
    cfg = _config(logic, frame, bound, complete)
    result = KB.consistency(base, cfg)
    rep.verdict(result.verdict)
    rep.data["mus"] = list(result.mus) if result.mus else None
    rep.data["detail"] = {"assumptions": list(result.labels)}
    lines = [f"verdict: {result.verdict.tag}"]
    if isinstance(result.verdict, SE.ModelFound):
        lines.append(result.verdict.model.to_json())
    if result.mus:
        lines.append("minimal unsatisfiable core: " + ", ".join(result.mus))
    rep.emit(fmt, lines)
    sys.exit(_EXIT[result.verdict.tag])


@kb_group.command("entail")
@click.argument("kbfile", type=click.Path(exists=True))
@click.option("--goal", required=True, help="query formula")
@logic_opt
@frame_opt
@bound_opt
@complete_opt
@format_opt
@_run_guard
def cmd_kb_entail(kbfile, goal, logic, frame, bound, complete, fmt):
    """Does the knowledge base entail the goal?"""
    rep = Report("kb entail", complete)
    base = _load(kbfile)
    query = F.parse(goal, base.signature, logic=logic)
    cfg = _config(logic, frame, bound, complete)
    result = KB.entailment(base, query, cfg)
    rep.verdict(result.verdict)
    rep.data["detail"] = {"assumptions": list(result.labels),
                          "goal": F.print_formula(query)}
    lines = [f"verdict: {result.verdict.tag}"]
    if isinstance(result.verdict, SE.CountermodelFound):
        lines += [f"goal fails at world {result.verdict.world} of a model "
                  f"satisfying {', '.join(result.labels)}:",
                  result.verdict.model.to_json()]
    rep.emit(fmt, lines)
    sys.exit(_EXIT[result.verdict.tag])


@kb_group.command("comply")
@click.argument("kbfile", type=click.Path(exists=True))
@logic_opt
@frame_opt
@bound_opt
@complete_opt
@format_opt
@_run_guard
def cmd_kb_comply(kbfile, logic, frame, bound, complete, fmt):
    """Detachment-based compliance report for the current situation."""
    rep = Report("kb comply", complete)
    base = _load(kbfile)
    cfg = _config(logic, frame, bound, complete)
    report = KB.compliance(base, cfg)
    rep.data["verdict"] = "compliant" if report.compliant else "violations"
    rep.data["witness"] = _witness_dict(report.witness)
    rep.data["mus"] = list(report.mus) if report.mus else None
    rep.data["detail"] = {
        "detached": [[label, F.print_formula(f)] for label, f in report.detached],
        "violations": [[label, F.print_formula(f)] for label, f in report.violations],
        "consistent": report.consistent,
    }
    lines = [f"consistent: {report.consistent}"]
    lines += [f"detached:  {label}: {F.print_formula(f)}" for label, f in report.detached]
    lines += [f"violated:  {label}: {F.print_formula(f)}" for label, f in report.violations]
    lines.append("compliant" if report.compliant else "non-compliant")
    rep.emit(fmt, lines)
    sys.exit(0 if report.compliant else 1)


def entry(args=None):
    """The ``deon`` program: ``main``, with every unexpected exception
    (exhausted recursion or memory included) mapped to exit code 4, so
    that no crash exits 1, the code of a negative verdict.  In-process
    callers of ``main`` see the exception itself."""
    try:
        main(args)
    except Exception as ex:
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        sys.exit(4)


if __name__ == "__main__":
    entry()
