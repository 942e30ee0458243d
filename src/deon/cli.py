"""Command-line front end.

One subcommand per pipeline stage: parse, eval, check (validity), model
(satisfiability), translate (the embedding pipeline), correspondence,
and the kb group (consistency, entail, comply).  Exit codes: 0 positive
verdict, 1 negative verdict, 2 undetermined (bound or budget exhausted),
3 usage or input error, 4 internal error (any other exception).
--format json emits a stable schema-1 report.

The command line is read against one table, `MAIN`: each command's
`cmd_*` function, whose docstring is its help text, and its `Param`s,
the arguments and options with their flag, kind (text, integer, choice,
existing path, directory, flag), default, help and whether they are
required.  One loop, `_parse`, reads argv against the table and
dispatches.  Options may come anywhere before `--`, as `--opt value` or
`--opt=value`, and the last of a repeated option counts; the values are
checked in the order given, then the arguments, then the options left
out.  `_help` and `_usage` print `--help` and the usage errors from the
same table, wrapped at 80 columns.

A `cmd_*` function returns its `Report` and its text lines, and neither
prints nor exits.  `_parse` runs it and prints the report in the format
asked for, both in one `try`: a budget overrun prints `budget exceeded:
...` on stderr and nothing on stdout and exits 2, a domain or I/O error
prints `error: ...` and exits 3.  Otherwise it exits with the verdict's
code from `_EXIT`, the one map from verdict to exit code.

`main` has what an in-process runner such as `CliRunner.invoke` reads:
`main.name`, the program name it shows, and `main.main(args=...,
prog_name=...)`, which always ends in SystemExit with the exit code,
usage errors with 3.  Any other exception passes through; `main(args)`
is the same call, and `entry` maps such exceptions to exit 4.
"""

from __future__ import annotations

import difflib
import inspect
import json
import os
import re
import sys
import textwrap
import time
from typing import Callable, NamedTuple

from . import embed as E
from . import formula as F
from . import kb as KB
from . import lam as L
from . import search as SE
from . import semantics as S

SCHEMA_VERSION = 1


class UsageError(Exception):
    """A command line the table rejects (exit code 3).  `where`, the
    command's path and `Command`, adds its usage line to the message."""

    def __init__(self, message: str, where: tuple[str, Command] | None = None):
        super().__init__(message)
        self.where = where

    def text(self) -> str:
        if self.where is None:
            return f"Error: {self}"
        path, cmd = self.where
        return f"{_usage(path, cmd)}\nTry '{path} --help' for help.\n\nError: {self}"


def infer_signature(text: str) -> F.Signature:
    """Best-effort signature for ad-hoc formulas: applied identifiers
    become predicates, quantifier-bound names variables, other argument
    names constants, remaining bare identifiers propositional atoms.

    The text is read from its folded tokens (`formula.tokens` with a
    group table), each distinct group spelled out at its first
    occurrence only, in text order; a later occurrence stays one token,
    which an identifier before it applies to as it does to the first.
    That gives the signature of reading every token of the unfolded
    text, and the same first arity conflict, with its message: a group's
    tokens, and so the facts read in it, are the same at each of its
    occurrences; each fact only adds to what is known (a predicate's
    arity, a constant, an atom unless it is a constant by then), and the
    constants only grow; so a fact read again changes nothing and
    conflicts with nothing, and the facts left out are all repeats of
    facts read before them.

    An applied identifier's group is read at its depth 1 only: each
    inner group is jumped to its ")" as `formula._brackets` pairs it, or
    is one token, and after an inner "(" never closed nothing is at
    depth 1, so each token is read once per identifier applied to it."""
    groups: dict[str, list[str]] = {}
    toks = F.tokens(text, groups)  # the token texts, "" last
    starts: dict[str, int] = {}  # where each group is spelled out in toks
    if groups:
        parts, toks = [iter(toks)], []
        while parts:
            for t in parts[-1]:
                if t in groups and t not in starts:
                    starts[t] = len(toks)
                    parts.append(iter(groups[t]))
                    break
                toks.append(t)
            else:
                parts.pop()
    pairs, _ = F._brackets(toks, False)
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
        after = toks[i + 1]
        if after == "(" or after in starts:
            arity, args = 1, []
            plain, n = True, 0  # an identifier comma list so far, of n tokens
            j = i + 2 if after == "(" else starts[after] + 1
            while (tt := toks[j]) and tt != ")":  # up to the ")" or the final ""
                if tt == "(" or tt in starts:
                    plain = False
                    if tt == "(" and j not in pairs:
                        break
                    j = pairs[j] + 1 if tt == "(" else j + 1
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
        raise UsageError(f"unknown frame conditions: {sorted(unknown)}")
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
            self.data["detail"]["filtration_subformulas"] = v.subformulas
        if isinstance(v, SE.NoModelUpTo):
            self.data["bound_used"] = v.bound
        return self

    def emit(self, fmt: str, text_lines: list) -> None:
        """Print the report as JSON, or as text_lines.  A line that is a
        model prints as the model's JSON, built only for text output:
        the JSON report holds the witness already."""
        self.data["timing_ms"] = round((time.perf_counter() - self._t0) * 1000.0, 3)
        if fmt == "json":
            print(json.dumps(self.data, indent=2))
        else:
            for line in text_lines:
                print(line if type(line) is str else line.to_json())


# every verdict a report can carry, and its exit code: 0 and 1 only for
# decided verdicts
_EXIT = {"parsed": 0, "translated": 0, "true": 0, "false": 1,
         "model_found": 0, "valid": 0, "countermodel": 1, "unsatisfiable": 1,
         "correspondence_confirmed": 0, "correspondence_incomplete": 1,
         "compliant": 0, "violations": 1,
         "no_model_up_to": 2, "budget_exceeded": 2}


def _ground_for_search(f: F.Formula, signature: F.Signature) -> F.Formula:
    if any(isinstance(g, (F.Forall, F.Exists)) for g in F.subformulas(f)):
        if not signature.constants:
            raise F.FormulaError(
                "quantified formula needs a constant domain to ground over; "
                "declare one with --sig 'const a, b' or mention constants")
        return F.ground(f, sorted(signature.constants))
    return f


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
            raise UsageError(f"bad --sig entry {part!r}")
    return F.Signature(predicates, frozenset(constants))


def cmd_parse(text, logic, sig):
    """Parse a formula and print its canonical form."""
    rep = Report("parse")
    f = F.parse(text, _signature(sig, text), logic=logic)
    pretty = F.print_formula(f)
    rep.data["verdict"] = "parsed"
    rep.data["detail"] = {"pretty": pretty, "size": F.size(f)}
    return rep, [pretty]


def cmd_eval(text, model_path, world, logic, sig):
    """Evaluate a formula at a world of a finite model."""
    rep = Report("eval")
    with open(model_path, "r", encoding="utf-8") as fh:
        model = S.model_from_json(fh.read())
    f = F.parse(text, _signature(sig, text), logic=logic)
    if not F.is_ground(f):
        f = F.ground(f, model.domain)
    value = S.eval_formula(model, world, f, logic)
    rep.data["verdict"] = "true" if value else "false"
    rep.data["detail"] = {"world": world}
    return rep, [f"{'true' if value else 'false'} at world {world}"]


def cmd_check(text, logic, frame, bound, complete, sig):
    """Decide validity of a formula (countermodel search)."""
    rep = Report("check", complete)
    signature = _signature(sig, text)
    f = _ground_for_search(F.parse(text, signature, logic=logic), signature)
    cfg = _config(logic, frame, bound, complete)
    v = SE.decide_valid(f, cfg)
    lines = [f"verdict: {v.tag}"]
    if isinstance(v, SE.CountermodelFound):
        lines += [f"falsified at world {v.world}", v.model]
    return rep.verdict(v), lines


def cmd_model(texts, logic, frame, bound, complete, sig):
    """Search for a model making every given formula valid."""
    rep = Report("model", complete)
    # the texts are joined only to infer one signature for all of them;
    # each ends on a new line, so that a comment in it ends there too
    signature = _signature(sig, " & ".join(f"({t}\n)" for t in texts) if sig is None else "")
    fs = [_ground_for_search(F.parse(t, signature, logic=logic), signature)
          for t in texts]
    cfg = _config(logic, frame, bound, complete)
    v = SE.find_model(fs, cfg)
    lines = [f"verdict: {v.tag}"]
    if isinstance(v, SE.ModelFound):
        lines.append(v.model)
    return rep.verdict(v), lines


# A TPTP formula name that needs no quotes (a lower_word), and the roles
# of an annotated FOF formula.
_TPTP_NAME = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_TPTP_ROLES = frozenset({"axiom", "hypothesis", "definition", "assumption", "lemma",
                         "theorem", "corollary", "conjecture", "negated_conjecture", "plain",
                         "fi_domain", "fi_functors", "fi_predicates", "unknown"})


def cmd_translate(text, logic, local, show_steps, name, role, out_dir, sig):
    """Embed a formula, normalize, lower to first order, emit TPTP."""
    rep = Report("translate")
    if not _TPTP_NAME.match(name):
        raise E.EmbedError(f"--name {name!r} is not a TPTP name: a lower-case letter, "
                           "then letters, digits and underscores")
    if role not in _TPTP_ROLES:
        raise E.EmbedError(f"--role {role!r} is not a TPTP FOF role: "
                           f"one of {', '.join(sorted(_TPTP_ROLES))}")
    f = F.parse(text, _signature(sig, text), logic=logic)
    mode = "local" if local else "global"
    steps = None
    if show_steps:
        memo: dict = {}  # one for all the steps: each differs from the last in a path
        steps = [L.show(s, memo=memo) for s in L.normalize_steps(E.vld(E.embed(f, logic), mode))]
    nf, program = E.occurrences(f, logic, mode)
    fo, tptp = E.print_program(program, name, role, logic)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{name}.p"), "w", encoding="utf-8") as fh:
            fh.write(tptp)
    detail = {
        "input": F.print_formula(f),
        "steps": steps,
        "normal_form": nf,
        "fo": fo,
        "tptp": tptp,
    }
    rep.data["verdict"] = "translated"
    rep.data["detail"] = detail
    lines = [f"input:       {detail['input']}"]
    if steps is not None:
        lines.append("reduction:")
        lines += [f"  [{i}] {s}" for i, s in enumerate(steps)]
    lines += [f"normal form: {detail['normal_form']}",
              f"first-order: {detail['fo']}",
              "tptp:",
              tptp.rstrip("\n")]
    return rep, lines


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


def cmd_correspondence(schema, frame, bound):
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
        lines += ["counterexample:", report.frame_counterexample]
    if report.violating_witness is not None:
        lines += [f"model violating the frame where the schema stays valid:",
                  report.violating_witness]
    else:
        lines.append("no frame-violating validating model within the bound")
    return rep, lines


def _load(path: str) -> KB.KnowledgeBase:
    with open(path, "r", encoding="utf-8") as fh:
        return KB.load_kb(fh.read())


def cmd_kb_consistency(kbfile, logic, frame, bound, complete):
    """Is the knowledge base consistent?"""
    rep = Report("kb consistency", complete)
    base = _load(kbfile)
    cfg = _config(logic, frame, bound, complete)
    result = KB.consistency(base, cfg)
    rep.data["mus"] = list(result.mus) if result.mus else None
    rep.data["detail"] = {"assumptions": list(result.labels)}
    lines = [f"verdict: {result.verdict.tag}"]
    if isinstance(result.verdict, SE.ModelFound):
        lines.append(result.verdict.model)
    if result.mus:
        lines.append("minimal unsatisfiable core: " + ", ".join(result.mus))
    return rep.verdict(result.verdict), lines


def cmd_kb_entail(kbfile, goal, logic, frame, bound, complete):
    """Does the knowledge base entail the goal?"""
    rep = Report("kb entail", complete)
    base = _load(kbfile)
    query = F.parse(goal, base.signature, logic=logic)
    cfg = _config(logic, frame, bound, complete)
    result = KB.entailment(base, query, cfg)
    rep.data["detail"] = {"assumptions": list(result.labels),
                          "goal": F.print_formula(query)}
    lines = [f"verdict: {result.verdict.tag}"]
    if isinstance(result.verdict, SE.CountermodelFound):
        lines += [f"goal fails at world {result.verdict.world} of a model "
                  f"satisfying {', '.join(result.labels)}:",
                  result.verdict.model]
    return rep.verdict(result.verdict), lines


def cmd_kb_comply(kbfile, logic, frame, bound, complete):
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
    return rep, lines


# ---------------------------------------------------------------------------
# The command table and the argument layer that reads it


class Param(NamedTuple):
    """An option (`flag` "--name") or, without a flag, an argument, which
    is always required.  `kind` is the value's metavar: "TEXT",
    "INTEGER", "PATH" (an existing path), "DIRECTORY" (not an existing
    file), a tuple of choices, or None for a flag, True when given.
    `many` gives an argument every argument left, as a tuple."""

    dest: str
    flag: str | None = None
    kind: str | tuple[str, ...] | None = "TEXT"
    default: object = None
    show_default: bool = False
    help: str = ""
    required: bool = False
    many: bool = False


class Command(NamedTuple):
    """A leaf of the table, `run` with its `params`, or a group of
    `commands`; `help` is the leaf's docstring or the group's text."""

    help: str
    params: tuple[Param, ...]
    run: Callable | None = None
    commands: dict[str, Command] | None = None


def _parse(cmd: Command, path: str, args: list[str]) -> None:
    """Read args against cmd, a group or a leaf of the table, entering
    the groups' commands, run the leaf's function, print its report in
    the format asked for and exit with its verdict's code."""
    while cmd.commands is not None:
        if not args:
            print(_help(path, cmd), file=sys.stderr)
            sys.exit(3)
        rest = _options(cmd, path, args)[2]
        if not rest:
            raise UsageError("Missing command.", (path, cmd))
        name, args = rest[0], rest[1:]
        if name not in cmd.commands:
            if name[:1] and not name[:1].isalnum():  # after "--": read it as an option
                _options(cmd, path, rest)
            raise UsageError(f"No such command {name!r}.{_did_you_mean(name, cmd.commands)}",
                             (path, cmd))
        cmd, path = cmd.commands[name], f"{path} {name}"
    where = (path, cmd)
    values, order, rest = _options(cmd, path, args)
    for p in cmd.params:
        if p.flag is None:
            order.append(p)
            if rest:
                values[p.dest], rest = (tuple(rest), []) if p.many else (rest[0], rest[1:])
    kwargs = {}
    for p in order + [p for p in cmd.params if p not in order]:
        if p.dest in values:
            kwargs[p.dest] = _value(p, values[p.dest], where)
        elif p.required or p.flag is None:
            what = "argument" if p.flag is None else "option"
            raise UsageError(f"Missing {what} '{p.flag or _metavar(p)}'.", where)
        else:
            kwargs[p.dest] = p.default
    if rest:
        s = "s" if len(rest) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{s} ({' '.join(rest)})", where)
    del kwargs["help"]  # given, it ended the run in _options
    fmt = kwargs.pop("fmt")
    try:
        rep, lines = cmd.run(**kwargs)
        rep.emit(fmt, lines)
    except UsageError as ex:
        ex.where = where
        raise
    except SE.BudgetExceeded as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        sys.exit(2)
    except (F.FormulaError, L.LamError, E.EmbedError, S.SemanticsError,
            SE.SearchError, KB.KBError, OSError, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        sys.exit(3)
    sys.exit(_EXIT[rep.data["verdict"]])


def _options(cmd: Command, path: str, args: list[str]) -> tuple[dict, list[Param], list[str]]:
    """The options in args: their values by dest, the options in the
    order first given, and the other arguments; a group's options end at
    its command.  Prints the help and exits if --help is given."""
    flags = {p.flag: p for p in cmd.params if p.flag}
    values, order, rest = {}, [], []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            rest += args[i:]
            break
        if arg[:1] != "-" or len(arg) == 1:
            if cmd.commands is not None:
                rest += args[i - 1:]
                break
            rest.append(arg)
            continue
        name, eq, value = arg.partition("=")
        p = flags.get(name)
        if p is None:
            if name[:2] != "--":  # read as short options, of which there are none
                raise UsageError(f"No such option {arg[:2]!r}.", (path, cmd))
            raise UsageError(f"No such option {name!r}.{_did_you_mean(name, flags)}", (path, cmd))
        if p.kind is None:  # this error and the next show no usage line
            if eq:
                raise UsageError(f"Option {name!r} does not take a value.")
            value = True
        elif not eq:
            if i == len(args):
                raise UsageError(f"Option {name!r} requires an argument.")
            value = args[i]
            i += 1
        if p.dest not in values:
            order.append(p)
        values[p.dest] = value
    if values.get("help"):
        print(_help(path, cmd))
        sys.exit(0)
    return values, order, rest


def _value(p: Param, value, where):
    """value checked and converted as p's kind says."""
    kind = p.kind
    if kind == "INTEGER":
        try:
            return int(value)
        except ValueError:
            msg = f"{value!r} is not a valid integer."
    elif type(kind) is tuple:
        if value in kind:
            return value
        msg = f"{value!r} is not one of {', '.join(map(repr, kind))}."
    elif kind in ("PATH", "DIRECTORY"):
        what = kind.title()
        if not os.path.exists(value):
            if kind == "DIRECTORY":
                return value
            msg = f"{what} {value!r} does not exist."
        elif kind == "DIRECTORY" and os.path.isfile(value):
            msg = f"{what} {value!r} is a file."
        elif not os.access(value, os.R_OK):
            msg = f"{what} {value!r} is not readable."
        else:
            return value
    else:
        return value
    raise UsageError(f"Invalid value for '{p.flag or _metavar(p)}': {msg}", where)


def _did_you_mean(name: str, names) -> str:
    close = sorted(difflib.get_close_matches(name, names))
    if len(close) > 1:
        return f" (Did you mean one of: {', '.join(map(repr, close))}?)"
    return f" Did you mean {close[0]!r}?" if close else ""


# The help width, whatever the terminal's: the width that
# tests/golden/cli_surface.json fixes.
WIDTH = 80


def _metavar(p: Param) -> str:
    if p.flag is None:
        return p.dest.upper() + ("..." if p.many else "")
    return p.kind if type(p.kind) is str else f"[{'|'.join(p.kind)}]"


def _fill(text: str, width: int, first: str = "", then: str = "") -> str:
    return textwrap.fill(text, width, initial_indent=first, subsequent_indent=then,
                         replace_whitespace=False)


def _usage(path: str, cmd: Command) -> str:
    pieces = ("[OPTIONS] COMMAND [ARGS]..." if cmd.commands is not None else
              " ".join(["[OPTIONS]"] + [_metavar(p) for p in cmd.params if p.flag is None]))
    prefix = f"Usage: {path} "
    if WIDTH >= len(prefix) + 20:
        return _fill(pieces, WIDTH, prefix, " " * len(prefix))
    return f"{prefix}\n" + _fill(pieces, WIDTH, " " * 11, " " * 11)


def _help(path: str, cmd: Command) -> str:
    """cmd's --help page: usage, help text, options and a group's commands."""
    rows = []
    for p in cmd.params:
        if p.flag is None:
            continue
        extra = [f"default: {p.default}"] if p.show_default else []
        if p.required:
            extra.append("required")
        text = p.help
        if extra:
            text = f"{text}  [{'; '.join(extra)}]" if text else f"[{'; '.join(extra)}]"
        rows.append((p.flag if p.kind is None else f"{p.flag} {_metavar(p)}", text))
    about = "\n\n".join(_fill(" ".join(par.split("\n")), WIDTH, "  ", "  ")
                        for par in cmd.help.split("\n\n"))
    out = [_usage(path, cmd), "", about, "", "Options:", _columns(rows)]
    if cmd.commands is not None:
        limit = WIDTH - 6 - max(map(len, cmd.commands))
        out += ["", "Commands:", _columns([(name, _short_help(c.help, limit))
                                           for name, c in sorted(cmd.commands.items())])]
    return "\n".join(out)


def _columns(rows: list[tuple[str, str]]) -> str:
    """A definition list: terms in a column at most 30 wide, their texts
    wrapped to its right."""
    col = min(max(len(term) for term, _ in rows), 30) + 2
    lines = []
    for term, text in rows:
        lines.append(f"  {term}")
        wrapped = _fill(text, max(WIDTH - col - 2, 10)).split("\n") if text else []
        for k, line in enumerate(wrapped):
            if k == 0 and len(term) <= col - 2:
                lines[-1] += " " * (col - len(term)) + line
            else:
                lines.append(" " * (col + 2) + line)
    return "\n".join(lines)


def _short_help(text: str, limit: int) -> str:
    """The first sentence of text, cut to limit with "..." if longer."""
    words = text.split("\n\n")[0].split()
    for k, word in enumerate(words):
        if word.endswith("."):
            words = words[:k + 1]
            break
    if len(" ".join(words)) <= limit:
        return " ".join(words)
    while words and len(" ".join(words)) + 3 > limit:
        words.pop()
    return " ".join(words) + "..."


def _leaf(run: Callable, *params: Param) -> Command:
    return Command(inspect.cleandoc(run.__doc__), (*params, HELP), run)


HELP = Param("help", "--help", None, False, help="Show this message and exit.")
TEXT = Param("text")
KBFILE = Param("kbfile", kind="PATH")
LOGIC = Param("logic", "--logic", tuple(F.LOGICS), "e", True)
FRAME = Param("frame", "--frame", default="", help="comma list: serial,reflexive,total,transitive")
BOUND = Param("bound", "--bound", "INTEGER", 3, True, "maximum world count for bounded search")
COMPLETE = Param("complete", "--complete", None, False, help="decide instead of bounding")
SEARCH = (LOGIC, FRAME, BOUND, COMPLETE)
SIG = Param("sig", "--sig", help="signature as 'pred name/arity; const a,b' (default: inferred)")
FORMAT = Param("fmt", "--format", ("text", "json"), "text", True)

MAIN = Command("Deontic-logic workbench: SDL and system E over finite models.", (HELP,), commands={
    "parse": _leaf(cmd_parse, TEXT, LOGIC, SIG, FORMAT),
    "eval": _leaf(cmd_eval, TEXT,
                  Param("model_path", "--model", "PATH", required=True,
                        help="model JSON file (semantics serialization)"),
                  Param("world", "--world", "INTEGER", 0, True), LOGIC, SIG, FORMAT),
    "check": _leaf(cmd_check, TEXT, *SEARCH, SIG, FORMAT),
    "model": _leaf(cmd_model, Param("texts", many=True), *SEARCH, SIG, FORMAT),
    "translate": _leaf(cmd_translate, TEXT,
                       Param("logic", "--logic", tuple(F.LOGICS), "sdl", True,
                             "sdl demonstrates the guarded standard translation"),
                       Param("local", "--local", None, False,
                             help="local validity at the actual world"),
                       Param("show_steps", "--show-steps", None, False,
                             help="print every reduction step"),
                       Param("name", "--name", default="goal", show_default=True,
                             help="TPTP formula name"),
                       Param("role", "--role", default="conjecture", show_default=True),
                       Param("out_dir", "--out", "DIRECTORY",
                             help="also write the problem to <out>/<name>.p"),
                       SIG, FORMAT),
    "correspondence": _leaf(cmd_correspondence, Param("schema"),
                            Param("frame", "--frame", required=True,
                                  help="comma list of conditions the probe is about"),
                            BOUND, FORMAT),
    "kb": Command("Knowledge-base tasks over .kb files.", (HELP,), commands={
        "consistency": _leaf(cmd_kb_consistency, KBFILE, *SEARCH, FORMAT),
        "entail": _leaf(cmd_kb_entail, KBFILE,
                        Param("goal", "--goal", required=True, help="query formula"),
                        *SEARCH, FORMAT),
        "comply": _leaf(cmd_kb_comply, KBFILE, *SEARCH, FORMAT),
    }),
})


class _Main:
    """The `deon` program over `MAIN`; see the module docstring."""

    name = "main"

    def main(self, args=None, prog_name: str | None = None):
        try:
            _parse(MAIN, prog_name or os.path.basename(sys.argv[0]),
                   list(sys.argv[1:] if args is None else args))
        except UsageError as ex:
            print(ex.text(), file=sys.stderr)
            sys.exit(3)

    def __call__(self, args=None):
        self.main(args)


main = _Main()


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
