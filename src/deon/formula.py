"""Object-language syntax for SDL and system-E formulas.

The grammar (ASCII, whitespace-insensitive)::

    formula := iff
    iff     := imp ("<->" imp)*            left associative
    imp     := or ("->" imp)?              right associative
    or      := and ("|" and)*              left associative
    and     := unary ("&" unary)*          left associative
    unary   := "~" unary | "box" unary | "dia" unary
             | "O" unary | "P" unary | "F" unary
             | "O{" formula "|" formula "}"
             | "forall" IDENT "." formula | "exists" IDENT "." formula
             | atom | "(" formula ")"
    atom    := IDENT ("(" term ("," term)* ")")?

`true` and `false` are reserved identifiers for the derived forms over
the internal atom `__t`, which user signatures can never declare.

In logic "e" the monadic `O p` elaborates to the dyadic `O{p | true}`;
in logic "sdl" monadic `O` is primitive and `O{...}` is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


# Hard keywords can never be declared.  O, P and F are operator keywords
# only while undeclared: a signature may declare them as predicate or
# constant names (the paper-style unary predicate P, say), and the parser
# then reads them as atoms/terms instead of modal operators.
RESERVED_WORDS = frozenset({"box", "dia", "forall", "exists", "true", "false"})
SOFT_KEYWORDS = frozenset({"O", "P", "F"})

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class FormulaError(Exception):
    """Malformed signature, term or formula."""


class ParseError(FormulaError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Signature and terms


@dataclass(frozen=True)
class Signature:
    """Predicate arities plus individual constant names.

    Arity-0 predicates act as propositional atoms.  Predicate and
    constant names must be disjoint identifiers and may not collide
    with grammar keywords.
    """

    predicates: Mapping[str, int]
    constants: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "predicates", dict(self.predicates))
        object.__setattr__(self, "constants", frozenset(self.constants))
        for name in list(self.predicates) + list(self.constants):
            if not _NAME_RE.match(name):
                raise FormulaError(f"bad name {name!r}: must match [A-Za-z][A-Za-z0-9_]*")
            if name in RESERVED_WORDS:
                raise FormulaError(f"name {name!r} is a reserved word")
        overlap = set(self.predicates) & self.constants
        if overlap:
            raise FormulaError(f"names used as both predicate and constant: {sorted(overlap)}")
        for name, arity in self.predicates.items():
            if not isinstance(arity, int) or arity < 0:
                raise FormulaError(f"predicate {name}: arity must be a non-negative int")


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Var(Term):
    name: str


# ---------------------------------------------------------------------------
# Formula AST


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    sub: Formula


@dataclass(frozen=True)
class Dia(Formula):
    sub: Formula


@dataclass(frozen=True)
class Oblig(Formula):
    """Dyadic obligation: body is obligatory given cond."""

    body: Formula
    cond: Formula


@dataclass(frozen=True)
class ObligM(Formula):
    """Monadic obligation (primitive in SDL only)."""

    sub: Formula


@dataclass(frozen=True)
class Perm(Formula):
    sub: Formula


@dataclass(frozen=True)
class Forb(Formula):
    sub: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


RESERVED_ATOM = "__t"
TOP: Formula = Or(Atom(RESERVED_ATOM), Not(Atom(RESERVED_ATOM)))
BOT: Formula = And(Atom(RESERVED_ATOM), Not(Atom(RESERVED_ATOM)))

_BINARY = (And, Or, Implies, Iff)
_UNARY = (Not, Box, Dia, ObligM, Perm, Forb)
_QUANT = (Forall, Exists)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, _UNARY):
        return (f.sub,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    if isinstance(f, Oblig):
        return (f.body, f.cond)
    if isinstance(f, _QUANT):
        return (f.body,)
    raise FormulaError(f"unknown formula node {f!r}")


def size(f: Formula) -> int:
    """Number of formula nodes, counted with multiplicity."""
    return 1 + sum(size(c) for c in children(f))


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """All subformulas of f including f itself, deduplicated, pre-order."""
    seen: dict[Formula, None] = {}

    def walk(g: Formula) -> None:
        if g in seen:
            return
        seen[g] = None
        for c in children(g):
            walk(c)

    walk(f)
    return tuple(seen)


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset(t.name for t in f.args if isinstance(t, Var))
    if isinstance(f, _QUANT):
        return free_vars(f.body) - {f.var}
    out: frozenset[str] = frozenset()
    for c in children(f):
        out |= free_vars(c)
    return out


def atoms_of(f: Formula) -> tuple[Atom, ...]:
    """Distinct atoms occurring in f, reserved atom excluded."""
    out: dict[Atom, None] = {}
    for g in subformulas(f):
        if isinstance(g, Atom) and g.pred != RESERVED_ATOM:
            out[g] = None
    return tuple(out)


def subst_var(f: Formula, var: str, c: Const) -> Formula:
    """Replace free occurrences of an individual variable by a constant."""
    if isinstance(f, Atom):
        args = tuple(c if isinstance(t, Var) and t.name == var else t for t in f.args)
        return Atom(f.pred, args)
    if isinstance(f, _QUANT):
        if f.var == var:
            return f
        return type(f)(f.var, subst_var(f.body, var, c))
    if isinstance(f, _UNARY):
        return type(f)(subst_var(f.sub, var, c))
    if isinstance(f, _BINARY):
        return type(f)(subst_var(f.left, var, c), subst_var(f.right, var, c))
    if isinstance(f, Oblig):
        return Oblig(subst_var(f.body, var, c), subst_var(f.cond, var, c))
    raise FormulaError(f"unknown formula node {f!r}")


def instantiate(schema: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace arity-0 atoms named in mapping by whole formulas."""
    if isinstance(schema, Atom):
        if not schema.args and schema.pred in mapping:
            return mapping[schema.pred]
        return schema
    if isinstance(schema, _UNARY):
        return type(schema)(instantiate(schema.sub, mapping))
    if isinstance(schema, _BINARY):
        return type(schema)(instantiate(schema.left, mapping), instantiate(schema.right, mapping))
    if isinstance(schema, Oblig):
        return Oblig(instantiate(schema.body, mapping), instantiate(schema.cond, mapping))
    if isinstance(schema, _QUANT):
        return type(schema)(schema.var, instantiate(schema.body, mapping))
    raise FormulaError(f"unknown formula node {schema!r}")


def ground(f: Formula, domain: Iterable[str | Const]) -> Formula:
    """Expand quantifiers over a finite, nonempty constant domain.

    Forall becomes a conjunction over the (sorted) domain, Exists a
    disjunction; the result is quantifier free.
    """
    consts = sorted(c.name if isinstance(c, Const) else c for c in domain)
    if not consts:
        raise FormulaError("cannot ground over an empty domain")

    def go(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return g
        if isinstance(g, _QUANT):
            parts = [go(subst_var(g.body, g.var, Const(c))) for c in consts]
            join = And if isinstance(g, Forall) else Or
            out = parts[0]
            for p in parts[1:]:
                out = join(out, p)
            return out
        if isinstance(g, _UNARY):
            return type(g)(go(g.sub))
        if isinstance(g, _BINARY):
            return type(g)(go(g.left), go(g.right))
        if isinstance(g, Oblig):
            return Oblig(go(g.body), go(g.cond))
        raise FormulaError(f"unknown formula node {g!r}")

    return go(f)


def desugar(f: Formula, logic: str) -> Formula:
    """Rewrite derived operators to the logic's primitive ones.

    SDL: box/dia/P/F reduce to monadic O.  E: monadic O/P/F reduce to
    the dyadic operator, dia to ~box~.  Used by the decision procedures;
    evaluation handles every node directly.
    """
    if isinstance(f, Atom):
        return f
    if isinstance(f, _BINARY):
        return type(f)(desugar(f.left, logic), desugar(f.right, logic))
    if isinstance(f, Not):
        return Not(desugar(f.sub, logic))
    if isinstance(f, _QUANT):
        return type(f)(f.var, desugar(f.body, logic))
    if logic == "sdl":
        if isinstance(f, (Box, ObligM)):
            return ObligM(desugar(f.sub, logic))
        if isinstance(f, Dia):
            return Not(ObligM(Not(desugar(f.sub, logic))))
        if isinstance(f, Perm):
            return Not(ObligM(Not(desugar(f.sub, logic))))
        if isinstance(f, Forb):
            return ObligM(Not(desugar(f.sub, logic)))
        if isinstance(f, Oblig):
            raise FormulaError("dyadic obligation is not part of the SDL language")
    else:
        if isinstance(f, Box):
            return Box(desugar(f.sub, logic))
        if isinstance(f, Dia):
            return Not(Box(Not(desugar(f.sub, logic))))
        if isinstance(f, ObligM):
            return Oblig(desugar(f.sub, logic), TOP)
        if isinstance(f, Perm):
            return Not(Oblig(Not(desugar(f.sub, logic)), TOP))
        if isinstance(f, Forb):
            return Oblig(Not(desugar(f.sub, logic)), TOP)
        if isinstance(f, Oblig):
            return Oblig(desugar(f.body, logic), desugar(f.cond, logic))
    raise FormulaError(f"unknown formula node {f!r}")


# ---------------------------------------------------------------------------
# Lexer / parser


@dataclass(frozen=True)
class _Tok:
    kind: str  # IDENT | PUNCT | EOF
    text: str
    line: int
    col: int


_PUNCT = ("<->", "->", "~", "&", "|", "(", ")", "{", "}", ",", ".")


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = re.match(r"[A-Za-z][A-Za-z0-9_]*", text[i:])
        if m:
            toks.append(_Tok("IDENT", m.group(0), line, col))
            i += m.end()
            col += m.end()
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(_Tok("PUNCT", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], sig: Signature, logic: str):
        self.toks = toks
        self.pos = 0
        self.sig = sig
        self.logic = logic
        self.scope: list[str] = []

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: _Tok | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(msg, tok.line, tok.col)

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            raise self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        f = self.imp()
        while self.peek().text == "<->":
            self.next()
            f = Iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        f = self.or_()
        if self.peek().text == "->":
            self.next()
            return Implies(f, self.imp())
        return f

    def or_(self) -> Formula:
        f = self.and_()
        while self.peek().text == "|":
            self.next()
            f = Or(f, self.and_())
        return f

    def and_(self) -> Formula:
        f = self.unary()
        while self.peek().text == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def _is_operator_ident(self, t: _Tok) -> bool:
        if t.kind != "IDENT":
            return False
        if t.text in ("box", "dia"):
            return True
        if t.text in SOFT_KEYWORDS:
            declared = (t.text in self.sig.predicates or t.text in self.sig.constants
                        or t.text in self.scope)
            return not declared
        return False

    def unary(self) -> Formula:
        t = self.peek()
        if t.text == "~":
            self.next()
            return Not(self.unary())
        if self._is_operator_ident(t):
            self.next()
            if t.text == "O" and self.peek().text == "{":
                if self.logic == "sdl":
                    raise self.fail("dyadic obligation O{...} requires logic e", t)
                self.next()
                return self.dyadic_tail(t)
            sub = self.unary()
            if t.text == "box":
                return Box(sub)
            if t.text == "dia":
                return Dia(sub)
            if t.text == "O":
                return Oblig(sub, TOP) if self.logic == "e" else ObligM(sub)
            if t.text == "P":
                return Perm(sub)
            return Forb(sub)
        if t.kind == "IDENT" and t.text in ("forall", "exists"):
            self.next()
            v = self.peek()
            if v.kind != "IDENT" or v.text in RESERVED_WORDS:
                raise self.fail("expected a variable name after quantifier")
            self.next()
            self.expect(".")
            if v.text in self.scope:
                raise self.fail(f"variable {v.text!r} already bound", v)
            self.scope.append(v.text)
            body = self.formula()
            self.scope.pop()
            return Forall(v.text, body) if t.text == "forall" else Exists(v.text, body)
        if t.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t.kind == "IDENT":
            return self.atom()
        raise self.fail(f"expected a formula, found {t.text or 'end of input'!r}")

    def dyadic_tail(self, opener: _Tok) -> Formula:
        # Inside O{ body | cond } the first top-level "|" separates body
        # from condition; a disjunctive body needs parentheses.
        pipe = close = None
        depth = 0
        i = self.pos
        while i < len(self.toks):
            text = self.toks[i].text
            if text in ("(", "{"):
                depth += 1
            elif text == ")":
                depth -= 1
            elif text == "}":
                if depth == 0:
                    close = i
                    break
                depth -= 1
            elif text == "|" and depth == 0 and pipe is None:
                pipe = i
            i += 1
        if close is None:
            raise self.fail("unterminated O{...}", opener)
        if pipe is None:
            raise self.fail("O{...} needs a '|' separating body and condition", opener)
        eof = self.toks[close]
        body = self._sub_parse(self.toks[self.pos:pipe] + [_Tok("EOF", "", eof.line, eof.col)])
        cond = self._sub_parse(self.toks[pipe + 1:close] + [_Tok("EOF", "", eof.line, eof.col)])
        self.pos = close + 1
        return Oblig(body, cond)

    def _sub_parse(self, toks: list[_Tok]) -> Formula:
        sub = _Parser(toks, self.sig, self.logic)
        sub.scope = list(self.scope)
        f = sub.formula()
        if sub.peek().kind != "EOF":
            raise sub.fail(f"unexpected trailing input {sub.peek().text!r}")
        return f

    def atom(self) -> Formula:
        t = self.next()
        name = t.text
        if name == "true":
            return TOP
        if name == "false":
            return BOT
        if self.peek().text == "(":
            self.next()
            args = [self.term()]
            while self.peek().text == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            if name not in self.sig.predicates:
                raise self.fail(f"unknown predicate {name!r}", t)
            arity = self.sig.predicates[name]
            if arity != len(args):
                raise self.fail(
                    f"predicate {name!r} expects {arity} argument(s), got {len(args)}", t
                )
            return Atom(name, tuple(args))
        if name in self.scope:
            raise self.fail(f"variable {name!r} used as a formula", t)
        if name not in self.sig.predicates:
            raise self.fail(f"unknown predicate {name!r}", t)
        if self.sig.predicates[name] != 0:
            raise self.fail(
                f"predicate {name!r} expects {self.sig.predicates[name]} argument(s), got 0", t
            )
        return Atom(name)

    def term(self) -> Term:
        t = self.peek()
        if t.kind != "IDENT" or t.text in RESERVED_WORDS:
            raise self.fail("expected a term")
        self.next()
        if t.text in self.scope:
            return Var(t.text)
        if t.text in self.sig.constants:
            return Const(t.text)
        raise self.fail(f"unknown constant {t.text!r}", t)


def parse(text: str, sig: Signature, logic: str = "e") -> Formula:
    """Parse text against a signature.

    logic selects the obligation sublanguage: in "e" the monadic O is
    sugar for O{.|true}; in "sdl" the dyadic O{...} is rejected.
    """
    if logic not in ("sdl", "e"):
        raise FormulaError(f"unknown logic {logic!r}")
    p = _Parser(_tokenize(text), sig, logic)
    f = p.formula()
    tok = p.peek()
    if tok.kind != "EOF":
        raise p.fail(f"unexpected trailing input {tok.text!r}")
    return f


# ---------------------------------------------------------------------------
# Printer

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5


def _toplevel_pipe(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "|" and depth == 0:
            return True
    return False

_UNARY_HEADS = {Not: "~", Box: "box ", Dia: "dia ", ObligM: "O ", Perm: "P ", Forb: "F "}


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(print(f)) == f."""
    return _show(f, 0, rightmost=True)


def _show(f: Formula, parent_prec: int, rightmost: bool) -> str:
    if f == TOP:
        return "true"
    if f == BOT:
        return "false"
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f.pred + "(" + ", ".join(t.name for t in f.args) + ")"
    if isinstance(f, _QUANT):
        kw = "forall" if isinstance(f, Forall) else "exists"
        body = _show(f.body, 0, rightmost=True)
        s = f"{kw} {f.var}. {body}"
        # The body extends to the end of the formula, so anything to the
        # right of the quantifier would be swallowed on re-parse.
        return s if rightmost else f"({s})"
    if isinstance(f, _UNARY):
        head = _UNARY_HEADS[type(f)]
        return head + _show(f.sub, _PREC_UNARY, rightmost)
    if isinstance(f, Oblig):
        if f.cond == TOP:
            return "O " + _show(f.body, _PREC_UNARY, rightmost)
        body = _show(f.body, 0, rightmost=True)
        if _toplevel_pipe(body):
            # the first top-level "|" inside braces separates body from
            # condition, so the body itself must not expose one
            body = f"({body})"
        cond = _show(f.cond, 0, rightmost=True)
        return f"O{{{body} | {cond}}}"
    if isinstance(f, _BINARY):
        prec = {And: _PREC_AND, Or: _PREC_OR, Implies: _PREC_IMP, Iff: _PREC_IFF}[type(f)]
        op = {And: " & ", Or: " | ", Implies: " -> ", Iff: " <-> "}[type(f)]
        needs_parens = prec < parent_prec
        right_rm = rightmost or needs_parens
        if isinstance(f, Implies):
            # right associative: the left child needs parens at equal precedence
            left = _show(f.left, prec + 1, rightmost=False)
            right = _show(f.right, prec, right_rm)
        else:
            # left associative chain
            left = _show(f.left, prec, rightmost=False)
            right = _show(f.right, prec + 1, right_rm)
        s = left + op + right
        return f"({s})" if needs_parens else s
    raise FormulaError(f"unknown formula node {f!r}")
