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

Terms and formulas are hash-consed, so equality is identity and hashing
is O(1) at any size.  The walks are iterative folds (`fold`) that visit
each distinct subformula once; `subformulas` is an explicit-stack
pre-order walk.  Only the parser and the printer recurse here (outside
this module, so do the compiler in `semantics` and the walks of `lam`).
"""

from __future__ import annotations

import functools
import re
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple


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


class _Node:
    """A hash-consed, immutable syntax node.

    Building a node returns the live node of the same class with the
    same fields, if there is one, so structurally equal nodes are one
    object: equality is identity and hashing is O(1) at any size.  The
    table holds nodes weakly, under the key `(class, *fields)` that each
    node keeps as `_key`.  Each class names its fields in `_fields`.
    """

    __slots__ = ("__weakref__", "_key")
    _fields: tuple[str, ...] = ()

    def __new__(cls, *args):
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} field(s), got {len(args)}")
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_key", key)
            _TABLE[key] = node
        return node

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")
    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Term(_Node):
    __slots__ = ()


class Const(Term):
    __slots__ = _fields = ("name",)


class Var(Term):
    __slots__ = _fields = ("name",)


# ---------------------------------------------------------------------------
# Formula AST


class Formula(_Node):
    __slots__ = ()
    _lead = 0  # leading fields that are not subformulas; the rest are


class Atom(Formula):
    __slots__ = _fields = ("pred", "args")
    _lead = 2

    def __new__(cls, pred: str, args: tuple[Term, ...] = ()):
        return super().__new__(cls, pred, args)


class Not(Formula):
    __slots__ = _fields = ("sub",)


class And(Formula):
    __slots__ = _fields = ("left", "right")


class Or(Formula):
    __slots__ = _fields = ("left", "right")


class Implies(Formula):
    __slots__ = _fields = ("left", "right")


class Iff(Formula):
    __slots__ = _fields = ("left", "right")


class Box(Formula):
    __slots__ = _fields = ("sub",)


class Dia(Formula):
    __slots__ = _fields = ("sub",)


class Oblig(Formula):
    """Dyadic obligation: body is obligatory given cond."""

    __slots__ = _fields = ("body", "cond")


class ObligM(Formula):
    """Monadic obligation (primitive in SDL only)."""

    __slots__ = _fields = ("sub",)


class Perm(Formula):
    __slots__ = _fields = ("sub",)


class Forb(Formula):
    __slots__ = _fields = ("sub",)


class Forall(Formula):
    __slots__ = _fields = ("var", "body")
    _lead = 1


class Exists(Formula):
    __slots__ = _fields = ("var", "body")
    _lead = 1


RESERVED_ATOM = "__t"
TOP: Formula = Or(Atom(RESERVED_ATOM), Not(Atom(RESERVED_ATOM)))
BOT: Formula = And(Atom(RESERVED_ATOM), Not(Atom(RESERVED_ATOM)))

_BINARY = (And, Or, Implies, Iff)
_UNARY = (Not, Box, Dia, ObligM, Perm, Forb)
_QUANT = (Forall, Exists)


def children(f: Formula) -> tuple[Formula, ...]:
    return f._key[f._lead + 1:]


def fold(f: Formula, visit: Callable[[Formula, list], Any]) -> Any:
    """Bottom-up value of f: visit(g, the values of g's children).

    Post-order over an explicit stack, memoized per node: visit runs once
    per distinct subformula, children left to right, at any depth.
    """
    memo: dict[Formula, Any] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if g in memo:
            stack.pop()
            continue
        kids = children(g)
        todo = [c for c in kids if c not in memo]
        if todo:
            stack.extend(reversed(todo))
        else:
            stack.pop()
            memo[g] = visit(g, [memo[c] for c in kids])
    return memo[f]


def _rebuild(g: Formula, kids: list[Formula]) -> Formula:
    """The node of g's class and leading fields over new children."""
    return type(g)(*g._key[1:g._lead + 1], *kids)


def size(f: Formula) -> int:
    """Number of formula nodes, counted with multiplicity."""
    return fold(f, lambda g, kids: 1 + sum(kids))


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """All subformulas of f including f itself, deduplicated, pre-order."""
    seen: dict[Formula, None] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen[g] = None
            stack.extend(reversed(children(g)))
    return tuple(seen)


def free_vars(f: Formula) -> frozenset[str]:
    def visit(g: Formula, kids: list[frozenset[str]]) -> frozenset[str]:
        if isinstance(g, Atom):
            return frozenset(t.name for t in g.args if isinstance(t, Var))
        if isinstance(g, _QUANT):
            return kids[0] - {g.var}
        return frozenset().union(*kids)

    return fold(f, visit)


def atoms_of(f: Formula) -> tuple[Atom, ...]:
    """Distinct atoms occurring in f, reserved atom excluded."""
    return tuple(g for g in subformulas(f) if isinstance(g, Atom) and g.pred != RESERVED_ATOM)


def subst_var(f: Formula, var: str, c: Const) -> Formula:
    """Replace free occurrences of an individual variable by a constant."""
    v = Var(var)

    def visit(g: Formula, kids: list[Formula]) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(c if t is v else t for t in g.args))
        if isinstance(g, _QUANT) and g.var == var:
            return g
        return _rebuild(g, kids)

    return fold(f, visit)


def instantiate(schema: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace arity-0 atoms named in mapping by whole formulas."""

    def visit(g: Formula, kids: list[Formula]) -> Formula:
        if isinstance(g, Atom) and not g.args and g.pred in mapping:
            return mapping[g.pred]
        return _rebuild(g, kids)

    return fold(schema, visit)


def ground(f: Formula, domain: Iterable[str | Const]) -> Formula:
    """Expand quantifiers over a finite, nonempty constant domain.

    Forall becomes a conjunction over the (sorted) domain, Exists a
    disjunction; the result is quantifier free.  Each quantifier's body
    is grounded once and then instantiated per constant.
    """
    consts = sorted(c.name if isinstance(c, Const) else c for c in domain)
    if not consts:
        raise FormulaError("cannot ground over an empty domain")

    def visit(g: Formula, kids: list[Formula]) -> Formula:
        if isinstance(g, _QUANT):
            join = And if isinstance(g, Forall) else Or
            return functools.reduce(join, [subst_var(kids[0], g.var, Const(c)) for c in consts])
        return _rebuild(g, kids)

    return fold(f, visit)


# Derived operator -> its rewrite over already desugared children; nodes
# of any other class keep their class.
_DESUGAR_SDL = {
    Box: ObligM,
    Dia: lambda s: Not(ObligM(Not(s))),
    Perm: lambda s: Not(ObligM(Not(s))),
    Forb: lambda s: ObligM(Not(s)),
}
_DESUGAR_E = {
    Dia: lambda s: Not(Box(Not(s))),
    ObligM: lambda s: Oblig(s, TOP),
    Perm: lambda s: Not(Oblig(Not(s), TOP)),
    Forb: lambda s: Oblig(Not(s), TOP),
}


def desugar(f: Formula, logic: str) -> Formula:
    """Rewrite derived operators to the logic's primitive ones.

    SDL: box/dia/P/F reduce to monadic O.  E: monadic O/P/F reduce to
    the dyadic operator, dia to ~box~.  Used by the decision procedures;
    evaluation handles every node directly.
    """
    table = _DESUGAR_SDL if logic == "sdl" else _DESUGAR_E

    def visit(g: Formula, kids: list[Formula]) -> Formula:
        if isinstance(g, Oblig) and logic == "sdl":
            raise FormulaError("dyadic obligation is not part of the SDL language")
        rule = table.get(type(g))
        return rule(*kids) if rule else _rebuild(g, kids)

    return fold(f, visit)


# ---------------------------------------------------------------------------
# Lexer / parser


class _Tok(NamedTuple):
    kind: str  # IDENT | PUNCT | EOF
    text: str
    line: int
    col: int


# One alternative per lexical class; `bad` catches any other character.
_TOKEN_RE = re.compile(r"""
    (?P<newline>\n) | (?P<blank>[ \t\r]+) | (?P<comment>\#[^\n]*)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*) | (?P<PUNCT><->|->|[~&|(){},.]) | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, col = line + 1, 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind != "comment":  # a comment does not advance the column
            if kind != "blank":
                toks.append(_Tok(kind, m.group(), line, col))
            col += m.end() - m.start()
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
