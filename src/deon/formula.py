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
is O(1) at any size; `_Node` is also the node core of `lam`'s types and
terms and of `embed`'s first-order formulas.  The walks are iterative
folds (`fold`) that visit each distinct node once, in any of the three
families; `subformulas` is an explicit-stack pre-order walk.  The
parser is one precedence-climbing loop over the token texts of
`tokens`, which folds each repeated parenthesized group to one token
first, so each distinct group text is parsed once per scope; the
printer and `repr` are explicit-stack walks, so nothing here recurses
at any nesting depth.
"""

from __future__ import annotations

import functools
import re
import weakref
from _weakref import _remove_dead_weakref
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


def check_logic(logic: str, error: type[Exception] = FormulaError) -> Logic:
    """The record of logic in `LOGICS`; ``error`` if there is none."""
    if isinstance(logic, str) and logic in LOGICS:
        return LOGICS[logic]
    raise error(f"unknown logic {logic!r}")


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
    object: equality is identity and hashing is O(1) at any size.  Each
    class names its fields in `_fields`, and a class whose nodes record
    more than their fields gives those slots in `_derived` and their
    values as a function of the fields in `_derive`.

    `_TABLE` maps the key `(class, *fields)`, which each node keeps as
    `_key`, to a weak reference to the node; the reference drops its
    entry when the node dies.  This `__new__` is the only constructor:
    a new node is `object.__new__` and one pass over the class's slot
    setters (`_setters`, made once per class by `__init_subclass__`).

    The fields after the first `_lead` are the node's children, nodes of
    its own family, which `children`, `fold` and `subformulas` walk, so
    the walks serve formulas, λ-terms and first-order formulas alike.
    `repr` writes the text a dataclass would, from an explicit stack.
    """

    __slots__ = ("__weakref__", "_key")
    _fields: tuple[str, ...] = ()
    _lead = 0
    _derived: tuple[str, ...] = ()
    _derive: Callable[..., tuple] | None = None
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in (*cls._fields, "_key", *cls._derived))

    def __new__(cls, *args):
        key = (cls, *args)
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} field(s), got {len(args)}")
        node = object.__new__(cls)
        derive = cls._derive
        for setter, value in zip(cls._setters,
                                 (*args, key) if derive is None else (*args, key, *derive(*args))):
            setter(node, value)
        ref = _TABLE[key] = _Ref(node, _drop)
        ref.key = key
        return node

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")
    __delattr__ = __setattr__

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]  # nodes to write, and texts already written
        while stack:
            g = stack.pop()
            if type(g) is str:
                out.append(g)
                continue
            out.append(f"{type(g).__name__}(")
            stack.append(")")
            for i in reversed(range(len(g._fields))):
                v = g._key[i + 1]
                stack += (v if isinstance(v, _Node) and type(v).__repr__ is _Node.__repr__
                          else repr(v), f"{', ' if i else ''}{g._fields[i]}=")
        return "".join(out)


class _Ref(weakref.ref):
    """A weak reference to a node that knows the node's table key."""

    __slots__ = ("key",)


_TABLE: dict[tuple, _Ref] = {}


def _drop(ref: _Ref, table=_TABLE, remove=_remove_dead_weakref) -> None:
    """Drop a dead node's entry, unless a new node took its key since.
    The table and the remover are bound here, so that a node dying at
    interpreter exit finds them still."""
    remove(table, ref.key)


class Term(_Node):
    __slots__ = ()


class Const(Term):
    __slots__ = _fields = ("name",)
    _lead = 1


class Var(Term):
    __slots__ = _fields = ("name",)
    _lead = 1


# ---------------------------------------------------------------------------
# Formula AST


class Formula(_Node):
    __slots__ = ()


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


def children(f: _Node) -> tuple[_Node, ...]:
    """f's fields after its `_lead`: its subformulas, subterms or
    first-order operands."""
    return f._key[f._lead + 1:]


def fold(f: _Node, visit: Callable[[_Node, list], Any],
         memo: dict[_Node, Any] | None = None) -> Any:
    """Bottom-up value of f: visit(g, the values of g's children).

    Post-order over an explicit stack, memoized per node: visit runs once
    per distinct node, children left to right, at any depth.  A
    memo passed in holds values already known and gets the new ones, so
    that folds of several formulas share their common nodes.
    """
    if memo is None:
        memo = {}
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


def subformulas(f: _Node) -> tuple[_Node, ...]:
    """All subformulas of f including f itself, deduplicated, pre-order
    (all subterms, for a λ-term)."""
    seen: dict[_Node, None] = {}
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


def is_ground(f: Formula) -> bool:
    """True iff f has no quantifier and no variable argument."""
    return not any(isinstance(g, _QUANT) or type(g) is Atom and any(type(t) is Var for t in g.args)
                   for g in subformulas(f))


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


# The place of a rule's operand, which is each rule's leftmost leaf.  No
# signature declares its empty name.
CHILD = Atom("")


class Logic(NamedTuple):
    """All that sets a logic apart, so that no module compares names."""

    name: str
    rules: Mapping[type, Formula]  # each derived operator's rewrite over CHILD
    modal: Mapping[type, str]  # each primitive modal class's op tag (semantics)
    serial: bool  # serial Kripke models; else preference models


LOGICS = {
    "sdl": Logic("sdl", {Box: ObligM(CHILD),
                         Dia: Not(ObligM(Not(CHILD))),
                         Perm: Not(ObligM(Not(CHILD))),
                         Forb: ObligM(Not(CHILD))},
                 {ObligM: "boxs"}, True),
    "e": Logic("e", {Dia: Not(Box(Not(CHILD))),
                     ObligM: Oblig(CHILD, TOP),
                     Perm: Not(Oblig(Not(CHILD), TOP)),
                     Forb: Oblig(Not(CHILD), TOP)},
               {Box: "boxe", Oblig: "oblig"}, False),
}
SDL_DYADIC = "dyadic obligation is not part of the SDL language"


def desugar(f: Formula, logic: str) -> Formula:
    """Rewrite derived operators to the logic's primitive ones.

    SDL: box/dia/P/F reduce to monadic O.  E: monadic O/P/F reduce to
    the dyadic operator, dia to ~box~.  One `fold`, which rebuilds a
    derived node's rule in the logic's `rules` over its child's form;
    the compiler reads the rules itself (`semantics.CompiledBank`).
    """
    lg = check_logic(logic)

    def visit(g: Formula, kids: list[Formula]) -> Formula:
        if type(g) is Oblig and Oblig not in lg.modal:
            raise FormulaError(SDL_DYADIC)
        rule = lg.rules.get(type(g))
        return fold(rule, _rebuild, {CHILD: kids[0]}) if rule else _rebuild(g, kids)

    return fold(f, visit)


# ---------------------------------------------------------------------------
# Lexer / parser


class _Tok(NamedTuple):
    kind: str  # IDENT | PUNCT | EOF
    text: str
    line: int
    col: int


# The lexical classes, from which the patterns below are built.
_BLANKS = " \t\r"  # and "\n", which also ends a line
_BLANK = f"[{_BLANKS}]"
_COMMENT = r"\#[^\n]*"
_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_PUNCT = r"<->|->|[~&|(){},.]"

# One alternative per lexical class; `bad` catches any other character.
_TOKEN_RE = re.compile(rf"(?P<newline>\n)|(?P<blank>{_BLANK}+)|(?P<comment>{_COMMENT})"
                       rf"|(?P<IDENT>{_IDENT})|(?P<PUNCT>{_PUNCT})|(?P<bad>.)")


def _tokenize(text: str) -> list[_Tok]:
    """Tokens with their lines and columns, to place an error; the
    parser reads `tokens`."""
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


_COMMENT_RE = re.compile(_COMMENT)
_WORD_RE = re.compile(rf"{_IDENT}|{_PUNCT}")

# A folded group's token: its number between two placeholder characters,
# which no well-formed text holds.  The numbers are closed off so that a
# stray digit after a group can never extend one.
_HOLE = "\x00"
_FOLDED_RE = re.compile(rf"{_IDENT}|{_PUNCT}|{_HOLE}\d+{_HOLE}")
_GROUP_RE = re.compile(r"\([^()]*\)")  # a group with no "(" or ")" inside
# Folding stops once the characters it has scanned reach this many times
# the text's length, so it stays linear in the text: a text that folds
# little (deep, or with few repeats) stops after a few scans and leaves
# the rest to the token pass.  The doubling texts, whose every group but
# the outermost repeats, need about 4.4 times (5.1 at 635 characters).
_FOLD_WORK = 8


def _fold(bare: str) -> tuple[str, dict[str, str]]:
    """bare with each repeated group folded to one placeholder token,
    and the text of each group under its placeholder.

    A sweep searches left to right for innermost groups; one whose text
    occurs again further on becomes a placeholder at every occurrence.
    An earlier occurrence would have been found first, so none is
    missed.  A group whose inner groups have all been folded is
    innermost on the next sweep, until a sweep folds nothing or the
    work bound `_FOLD_WORK` is spent.  This is hash-consing (Filliâtre
    and Conchon 2006) done on the text, by the repeated-pair
    replacement of Re-Pair (Larsson and Moffat 2000).
    """
    texts: dict[str, str] = {}
    work, budget = 0, _FOLD_WORK * len(bare)
    while True:
        pos, before = 0, len(texts)
        while work < budget and (m := _GROUP_RE.search(bare, pos)):
            g = m.group()
            at = bare.find(g, m.end())
            if at < 0:
                work += len(bare) - pos
                pos = m.end()
                continue
            hole = f"{_HOLE}{len(texts)}{_HOLE}"
            texts[hole] = g
            work += at + len(g) - pos + len(bare)
            bare = bare.replace(g, hole)
            pos = m.start() + len(hole)
        if len(texts) == before or work >= budget:
            return bare, texts


def _words(part: str, word: re.Pattern, text: str) -> list[str]:
    """The token texts of part, a piece of text with its comments gone.

    `findall` skips what no class takes, so part is well formed iff the
    tokens take every character but the blanks; if they do not, the
    error is `_tokenize(text)`'s."""
    toks = word.findall(part)
    if sum(map(len, toks)) != len(part) - sum(map(part.count, _BLANKS + "\n")):
        _tokenize(text)  # raises at the first character no class takes
    return toks


def tokens(text: str, groups: dict[str, list[str]] | None = None) -> list[str]:
    """The texts of `_tokenize(text)`, "" last for the end of input.

    One `findall` cuts the text, and no position is kept, since only an
    error needs one.  A token is an identifier iff its first character
    is a letter (`t[:1].isalpha()`).

    Given a dict groups, the comment-free text is folded first (`_fold`),
    the one place where groups are interned: each group whose text
    repeats becomes one placeholder token, and groups maps each
    placeholder to the tokens of its group, "(" to ")", in which inner
    placeholders stand for their groups.  So the token pass reads each
    repeated group once.  Folding scans at most `_FOLD_WORK` times the
    text's length and leaves what it has not folded as it is.
    Placeholders are never identifiers, and a text that holds the
    placeholder character is not folded: that character is an error,
    raised as without folding.
    """
    bare = _COMMENT_RE.sub("", text) if "#" in text else text
    word = _WORD_RE
    if groups is not None and _HOLE not in bare:
        bare, texts = _fold(bare)
        if texts:
            word = _FOLDED_RE
            for hole, part in texts.items():
                groups[hole] = _words(part, word, text)
    toks = _words(bare, word, text)
    toks.append("")
    return toks


_STEPS = {"{": 1, "|": 0, "}": -1, ")": -1}  # depth steps of the marks


def _brackets(toks: list[str], braces: bool):
    """The pairs of parentheses in toks and, if braces, the parts of each
    O{...}.

    One pass left to right pairs each "(" with its ")" on a stack:
    `pairs` maps the index of each "(" so closed to that of its ")".
    Equal groups are found by the fold of `tokens`, not here.

    `found` maps the index of each "{" to the (first "|", "}") at the
    depth just inside it.  The depth before a token counts the "(" and
    "{" before it up and the ")" and "}" down.  The pass notes the depth
    of each "{", "|" and "}"; then one pass right to left over those
    keeps, per depth, the nearest "|" and "}" seen.  A "|" past the "}"
    does not belong to it.
    """
    pairs: dict[int, int] = {}
    opens: list[int] = []  # the index of each open "("
    marks = []  # (index, text, depth) of each "{", "|", "}" and unpaired ")"
    d = 0  # "{" less "}" and unpaired ")" so far; the depth adds the open "("
    for j, t in enumerate(toks):
        if t == "(":
            opens.append(j)
        elif t == ")" and opens:
            pairs[opens.pop()] = j
        elif braces and t in _STEPS:
            marks.append((j, t, d + len(opens)))
            d += _STEPS[t]
    if not braces:
        return pairs, None
    pipes: dict[int, int] = {}
    shuts: dict[int, int] = {}
    found = {}
    for j, t, depth in reversed(marks):
        if t == "}":
            shuts[depth] = j
        elif t == "|":
            pipes[depth] = j
        elif t == "{":
            found[j] = (pipes.get(depth + 1), shuts.get(depth + 1))
    return pairs, found


_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5
_PREFIX = {"~": Not, "box": Box, "dia": Dia}
# binary operator -> (precedence, class, the least precedence it reduces
# on its left: its own when left associative, one more for "->")
_INFIX = {"<->": (_PREC_IFF, Iff, _PREC_IFF), "->": (_PREC_IMP, Implies, _PREC_IMP + 1),
          "|": (_PREC_OR, Or, _PREC_OR), "&": (_PREC_AND, And, _PREC_AND)}


def parse(text: str, sig: Signature, logic: str = "e") -> Formula:
    """Parse text against a signature.

    logic selects the obligation sublanguage from its record: in "e"
    the monadic O is read through its rule, as O{.|true}; in "sdl",
    whose `modal` has no dyadic O, O{...} is rejected.

    The text is folded first (`tokens` with a group table, `_fold`):
    each group whose text repeats is cut into tokens once, and each of
    its occurrences is one placeholder token.  `_read` parses the tokens
    and reads each placeholder's group once per scope.  A text whose
    folded tokens do not parse is read again unfolded, so every error,
    with its message and place, is that of the plain pass; a text with
    nothing to fold is read once, unfolded.
    """
    check_logic(logic)
    groups: dict[str, list[str]] = {}
    toks = tokens(text, groups)
    if groups:
        try:
            return _read(text, toks, groups, sig, logic)
        except ParseError:  # raised unplaced; the plain pass places it
            toks, groups = tokens(text), {}
    return _read(text, toks, groups, sig, logic)


def _read(text: str, toks: list[str], groups: dict[str, list[str]], sig: Signature,
          logic: str) -> Formula:
    """The formula of toks, the tokens of text, folded by `tokens` if
    groups is not empty.

    One precedence-climbing loop (Pratt, "Top down operator precedence",
    1973) over an operator stack and a stack of left operands, so no
    nesting depth recurses.  The operator stack holds prefix operators
    (precedence 5), binary ones (1-4) and markers (0) that no reduction
    passes: the end, "(", a quantifier, whose body reaches as far as a
    formula can, and the two parts of O{body | cond}.  Inside the braces
    the first top-level "|" and then the "}" (`_brackets`) read as the
    end of input.

    A placeholder in place of a formula is a folded group, parsed once
    per scope (the packrat idea of Ford, ICFP 2002, keyed by a group's
    text instead of a position).  At the first, the loop pushes a "("
    marker that holds where to go on, reads the group's own tokens up to
    its ")", stores the node under (placeholder, id of the bound
    variables in scope) and goes on after the placeholder; the marker
    stack is the stack of groups being read.  At a stored key it takes
    the node.  An identifier before a placeholder reads the group's
    tokens as its arguments.

    A group is read from its own tokens, and that is how it reads in
    place in the unfolded text: the signature and logic are fixed, a
    group that parses holds the whole of every O{...} it opens, so the
    bracket pass finds the same parts for it either way, and no
    enclosing "|" or "}" of an O{...} lies inside a group, so none ends
    it early.  So a group's node depends only on its text and the
    scope, and equal group texts in one scope give one node.  The scope
    is in the key because `P(x)` reads x as a variable under `forall x.`
    and as a constant outside it.  A folded text that fails raises an
    unplaced error at once, for `parse` to read the text again
    unfolded.
    """
    preds, consts = sig.predicates, sig.constants
    lg = LOGICS[logic]
    rule = lg.rules.get(ObligM)  # E's monadic O is read through its rule
    monadic_o = ObligM if rule is None else lambda sub: fold(rule, _rebuild, {CHILD: sub})
    braces = _brackets(toks, True)[1] if "{" in text else None
    end = close = len(toks) - 1  # the end of input, and where it is placed
    scope: list[str] = []  # bound variables, innermost last
    sid = 0  # the scope's id
    scopes: dict[tuple[int, str], int] = {}  # (scope id, variable) -> inner scope id
    memo: dict[tuple[str, int], Formula] = {}  # (placeholder, scope id) -> node
    ops: list[tuple] = [(0, "end")]
    left: list[Formula] = []

    def fail(msg: str, j: int) -> ParseError:
        """The error at token j, placed by `_tokenize`; an end of input at
        the end of an O{...} part is placed at its "}"."""
        if groups:
            return ParseError(msg, 0, 0)
        tok = _tokenize(text)[j if toks[j] else close]
        return ParseError(msg, tok.line, tok.col)

    i = 0
    while True:
        # An operand: prefix operators and openers, then one atom.
        t = toks[i]
        op = _PREFIX.get(t)
        if op is None and t in SOFT_KEYWORDS and not (t in preds or t in consts or t in scope):
            if t == "O" and toks[i + 1] == "{":
                if Oblig not in lg.modal:
                    raise fail("dyadic obligation O{...} requires logic e", i)
                pipe, shut = braces[i + 1]
                if shut is None or shut >= end:
                    raise fail("unterminated O{...}", i)
                if pipe is None or pipe > shut:
                    raise fail("O{...} needs a '|' separating body and condition", i)
                ops.append((0, "body", end, close))
                toks[pipe] = toks[shut] = ""
                end, close = pipe, shut
                i += 2
                continue
            op = monadic_o if t == "O" else Perm if t == "P" else Forb
        if op is not None:
            ops.append((_PREC_UNARY, op))
            i += 1
            continue
        if t == "(":
            ops.append((0, "("))
            i += 1
            continue
        if t in groups:
            key = (t, sid)
            f = memo.get(key)
            if f is None:  # read the group from after its "("
                ops.append((0, "(", key, toks, i + 1, braces, end, close))
                toks = groups[t]
                braces = _brackets(toks, True)[1] if "{" in toks else None
                end = close = len(toks)
                i = 1
                continue
        elif t == "forall" or t == "exists":
            v = toks[i + 1]
            if not v[:1].isalpha() or v in RESERVED_WORDS:
                raise fail("expected a variable name after quantifier", i + 1)
            if toks[i + 2] != ".":
                raise fail(f"expected '.', found {toks[i + 2] or 'end of input'!r}", i + 2)
            if v in scope:
                raise fail(f"variable {v!r} already bound", i + 1)
            scope.append(v)
            ops.append((0, t, v, sid))
            sid = scopes.setdefault((sid, v), len(scopes) + 1)
            i += 3
            continue
        elif not t[:1].isalpha():
            raise fail(f"expected a formula, found {t or 'end of input'!r}", i)
        elif t == "true":
            f = TOP
        elif t == "false":
            f = BOT
        elif toks[i + 1] == "(" or toks[i + 1] in groups:
            # the arguments, in toks or in the folded group's tokens
            run, k = toks, i
            if toks[i + 1] != "(":
                run, k = groups[toks[i + 1]], -1
            args: list[Term] = []
            while True:
                k += 2
                a = run[k]
                if not a[:1].isalpha() or a in RESERVED_WORDS:
                    raise fail("expected a term", k)
                if a in scope:
                    args.append(Var(a))
                elif a in consts:
                    args.append(Const(a))
                else:
                    raise fail(f"unknown constant {a!r}", k)
                if run[k + 1] != ",":
                    break
            k += 1
            if run[k] != ")":
                raise fail(f"expected ')', found {run[k] or 'end of input'!r}", k)
            arity = preds.get(t)
            if arity is None:
                raise fail(f"unknown predicate {t!r}", i)
            if arity != len(args):
                raise fail(f"predicate {t!r} expects {arity} argument(s), got {len(args)}", i)
            f = Atom(t, tuple(args))
            i = k if run is toks else i + 1
        else:
            if t in scope:
                raise fail(f"variable {t!r} used as a formula", i)
            arity = preds.get(t)
            if arity is None:
                raise fail(f"unknown predicate {t!r}", i)
            if arity:
                raise fail(f"predicate {t!r} expects {arity} argument(s), got 0", i)
            f = Atom(t)
        i += 1
        # After an operand: a binary operator, or the end of what encloses it.
        while True:
            while ops[-1][0] == _PREC_UNARY:
                f = ops.pop()[1](f)
            t = toks[i]
            b = _INFIX.get(t)
            if b is not None:
                stop = b[2]
                while ops[-1][0] >= stop:
                    f = ops.pop()[1](left.pop(), f)
                left.append(f)
                ops.append(b)
                i += 1
                break
            while ops[-1][0]:
                f = ops.pop()[1](left.pop(), f)
            mark = ops.pop()
            kind = mark[1]
            if kind == "(":
                if t != ")":
                    raise fail(f"expected ')', found {t or 'end of input'!r}", i)
                if len(mark) == 2:
                    i += 1
                else:  # a folded group's end: on after its placeholder
                    memo[mark[2]] = f
                    toks, i, braces, end, close = mark[3:]
            elif kind == "forall" or kind == "exists":
                scope.pop()
                sid = mark[3]
                f = (Forall if kind == "forall" else Exists)(mark[2], f)
            elif t:
                raise fail(f"unexpected trailing input {t!r}", i)
            elif kind == "body":
                toks[end] = "|"  # as it was, for a group read again in another scope
                left.append(f)
                ops.append((0, "cond", *mark[2:]))
                end = close
                i += 1
                break
            elif kind == "cond":
                toks[close] = "}"
                f = Oblig(left.pop(), f)
                end, close = mark[2:]
                i += 1
            else:
                return f


# ---------------------------------------------------------------------------
# Printer

_UNARY_HEADS = {Not: "~", Box: "box ", Dia: "dia ", ObligM: "O ", Perm: "P ", Forb: "F "}
_BINARY_SHOW = {cls: (prec, f" {text} ") for text, (prec, cls, _) in _INFIX.items()}


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(print(f)) == f.

    An explicit stack of pending work, popped in output order: a string
    is written out, and (formula, precedence of its context, whether
    nothing follows it) is shown.  The first top-level "|" inside
    O{...} separates body from condition, so a body that shows one gets
    parentheses: `bodies` holds, per body being written, its output
    index, the bracket depth inside its braces and whether a "|" was
    written at that depth; None on the stack ends the body.
    """
    out: list[str] = []
    stack: list = [(f, 0, True)]
    depth = 0  # brackets open in out
    bodies: list[list] = []
    while stack:
        item = stack.pop()
        if type(item) is str:
            if item == " | ":
                if bodies and bodies[-1][1] == depth:
                    bodies[-1][2] = True
            elif item == ")" or item == "}":
                depth -= 1
            out.append(item)
            continue
        if item is None:
            start, _, exposed = bodies.pop()
            if exposed:
                out[start] = "("
                out.append(")")
            out.append(" | ")
            continue
        g, parent_prec, rightmost = item
        if g is TOP:
            out.append("true")
        elif g is BOT:
            out.append("false")
        elif isinstance(g, Atom):
            out.append(g.pred + "(" + ", ".join(t.name for t in g.args) + ")" if g.args
                       else g.pred)
        elif isinstance(g, _QUANT):
            kw = "forall" if isinstance(g, Forall) else "exists"
            # The body extends to the end of the formula, so anything to the
            # right of the quantifier would be swallowed on re-parse.
            if rightmost:
                out.append(f"{kw} {g.var}. ")
            else:
                out.append(f"({kw} {g.var}. ")
                depth += 1
                stack.append(")")
            stack.append((g.body, 0, True))
        elif isinstance(g, _UNARY):
            out.append(_UNARY_HEADS[type(g)])
            stack.append((g.sub, _PREC_UNARY, rightmost))
        elif isinstance(g, Oblig):
            if g.cond is TOP:
                out.append("O ")
                stack.append((g.body, _PREC_UNARY, rightmost))
            else:
                out += ("O{", "")
                depth += 1
                bodies.append([len(out) - 1, depth, False])
                stack += ("}", (g.cond, 0, True), None, (g.body, 0, True))
        elif isinstance(g, _BINARY):
            prec, op = _BINARY_SHOW[type(g)]
            needs_parens = prec < parent_prec
            if needs_parens:
                out.append("(")
                depth += 1
                stack.append(")")
            right_rm = rightmost or needs_parens
            if isinstance(g, Implies):
                # right associative: the left child needs parens at equal precedence
                stack += ((g.right, prec, right_rm), op, (g.left, prec + 1, False))
            else:
                # left associative chain
                stack += ((g.right, prec + 1, right_rm), op, (g.left, prec, False))
        else:
            raise FormulaError(f"unknown formula node {g!r}")
    return "".join(out)
