"""The semantical embedding pipeline.

A formula becomes a lambda term of type i>o (a predicate on worlds) by
translating each operator to a defining lambda term and each atom to a
constant (`embed`, the one entry point for either logic);
normalization then unfolds the definitions.  Wrapping with `vld`
produces a closed term of type o.  The terms are `lam`'s locally
nameless nodes, which record their types.  `lower` reads a normal form
off, in one walk that also names binders and infers their sorts, as a
two-sorted first-order formula over worlds and individuals: it finds
each bound variable by its index in its stack of binders, and makes the
first-order names as it reads the binders.

`translation` gives what `L.show` and `lower` give for the normal form
of `vld(embed(f))`, read off the formula itself in one walk that builds
no lambda term; `translate` uses it.  Normalizing the embedding and
lowering the result stay the reference the tests hold it to, and the
stepper of `--show-steps` runs on the embedding.  First-order formulas
are nodes on `formula._Node`, like formulas and λ-terms: equal ones are
one object, and `repr` and `formula`'s walks serve them (the guardedness
check is one `F.fold`).  A first-order formula can be evaluated
directly in a finite model.  It is printed, as text and as a TPTP FOF
problem at once, by one forward pass over its pre-order program
(`print_program`): the program that pass 1 of `translation` writes,
which the `translate` command prints without building the formula, or
the one `fo_show` and `emit_tptp` flatten a formula into.

SDL translates box through a guarded accessibility quantifier; system E
gives box the global reading and the dyadic obligation the optimality
reading over the betterness constant Rb.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from . import formula as F
from . import lam as L
from . import semantics as S


class EmbedError(Exception):
    pass


class LowerError(EmbedError):
    pass


class HigherOrderResidue(LowerError):
    """The normal form quantifies over a function type or otherwise
    escapes the first-order readable fragment."""


R_ACC = L.Const("R", L.fn(L.I, L.I, L.O))     # SDL accessibility
R_BET = L.Const("Rb", L.fn(L.I, L.I, L.O))    # betterness in system E
AW = L.Const("aw", L.I)                        # actual world (local validity)

_tau = L.TAU
_abs = L.Abs


def _v(name, ty=L.I):
    return L.Var(name, ty)


# Operator definitions, unfolded by normalization (and, as their normal
# bodies, by `translation`).

SDL_BOX = _abs("phi", _tau, _abs("w", L.I, L.forall(
    "v", L.I, L.lor(L.neg(L.app(R_ACC, _v("w"), _v("v"))),
                    L.App(_v("phi", _tau), _v("v"))))))

SDL_DIA = _abs("phi", _tau, _abs("w", L.I, L.exists(
    "v", L.I, L.land(L.app(R_ACC, _v("w"), _v("v")),
                     L.App(_v("phi", _tau), _v("v"))))))

E_BOX = _abs("phi", _tau, _abs("x", L.I, L.forall(
    "y", L.I, L.App(_v("phi", _tau), _v("y")))))

E_DIA = _abs("phi", _tau, _abs("x", L.I, L.exists(
    "y", L.I, L.App(_v("phi", _tau), _v("y")))))

# O(psi/phi): at any x, every phi-world at least as good as all
# phi-worlds is a psi-world.  The inner redex mirrors the definition.
E_OBLIG = _abs("psi", _tau, _abs("phi", _tau, _abs("x", L.I, L.forall(
    "w", L.I,
    L.limp(
        L.App(_abs("v", L.I,
                   L.land(L.App(_v("phi", _tau), _v("v")),
                          L.forall("y", L.I,
                                   L.limp(L.App(_v("phi", _tau), _v("y")),
                                          L.app(R_BET, _v("v"), _v("y")))))),
              _v("w")),
        L.App(_v("psi", _tau), _v("w")))))))

# Pointwise lifted connectives.
NOT_PW = _abs("phi", _tau, _abs("w", L.I, L.neg(L.App(_v("phi", _tau), _v("w")))))
_bin = lambda op: _abs("phi", _tau, _abs("psi", _tau, _abs("w", L.I, L.app(
    op, L.App(_v("phi", _tau), _v("w")), L.App(_v("psi", _tau), _v("w"))))))
AND_PW, OR_PW, IMP_PW, IFF_PW = _bin(L.AND), _bin(L.OR), _bin(L.IMP), _bin(L.IFF)

_ity_tau = L.Arrow(L.I, _tau)

# Possibilist quantifiers over individuals.
FORALL_PW = _abs("Phi", _ity_tau, _abs("w", L.I, L.forall(
    "x", L.I, L.app(_v("Phi", _ity_tau), _v("x"), _v("w")))))
EXISTS_PW = _abs("Phi", _ity_tau, _abs("w", L.I, L.exists(
    "x", L.I, L.app(_v("Phi", _ity_tau), _v("x"), _v("w")))))


def atom_const(pred: str, arity: int) -> L.Const:
    """Predicate constant: individuals first, then the world argument."""
    return L.Const(pred, L.fn(*([L.I] * arity), _tau))


def _embed_term(t: F.Term) -> L.LTerm:
    if isinstance(t, F.Const):
        return L.Const(t.name, L.I)
    return L.Var(t.name, L.I)


# Each primitive operator's combinator, applied to its operands': a
# connective's by its class, a modal operator's by its op tag (the
# logic's ``modal``), and dia's by whether the logic is serial
# (`--show-steps` shows it); the rest go by their rules.
_PW = {F.Not: NOT_PW, F.And: AND_PW, F.Or: OR_PW, F.Implies: IMP_PW, F.Iff: IFF_PW}
_OPS = {"boxs": SDL_BOX, "boxe": E_BOX, "oblig": E_OBLIG}
_DIA = {True: SDL_DIA, False: E_DIA}


def embed(f: F.Formula, logic: str) -> L.LTerm:
    """The embedding of f in the logic, unnormalized, by one fold over its
    distinct subformulas, in which a derived node other than dia folds
    its rule (`F.LOGICS`) over its child's term.  It needs no type check
    of its own, since every node is checked as it is built.  It has type
    i>o: every combinator above is closed and well typed and takes
    arguments of type i>o; the quantifier combinators instead take a
    lambda over an individual whose body is an embedding; and an atom's
    constant takes its arity from the atom, so it is applied to exactly
    that many individual terms."""
    if not isinstance(f, F.Formula):
        raise EmbedError(f"cannot embed {f!r}")
    lg = F.check_logic(logic, EmbedError)
    rules = lg.rules
    ops = {**_PW, F.Dia: _DIA[lg.serial], **{cls: _OPS[tag] for cls, tag in lg.modal.items()}}

    def visit(g: F.Formula, kids: list[L.LTerm]) -> L.LTerm:
        if type(g) is F.Atom:
            return L.app(atom_const(g.pred, len(g.args)), *map(_embed_term, g.args))
        if type(g) is F.Forall or type(g) is F.Exists:
            comb = FORALL_PW if type(g) is F.Forall else EXISTS_PW
            return L.App(comb, L.Abs(g.var, L.I, kids[0]))
        comb = ops.get(type(g))
        if comb is not None:
            return L.app(comb, *kids)
        if type(g) in rules:
            return F.fold(rules[type(g)], visit, {F.CHILD: kids[0]})
        raise EmbedError(F.SDL_DYADIC if type(g) is F.Oblig else f"cannot embed {g!r}")

    return F.fold(f, visit)


def vld(t: L.LTerm, mode: str = "global") -> L.LTerm:
    """Validity wrapper: global quantifies the world, local plugs in aw."""
    ty = L.type_of(t)
    if ty != _tau:
        raise EmbedError(f"vld expects a term of type {_tau}, got {ty}")
    if mode == "global":
        z = L._fresh("z", L.names(t))  # a free variable z of t stays free
        return L.forall(z, L.I, L.App(t, _v(z)))
    if mode == "local":
        return L.App(t, AW)
    raise EmbedError(f"unknown validity mode {mode!r}")


# ---------------------------------------------------------------------------
# Two-sorted first-order formulas


WORLD, INDIV = "world", "indiv"


class FOTerm:
    __slots__ = ()


@dataclass(frozen=True)
class FOVar(FOTerm):
    name: str


@dataclass(frozen=True)
class FOConst(FOTerm):
    name: str


class FOFormula(F._Node):
    """A first-order formula node, hash-consed on `formula._Node` like
    formulas and λ-terms, so equal formulas are one object."""

    __slots__ = ()


class FOAtom(FOFormula):
    __slots__ = _fields = ("pred", "args")  # args: a tuple of FOTerm
    _lead = 2


class FONot(FOFormula):
    __slots__ = _fields = ("sub",)


class _FOBinary(FOFormula):
    __slots__ = _fields = ("left", "right")


class FOAnd(_FOBinary): __slots__ = ()
class FOOr(_FOBinary): __slots__ = ()
class FOImp(_FOBinary): __slots__ = ()
class FOIff(_FOBinary): __slots__ = ()


class _FOQuant(FOFormula):
    __slots__ = _fields = ("var", "sort", "body")
    _lead = 2


class FOForall(_FOQuant): __slots__ = ()
class FOExists(_FOQuant): __slots__ = ()


_FO_BIN = {"or": FOOr, "and": FOAnd, "imp": FOImp, "iff": FOIff}


def _spine(t: L.LTerm) -> tuple[L.LTerm, list[L.LTerm]]:
    args: list[L.LTerm] = []
    while isinstance(t, L.App):
        args.append(t.arg)
        t = t.fun
    return t, args[::-1]


def lower(t: L.LTerm) -> FOFormula:
    """Read a beta-eta-normal term of type o as a first-order formula,
    in one walk.

    Quantification is only readable at the base type i; a Pi over any
    other type raises HigherOrderResidue.  The k-th binder in pre-order
    is named v<k>, primed until it avoids the term's L.names(), so
    binder names are unique and one dict holds every variable's sort:
    R/Rb arguments and the final argument of a predicate are worlds, the
    remaining arguments individuals.  A binder whose name has no sort
    once its body is read does not occur there and is dropped (sound:
    both sorts are nonempty).  A Pi over a non-lambda c reads as
    forall q<depth>. c q<depth> (primed alike); it is not counted.
    """
    ty = L.type_of(t)
    if ty != L.O:
        raise LowerError(f"lowering expects type o, got {ty}")
    taken = L.names(t)
    # TPTP writes a prime as an underscore (_tptp_var): a binder must not
    # take a primed name whose TPTP form is already a free name's
    taken |= {n.replace("_", "'") for n in taken}
    count = itertools.count()
    sorts: dict[str, str] = {}

    # env: the first-order name of each enclosing binder, by de Bruijn
    # index.  A quantifier is read in the frame that finds it.
    def walk(u: L.LTerm, env: tuple[str, ...]) -> FOFormula:
        head, args = _spine(u)
        if isinstance(head, (L.Var, L.BVar)):
            raise HigherOrderResidue(f"free predicate variable {L.show(head)}")
        if not isinstance(head, L.Const):
            raise HigherOrderResidue(f"unreadable term {L.show(u)}")
        name = None
        if head.name == "not" and len(args) == 1:
            # recognize the encoded existential: not (Pi (lam x. not b))
            shead, sargs = _spine(args[0])
            pi = isinstance(shead, L.Const) and shead.name == "Pi" and len(sargs) == 1
            inner = sargs[0] if pi and isinstance(sargs[0], L.Abs) else None
            ihead, iargs = _spine(inner.scope) if inner else (None, ())
            if not (isinstance(ihead, L.Const) and ihead.name == "not" and len(iargs) == 1):
                return FONot(walk(args[0], env))
            cls, var_ty, scope = FOExists, inner.var_ty, iargs[0]
        elif head.name in _FO_BIN and len(args) == 2:
            return _FO_BIN[head.name](walk(args[0], env), walk(args[1], env))
        elif head.name == "Pi" and len(args) == 1 and isinstance(args[0], L.Abs):
            cls, var_ty, scope = FOForall, args[0].var_ty, args[0].scope
        elif head.name == "Pi" and len(args) == 1:
            aty = args[0].ty
            if not (isinstance(aty, L.Arrow) and aty.src is L.I):
                raise HigherOrderResidue(f"quantification over type {aty}")
            cls, var_ty, name = FOForall, L.I, L._fresh(f"q{len(env)}", taken)
            scope = L.App(L._shift(args[0], 1), L.BVar(0, L.I))
        else:
            return atom(head, args, env)
        if var_ty is not L.I:
            raise HigherOrderResidue(f"quantification over type {var_ty}")
        name = name or L._fresh(f"v{next(count)}", taken)
        body = walk(scope, (name,) + env)
        sort = sorts.get(name)
        return body if sort is None else cls(name, sort, body)

    def atom(head: L.Const, args: list[L.LTerm], env: tuple[str, ...]) -> FOAtom:
        fo_args: list[FOTerm] = []
        for i, a in enumerate(args):
            if isinstance(a, L.Const) and a.ty is L.I:
                fo_args.append(FOConst(a.name))
                continue
            if not (isinstance(a, (L.Var, L.BVar)) and a.ty is L.I):
                raise HigherOrderResidue(f"argument {L.show(a)} of {head.name} is not base-sorted")
            name = a.name if isinstance(a, L.Var) else env[a.idx]
            sort = WORLD if head.name in ("R", "Rb") or i == len(args) - 1 else INDIV
            if sorts.setdefault(name, sort) != sort:
                raise LowerError(f"variable {name} used as both sorts")
            fo_args.append(FOVar(name))
        return FOAtom(head.name, tuple(fo_args))

    return walk(t, ())


def translate(f: F.Formula, logic: str, mode: str = "global") -> FOFormula:
    """Whole pipeline: the first-order reading of the vld-wrapped
    embedding's normal form."""
    return translation(f, logic, mode)[1]


# ---------------------------------------------------------------------------
# The translation in one walk

# each binary connective's first-order class and its text in `L.show`
_BINARY = {F.And: (FOAnd, " ∧ "), F.Or: (FOOr, " ∨ "), F.Implies: (FOImp, " → "),
           F.Iff: (FOIff, " ↔ ")}
# the names `L.show` and `lower` read as the kernel's logical constants
_LOGICAL = frozenset({"not", "or", "and", "imp", "iff", "Pi"})
# a free name that a binder's name may meet: v<k> or q<k>
_BINDER_NAME = re.compile(r"[vq]\d+")
_AW = FOConst(AW.name)
# where an occurrence stands, as `L.show` parenthesizes it: at the top of
# a scope (0) or as an operand
_OPERAND = 1


def translation(f: F.Formula, logic: str, mode: str = "global") -> tuple[str, FOFormula]:
    """`L.show` of the normal form of `vld(embed(f, logic), mode)` and
    `lower` of it, read off f in one walk that builds no lambda term.

    Every combinator applies its predicate arguments only to a bound
    world (the quantifiers to a bound individual and a world), so the
    normal form of an occurrence of a subformula g is that of g's
    embedding applied to its world, where it stands, from the beta-normal
    body of g's operator (hereditary substitution; Watkins, Cervesato,
    Pfenning & Walker 2004): a connective applies its constant to its
    operands at the same world; box, dia and the quantifiers open one Pi
    binder (dia and exists as not Pi not) whose scope holds the operand
    at the new world or over the new individual; O{b | c} opens one for
    its worlds w and one more for the y below them, and holds c at both.
    Derived operators are read as `embed` embeds them.  Soundness:

    - each rule is the beta-normal form of its combinator applied to
      beta-normal operands, since substituting a variable or the
      constant aw into a beta-normal term leaves it beta-normal;
    - eta applies where a binder's scope is M 0 with 0 not free in M.
      A scope built here is a connective, a Pi or an atom, and only an
      atom at the binder's own world ends in that binder's index: an E
      box over an atom, or the global wrapper over one, which become Pi
      applied to the atom's head;
    - beta-eta normal forms are unique, so the text is `L.show` of
      `normalize`'s node once binders are named as `normalize` names
      them, and the first-order formula is `lower`'s once they are named
      and read as `lower` does (below).  That reading is van Benthem's
      standard translation (1983).

    Pass 1 is a left-to-right pre-order over the occurrences, on an
    explicit stack, in the order of the normal form's nodes.  It writes
    `L.show`'s text and appends the pre-order of the first-order reading
    to a program:
    - each binder has two names, v<depth> for the text and v<k> for the
      k-th binder in pre-order for the first-order formula, as `lower`
      names them, both primed against f's free names; an eta-contracted
      binder is q<depth> and is not counted;
    - an atom finds the binder of each of its variables by level in an
      array that each binder overwrites; the last binder opened at a
      level is the ancestor at that level, since any later one at that
      level would stand outside the ancestor's scope.  A binder that no
      atom finds is vacuous and dropped, as `lower` drops it (both sorts
      are nonempty);
    - a negation whose operand is a binder whose scope is a negation
      makes the binder an existential and both negations disappear, as
      `lower` reads not Pi (lambda x. not b).
    Binder names depend on f's free names, which are known only at the
    end; if one of them has a binder's form, pass 1 runs again, knowing
    them (`occurrences`).  Pass 2 runs the program in reverse, building
    each connective and quantifier over the formulas of its operands.
    The `translate` command skips it and prints the program instead
    (`print_program`).
    """
    text, program = occurrences(f, logic, mode)
    out: list[FOFormula] = []
    for e in reversed(program):
        if type(e) is tuple:
            out.append(FOAtom(*e))
        elif type(e) is list:
            if e[2] is not None:
                out[-1] = e[0](e[1], e[2], out[-1])
        elif e is FONot:
            out[-1] = FONot(out[-1])
        elif e is not None:
            left = out.pop()
            out[-1] = e(left, out[-1])
    return text, out[0]


def occurrences(f: F.Formula, logic: str, mode: str = "global") -> tuple[str, list]:
    """Pass 1 of `translation`: `L.show`'s text of the normal form, and
    the program of its first-order reading (see `print_program`)."""
    if not isinstance(f, F.Formula):
        raise EmbedError(f"cannot embed {f!r}")
    if mode not in ("global", "local"):
        raise EmbedError(f"unknown validity mode {mode!r}")
    lg, whole = F.check_logic(logic, EmbedError), mode == "global"
    text, program, names = _occurrences(f, lg, whole, frozenset())
    if any(_BINDER_NAME.fullmatch(n) for n in names):
        text, program, _ = _occurrences(f, lg, whole, names)
    return text, program


def _occurrences(f: F.Formula, lg: F.Logic, whole: bool, avoid: frozenset | set):
    """Pass 1 of `translation` in the logic lg, with binder names primed
    against avoid: the normal form's text, the first-order program and
    f's free names.  A derived node is walked as its rule, and pushes the
    pair of its child and its env on ``pending``; the rule's `F.CHILD`
    pops it and walks the child in that env.  That is sound because each
    rule of `F.LOGICS` holds `F.CHILD` once, outside any `Oblig`
    condition (which the walk visits twice), and no derived node: a rule
    entered meets its `F.CHILD` before any other rule is entered, and
    ``pending`` is empty whenever a node of f is walked, so an atom of f
    with the placeholder's name reads as an atom.  Dia in a serial logic
    keeps a case of its own, as its combinator's normal form is not its
    rule's."""
    rules, modal, child = lg.rules, lg.modal, F.CHILD
    fo_avoid = avoid | {n.replace("_", "'") for n in avoid}  # as `lower` avoids them
    text: list[str] = []
    program: list = []
    names: set[str] = set()
    labels: list[str] = []  # the text's binder name by depth
    level: list[list] = []  # the binder last opened at each level
    atoms: dict = {}  # per atom: the text of its head, its FO arguments if closed
    free: dict[str, list] = {}  # per free individual variable, an entry like a binder's
    etas: dict[int, list] = {}  # the eta-contracted binder by depth
    pending: list = []  # (child, env) of each rule entered, until its CHILD
    count = 0

    def bind(d: int) -> str:
        """Open a binder at depth d; its name in the text."""
        nonlocal count
        if d == len(labels):
            labels.append(L._fresh(f"v{d}", avoid))
        name = L._fresh(f"v{count}", fo_avoid)
        count += 1
        e = [FOForall, name, None, FOVar(name)]
        if d < len(level):
            level[d] = e
        else:
            level.append(e)
        program.append(e)
        return labels[d]

    def negate() -> None:
        if len(program) > 1 and program[-2] is FONot and type(program[-1]) is list:
            program[-2] = None
            program[-1][0] = FOExists
            program.append(None)
        else:
            program.append(FONot)

    def world(w: int | None) -> tuple[str, FOTerm]:
        if w is None:
            return AW.name, _AW
        e = level[w]
        e[2] = WORLD
        return labels[w], e[3]

    def atom(g: F.Atom, env: dict[str, int]) -> tuple[str, tuple]:
        """The text of g's head applied to its individuals, and their FO
        terms."""
        info = atoms.get(g)
        if info is None:
            info = atoms[g] = _atom_info(g, names)
        head, args = info
        if args is not None:
            return head, args
        parts, args = [head], []
        for a in g.args:
            if type(a) is F.Const:
                parts.append(L._SYMBOL.get(a.name, a.name))
                args.append(FOConst(a.name))
                continue
            lv = env.get(a.name)
            if lv is None:
                e = free.get(a.name)
                if e is None:
                    e = free[a.name] = [None, a.name, INDIV, FOVar(a.name)]
                    names.add(a.name)
                parts.append(a.name)
            else:
                e = level[lv]
                parts.append(labels[lv])
                e[2] = INDIV
            args.append(e[3])
        return " ".join(parts), tuple(args)

    def relation(pred: str, w: int | None, v: int) -> str:
        """The atom pred(world at level w, world at level v); its text."""
        (wt, wv), (vt, vv) = world(w), world(v)
        program.append((pred, (wv, vv)))
        return f"{pred} {wt} {vt}"

    def eta(g: F.Atom, d: int, env: dict[str, int], ctx: int) -> None:
        """Pi over g's head: the binder at depth d over g at its world."""
        head, args = atom(g, env)
        e = etas.get(d)
        if e is None:
            name = L._fresh(f"q{d}", fo_avoid)
            e = etas[d] = [FOForall, name, WORLD, FOVar(name)]
        program.append(e)
        program.append((g.pred, args + (e[3],)))
        s = f"Π ({head})" if g.args else f"Π {head}"
        text.append(f"({s})" if ctx else s)

    # an occurrence: (subformula, binder depth, level of its world or None
    # for aw, level of each enclosing individual binder by variable, context);
    # text, and the second binder and the Rb atom of O{b | c}, are strings
    stack: list = []
    if not whole:
        stack.append((f, 0, None, {}, 0))
    elif type(f) is F.Atom:
        eta(f, 0, {}, 0)
    else:
        text.append(f"Π(λ{bind(0)}. ")
        stack += [")", (f, 1, 0, {}, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            text.append(item)
            continue
        g, d, w, env, ctx = item
        t = type(g)
        while t is F.Not or g is child and pending:
            if t is F.Not:
                negate()
                text.append("¬")
                g, ctx = g.sub, _OPERAND
            else:  # a rule's operand, in the env of its operator
                g, env = pending.pop()
            t = type(g)
        if t is F.Atom:
            head, args = atom(g, env)
            wt, wv = world(w)
            program.append((g.pred, args + (wv,)))
            text.append(f"({head} {wt})" if ctx else f"{head} {wt}")
        elif t in _BINARY:
            cls, op = _BINARY[t]
            program.append(cls)
            if ctx:
                text.append("(")
                stack.append(")")
            stack += [(g.right, d, w, env, _OPERAND), op, (g.left, d, w, env, _OPERAND)]
        elif t is F.Forall or t is F.Exists or modal.get(t) == "boxe":
            if t is F.Box and type(g.sub) is F.Atom:
                eta(g.sub, d, env, ctx)
                continue
            scope = ((g.body, d + 1, w, {**env, g.var: d}) if t is F.Forall or t is F.Exists
                     else (g.sub, d + 1, d, env))
            if t is F.Forall or t is F.Box:
                text.append(f"Π(λ{bind(d)}. ")
                stack += [")", (*scope, 0)]
            else:  # not Pi not
                negate()
                v = bind(d)
                negate()
                text.append(f"¬Π(λ{v}. ¬")
                stack += [")", (*scope, _OPERAND)]
        elif modal.get(t) == "boxs":
            v = bind(d)
            program += [FOOr, FONot]
            text.append(f"Π(λ{v}. ¬({relation(R_ACC.name, w, d)}) ∨ ")
            stack += [")", (g.sub, d + 1, d, env, _OPERAND)]
        elif t is F.Dia and lg.serial:
            negate()
            v = bind(d)
            negate()
            program.append(FOAnd)
            text.append(f"¬Π(λ{v}. ¬(({relation(R_ACC.name, w, d)}) ∧ ")
            stack += ["))", (g.sub, d + 1, d, env, _OPERAND)]
        elif modal.get(t) == "oblig":
            text.append(f"Π(λ{bind(d)}. (")
            program += [FOImp, FOAnd]
            stack += [")", (g.body, d + 1, d, env, _OPERAND),
                      ("Rb", d, None, env, 0), (g.cond, d + 2, d + 1, env, _OPERAND),
                      ("best", d, None, env, 0), (g.cond, d + 1, d, env, _OPERAND)]
        elif t in rules:
            stack.append((rules[t], d, w, env, ctx))
            pending.append((g.sub, env))
        elif g == "best":  # every c-world y: the second binder of O{b | c}
            text.append(f" ∧ Π(λ{bind(d + 1)}. ")
            program.append(FOImp)
        elif g == "Rb":
            text.append(f" → ({relation(R_BET.name, d, d + 1)}))) → ")
        else:
            raise EmbedError(F.SDL_DYADIC if t is F.Oblig else f"cannot embed {g!r}")
    return "".join(text), program, names


def _atom_info(g: F.Atom, names: set[str]) -> tuple[str, tuple | None]:
    """For `translation`: the text of g's head, with its arguments if they
    are all constants; their FO terms then, else None.  Adds its names to
    names."""
    if g.pred in _LOGICAL:
        raise EmbedError(f"predicate {g.pred!r} has the name of a logical constant "
                         "of the embedding")
    if g.pred in (R_ACC.name, R_BET.name):
        raise EmbedError(f"predicate {g.pred!r} has the name of a relation constant "
                         "of the embedding")
    names.add(g.pred)
    consts = [a.name for a in g.args if type(a) is F.Const]
    names.update(consts)
    if len(consts) < len(g.args):
        return g.pred, None
    head = " ".join([g.pred] + [L._SYMBOL.get(c, c) for c in consts])
    return head, tuple(map(FOConst, consts))


# ---------------------------------------------------------------------------
# Direct evaluation of lowered formulas in a finite model


def fo_eval(f: FOFormula, model: S._ModelBase, logic: str,
            env: dict[str, object] | None = None) -> bool:
    """Evaluate a closed lowered formula against a finite model: the
    world sort is the model's worlds, the individual sort its domain,
    R/Rb its relation, and predicates its valuation.  env, the values of
    the enclosing binders, is given by the recursive calls; a top-level
    call, without it, has its logic checked."""
    if env is None:
        F.check_logic(logic, EmbedError)
        env = {}

    def term(t: FOTerm):
        if isinstance(t, FOVar):
            try:
                return env[t.name]
            except KeyError:
                raise LowerError(f"unbound FO variable {t.name}") from None
        return t.name

    if isinstance(f, FOAtom):
        if f.pred in ("R", "Rb"):
            s, t = term(f.args[0]), term(f.args[1])
            return bool(model.rows[s] >> t & 1)
        if f.pred == F.RESERVED_ATOM:
            return False
        args = tuple(term(a) for a in f.args)
        key = (f.pred, tuple(args[:-1]))
        world = args[-1]
        return bool(model.atom_mask(key) >> world & 1)
    if isinstance(f, FONot):
        return not fo_eval(f.sub, model, logic, env)
    if isinstance(f, FOAnd):
        return fo_eval(f.left, model, logic, env) and fo_eval(f.right, model, logic, env)
    if isinstance(f, FOOr):
        return fo_eval(f.left, model, logic, env) or fo_eval(f.right, model, logic, env)
    if isinstance(f, FOImp):
        return (not fo_eval(f.left, model, logic, env)) or fo_eval(f.right, model, logic, env)
    if isinstance(f, FOIff):
        return fo_eval(f.left, model, logic, env) == fo_eval(f.right, model, logic, env)
    if isinstance(f, (FOForall, FOExists)):
        carrier = range(model.n) if f.sort == WORLD else model.domain
        if f.sort == INDIV and not model.domain:
            raise LowerError("model has an empty individual domain")
        picks = (fo_eval(f.body, model, logic, {**env, f.var: x}) for x in carrier)
        return all(picks) if isinstance(f, FOForall) else any(picks)
    raise LowerError(f"unknown FO node {f!r}")


# ---------------------------------------------------------------------------
# Guarded-fragment shape check


def in_guarded_fragment(f: FOFormula, outermost: bool = True) -> bool:
    """Every world quantifier below the validity wrapper must carry an
    accessibility guard: forall as ~R(..) | _, exists as R(..) & _.
    One fold: a guard is an atom, so a guarded quantifier's body holds
    the guarded fragment when its guard's other operand does."""
    if outermost and type(f) is FOForall and f.sort == WORLD:
        f = f.body  # the validity wrapper

    def visit(g: FOFormula, kids: list[bool]) -> bool:
        if not isinstance(g, FOFormula):
            raise LowerError(f"unknown FO node {g!r}")
        if not isinstance(g, _FOQuant) or g.sort != WORLD:
            return all(kids)
        b = g.body
        if type(g) is FOForall:
            guard = b.left.sub if type(b) is FOOr and type(b.left) is FONot else None
        else:
            guard = b.left if type(b) is FOAnd else None
        return (type(guard) is FOAtom and guard.pred in ("R", "Rb")
                and FOVar(g.var) in guard.args and kids[0])

    return F.fold(f, visit)


# ---------------------------------------------------------------------------
# Printing and TPTP emission


def _tptp_var(name: str) -> str:
    """Capitalized, with a renamed binder's primes (illegal in TPTP) as _."""
    return name[0].upper() + name[1:].replace("'", "_")


def _tptp_pred(name: str) -> str:
    return name[0].lower() + name[1:]


# The program of a first-order formula is its pre-order, one entry per
# node: (pred, args) for an atom, FONot, a binary class, or a binder
# [FOForall or FOExists, name, sort, ...].  Pass 1 of `translation` also
# writes None for a negation read away into an existential, and leaves a
# vacuous binder's sort None; neither stands for a node.

# each connective's text in `fo_show` and in TPTP (a list, which stops
# an atom's pops); and, by how a node is parenthesized (0: not, 1: in
# both texts, 2: in TPTP only), the texts it opens with and ends with,
# and those a quantifier ends with
_TEXT = {FONot: ["¬", "~ "], FOAnd: [" ∧ ", " & "], FOOr: [" ∨ ", " | "],
         FOImp: [" → ", " => "], FOIff: [" ↔ ", " <=> "]}
_OPEN, _END = (("", ""), ("(", "("), ("", "(")), (("", ""), (")", ")"), ("", ")"))
_QUANT_END = (("", ")"), (")", "))"), ("", "))"))


def _program(f: FOFormula) -> list:
    """The program of f, by an explicit-stack walk."""
    program: list = []
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is FOAtom:
            program.append((g.pred, g.args))
        elif t is FOForall or t is FOExists:
            program.append([t, g.var, g.sort])
            stack.append(g.body)
        elif t in _TEXT:
            program.append(t)
            stack += (g.sub,) if t is FONot else (g.right, g.left)
        else:
            raise LowerError(f"unknown FO node {g!r}")
    return program


def print_program(program: list, name: str = "goal", role: str = "conjecture",
                  logic: str | None = None) -> tuple[str, str]:
    """`fo_show` and `emit_tptp` of the formula whose program this is, in
    one forward pass.  An operand is parenthesized unless it is an atom,
    and so is a quantifier's body in TPTP; a node opens its parenthesis
    at its first entry, and pushes what it writes after its left operand
    (a list) and at its end (a tuple), in both syntaxes, which an atom
    pops up to the next list."""
    serial = logic is not None and F.check_logic(logic, EmbedError).serial
    show: list[str] = []
    tptp: list[str] = []
    sorts: set[str] = set()
    stack: list = []
    tvars: dict[str, str] = {}  # `_tptp_var` of each binder's name
    wrap = 0  # how the next node is parenthesized
    for e in program:
        if type(e) is tuple:
            pred, args = e
            if pred == F.RESERVED_ATOM:
                show.append("$false")
                tptp.append("$false")
            elif len(args) == 1 and type(args[0]) is FOVar:
                v = args[0].name
                show.append(f"{pred}({v})")
                tptp.append(f"{_tptp_pred(pred)}({tvars.get(v) or _tptp_var(v)})")
            elif args:
                show.append(f"{pred}({', '.join([a.name for a in args])})")
                tptp.append(_tptp_pred(pred) + "(" + ",".join([
                    (tvars.get(a.name) or _tptp_var(a.name)) if type(a) is FOVar
                    else _tptp_pred(a.name) for a in args]) + ")")
            else:
                show.append(pred)
                tptp.append(_tptp_pred(pred))
            while stack:
                x = stack.pop()
                show.append(x[0])
                tptp.append(x[1])
                if type(x) is list:
                    wrap = 1
                    break
        elif type(e) is list:
            if e[2] is None:
                continue
            var, sort = e[1], e[2]
            v = tvars[var] = _tptp_var(var)
            sorts.add(sort)
            ls, lt = _OPEN[wrap]
            if e[0] is FOForall:
                show.append(f"{ls}∀{var}:{sort}. ")
                tptp.append(f"{lt}! [{v}] : ({sort}({v}) => ")
            else:
                show.append(f"{ls}∃{var}:{sort}. ")
                tptp.append(f"{lt}? [{v}] : ({sort}({v}) & ")
            stack.append(_QUANT_END[wrap])
            wrap = 2
        elif e is not None:
            ls, lt = _OPEN[wrap]
            if e is FONot:
                show.append(ls + _TEXT[e][0])
                tptp.append(lt + _TEXT[e][1])
                stack.append(_END[wrap])
            else:
                show.append(ls)
                tptp.append(lt)
                stack += (_END[wrap], _TEXT[e])
            wrap = 1
    lines = []
    if WORLD in sorts or serial:
        lines.append("fof(world_nonempty, axiom, ? [W] : world(W)).")
    if INDIV in sorts:
        lines.append("fof(indiv_nonempty, axiom, ? [X] : indiv(X)).")
    if serial:
        lines.append("fof(seriality, axiom, ! [W] : (world(W) => "
                     "(? [V] : (world(V) & r(W,V))))).")
    lines.append(f"fof({name}, {role}, {''.join(tptp)}).")
    return "".join(show), "\n".join(lines) + "\n"


def fo_show(f: FOFormula) -> str:
    return print_program(_program(f))[0]


def emit_tptp(f: FOFormula, name: str, role: str, logic: str | None = None) -> str:
    """A complete TPTP FOF problem: sort nonemptiness axioms for the
    sorts the formula quantifies over, the seriality axiom when logic is
    serial (sdl), then the formula itself under the given name/role."""
    return print_program(_program(f), name, role, logic)[1]
