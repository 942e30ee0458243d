"""The semantical embedding pipeline.

A formula becomes a lambda term of type i>o (a predicate on worlds) by
translating each operator to a defining lambda term and each atom to a
constant (`embed`); normalization then unfolds the definitions.
Wrapping with `vld` produces a closed term of type o.  `normal_form`
builds that term's normal form directly, without the redexes, and
`translate` uses it; `lam.normalize` of `vld(embed(f))` gives the same
node and stays the reference, and the stepper of `--show-steps` runs on
the embedding.  `lower` reads the normal form off, in one walk that
also names binders and infers their sorts, as a two-sorted first-order
formula over worlds and individuals.  The terms
are `lam`'s locally nameless nodes, which record their types: `lower`
finds each bound variable by its index in its stack of binders, and
makes the first-order names as it reads the binders.  The first-order
formula can be evaluated directly in a finite model, or printed, as
text or as a TPTP FOF problem, by one explicit-stack printer.

SDL translates box through a guarded accessibility quantifier; system E
gives box the global reading and the dyadic obligation the optimality
reading over the betterness constant Rb.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
# bodies, by `normal_form`).

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


def _neg(a: L.LTerm) -> L.LTerm:
    return L.App(NOT_PW, a)


# Per logic, each operator's embedding as a function of its operands'.
_PW = {F.Not: _neg, F.And: lambda a, b: L.app(AND_PW, a, b),
       F.Or: lambda a, b: L.app(OR_PW, a, b), F.Implies: lambda a, b: L.app(IMP_PW, a, b),
       F.Iff: lambda a, b: L.app(IFF_PW, a, b)}
_OPS = {"sdl": {**_PW, F.Box: lambda a: L.App(SDL_BOX, a), F.Dia: lambda a: L.App(SDL_DIA, a),
                F.ObligM: lambda a: L.App(SDL_BOX, a),
                F.Perm: lambda a: _neg(L.App(SDL_BOX, _neg(a))),
                F.Forb: lambda a: L.App(SDL_BOX, _neg(a))},
        "e": {**_PW, F.Box: lambda a: L.App(E_BOX, a), F.Dia: lambda a: L.App(E_DIA, a),
              F.Oblig: lambda body, cond: L.app(E_OBLIG, body, cond),
              F.ObligM: lambda a: L.app(E_OBLIG, a, _TOP_E),
              F.Perm: lambda a: _neg(L.app(E_OBLIG, _neg(a), _TOP_E)),
              F.Forb: lambda a: L.app(E_OBLIG, _neg(a), _TOP_E)}}


def _embed(f: F.Formula, logic: str) -> L.LTerm:
    """The embedding of f, by one fold over its distinct subformulas.
    It needs no type check of its own, since every node is checked as it
    is built.  It has type i>o: every combinator above is closed and
    well typed and takes arguments of type i>o; the quantifier
    combinators instead take a lambda over an individual whose body is
    an embedding; and an atom's constant takes its arity from the atom,
    so it is applied to exactly that many individual terms."""
    if not isinstance(f, F.Formula):
        raise EmbedError(f"cannot embed {f!r}")
    ops = _OPS[logic]

    def visit(g: F.Formula, kids: list[L.LTerm]) -> L.LTerm:
        if type(g) is F.Atom:
            return L.app(atom_const(g.pred, len(g.args)), *map(_embed_term, g.args))
        if type(g) is F.Forall or type(g) is F.Exists:
            comb = FORALL_PW if type(g) is F.Forall else EXISTS_PW
            return L.App(comb, L.Abs(g.var, L.I, kids[0]))
        build = ops.get(type(g))
        if build is None and logic == "sdl" and type(g) is F.Oblig:
            raise EmbedError("dyadic obligation is not part of the SDL language")
        if build is None:
            raise EmbedError(f"cannot embed {g!r}")
        return build(*kids)

    return F.fold(f, visit)


_TOP_E = _embed(F.TOP, "e")


def embed_sdl(f: F.Formula) -> L.LTerm:
    """SDL embedding; the result has type i>o (unnormalized)."""
    return _embed(f, "sdl")


def embed_e(f: F.Formula) -> L.LTerm:
    """System-E embedding; the result has type i>o (unnormalized)."""
    return _embed(f, "e")


def embed(f: F.Formula, logic: str) -> L.LTerm:
    return embed_sdl(f) if logic == "sdl" else embed_e(f)


def vld(t: L.LTerm, mode: str = "global") -> L.LTerm:
    """Validity wrapper: global quantifies the world, local plugs in aw."""
    ty = L.type_of(t)
    if ty != _tau:
        raise EmbedError(f"vld expects a term of type {_tau}, got {ty}")
    if mode == "global":
        return L.forall("z", L.I, L.App(t, _v("z")))
    if mode == "local":
        return L.App(t, AW)
    raise EmbedError(f"unknown validity mode {mode!r}")


# The normal forms of the combinators, built in place by `normal_form`.

_PI = L.Pi(L.I)
_BOOL = {F.Not: L.NOT, F.And: L.AND, F.Or: L.OR, F.Implies: L.IMP, F.Iff: L.IFF}
# derived operators, as the operators their embedding in _OPS applies
_DERIVED = {"sdl": {F.ObligM: F.Box, F.Perm: lambda a: F.Not(F.Box(F.Not(a))),
                    F.Forb: lambda a: F.Box(F.Not(a))},
            "e": {F.ObligM: lambda a: F.Oblig(a, F.TOP),
                  F.Perm: lambda a: F.Not(F.Oblig(F.Not(a), F.TOP)),
                  F.Forb: lambda a: F.Oblig(F.Not(a), F.TOP)}}
# the combinator each operator applies, and the names of its constants
_COMBINATORS = {F.Not: NOT_PW, F.And: AND_PW, F.Or: OR_PW, F.Implies: IMP_PW, F.Iff: IFF_PW,
                F.Forall: FORALL_PW, F.Exists: EXISTS_PW}
_MODAL = {"sdl": {F.Box: SDL_BOX, F.Dia: SDL_DIA},
          "e": {F.Box: E_BOX, F.Dia: E_DIA, F.Oblig: E_OBLIG}}
_NAMES = {logic: {cls: L.names(comb) for cls, comb in {**_COMBINATORS, **modal}.items()}
          for logic, modal in _MODAL.items()}


def normal_form(f: F.Formula, logic: str, mode: str = "global") -> L.LTerm:
    """`L.normalize(vld(embed(f, logic), mode))`, the same node, built
    in one walk without the redexes of the combinators.

    Every combinator applies its predicate arguments only to a bound
    world (or, for the quantifiers, to a bound individual and a world),
    so the normal form of an occurrence of a subformula g is that of g's
    embedding applied to its world: a term of type o built where it
    stands, at its binder depth, with its world and the individuals of
    the enclosing quantifiers as de Bruijn indices (hereditary
    substitution; Watkins, Cervesato, Pfenning & Walker 2004).  The rules
    are the combinators' beta-normal bodies: a connective applies its
    constant to its operands at the same world; box, dia and the
    quantifiers open one Pi binder (dia and exists as not Pi not), whose
    scope holds the operand at the new world or over the new individual;
    O{b | c} opens one for its worlds w and one more for the y below
    them, and builds c at both.  Derived operators are rewritten as
    _OPS embeds them.  Soundness:

    - each rule is the beta-normal form of its combinator applied to
      beta-normal operands: a combinator applies its arguments only to
      variables (and vld, in local mode, to the constant aw), and
      substituting a variable or a constant into a beta-normal term
      leaves it beta-normal;
    - eta is checked at every binder built, as `lam._quote` does: a
      binder whose scope is M 0 becomes M, its binders named again a
      level up (this is how Pi p and Pi (P c0) arise);
    - beta-eta normal forms are unique and bound variables are indices,
      so the result is `normalize`'s up to binder names, and both name
      the binder at depth k v<k>, primed while in taken, the names of
      vld(embed(f)): those of the atoms, of free individual variables and
      of the combinators applied.  vld's world binder is named z, so a
      free individual variable z of f is bound to it there too.

    The walk is an explicit-stack pre-order that fixes each occurrence's
    context, then a pass over the occurrences in reverse that builds
    each one from its operands' terms.  It is tree-sized: O{b | c}
    builds c twice, as evaluation does.
    """
    if not isinstance(f, F.Formula):
        raise EmbedError(f"cannot embed {f!r}")
    derived, names = _DERIVED[logic], _NAMES[logic]
    sdl = logic == "sdl"
    # an occurrence: (subformula, binder depth, level of its world or None
    # for aw, level of each enclosing individual binder by variable)
    stack = [(f, 1, 0, {"z": 0})] if mode == "global" else [(f, 0, None, {})]
    order = []
    taken = {"Pi"} if mode == "global" else {"aw"}
    kinds = set()
    while stack:
        g, d, w, env = occ = stack.pop()
        t = type(g)
        if t in derived:
            g = derived[t](*F.children(g))
            occ, t = (g, d, w, env), type(g)
        order.append(occ)
        kinds.add(t)
        if t is F.Atom:
            taken.add(g.pred)
            taken.update(a.name for a in g.args if type(a) is F.Const or a.name not in env)
        elif t in _BOOL:
            stack += [(c, d, w, env) for c in F.children(g)]
        elif t is F.Box or t is F.Dia:
            stack.append((g.sub, d + 1, d, env))
        elif t is F.Forall or t is F.Exists:
            stack.append((g.body, d + 1, w, {**env, g.var: d}))
        elif t is F.Oblig and not sdl:
            stack += [(g.cond, d + 1, d, env), (g.cond, d + 2, d + 1, env),
                      (g.body, d + 1, d, env)]
        elif t is F.Oblig:
            raise EmbedError("dyadic obligation is not part of the SDL language")
        else:
            raise EmbedError(f"cannot embed {g!r}")
    if mode not in ("global", "local"):
        raise EmbedError(f"unknown validity mode {mode!r}")
    taken.update(*(names.get(t, ()) for t in kinds))

    labels: list[str] = []  # the name of the binder at each depth
    bvars: list[L.LTerm] = []  # BVar(k, i) by k

    def bind(scope: L.LTerm, depth: int) -> L.LTerm:
        """Pi's argument: the binder at depth over scope, eta-contracted."""
        fun = L._eta_redex(scope)
        if fun is not None:
            return L._name(fun, taken, depth, {})
        while len(labels) <= depth:
            labels.append(L._fresh(f"v{len(labels)}", taken))
        return L._new(L.Abs, labels[depth], L.I, scope)

    def var(depth: int, level: int | None) -> L.LTerm:
        if level is None:
            return AW
        while len(bvars) < depth - level:
            bvars.append(L.BVar(len(bvars), L.I))
        return bvars[depth - level - 1]

    App, NOT = L.App, L.NOT
    heads: dict[F.Atom, L.Const] = {}
    out: list[L.LTerm] = []  # the terms of the operands built so far
    for g, d, w, env in reversed(order):
        t = type(g)
        if t is F.Atom:
            head = heads.get(g)
            if head is None:
                head = heads[g] = atom_const(g.pred, len(g.args))
            for a in g.args:
                if type(a) is F.Const:
                    head = App(head, L.Const(a.name, L.I))
                else:
                    level = env.get(a.name)
                    head = App(head, L.Var(a.name, L.I) if level is None else var(d, level))
            out.append(App(head, var(d, w)))
        elif t is F.Not:
            out[-1] = App(NOT, out[-1])
        elif t in _BOOL:
            b = out.pop()
            out[-1] = App(App(_BOOL[t], out[-1]), b)
        elif t is F.Oblig:
            body, cond_y = out.pop(), out.pop()
            best = App(_PI, bind(L.limp(cond_y, L.app(R_BET, var(d + 2, d), var(d + 2, d + 1))),
                                 d + 1))
            out[-1] = App(_PI, bind(L.limp(L.land(out[-1], best), body), d))
        else:  # one Pi binder, and not Pi not for the duals
            scope = out[-1]
            if sdl and t is not F.Forall and t is not F.Exists:
                acc = L.app(R_ACC, var(d + 1, w), var(d + 1, d))
                scope = L.lor(App(NOT, acc), scope) if t is F.Box else L.land(acc, scope)
            out[-1] = (App(_PI, bind(scope, d)) if t is F.Box or t is F.Forall
                       else App(NOT, App(_PI, bind(App(NOT, scope), d))))
    nf = out[0]
    return L.App(_PI, bind(nf, 0)) if mode == "global" else nf


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


class FOFormula:
    __slots__ = ()


@dataclass(frozen=True)
class FOAtom(FOFormula):
    pred: str
    args: tuple[FOTerm, ...]


@dataclass(frozen=True)
class FONot(FOFormula):
    sub: FOFormula


@dataclass(frozen=True)
class _FOBinary(FOFormula):
    left: FOFormula
    right: FOFormula


class FOAnd(_FOBinary): pass
class FOOr(_FOBinary): pass
class FOImp(_FOBinary): pass
class FOIff(_FOBinary): pass


@dataclass(frozen=True)
class _FOQuant(FOFormula):
    var: str
    sort: str
    body: FOFormula


class FOForall(_FOQuant): pass
class FOExists(_FOQuant): pass


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
    """Whole pipeline: the normal form of the vld-wrapped embedding,
    lowered."""
    return lower(normal_form(f, logic, mode))


# ---------------------------------------------------------------------------
# Direct evaluation of lowered formulas in a finite model


def fo_eval(f: FOFormula, model: S._ModelBase, logic: str,
            env: dict[str, object] | None = None) -> bool:
    """Evaluate a closed lowered formula against a finite model: the
    world sort is the model's worlds, the individual sort its domain,
    R/Rb its relation, and predicates its valuation."""
    env = env or {}

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
    accessibility guard: forall as ~R(..) | _, exists as R(..) & _."""
    if isinstance(f, FOAtom):
        return True
    if isinstance(f, FONot):
        return in_guarded_fragment(f.sub, False)
    if isinstance(f, _FOBinary):
        return in_guarded_fragment(f.left, False) and in_guarded_fragment(f.right, False)
    if isinstance(f, _FOQuant):
        b = f.body
        if f.sort != WORLD or (outermost and isinstance(f, FOForall)):
            return in_guarded_fragment(b, False)
        if isinstance(f, FOForall):
            guard = b.left.sub if isinstance(b, FOOr) and isinstance(b.left, FONot) else None
        else:
            guard = b.left if isinstance(b, FOAnd) else None
        return (isinstance(guard, FOAtom) and guard.pred in ("R", "Rb")
                and FOVar(f.var) in guard.args and in_guarded_fragment(b.right, False))
    raise LowerError(f"unknown FO node {f!r}")


# ---------------------------------------------------------------------------
# Printing and TPTP emission


def _tptp_var(name: str) -> str:
    """Capitalized, with a renamed binder's primes (illegal in TPTP) as _."""
    return name[0].upper() + name[1:].replace("'", "_")


def _tptp_pred(name: str) -> str:
    return name[0].lower() + name[1:]


class _Syntax(NamedTuple):
    """How a printer writes names, atoms and each connective."""

    pred: Callable[[str], str]        # predicate and constant names
    var: Callable[[str], str]
    comma: str
    ops: dict                         # class -> its text; {v}, {s}: variable, sort
    close: str                        # ends a quantifier; if nonempty, the
                                      # body is parenthesized unless atomic


_SHOW = _Syntax(str, str, ", ", {FONot: "¬", FOAnd: " ∧ ", FOOr: " ∨ ", FOImp: " → ",
                                 FOIff: " ↔ ", FOForall: "∀{v}:{s}. ", FOExists: "∃{v}:{s}. "},
                "")
_TPTP = _Syntax(_tptp_pred, _tptp_var, ",",
                {FONot: "~ ", FOAnd: " & ", FOOr: " | ", FOImp: " => ", FOIff: " <=> ",
                 FOForall: "! [{v}] : ({s}({v}) => ", FOExists: "? [{v}] : ({s}({v}) & "},
                ")")


def _operand(f: FOFormula) -> tuple:
    """The stack entries that print f parenthesized unless atomic."""
    return (f,) if type(f) is FOAtom else (")", f, "(")


def _print(f: FOFormula, syn: _Syntax, sorts: set[str] | None = None) -> str:
    """f in the given syntax, by one explicit-stack walk whose entries
    are text still to write or formulas still to print; adds the sort of
    each quantifier to sorts."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is str:
            out.append(g)
        elif t is FOAtom:
            if g.pred == F.RESERVED_ATOM:
                out.append("$false")
            elif not g.args:
                out.append(syn.pred(g.pred))
            else:
                args = syn.comma.join(syn.var(a.name) if type(a) is FOVar else syn.pred(a.name)
                                      for a in g.args)
                out.append(f"{syn.pred(g.pred)}({args})")
        elif t is FONot:
            out.append(syn.ops[t])
            stack += _operand(g.sub)
        elif t in (FOForall, FOExists):
            out.append(syn.ops[t].format(v=syn.var(g.var), s=g.sort))
            stack.append(syn.close)
            stack += _operand(g.body) if syn.close else (g.body,)
            if sorts is not None:
                sorts.add(g.sort)
        elif t in syn.ops:
            stack += _operand(g.right)
            stack.append(syn.ops[t])
            stack += _operand(g.left)
        else:
            raise LowerError(f"unknown FO node {g!r}")
    return "".join(out)


def fo_show(f: FOFormula) -> str:
    return _print(f, _SHOW)


def emit_tptp(f: FOFormula, name: str, role: str, logic: str | None = None) -> str:
    """A complete TPTP FOF problem: sort nonemptiness axioms for the
    sorts the formula quantifies over, the SDL seriality axiom when
    logic is sdl, then the formula itself under the given name/role."""
    sorts: set[str] = set()
    text = _print(f, _TPTP, sorts)
    lines = []
    if WORLD in sorts or logic == "sdl":
        lines.append("fof(world_nonempty, axiom, ? [W] : world(W)).")
    if INDIV in sorts:
        lines.append("fof(indiv_nonempty, axiom, ? [X] : indiv(X)).")
    if logic == "sdl":
        lines.append("fof(seriality, axiom, ! [W] : (world(W) => "
                     "(? [V] : (world(V) & r(W,V))))).")
    lines.append(f"fof({name}, {role}, {text}).")
    return "\n".join(lines) + "\n"
