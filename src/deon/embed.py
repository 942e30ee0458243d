"""The semantical embedding pipeline.

A formula becomes a lambda term of type i>o (a predicate on worlds) by
translating each operator to a defining lambda term and each atom to a
constant; normalization then unfolds the definitions.  Wrapping with
`vld` produces a closed term of type o, whose normal form `lower` reads
off, in one walk that also names binders and infers their sorts, as a
two-sorted first-order formula over worlds and individuals.  That
formula can be evaluated directly in a finite model or emitted as a
TPTP FOF problem.

SDL translates box through a guarded accessibility quantifier; system E
gives box the global reading and the dyadic obligation the optimality
reading over the betterness constant Rb.
"""

from __future__ import annotations

import itertools
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


def _abs(v, ty, body):
    return L.Abs(v, ty, body)


def _v(name, ty=L.I):
    return L.Var(name, ty)


# Operator definitions, unfolded by normalization.

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


def _embed(f: F.Formula, logic: str) -> L.LTerm:
    """The embedding of f.  It has type i>o by construction, so it is
    not type-checked: every combinator above is closed and well typed
    and takes arguments of type i>o; the quantifier combinators instead
    take a lambda over an individual whose body is an embedding; and an
    atom's constant takes its arity from the atom, so it is applied to
    exactly that many individual terms."""
    if isinstance(f, F.Atom):
        head = atom_const(f.pred, len(f.args))
        return L.app(head, *[_embed_term(t) for t in f.args])
    if isinstance(f, F.Not):
        return L.App(NOT_PW, _embed(f.sub, logic))
    if isinstance(f, F.And):
        return L.app(AND_PW, _embed(f.left, logic), _embed(f.right, logic))
    if isinstance(f, F.Or):
        return L.app(OR_PW, _embed(f.left, logic), _embed(f.right, logic))
    if isinstance(f, F.Implies):
        return L.app(IMP_PW, _embed(f.left, logic), _embed(f.right, logic))
    if isinstance(f, F.Iff):
        return L.app(IFF_PW, _embed(f.left, logic), _embed(f.right, logic))
    if isinstance(f, (F.Forall, F.Exists)):
        comb = FORALL_PW if isinstance(f, F.Forall) else EXISTS_PW
        return L.App(comb, L.Abs(f.var, L.I, _embed(f.body, logic)))
    if logic == "sdl":
        if isinstance(f, F.Box):
            return L.App(SDL_BOX, _embed(f.sub, logic))
        if isinstance(f, F.Dia):
            return L.App(SDL_DIA, _embed(f.sub, logic))
        if isinstance(f, F.ObligM):
            return L.App(SDL_BOX, _embed(f.sub, logic))
        if isinstance(f, F.Perm):
            return L.App(NOT_PW, L.App(SDL_BOX, L.App(NOT_PW, _embed(f.sub, logic))))
        if isinstance(f, F.Forb):
            return L.App(SDL_BOX, L.App(NOT_PW, _embed(f.sub, logic)))
        if isinstance(f, F.Oblig):
            raise EmbedError("dyadic obligation is not part of the SDL language")
    else:
        if isinstance(f, F.Box):
            return L.App(E_BOX, _embed(f.sub, logic))
        if isinstance(f, F.Dia):
            return L.App(E_DIA, _embed(f.sub, logic))
        if isinstance(f, F.Oblig):
            return L.app(E_OBLIG, _embed(f.body, logic), _embed(f.cond, logic))
        if isinstance(f, F.ObligM):
            return L.app(E_OBLIG, _embed(f.sub, logic), _embed(F.TOP, logic))
        if isinstance(f, F.Perm):
            return L.App(NOT_PW, L.app(E_OBLIG, L.App(NOT_PW, _embed(f.sub, logic)),
                                       _embed(F.TOP, logic)))
        if isinstance(f, F.Forb):
            return L.app(E_OBLIG, L.App(NOT_PW, _embed(f.sub, logic)), _embed(F.TOP, logic))
    raise EmbedError(f"cannot embed {f!r}")


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
class FOAnd(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOOr(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOImp(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOIff(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOForall(FOFormula):
    var: str
    sort: str
    body: FOFormula


@dataclass(frozen=True)
class FOExists(FOFormula):
    var: str
    sort: str
    body: FOFormula


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

    def quant(cls, var: str, var_ty: L.Ty, body: L.LTerm, env: dict[str, str],
              depth: int, name: str | None = None) -> FOFormula:
        if var_ty != L.I:
            raise HigherOrderResidue(f"quantification over type {var_ty}")
        if name is None:
            name = L._fresh(f"v{next(count)}", taken)
        body = walk(body, {**env, var: name}, depth + 1)
        sort = sorts.get(name)
        return body if sort is None else cls(name, sort, body)

    def walk(u: L.LTerm, env: dict[str, str], depth: int) -> FOFormula:
        head, args = _spine(u)
        if isinstance(head, L.Var):
            raise HigherOrderResidue(f"free predicate variable {head.name}")
        if not isinstance(head, L.Const):
            raise HigherOrderResidue(f"unreadable term {L.show(u)}")
        if head.name == "not" and len(args) == 1:
            # recognize the encoded existential: not (Pi (lam x. not b))
            shead, sargs = _spine(args[0])
            if (isinstance(shead, L.Const) and shead.name == "Pi" and len(sargs) == 1
                    and isinstance(sargs[0], L.Abs)):
                inner = sargs[0]
                ihead, iargs = _spine(inner.body)
                if isinstance(ihead, L.Const) and ihead.name == "not" and len(iargs) == 1:
                    return quant(FOExists, inner.var, inner.var_ty, iargs[0], env, depth)
            return FONot(walk(args[0], env, depth))
        if head.name in _FO_BIN and len(args) == 2:
            return _FO_BIN[head.name](walk(args[0], env, depth), walk(args[1], env, depth))
        if head.name == "Pi" and len(args) == 1:
            arg = args[0]
            if isinstance(arg, L.Abs):
                return quant(FOForall, arg.var, arg.var_ty, arg.body, env, depth)
            aty = L.type_of(arg)
            if not (isinstance(aty, L.Arrow) and aty.src == L.I):
                raise HigherOrderResidue(f"quantification over type {aty}")
            key = L._fresh(f"q{depth}", {*taken, *env})  # names no variable of arg
            return quant(FOForall, key, L.I, L.App(arg, L.Var(key, L.I)), env, depth,
                         name=L._fresh(f"q{depth}", taken))
        # predicate constant applied to base-sorted arguments
        fo_args: list[FOTerm] = []
        for i, a in enumerate(args):
            if isinstance(a, L.Const) and a.ty == L.I:
                fo_args.append(FOConst(a.name))
                continue
            if not (isinstance(a, L.Var) and a.ty == L.I):
                raise HigherOrderResidue(
                    f"argument {L.show(a)} of {head.name} is not base-sorted")
            name = env.get(a.name, a.name)
            sort = WORLD if head.name in ("R", "Rb") or i == len(args) - 1 else INDIV
            if sorts.setdefault(name, sort) != sort:
                raise LowerError(f"variable {name} used as both sorts")
            fo_args.append(FOVar(name))
        return FOAtom(head.name, tuple(fo_args))

    return walk(t, {}, 0)


def translate(f: F.Formula, logic: str, mode: str = "global") -> FOFormula:
    """Whole pipeline: embed, vld-wrap, normalize, lower."""
    return lower(L.normalize(vld(embed(f, logic), mode)))


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
    if isinstance(f, (FOAnd, FOOr, FOImp, FOIff)):
        return in_guarded_fragment(f.left, False) and in_guarded_fragment(f.right, False)
    if isinstance(f, FOForall):
        if f.sort != WORLD or outermost:
            return in_guarded_fragment(f.body, False)
        ok = (isinstance(f.body, FOOr)
              and isinstance(f.body.left, FONot)
              and isinstance(f.body.left.sub, FOAtom)
              and f.body.left.sub.pred in ("R", "Rb")
              and FOVar(f.var) in f.body.left.sub.args)
        return ok and in_guarded_fragment(f.body.right, False)
    if isinstance(f, FOExists):
        if f.sort != WORLD:
            return in_guarded_fragment(f.body, False)
        ok = (isinstance(f.body, FOAnd)
              and isinstance(f.body.left, FOAtom)
              and f.body.left.pred in ("R", "Rb")
              and FOVar(f.var) in f.body.left.args)
        return ok and in_guarded_fragment(f.body.right, False)
    raise LowerError(f"unknown FO node {f!r}")


# ---------------------------------------------------------------------------
# Printing and TPTP emission


def fo_show(f: FOFormula) -> str:
    if isinstance(f, FOAtom):
        if f.pred == F.RESERVED_ATOM:
            return "$false"
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(a.name for a in f.args)})"
    if isinstance(f, FONot):
        return f"¬{_fo_paren(f.sub)}"
    if isinstance(f, (FOAnd, FOOr, FOImp, FOIff)):
        op = {FOAnd: "∧", FOOr: "∨", FOImp: "→", FOIff: "↔"}[type(f)]
        return f"{_fo_paren(f.left)} {op} {_fo_paren(f.right)}"
    if isinstance(f, (FOForall, FOExists)):
        q = "∀" if isinstance(f, FOForall) else "∃"
        return f"{q}{f.var}:{f.sort}. {fo_show(f.body)}"
    raise LowerError(f"unknown FO node {f!r}")


def _fo_paren(f: FOFormula) -> str:
    s = fo_show(f)
    return s if isinstance(f, FOAtom) else f"({s})"


def _tptp_var(name: str) -> str:
    """Capitalized, with a renamed binder's primes (illegal in TPTP) as _."""
    return name[0].upper() + name[1:].replace("'", "_")


def _tptp_pred(name: str) -> str:
    return name[0].lower() + name[1:]


def _tptp_formula(f: FOFormula) -> str:
    if isinstance(f, FOAtom):
        if f.pred == F.RESERVED_ATOM:
            return "$false"
        if not f.args:
            return _tptp_pred(f.pred)
        args = ",".join(_tptp_var(a.name) if isinstance(a, FOVar) else _tptp_pred(a.name)
                        for a in f.args)
        return f"{_tptp_pred(f.pred)}({args})"
    if isinstance(f, FONot):
        return f"~ {_tptp_sub(f.sub)}"
    if isinstance(f, (FOAnd, FOOr, FOImp, FOIff)):
        op = {FOAnd: "&", FOOr: "|", FOImp: "=>", FOIff: "<=>"}[type(f)]
        return f"{_tptp_sub(f.left)} {op} {_tptp_sub(f.right)}"
    if isinstance(f, FOForall):
        return f"! [{_tptp_var(f.var)}] : ({f.sort}({_tptp_var(f.var)}) => {_tptp_sub(f.body)})"
    if isinstance(f, FOExists):
        return f"? [{_tptp_var(f.var)}] : ({f.sort}({_tptp_var(f.var)}) & {_tptp_sub(f.body)})"
    raise LowerError(f"unknown FO node {f!r}")


def _tptp_sub(f: FOFormula) -> str:
    s = _tptp_formula(f)
    return s if isinstance(f, FOAtom) else f"({s})"


def _fo_sorts_used(f: FOFormula, acc: set[str]):
    if isinstance(f, (FOForall, FOExists)):
        acc.add(f.sort)
        _fo_sorts_used(f.body, acc)
    elif isinstance(f, FONot):
        _fo_sorts_used(f.sub, acc)
    elif isinstance(f, (FOAnd, FOOr, FOImp, FOIff)):
        _fo_sorts_used(f.left, acc)
        _fo_sorts_used(f.right, acc)


def emit_tptp(f: FOFormula, name: str, role: str, logic: str | None = None) -> str:
    """A complete TPTP FOF problem: sort nonemptiness axioms for the
    sorts the formula quantifies over, the SDL seriality axiom when
    logic is sdl, then the formula itself under the given name/role."""
    sorts: set[str] = set()
    _fo_sorts_used(f, sorts)
    lines = []
    if WORLD in sorts or logic == "sdl":
        lines.append("fof(world_nonempty, axiom, ? [W] : world(W)).")
    if INDIV in sorts:
        lines.append("fof(indiv_nonempty, axiom, ? [X] : indiv(X)).")
    if logic == "sdl":
        lines.append("fof(seriality, axiom, ! [W] : (world(W) => "
                     "(? [V] : (world(V) & r(W,V))))).")
    lines.append(f"fof({name}, {role}, {_tptp_formula(f)}).")
    return "\n".join(lines) + "\n"
