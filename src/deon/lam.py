"""Simply typed lambda terms with capture-avoiding substitution and
beta-eta normalization.

Terms are named at the API boundary; normalization converts to a de
Bruijn form internally, so binder names never matter.
Normal forms come back out with deterministic binder names v0, v1, ...
(primed if a free variable or a constant already uses the name).
`normalize` evaluates the term once and reads the value back once
(normalization by evaluation); the single-step reducer behind
`normalize_steps` is kept for `--show-steps` and as the tests' oracle.

Logical constants: not, or, and, imp, iff are ordinary constants of the
expected Boolean types, and Pi is a family of constants (one per
argument type) encoding the universal quantifier; `forall`/`exists` are
builders producing Pi-terms.  None of these constants reduce; reduction
is purely beta/eta.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass


class LamError(Exception):
    pass


class LamTypeError(LamError):
    pass


# ---------------------------------------------------------------------------
# Types


class Ty:
    __slots__ = ()


@dataclass(frozen=True)
class Base(Ty):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Arrow(Ty):
    src: Ty
    dst: Ty

    def __str__(self):
        s = f"({self.src})" if isinstance(self.src, Arrow) else str(self.src)
        return f"{s}>{self.dst}"


O = Base("o")
I = Base("i")
TAU = Arrow(I, O)


def fn(*types: Ty) -> Ty:
    """Right-associated function type: fn(a, b, c) == a > (b > c)."""
    if not types:
        raise LamError("fn needs at least one type")
    out = types[-1]
    for t in reversed(types[:-1]):
        out = Arrow(t, out)
    return out


# ---------------------------------------------------------------------------
# Terms (named)


class LTerm:
    __slots__ = ()


@dataclass(frozen=True)
class Const(LTerm):
    name: str
    ty: Ty


@dataclass(frozen=True)
class Var(LTerm):
    name: str
    ty: Ty


@dataclass(frozen=True)
class Abs(LTerm):
    var: str
    var_ty: Ty
    body: LTerm


@dataclass(frozen=True)
class App(LTerm):
    fun: LTerm
    arg: LTerm


NOT = Const("not", fn(O, O))
OR = Const("or", fn(O, O, O))
AND = Const("and", fn(O, O, O))
IMP = Const("imp", fn(O, O, O))
IFF = Const("iff", fn(O, O, O))

def Pi(alpha: Ty) -> Const:
    """Universal quantifier constant over predicates of type alpha>o."""
    return Const("Pi", fn(fn(alpha, O), O))


def app(f: LTerm, *args: LTerm) -> LTerm:
    for a in args:
        f = App(f, a)
    return f


def neg(t: LTerm) -> LTerm:
    return App(NOT, t)


def lor(a: LTerm, b: LTerm) -> LTerm:
    return app(OR, a, b)


def land(a: LTerm, b: LTerm) -> LTerm:
    return app(AND, a, b)


def limp(a: LTerm, b: LTerm) -> LTerm:
    return app(IMP, a, b)


def forall(var: str, ty: Ty, body: LTerm) -> LTerm:
    return App(Pi(ty), Abs(var, ty, body))


def exists(var: str, ty: Ty, body: LTerm) -> LTerm:
    return neg(App(Pi(ty), Abs(var, ty, neg(body))))


# ---------------------------------------------------------------------------
# Typing


def type_of(t: LTerm, env: dict[str, Ty] | None = None) -> Ty:
    """The unique simple type of t, or LamTypeError."""
    env = env or {}
    if isinstance(t, (Const, Var)):
        if isinstance(t, Var) and t.name in env and env[t.name] != t.ty:
            raise LamTypeError(f"variable {t.name} annotated {t.ty}, bound at {env[t.name]}")
        return t.ty
    if isinstance(t, Abs):
        shadowed = env.get(t.var)
        env[t.var] = t.var_ty
        try:
            return Arrow(t.var_ty, type_of(t.body, env))
        finally:
            if shadowed is None:
                del env[t.var]
            else:
                env[t.var] = shadowed
    if isinstance(t, App):
        ft = type_of(t.fun, env)
        at = type_of(t.arg, env)
        if not isinstance(ft, Arrow):
            raise LamTypeError(f"applying non-function of type {ft}")
        if ft.src != at:
            raise LamTypeError(f"argument type mismatch: expected {ft.src}, got {at}")
        return ft.dst
    raise LamError(f"unknown term {t!r}")


def free_vars(t: LTerm) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, Abs):
        return free_vars(t.body) - {t.var}
    return free_vars(t.fun) | free_vars(t.arg)


def names(t: LTerm) -> set[str]:
    """The names of t's free variables and constants: the names a new
    binder must avoid to be read unambiguously."""
    out: set[str] = set()
    stack: list[tuple[LTerm, frozenset[str]]] = [(t, frozenset())]
    while stack:
        u, bound = stack.pop()
        if isinstance(u, Const) or (isinstance(u, Var) and u.name not in bound):
            out.add(u.name)
        elif isinstance(u, Abs):
            stack.append((u.body, bound | {u.var}))
        elif isinstance(u, App):
            stack += [(u.fun, bound), (u.arg, bound)]
    return out


def _fresh(base: str, avoid: set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(t: LTerm, x: Var, s: LTerm) -> LTerm:
    """Capture-avoiding [s/x]t; binders of t are renamed away from s."""
    if type_of(s) != x.ty:
        raise LamTypeError(f"substituting {type_of(s)} term for {x.ty} variable")
    fv_s = free_vars(s)

    def go(u: LTerm, bound: set[str]) -> LTerm:
        if isinstance(u, Var):
            return s if u.name == x.name else u
        if isinstance(u, Const):
            return u
        if isinstance(u, App):
            return App(go(u.fun, bound), go(u.arg, bound))
        if isinstance(u, Abs):
            if u.var == x.name:
                return u
            if u.var in fv_s and x.name in free_vars(u.body):
                new = _fresh(u.var, fv_s | free_vars(u.body) | bound)
                # renaming is itself a substitution, so it avoids capture too
                body = substitute(u.body, Var(u.var, u.var_ty), Var(new, u.var_ty))
                return Abs(new, u.var_ty, go(body, bound | {new}))
            return Abs(u.var, u.var_ty, go(u.body, bound | {u.var}))
        raise LamError(f"unknown term {u!r}")

    return go(t, set())


# ---------------------------------------------------------------------------
# De Bruijn machinery (internal)


@dataclass(frozen=True)
class _DVar:
    idx: int


@dataclass(frozen=True)
class _DFree:
    name: str
    ty: Ty


@dataclass(frozen=True)
class _DConst:
    name: str
    ty: Ty


@dataclass(frozen=True)
class _DAbs:
    var_ty: Ty
    body: object


@dataclass(frozen=True)
class _DApp:
    fun: object
    arg: object


def _to_db(t: LTerm, env: tuple[tuple[str, Ty], ...] = ()):
    if isinstance(t, Var):
        for i, (name, ty) in enumerate(env):
            if name == t.name:
                return _DVar(i)
        return _DFree(t.name, t.ty)
    if isinstance(t, Const):
        return _DConst(t.name, t.ty)
    if isinstance(t, Abs):
        return _DAbs(t.var_ty, _to_db(t.body, ((t.var, t.var_ty),) + env))
    if isinstance(t, App):
        return _DApp(_to_db(t.fun, env), _to_db(t.arg, env))
    raise LamError(f"unknown term {t!r}")


def _from_db(d, taken: set[str]) -> LTerm:
    """The named term of d: a binder at depth k is named v<k>, primed
    until the name is not in taken."""

    def go(u, depth: int, env: tuple[tuple[str, Ty], ...]) -> LTerm:
        if isinstance(u, _DVar):
            name, ty = env[u.idx]
            return Var(name, ty)
        if isinstance(u, _DFree):
            return Var(u.name, u.ty)
        if isinstance(u, _DConst):
            return Const(u.name, u.ty)
        if isinstance(u, _DAbs):
            name = _fresh(f"v{depth}", taken)
            return Abs(name, u.var_ty, go(u.body, depth + 1, ((name, u.var_ty),) + env))
        if isinstance(u, _DApp):
            return App(go(u.fun, depth, env), go(u.arg, depth, env))
        raise LamError(f"unknown de Bruijn node {u!r}")

    return go(d, 0, ())


def _shift(d, by: int, cutoff: int = 0):
    if isinstance(d, _DVar):
        return _DVar(d.idx + by) if d.idx >= cutoff else d
    if isinstance(d, (_DFree, _DConst)):
        return d
    if isinstance(d, _DAbs):
        return _DAbs(d.var_ty, _shift(d.body, by, cutoff + 1))
    return _DApp(_shift(d.fun, by, cutoff), _shift(d.arg, by, cutoff))


def _subst_db(d, idx: int, s):
    if isinstance(d, _DVar):
        if d.idx == idx:
            return _shift(s, idx)
        return _DVar(d.idx - 1) if d.idx > idx else d
    if isinstance(d, (_DFree, _DConst)):
        return d
    if isinstance(d, _DAbs):
        return _DAbs(d.var_ty, _subst_db(d.body, idx + 1, s))
    return _DApp(_subst_db(d.fun, idx, s), _subst_db(d.arg, idx, s))


def _beta_step(d, strategy: str):
    """One beta step at the strategy's redex, or None if beta-normal."""
    if strategy == "lo":
        if isinstance(d, _DApp) and isinstance(d.fun, _DAbs):
            return _subst_db(d.fun.body, 0, d.arg)
        if isinstance(d, _DAbs):
            r = _beta_step(d.body, strategy)
            return None if r is None else _DAbs(d.var_ty, r)
        if isinstance(d, _DApp):
            r = _beta_step(d.fun, strategy)
            if r is not None:
                return _DApp(r, d.arg)
            r = _beta_step(d.arg, strategy)
            return None if r is None else _DApp(d.fun, r)
        return None
    # rightmost-innermost: reduce inside subterms first, arguments before
    # functions, and the root redex only when both sides are normal
    if isinstance(d, _DAbs):
        r = _beta_step(d.body, strategy)
        return None if r is None else _DAbs(d.var_ty, r)
    if isinstance(d, _DApp):
        r = _beta_step(d.arg, strategy)
        if r is not None:
            return _DApp(d.fun, r)
        r = _beta_step(d.fun, strategy)
        if r is not None:
            return _DApp(r, d.arg)
        if isinstance(d.fun, _DAbs):
            return _subst_db(d.fun.body, 0, d.arg)
    return None


def _uses_idx(d, idx: int) -> bool:
    if isinstance(d, _DVar):
        return d.idx == idx
    if isinstance(d, (_DFree, _DConst)):
        return False
    if isinstance(d, _DAbs):
        return _uses_idx(d.body, idx + 1)
    return _uses_idx(d.fun, idx) or _uses_idx(d.arg, idx)


def _eta_step(d):
    if isinstance(d, _DAbs):
        b = d.body
        if isinstance(b, _DApp) and b.arg == _DVar(0) and not _uses_idx(b.fun, 0):
            return _shift(b.fun, -1)
        r = _eta_step(d.body)
        return None if r is None else _DAbs(d.var_ty, r)
    if isinstance(d, _DApp):
        r = _eta_step(d.fun)
        if r is not None:
            return _DApp(r, d.arg)
        r = _eta_step(d.arg)
        return None if r is None else _DApp(d.fun, r)
    return None


# Normalization by evaluation.  A value is a closure (a lambda body with
# the values of its free de Bruijn indices, innermost first, as a cons
# list) or a neutral term: a head applied to argument values.  The head
# of a neutral is a _DFree, a _DConst or the de Bruijn *level* (int) of
# a variable bound during read-back.


_Clo = namedtuple("_Clo", "var_ty body env")
_Neu = namedtuple("_Neu", "head args")


def _eval(d, env):
    while isinstance(d, _DApp):
        f = _eval(d.fun, env)
        a = _eval(d.arg, env)
        if isinstance(f, _Neu):
            return _Neu(f.head, f.args + (a,))
        d, env = f.body, (a, f.env)  # enter the closure's body in place
    if isinstance(d, _DVar):
        for _ in range(d.idx):
            env = env[1]
        return env[0]
    if isinstance(d, _DAbs):
        return _Clo(d.var_ty, d.body, env)
    return _Neu(d, ())


def _quote(v, lvl: int):
    """Read a value back as a beta-eta normal de Bruijn term under lvl
    binders, eta-contracting each lambda as soon as its body is built."""
    if isinstance(v, _Clo):
        body = _quote(_eval(v.body, (_Neu(lvl, ()), v.env)), lvl + 1)
        if isinstance(body, _DApp) and body.arg == _DVar(0) and not _uses_idx(body.fun, 0):
            return _shift(body.fun, -1)
        return _DAbs(v.var_ty, body)
    d = _DVar(lvl - v.head - 1) if isinstance(v.head, int) else v.head
    for a in v.args:
        d = _DApp(d, _quote(a, lvl))
    return d


def normalize(t: LTerm) -> LTerm:
    """Beta-eta normal form with canonical binder names, in one pass.

    The term is evaluated once into closures and neutral terms and read
    back once (normalization by evaluation, Berger & Schwichtenberg
    1991), eta-contracting each lambda as its body is read back.
    Soundness:

    - simply typed terms are strongly normalizing, so evaluation
      terminates, and read-back applies only variable and constant
      heads, so its result is a beta-normal form of the input;
    - eta on a beta-normal term creates no beta redex: lambda x. M x
      becomes M in a place no application has as its function;
    - beta-eta normal forms are unique (Church-Rosser) and de Bruijn
      terms identify alpha-equivalent ones, so the result is exactly the
      stepper's (`normalize_steps`, either strategy), and `_from_db`
      names it the same way, avoiding the input's names().
    """
    type_of(t)
    return _from_db(_quote(_eval(_to_db(t), ()), 0), names(t))


def normalize_steps(t: LTerm, strategy: str = "lo") -> list[LTerm]:
    """Every intermediate term of the reduction, starting with t itself."""
    if strategy not in ("lo", "ri"):
        raise LamError(f"unknown strategy {strategy!r}")
    type_of(t)
    d = _to_db(t)
    taken = names(t)
    steps = [_from_db(d, taken)]
    # eta after beta exhaustion: an eta step keeps a term beta-normal
    for step in (lambda u: _beta_step(u, strategy), _eta_step):
        while (r := step(d)) is not None:
            d = r
            steps.append(_from_db(d, taken))
    return steps


# ---------------------------------------------------------------------------
# Printing

_INFIX = {"or": "∨", "and": "∧", "imp": "→", "iff": "↔"}


def show(t: LTerm, types: bool = False) -> str:
    """Debug printer; types=True annotates binders and standalone constants."""

    def go(u: LTerm, ctx: int) -> str:
        # ctx: 0 = top, 1 = operand of an application, 2 = function position
        if isinstance(u, Var):
            return u.name
        if isinstance(u, Const):
            if u.name in _INFIX or u.name == "not":
                sym = "¬" if u.name == "not" else _INFIX[u.name]
            elif u.name == "Pi":
                sym = "Π"
            else:
                sym = u.name
            return f"{sym}:{u.ty}" if types and ctx == 0 else sym
        if isinstance(u, Abs):
            ann = f"{u.var}:{u.var_ty}" if types else u.var
            s = f"λ{ann}. {go(u.body, 0)}"
            return f"({s})" if ctx else s
        if isinstance(u, App):
            # binary connectives print infix, negation prefix
            if isinstance(u.fun, App) and isinstance(u.fun.fun, Const) and u.fun.fun.name in _INFIX:
                s = f"{go(u.fun.arg, 1)} {_INFIX[u.fun.fun.name]} {go(u.arg, 1)}"
                return f"({s})" if ctx else s
            if isinstance(u.fun, Const) and u.fun.name == "not":
                return f"¬{go(u.arg, 1)}"
            if isinstance(u.fun, Const) and u.fun.name == "Pi" and isinstance(u.arg, Abs):
                ann = f"{u.arg.var}:{u.arg.var_ty}" if types else u.arg.var
                s = f"Π(λ{ann}. {go(u.arg.body, 0)})"
                return s
            s = f"{go(u.fun, 2)} {go(u.arg, 1)}"
            return f"({s})" if ctx == 1 else s
        raise LamError(f"unknown term {u!r}")

    return go(t, 0)
