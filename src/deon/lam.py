"""Simply typed lambda terms in one node family, with beta-eta
normalization.

Terms are built with named binders and stored locally nameless
(Charguéraud 2012): building `Abs(var, ty, body)` turns the occurrences
of var in body into de Bruijn indices (`BVar`), and only the binder
keeps the name, so `.body` reads the named body back and `==` still
tells binder names apart.  Free variables and constants keep their
names.  Nodes are hash-consed on `formula._Node` (Filliâtre & Conchon
2006), in the formulas' table and by their one constructor, so equality
is identity and hashing is O(1), and `formula`'s walks and `repr` serve
them as they serve formulas.  Each node also records, in the slots
`LTerm._derived`, its type, so `type_of` reads a field, and what the
index operations need to skip it.  The type is checked there, once,
when the node is built: an ill-typed application or binder raises
LamTypeError instead, so every term that exists is well typed.

Normalization, the single-step reducer and `show` work on these nodes;
names are made only at the boundary, where a binder of a normal form or
of a reduction step at depth k is named v<k>, primed while a free
variable or a constant of the input has the name.

Logical constants: not, or, and, imp, iff are ordinary constants of the
expected Boolean types, and Pi is a family of constants (one per
argument type) encoding the universal quantifier; `forall`/`exists` are
builders producing Pi-terms.  None of these constants reduce; reduction
is purely beta/eta.
"""

from __future__ import annotations

from collections import namedtuple

from . import formula as F


class LamError(Exception):
    pass


class LamTypeError(LamError):
    pass


# ---------------------------------------------------------------------------
# Types


class Ty(F._Node):
    __slots__ = ()


class Base(Ty):
    __slots__ = _fields = ("name",)
    _lead = 1

    def __str__(self):
        return self.name


class Arrow(Ty):
    __slots__ = _fields = ("src", "dst")

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
# Terms

class LTerm(F._Node):
    """A term node.  Besides its fields it records, when it is made,
    what `_derive` gives from them: `ty`, its type; `_loose`, one more
    than the largest de Bruijn index free in it (0 if none is); and
    `_open`, whether a free variable occurs in it.  `_derive` raises
    LamTypeError if the fields do not type, before the node is made."""

    __slots__ = _derived = ("ty", "_loose", "_open")


_new = F._Node.__new__  # the node constructor, for Abs without closing a body


class Const(LTerm):
    __slots__ = ("name",)
    _fields = ("name", "ty")
    _lead = 2
    _derive = staticmethod(lambda name, ty: (ty, 0, False))


class Var(LTerm):
    """A free variable."""

    __slots__ = ("name",)
    _fields = ("name", "ty")
    _lead = 2
    _derive = staticmethod(lambda name, ty: (ty, 0, True))


class BVar(LTerm):
    """A bound variable: the de Bruijn index of its binder, and its type."""

    __slots__ = ("idx",)
    _fields = ("idx", "ty")
    _lead = 2
    _derive = staticmethod(lambda idx, ty: (ty, idx + 1, False))


class App(LTerm):
    __slots__ = _fields = ("fun", "arg")

    @staticmethod
    def _derive(fun, arg):
        ft = fun.ty
        if type(ft) is not Arrow:
            raise LamTypeError(f"applying non-function of type {ft}")
        if ft.src is not arg.ty:
            raise LamTypeError(f"argument type mismatch: expected {ft.src}, got {arg.ty}")
        return ft.dst, max(fun._loose, arg._loose), fun._open or arg._open


class Abs(LTerm):
    """λvar:var_ty. body, stored as its `scope`: body with var as index
    0.  Every free occurrence of var in body is bound, so one of another
    type than var_ty raises LamTypeError."""

    __slots__ = _fields = ("var", "var_ty", "scope")
    _lead = 2

    def __new__(cls, var: str, var_ty: Ty, body: LTerm):
        return _new(Abs, var, var_ty, _close(body, var, var_ty))

    @staticmethod
    def _derive(var, var_ty, scope):
        return Arrow(var_ty, scope.ty), max(scope._loose - 1, 0), scope._open

    @property
    def body(self) -> LTerm:
        return _subst_db(self.scope, 0, Var(self.var, self.var_ty))

    def __repr__(self) -> str:
        """The text of the named term `.body` reads back, a bound BVar as
        its Var; the stack's None leaves a binder of `names`."""
        out, names, stack = [], [], [self]
        while stack:
            g = stack.pop()
            if g is None:
                names.pop()
            elif type(g) is str:
                out.append(g)
            elif type(g) is Abs:
                out.append(f"Abs(var={g.var!r}, var_ty={g.var_ty!r}, body=")
                names.append(g.var)
                stack += (")", None, g.scope)
            elif type(g) is App:
                stack += (")", g.arg, ", arg=", g.fun, "App(fun=")
            elif type(g) is BVar and g.idx < len(names):
                out.append(f"Var(name={names[-1 - g.idx]!r}, ty={g.ty!r})")
            else:  # a BVar loose in self loses one index per binder above it
                out.append(repr(BVar(g.idx - len(names), g.ty) if type(g) is BVar else g))
        return "".join(out)


def _rebind(u: Abs, scope: LTerm, var: str | None = None) -> Abs:
    """u's binder, or one named var, over a scope of the same types."""
    return _new(Abs, var or u.var, u.var_ty, scope)


def _close(body: LTerm, x: str, ty: Ty) -> LTerm:
    """body with each free occurrence of x made the index of the binder
    of type ty above body, or LamTypeError at the first one, left to
    right, of another type.  One post-order walk over the open part of
    body, memoized by (node, depth)."""
    if not body._open:
        return body
    memo: dict = {}
    stack = [(body, 0)]
    while stack:
        u, depth = stack[-1]
        if type(u) is Var:
            if u.name != x:
                r = u
            elif u.ty is not ty:
                raise LamTypeError(f"variable {x} annotated {u.ty}, bound at {ty}")
            else:
                r = BVar(depth, ty)
        elif type(u) is App:
            f, a = u.fun, u.arg
            fun = memo.get((f, depth)) if f._open else f
            arg = memo.get((a, depth)) if a._open else a
            if fun is None or arg is None:  # the function's part first
                if arg is None:
                    stack.append((a, depth))
                if fun is None:
                    stack.append((f, depth))
                continue
            r = App(fun, arg)
        elif u.var == x:  # x is shadowed in u
            r = u
        else:
            scope = memo.get((u.scope, depth + 1)) if u.scope._open else u.scope
            if scope is None:
                stack.append((u.scope, depth + 1))
                continue
            r = _rebind(u, scope)
        memo[u, depth] = r
        stack.pop()
    return memo[body, 0]


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
    """The type t records, or LamTypeError if env types a free variable
    of t otherwise (a binder binds every free variable of its name in its
    body, so env holds throughout t)."""
    if not isinstance(t, LTerm):
        raise LamError(f"unknown term {t!r}")
    if env and t._open:
        for u in _leaves(t):
            if type(u) is Var and env.get(u.name, u.ty) is not u.ty:
                raise LamTypeError(f"variable {u.name} annotated {u.ty}, bound at {env[u.name]}")
    return t.ty


def _leaves(t: LTerm) -> list[LTerm]:
    """The distinct constants and free variables in t, in pre-order."""
    return [u for u in F.subformulas(t) if type(u) is Const or type(u) is Var]


def names(t: LTerm) -> set[str]:
    """The names of t's free variables and constants: the names a new
    binder must avoid to be read unambiguously."""
    return {u.name for u in _leaves(t)}


def _fresh(base: str, avoid: set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# Index operations and the single-step reducer.  The index operations
# skip each subterm in which no index they act on is free.


def _shift(d: LTerm, by: int, cutoff: int = 0) -> LTerm:
    if d._loose <= cutoff:
        return d
    if type(d) is BVar:
        return BVar(d.idx + by, d.ty)
    if type(d) is Abs:
        return _rebind(d, _shift(d.scope, by, cutoff + 1))
    return App(_shift(d.fun, by, cutoff), _shift(d.arg, by, cutoff))


def _subst_db(d: LTerm, idx: int, s: LTerm) -> LTerm:
    if d._loose <= idx:
        return d
    if type(d) is BVar:
        return _shift(s, idx) if d.idx == idx else BVar(d.idx - 1, d.ty)
    if type(d) is Abs:
        return _rebind(d, _subst_db(d.scope, idx + 1, s))
    return App(_subst_db(d.fun, idx, s), _subst_db(d.arg, idx, s))


def _uses_idx(d: LTerm, idx: int) -> bool:
    if d._loose <= idx:
        return False
    if type(d) is BVar:
        return d.idx == idx
    if type(d) is Abs:
        return _uses_idx(d.scope, idx + 1)
    return _uses_idx(d.fun, idx) or _uses_idx(d.arg, idx)


def _eta_redex(b: LTerm) -> LTerm | None:
    """M, shifted out of its binder, if that binder's scope b is M 0 with
    index 0 not free in M."""
    if type(b) is App and type(b.arg) is BVar and b.arg.idx == 0 and not _uses_idx(b.fun, 0):
        return _shift(b.fun, -1)
    return None


def _beta_root(d: LTerm) -> LTerm | None:
    return _subst_db(d.fun.scope, 0, d.arg) if type(d) is App and type(d.fun) is Abs else None


def _eta_root(d: LTerm) -> LTerm | None:
    return _eta_redex(d.scope) if type(d) is Abs else None


def _step(d: LTerm, root, inner_first: bool, done: set) -> LTerm | None:
    """One step at the first place where root(u) reduces a subterm u, or
    None: outermost first and functions before arguments, or, with
    inner_first, innermost first and arguments before functions.  done
    holds the subterms found to have no such place, which are skipped
    and are added to; nodes are hash-consed, so that is a property of
    the node."""
    if d in done:
        return None
    if not inner_first and (r := root(d)) is not None:
        return r
    if type(d) is Abs:
        r = _step(d.scope, root, inner_first, done)
        if r is not None:
            return _rebind(d, r)
    elif type(d) is App:
        for i in ((1, 0) if inner_first else (0, 1)):
            r = _step((d.fun, d.arg)[i], root, inner_first, done)
            if r is not None:
                return App(d.fun, r) if i else App(r, d.arg)
    if inner_first and (r := root(d)) is not None:
        return r
    done.add(d)
    return None


def _name(d: LTerm, taken: set[str], depth: int, memo: dict) -> LTerm:
    """d with each binder at depth k named v<k>, primed while the name is
    in taken; memo holds the results known so far, by (node, depth)."""
    if type(d) is not App and type(d) is not Abs:
        return d
    r = memo.get((d, depth))
    if r is None:
        if type(d) is App:
            r = App(_name(d.fun, taken, depth, memo), _name(d.arg, taken, depth, memo))
        else:
            r = _rebind(d, _name(d.scope, taken, depth + 1, memo), _fresh(f"v{depth}", taken))
        memo[d, depth] = r
    return r


# Normalization by evaluation.  A value is a closure (a lambda's scope
# with the values of its free de Bruijn indices, innermost first, as a
# cons list) or a neutral term: a head applied to argument values.  The
# head of a neutral is a Const, a Var, or the (de Bruijn level, type) of
# a variable bound during read-back.  Values are built by `_tuple`, the
# tuple constructor, which skips the named tuples' Python-level __new__.


_Clo = namedtuple("_Clo", "var_ty body env")
_Neu = namedtuple("_Neu", "head args")
_tuple = tuple.__new__


def _eval(d: LTerm, env):
    while type(d) is App:
        f = _eval(d.fun, env)
        a = _eval(d.arg, env)
        if type(f) is _Neu:
            return _tuple(_Neu, (f.head, f.args + (a,)))
        d, env = f.body, (a, f.env)  # enter the closure's body in place
    if type(d) is BVar:
        for _ in range(d.idx):
            env = env[1]
        return env[0]
    if type(d) is Abs:
        return _tuple(_Clo, (d.var_ty, d.scope, env))
    return _tuple(_Neu, (d, ()))


def _quote(v, lvl: int, taken: set[str]) -> LTerm:
    """Read a value back as a beta-eta normal term under lvl binders,
    naming each binder by its depth and eta-contracting it as soon as its
    body is built.  A run of nested lambdas is read back in one frame."""
    var_tys = []
    while type(v) is _Clo:
        var_tys.append(v.var_ty)
        v = _eval(v.body, (_tuple(_Neu, ((lvl, v.var_ty), ())), v.env))
        lvl += 1
    head = v.head
    d = BVar(lvl - head[0] - 1, head[1]) if type(head) is tuple else head
    for a in v.args:
        d = App(d, _quote(a, lvl, taken))
    for var_ty in reversed(var_tys):
        lvl -= 1
        fun = _eta_redex(d)
        if fun is None:
            d = _new(Abs, _fresh(f"v{lvl}", taken), var_ty, d)
        else:
            d = _name(fun, taken, lvl, {})  # its binders were named a level deeper
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
    - beta-eta normal forms are unique (Church-Rosser) and bound
      variables are indices, so the result is the stepper's
      (`normalize_steps`, either strategy) up to binder names, and both
      name a binder by its depth the same way, avoiding the input's
      names().
    """
    type_of(t)
    return _quote(_eval(t, ()), 0, names(t))


def normalize_steps(t: LTerm, strategy: str = "lo") -> list[LTerm]:
    """Every intermediate term of the reduction, starting with t itself.

    Consecutive terms share all but the path to the step's place, so the
    naming is memoized over the whole reduction, and each phase (beta,
    then eta) skips the subterms it found without a redex."""
    if strategy not in ("lo", "ri"):
        raise LamError(f"unknown strategy {strategy!r}")
    type_of(t)
    taken = names(t)
    memo: dict = {}
    steps = [_name(t, taken, 0, memo)]
    # eta after beta exhaustion: an eta step keeps a term beta-normal
    for root, inner_first in ((_beta_root, strategy == "ri"), (_eta_root, False)):
        done: set = set()
        while (r := _step(t, root, inner_first, done)) is not None:
            t = r
            steps.append(_name(t, taken, 0, memo))
    return steps


# ---------------------------------------------------------------------------
# Printing

_INFIX = {"or": "∨", "and": "∧", "imp": "→", "iff": "↔"}
_SYMBOL = {**_INFIX, "not": "¬", "Pi": "Π"}


# `show` keeps no text longer than this: such texts belong to the few
# nodes near the root of a reduction step, which the next step rebuilds,
# and keeping them all would cost memory quadratic in the term's depth
_KEPT_TEXT = 256


def show(t: LTerm, types: bool = False, memo: dict | None = None) -> str:
    """Debug printer; types=True annotates binders and standalone
    constants.  An index pointing out of t prints as #<index>.

    A subterm's text is fixed by its node, its context and the names of
    the binders its loose indices point to, so one walk on an explicit
    stack prints each such triple once, into memo (texts of at most
    `_KEPT_TEXT` characters).  Calls with the same types may share a
    memo: the steps of a reduction, which share all but a path, then
    print little more than that path."""
    memo = {} if memo is None else memo
    out: list[str] = []  # the texts of the operands printed so far
    # a term in its context (0 = top, 1 = operand of an application, 2 =
    # function position) under the names of its binders, innermost
    # first; or the memo key of a term whose operands' texts are at the
    # end of out, with the texts before, between (None if one operand)
    # and after them
    stack: list = [(t, 0, ())]
    while stack:
        item = stack.pop()
        if len(item) == 4:
            key, pre, mid, post = item
            s = out.pop()
            if mid is not None:
                s = out.pop() + mid + s
            s = pre + s + post
            if len(s) <= _KEPT_TEXT:
                memo[key] = s
            out.append(s)
            continue
        u, ctx, bound = item
        if type(u) is Var:
            out.append(u.name)
            continue
        if type(u) is BVar:
            out.append(bound[u.idx] if u.idx < len(bound) else f"#{u.idx - len(bound)}")
            continue
        if type(u) is Const:
            sym = _SYMBOL.get(u.name, u.name)
            out.append(f"{sym}:{u.ty}" if types and ctx == 0 else sym)
            continue
        if type(u) is not Abs and type(u) is not App:
            raise LamError(f"unknown term {u!r}")
        key = (u, ctx, bound[:u._loose])
        s = memo.get(key)
        if s is not None:
            out.append(s)
            continue
        lp, rp = ("(", ")") if ctx else ("", "")
        if type(u) is Abs:
            ann = f"{u.var}:{u.var_ty}" if types else u.var
            stack += ((key, f"{lp}λ{ann}. ", None, rp), (u.scope, 0, (u.var,) + bound))
            continue
        # binary connectives print infix, negation prefix
        f = u.fun
        if type(f) is App and type(f.fun) is Const and f.fun.name in _INFIX:
            stack += ((key, lp, f" {_INFIX[f.fun.name]} ", rp), (u.arg, 1, bound),
                      (f.arg, 1, bound))
        elif type(f) is Const and f.name == "not":
            stack += ((key, "¬", None, ""), (u.arg, 1, bound))
        elif type(f) is Const and f.name == "Pi" and type(u.arg) is Abs:
            a = u.arg
            ann = f"{a.var}:{a.var_ty}" if types else a.var
            stack += ((key, f"Π(λ{ann}. ", None, ")"), (a.scope, 0, (a.var,) + bound))
        else:
            lp, rp = ("(", ")") if ctx == 1 else ("", "")
            stack += ((key, lp, " ", rp), (u.arg, 1, bound), (f, 2, bound))
    return out[0]
