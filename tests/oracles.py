"""Reference implementations the program is checked against: the
optimality rule, validity and frame conditions read off a model, alpha
equality and named capture-avoiding substitution of λ-terms, the λ
reduction sequence searched and named afresh at every step, the names
a λ-term's binders avoid read off the named term, schema instantiation
of formulas, the compiler that desugars first and makes one op per
node, the bounded scan one candidate at a time, SDL type
elimination over explicit 2^(k+p)-bit type masks, the front-to-back
deletion shrink of an unsatisfiable set, the recursive-descent formula
parser, signature inference scanning each group to its ")", the λ-term
printer by recursion, and the first-order and TPTP printer walking the
formula tree."""

from __future__ import annotations

from typing import Callable, NamedTuple

from deon import embed as E
from deon import formula as F
from deon import lam as L
from deon import search as SE
from deon import semantics as S


def opt(model, worlds) -> frozenset[int]:
    """Optimal members of a world set: those at least as good as all of it."""
    s = set(worlds)
    return frozenset(w for w in s if all(model.rows[w] >> u & 1 for u in s))


def valid_in_model(model, f: F.Formula, logic: str) -> bool:
    """True iff f holds at every world of the model."""
    return S.Evaluator(model, logic).valid(f)


def satisfies_frame(model, cond: S.FrameConditions) -> bool:
    return all(check.holds for check in S.check_frame(model, cond))


def alpha_eq(a: L.LTerm, b: L.LTerm) -> bool:
    """Equality up to renaming of bound variables: a bound variable is
    compared by the depth of its binder, a free one by name and type."""
    def go(x, y, bound_x: tuple[str, ...], bound_y: tuple[str, ...]) -> bool:
        if isinstance(x, L.Var) and isinstance(y, L.Var):
            i = bound_x.index(x.name) if x.name in bound_x else None
            j = bound_y.index(y.name) if y.name in bound_y else None
            return i == j and (i is not None or (x.name, x.ty) == (y.name, y.ty))
        if isinstance(x, L.Abs) and isinstance(y, L.Abs):
            return x.var_ty == y.var_ty and go(x.body, y.body, (x.var,) + bound_x,
                                               (y.var,) + bound_y)
        if isinstance(x, L.App) and isinstance(y, L.App):
            return go(x.fun, y.fun, bound_x, bound_y) and go(x.arg, y.arg, bound_x, bound_y)
        return isinstance(x, L.Const) and x == y

    return go(a, b, (), ())


def free_vars(t: L.LTerm) -> frozenset[str]:
    if isinstance(t, L.Var):
        return frozenset({t.name})
    if isinstance(t, L.Const):
        return frozenset()
    if isinstance(t, L.Abs):
        return free_vars(t.body) - {t.var}
    return free_vars(t.fun) | free_vars(t.arg)


def names(t: L.LTerm) -> set[str]:
    """`lam.names` read off the named term: the constants, and the
    variables with no binder of their name above them."""
    def go(u: L.LTerm, bound: frozenset[str]) -> set[str]:
        if isinstance(u, L.Const) or isinstance(u, L.Var) and u.name not in bound:
            return {u.name}
        if isinstance(u, L.Abs):
            return go(u.body, bound | {u.var})
        if isinstance(u, L.App):
            return go(u.fun, bound) | go(u.arg, bound)
        return set()

    return go(t, frozenset())


def substitute(t: L.LTerm, x: L.Var, s: L.LTerm) -> L.LTerm:
    """Capture-avoiding [s/x]t on named terms; binders of t are renamed
    away from s."""
    if L.type_of(s) != x.ty:
        raise L.LamTypeError(f"substituting {L.type_of(s)} term for {x.ty} variable")
    fv_s = free_vars(s)

    def fresh(name: str, avoid: frozenset[str]) -> str:
        while name in avoid:
            name += "'"
        return name

    def go(u: L.LTerm, bound: frozenset[str]) -> L.LTerm:
        if isinstance(u, L.Var):
            return s if u.name == x.name else u
        if isinstance(u, L.Const):
            return u
        if isinstance(u, L.App):
            return L.App(go(u.fun, bound), go(u.arg, bound))
        if u.var == x.name:
            return u
        if u.var in fv_s and x.name in free_vars(u.body):
            new = fresh(u.var, fv_s | free_vars(u.body) | bound)
            # renaming is itself a substitution, so it avoids capture too
            body = substitute(u.body, L.Var(u.var, u.var_ty), L.Var(new, u.var_ty))
            return L.Abs(new, u.var_ty, go(body, bound | {new}))
        return L.Abs(u.var, u.var_ty, go(u.body, bound | {u.var}))

    return go(t, frozenset())


def normalize_steps(t: L.LTerm, strategy: str = "lo") -> list[L.LTerm]:
    """The reduction sequence of `lam.normalize_steps`, found the plain
    way: every step searches the whole term for the first redex and
    names the whole result afresh."""

    def step(d: L.LTerm, root, inner_first: bool) -> L.LTerm | None:
        if not inner_first and (r := root(d)) is not None:
            return r
        if type(d) is L.Abs:
            r = step(d.scope, root, inner_first)
            if r is not None:
                return L._rebind(d, r)
        elif type(d) is L.App:
            for i in ((1, 0) if inner_first else (0, 1)):
                r = step((d.fun, d.arg)[i], root, inner_first)
                if r is not None:
                    return L.App(d.fun, r) if i else L.App(r, d.arg)
        return root(d) if inner_first else None

    def name(d: L.LTerm, depth: int = 0) -> L.LTerm:
        if type(d) is L.App:
            return L.App(name(d.fun, depth), name(d.arg, depth))
        if type(d) is L.Abs:
            return L._rebind(d, name(d.scope, depth + 1), L._fresh(f"v{depth}", taken))
        return d

    L.type_of(t)
    taken = L.names(t)
    steps = [name(t)]
    for root, inner_first in ((L._beta_root, strategy == "ri"), (L._eta_root, False)):
        while (r := step(t, root, inner_first)) is not None:
            t = r
            steps.append(name(t))
    return steps


def show(t: L.LTerm, types: bool = False) -> str:
    """`lam.show` by recursion over the term, with no memo."""

    def go(u: L.LTerm, ctx: int, bound: tuple[str, ...]) -> str:
        # ctx: 0 = top, 1 = operand of an application, 2 = function position
        if type(u) is L.Var:
            return u.name
        if type(u) is L.BVar:
            return bound[u.idx] if u.idx < len(bound) else f"#{u.idx - len(bound)}"
        if type(u) is L.Const:
            sym = L._SYMBOL.get(u.name, u.name)
            return f"{sym}:{u.ty}" if types and ctx == 0 else sym
        if type(u) is L.Abs:
            ann = f"{u.var}:{u.var_ty}" if types else u.var
            s = f"λ{ann}. {go(u.scope, 0, (u.var,) + bound)}"
            return f"({s})" if ctx else s
        f = u.fun
        if type(f) is L.App and type(f.fun) is L.Const and f.fun.name in L._INFIX:
            s = f"{go(f.arg, 1, bound)} {L._INFIX[f.fun.name]} {go(u.arg, 1, bound)}"
            return f"({s})" if ctx else s
        if type(f) is L.Const and f.name == "not":
            return f"¬{go(u.arg, 1, bound)}"
        if type(f) is L.Const and f.name == "Pi" and type(u.arg) is L.Abs:
            a = u.arg
            ann = f"{a.var}:{a.var_ty}" if types else a.var
            return f"Π(λ{ann}. {go(a.scope, 0, (a.var,) + bound)})"
        s = f"{go(f, 2, bound)} {go(u.arg, 1, bound)}"
        return f"({s})" if ctx == 1 else s

    return go(t, 0, ())


class _Syntax(NamedTuple):
    """How `fo_print` writes names, atoms and each connective."""

    pred: Callable[[str], str]        # predicate and constant names
    var: Callable[[str], str]
    comma: str
    ops: dict                         # class -> its text; {v}, {s}: variable, sort
    close: str                        # ends a quantifier; if nonempty, the
                                      # body is parenthesized unless atomic


FO_SHOW = _Syntax(str, str, ", ", {E.FONot: "¬", E.FOAnd: " ∧ ", E.FOOr: " ∨ ",
                                   E.FOImp: " → ", E.FOIff: " ↔ ",
                                   E.FOForall: "∀{v}:{s}. ", E.FOExists: "∃{v}:{s}. "}, "")
FO_TPTP = _Syntax(E._tptp_pred, E._tptp_var, ",",
                  {E.FONot: "~ ", E.FOAnd: " & ", E.FOOr: " | ", E.FOImp: " => ",
                   E.FOIff: " <=> ", E.FOForall: "! [{v}] : ({s}({v}) => ",
                   E.FOExists: "? [{v}] : ({s}({v}) & "}, ")")


def fo_print(f: E.FOFormula, syn: _Syntax, sorts: set[str] | None = None) -> str:
    """`embed.print_program`'s text of f in the given syntax, by one
    explicit-stack walk of the tree whose entries are text still to write
    or formulas still to print; adds each quantifier's sort to sorts."""

    def operand(g: E.FOFormula) -> tuple:
        return (g,) if type(g) is E.FOAtom else (")", g, "(")

    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is str:
            out.append(g)
        elif t is E.FOAtom:
            if g.pred == F.RESERVED_ATOM:
                out.append("$false")
            elif not g.args:
                out.append(syn.pred(g.pred))
            else:
                args = syn.comma.join(syn.var(a.name) if type(a) is E.FOVar
                                      else syn.pred(a.name) for a in g.args)
                out.append(f"{syn.pred(g.pred)}({args})")
        elif t is E.FONot:
            out.append(syn.ops[t])
            stack += operand(g.sub)
        elif t in (E.FOForall, E.FOExists):
            out.append(syn.ops[t].format(v=syn.var(g.var), s=g.sort))
            stack.append(syn.close)
            stack += operand(g.body) if syn.close else (g.body,)
            if sorts is not None:
                sorts.add(g.sort)
        else:
            stack += operand(g.right)
            stack.append(syn.ops[t])
            stack += operand(g.left)
    return "".join(out)


def emit_tptp(f: E.FOFormula, name: str, role: str, logic: str | None = None) -> str:
    """`embed.emit_tptp` over `fo_print`."""
    sorts: set[str] = set()
    text = fo_print(f, FO_TPTP, sorts)
    lines = []
    if E.WORLD in sorts or logic == "sdl":
        lines.append("fof(world_nonempty, axiom, ? [W] : world(W)).")
    if E.INDIV in sorts:
        lines.append("fof(indiv_nonempty, axiom, ? [X] : indiv(X)).")
    if logic == "sdl":
        lines.append("fof(seriality, axiom, ! [W] : (world(W) => "
                     "(? [V] : (world(V) & r(W,V))))).")
    lines.append(f"fof({name}, {role}, {text}).")
    return "\n".join(lines) + "\n"


def instantiate(schema: F.Formula, mapping) -> F.Formula:
    """Replace arity-0 atoms named in mapping by whole formulas."""

    def visit(g: F.Formula, kids: list[F.Formula]) -> F.Formula:
        if isinstance(g, F.Atom):
            return mapping.get(g.pred, g) if not g.args else g
        if isinstance(g, (F.Forall, F.Exists)):
            return type(g)(g.var, *kids)
        return type(g)(*kids)

    return F.fold(schema, visit)


def desugared_bank(fs, logic: str) -> tuple:
    """(ops, roots, atoms, modal) as semantics.CompiledBank names them,
    by desugaring first: each input rewritten by F.desugar, then one op
    per distinct node of the desugared formulas, in one post-order fold
    over them all."""
    tags = {F.Not: "not", F.And: "and", F.Or: "or", F.Implies: "imp", F.Iff: "iff"}
    tags.update({F.ObligM: "boxs"} if logic == "sdl" else {F.Box: "boxe", F.Oblig: "oblig"})
    ops: list[tuple] = []

    def visit(g: F.Formula, kids: list[int]) -> int:
        if isinstance(g, F.Atom):
            ops.append(("false",) if g.pred == F.RESERVED_ATOM else ("atom", S.atom_key(g)))
        else:
            ops.append((tags[type(g)], *kids))
        return len(ops) - 1

    memo: dict[F.Formula, int] = {}
    roots = tuple(F.fold(F.desugar(f, logic), visit, memo) for f in fs)
    atoms = tuple(sorted({op[1] for op in ops if op[0] == "atom"}))
    ops = [("atom", atoms.index(op[1])) if op[0] == "atom" else op for op in ops]
    modal = tuple(i for i, op in enumerate(ops) if op[0] in ("boxs", "boxe", "oblig"))
    return tuple(ops), roots, atoms, modal


def sequential_scan(valid_fs, falsify, cfg, budget, max_n, frame_mode="require"):
    """search._bounded_scan one candidate at a time: every valuation of
    each canonical relation in ascending order, charged before it runs
    through the compiled bank on its own; the first canonical candidate
    that passes is the hit.  Returns (model, world) or None."""
    bank = S.CompiledBank(list(valid_fs) + ([falsify] if falsify is not None else []),
                          cfg.logic)
    n_valid = len(valid_fs)
    k = len(bank.atoms)
    cost = len(bank.ops) if cfg.complete else 1
    try:
        for n in range(1, max_n + 1):
            full = (1 << n) - 1
            for rows, stab in SE._canonical_relations(n, cfg, budget, frame_mode):
                for vbits in range(1 << (k * n)):
                    budget.tick(cost)
                    vals = tuple((vbits >> (i * n)) & full for i in range(k))
                    if not SE._val_canonical(vals, stab):
                        continue
                    out = bank.run(n, rows, vals)
                    if not all(out[r] == full for r in bank.roots[:n_valid]):
                        continue
                    world = None
                    if falsify is not None:
                        false_at = ~out[bank.roots[n_valid]] & full
                        if not false_at:
                            continue
                        world = (false_at & -false_at).bit_length() - 1
                    return SE._model(cfg.logic, n, rows, bank.atoms, vals), world
    except SE.BudgetExceeded:
        if cfg.complete:
            return None
        raise
    return None


def bit_mask(i: int, width: int) -> int:
    """Mask over worlds 0..width-1 selecting those whose index has bit i
    set; with width 2^k and i < k this is atom i's column of the truth
    table whose worlds are the k-bit assignments."""
    step = 1 << (i + 1)
    m = ((1 << (1 << i)) - 1) << (1 << i)
    while step < width:
        m |= m << step
        step <<= 1
    return m


def mask_exact_sdl(globals_, locals_, budget):
    """Type elimination.  A type is a (k + p)-bit index: the truth of the
    k atoms, then of the p O-subformulas in pre-order; the compiled
    inputs run once over all 2^(k+p) types as worlds, with atom i bound
    to bit i and O-subformula j to bit k + j.  Returns (model,
    local_worlds) or None, as search._exact_sdl does."""
    bank = S.CompiledBank(globals_ + locals_, "sdl")
    forms = [F.desugar(f, "sdl") for f in bank.formulas]
    sigma = dict.fromkeys(g for f in forms for g in F.subformulas(f))
    boxes = [f for f in sigma if isinstance(f, F.ObligM)]
    index: dict[F.Formula, int] = {}  # the compiler's slots: one per node, post-order
    for f in forms:
        F.fold(f, lambda g, kids: len(index), index)
    k, p = len(bank.atoms), len(boxes)
    n_types = 1 << (k + p)
    budget.tick(max(1, ((len(sigma) + (1 << p)) * n_types) >> 6))  # before any mask
    full = (1 << n_types) - 1

    box_bit = {index[b]: k + j for j, b in enumerate(boxes)}
    tm = bank.run(n_types, (), [bit_mask(i, n_types) for i in range(k)],
                  [bit_mask(box_bit[s], n_types) for s in bank.modal])

    survivors = full
    for g in bank.roots[:len(globals_)]:
        survivors &= tm[g]
    # types sharing a box-bit pattern b occupy the contiguous block
    # [b*2^k, (b+1)*2^k)
    block = (1 << (1 << k)) - 1
    pattern_mask = [block << (b << k) for b in range(1 << p)]
    body_mask = [tm[index[box.sub]] for box in boxes]

    while survivors:
        budget.tick(max(1, ((1 << p) * n_types) >> 6))
        keep = 0
        for b in range(1 << p):
            if not survivors & pattern_mask[b]:
                continue
            succ = survivors
            for j in range(p):
                if b >> j & 1:
                    succ &= body_mask[j]
            if not succ:
                continue
            if any(not (succ & ~body_mask[j]) for j in range(p) if not b >> j & 1):
                continue
            keep |= pattern_mask[b]
        new = survivors & keep
        if new == survivors:
            break
        survivors = new
    if not survivors:
        return None
    local_types = []
    for f in bank.roots[len(globals_):]:
        hits = survivors & tm[f]
        if not hits:
            return None
        local_types.append((hits & -hits).bit_length() - 1)

    # closure construction: start from the needed types, add successors
    start = list(dict.fromkeys(local_types)) or [(survivors & -survivors).bit_length() - 1]
    included: dict[int, None] = dict.fromkeys(start)
    queue = list(included)
    while queue:
        t = queue.pop(0)
        b = t >> k
        succ = survivors
        for j in range(p):
            if b >> j & 1:
                succ &= body_mask[j]
        picks = []
        for j in range(p):
            if not b >> j & 1:
                need = succ & ~body_mask[j]
                hit = next((u for u in included if need >> u & 1), None)
                if hit is None:
                    hit = (need & -need).bit_length() - 1
                picks.append(hit)
        if not picks:
            hit = next((u for u in included if succ >> u & 1), None)
            if hit is None:
                hit = (succ & -succ).bit_length() - 1
            picks.append(hit)
        for u in picks:
            if u not in included:
                included[u] = None
                queue.append(u)
    world_type = sorted(included)
    index = {t: w for w, t in enumerate(world_type)}
    n = len(world_type)
    relation = []
    for t in world_type:
        b = t >> k
        for u in world_type:
            if all(body_mask[j] >> u & 1 for j in range(p) if b >> j & 1):
                relation.append((index[t], index[u]))
    valuation = {a: [index[t] for t in world_type if t >> i & 1]
                 for i, a in enumerate(bank.atoms)}
    domain = {c for _, args in bank.atoms for c in args}
    model = S.KripkeModel(n, relation, valuation, domain)
    local_worlds = [index[t] for t in local_types]
    return model, local_worlds


def deletion_mus(fs, cfg) -> list[int]:
    """Front-to-back deletion: drop each position whose removal leaves
    the set unsatisfiable; ascending positions of the core that is left.
    A set is unsatisfiable when the complete procedure finds no model,
    which is when find_model says DecidedUnsatisfiable (the canonical
    re-scan it adds changes only the witness); SDL asks the type masks
    above."""
    def unsat(positions) -> bool:
        sub, budget = [fs[j] for j in positions], SE._Budget(cfg.node_budget)
        if cfg.logic == "sdl":
            return mask_exact_sdl(sub, [], budget) is None
        return SE._exact_e(S.CompiledBank(sub, "e"), range(len(sub)), [], budget) is None

    core = list(range(len(fs)))
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1:]
        if trial and unsat(trial):
            core = trial
        else:
            i += 1
    return core


class RecursiveParser:
    """The five-level recursive-descent parser that `formula.parse`
    replaced, over the positioned tokens of `formula._tokenize`; an
    O{...} is parsed by sub-parsers over token slices."""

    def __init__(self, toks: list, sig: F.Signature, logic: str):
        self.toks = toks
        self.pos = 0
        self.sig = sig
        self.logic = logic
        self.scope: list[str] = []

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok=None) -> F.ParseError:
        tok = tok or self.peek()
        return F.ParseError(msg, tok.line, tok.col)

    def expect(self, text: str):
        t = self.peek()
        if t.text != text:
            raise self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def formula(self) -> F.Formula:
        return self.iff()

    def iff(self) -> F.Formula:
        f = self.imp()
        while self.peek().text == "<->":
            self.next()
            f = F.Iff(f, self.imp())
        return f

    def imp(self) -> F.Formula:
        f = self.or_()
        if self.peek().text == "->":
            self.next()
            return F.Implies(f, self.imp())
        return f

    def or_(self) -> F.Formula:
        f = self.and_()
        while self.peek().text == "|":
            self.next()
            f = F.Or(f, self.and_())
        return f

    def and_(self) -> F.Formula:
        f = self.unary()
        while self.peek().text == "&":
            self.next()
            f = F.And(f, self.unary())
        return f

    def _is_operator_ident(self, t) -> bool:
        if t.kind != "IDENT":
            return False
        if t.text in ("box", "dia"):
            return True
        if t.text in F.SOFT_KEYWORDS:
            declared = (t.text in self.sig.predicates or t.text in self.sig.constants
                        or t.text in self.scope)
            return not declared
        return False

    def unary(self) -> F.Formula:
        t = self.peek()
        if t.text == "~":
            self.next()
            return F.Not(self.unary())
        if self._is_operator_ident(t):
            self.next()
            if t.text == "O" and self.peek().text == "{":
                if self.logic == "sdl":
                    raise self.fail("dyadic obligation O{...} requires logic e", t)
                self.next()
                return self.dyadic_tail(t)
            sub = self.unary()
            if t.text == "box":
                return F.Box(sub)
            if t.text == "dia":
                return F.Dia(sub)
            if t.text == "O":
                return F.Oblig(sub, F.TOP) if self.logic == "e" else F.ObligM(sub)
            if t.text == "P":
                return F.Perm(sub)
            return F.Forb(sub)
        if t.kind == "IDENT" and t.text in ("forall", "exists"):
            self.next()
            v = self.peek()
            if v.kind != "IDENT" or v.text in F.RESERVED_WORDS:
                raise self.fail("expected a variable name after quantifier")
            self.next()
            self.expect(".")
            if v.text in self.scope:
                raise self.fail(f"variable {v.text!r} already bound", v)
            self.scope.append(v.text)
            body = self.formula()
            self.scope.pop()
            return F.Forall(v.text, body) if t.text == "forall" else F.Exists(v.text, body)
        if t.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t.kind == "IDENT":
            return self.atom()
        raise self.fail(f"expected a formula, found {t.text or 'end of input'!r}")

    def dyadic_tail(self, opener) -> F.Formula:
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
        body = self._sub_parse(self.toks[self.pos:pipe] + [F._Tok("EOF", "", eof.line, eof.col)])
        cond = self._sub_parse(self.toks[pipe + 1:close] + [F._Tok("EOF", "", eof.line, eof.col)])
        self.pos = close + 1
        return F.Oblig(body, cond)

    def _sub_parse(self, toks: list) -> F.Formula:
        sub = RecursiveParser(toks, self.sig, self.logic)
        sub.scope = list(self.scope)
        f = sub.formula()
        if sub.peek().kind != "EOF":
            raise sub.fail(f"unexpected trailing input {sub.peek().text!r}")
        return f

    def atom(self) -> F.Formula:
        t = self.next()
        name = t.text
        if name == "true":
            return F.TOP
        if name == "false":
            return F.BOT
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
            return F.Atom(name, tuple(args))
        if name in self.scope:
            raise self.fail(f"variable {name!r} used as a formula", t)
        if name not in self.sig.predicates:
            raise self.fail(f"unknown predicate {name!r}", t)
        if self.sig.predicates[name] != 0:
            raise self.fail(
                f"predicate {name!r} expects {self.sig.predicates[name]} argument(s), got 0", t
            )
        return F.Atom(name)

    def term(self) -> F.Term:
        t = self.peek()
        if t.kind != "IDENT" or t.text in F.RESERVED_WORDS:
            raise self.fail("expected a term")
        self.next()
        if t.text in self.scope:
            return F.Var(t.text)
        if t.text in self.sig.constants:
            return F.Const(t.text)
        raise self.fail(f"unknown constant {t.text!r}", t)


def recursive_parse(text: str, sig: F.Signature, logic: str = "e") -> F.Formula:
    """`formula.parse` as the recursive-descent parser does it."""
    if logic not in ("sdl", "e"):
        raise F.FormulaError(f"unknown logic {logic!r}")
    p = RecursiveParser(F._tokenize(text), sig, logic)
    f = p.formula()
    tok = p.peek()
    if tok.kind != "EOF":
        raise p.fail(f"unexpected trailing input {tok.text!r}")
    return f


def infer_signature(text: str) -> F.Signature:
    """`cli.infer_signature` read the plain way: each applied identifier
    scans its group token by token, counting parentheses, to its ")"."""
    toks = F.tokens(text)  # the token texts, "" last
    binders: set[str] = set()
    for i, t in enumerate(toks):
        if t in ("forall", "exists") and toks[i + 1][:1].isalpha():
            binders.add(toks[i + 1])
    predicates: dict[str, int] = {}
    constants: set[str] = set()
    skip = F.RESERVED_WORDS
    i = 0
    while i < len(toks):
        t = toks[i]
        if not t[:1].isalpha() or t in skip or t in binders:
            i += 1
            continue
        if toks[i + 1] == "(":
            j = i + 2
            depth = 1
            arity = 1
            args: list[str] = []
            while j < len(toks) and depth:
                tt = toks[j]
                if tt == "(":
                    depth += 1
                elif tt == ")":
                    depth -= 1
                elif tt == "," and depth == 1:
                    arity += 1
                elif tt[:1].isalpha() and depth == 1:
                    args.append(tt)
                j += 1
            # O, P and F before anything but a comma list of identifiers
            # are operators over a parenthesized formula, as
            # formula.print_formula writes them
            group = toks[i + 2:j - 1]
            if t in F.SOFT_KEYWORDS and not (len(group) % 2 and all(
                    tt[:1].isalpha() if n % 2 == 0 else tt == ","
                    for n, tt in enumerate(group))):
                i += 1
                continue
            old = predicates.get(t)
            if old is not None and old != arity:
                raise F.FormulaError(f"{t!r} used with arities {old} and {arity}")
            predicates[t] = arity
            for a in args:
                if a not in binders:
                    constants.add(a)
            i += 1  # argument identifiers are revisited but end up as constants
            continue
        if t in F.SOFT_KEYWORDS:
            i += 1
            continue
        if t not in constants:
            predicates.setdefault(t, 0)
        i += 1
    for c in constants:
        predicates.pop(c, None)
    return F.Signature(predicates, frozenset(constants))
