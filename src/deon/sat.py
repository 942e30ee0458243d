"""A small DPLL solver for the propositional side of complete mode.

Clauses are lists of nonzero ints: ``v`` is variable v >= 1 true and
``-v`` false.  ``bank_clauses`` gives the Tseitin encoding of a
``semantics.CompiledBank`` op array, with variable s + 1 standing for
slot s: every connective op is tied to its children by the clauses of
``TSEITIN``, while atom and modal ops stay free variables.  Once the
atoms and modal ops are assigned, unit propagation fixes every other
slot, so a model is decided by those variables alone.

The solver propagates with two watched literals and backtracks
chronologically over the variable order a query gives, deciding no
other variable (the cone-of-influence reduction of model checking),
trying false before true and learning nothing.  Its first model is
therefore the least one in that order: every model whose assignment to
order[:i] is smaller is ruled out before the search reaches position i,
because unit propagation only assigns values that every model extending
the current decisions shares.  ``solve`` returns that model read as a
binary number whose most significant bit is order[0].  A caller may add
clauses between queries (``add``), may ask whether propagation alone
refutes some assumptions (``conflicts``), and may query from the
assignment an enumeration (``models``) waits at.
"""

from __future__ import annotations


# Clauses tying an op's literal o to its children's literals a and b.
TSEITIN = {
    "false": lambda o, a, b: [[-o]],
    "not": lambda o, a, b: [[-o, -a], [o, a]],
    "and": lambda o, a, b: [[-o, a], [-o, b], [o, -a, -b]],
    "or": lambda o, a, b: [[o, -a], [o, -b], [-o, a, b]],
    "imp": lambda o, a, b: [[o, a], [o, -b], [-o, -a, b]],
    "iff": lambda o, a, b: [[-o, -a, b], [-o, a, -b], [o, a, b], [o, -a, -b]],
}


def bank_clauses(ops, slots=None):
    """Tseitin clauses of a CompiledBank op array (slot s is variable
    s + 1), of the given slots only when they are given."""
    for s in range(len(ops)) if slots is None else slots:
        op = ops[s]
        rule = TSEITIN.get(op[0])
        if rule is not None:
            a, b = ([c + 1 for c in op[1:]] + [0, 0])[:2]
            yield from rule(s + 1, a, b)


class Solver:
    """Non-empty clauses over variables 1..n, decided by ``solve``.

    ``val[l]`` is 1 when literal l is true, -1 when false, 0 when open;
    the list has 2n + 1 entries, so ``val[-l]`` is a distinct entry
    (Python's negative indexing) and both polarities share one list.
    ``watch[l]`` holds the clauses watching l, visited when l turns false.
    The unit clauses are propagated once, into the root trail ``root``,
    which every query starts from and leaves in place; ``ok`` is False
    when that propagation already conflicts.  The root literals are
    charged to the budget of the first query that gets past its
    assumptions, and those ``add`` brings in to the next one.
    """

    def __init__(self, n: int, clauses=()):
        self.n = n
        self.val = [0] * (2 * n + 1)
        self.watch: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.units: list[int] = []
        self.root: list[int] = []
        self.paid = 0
        self._attach(clauses)
        self._settle()

    def _attach(self, clauses) -> None:
        units, watch = self.units, self.watch
        for clause in clauses:
            c = list(dict.fromkeys(clause))  # a copy: propagation reorders it
            if len(set(map(abs, c))) < len(c):  # holds both polarities of a variable
                continue
            if len(c) == 1:
                units.append(c[0])
            else:
                watch[c[0]].append(c)
                watch[c[1]].append(c)

    def _settle(self) -> None:
        """Propagate the unit clauses from an empty assignment into the
        root trail, so every clause's watches are consistent with it."""
        for l in self.root:
            self.val[l] = self.val[-l] = 0
        self.root, self.ok = [], True
        self.ok = self._assume(self.units, self.root)

    def add(self, clause) -> None:
        """Add a non-empty clause and settle the root trail again."""
        self._attach([clause])
        self._settle()

    def _propagate(self, trail: list[int], head: int) -> bool:
        """Unit propagation of trail[head:]; False on a conflict."""
        val, watch = self.val, self.watch
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            ws = watch[false_lit]
            i = 0
            while i < len(ws):
                c = ws[i]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if val[first] == 1:
                    i += 1
                    continue
                for j in range(2, len(c)):
                    if val[c[j]] != -1:  # move the watch to c[j]
                        c[1], c[j] = c[j], false_lit
                        watch[c[1]].append(c)
                        ws[i] = ws[-1]
                        ws.pop()
                        break
                else:
                    if val[first] == -1:
                        return False
                    val[first], val[-first] = 1, -1
                    trail.append(first)
                    i += 1
        return True

    def _assume(self, assume, trail: list[int]) -> bool:
        """Assign the assumption literals on top of the current
        assignment, recording them in trail, and propagate them; False
        on a conflict."""
        if not self.ok:
            return False
        val = self.val
        for lit in assume:
            if val[lit] < 0:
                return False
            if not val[lit]:
                val[lit], val[-lit] = 1, -1
                trail.append(lit)
        return self._propagate(trail, 0)

    def _charge(self, budget, n: int) -> None:
        """Charge n literals plus the root literals not yet paid for."""
        budget.tick(len(self.root) - self.paid + n)
        self.paid = len(self.root)

    def conflicts(self, assume, budget) -> bool:
        """Does unit propagation alone refute the assumptions?  True
        means there is no model; False decides nothing."""
        trail: list[int] = []
        try:
            refuted = not self._assume(assume, trail)
            self._charge(budget, len(trail))
            return refuted
        finally:
            for l in trail:
                self.val[l] = self.val[-l] = 0

    def solve(self, order, assume, budget) -> int | None:
        """The least model in ``order`` under the assumption literals,
        read as an integer with order[0] most significant; None when
        there is none."""
        found = self.models(order, assume, budget)
        try:
            return next(found, None)
        finally:
            found.close()

    def models(self, order, assume, budget, keep=None):
        """Yield the models in increasing order, as ``solve`` reads them.

        Each model is yielded with every decision after order[:keep]
        (default: all of order) undone: the assignment is the root trail,
        the assumptions and the decisions on order[:keep], closed under
        unit propagation.  Queries (``solve``, ``conflicts``) may run on
        it while the generator waits, and leave it in place; ``add`` may
        not.  On resume the search flips the deepest decision not yet
        flipped, which is what a clause blocking that model's assignment
        to order[:keep] would make chronological backtracking do; so the
        next model is the least one that differs from it there.
        Only ``order`` is decided: it must hold every free variable
        (atom or modal op) the root trail leaves open in the cone of the
        root units and the assumptions.  Propagation fixes the rest of
        the cone, and any other clause is a Tseitin definition or has a
        literal on a variable nothing else constrains (SDL's reflexive
        selector), so the assignment extends to a model of all.  The
        order may leave out the cone of some root units that shares no
        open variable with the rest, when those units are known to be
        satisfiable together (``kb._entailed``): their model extends the
        assignment as well.  Each assigned literal costs one budget
        unit.  The assignment is back at the root trail when the
        generator finishes or is closed.
        """
        val = self.val
        keep = len(order) if keep is None else keep
        trail: list[int] = []

        def undo(start):
            for l in trail[start:]:
                val[l] = val[-l] = 0
            del trail[start:]

        try:
            if not self._assume(assume, trail):
                return
            self._charge(budget, len(trail))
            stack: list[tuple[int, int, int, bool]] = []  # (trail length, lit, i, flipped)
            i, ok = 0, True
            while True:
                if ok:
                    while i < len(order) and val[order[i]]:
                        i += 1
                    if i == len(order):
                        model = 0
                        for v in order:
                            model = model << 1 | (val[v] > 0)
                        start = len(trail)
                        while stack and stack[-1][2] >= keep:
                            start = stack.pop()[0]
                        undo(start)
                        yield model
                        ok = False
                if ok:  # decide the next open variable, false first
                    start, lit, flipped = len(trail), -order[i], False
                else:  # flip the deepest decision not yet flipped
                    while stack and stack[-1][3]:
                        stack.pop()
                    if not stack:
                        return
                    start, lit, i, _ = stack.pop()
                    undo(start)
                    lit, flipped = -lit, True
                stack.append((start, lit, i, flipped))
                val[lit], val[-lit] = 1, -1
                trail.append(lit)
                ok = self._propagate(trail, start)
                budget.tick(len(trail) - start)
        finally:
            undo(0)
