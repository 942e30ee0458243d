"""A small DPLL solver for the propositional side of complete mode.

Clauses are lists of nonzero ints: ``v`` is variable v >= 1 true and
``-v`` false.  ``bank_clauses`` gives the Tseitin encoding of a
``semantics.CompiledBank`` op array, with variable s + 1 standing for
slot s: every connective op is tied to its children by the clauses of
``TSEITIN``, while atom and modal ops stay free variables.  Once the
atoms and modal ops are assigned, unit propagation fixes every other
slot, so a model is decided by those variables alone.

The solver propagates with two watched literals and backtracks
chronologically over a fixed variable order, trying false before true
and learning nothing.  Its first model is therefore the least one in
that order: every model whose assignment to order[:i] is smaller is
ruled out before the search reaches position i, because unit
propagation only assigns values that every model extending the current
decisions shares.  ``solve`` returns that model read as a binary number
whose most significant bit is order[0].
"""

from __future__ import annotations

from itertools import chain

# Clauses tying an op's literal o to its children's literals a and b.
TSEITIN = {
    "false": lambda o, a, b: [[-o]],
    "not": lambda o, a, b: [[-o, -a], [o, a]],
    "and": lambda o, a, b: [[-o, a], [-o, b], [o, -a, -b]],
    "or": lambda o, a, b: [[o, -a], [o, -b], [-o, a, b]],
    "imp": lambda o, a, b: [[o, a], [o, -b], [-o, -a, b]],
    "iff": lambda o, a, b: [[-o, -a, b], [-o, a, -b], [o, a, b], [o, -a, -b]],
}


def bank_clauses(ops):
    """Tseitin clauses of a CompiledBank op array (slot s is variable s + 1)."""
    for s, op in enumerate(ops):
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
    """

    def __init__(self, n: int, clauses=()):
        self.n = n
        self.val = [0] * (2 * n + 1)
        self.watch: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.units: list[int] = []
        for clause in clauses:
            c = list(dict.fromkeys(clause))  # a copy: propagation reorders it
            if any(-l in c for l in c):
                continue
            if len(c) == 1:
                self.units.append(c[0])
            else:
                self.watch[c[0]].append(c)
                self.watch[c[1]].append(c)

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

        After each model the search backtracks to the deepest decision
        among order[:keep] (default: all of order) and flips it, which is
        what a clause blocking that model's assignment to order[:keep]
        would make chronological backtracking do; so the next model is
        the least one that differs from it there.  Variables outside
        ``order`` are decided last, in index order.  Each assigned
        literal costs one budget unit.
        """
        val = self.val
        keep = len(order) if keep is None else keep
        trail: list[int] = []
        seq = list(order)
        chosen = set(seq)
        seq += [v for v in range(1, self.n + 1) if v not in chosen]
        try:
            for lit in chain(self.units, assume):
                if val[lit] < 0:
                    return
                if not val[lit]:
                    val[lit], val[-lit] = 1, -1
                    trail.append(lit)
            if not self._propagate(trail, 0):
                return
            budget.tick(len(trail))
            stack: list[tuple[int, int, int, bool]] = []  # (trail length, lit, seq index, flipped)
            i, ok, limit = 0, True, len(seq)
            while True:
                if ok:
                    while i < len(seq) and val[seq[i]]:
                        i += 1
                    if i == len(seq):
                        model = 0
                        for v in order:
                            model = model << 1 | (val[v] > 0)
                        yield model
                        ok, limit = False, keep
                if ok:  # decide the next open variable, false first
                    start, lit, flipped = len(trail), -seq[i], False
                else:  # flip the deepest decision not yet flipped
                    while stack and (stack[-1][3] or stack[-1][2] >= limit):
                        stack.pop()
                    if not stack:
                        return
                    start, lit, i, _ = stack.pop()
                    for l in trail[start:]:
                        val[l] = val[-l] = 0
                    del trail[start:]
                    lit, flipped = -lit, True
                stack.append((start, lit, i, flipped))
                val[lit], val[-lit] = 1, -1
                trail.append(lit)
                ok, limit = self._propagate(trail, start), len(seq)
                budget.tick(len(trail) - start)
        finally:
            for l in trail:
                val[l] = val[-l] = 0
