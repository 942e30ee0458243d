"""Per-layer spans recorded from the benchmark's own files.

``install`` replaces public functions of the deon modules with
wrappers that open a span on entry and close it on exit.  ``kb`` and
``search`` reach each other and ``formula``/``semantics`` through
module attributes (``SE.find_model``, ``F.subformulas``), so calls made
inside the program are caught too.  Recursive functions (``desugar``
and the ``Evaluator`` methods) are timed at their outermost call only.

Spans live in memory as parallel arrays (name, start, end, parent,
query id) and are written out once, at the end.  A span's self time is
its duration minus the time its direct children cover; single-threaded
calls nest properly, so that is the duration minus the children's
durations.  Counting work the wrappers do (sizes of results) runs
inside a child span named ``bench.count`` so that it is not charged to
any layer.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from time import perf_counter

TRACED = {
    "formula": ("parse", "ground", "desugar", "subformulas"),
    "kb": ("load_kb", "ground_kb", "consistency", "entailment", "compliance", "prop_entails"),
    "search": ("find_model", "entails", "decide_valid", "minimal_unsat_subset",
               "correspondence"),
    "semantics": ("check_frame",),
    "lam": ("normalize", "normalize_steps"),
    "embed": ("embed", "lower", "emit_tptp"),
}
RECURSIVE = {"formula.desugar"}
EVALUATOR_METHODS = ("__init__", "mask", "holds", "valid")
CLI = "cli.main"
EVALUATOR = "semantics.Evaluator"
COUNT = "bench.count"


def layer_names() -> list[str]:
    """Every span name reported as a layer, in report order."""
    names = [CLI]
    for mod, fns in TRACED.items():
        names += [f"{mod}.{fn}" for fn in fns]
        if mod == "semantics":
            names.append(EVALUATOR)
    return names


class Spans:
    """Columnar span store with an open-span stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.qid = array("l")
        self.stack: list[int] = []
        self.depth: dict[int, int] = {}
        self.query = -1
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth[i] = 0
        return i

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.qid.append(self.query)
        self.end.append(0.0)
        self.stack.append(idx)
        self.depth[nid] += 1
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        self.depth[self.name[idx]] -= 1

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Name -> (total self seconds, number of spans)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            acc = out.setdefault(self.names[self.name[i]], [0.0, 0])
            acc[0] += self.end[i] - self.start[i] - child[i]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def ancestors_named(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def count_nested(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` that run inside a span named ``outer``."""
        if inner not in self._ids or outer not in self._ids:
            return 0
        a, b = self._ids[inner], self._ids[outer]
        return sum(1 for i in range(len(self.start))
                   if self.name[i] == a and self.ancestors_named(i, b))

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.qid[i]}\n")


def _wrap(spans: Spans, name: str, fn, recursive: bool, count=None):
    nid = spans.name_id(name)
    cid = spans.name_id(COUNT)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recursive and spans.depth[nid]:
            return fn(*args, **kwargs)
        idx = spans.open(nid)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                c = spans.open(cid)
                try:
                    count(spans, result)
                finally:
                    spans.close(c)
            return result
        finally:
            spans.close(idx)

    return wrapper


def _fo_nodes(f) -> int:
    n, stack = 0, [f]
    while stack:
        g = stack.pop()
        n += 1
        for attr in ("sub", "left", "right", "body"):
            c = getattr(g, attr, None)
            if c is not None:
                stack.append(c)
    return n


COUNTERS = {
    "kb.ground_kb": lambda s, r: s.add("kb.ground_kb.formulas", len(r)),
    "embed.lower": lambda s, r: s.add("embed.lower.fo_nodes", _fo_nodes(r)),
    "embed.emit_tptp": lambda s, r: s.add("embed.emit_tptp.bytes", len(r.encode("utf-8"))),
}


def install(spans: Spans, modules: dict) -> list:
    """Wrap the traced functions; returns what ``uninstall`` restores."""
    saved = []
    for mod, fns in TRACED.items():
        m = modules[mod]
        for fn in fns:
            name = f"{mod}.{fn}"
            saved.append((m, fn, getattr(m, fn)))
            setattr(m, fn, _wrap(spans, name, getattr(m, fn), name in RECURSIVE,
                                 COUNTERS.get(name)))
    ev = modules["semantics"].Evaluator
    for meth in EVALUATOR_METHODS:
        saved.append((ev, meth, ev.__dict__[meth]))
        setattr(ev, meth, _wrap(spans, EVALUATOR, ev.__dict__[meth], True))
    traced_init = ev.__init__

    def counted_init(self, *args, **kwargs):
        spans.add("semantics.Evaluator.instances", 1)
        traced_init(self, *args, **kwargs)

    ev.__init__ = counted_init
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
