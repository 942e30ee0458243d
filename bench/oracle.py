"""Expected answers and the outcome checker.

Nothing here runs inside the timed region.  Verdicts are judged against
answers that do not come from the code being timed:

* GDPR-N and Chisholm-N answers hold by construction (``gen.py``);
* bounded and shared-DAG verdicts come from this module's own evaluator
  over the generator's tuple formulas, run on every model that the
  brute-force enumerators ``semantics.iter_*_models`` produce, and every
  reported witness is re-evaluated here;
* translations are checked by ``embed.fo_eval`` of the first-order
  formula agreeing with this module's evaluator on fixed small models,
  by ``embed.in_guarded_fragment`` for propositional SDL, and by the
  three frozen ``fixtures/golden_*.p`` matching byte for byte.

Every query outcome is classified as correct, wrong, budget, crash or
no_report from the exit code and the exception the CLI runner caught,
never from stdout alone: ``--format json`` prints nothing on
budget_exceeded, and an uncaught MemoryError exits 1, the code of a
negative verdict.
"""

from __future__ import annotations

import json
from pathlib import Path

import gen

OUTCOMES = ("correct", "wrong", "budget", "crash", "no_report")


class WallTimeout(Exception):
    """Raised into a query that overran the benchmark's wall-clock cap."""


# ---------------------------------------------------------------------------
# Models and evaluation


class Model:
    """n worlds; rows[w] is the bitmask of worlds related to w; val maps
    (pred, args) to a world bitmask; domain lists the individuals."""

    def __init__(self, n: int, rows, val: dict, domain=()):
        self.n, self.rows, self.val, self.domain = n, tuple(rows), val, tuple(domain)
        self.full = (1 << n) - 1

    @classmethod
    def from_report(cls, d: dict) -> "Model":
        n = len(d["worlds"])
        rows = [0] * n
        for s, t in d["relation"]:
            rows[s] |= 1 << t
        val = {}
        for key, worlds in d["valuation"].items():
            name, _, rest = key.partition("(")
            args = tuple(a.strip() for a in rest.rstrip(")").split(",") if a.strip())
            val[(name, args)] = sum(1 << w for w in worlds)
        return cls(n, rows, val, d.get("domain", ()))

    @classmethod
    def from_semantics(cls, m) -> "Model":
        return cls(m.n, m.rows, dict(m.valuation), m.domain)


def _opt(m: Model, s: int) -> int:
    """Worlds of s that are at least as good as every world of s."""
    return sum(1 << w for w in range(m.n) if s >> w & 1 and s & ~m.rows[w] == 0)


def truth(f: tuple, m: Model, logic: str) -> int:
    """Bitmask of the worlds of m where f holds."""
    full = m.full
    memo: dict = {}

    def go(g: tuple, env: tuple) -> int:
        key = (id(g), env)
        hit = memo.get(key)
        if hit is not None:
            return hit
        tag = g[0]
        if tag == "a":
            bind = dict(env)
            v = m.val.get((g[1], tuple(bind.get(a, a) for a in g[2])), 0)
        elif tag == "true":
            v = full
        elif tag == "false":
            v = 0
        elif tag == "not":
            v = ~go(g[1], env) & full
        elif tag in ("forall", "exists"):
            subs = [go(g[2], env + ((g[1], c),)) for c in m.domain]
            v = full
            if tag == "forall":
                for s in subs:
                    v &= s
            else:
                v = 0
                for s in subs:
                    v |= s
        elif tag in gen.BINARY:
            a, b = go(g[1], env), go(g[2], env)
            v = {"and": a & b, "or": a | b, "imp": (~a & full) | b,
                 "iff": ~(a ^ b) & full}[tag]
        elif logic == "e":
            v = _modal_e(g, go, env, m)
        else:
            v = _modal_sdl(g, go, env, m)
        memo[key] = v
        return v

    return go(f, ())


def _modal_e(g, go, env, m: Model) -> int:
    full = m.full

    def oblig(body: int, cond: int) -> int:
        return full if _opt(m, cond) & ~body == 0 else 0

    tag, x = g[0], go(g[1], env)
    if tag == "box":
        return full if x == full else 0
    if tag == "dia":
        return full if x else 0
    if tag == "O":
        return oblig(x, full)
    if tag == "P":
        return ~oblig(~x & full, full) & full
    if tag == "F":
        return oblig(~x & full, full)
    if tag == "O2":
        return oblig(x, go(g[2], env))
    raise ValueError(f"not a system E formula: {g!r}")


def _modal_sdl(g, go, env, m: Model) -> int:
    tag, x = g[0], go(g[1], env)
    out = 0
    for w in range(m.n):
        succ = m.rows[w]
        if tag in ("box", "O"):
            hold = succ & ~x == 0
        elif tag in ("dia", "P"):
            hold = succ & x != 0
        elif tag == "F":
            hold = succ & x == 0
        else:
            raise ValueError(f"not an SDL formula: {g!r}")
        out |= hold << w
    return out


def atoms_of(fs) -> list[tuple]:
    """Atom keys (pred, args) of ground tuple formulas."""
    return sorted({(g[1], g[2]) for f in fs for g in _walk(f) if g[0] == "a"})


def all_models(logic: str, max_n: int, atoms):
    """Every model up to max_n worlds, from the semantics enumerators."""
    from deon import semantics as S
    for n in range(1, max_n + 1):
        it = (S.iter_preference_models(n, atoms) if logic == "e"
              else S.iter_serial_kripke_models(n, atoms))
        for m in it:
            yield Model.from_semantics(m)


def frame_holds(m: Model, flag: str) -> bool:
    r = m.rows
    ws = range(m.n)
    if flag == "serial":
        return all(r[w] for w in ws)
    if flag == "reflexive":
        return all(r[w] >> w & 1 for w in ws)
    if flag == "total":
        return all(r[s] >> t & 1 or r[t] >> s & 1 for s in ws for t in ws)
    if flag == "transitive":
        return all(r[t] & ~r[s] == 0 for s in ws for t in ws if r[s] >> t & 1)
    raise ValueError(flag)


def brute_check(f: tuple, logic: str, bound: int) -> bool:
    """True iff no model up to ``bound`` worlds falsifies f somewhere."""
    return all(truth(f, m, logic) == m.full for m in all_models(logic, bound, atoms_of([f])))


def brute_model(fs, logic: str, bound: int) -> bool:
    """True iff some model up to ``bound`` worlds makes every f valid."""
    return any(all(truth(f, m, logic) == m.full for f in fs)
               for m in all_models(logic, bound, atoms_of(fs)))


def brute_correspondence(f: tuple, frame: str, bound: int) -> tuple[bool, bool]:
    """(schema valid in every frame model, some non-frame model validates it)."""
    holds, violating = True, False
    for m in all_models("e", bound, atoms_of([f])):
        valid = truth(f, m, "e") == m.full
        if frame_holds(m, frame):
            holds = holds and valid
        elif valid:
            violating = True
    return holds, violating


# ---------------------------------------------------------------------------
# Expected answers


class Oracle:
    """Expected answers per query, computed once and cached by qid."""

    def __init__(self, fixtures: Path):
        self.fixtures = fixtures
        self._cache: dict[int, object] = {}
        self._fixed: dict[str, list[Model]] = {}

    def expected(self, q: gen.Query):
        if q.qid not in self._cache:
            self._cache[q.qid] = self._compute(q)
        return self._cache[q.qid]

    def _compute(self, q: gen.Query):
        e = q.exp
        if q.kind == "check":
            if "valid" in e:
                return e["valid"]
            return brute_check(q.formulas[0], e["logic"], e["bound"])
        if q.kind == "model":
            if "sat" in e:
                return e["sat"]
            return brute_model(q.formulas, e["logic"], e["bound"])
        if q.kind == "correspondence":
            return brute_correspondence(q.formulas[0], e["frame"], e["bound"])
        if q.kind == "translate":
            return self._translation(q)
        if q.kind == "golden":
            return (self.fixtures / e["file"]).read_text(encoding="utf-8")
        return None

    def fixed_models(self, logic: str) -> list[Model]:
        """Three small models per logic over p, q, r, s/1, t/1 and a, b."""
        if logic not in self._fixed:
            keys = [("p", ()), ("q", ()), ("r", ()), ("s", ("a",)), ("s", ("b",)),
                    ("t", ("a",)), ("t", ("b",))]
            models = []
            for i, rows in enumerate(((1, 3), (2, 1), (3, 2))):
                val = {k: (i + 3 * j) % 4 for j, k in enumerate(keys)}
                if logic == "e" and i == 2:
                    rows = (0, 1)
                models.append(Model(2, rows, val, ("a", "b")))
            self._fixed[logic] = models
        return self._fixed[logic]

    def _translation(self, q: gen.Query):
        """First-order formula of the query's input, from the library,
        and whether fo_eval agrees with ``truth`` on the fixed models."""
        from deon import embed as E
        from deon import formula as F
        from deon import semantics as S
        f = q.formulas[0]
        logic = q.exp["logic"]
        preds = {a: 0 for a in ("p", "q", "r")} | {"s": 1, "t": 1}
        sig = F.Signature(preds, frozenset(("a", "b")))
        fo = E.translate(F.parse(q.argv[1], sig, logic=logic), logic)
        agree = True
        for m in self.fixed_models(logic):
            relation = [(s, t) for s in range(m.n) for t in range(m.n) if m.rows[s] >> t & 1]
            valuation = {k: [w for w in range(m.n) if v >> w & 1] for k, v in m.val.items()}
            cls = S.PreferenceModel if logic == "e" else S.KripkeModel
            sm = cls(m.n, relation, valuation, m.domain)
            agree = agree and E.fo_eval(fo, sm, logic) == (truth(f, m, logic) == m.full)
        quantified = any(g[0] in ("forall", "exists") for g in _walk(f))
        guarded = E.in_guarded_fragment(fo) if logic == "sdl" and not quantified else True
        return {"fo": E.fo_show(fo), "agree": agree, "guarded": guarded,
                "tptp": E.emit_tptp(fo, "goal", "conjecture", logic=logic)}


def _walk(f: tuple):
    """Each distinct node of a tuple formula once, shared nodes included."""
    stack, seen = [f], set()
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        yield g
        if g[0] != "a":
            stack.extend(c for c in g[1:] if isinstance(c, tuple))


# ---------------------------------------------------------------------------
# Judging one report


def _valid_in(fs, m: Model, logic: str) -> bool:
    return all(truth(f, m, logic) == m.full for f in fs)


def judge(q: gen.Query, exit_code: int, rep: dict, oracle: Oracle) -> bool:
    """Does a parsed JSON report give the expected answer?"""
    e = q.exp
    v = rep.get("verdict")
    if q.kind in ("kb_consistency", "kb_entail"):
        return (v == e["verdict"] and exit_code == e["exit"]
                and (q.kind == "kb_entail" or rep.get("mus") == e["mus"]))
    if q.kind == "kb_comply":
        d = rep.get("detail", {})
        return (exit_code == e["exit"]
                and v == ("compliant" if e["exit"] == 0 else "violations")
                and sorted(x[0] for x in d.get("detached", [])) == e["detached"]
                and sorted(x[0] for x in d.get("violations", [])) == e["violations"]
                and d.get("consistent") == e["consistent"] and rep.get("mus") == e["mus"])
    want = oracle.expected(q)
    if q.kind == "check":
        if v == "countermodel":
            m = Model.from_report(rep["witness"])
            w = rep.get("world")
            return (not want and exit_code == 1 and m.n <= e["bound"]
                    and isinstance(w, int) and not truth(q.formulas[0], m, e["logic"]) >> w & 1)
        return v == "no_model_up_to" and want and exit_code == 2 and rep["bound_used"] == e["bound"]
    if q.kind == "model":
        if v == "model_found":
            m = Model.from_report(rep["witness"])
            fits = e.get("complete") or m.n <= e["bound"]
            return want and exit_code == 0 and fits and _valid_in(q.formulas, m, e["logic"])
        negative = "unsatisfiable" if e.get("complete") else "no_model_up_to"
        return v == negative and not want and exit_code == (1 if e.get("complete") else 2)
    if q.kind == "correspondence":
        holds, violating = want
        d = rep.get("detail", {})
        f = q.formulas[0]
        if d.get("holds_under_frame") != holds:
            return False
        if v != ("correspondence_confirmed" if holds and violating else "correspondence_incomplete"):
            return False
        cex, wit = d.get("frame_counterexample"), d.get("violating_witness")
        if (cex is None) != holds or (wit is None) == violating:
            return False
        if cex is not None:
            m = Model.from_report(cex)
            if not frame_holds(m, e["frame"]) or _valid_in([f], m, "e"):
                return False
        if wit is not None:
            m = Model.from_report(wit)
            if frame_holds(m, e["frame"]) or not _valid_in([f], m, "e"):
                return False
        return exit_code == (0 if holds and violating else 1)
    if q.kind == "translate":
        d = rep.get("detail", {})
        steps_ok = (d.get("steps") is not None) == bool(e.get("steps"))
        return (v == "translated" and exit_code == 0 and steps_ok and want["agree"]
                and want["guarded"] and d.get("fo") == want["fo"]
                and d.get("tptp") == want["tptp"])
    if q.kind == "golden":
        return v == "translated" and exit_code == 0 and rep["detail"]["tptp"] == want
    raise ValueError(f"unknown query kind {q.kind!r}")


def classify(q: gen.Query, exit_code: int, exc_type: str | None, stdout: str,
             stderr: str, oracle: Oracle) -> str:
    """One of OUTCOMES.  ``exc_type`` names the exception the CLI runner
    caught (SystemExit for an ordinary non-zero exit), or None.  An empty
    report counts as a budget overrun only with the CLI's own message on
    stderr: usage errors also exit 2 with nothing on stdout."""
    if exc_type == WallTimeout.__name__:
        return "budget"
    if exc_type not in (None, "SystemExit"):
        return "crash"
    if not stdout.strip():
        budget = exit_code == 2 and stderr.startswith("budget exceeded")
        return "budget" if budget else "no_report"
    try:
        rep = json.loads(stdout)
    except ValueError:
        return "no_report"
    if not isinstance(rep, dict) or "verdict" not in rep:
        return "no_report"
    if rep["verdict"] == "budget_exceeded":
        return "budget"
    try:
        return "correct" if judge(q, exit_code, rep, oracle) else "wrong"
    except (KeyError, TypeError, ValueError, IndexError):
        return "wrong"  # a report missing the fields its verdict needs
