#!/usr/bin/env python3
"""deon benchmark: generated queries through the real CLI, in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop client in one thread sends each query of the
workload's fixed mix to ``deon.cli.main`` through click's CliRunner,
waits for the report and sends the next, repeating whole passes of the
mix until ``--seconds`` have passed and at least MIN_QUERIES queries
completed, with the deon modules imported afresh before each pass.
Every report is checked afterwards (``oracle.py``).  The run ends with
the capacity ladder.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` gives the end-to-end metrics
below; ``--trace 1`` alternates untraced passes with passes traced by
the wrappers of ``tracing.py`` and gives the per-layer metrics, per
pass.

Timings are taken at reference speed.  The speed of the host swings by
up to 2x, from one second to the next and for minutes at a time;
per-query thread CPU time swings as much, with the garbage collector on
or off, so the cause lies outside the process.  A fixed slice of
pure-Python work from the benchmark's own code (``Reference``) runs
after every query, and each pass's wall times are scaled by REF_S over
the slice's mean time in that pass; each set-up is scaled by slices run
right after it.  A query's time is then its best scaled time in the
run, one repetition per pass, which drops the repetitions that a slow
moment hit.  The unscaled figures and the range of the pass scales go
to stdout.

End-to-end (``--trace 0``):
  setup_s          median of the run's fresh set-ups, SETUPS_PER_PASS
                   before each pass: import deon, write the inputs,
                   warm up each command
  queries_per_s    distinct queries of the mix over the sum of their
                   best times
  query_p50_ms, query_p90_ms
                   percentiles of the queries' best times; the sample
                   count goes to stdout
  correct_share    correct queries over queries attempted (one minus the
                   failed share; a metric may not read 0)
  peak_rss_mb      process high-water mark after the mix
  <family>.max_n   largest N whose complete consistency check is decided
                   correctly under the default node budget

Generated files and span dumps go to ``bench/_work/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import gen
import oracle
import tracing as tr

MIN_QUERIES = 100
SETUPS_PER_PASS = 3
SETUP_SLICES = 20        # reference slices that scale each set-up
QUERY_CAP_S = 20.0       # wall cap per query; the slowest seed query takes ~2 s
MIX_CAP_FACTOR = 1.5     # stop starting queries after this many --seconds
STEP_CAP_S = 20.0        # wall cap per ladder step; the slowest decided one is ~6 s
ADDRESS_SPACE = 2 << 30  # bytes; oversize allocations become MemoryError crashes
# Growth-curve points reported by the traced run: the steps the seed commit
# decides.  They are always run, so the per-layer metric set is fixed.
CURVE = {"gdpr_sdl": 2, "chisholm_sdl": 2, "gdpr_e": 3, "chisholm_e": 7}
MODULES = ("formula", "kb", "search", "semantics", "lam", "embed", "cli")
# The reference slice's median time over 3000 slices on the 2-vCPU x86-64
# host the bounds were set on; it only sets the scale of the timings.
REF_S = 2.0e-3


class Reference:
    """A fixed slice of pure-Python work that tracks the host's speed:
    the benchmark's own evaluator (``oracle.truth``) on four schemas and
    32 two-world models.  No deon code runs in it, so a change to the
    program cannot move it, and the garbage collector is off while it
    runs, so that it is not charged for the program's garbage."""

    def __init__(self):
        self.formulas = [gen.SCHEMAS[n][0] for n in ("cv", "agg", "ext", "cok")]
        keys = [(a, ()) for a in gen.PROP_ATOMS]
        self.models = [oracle.Model(2, rows, dict(zip(keys, (a, b, a ^ b))))
                       for rows in ((1, 2), (3, 3), (2, 1), (3, 0))
                       for a in range(4) for b in (0, 3)]

    def time(self) -> float:
        gc.disable()
        try:
            t0 = perf_counter()
            for m in self.models:
                for f in self.formulas:
                    oracle.truth(f, m, "e")
            return perf_counter() - t0
        finally:
            gc.enable()

    def scale(self, slices: int) -> float:
        """REF_S over the mean time of ``slices`` slices run now."""
        return REF_S * slices / sum(self.time() for _ in range(slices))

class Program:
    """The freshly imported deon modules and an in-process CLI runner."""

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "deon" or m.startswith("deon.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        self.mods = {m: importlib.import_module(f"deon.{m}") for m in MODULES}
        pkg_dir = Path(self.mods["cli"].__file__).resolve().parent
        if pkg_dir != (src / "deon").resolve():
            raise SystemExit(f"deon imported from {pkg_dir}, not from {src}")
        self.pkg_dir = str(pkg_dir)
        from click.testing import CliRunner
        self.runner = CliRunner()

    def invoke(self, argv: list[str], cap: float, spans: tr.Spans | None = None):
        """Run one CLI query; returns (seconds, exit code, exception name,
        stdout, stderr)."""
        main = self.mods["cli"].main
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            idx = spans.open(spans.name_id(tr.CLI)) if spans is not None else None
            t0 = perf_counter()
            res = self.runner.invoke(main, argv)
            dt = perf_counter() - t0
            if idx is not None:
                spans.close(idx)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        exc = type(res.exception).__name__ if res.exception is not None else None
        return dt, res.exit_code, exc, res.stdout, res.stderr

    def on_alarm(self, signum, frame):
        # Raise only inside the program's own code, so that click's runner
        # always restores stdout; elsewhere, try again shortly.
        if frame is not None and frame.f_code.co_filename.startswith(self.pkg_dir):
            raise oracle.WallTimeout("query overran the wall-clock cap")
        signal.setitimer(signal.ITIMER_REAL, 0.05)


def canonical(stdout: str) -> str:
    """The report without its timing field, so repeated runs compare equal."""
    try:
        rep = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(rep, dict):
        rep.pop("timing_ms", None)
    return json.dumps(rep, sort_keys=True)


class Tally:
    """Latencies per query, scaled and raw, and de-duplicated outcomes of
    the queries run."""

    def __init__(self):
        self.lat: dict[int, list[float]] = {}
        self.raw: dict[int, list[float]] = {}
        self.scales: list[float] = []
        self.seen: dict[tuple, int] = {}

    def add(self, q: gen.Query, code: int, exc: str | None, stdout: str, stderr: str):
        key = (q.qid, code, exc, canonical(stdout), stderr)
        self.seen[key] = self.seen.get(key, 0) + 1

    def add_pass(self, times: list[tuple[int, float]], scale: float):
        """The wall times (qid, seconds) of one pass and the pass's scale."""
        self.scales.append(scale)
        for qid, dt in times:
            self.lat.setdefault(qid, []).append(dt * scale)
            self.raw.setdefault(qid, []).append(dt)

    @property
    def attempted(self) -> int:
        return sum(len(ts) for ts in self.lat.values())

    def best(self, raw: bool = False) -> list[float]:
        """Each query's fastest scaled (or raw) time in the run."""
        return [min(ts) for ts in (self.raw if raw else self.lat).values()]

    def judge(self, wl: gen.Workload, orc: oracle.Oracle) -> dict[str, int]:
        counts = dict.fromkeys(oracle.OUTCOMES, 0)
        for (qid, code, exc, out, err), n in self.seen.items():
            counts[oracle.classify(wl.queries[qid], code, exc, out, err, orc)] += n
        return counts


def setup(src: Path, work: Path, workload: str, seed: int):
    """Import deon afresh, write the inputs, warm up every command."""
    t0 = perf_counter()
    prog = Program(src)
    if work.exists():
        shutil.rmtree(work)
    (work / "ladder").mkdir(parents=True)
    wl = gen.WORKLOADS[workload](seed, work)
    for family, (build, logic) in gen.LADDER_FAMILIES.items():
        for n in range(1, gen.LADDER_CAP + 1):
            (work / "ladder" / f"{family}_{n}.kb").write_text(build(n, logic), encoding="utf-8")
    signal.signal(signal.SIGALRM, prog.on_alarm)
    for argv in wl.warmup:
        prog.invoke(argv, QUERY_CAP_S)
    return perf_counter() - t0, prog, wl


def run_pass(prog: Program, wl: gen.Workload, tally: Tally, ref: Reference,
             spans: tr.Spans | None = None, stop_at: float = float("inf")) -> bool:
    """One whole pass of the mix with a reference slice after each query;
    False if it was cut at ``stop_at`` (a perf_counter reading).  Whole
    passes give every query the same number of repetitions."""
    times, ref_s, done = [], 0.0, True
    for q in wl.queries:
        if perf_counter() > stop_at:
            done = False
            break
        if spans is not None:
            spans.query = q.qid
        dt, *outcome = prog.invoke(q.argv, QUERY_CAP_S, spans)
        tally.add(q, *outcome)
        times.append((q.qid, dt))
        ref_s += ref.time()
    if times:
        tally.add_pass(times, REF_S * len(times) / ref_s)
    return done


def ladder(prog: Program, work: Path, orc: oracle.Oracle):
    """Complete consistency of each family at N = 1, 2, ...

    A family stops at its first N that is not decided correctly, except
    that the growth-curve points in CURVE are always run.  Nothing but
    the node budget and the per-step cap STEP_CAP_S ends a step, so a
    family's max_n does not depend on the time the others take; a step
    that the cap ends is reported on stdout.  Returns ({family: max_n},
    {family: {n: ms}}, the steps that ended wrong, crashed or gave no
    report).
    """
    max_n: dict[str, int] = {}
    curve: dict[str, dict[int, float]] = {}
    failures: list[str] = []
    for family, (_, logic) in gen.LADDER_FAMILIES.items():
        best, ok = 0, True
        curve[family] = {}
        for n in range(1, gen.LADDER_CAP + 1):
            if n > CURVE[family] and not ok:
                break
            path = work / "ladder" / f"{family}_{n}.kb"
            q = gen.Query(0, ["kb", "consistency", str(path), "--logic", logic, "--complete",
                              "--format", "json"], "kb_consistency",
                          gen.ladder_expect(family, logic))
            dt, code, exc, out, err = prog.invoke(q.argv, STEP_CAP_S)
            curve[family][n] = dt * 1000.0
            outcome = oracle.classify(q, code, exc, out, err, orc)
            if exc == oracle.WallTimeout.__name__:
                print(f"note: ladder {family} N={n} was ended by the {STEP_CAP_S:g} s "
                      f"wall cap, not by the node budget")
            elif outcome != "correct" and outcome != "budget":
                failures.append(f"{family} N={n}: {outcome}")
            if ok and outcome == "correct":
                best = n
            else:
                ok = False
        max_n[family] = best
    return max_n, curve, failures


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "deon" / "cli.py").is_file():
        print(f"error: no deon sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    work = root / "bench" / "_work" / args.workload

    orc = oracle.Oracle(root / "fixtures")
    ref = Reference()
    if args.trace:
        _, prog, wl = setup(src, work, args.workload, args.seed)
        return traced_run(prog, wl, orc, ref, args, work)

    # Set-ups are spread over the run, SETUPS_PER_PASS before each pass,
    # so that their median does not hang on the host's speed in one
    # moment; each pass uses the program of the set-up before it.  The
    # collection frees the modules of the set-up before, so that no set-up
    # pays for another's garbage.
    tally, setups, passes = Tally(), [], 0
    t0 = perf_counter()
    stop_at = t0 + MIX_CAP_FACTOR * args.seconds
    while True:
        for _ in range(SETUPS_PER_PASS):
            gc.collect()
            s, prog, wl = setup(src, work, args.workload, args.seed)
            setups.append(s * ref.scale(SETUP_SLICES))
        if not run_pass(prog, wl, tally, ref, stop_at=stop_at):
            break
        passes += 1
        if perf_counter() - t0 >= args.seconds and tally.attempted >= MIN_QUERIES:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = tally.judge(wl, orc)
    max_n, _, ladder_failures = ladder(prog, work, orc)

    attempted = tally.attempted
    best, raw = tally.best(), tally.best(raw=True)
    deciles = statistics.quantiles(best, n=10)
    print(f"{args.workload}: {attempted} queries in {passes} passes of {len(best)}; "
          f"{len(setups)} set-ups; "
          f"p90 has {len(best) - int(0.9 * len(best))} of the {len(best)} best times "
          f"above it; outcomes {counts}; ladder {max_n}; ladder failures {ladder_failures}; "
          f"pass scales {min(tally.scales):.3f}-{max(tally.scales):.3f}; unscaled: "
          f"queries_per_s {len(raw) / sum(raw):.2f}, p50 {statistics.median(raw) * 1e3:.2f} ms, "
          f"p90 {statistics.quantiles(raw, n=10)[8] * 1e3:.2f} ms")
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "queries_per_s": metric(len(best) / sum(best), "1/s"),
        "query_p50_ms": metric(statistics.median(best) * 1000.0, "ms"),
        "query_p90_ms": metric(deciles[8] * 1000.0, "ms"),
        "correct_share": metric(counts["correct"] / attempted, "ratio"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    for family in gen.LADDER_FAMILIES:
        metrics[f"{family}.max_n"] = metric(max_n[family], "count")
    failed = attempted - counts["correct"]
    print(json.dumps({"correct": failed == 0 and not ladder_failures,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def traced_run(prog: Program, wl: gen.Workload, orc: oracle.Oracle, ref: Reference,
               args, work: Path) -> int:
    """Pairs of passes, one untraced and one traced, until --seconds;
    the overhead compares the sums of the queries' best times."""
    plain, traced, spans = Tally(), Tally(), tr.Spans()
    passes = 0
    t0 = perf_counter()
    while passes == 0 or perf_counter() - t0 < args.seconds:
        run_pass(prog, wl, plain, ref)
        saved = tr.install(spans, prog.mods)
        try:
            run_pass(prog, wl, traced, ref, spans)
        finally:
            tr.uninstall(saved)
        passes += 1
    spans.write(work.parent / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    counts = plain.judge(wl, orc)
    traced_counts = traced.judge(wl, orc)
    _, curve, ladder_failures = ladder(prog, work, orc)

    selfs = spans.self_times()
    metrics = {}
    for name in tr.layer_names():
        s, calls = selfs.get(name, (0.0, 0))
        metrics[f"{name}.self_ms"] = metric(s * 1000.0 / passes, "ms")
        metrics[f"{name}.calls"] = metric(calls / passes, "count")
    per_pass = {
        "search.minimal_unsat_subset.oracle_calls":
            spans.count_nested("search.find_model", "search.minimal_unsat_subset"),
        **{k: spans.counts.get(k, 0) for k in (
            "semantics.Evaluator.instances", "kb.ground_kb.formulas",
            "embed.lower.fo_nodes", "embed.emit_tptp.bytes")},
    }
    for k, v in per_pass.items():
        metrics[k] = metric(v / passes, "count")
    metrics["input.tree_nodes"] = metric(sum(gen.tree_nodes(f) for f in wl.formulas), "count")
    metrics["input.distinct_nodes"] = metric(gen.distinct_nodes(wl.formulas), "count")
    overhead = sum(traced.best()) / sum(plain.best()) - 1.0
    metrics["trace.overhead_pct"] = metric(overhead * 100.0, "%")
    for family, points in curve.items():
        for n in range(1, CURVE[family] + 1):
            metrics[f"ladder.{family}.n{n}.ms"] = metric(points[n], "ms")

    attempted = plain.attempted + traced.attempted
    correct = counts["correct"] + traced_counts["correct"]
    top = sorted(((s * 1000.0 / passes, n) for n, (s, _) in selfs.items()), reverse=True)[:5]
    print(f"{args.workload} traced: {passes} pass pairs; ladder failures {ladder_failures}; "
          "top self ms/pass " + ", ".join(f"{n}={v:.1f}" for v, n in top))
    failed = attempted - correct
    print(json.dumps({"correct": failed == 0 and not ladder_failures,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
