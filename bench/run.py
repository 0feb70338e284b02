"""periorbit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; periorbit is imported from its
src/ directory.  Workloads (see workloads.py and BENCHMARK.json):
bundled-cli, family-solve, solve-failure.  One process, one closed-loop
caller, no worker threads, and BLAS held to one thread.

--trace 0 measures the end-to-end metrics over whole rounds (every item of
the workload once) that take at least S seconds of wall time.  Times are
in nominal seconds: wall time scaled by the host's speed while it passed,
measured with a fixed reference loop (pace.py), so that a shared host's
slow phases do not read as changes of the program.  setup_s is the median
over fresh interpreters that import periorbit and parse the workload's
texts.  Each item's latency is the median over its repeats (checks
excluded); ops_per_s is the item count over the sum of these, and op_s.p50
their median.  peak_rss_mb is this process's peak RSS after the first
RSS_ROUNDS rounds.  Raw wall times, fail_ratio, and op_s.p90 where a run
holds at least 100 operations, are printed as report lines: a metric that
is 0 on a correct run, or missing on some workload, cannot be a benchmark
metric.

--trace 1 runs one round five times, timed in wall seconds: untraced to
warm up, traced, untraced (the baseline for the tracing overhead), traced
again (the machine-independent counters must agree exactly), and once
under tracemalloc for the peak memory of apply_T and of kernel builds.
The per-layer metrics come from the first traced pass.

Every operation's output is checked.  Human-readable lines go first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status is 0 when every check passed, 1 when a
check failed, 2 when the checkout holds no periorbit sources.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
# peak_rss_mb is read once this many rounds have run.  The failure path
# leaves the heap about 0.5-1 MB larger after every round, so the peak at
# the end of a run would depend on how many rounds the host's speed
# allowed.
RSS_ROUNDS = 2

# A fresh interpreter: import periorbit and parse every text of the
# workload (ProblemSpec validation included); prints the seconds taken and
# the reference loop's times just before and just after.
_SETUP_CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[3])
from pace import reference_seconds
before = reference_seconds()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import periorbit
with open(sys.argv[2], encoding="utf-8") as fh:
    texts = json.load(fh)
for text in texts:
    periorbit.parse_problem_text(text)
dt = time.perf_counter() - t0
print(repr(dt), repr(before), repr(reference_seconds()))
"""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _single_blas_thread() -> None:
    """Hold BLAS to one thread, so that the process runs no worker threads.
    On a 2-vCPU KVM guest a second thread did not speed up the
    matrix-vector product in apply_T (median 0.38 s against 0.36 s at 2049
    samples) and made its time noisier.  Must run before numpy is
    imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads():
    """Threads of numpy's OpenBLAS as it reports them, or None."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class _WallClock:
    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        return time.perf_counter() - self._t0


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def op(self, item, tracer=None, clock=None):
        """Execute one operation (timed), then check it (untimed).
        Returns the latency, as clock.stop() gives it (wall seconds by
        default), and the outcome, or None on failure."""
        from workloads import CheckFailed
        self.attempted += 1
        clock = clock or _WallClock()
        clock.start()
        try:
            if tracer is None:
                outcome = self.wl.execute(item)
            else:
                outcome = tracer.root(self.wl.execute, item)
        except Exception as err:  # an unexpected raise is a failed operation
            dt = clock.stop()
            self._fail(item, f"{type(err).__name__}: {err}")
            return dt, None
        dt = clock.stop()
        try:
            self.wl.check(item, outcome)
        except CheckFailed as err:
            self._fail(item, str(err))
            return dt, None
        return dt, outcome

    def _fail(self, item, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{getattr(item, 'case', item)}: {message}")

    def rounds(self, seconds: float, between):
        """Run rounds over every item until they have taken at least
        `seconds` of wall time, calling between() after each round outside
        the timed spans.  Returns each item's latencies in nominal seconds
        (see pace.py), in item order, every raw wall latency, and the peak
        RSS in MB after RSS_ROUNDS rounds (or all of them, if fewer ran)."""
        items = self.wl.items
        lat = [[] for _ in items]
        raw = []
        rss_mb = None
        clock = pace.Clock()
        try:
            while sum(raw) < seconds:
                for k, item in enumerate(items):
                    (nominal, wall), _ = self.op(item, clock=clock)
                    lat[k].append(nominal)
                    raw.append(wall)
                if len(raw) == RSS_ROUNDS * len(items):
                    rss_mb = _peak_rss_mb()
                between()
                clock.rebracket()
        finally:
            clock.close()
        return lat, raw, rss_mb or _peak_rss_mb()

    def one_pass(self, tracer=None) -> float:
        """Every item once; returns the wall time."""
        start = time.perf_counter()
        for item in self.wl.items:
            _, outcome = self.op(item, tracer)
            if tracer is not None and outcome is not None:
                tracer.counts.update(self.wl.counters(item, outcome))
        return time.perf_counter() - start


def _setup_seconds(path: str):
    """One set-up in a fresh interpreter: nominal and wall seconds."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, SRC, path,
                           HERE], capture_output=True, text=True,
                          timeout=120, check=True)
    dt, before, after = map(float, proc.stdout.split())
    return (pace.nominal(dt, before + after, 2 * pace.BRACKET_STEPS), dt)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _untraced(runner: Runner, args, workdir: str, report) -> dict:
    wl = runner.wl
    path = os.path.join(workdir, "texts.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(wl.texts, fh)
    # set-up samples are spread between rounds, so that their median spans
    # the run rather than one moment of it
    setups = []

    def sample_setup():
        if len(setups) < SETUP_REPEATS:
            setups.append(_setup_seconds(path))

    wl.warm_up()
    lat, raw, rss_mb = runner.rounds(args.seconds, sample_setup)
    while len(setups) < SETUP_REPEATS:
        sample_setup()
    n = len(raw)
    every = [dt for x in lat for dt in x]
    # Each item's median over its repeats, so one slow repeat moves
    # nothing.  op_s.p50 is the median of these: the items' latencies fall
    # in clusters (bundled-cli's commands differ by 10x), and the median
    # of every latency would jump between two clusters from run to run.
    medians = [statistics.median(x) for x in lat]
    report("setup_s samples (nominal/wall s): " + " ".join(
        f"{s:.4f}/{w:.4f}" for s, w in setups))
    report(f"operations: {n} in {sum(raw):.3f} s wall "
           f"({n // len(lat)} rounds of {len(lat)})")
    report(f"wall time as run: {n / sum(raw):.4f} ops/s, median latency "
           f"{statistics.median(raw):.6f} s")
    if n >= 100:
        p90 = statistics.quantiles(every, n=10, method="inclusive")[8]
        report(f"op_s.p90 = {p90:.6f} s nominal (n = {n})")
    else:
        report(f"op_s.p90 not reported: {n} operations, fewer than 100")
    report(f"fail_ratio = {runner.failed / runner.attempted:.6f} "
           f"({runner.failed}/{runner.attempted})")
    return {
        "setup_s": _metric(statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": _metric(len(medians) / sum(medians), "1/s"),
        "op_s.p50": _metric(statistics.median(medians), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def _traced(runner: Runner, report):
    """Returns the per-layer metrics and whether the counters repeated."""
    from spans import MemoryProbe, Tracer
    wl = runner.wl

    def traced_pass():
        tracer = Tracer().install()
        try:
            return tracer, runner.one_pass(tracer)
        finally:
            tracer.remove()

    wl.warm_up()
    runner.one_pass()  # first-pass costs (fresh pages, caches) stay out
    t, wall1 = traced_pass()
    base = runner.one_pass()
    t2, wall2 = traced_pass()
    overhead = (wall1 + wall2) / 2.0 - base
    probe = MemoryProbe().install()
    try:
        runner.one_pass()
    finally:
        probe.remove()

    first, second = t.deterministic_counts(), t2.deterministic_counts()
    mismatched = [k for k in first if first[k] != second[k]]
    for k in mismatched:
        report(f"counter mismatch between traced passes: {k} "
               f"{first[k]} != {second[k]}")

    c, self_s = t.counts, t.self_s
    attempted_steps = c["ivp.steps"] + c["ivp.rejected"] + c["ivp.guard_rejections"]
    metrics = {
        "expressions.scalar_calls": (c["expressions.scalar_calls"], "count"),
        "expressions.vector_points": (c["expressions.vector_points"], "count"),
        "expressions.extrema_calls": (c["expressions.extrema_calls"], "count"),
        "expressions.self_s": (self_s["expressions.self_s"], "s"),
        "ivp.solves": (c["ivp.solves"], "count"),
        "ivp.steps": (c["ivp.steps"], "count"),
        "ivp.rhs_evals": (c["ivp.rhs_evals"], "count"),
        "ivp.step_accept_ratio": (
            c["ivp.steps"] / attempted_steps if attempted_steps else 1.0,
            "ratio"),
        "ivp.self_s": (self_s["ivp.self_s"], "s"),
        "solver.shots": (c["solver.shots"], "count"),
        "solver.shot_ok_ratio": (
            c["solver.shots_ok"] / c["solver.shots"]
            if c["solver.shots"] else 1.0, "ratio"),
        "solver.newton_steps": (c["solver.newton_steps"], "count"),
        "solver.find_periodic_self_s": (
            self_s["solver.find_periodic_self_s"], "s"),
        "solver.apply_T_self_s": (self_s["solver.apply_T_self_s"], "s"),
        "solver.apply_T_kernel_entries": (
            c["solver.apply_T_kernel_entries"], "count"),
        "solver.apply_T_bytes_computed": (
            c["solver.apply_T_bytes_computed"], "bytes"),
        "solver.apply_T_peak_mb": (
            probe.peak_mb["solver.apply_T_peak_mb"], "MB"),
        "greens.builds_closed": (c["greens.builds_closed"], "count"),
        "greens.builds_numeric": (c["greens.builds_numeric"], "count"),
        "greens.build_self_s": (self_s["greens.build_self_s"], "s"),
        "greens.criteria_self_s": (self_s["greens.criteria_self_s"], "s"),
        "greens.build_peak_mb": (probe.peak_mb["greens.build_peak_mb"], "MB"),
        "hypotheses.certify_self_s": (self_s["hypotheses.certify_self_s"], "s"),
        "hypotheses.find_R_evals": (c["hypotheses.find_R_evals"], "count"),
        "quadrature.calls": (c["quadrature.calls"], "count"),
        "quadrature.self_s": (self_s["quadrature.self_s"], "s"),
        "cli.self_s": (self_s["cli.self_s"], "s"),
        "cli.bytes_written": (c["cli.bytes_written"], "bytes"),
        "svgfig.self_s": (self_s["svgfig.self_s"], "s"),
        "problemfile.parse_self_s": (self_s["problemfile.parse_self_s"], "s"),
        "transform.self_s": (self_s["transform.self_s"], "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    total = sum(self_s.values())
    report(f"pass: one round, {len(wl.items)} operations; untraced "
           f"{base:.3f} s, traced {wall1:.3f} s and {wall2:.3f} s; "
           f"tracing overhead {overhead:.3f} s")
    shares = sorted(self_s.items(), key=lambda kv: -kv[1])
    report("self-time shares of the first traced pass ("
           f"{total:.3f} s): " + ", ".join(
               f"{k[:-len('_s')] if k.endswith('_s') else k} "
               f"{100.0 * v / total:.1f}%" for k, v in shares if v > 0.0))
    return ({k: _metric(v, u) for k, (v, u) in metrics.items()},
            not mismatched)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "periorbit", "__init__.py")):
        sys.stderr.write(f"no periorbit sources under {SRC}\n")
        return 2
    nproc = _nproc()
    _single_blas_thread()
    sys.path.insert(0, SRC)
    import numpy as np
    import periorbit
    if not os.path.abspath(periorbit.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"periorbit imported from {periorbit.__file__}, "
                         f"not from {SRC}\n")
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2

    blas = _blas_threads()
    report = lambda line: print(line, flush=True)
    report(f"environment: nproc {nproc}, python {platform.python_version()}, "
           f"numpy {np.__version__}, BLAS threads {blas}")
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, SRC)
        report(f"workload {wl.name}, seed {args.seed}: {wl.describe()}")
        runner = Runner(wl)
        if args.trace:
            metrics, repeated = _traced(runner, report)
        else:
            metrics, repeated = _untraced(runner, args, workdir, report), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for err in runner.errors:
        report(f"failed: {err}")
    for name, m in metrics.items():
        report(f"{name} = {m['value']} {m['unit']}")
    blas_ok = blas is None or blas <= nproc
    if not blas_ok:
        report(f"failed: BLAS runs {blas} threads on {nproc} CPUs")
    correct = runner.failed == 0 and repeated and blas_ok
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
