"""Per-layer tracing from outside the program.

A Tracer replaces public periorbit functions, at the names their callers
look them up, with wrappers that time a span and read counters from the
returned objects; ``remove`` puts the originals back.  Spans are folded
into per-bucket self time as they close (duration minus the time of child
spans) rather than kept: a failing solve makes millions of coefficient
calls.  MemoryProbe wraps apply_T and the kernel builds with tracemalloc,
in a pass of its own so that its cost does not reach the self times.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

import periorbit
import periorbit.cli
import periorbit.expressions
import periorbit.greens
import periorbit.hypotheses
import periorbit.ivp
import periorbit.problemfile
import periorbit.quadrature
import periorbit.solver
from periorbit.expressions import PeriodicCoeff
from periorbit.greens import GreensFunction

# Counters that depend only on the inputs and the code; two traced passes
# over the same items must agree on every one of them.
DETERMINISTIC = (
    "expressions.scalar_calls", "expressions.vector_points",
    "expressions.extrema_calls", "ivp.solves", "ivp.steps", "ivp.rhs_evals",
    "ivp.rejected", "ivp.guard_rejections", "solver.shots", "solver.shots_ok",
    "solver.newton_steps", "solver.apply_T_kernel_entries",
    "solver.apply_T_bytes_computed", "greens.builds_closed",
    "greens.builds_numeric", "hypotheses.find_R_evals", "quadrature.calls",
    "cli.bytes_written",
)

APPLY_T = "solver.apply_T_self_s"


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer(_Patches):
    """Self time per bucket plus counts, gathered while installed."""

    def __init__(self):
        super().__init__()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [bucket, child seconds] per open span

    # -- spans ------------------------------------------------------------

    def span(self, bucket: str, fn, after=None):
        """Wrap fn in a span charged to bucket; after(args, result) runs
        on success, outside the span."""
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [bucket, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[bucket] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def root(self, fn, *args):
        """Run fn(*args) as the top-level span of one operation."""
        return self.span("bench.self_s", fn)(*args)

    def _in_apply_T(self) -> bool:
        return any(frame[0] == APPLY_T for frame in self._stack)

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        pkg, cli = periorbit, periorbit.cli
        solver, hyp = periorbit.solver, periorbit.hypotheses
        counts = self.counts

        # expressions: coefficient calls, split into scalar and array calls
        timed_call = self.span("expressions.self_s", PeriodicCoeff.__call__)

        def coeff_call(coeff, t):
            if isinstance(t, float) or np.ndim(t) == 0:
                counts["expressions.scalar_calls"] += 1
            else:
                counts["expressions.vector_points"] += np.size(t)
            return timed_call(coeff, t)

        self.set(PeriodicCoeff, "__call__", coeff_call)

        def extrema_done(args, out):
            counts["expressions.extrema_calls"] += 1

        self.set(PeriodicCoeff, "extrema", self.span(
            "expressions.self_s", PeriodicCoeff.extrema, extrema_done))
        for name in ("mean_positive_part", "__post_init__"):
            self.set(PeriodicCoeff, name, self.span(
                "expressions.self_s", getattr(PeriodicCoeff, name)))
        self.set(periorbit.problemfile, "parse_expression", self.span(
            "expressions.self_s", periorbit.problemfile.parse_expression))

        # ivp: every solver-side integration is one shot; kernel builds
        # import solve_ivp_dp from periorbit.ivp at call time
        def ivp_counts(res):
            counts["ivp.solves"] += 1
            counts["ivp.steps"] += res.nsteps
            counts["ivp.rhs_evals"] += res.nfev
            counts["ivp.rejected"] += res.rejected
            counts["ivp.guard_rejections"] += res.guard_rejections

        def shot_done(args, res):
            ivp_counts(res)
            counts["solver.shots_ok"] += bool(np.all(np.isfinite(res.y)))

        solve_ivp = solver.solve_ivp_dp
        timed_shot = self.span("ivp.self_s", solve_ivp, shot_done)

        def shot(*args, **kwargs):
            counts["solver.shots"] += 1
            return timed_shot(*args, **kwargs)

        self.set(solver, "solve_ivp_dp", shot)
        self.set(periorbit.ivp, "solve_ivp_dp", self.span(
            "ivp.self_s", periorbit.ivp.solve_ivp_dp,
            lambda args, res: ivp_counts(res)))

        # solver
        def orbit_done(args, orbit):
            counts["solver.newton_steps"] += orbit.newton_steps

        for owner in (pkg, cli):
            self.set(owner, "find_periodic", self.span(
                "solver.find_periodic_self_s", owner.find_periodic,
                orbit_done))
        self.set(cli, "apply_T", self.span(APPLY_T, cli.apply_T))

        kernel = GreensFunction.kernel

        def kernel_counted(gf, t, s, branch="auto"):
            G, Gt = kernel(gf, t, s, branch)
            if self._in_apply_T():
                counts["solver.apply_T_kernel_entries"] += G.size
                counts["solver.apply_T_bytes_computed"] += G.nbytes + Gt.nbytes
            return G, Gt

        self.set(GreensFunction, "kernel", kernel_counted)

        # greens: kernel builds and positivity criteria
        def built(kind):
            def done(args, gf):
                counts[f"greens.builds_{kind}"] += 1
            return done

        for owner in (hyp, cli):
            self.set(owner, "closed_form_constant", self.span(
                "greens.build_self_s", owner.closed_form_constant,
                built("closed")))
            self.set(owner, "numeric_periodic_green", self.span(
                "greens.build_self_s", owner.numeric_periodic_green,
                built("numeric")))
        for name in ("check_A1", "check_A2", "check_chu"):
            self.set(hyp, name, self.span("greens.criteria_self_s",
                                          getattr(hyp, name)))

        # hypotheses
        for owner in (pkg, cli):
            self.set(owner, "certify", self.span(
                "hypotheses.certify_self_s", owner.certify))
        find_R = hyp.find_R

        def find_R_counted(*args, **kwargs):
            rs = find_R(*args, **kwargs)
            counts["hypotheses.find_R_evals"] += rs.evaluations
            return rs

        self.set(hyp, "find_R", find_R_counted)

        # quadrature
        def quad_done(args, out):
            counts["quadrature.calls"] += 1

        for owner, name in ((periorbit.expressions, "integrate_adaptive"),
                            (periorbit.expressions, "golden_min"),
                            (periorbit.greens, "integrate_adaptive"),
                            (periorbit.quadrature, "cumulative_integral")):
            self.set(owner, name, self.span(
                "quadrature.self_s", getattr(owner, name), quad_done))

        # front ends and transforms
        self.set(cli, "main", self.span("cli.self_s", cli.main))
        for name in ("phase_svg", "timeseries_svg"):
            self.set(cli, name, self.span("svgfig.self_s", getattr(cli, name)))
        for owner in (pkg, cli):
            self.set(owner, "parse_problem_text", self.span(
                "problemfile.parse_self_s", owner.parse_problem_text))
        self.set(cli, "to_y_equation", self.span("transform.self_s",
                                                 cli.to_y_equation))
        for name in ("x_from_y", "residual"):
            self.set(solver, name, self.span("transform.self_s",
                                             getattr(solver, name)))
        return self

    def deterministic_counts(self) -> dict:
        return {k: int(self.counts[k]) for k in DETERMINISTIC}


class MemoryProbe(_Patches):
    """Peak traced bytes inside apply_T and inside kernel builds."""

    def __init__(self):
        super().__init__()
        self.peak_mb = defaultdict(float)

    def _probe(self, key: str, fn):
        peak_mb = self.peak_mb

        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
                tracemalloc.stop()
                peak_mb[key] = max(peak_mb[key], peak)

        return wrapper

    def install(self) -> "MemoryProbe":
        cli, hyp = periorbit.cli, periorbit.hypotheses
        self.set(cli, "apply_T", self._probe("solver.apply_T_peak_mb",
                                             cli.apply_T))
        for owner in (hyp, cli):
            for name in ("closed_form_constant", "numeric_periodic_green"):
                self.set(owner, name, self._probe(
                    "greens.build_peak_mb", getattr(owner, name)))
        return self
