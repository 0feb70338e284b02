"""The three benchmark workloads: seeded inputs, one operation, its checks.

Each workload holds a list of items; one round runs every item once.  The
runner executes whole rounds, so every run of a workload has the same
composition whatever its length.  ``execute`` is the timed call into
periorbit's public entry points; ``check`` runs afterwards, untimed, and
raises CheckFailed when the output is wrong.  The program only ever receives problem texts (or bundled
instance names on the command line), never objects built here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
from dataclasses import dataclass

import periorbit
import periorbit.cli

CASES = ("T3.1", "T3.2", "T3.3-I", "T3.3-II")


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Instance:
    """A generated problem text plus the facts the checks compare against,
    all known from the generator's own parameters."""

    text: str
    case: str
    kernel: str          # "closed-form" or "numeric"
    rho1: float
    rho2: float
    b_min_plus_c_min: float
    e_min: float
    e_max: float
    omega: float


def _problem_text(omega, p, q, b, c, e, rho1, rho2) -> str:
    return (f"omega = {omega}\np = {p}\nq = {q}\nb = {b}\nc = {c}\n"
            f"e = {e}\nrho1 = {rho1!r}\nrho2 = {rho2!r}\n")


def _mix(values) -> str:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return ", ".join(f"{k} x{n}" for k, n in sorted(counts.items()))


def _check_theorem(cert, inst: Instance) -> None:
    expected = periorbit.theorem_for(inst.rho1, inst.rho2,
                                     inst.b_min_plus_c_min)
    _expect(cert.theorem == expected,
            f"theorem {cert.theorem}, expected {expected}")


class _Workload:
    items: list
    texts: list

    def warm_up(self) -> None:
        """Untimed first call, so one-off import and cache costs stay out
        of the first operation."""
        periorbit.certify(periorbit.parse_problem_text(self.texts[0]).spec)

    def describe(self) -> str:
        return (f"{len(self.items)} texts per round; "
                f"theorems {_mix(i.case for i in self.items)}; kernels "
                f"{_mix(i.kernel for i in self.items)}")

    def counters(self, item, outcome) -> dict:
        return {}


# ---------------------------------------------------------------------------
# bundled-cli


class BundledCli(_Workload):
    """The CLI on the three bundled instances.  One operation is one
    command, run through cli.main with a scratch --out directory of its
    own; a round runs check, greens, solve --svg and reproduce for each of
    the three instances, twelve commands.

    The inputs are fixed; the seed only shuffles the command order.  Every
    round repeats the same commands, so each command's sidecars must be
    byte-identical across rounds."""

    name = "bundled-cli"

    def __init__(self, seed: int, workdir: str, src: str):
        rng = random.Random(seed)
        items = []
        for stem, rid in (("example41", "4.1"), ("example42", "4.2"),
                          ("example43", "4.3")):
            items += [("check", stem), ("greens", stem),
                      ("solve", stem, "--svg"), ("reproduce", rid)]
        rng.shuffle(items)
        self.items = items
        self.outdir = os.path.join(workdir, "out")
        self.digests: dict = {}
        problems = os.path.join(src, "periorbit", "problems")
        self.texts = []
        for stem in ("example41", "example42", "example43"):
            with open(os.path.join(problems, f"{stem}.problem"),
                      encoding="utf-8") as fh:
                self.texts.append(fh.read())

    def describe(self) -> str:
        return (f"{len(self.items)} commands per round; order "
                + ", ".join(" ".join(c) for c in self.items))

    def execute(self, cmd):
        out_dir = os.path.join(self.outdir, "-".join(cmd))
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = periorbit.cli.main(["--out", out_dir, *cmd])
        return out_dir, code, out.getvalue(), err.getvalue()

    @staticmethod
    def _expected_files(cmd) -> set:
        verb, arg = cmd[0], cmd[1]
        if verb == "check":
            return {f"{arg}.certificate.json"}
        if verb == "greens":
            return {f"{arg}.greens.csv"}
        if verb == "solve":
            return {f"{arg}.orbit.csv", f"{arg}.phase.svg",
                    f"{arg}.timeseries.svg"}
        return {"reproduce.json"}

    def check(self, cmd, outcome) -> None:
        out_dir, code, out, err = outcome
        label = " ".join(cmd)
        _expect(code == 0, f"{label}: exit code {code}: {err.strip()}")
        if cmd[0] == "reproduce":
            _expect(f"[{cmd[1]}] PASS" in out.splitlines()
                    and out.rstrip().endswith("ALL PASS"),
                    f"{label}: reproduce did not print PASS")
        files = set(os.listdir(out_dir))
        _expect(files == self._expected_files(cmd),
                f"{label}: sidecars {sorted(files)}")
        digest = {}
        for name in sorted(files):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digest[name] = hashlib.sha256(fh.read()).hexdigest()
        first = self.digests.setdefault(cmd, digest)
        _expect(digest == first, f"{label}: sidecars differ from the "
                                 f"first run of the command")

    def counters(self, cmd, outcome) -> dict:
        out_dir, code, out, err = outcome
        written = len(out.encode("utf-8"))
        for name in os.listdir(out_dir):
            written += os.path.getsize(os.path.join(out_dir, name))
        return {"cli.bytes_written": written}


# ---------------------------------------------------------------------------
# family-solve


def _family_instance(rng: random.Random, case: str, numeric: bool) -> Instance:
    """A converging instance on omega = 2 pi/3 realising ``case``.

    Parameters are rounded to four decimals before use, so the text and the
    minima the checks compare against hold the same numbers.  Only sin, cos
    and exp appear: the parser accepts no other function."""
    u = lambda lo, hi: round(rng.uniform(lo, hi), 4)
    if case == "T3.1":
        rho1, rho2 = u(1.3, 1.8), u(0.8, 1.2)
    elif case == "T3.2":
        rho1, rho2 = u(1.2, 1.6), u(1.8, 2.4)
    else:
        rho1 = rho2 = u(1.2, 1.8)
    c0, ca = u(0.8, 1.5), u(0.5, 1.5)
    c_min = c0 * math.exp(-ca)
    if case == "T3.3-I":
        b0 = u(0.5, 1.5)
        b1 = round(b0 * rng.uniform(0.0, 0.5), 4)
    elif case == "T3.3-II":
        b0 = u(0.5, 1.0)
        b1 = round(b0 + c_min + rng.uniform(0.5, 1.5), 4)
    else:
        b0, b1 = u(0.5, 1.5), u(0.5, 2.5)
    e0, e1 = u(8.0, 12.0), u(0.2, 1.5)
    q0 = u(0.02, 0.035)
    if numeric:
        p = f"{u(0.02, 0.1)!r} + {u(0.01, 0.05)!r}*cos(3*t)"
        q = f"{q0!r} + {u(0.003, 0.01)!r}*sin(3*t)"
    else:
        p, q = "0", repr(q0)
    text = _problem_text("2*pi/3", p, q, f"{b0!r} + {b1!r}*cos(3*t)",
                         f"{c0!r}*exp({ca!r}*sin(3*t))",
                         f"{e0!r} + {e1!r}*cos(3*t)", rho1, rho2)
    inst = Instance(text=text, case=case,
                    kernel="numeric" if numeric else "closed-form",
                    rho1=rho1, rho2=rho2, b_min_plus_c_min=b0 - b1 + c_min,
                    e_min=e0 - e1, e_max=e0 + e1, omega=2.0 * math.pi / 3.0)
    if periorbit.theorem_for(rho1, rho2, inst.b_min_plus_c_min) != case:
        raise AssertionError(f"generator missed case {case}")
    return inst


class FamilySolve(_Workload):
    """Generated instances through parse, certify and find_periodic(1e-8).

    A round is 20 texts: 8 with varying p and q (numeric kernel, A2 and CHU
    criteria) and 12 with p = 0 and constant q (closed-form kernel), five
    per theorem case, in seeded order.  The fixed stratification keeps the
    cost of a round steady across seeds."""

    name = "family-solve"
    TOL = 1e-8

    def __init__(self, seed: int, workdir: str, src: str):
        rng = random.Random(seed)
        plan = [(CASES[i % 4], True) for i in range(8)]
        plan += [(CASES[i % 4], False) for i in range(12)]
        items = [_family_instance(rng, case, numeric)
                 for case, numeric in plan]
        rng.shuffle(items)
        self.items = items
        self.texts = [it.text for it in items]

    def execute(self, inst: Instance):
        problem = periorbit.parse_problem_text(inst.text)
        cert = periorbit.certify(problem.spec, a1=problem.a1)
        orbit = periorbit.find_periodic(problem.spec, tol=self.TOL)
        return cert, orbit

    def check(self, inst: Instance, outcome) -> None:
        cert, orbit = outcome
        _check_theorem(cert, inst)
        _expect(cert.greens is not None and cert.greens.source == inst.kernel,
                f"kernel {cert.greens and cert.greens.source}, "
                f"expected {inst.kernel}")
        _expect(orbit.periodicity_residual <= self.TOL,
                f"periodicity residual {orbit.periodicity_residual:.3e}")
        _expect(orbit.min_x > 0.0, f"min x {orbit.min_x:.6g}")
        _expect(orbit.ode_residual <= 1e-4 * inst.e_max,
                f"ODE residual {orbit.ode_residual:.3e}")


# ---------------------------------------------------------------------------
# solve-failure


class SolveFailure(_Workload):
    """Instances with no periodic orbit: x'' = x + lam^2/x + lam on
    omega = 0.05 (p = b = 0, q = -1, rho2 = 1).  Since x + lam^2/x >= 2 lam,
    v gains at least 3 lam omega per period, so every Newton start fails.

    A round is three texts, one per theorem label the family reaches, in
    seeded order; the seed draws each text's lam (log-uniform on [1, 8])
    and rho1.  With b = 0, rho1 moves only the certificate's theorem label,
    not the flow; x = lam X maps every instance onto lam = 1, so the
    failure path does about the same work on every seed.  The short period
    keeps each shot short, so a run repeats every text several times."""

    name = "solve-failure"
    OMEGA = 0.05
    RHO1 = {"T3.1": (1.2, 2.0), "T3.2": (0.5, 0.9), "T3.3-I": (1.0, 1.0)}

    def __init__(self, seed: int, workdir: str, src: str):
        rng = random.Random(seed)
        cases = list(self.RHO1)
        rng.shuffle(cases)
        items = []
        for case in cases:
            lam = round(math.exp(rng.uniform(0.0, math.log(8.0))), 4)
            rho1 = round(rng.uniform(*self.RHO1[case]), 4)
            text = _problem_text(repr(self.OMEGA), "0", "-1", "0",
                                 repr(round(lam * lam, 8)), repr(lam),
                                 rho1, 1.0)
            items.append(Instance(text=text, case=case, kernel="numeric",
                                  rho1=rho1, rho2=1.0,
                                  b_min_plus_c_min=lam * lam, e_min=lam,
                                  e_max=lam, omega=self.OMEGA))
        self.items = items
        self.texts = [it.text for it in items]

    def execute(self, inst: Instance):
        problem = periorbit.parse_problem_text(inst.text)
        cert = periorbit.certify(problem.spec, a1=problem.a1)
        try:
            periorbit.find_periodic(problem.spec, tol=1e-8)
        except periorbit.NoConvergenceError as err:
            return cert, err
        return cert, None

    def check(self, inst: Instance, outcome) -> None:
        cert, err = outcome
        _check_theorem(cert, inst)
        _expect(not cert.verdict, "certificate verdict is true")
        _expect(err is not None, "find_periodic converged")
        _expect(err.best_residual >= inst.e_min * inst.omega,
                f"best residual {err.best_residual:.6g} below "
                f"e_min*omega = {inst.e_min * inst.omega:.6g}")


WORKLOADS = {w.name: w for w in (BundledCli, FamilySolve, SolveFailure)}
