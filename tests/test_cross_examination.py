"""The certificate and the orbit cross-examined on generated families.

certify and find_periodic compute independently, and each says something
about the other: the fixed point of the kernel operator T that a
certificate promises lies in its cone, { y : min y >= sigma ||y||,
|y'| <= delta y }, and in its radius window [r_lo, R], and a converged orbit
mapped to y = x^(1/alpha) is that fixed point.  The texts are the benchmark's
family-solve texts of seeds 41-50, 200 over all four theorem cases and both
kernel sources, drawn by its own generator.

The sign test that stops find_periodic before its first shot
(ProblemSpec.sign_obstruction) is cross-examined against the Newton
search it replaces: on random texts where it fires, Newton converges from
none of the five starts; it fires on every solve-failure text of the
benchmark and on no family-solve or bundled text.
"""

import importlib
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from kernel_oracles import table_extremes
from periorbit import certify, find_periodic, parse_problem_text
from periorbit.greens import _SEED_GRID, kernel_for
from periorbit.solver import (_START_FACTORS, _amplitude_scale, _Flow,
                              _newton, apply_T, cone_check)
from periorbit.transform import to_y_equation

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SEEDS = range(41, 51)
FIXED_POINT_BOUND = 1e-6


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


def _items(workloads, seed):
    return workloads.FamilySolve(seed, workdir=None, src=None).items


def test_the_family_covers_every_case_and_both_kernel_sources(workloads):
    items = [it for seed in SEEDS for it in _items(workloads, seed)]
    assert len(items) >= 200
    assert {(it.case, it.kernel) for it in items} == {
        (case, kernel) for case in workloads.CASES
        for kernel in ("closed-form", "numeric")}


def test_family_kernel_constants_hold_their_seed_table(workloads):
    """The 8 numeric kernels of seed 41: each constant is at least as
    extreme as the seed table it is scanned from."""
    numeric = [it for it in _items(workloads, 41) if it.kernel == "numeric"]
    assert len(numeric) == 8
    for inst in numeric:
        spec = parse_problem_text(inst.text).spec
        gf = kernel_for(spec.p, spec.l, spec.omega)
        assert gf.source == "numeric", inst.text
        g_min, g_max, gt_max = table_extremes(gf, _SEED_GRID)
        assert gf.g_min <= g_min and gf.g_max >= g_max, inst.text
        assert gf.gt_max >= gt_max, inst.text


@pytest.mark.parametrize("seed", SEEDS)
def test_certified_family_orbits_are_fixed_points_in_the_cone(workloads,
                                                             seed):
    """Certified => converged; the orbit in the cone of the computed
    constants, r_lo <= ||y|| <= R, and ||y - Ty|| <= 1e-6 ||y||."""
    for inst in _items(workloads, seed):
        problem = parse_problem_text(inst.text)
        cert = certify(problem.spec, a1=problem.a1)
        assert cert.verdict, inst.text
        ev = cert.computed
        orbit = find_periodic(problem.spec, tol=workloads.FamilySolve.TOL)
        y = orbit.y_path
        cone = cone_check(y, ev.constants.sigma, ev.constants.delta)
        assert cone.in_cone, (inst.text, cone)
        assert ev.r_interval[0] <= orbit.norm_y <= ev.r_witness.R, inst.text
        ty = apply_T(cert.greens, to_y_equation(problem.spec), y)
        error = (float(np.max(np.abs(y.x - ty.x)))
                 + float(np.max(np.abs(y.v - ty.v)))) / orbit.norm_y
        assert error <= FIXED_POINT_BOUND, (inst.text, error)


# ---------------------------------------------------------------------------
# the sign test against the Newton search


def _absent_text(rng: random.Random) -> str:
    """A text on omega = 2 pi/m with max(q - p') <= 0 and min b >= 0.

    q - p' = q0 + q1 sin(mt) - a1 m cos(mt) peaks at q0 + hypot(q1, a1 m),
    so q0 at or below minus that amplitude keeps it non-positive; one text
    in five takes p and q constant with q = 0, where the peak is 0."""
    u = lambda lo, hi: round(rng.uniform(lo, hi), 4)
    m = rng.randint(12, 40)
    a0, a1, q1 = u(-1.0, 1.0), u(-0.05, 0.05), u(-1.0, 1.0)
    if rng.random() < 0.2:
        a1 = q0 = q1 = 0.0
    else:
        amp = math.hypot(q1, a1 * m)
        q0 = -math.ceil(amp * rng.uniform(1.0, 2.0) * 1e4) / 1e4
    b0 = u(0.0, 2.0)
    b1 = round(b0 * rng.uniform(-1.0, 1.0), 4)
    e0 = u(0.5, 10.0)
    e1 = round(e0 * rng.uniform(-0.9, 0.9), 4)
    return (f"omega = 2*pi/{m}\np = {a0!r} + {a1!r}*sin({m}*t)\n"
            f"q = {q0!r} + {q1!r}*sin({m}*t)\n"
            f"b = {b0!r} + {b1!r}*cos({m}*t)\n"
            f"c = {u(0.2, 2.0)!r}*exp({u(0.0, 1.5)!r}*sin({m}*t))\n"
            f"e = {e0!r} + {e1!r}*cos({m}*t)\n"
            f"rho1 = {u(0.3, 2.5)!r}\nrho2 = {u(0.3, 2.5)!r}\n")


def _obstruction(text: str):
    spec = parse_problem_text(text).spec
    spec.check_ranges()
    return spec.sign_obstruction()


@pytest.mark.parametrize("seed", range(5))
def test_newton_converges_nowhere_the_sign_test_fires(seed):
    """Ten random texts a seed, 50 in all, each caught by the sign test:
    Newton, from each of find_periodic's five starts, never converges."""
    rng = random.Random(seed)
    for _ in range(10):
        text = _absent_text(rng)
        spec = parse_problem_text(text).spec
        spec.check_ranges()
        top, b_min = spec.sign_obstruction()
        assert top <= 0.0 <= b_min, text
        flow = _Flow(spec)
        for factor in _START_FACTORS:
            *_, stop, _ = _newton(flow, _amplitude_scale(spec) * factor, 0.0,
                                  1e-8)
            assert stop is not None, (text, factor)


def test_sign_test_fires_on_every_solve_failure_text(workloads):
    for seed in SEEDS:
        for inst in workloads.SolveFailure(seed, workdir=None,
                                           src=None).items:
            assert _obstruction(inst.text) == (-1.0, 0.0), inst.text


def test_sign_test_fires_on_no_family_or_bundled_text(workloads):
    texts = [it.text for seed in SEEDS for it in _items(workloads, seed)]
    texts += [(ROOT / "src" / "periorbit" / "problems"
               / f"{stem}.problem").read_text(encoding="utf-8")
              for stem in ("example41", "example42", "example43")]
    assert len(texts) == 203
    for text in texts:
        assert _obstruction(text) is None, text
