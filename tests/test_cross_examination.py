"""The certificate and the orbit cross-examined on generated families.

certify and find_periodic compute independently, and each says something
about the other: the fixed point of the kernel operator T that a
certificate promises lies in its cone, { y : min y >= sigma ||y||,
|y'| <= delta y }, and in its radius window [r_lo, R], and a converged orbit
mapped to y = x^(1/alpha) is that fixed point.  The texts are the benchmark's
family-solve texts of seeds 41-50, 200 over all four theorem cases and both
kernel sources, drawn by its own generator.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from periorbit import certify, find_periodic, parse_problem_text
from periorbit.solver import apply_T, cone_check
from periorbit.transform import to_y_equation

BENCH = Path(__file__).resolve().parents[1] / "bench"
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
