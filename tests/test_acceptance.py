"""Acceptance gate: every shipped claim, checked at its stated tolerance.

One test per criterion; each prints exactly one PASS/FAIL line (written to
the unbuffered terminal stream so it shows up inline in `pytest -v` logs)
and asserts the same condition.
"""

import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import OMEGA, make_example, pc
from kernel_oracles import (
    diagonal_jump_error,
    homogeneous_residual,
    periodicity_mismatch,
)
from periorbit import certify, find_periodic
from periorbit.greens import closed_form_constant, numeric_periodic_green
from periorbit.solver import apply_T
from periorbit.transform import to_y_equation
from periorbit import cli

ROOT = Path(__file__).resolve().parents[1]

XI = 0.25
S3 = math.sqrt(3.0)
G_MAX_EXACT = 4.0 / math.sqrt(2.0 - S3)
G_MIN_EXACT = 2.0 * math.sqrt(2.0 + S3) / math.sqrt(2.0 - S3)
GT_REPORTED = math.sqrt(2.0 - S3) / 2.0
B_PLUS_MEAN_EXACT = 2.0 / 3.0 + S3 / math.pi

# coefficient extrema of the shared worked instance, by hand:
#   b = 1 + 2 cos 3t, c = exp(2 sin 3t), e = 10 + cos 3t
B_MIN, C_MIN, E_MIN, E_MAX = -1.0, math.exp(-2.0), 9.0, 11.0
ALPHA = 0.4  # 1 / (1 + 3/2)


@pytest.fixture()
def report(capsys):
    """Print one PASS/FAIL line per criterion on the live terminal, then
    assert the same condition."""

    def _report(criterion: str, ok: bool, detail: str) -> None:
        line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _report


def test_criterion_01_closed_form_kernel_constants(report):
    start = time.perf_counter()
    gf = closed_form_constant(XI, OMEGA)
    elapsed = time.perf_counter() - start
    err_max = abs(gf.g_max - G_MAX_EXACT)
    err_min = abs(gf.g_min - G_MIN_EXACT)
    ok = err_max <= 1e-6 and err_min <= 1e-6 and elapsed < 1.0
    report(
        "1 kernel constants",
        ok,
        f"g_max err {err_max:.2e}, g_min err {err_min:.2e}, {elapsed:.3f}s",
    )


def test_criterion_02_numeric_kernel_cross_check(report):
    start = time.perf_counter()
    num = numeric_periodic_green(pc("0"), pc(repr(XI * XI)), OMEGA, n=100)
    ref = closed_form_constant(XI, OMEGA, n=100)
    gap = max(
        float(np.max(np.abs(num.G - ref.G))),
        float(np.max(np.abs(num.Gt - ref.Gt))),
    )
    homog = homogeneous_residual(num, 0.0, XI * XI)
    period = periodicity_mismatch(num)
    rng = np.random.default_rng(20240817)
    jump = float(
        np.max(diagonal_jump_error(num, rng.uniform(0.05 * OMEGA, 0.95 * OMEGA, 25)))
    )
    elapsed = time.perf_counter() - start
    ok = (
        num.G.shape == (101, 101)
        and gap <= 1e-6
        and homog <= 1e-4
        and period <= 1e-6
        and jump <= 1e-4
        and elapsed < 5.0
    )
    report(
        "2 numeric kernel cross-check",
        ok,
        f"grid gap {gap:.2e}, ODE {homog:.2e}, period {period:.2e}, "
        f"jump {jump:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_slope_discrepancy_and_contraction_margin(
    report, cert41, tmp_path, capsys
):
    # independent dense scan of |dG/dt| over both branches of the kernel
    # both kernel branches reduce to the same offset in t - s over one period
    tau = np.linspace(0.0, OMEGA, 1_000_001)
    den = 2.0 * XI * math.sin(0.5 * XI * OMEGA)
    scan = float(np.max(np.abs(-XI * np.sin(XI * (tau - 0.5 * OMEGA)) / den)))
    scan_ok = abs(scan - 0.5) <= 1e-4

    code = cli.main(["--out", str(tmp_path), "reproduce", "4.1"])
    out = capsys.readouterr().out
    both_printed = (
        code == 0
        and "slope max computed 0.5" in out
        and "reference 0.25881904510252079" in out
    )

    h2_computed = cert41.computed.checks["H2"]
    h2_reported = cert41.reported.checks["H2"]
    h2_ok = (
        h2_computed.ok
        and h2_reported.ok
        and h2_computed.value < 1.0
        and h2_reported.value < 1.0
        and abs(h2_computed.value / 0.0511 - 1.0) <= 0.10
        and abs(h2_reported.value / 0.0129 - 1.0) <= 0.10
    )
    ok = scan_ok and both_printed and h2_ok
    report(
        "3 slope discrepancy",
        ok,
        f"scan {scan:.6f}, both constants printed {both_printed}, "
        f"margins {h2_computed.value:.4f}/{h2_reported.value:.4f}",
    )


def test_criterion_04_positive_part_mean(report, spec43):
    value = spec43.b.mean_positive_part()
    err = abs(value - B_PLUS_MEAN_EXACT)
    report("4 positive-part mean", err <= 1e-9, f"value {value!r}, err {err:.2e}")


def _reported_sigma() -> float:
    return G_MIN_EXACT / (G_MAX_EXACT + GT_REPORTED)


def _small_floor(numerator: float, sigma: float) -> float:
    return (numerator / E_MIN) ** (1.0 / (1.0 - ALPHA)) / sigma


def _window_oracle(rho2: float, kind: str) -> tuple[float, float]:
    """Hand-evaluated admissible-radius windows under the reported slope."""
    sigma = _reported_sigma()
    if kind == "H1":
        ec = 1.0 - ALPHA - ALPHA * rho2
        lo = _small_floor(-B_MIN, sigma)
        hi = (G_MIN_EXACT * C_MIN * OMEGA * sigma**ec / ALPHA) ** (
            1.0 / (ALPHA + ALPHA * rho2)
        )
    elif kind == "H3":
        lo = _small_floor(-B_MIN, sigma)
        hi = (G_MIN_EXACT * C_MIN * OMEGA / ALPHA) ** (1.0 / (ALPHA + ALPHA * rho2))
    else:  # H4
        lo = _small_floor(-(B_MIN + C_MIN), sigma)
        hi = G_MIN_EXACT * B_PLUS_MEAN_EXACT * OMEGA / ALPHA
    return lo, hi


def test_criterion_05_certificates_and_radius_windows(report, cert41, cert42, cert43):
    cases = [
        ("4.1", cert41, "T3.1", _window_oracle(1.3, "H1")),
        ("4.2", cert42, "T3.2", _window_oracle(2.0, "H3")),
        ("4.3", cert43, "T3.3-II", _window_oracle(1.5, "H4")),
    ]
    ok = True
    details = []
    for key, cert, label, (lo_ref, hi_ref) in cases:
        interval = cert.reported.r_interval
        good = (
            cert.theorem == label
            and cert.verdict is True
            and cert.computed.verdict
            and cert.reported.verdict
            and interval is not None
            and interval[0] < interval[1]
            and abs(interval[0] / lo_ref - 1.0) <= 0.01
            and abs(interval[1] / hi_ref - 1.0) <= 0.01
        )
        ok = ok and good
        details.append(
            f"{key} {cert.theorem} [{interval[0]:.4g}, {interval[1]:.4g}]"
            if interval
            else f"{key} {cert.theorem} no window"
        )
    report("5 certification", ok, "; ".join(details))


def test_criterion_06_periodic_orbits_within_references(report):
    refs = [(1.3, 399.93015), (2.0, 399.8941), (1.5, 399.9045)]
    ok = True
    details = []
    for rho2, x0_ref in refs:
        start = time.perf_counter()
        orbit = find_periodic(make_example(rho2), tol=1e-8)
        elapsed = time.perf_counter() - start
        good = (
            elapsed < 30.0
            and orbit.periodicity_residual <= 1e-8
            and orbit.min_x > 0.0
            and orbit.ode_residual <= 1e-4 * E_MAX
            and abs(orbit.initial.x - x0_ref) <= 0.5
        )
        ok = ok and good
        details.append(f"x0 {orbit.initial.x:.5f} (ref {x0_ref}) {elapsed:.1f}s")
    report("6 periodic orbits", ok, "; ".join(details))


def test_criterion_07_operator_fixed_point_consistency(
    report, spec41, spec42, spec43, cert41, cert42, cert43,
    orbit41, orbit42, orbit43
):
    triples = [
        (spec41, cert41, orbit41),
        (spec42, cert42, orbit42),
        (spec43, cert43, orbit43),
    ]
    errors = []
    for spec, cert, orbit in triples:
        ty = apply_T(cert.greens, to_y_equation(spec), orbit.y_path)
        num = float(np.max(np.abs(orbit.y_path.x - ty.x))) + float(
            np.max(np.abs(orbit.y_path.v - ty.v))
        )
        errors.append(num / orbit.norm_y)
    ok = all(e <= 1e-3 for e in errors)
    report(
        "7 operator fixed point",
        ok,
        "rel errors " + ", ".join(f"{e:.2e}" for e in errors),
    )


_PROPERTY_SUITES = [
    ("tests/test_quadrature.py", "test_adaptive_additivity"),
    ("tests/test_expressions.py", "test_extrema_bound_analytic_oracle"),
    ("tests/test_expressions.py", "test_derivative_matches_finite_differences"),
    ("tests/test_transform.py", "test_round_trip_recovers_path"),
    ("tests/test_solver.py", "test_poincare_shift_property"),
]


def _configured_examples(fname: str, func: str) -> int:
    text = (ROOT / fname).read_text()
    before = text[: text.index(f"def {func}(")]
    return int(re.findall(r"max_examples=(\d+)", before)[-1])


def test_criterion_08_randomized_property_suites(report):
    counts = [_configured_examples(f, fn) for f, fn in _PROPERTY_SUITES]
    node_ids = [f"{f}::{fn}" for f, fn in _PROPERTY_SUITES]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    ok = (
        all(c >= 100 for c in counts)
        and proc.returncode == 0
        and f"{len(node_ids)} passed" in proc.stdout
    )
    report(
        "8 property suites",
        ok,
        f"cases per suite {counts}, exit {proc.returncode}",
    )
