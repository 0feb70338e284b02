"""Adaptive and fixed Gauss quadrature, cumulative integrals, golden-section,
and the adaptive routine's bits against its depth-capped predecessor."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_example
from periorbit import expressions, greens, quadrature
from periorbit.greens import check_A2
from periorbit.quadrature import (
    QuadratureError,
    cumulative_integral,
    golden_min,
    integrate_adaptive,
)


def test_adaptive_known_integrals():
    assert integrate_adaptive(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)
    assert integrate_adaptive(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)
    assert integrate_adaptive(lambda t: t**10, 0.0, 2.0) == pytest.approx(
        2.0**11 / 11.0, rel=1e-14
    )
    assert integrate_adaptive(lambda t: np.cos(3.0 * t), 0.0, 2.0 * math.pi / 3.0) == (
        pytest.approx(0.0, abs=1e-13)
    )


def test_adaptive_default_budget_contract():
    """The error stays below 1e-10 * (b-a) * max|f|, against scipy's quad
    at 1e-14 where no closed form is given.  quad may warn that roundoff
    keeps it from 1e-14; its own error estimate must then still be far
    inside the contract."""
    from scipy.integrate import IntegrationWarning, quad

    cases = [
        (lambda t: np.exp(np.sin(5.0 * t)), 0.0, 3.0, None),
        (lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0, 2.0 / 5.0 * math.atan(5.0)),
        (lambda t: np.exp(-t) * np.cos(10.0 * t), 0.0, 4.0, None),
    ]
    for f, a, b, exact in cases:
        scale = float(np.max(np.abs(f(np.linspace(a, b, 4097)))))
        if exact is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                exact, err = quad(f, a, b, epsabs=1e-14, epsrel=1e-14,
                                  limit=200)
            assert err <= 1e-12 * (b - a) * scale
        got = integrate_adaptive(f, a, b)
        assert abs(got - exact) <= 1e-10 * (b - a) * scale


def test_adaptive_zero_span_and_reversed():
    assert integrate_adaptive(np.sin, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, 1.0, 0.0)


def test_adaptive_raises_when_budget_unreachable(monkeypatch):
    """An integrable singularity keeps the panels next to it above their
    share of the budget at every width (err ~ sqrt(width), share ~ tol *
    width), so the routine spends its _MAX_PANELS halvings and reports
    failure rather than returning a silently wrong value: one first panel
    and two a halving, however narrow the panels get."""
    cut = 1.0 / ((1.0 + math.sqrt(5.0)) / 2.0)  # irrational interior point
    panels = 0
    panel = quadrature._panel

    def counted(f, a, b):
        nonlocal panels
        panels += 1
        return panel(f, a, b)

    monkeypatch.setattr(quadrature, "_panel", counted)
    with pytest.raises(QuadratureError, match=r"no convergence on \["):
        integrate_adaptive(lambda t: 1.0 / np.sqrt(np.abs(t - cut)), 0.0, 1.0)
    assert panels <= 2 * quadrature._MAX_PANELS + 1


@settings(max_examples=140, deadline=None, derandomize=True)
@given(
    a0=st.floats(-2.0, 2.0),
    b0=st.floats(-3.0, 3.0),
    k=st.integers(1, 6),
    lo=st.floats(-4.0, 4.0),
    width=st.floats(0.1, 6.0),
    frac=st.floats(0.01, 0.99),
)
def test_adaptive_additivity(a0, b0, k, lo, width, frac):
    """Integral over [lo, hi] equals the sum over [lo, mid] + [mid, hi]."""

    def f(t):
        return a0 * np.sin(k * t) + b0 * t * t + 0.5 * np.cos(t)

    hi = lo + width
    mid = lo + frac * width
    whole = integrate_adaptive(f, lo, hi)
    parts = integrate_adaptive(f, lo, mid) + integrate_adaptive(f, mid, hi)
    scale = float(np.max(np.abs(f(np.linspace(lo, hi, 257))))) + 1.0
    assert abs(whole - parts) <= 1e-10 * width * scale


# ---------------------------------------------------------------------------
# bit identity with the depth-capped routine

# the package's own rule, so that the reference cannot drift from it by
# the last bit numpy's leggauss may round differently in another release;
# test_gauss_rule_is_leggauss_within_an_ulp ties the rule to leggauss
_REF_X, _REF_W = quadrature._X, quadrature._W


def _reference_panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _REF_X), dtype=float)
    return half * float(np.sum(_REF_W * vals))


def depth_capped_integrate(f, a, b):
    """integrate_adaptive as it stood with three stopping rules: the same
    per-panel budget and panel order, a cap of 48 halvings on each panel's
    depth, and acceptance of any panel narrower than 1e-15 * (b - a).  Every
    integral that converges must keep these bits under the panel budget."""
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    probe = np.asarray(f(np.linspace(a, b, 33)), dtype=float)
    tol = 1e-12 * (b - a) * (float(np.max(np.abs(probe))) + 1e-300)
    total = 0.0
    stack = [(a, b, _reference_panel(f, a, b), 0)]
    while stack:
        lo, hi, whole, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _reference_panel(f, lo, mid)
        right = _reference_panel(f, mid, hi)
        if not math.isfinite(left + right):
            raise QuadratureError(f"integral on [{lo}, {hi}] is not finite")
        err = abs(left + right - whole)
        if err <= tol * (hi - lo) / (b - a) or (hi - lo) <= 1e-15 * (b - a):
            total += left + right
        elif depth >= 48:
            raise QuadratureError(f"no convergence on [{lo}, {hi}]")
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    omega=st.floats(0.05, 10.0),
    shift=st.floats(-5.0, 5.0),
    c0=st.floats(-3.0, 3.0),
    modes=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                   min_size=1, max_size=5),
    exponentiate=st.booleans(),
    cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_adaptive_matches_depth_capped_reference_bit_for_bit(
        omega, shift, c0, modes, exponentiate, cut):
    """A smooth omega-periodic integrand, a trigonometric polynomial or the
    exponential of half of one, over a full period and over a sub-interval
    of one: the same bits as the depth-capped reference."""

    def f(t):
        u = 2.0 * math.pi / omega * np.asarray(t, dtype=float)
        s = c0 + sum(a * np.cos((j + 1) * u) + b * np.sin((j + 1) * u)
                     for j, (a, b) in enumerate(modes))
        return np.exp(0.5 * s) if exponentiate else s

    lo, hi = (shift + omega * x for x in sorted(cut))
    for a, b in ((shift, shift + omega), (lo, hi)):
        got = integrate_adaptive(f, a, b)
        assert got.hex() == depth_capped_integrate(f, a, b).hex()


def test_example_means_match_depth_capped_reference_bit_for_bit(monkeypatch):
    """Every mean(), mean_positive_part() and A2 log-mean of example41-43
    goes through integrate_adaptive, and each keeps the reference's bits."""
    seen = []

    def compared(f, a, b):
        got = integrate_adaptive(f, a, b)
        assert got.hex() == depth_capped_integrate(f, a, b).hex()
        seen.append(got)
        return got

    monkeypatch.setattr(expressions, "integrate_adaptive", compared)
    monkeypatch.setattr(greens, "integrate_adaptive", compared)
    for rho2 in (1.3, 2.0, 1.5):
        spec = make_example(rho2)
        for coeff in (spec.p, spec.q, spec.b, spec.c, spec.e, spec.l):
            coeff.mean()
            coeff.mean_positive_part()
        assert check_A2(spec.p, spec.l).applicable
    assert len(seen) >= 30


# ---------------------------------------------------------------------------
# the Gauss rule's literals


def test_gauss_rule_is_leggauss_within_an_ulp():
    x, w = np.polynomial.legendre.leggauss(12)
    assert np.all(np.abs(quadrature._X - x) <= np.spacing(np.abs(x)))
    assert np.all(np.abs(quadrature._W - w) <= np.spacing(w))


def test_gauss_rule_is_exact_on_powers_to_degree_23():
    """A 12-point Gauss rule integrates x^k over [-1, 1] exactly for
    k <= 23, up to rounding, and misses x^24 by far more than rounding."""
    for k in range(24):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = float(np.dot(quadrature._W, quadrature._X ** k))
        assert abs(got - exact) <= 1e-15
    miss = float(np.dot(quadrature._W, quadrature._X ** 24)) - 2.0 / 25
    assert abs(miss) > 1e-9


def test_import_leaves_numpy_polynomial_unloaded():
    """The rule is written out, so importing the package does not import
    numpy.polynomial, whose leggauss calls LAPACK."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                          / "src"))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, periorbit; "
         "print('numpy.polynomial' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_cumulative_integral_matches_antiderivative():
    grid = np.linspace(0.0, 3.0, 41)
    out = cumulative_integral(np.cos, grid)
    assert out.shape == grid.shape
    assert out[0] == 0.0
    assert np.max(np.abs(out - np.sin(grid))) < 1e-12
    # nonuniform ascending grid
    grid2 = np.sqrt(np.linspace(0.0, 9.0, 33))
    out2 = cumulative_integral(lambda t: np.exp(t), grid2)
    assert np.max(np.abs(out2 - (np.exp(grid2) - 1.0))) < 1e-11


def test_golden_min_quadratic():
    t, v = golden_min(lambda u: (u - 1.234) ** 2 + 5.0, 0.0, 3.0)
    # near a quadratic minimum f is flat to rounding within ~sqrt(eps), so the
    # argmin is only locatable to ~1e-7 while the value itself is sharp
    assert t == pytest.approx(1.234, abs=1e-6)
    assert v == pytest.approx(5.0, abs=1e-12)


def test_golden_min_boundary():
    t, v = golden_min(lambda u: u, 0.25, 1.0, tol=1e-12)
    assert t == pytest.approx(0.25, abs=1e-9)
    assert v == pytest.approx(0.25, abs=1e-9)
