"""Adaptive and fixed Gauss quadrature, cumulative integrals, golden-section."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_adaptive_raises_when_budget_unreachable():
    """An integrable singularity keeps the per-panel error above its share of
    the budget at every depth, so the routine reports failure rather than
    returning a silently wrong value."""
    cut = 1.0 / ((1.0 + math.sqrt(5.0)) / 2.0)  # irrational interior point
    with pytest.raises(QuadratureError, match="no convergence"):
        # err(singular panel) ~ sqrt(width) while its budget share is
        # tol * width, so no budget can ever be met near the cut
        integrate_adaptive(lambda t: 1.0 / np.sqrt(np.abs(t - cut)), 0.0, 1.0)


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
