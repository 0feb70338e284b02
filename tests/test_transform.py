"""Substitution x = y^alpha: exponents, classification, paths, residuals."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OMEGA, make_cheap_spec, make_constant_spec, make_example, pc
from periorbit import ProblemSpec
from periorbit.transform import (
    ORIGINAL,
    TRANSFORMED,
    PositivityError,
    SampledPath,
    residual,
    to_y_equation,
    x_from_y,
)


def test_exponents_on_worked_instances():
    t41 = to_y_equation(make_example(1.3))
    assert t41.spec.alpha == pytest.approx(0.4, rel=1e-15)
    assert t41.k == pytest.approx(2.5, rel=1e-15)
    # exponent of the repulsive image: 1 - alpha - alpha*rho2
    assert t41.exponent_c == pytest.approx(0.08, abs=1e-14)
    assert t41.exponent_e == pytest.approx(0.6, rel=1e-14)
    assert t41.gradient_factor == pytest.approx(0.6, rel=1e-14)

    t42 = to_y_equation(make_example(2.0))
    assert t42.exponent_c == pytest.approx(-0.2, abs=1e-14)

    t43 = to_y_equation(make_example(1.5))
    assert t43.exponent_c == pytest.approx(0.0, abs=1e-14)


def test_linear_coefficient_is_q_over_alpha():
    """spec.l is q/alpha, and k q to the bit, with k = 1/alpha the factor
    to_y_equation applies to c, e and b."""
    spec = dataclasses.replace(make_example(1.3), q=pc("1/40+1/80*sin(3*t)"))
    k = to_y_equation(spec).k
    ts = np.linspace(0.0, OMEGA, 33)
    assert np.allclose(spec.l(ts), spec.q(ts) / spec.alpha, rtol=1e-13)
    assert np.array_equal(spec.l(ts), k * spec.q(ts))
    assert spec.l.omega == spec.omega


@pytest.mark.parametrize("rho1", [0.5, 1.0, 1.5, 2.0, 7.0 / 3.0])
def test_alpha_inverts_exponent_sum(rho1):
    a = dataclasses.replace(make_example(1.3), rho1=rho1).alpha
    assert abs(a * (1.0 + rho1) - 1.0) < 5e-16


def test_x_from_y_trivial():
    t = np.linspace(0.0, 1.0, 5)
    path = SampledPath(t=t, x=np.full(5, 4.0), v=np.zeros(5))
    out = x_from_y(path, 0.5)
    assert np.allclose(out.x, 2.0, rtol=0.0, atol=0.0)
    assert np.all(out.v == 0.0)
    one = x_from_y(SampledPath(t=t, x=np.ones(5), v=np.zeros(5)), 0.37)
    assert np.all(one.x == 1.0)


def test_x_from_y_rejects_nonpositive():
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(PositivityError):
        x_from_y(SampledPath(t=t, x=np.array([1.0, 0.0, 1.0]), v=np.zeros(3)), 0.5)


@settings(max_examples=140, deadline=None, derandomize=True)
@given(
    base=st.floats(0.5, 50.0),
    amp=st.floats(0.0, 0.4),
    k=st.integers(1, 4),
    alpha=st.floats(0.1, 0.9),
)
def test_round_trip_recovers_path(base, amp, k, alpha):
    """Applying the power map and its inverse returns the original samples."""
    t = np.linspace(0.0, OMEGA, 257)
    x = base * (1.0 + amp * np.sin(k * 3.0 * t))
    v = base * amp * 3.0 * k * np.cos(k * 3.0 * t)
    path = SampledPath(t=t, x=x, v=v)
    y_path = x_from_y(path, 1.0 / alpha)  # x -> y = x^(1/alpha)
    back = x_from_y(y_path, alpha)        # y -> x = y^alpha
    scale = float(np.max(np.abs(x))) + float(np.max(np.abs(v)))
    assert np.max(np.abs(back.x - x)) <= 1e-12 * scale
    assert np.max(np.abs(back.v - v)) <= 1e-12 * scale


def test_residual_zero_at_equilibrium():
    """The constant instance has an exact equilibrium x = (3+sqrt(13))/2;
    both the original and the transformed defect vanish there."""
    spec = make_constant_spec()
    xbar = (3.0 + math.sqrt(13.0)) / 2.0
    t = np.linspace(0.0, OMEGA, 101)
    path = SampledPath(t=t, x=np.full(t.size, xbar), v=np.zeros(t.size))
    assert residual(spec, path, ORIGINAL) <= 1e-8
    y_path = x_from_y(path, 1.0 / spec.alpha)
    assert residual(spec, y_path, TRANSFORMED) <= 1e-8


def test_residual_negative_control():
    """A path that plainly does not solve the equation reports a defect of
    the expected size rather than near zero."""
    spec = make_constant_spec()
    t = np.linspace(0.0, OMEGA, 101)
    xbar = (3.0 + math.sqrt(13.0)) / 2.0
    path = SampledPath(t=t, x=np.full(t.size, xbar + 1.0), v=np.zeros(t.size))
    r = residual(spec, path, ORIGINAL)
    x = xbar + 1.0
    expected = abs(-x + 1.0 / x + 3.0)
    assert r == pytest.approx(expected, rel=1e-10)
    assert r > 0.5


def test_residual_on_oscillating_known_solution():
    """Manufactured solution: for q=1, b=0, c=1, e chosen accordingly,
    x(t) = 3 + cos(3t)/5 solves the original equation exactly."""
    # x'' + x = 1/x + e(t) with x'' = -(9/5) cos(3t), so
    # e(t) = 3 - (8/5) cos(3t) - 1/(3 + cos(3t)/5), which stays positive
    spec = ProblemSpec(
        p=pc("0"), q=pc("1"), b=pc("0"), c=pc("1"),
        e=pc("3-8/5*cos(3*t)-(3+1/5*cos(3*t))^(-1)"),
        rho1=1.0, rho2=1.0, omega=OMEGA)
    t = np.linspace(0.0, OMEGA, 2049)
    path = SampledPath(t=t, x=3.0 + 0.2 * np.cos(3.0 * t),
                       v=-0.6 * np.sin(3.0 * t))
    # central-difference truncation limits the defect, not the solution
    assert residual(spec, path, ORIGINAL) <= 1e-4


def test_residual_selector_and_size_validation():
    spec = make_constant_spec()
    t = np.linspace(0.0, OMEGA, 11)
    path = SampledPath(t=t, x=np.ones(11), v=np.zeros(11))
    with pytest.raises(ValueError):
        residual(spec, path, "nonsense")
    short = SampledPath(t=np.array([0.0, 1.0]), x=np.ones(2), v=np.zeros(2))
    with pytest.raises(ValueError):
        residual(spec, short, ORIGINAL)


def test_residual_rejects_a_path_that_is_not_positive():
    """The singular terms x^-rho need x > 0 at every interior sample."""
    spec = make_constant_spec()
    t = np.linspace(0.0, OMEGA, 5)
    x = np.array([1.0, 2.0, -0.5, 2.0, 1.0])
    path = SampledPath(t=t, x=x, v=np.zeros(5))
    for which in (ORIGINAL, TRANSFORMED):
        with pytest.raises(PositivityError, match="positive trajectories"):
            residual(spec, path, which)


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath(t=np.array([0.0, 1.0, 1.5]), x=np.ones(3), v=np.zeros(3))
    with pytest.raises(ValueError):
        SampledPath(t=np.array([0.0, 1.0]), x=np.ones(3), v=np.zeros(3))
    single = SampledPath(t=np.array([2.0]), x=np.array([5.0]), v=np.array([0.0]))
    assert single.step == 0.0
    path = SampledPath(t=np.linspace(0.0, 1.0, 9), x=np.full(9, 2.0),
                       v=np.full(9, -3.0))
    assert path.step == pytest.approx(0.125, rel=1e-15)
    assert path.sup_norm() == pytest.approx(5.0, rel=1e-15)


def test_orbit_paths_satisfy_both_forms(spec41, orbit41):
    """The computed orbit solves the original equation and its image solves
    the transformed one, each to the documented defect scale."""
    r_x = residual(spec41, orbit41.path, ORIGINAL)
    assert r_x <= 1e-4 * 11.0  # 1e-4 * max e
    r_y = residual(spec41, orbit41.y_path, TRANSFORMED)
    a = spec41.alpha
    scale_y = 11.0 / a * float(np.max(orbit41.y_path.x)) ** (1.0 - a)
    assert r_y <= 1e-4 * scale_y
