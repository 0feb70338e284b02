"""Periodic kernel construction: closed form, numeric, constants, criteria."""

import math
import time

import numpy as np
import pytest

from conftest import OMEGA, pc
from periorbit import (
    ResonanceError,
    check_A1,
    check_A2,
    check_chu,
    closed_form_constant,
    diagonal_jump_error,
    homogeneous_residual,
    numeric_periodic_green,
    periodicity_mismatch,
)

XI = 0.25  # sqrt(l) for the worked instance: l = (1/40)/alpha = 1/16

# exact radical values for xi = 1/4, omega = 2*pi/3 (half angle pi/12):
#   max G = 2 / sin(pi/12) = 4 / sqrt(2 - sqrt(3))
#   min G = 2 cos(pi/12)/sin(pi/12) = 2 sqrt(2 + sqrt(3)) / sqrt(2 - sqrt(3))
#   max |dG/dt| = sin(pi/12) / (2 sin(pi/12)) = 1/2
G_MAX_EXACT = 4.0 / math.sqrt(2.0 - math.sqrt(3.0))
G_MIN_EXACT = 2.0 * math.sqrt(2.0 + math.sqrt(3.0)) / math.sqrt(2.0 - math.sqrt(3.0))
GT_MAX_EXACT = 0.5


@pytest.fixture(scope="module")
def gf_closed():
    return closed_form_constant(XI, OMEGA)


@pytest.fixture(scope="module")
def gf_numeric():
    return numeric_periodic_green(0.0, XI * XI, OMEGA)


def test_closed_form_constants_match_radicals(gf_closed):
    start = time.perf_counter()
    gf = closed_form_constant(XI, OMEGA)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert gf.source == "closed-form"
    assert gf.positive is True
    assert gf.g_max == pytest.approx(G_MAX_EXACT, rel=1e-12)
    assert gf.g_min == pytest.approx(G_MIN_EXACT, rel=1e-12)
    assert gf.gt_max == pytest.approx(GT_MAX_EXACT, abs=1e-12)
    assert gf.sigma == pytest.approx(G_MIN_EXACT / (G_MAX_EXACT + 0.5), rel=1e-12)
    assert gf.delta == pytest.approx(0.5 / G_MIN_EXACT, rel=1e-12)
    # frozen decimal digests
    assert gf.sigma == pytest.approx(0.90722410702079115, rel=1e-13)
    assert gf.delta == pytest.approx(0.066987298107780674, rel=1e-13)


def test_slope_maximum_against_dense_scan(gf_closed):
    """A million-point scan of |dG/dt| over both branches is an independent
    oracle for the reported slope maximum."""
    tau = np.linspace(0.0, OMEGA, 1_000_001)
    den = 2.0 * XI * math.sin(0.5 * XI * OMEGA)
    lower = np.abs(-XI * np.sin(XI * (tau - 0.5 * OMEGA)) / den)
    upper = np.abs(-XI * np.sin(XI * (tau - OMEGA + 0.5 * OMEGA)) / den)
    scan = float(max(lower.max(), upper.max()))
    assert scan == pytest.approx(0.5, abs=1e-4)
    assert gf_closed.gt_max == pytest.approx(scan, abs=1e-4)


def test_kernel_positive_on_dense_grid(gf_closed):
    ts = np.linspace(0.0, OMEGA, 301)
    G, _ = gf_closed.kernel(ts, ts)
    assert np.all(G > 0.0)
    assert G.max() <= gf_closed.g_max * (1.0 + 1e-12)
    assert G.min() >= gf_closed.g_min * (1.0 - 1e-12)


def test_numeric_matches_closed_form(gf_closed):
    start = time.perf_counter()
    num = numeric_periodic_green(0.0, XI * XI, OMEGA, n=100)
    ref = closed_form_constant(XI, OMEGA, n=100)
    gap_G = float(np.max(np.abs(num.G - ref.G)))
    gap_Gt = float(np.max(np.abs(num.Gt - ref.Gt)))
    elapsed = time.perf_counter() - start
    assert num.source == "numeric"
    assert num.G.shape == (101, 101)
    assert gap_G <= 1e-6
    assert gap_Gt <= 1e-6
    assert elapsed < 5.0
    assert num.g_max == pytest.approx(gf_closed.g_max, rel=1e-6)
    assert num.g_min == pytest.approx(gf_closed.g_min, rel=1e-6)
    assert num.gt_max == pytest.approx(gf_closed.gt_max, abs=1e-6)
    assert num.positive is True


@pytest.mark.parametrize("which", ["closed", "numeric"])
def test_defining_properties(which, gf_closed, gf_numeric):
    gf = gf_closed if which == "closed" else gf_numeric
    # second-order ODE satisfied away from the diagonal
    assert homogeneous_residual(gf) <= 1e-4
    # rows at t = 0 and t = omega agree for interior source points
    assert periodicity_mismatch(gf) <= 1e-6
    # unit jump of dG/dt across the diagonal at 50 spread-out source points
    rng = np.random.default_rng(20240817)
    s_vals = rng.uniform(0.05 * OMEGA, 0.95 * OMEGA, size=50)
    assert float(np.max(diagonal_jump_error(gf, s_vals))) <= 1e-4


@pytest.mark.parametrize("which", ["closed", "numeric", "varying"])
def test_factors_reproduce_both_branches(gf_closed, gf_numeric, gf_varying,
                                         which):
    gf = {"closed": gf_closed, "numeric": gf_numeric,
          "varying": gf_varying}[which]
    t = np.linspace(0.0, OMEGA, 37)
    s = np.linspace(0.0, OMEGA, 23)
    U, dU, V_lo, V_up = gf._factors(t, s)
    for branch, V in (("lower", V_lo), ("upper", V_up)):
        G, Gt = gf.kernel(t, s, branch=branch)
        assert np.max(np.abs(U @ V.T - G)) <= 1e-13 * np.max(np.abs(G))
        assert np.max(np.abs(dU @ V.T - Gt)) <= 1e-13 * np.max(np.abs(Gt))


def test_solve_linear_constant_forcing(gf_closed):
    """For constant l the periodic response to h = 1 is exactly 1/l."""
    u = gf_closed.solve_linear(lambda s: np.ones_like(s))
    assert np.max(np.abs(u - 16.0)) < 1e-9


def test_solve_linear_superposition(gf_closed):
    h1 = lambda s: np.exp(np.sin(3.0 * s))
    h2 = lambda s: 1.0 + 0.5 * np.cos(3.0 * s)
    combo = gf_closed.solve_linear(lambda s: 2.0 * h1(s) - 3.0 * h2(s))
    parts = 2.0 * gf_closed.solve_linear(h1) - 3.0 * gf_closed.solve_linear(h2)
    scale = float(np.max(np.abs(parts))) + 1.0
    assert np.max(np.abs(combo - parts)) <= 1e-12 * scale


@pytest.fixture(scope="module")
def gf_varying():
    return numeric_periodic_green(pc("1/5+1/10*sin(3*t)"), pc("4/5+3/10*cos(3*t)"), OMEGA)


def test_varying_coefficients_properties(gf_varying):
    assert gf_varying.source == "numeric"
    assert homogeneous_residual(gf_varying) <= 1e-4
    assert periodicity_mismatch(gf_varying) <= 1e-6
    rng = np.random.default_rng(7)
    s_vals = rng.uniform(0.05 * OMEGA, 0.95 * OMEGA, size=20)
    assert float(np.max(diagonal_jump_error(gf_varying, s_vals))) <= 1e-4


def test_solve_linear_cross_checked_against_ivp(gf_varying):
    """The periodic response must actually solve u'' + p u' + l u = h: start
    an independent initial-value integration from (u(0), u'(0)) and compare."""
    from periorbit.ivp import solve_ivp_dp

    h = lambda s: 1.0 + 0.3 * np.sin(3.0 * s) + 0.1 * np.cos(6.0 * s)
    u, up = gf_varying.solve_linear(h, return_derivative=True)
    p_fn, l_fn = gf_varying.p_fn, gf_varying.l_fn

    def f(t, y):
        ta = np.array([t])
        return np.array([
            y[1],
            float(h(ta)[0]) - float(p_fn(ta)[0]) * y[1] - float(l_fn(ta)[0]) * y[0],
        ])

    res = solve_ivp_dp(f, 0.0, [u[0], up[0]], OMEGA, rtol=1e-12, atol=1e-14,
                       dense=True)
    vals = res.dense(gf_varying.t)
    scale = float(np.max(np.abs(u))) + 1.0
    assert np.max(np.abs(vals[:, 0] - u)) <= 1e-6 * scale
    assert np.max(np.abs(vals[:, 1] - up)) <= 1e-6 * scale
    # the trajectory closes up: the response is a genuine periodic solution
    assert abs(res.y[0] - u[0]) <= 1e-6 * scale
    assert abs(res.y[1] - up[0]) <= 1e-6 * scale


def test_resonance_periodic_closed_form():
    # xi*omega = 2*pi: the homogeneous problem itself is omega-periodic
    with pytest.raises(ResonanceError):
        closed_form_constant(3.0, OMEGA)


def test_resonance_periodic_numeric():
    with pytest.raises(ResonanceError):
        numeric_periodic_green(0.0, 9.0, OMEGA)


def test_resonance_antiperiodic_numeric():
    # xi*omega = pi: monodromy eigenvalue -1; the numeric construction
    # refuses rather than returning a sign-degenerate kernel
    with pytest.raises(ResonanceError):
        numeric_periodic_green(0.0, 2.25, OMEGA)


def test_positivity_boundary():
    # xi < pi/omega = 1.5 is the sharp positivity threshold
    assert closed_form_constant(1.49, OMEGA).positive is True
    assert closed_form_constant(1.5, OMEGA).positive is False
    assert closed_form_constant(2.0, OMEGA).positive is False


def test_invalid_arguments():
    with pytest.raises(ValueError):
        closed_form_constant(-1.0, OMEGA)
    with pytest.raises(ValueError):
        closed_form_constant(0.25, 0.0)


def test_kernel_branch_selection(gf_closed):
    s = np.array([0.7])
    Gl, Gtl = gf_closed.kernel(s, s, branch="lower")
    Gu, Gtu = gf_closed.kernel(s, s, branch="upper")
    # G itself is continuous across the diagonal; dG/dt jumps by exactly 1
    assert Gl[0, 0] != pytest.approx(Gu[0, 0], abs=1e-15) or True
    assert (Gtl[0, 0] - Gtu[0, 0]) == pytest.approx(1.0, abs=1e-10)
    assert abs(Gl[0, 0] - Gu[0, 0]) <= 1e-9 * gf_closed.g_max


def test_constants_dict_keys(gf_closed):
    d = gf_closed.constants()
    assert set(d) == {"g_max", "g_min", "gt_max", "sigma", "delta", "positive", "source"}


# ---------------------------------------------------------------------------
# positivity criteria


def test_A2_on_worked_instance():
    """p = 0 makes the left side 0; the right side is 4 omega^2 * exp(mean
    log l) = omega^2/4 = pi^2/9 for l = 1/16."""
    v = check_A2(pc("0"), pc("1/16"))
    assert v.applicable is True
    assert v.holds is False
    assert v.quantities["left"] == pytest.approx(0.0, abs=1e-12)
    assert v.quantities["right"] == pytest.approx(math.pi**2 / 9.0, rel=1e-9)


def test_A2_holds_with_strong_damping():
    # int p = 6 omega, left = 36 omega^2 >= 4 omega^2 exp(0) = 4 omega^2
    v = check_A2(pc("6"), pc("1"))
    assert v.holds is True


def test_A2_inapplicable_when_l_touches_zero():
    v = check_A2(pc("1"), pc("cos(3*t)"))
    assert v.applicable is False
    assert v.holds is False


def test_chu_on_worked_instance():
    v = check_chu(pc("0"), pc("1/16"))
    assert v.applicable is True
    assert v.holds is True
    assert v.quantities["first_integral"] == pytest.approx(OMEGA**2 / 32.0, rel=1e-6)
    assert v.quantities["window_sup"] == pytest.approx(OMEGA**2 / 16.0, rel=1e-6)


def test_chu_fails_for_large_l():
    # window product scales linearly with l and crosses the threshold 4
    v = check_chu(pc("0"), pc("16"))
    assert v.holds is False
    assert v.quantities["window_sup"] > 4.0


def test_A1_factorisation_holds():
    # p = 2, a1 = 1 gives a2 = 1 and a1' + a1 a2 = 1 = l
    v = check_A1(pc("2"), pc("1"), pc("1"))
    assert v.holds is True
    assert v.quantities["factorisation_residual"] <= 1e-10
    assert v.quantities["int_a1"] > 0.0
    assert v.quantities["int_a2"] > 0.0


def test_A1_factorisation_fails():
    # a1 = 2 gives a2 = 0 and a1' + a1 a2 = 0 != 1
    v = check_A1(pc("2"), pc("1"), pc("2"))
    assert v.holds is False
    assert v.quantities["factorisation_residual"] == pytest.approx(1.0, abs=1e-12)


def test_A1_time_varying_factorisation():
    # a1 = 1 + sin(3t)/10, a2 = 1: l = a1' + a1 a2 holds by construction
    a1 = pc("1+1/10*sin(3*t)")
    p = pc("2+1/10*sin(3*t)")
    l = pc("3/10*cos(3*t)+1+1/10*sin(3*t)")
    v = check_A1(p, l, a1)
    assert v.holds is True


def test_criterion_verdict_to_dict():
    v = check_A2(pc("0"), pc("1/16"))
    d = v.to_dict()
    assert d["criterion"] == "A2"
    assert set(d) == {"criterion", "holds", "applicable", "quantities", "notes"}
