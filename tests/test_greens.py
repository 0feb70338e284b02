"""Periodic kernel construction: closed form, numeric, constants, criteria."""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import OMEGA, make_constant_spec, pc
from kernel_oracles import (
    branch_kernel,
    chu_two_periods,
    diagonal_jump_error,
    homogeneous_residual,
    periodicity_mismatch,
    scanned_extremes,
    solve_linear,
)
from periorbit import certify, cli, greens, ivp, parse_problem_text
from periorbit.ivp import eigvals_2x2
from periorbit.solver import apply_T
from periorbit.transform import SampledPath, to_y_equation
from periorbit.greens import (
    _SCAN_LEVELS,
    _SCAN_POINTS,
    ResonanceError,
    _periodic_resolvent,
    _window_abscissae,
    check_A1,
    check_A2,
    check_chu,
    closed_form_constant,
    kernel_for,
    numeric_periodic_green,
)
from shooting_oracles import callable_field

XI = 0.25  # sqrt(l) for the worked instance: l = (1/40)/alpha = 1/16
GRID = np.linspace(0.0, OMEGA, 201)  # solve_linear's cells

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
    return numeric_periodic_green(pc("0"), pc(repr(XI * XI)), OMEGA)


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


def test_slope_maximum_near_the_far_corner():
    """On this numeric kernel the grid maximum of |dG/dt| sits in the
    corner (0, 0) while the true maximum lies just inside the opposite
    corner, near t = s = 0.9975 omega; a dense 2001^2 scan of both
    branches reaches 0.5735820554911553.  The kernel is periodic in t and
    in s, so the refinement must look there too, seeded on any grid: the
    build's seed grid of 200 cells and tables of 190 and 210 alike."""
    spec = parse_problem_text(
        "omega = 2*pi/3\n"
        "p = 0.0747 + 0.0301*cos(3*t)\n"
        "q = 0.0206 + 0.0074*sin(3*t)\n"
        "b = 1.1008 + 0.0312*cos(3*t)\n"
        "c = 0.9419*exp(0.7052*sin(3*t))\n"
        "e = 11.1053 + 1.1937*cos(3*t)\n"
        "rho1 = 1.6484\n"
        "rho2 = 1.6484\n").spec
    gf = kernel_for(spec.p, spec.l, spec.omega)
    gt = {n: greens._scanned_extremes(gf._factors, *gf.table(n))[2]
          for n in (190, 200, 210)}
    assert gf.gt_max == gt[200] >= 0.57358205
    assert max(gt.values()) - min(gt.values()) <= 1e-8 * gt[200]


def _dense_extremes(gf):
    """Oracle for (g_min, g_max, gt_max): both branches on an 801^2 grid,
    then, around each of the 10 best cells of each surface, 8 levels of
    65^2 points, each 1/16 the width of the last and recentred on its best
    point."""
    def surfaces(t, s):
        (G_lo, Gt_lo), (G_up, Gt_up) = (branch_kernel(gf, t, s, b)
                                        for b in ("lower", "upper"))
        tau = t[:, None] - s[None, :]
        both = lambda lo, up: np.maximum(np.where(tau >= 0.0, lo, -np.inf),
                                         np.where(tau <= 0.0, up, -np.inf))
        return (both(-G_lo, -G_up), both(G_lo, G_up),
                both(np.abs(Gt_lo), np.abs(Gt_up)))

    omega = gf.omega
    grid = np.linspace(0.0, omega, 801)
    best = []
    for k, surface in enumerate(surfaces(grid, grid)):
        top = surface.max()
        for flat in np.argsort(surface, axis=None)[-10:]:
            i, j = np.unravel_index(flat, surface.shape)
            tc, sc, width = grid[i], grid[j], grid[1]
            for _ in range(8):
                ts = np.linspace(max(0.0, tc - width), min(omega, tc + width), 65)
                ss = np.linspace(max(0.0, sc - width), min(omega, sc + width), 65)
                vals = surfaces(ts, ss)[k]
                a, b = np.unravel_index(np.argmax(vals), vals.shape)
                top = max(top, vals[a, b])
                tc, sc, width = ts[a], ss[b], width / 16.0
        best.append(float(top))
    return -best[0], best[1], best[2]


def test_numeric_constants_against_dense_oracle():
    """A generated text whose numeric-kernel constants a two-level scan got
    wrong on the unsafe side: g_min 3.9e-10 high, gt_max 2.5e-9 low."""
    spec = parse_problem_text(
        "omega = 2*pi/3\n"
        "p = 0.0528 + 0.028*cos(3*t)\n"
        "q = 0.0302 + 0.0098*sin(3*t)\n"
        "b = 1.4617 + 0.1767*cos(3*t)\n"
        "c = 1.0929*exp(1.3484*sin(3*t))\n"
        "e = 9.7496 + 1.1534*cos(3*t)\n"
        "rho1 = 1.5654\n"
        "rho2 = 1.5654\n").spec
    gf = kernel_for(spec.p, spec.l, spec.omega)
    assert gf.source == "numeric"
    g_min, g_max, gt_max = _dense_extremes(gf)
    assert gf.g_min <= g_min * (1.0 + 1e-13)
    assert gf.g_max >= g_max * (1.0 - 1e-13)
    assert gf.gt_max >= gt_max * (1.0 - 1e-13)


def _scan_kernel(p0, pa, l0, la, phase):
    return numeric_periodic_green(
        pc(f"{p0!r} + {pa!r}*cos(3*t + {phase!r})"),
        pc(f"{l0!r} + {la!r}*sin(3*t)"), OMEGA)


_hundredths = lambda lo, hi: st.integers(lo, hi).map(lambda i: i / 100)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 50, 200]), p0=_hundredths(-100, 200),
       pa=_hundredths(0, 50), l0=_hundredths(-100, 400),
       la=_hundredths(0, 100), phase=_hundredths(0, 628))
# grid argmaxes on the grid edge, so that scan windows wrap around the
# period (test_edge_seeded_scans_reach_the_dense_oracle)
@example(n=8, p0=0.0, pa=0.0, l0=-0.5, la=0.0, phase=0.0)
@example(n=50, p0=0.0, pa=0.0, l0=-0.5, la=0.0, phase=0.0)
@example(n=200, p0=0.05, pa=0.0, l0=-0.5, la=0.0, phase=0.0)
@example(n=200, p0=0.3, pa=0.2, l0=2.0, la=0.0, phase=0.0)
def test_batched_scan_matches_window_by_window_oracle(n, p0, pa, l0, la,
                                                      phase):
    """Random numeric kernels, seeded on tables of n cells: the lockstep
    scan of every window returns the bits of (g_min, g_max, gt_max) that
    scanning one window at a time returns, windows that wrap around the
    period included.  The build's constants are the scan seeded on its
    fixed grid of 200 cells."""
    try:
        gf = _scan_kernel(p0, pa, l0, la, phase)
    except ResonanceError:
        assume(False)
    table = gf.table(n)
    found = np.array(greens._scanned_extremes(gf._factors, *table))
    oracle = np.array(scanned_extremes(gf._factors, *table))
    assert found.tobytes() == oracle.tobytes()
    built = np.array([gf.g_min, gf.g_max, gf.gt_max])
    seeded = greens._scanned_extremes(gf._factors, *gf.table(200))
    assert built.tobytes() == np.array(seeded).tobytes()


@pytest.mark.parametrize("n, p0, pa, l0, la, phase", [
    (8, 0.0, 0.0, -0.5, 0.0, 0.0), (50, 0.0, 0.0, -0.5, 0.0, 0.0),
    (200, 0.05, 0.0, -0.5, 0.0, 0.0), (200, 0.3, 0.2, 2.0, 0.0, 0.0)])
def test_edge_seeded_scans_reach_the_dense_oracle(n, p0, pa, l0, la, phase):
    """The explicit examples of the oracle test above, whose argmaxes on
    tables of n cells lie on the table's edge: the scan's windows, seeded
    there, wrap around the period and reach the dense two-branch scan's
    extremes, whatever their sign."""
    gf = _scan_kernel(p0, pa, l0, la, phase)
    found = greens._scanned_extremes(gf._factors, *gf.table(n))
    g_min, g_max, gt_max = _dense_extremes(gf)
    assert found[0] <= g_min + 1e-13 * abs(g_min)
    assert found[1] >= g_max - 1e-13 * abs(g_max)
    assert found[2] >= gt_max * (1.0 - 1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(omega=st.floats(0.01, 50.0), n=st.sampled_from([1, 8, 50, 200]),
       level=st.integers(0, _SCAN_LEVELS - 1),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_window_abscissae_wrap_around_the_period(omega, n, level, fractions):
    """Every window's _SCAN_POINTS abscissae lie in [0, omega], its middle
    one is its centre and neighbours lie width/8 apart, both modulo omega,
    for the centres 0, omega/2, omega and random ones, at every width the
    scan uses."""
    width = omega / n / 8.0 ** level
    centres = np.array([0.0, 0.5 * omega, omega]
                       + [f * omega for f in fractions])
    x = _window_abscissae(centres, width, omega)
    assert x.shape == (len(centres), _SCAN_POINTS)
    assert np.all((x >= 0.0) & (x <= omega))
    off_period = lambda d: np.abs(d - omega * np.round(d / omega))
    assert np.all(off_period(x[:, _SCAN_POINTS // 2] - centres) == 0.0)
    steps = np.diff(x, axis=1) - width / 8.0
    assert np.all(off_period(steps) <= 8.0 * np.finfo(float).eps * omega)


def _count_grid_evaluations(monkeypatch):
    """Record the t of every grid call of greens._evaluate, one whose s is
    its t: the seed grid of a numeric build, and each table."""
    calls = []
    evaluate = greens._evaluate

    def counted(factors, t, s):
        if s is t:
            calls.append(t)
        return evaluate(factors, t, s)

    monkeypatch.setattr(greens, "_evaluate", counted)
    return calls


def test_certify_builds_no_closed_form_kernel_grid(monkeypatch, spec41):
    calls = _count_grid_evaluations(monkeypatch)
    cert = certify(spec41)
    assert cert.greens.source == "closed-form" and cert.verdict
    assert calls == []


def test_greens_command_evaluates_the_grid_once(monkeypatch, tmp_path,
                                                capsys):
    """The greens command evaluates its table once, on n + 1 points a side;
    a numeric kernel's build evaluates its seed grid of 201 before it."""
    monkeypatch.setenv("PERIORBIT_OUT", str(tmp_path))
    calls = _count_grid_evaluations(monkeypatch)
    varying = tmp_path / "varying.problem"
    varying.write_text(f"omega = 2*pi/3\np = {P_VARYING}\nq = 1/40\nb = 1\n"
                       "c = 1\ne = 1\nrho1 = 1.5\nrho2 = 1.3\n")
    for name, seed in (("example41", []), (str(varying), [201])):
        del calls[:]
        assert cli.main(["greens", name, "--n", "7"]) == 0
        assert "rows = 64" in capsys.readouterr().out
        assert [len(t) for t in calls] == seed + [8]


def test_numeric_factors_evaluate_phi_once_a_call(monkeypatch):
    """Every factors call of a numeric kernel makes one dense evaluation
    of Phi, on both abscissa arrays together, or on one array alone when
    it is both, as the seed grid, a table and apply_T's samples are."""
    dense_sizes = []
    dense = ivp.DenseSolution.__call__

    def counted_dense(self, t):
        dense_sizes.append(len(t))
        return dense(self, t)

    monkeypatch.setattr(ivp.DenseSolution, "__call__", counted_dense)
    gf = numeric_periodic_green(pc(P_VARYING), pc(L_VARYING), OMEGA)
    # the seed grid, then each scan level's three windows of t and of s
    windows = 2 * len(greens._SURFACES) * _SCAN_POINTS
    assert dense_sizes == [201] + [windows] * _SCAN_LEVELS
    del dense_sizes[:]
    gf.table(7)
    gf.kernel(np.linspace(0.0, OMEGA, 7), np.linspace(0.0, OMEGA, 5))
    t = np.linspace(0.0, OMEGA, 2049)
    path = SampledPath(t=t, x=4.0 + np.sin(3.0 * t), v=3.0 * np.cos(3.0 * t))
    apply_T(gf, to_y_equation(make_constant_spec()), path)
    assert dense_sizes == [8, 12, 2049]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(omega=st.floats(0.5, 5.0), half=st.floats(0.01, math.pi / 2))
def test_closed_form_constants_match_dense_cosine_scan(omega, half):
    """The analytic constants against a direct-cosine scan of both branches,
    for half angles xi omega/2 up to pi/2, the positivity edge xi = pi/omega
    where the closed form stops."""
    xi = 2.0 * half / omega
    assume(xi < math.pi / omega)
    gf = closed_form_constant(xi, omega)
    den = 2.0 * xi * math.sin(half)
    tau = np.linspace(0.0, omega, 1_000_001)
    args = np.concatenate([xi * (tau - 0.5 * omega),
                           xi * (tau - omega + 0.5 * omega)])
    G, Gt = np.cos(args) / den, -xi * np.sin(args) / den
    scale = 1.0 / abs(den)
    assert gf.g_max == pytest.approx(G.max(), rel=1e-9, abs=1e-12 * scale)
    assert gf.g_min == pytest.approx(G.min(), rel=1e-9, abs=1e-12 * scale)
    assert gf.gt_max == pytest.approx(np.abs(Gt).max(), rel=1e-9)


def test_kernel_positive_on_dense_grid(gf_closed):
    ts = np.linspace(0.0, OMEGA, 301)
    G, _ = gf_closed.kernel(ts, ts)
    assert np.all(G > 0.0)
    assert G.max() <= gf_closed.g_max * (1.0 + 1e-12)
    assert G.min() >= gf_closed.g_min * (1.0 - 1e-12)


def test_numeric_matches_closed_form(gf_closed):
    start = time.perf_counter()
    num = numeric_periodic_green(pc("0"), pc(repr(XI * XI)), OMEGA)
    _, G, Gt = num.table(100)
    _, G_ref, Gt_ref = closed_form_constant(XI, OMEGA).table(100)
    gap_G = float(np.max(np.abs(G - G_ref)))
    gap_Gt = float(np.max(np.abs(Gt - Gt_ref)))
    elapsed = time.perf_counter() - start
    assert num.source == "numeric"
    assert G.shape == (101, 101)
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
    table = gf.table(200)
    # second-order ODE satisfied away from the diagonal
    assert homogeneous_residual(table, 0.0, XI * XI) <= 1e-4
    # rows at t = 0 and t = omega agree for interior source points
    assert periodicity_mismatch(table) <= 1e-6
    # unit jump of dG/dt across the diagonal at 50 spread-out source points
    rng = np.random.default_rng(20240817)
    s_vals = rng.uniform(0.05 * OMEGA, 0.95 * OMEGA, size=50)
    assert float(np.max(diagonal_jump_error(gf, s_vals))) <= 1e-4


P_VARYING, L_VARYING = "1/5+1/10*sin(3*t)", "4/5+3/10*cos(3*t)"


def _direct_kernel(which, t, s, branch):
    """(G, dG/dt) on the outer product of t and s from the defining formulas,
    without the rank-2 factors: the two-branch cosine for the closed form,
    and rows 1 and 2, column 2 of Phi(t) B Phi(s)^-1, with the fundamental
    matrix Phi integrated by scipy, for the numeric kernels."""
    tau = t[:, None] - s[None, :]
    shift = -0.5 * OMEGA if branch == "lower" else 0.5 * OMEGA
    if which == "closed":
        den = 2.0 * XI * math.sin(0.5 * XI * OMEGA)
        arg = XI * (tau + shift)
        return np.cos(arg) / den, -XI * np.sin(arg) / den
    from scipy.integrate import solve_ivp

    p, l = ((pc("0"), pc(repr(XI * XI))) if which == "numeric"
            else (pc(P_VARYING), pc(L_VARYING)))

    def f(u, y):
        Y = y.reshape(2, 2)
        return np.concatenate([Y[1], -l(u) * Y[0] - p(u) * Y[1]])

    grid = np.union1d(np.union1d(t, s), [OMEGA])
    sol = solve_ivp(f, (0.0, OMEGA), np.eye(2).ravel(), method="DOP853",
                    t_eval=grid, rtol=1e-12, atol=1e-14)
    phi = dict(zip(grid, sol.y.T.reshape(-1, 2, 2)))
    B = np.linalg.inv(np.eye(2) - phi[OMEGA])
    if branch == "upper":
        B = B - np.eye(2)
    K = np.array([[phi[a] @ B @ np.linalg.inv(phi[b]) for b in s]
                  for a in t])
    return K[..., 0, 1], K[..., 1, 1]


@pytest.mark.parametrize("which", ["closed", "numeric", "varying"])
def test_factors_reproduce_both_branches(gf_closed, gf_numeric, gf_varying,
                                         which):
    gf = {"closed": gf_closed, "numeric": gf_numeric,
          "varying": gf_varying}[which]
    tol = 1e-13 if which == "closed" else 1e-10
    t = np.linspace(0.0, OMEGA, 37)
    s = np.linspace(0.0, OMEGA, 23)
    U, dU, V_lo, V_up = gf._factors(t, s)
    G_auto, Gt_auto = gf.kernel(t, s)
    lower = t[:, None] >= s[None, :]
    for branch, V, cells in (("lower", V_lo, lower), ("upper", V_up, ~lower)):
        G, Gt = _direct_kernel(which, t, s, branch)
        assert np.max(np.abs(U @ V.T - G)) <= tol * np.max(np.abs(G))
        assert np.max(np.abs(dU @ V.T - Gt)) <= tol * np.max(np.abs(Gt))
        # the kernel takes each cell's branch, bit for bit
        assert np.array_equal(G_auto[cells], (U @ V.T)[cells])
        assert np.array_equal(Gt_auto[cells], (dU @ V.T)[cells])


def test_solve_linear_constant_forcing(gf_closed):
    """For constant l the periodic response to h = 1 is exactly 1/l."""
    u = solve_linear(gf_closed, GRID, lambda s: np.ones_like(s))
    assert np.max(np.abs(u - 16.0)) < 1e-9


def test_solve_linear_superposition(gf_closed):
    h1 = lambda s: np.exp(np.sin(3.0 * s))
    h2 = lambda s: 1.0 + 0.5 * np.cos(3.0 * s)
    combo = solve_linear(gf_closed, GRID, lambda s: 2.0 * h1(s) - 3.0 * h2(s))
    parts = (2.0 * solve_linear(gf_closed, GRID, h1)
             - 3.0 * solve_linear(gf_closed, GRID, h2))
    scale = float(np.max(np.abs(parts))) + 1.0
    assert np.max(np.abs(combo - parts)) <= 1e-12 * scale


@pytest.fixture(scope="module")
def gf_varying():
    return numeric_periodic_green(pc(P_VARYING), pc(L_VARYING), OMEGA)


def test_varying_coefficients_properties(gf_varying):
    assert gf_varying.source == "numeric"
    table = gf_varying.table(200)
    assert homogeneous_residual(table, pc(P_VARYING), pc(L_VARYING)) <= 1e-4
    assert periodicity_mismatch(table) <= 1e-6
    rng = np.random.default_rng(7)
    s_vals = rng.uniform(0.05 * OMEGA, 0.95 * OMEGA, size=20)
    assert float(np.max(diagonal_jump_error(gf_varying, s_vals))) <= 1e-4


def test_solve_linear_cross_checked_against_ivp(gf_varying):
    """The periodic response must actually solve u'' + p u' + l u = h: start
    an independent initial-value integration from (u(0), u'(0)) and compare."""
    from periorbit.ivp import solve_ivp_dp

    h = lambda s: 1.0 + 0.3 * np.sin(3.0 * s) + 0.1 * np.cos(6.0 * s)
    u, up = solve_linear(gf_varying, GRID, h, return_derivative=True)
    p, l = pc(P_VARYING), pc(L_VARYING)

    def f(t, y):
        ta = np.array([t])
        return np.array([
            y[1],
            float(h(ta)[0]) - float(p(ta)[0]) * y[1] - float(l(ta)[0]) * y[0],
        ])

    res = solve_ivp_dp(callable_field(f), 0.0, [u[0], up[0]], OMEGA,
                       rtol=1e-12, atol=1e-14, dense=True)
    vals = res.dense(GRID)
    scale = float(np.max(np.abs(u))) + 1.0
    assert np.max(np.abs(vals[:, 0] - u)) <= 1e-6 * scale
    assert np.max(np.abs(vals[:, 1] - up)) <= 1e-6 * scale
    # the trajectory closes up: the response is a genuine periodic solution
    assert abs(res.y[0] - u[0]) <= 1e-6 * scale
    assert abs(res.y[1] - up[0]) <= 1e-6 * scale


def test_resonance_periodic_numeric():
    with pytest.raises(ResonanceError):
        numeric_periodic_green(pc("0"), pc("9"), OMEGA)
    # p = l = 0 writes no term at all: u'' = 0, whose constants are
    # periodic
    with pytest.raises(ResonanceError, match="eigenvalue 1"):
        numeric_periodic_green(pc("0"), pc("0"), OMEGA)


def test_resonance_antiperiodic_numeric():
    # xi*omega = pi: monodromy eigenvalue -1; the numeric construction
    # refuses rather than returning a sign-degenerate kernel
    with pytest.raises(ResonanceError):
        numeric_periodic_green(pc("0"), pc("2.25"), OMEGA)


@pytest.mark.parametrize("turns, match", [(1.0, "eigenvalue 1"),
                                          (0.5, "eigenvalue -1")])
def test_resonance_edges(turns, match):
    """p = 0, l = xi^2: M's eigenvalues are exp(+-i xi omega), within
    2 pi turns rel of 1 (turns = 1) or of -1 (turns = 1/2) when
    xi omega = 2 pi turns (1 + rel).  rel = 1e-10 is resonant on either
    side of the edge, and rel = 1e-6 is not."""
    for sign in (1.0, -1.0):
        for rel, resonant in ((1e-10, True), (1e-6, False)):
            xi = 2.0 * math.pi * turns * (1.0 + sign * rel) / OMEGA
            if resonant:
                with pytest.raises(ResonanceError, match=match):
                    numeric_periodic_green(pc("0"), pc(repr(xi * xi)),
                                           OMEGA)
            else:
                numeric_periodic_green(pc("0"), pc(repr(xi * xi)), OMEGA)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4))
@example(m=[1.0, 0.0, 0.0, 1.0])
@example(m=[-1.0, 1.0, 0.0, -1.0])
@example(m=[1.0, 1e-9, -1e-9, 1.0])
@example(m=[0.0, 1.0, 0.0, 0.0])
@example(m=[2.0, 1.0, 1.0, 3.0])
def test_monodromy_algebra_matches_linalg(m):
    """The eigenvalues of M - I and M + I, formed from M's entries, are
    numpy.linalg's eigenvalues of M shifted by -1 and +1, and
    _periodic_resolvent raises ResonanceError where either comes within
    1e-8 of 0, else returns numpy.linalg's (I - M)^-1.  An eigenvalue of
    a nearly defective M moves by about sqrt(eps) |M| under rounding,
    which bounds how far the two may differ."""
    M = np.array(m).reshape(2, 2)
    ref = np.linalg.eigvals(M)
    nearest = []
    for shift in (1.0, -1.0):
        mine = sorted(map(abs, eigvals_2x2((m[0] - shift, m[1], m[2],
                                            m[3] - shift))))
        assert np.allclose(mine, np.sort(np.abs(ref - shift)), rtol=1e-12,
                           atol=1e-7)
        nearest.append(mine[0])
    if min(nearest) < 1e-8:
        with pytest.raises(ResonanceError):
            _periodic_resolvent(*m)
        return
    B, ref_B = _periodic_resolvent(*m), np.linalg.inv(np.eye(2) - M)
    bound = 64 * np.finfo(float).eps * np.linalg.cond(np.eye(2) - M)
    assert np.max(np.abs(B - ref_B)) <= bound * np.max(np.abs(ref_B))


def test_resonance_periodic_closed_form():
    # xi*omega = 2*pi: the homogeneous problem itself is omega-periodic; the
    # closed form refuses it and kernel_for's numeric construction reports it
    with pytest.raises(ValueError):
        closed_form_constant(3.0, OMEGA)
    with pytest.raises(ResonanceError):
        kernel_for(pc("0"), pc("9"), OMEGA)


def test_positivity_boundary():
    # xi < pi/omega = 1.5 is the sharp positivity threshold: the closed form
    # is built only below it, the edge is antiperiodic resonance, and past it
    # kernel_for's numeric kernel is not positive
    assert closed_form_constant(1.49, OMEGA).positive is True
    for xi in (1.5, 2.0):
        with pytest.raises(ValueError):
            closed_form_constant(xi, OMEGA)
    with pytest.raises(ResonanceError):
        kernel_for(pc("0"), pc("2.25"), OMEGA)
    gf = kernel_for(pc("0"), pc("4"), OMEGA)
    assert gf.source == "numeric"
    assert gf.positive is False


@pytest.mark.parametrize("damping", [20, 50, 200, 400])
def test_strong_damping_is_not_positive_and_warns_nothing(damping, tmp_path,
                                                         monkeypatch, capsys):
    """A large constant p: det Phi(s) = exp(-p s) cancels in the numeric
    factors, to 0 at p = 50 in a scan window, whose division and products
    once warned.  Under the suite's error::RuntimeWarning filter certify
    and check warn nothing, the certificate reads the kernel as not
    positive, and check exits 1."""
    text = (f"omega = 2*pi/3\np = {damping}\nq = 1\nb = 1\nc = 1\ne = 1\n"
            "rho1 = 1.5\nrho2 = 1\n")
    cert = certify(parse_problem_text(text).spec)
    assert cert.greens.source == "numeric"
    assert not cert.greens.positive and not cert.verdict
    assert cert.reason == "kernel not positive"
    path = tmp_path / "damped.problem"
    path.write_text(text)
    monkeypatch.setenv("PERIORBIT_OUT", str(tmp_path))
    assert cli.main(["check", str(path)]) == 1
    assert "verdict: FALSE  (kernel not positive)" in capsys.readouterr().out


def test_invalid_arguments():
    with pytest.raises(ValueError):
        closed_form_constant(-1.0, OMEGA)
    with pytest.raises(ValueError):
        closed_form_constant(0.25, 0.0)


def test_kernel_branch_selection(gf_closed):
    s = np.array([0.7])
    Gl, Gtl = branch_kernel(gf_closed, s, s, "lower")
    Gu, Gtu = branch_kernel(gf_closed, s, s, "upper")
    # G itself is continuous across the diagonal; dG/dt jumps by exactly 1
    assert Gl[0, 0] != pytest.approx(Gu[0, 0], abs=1e-15) or True
    assert (Gtl[0, 0] - Gtu[0, 0]) == pytest.approx(1.0, abs=1e-10)
    assert abs(Gl[0, 0] - Gu[0, 0]) <= 1e-9 * gf_closed.g_max


def test_constants_dict_keys(gf_closed):
    d = gf_closed.constants()
    assert set(d) == {"g_max", "g_min", "gt_max", "sigma", "delta", "positive", "source"}


def test_kernel_record_holds_constants_and_factors(gf_closed, gf_varying):
    """A kernel keeps no grid: its fields are its constants and factors,
    and they do not change once built."""
    names = [f.name for f in dataclasses.fields(greens.GreensFunction)]
    assert names == ["omega", "g_max", "g_min", "gt_max", "positive",
                     "source", "_factors"]
    for gf in (gf_closed, gf_varying):
        with pytest.raises(dataclasses.FrozenInstanceError):
            gf.g_min = 0.0


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
    # p = 0 makes both weights 1: sigma1(0)(t) = t + (omega - t) = omega
    assert v.quantities["first_integral"] == pytest.approx(OMEGA**2 / 16.0, rel=1e-6)
    assert v.quantities["window_sup"] == pytest.approx(OMEGA**2 / 16.0, rel=1e-6)


def test_chu_rejects_a_negative_kernel():
    """On this instance the kernel is negative throughout.  The form of
    sigma1 whose first term integrates -p itself gives a first integral of
    +0.596 and would hold; integrating the weight varsigma(-p) gives
    -0.968."""
    omega = 3.0
    p = pc("1.268 + 0.031*cos(2*pi*t/3)", omega)
    l = pc("-0.420 + 0.293*sin(2*pi*t/3)", omega)
    gf = numeric_periodic_green(p, l, omega)
    assert gf.g_min == pytest.approx(-1.10, abs=5e-3)
    assert gf.g_max < 0.0
    v = check_chu(p, l)
    assert v.holds is False
    assert v.quantities["first_integral"] == pytest.approx(-0.968, abs=1e-3)


def _chu_oracle_cases(monkeypatch):
    """(p, l) of the numeric family-solve texts and the solve-failure texts
    of benchmark seeds 41 and 42, and of the negative-kernel instance."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    import workloads

    texts = []
    for seed in (41, 42):
        family = workloads.FamilySolve(seed, "", "")
        texts += [it.text for it in family.items if it.kernel == "numeric"]
        texts += workloads.SolveFailure(seed, "", "").texts
    specs = [parse_problem_text(text).spec for text in texts]
    cases = [(spec.p, spec.l) for spec in specs]
    cases.append((pc("1.268 + 0.031*cos(2*pi*t/3)", 3.0),
                  pc("-0.420 + 0.293*sin(2*pi*t/3)", 3.0)))
    return cases


def test_chu_matches_two_period_oracle(monkeypatch):
    """CHU over one period against its two-period form: the first integral
    is bit for bit the same, the window integrals continue through the
    period by the periodicity identity instead of being sampled, and
    l_max_abs reads l over one period instead of two."""
    cases = _chu_oracle_cases(monkeypatch)
    assert len(cases) == 2 * (8 + 3) + 1
    verdicts = set()
    for p, l in cases:
        new, old = check_chu(p, l), chu_two_periods(p, l)
        q, r = new.quantities, old.quantities
        assert q["first_integral"].hex() == r["first_integral"].hex()
        assert q["window_sup"] == pytest.approx(r["window_sup"], rel=1e-13,
                                                abs=0.0)
        assert abs(q["l_max_abs"] - r["l_max_abs"]) <= np.spacing(
            r["l_max_abs"])
        assert new.holds == old.holds
        verdicts.add(new.holds)
    assert verdicts == {True, False}


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
