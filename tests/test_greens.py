"""Periodic kernel construction: closed form, numeric, constants, criteria."""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import OMEGA, pc
from kernel_oracles import (
    chu_two_periods,
    diagonal_jump_error,
    homogeneous_residual,
    periodicity_mismatch,
    scanned_extremes,
    solve_linear,
)
from periorbit import certify, cli, greens, ivp, parse_problem_text
from periorbit.ivp import eigvals_2x2
from periorbit.greens import (
    _SCAN_LEVELS,
    _SCAN_POINTS,
    _SURFACES,
    ResonanceError,
    _periodic_images,
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


def test_slope_maximum_near_the_far_corner():
    """On this numeric kernel the grid maximum of |dG/dt| sits in the
    corner (0, 0) while the true maximum lies just inside the opposite
    corner, near t = s = 0.9975 omega; a dense 2001^2 scan of both
    branches reaches 0.5735820554911553.  The kernel is periodic in t and
    in s, so the refinement must look there too, at every grid size."""
    spec = parse_problem_text(
        "omega = 2*pi/3\n"
        "p = 0.0747 + 0.0301*cos(3*t)\n"
        "q = 0.0206 + 0.0074*sin(3*t)\n"
        "b = 1.1008 + 0.0312*cos(3*t)\n"
        "c = 0.9419*exp(0.7052*sin(3*t))\n"
        "e = 11.1053 + 1.1937*cos(3*t)\n"
        "rho1 = 1.6484\n"
        "rho2 = 1.6484\n").spec
    gt = {n: kernel_for(spec.p, spec.l, spec.omega, n=n).gt_max
          for n in (190, 200, 210)}
    assert gt[200] >= 0.57358205
    assert max(gt.values()) - min(gt.values()) <= 1e-8 * gt[200]


def _dense_extremes(gf):
    """Oracle for (g_min, g_max, gt_max): both branches on an 801^2 grid,
    then, around each of the 10 best cells of each surface, 8 levels of
    65^2 points, each 1/16 the width of the last and recentred on its best
    point."""
    def surfaces(t, s):
        (G_lo, Gt_lo), (G_up, Gt_up) = (gf.kernel(t, s, branch=b)
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


def _grid_argmax_images(gf):
    """How many windows the scan of each surface starts from: its grid
    argmax and that cell's periodic images."""
    tau = gf.t[:, None] - gf.t[None, :]
    counts = []
    for surface in _SURFACES:
        vals = surface(tau, gf.G, gf.Gt)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        counts.append(len(_periodic_images(i, j, gf.n)))
    return counts


_hundredths = lambda lo, hi: st.integers(lo, hi).map(lambda i: i / 100)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 50, 200]), p0=_hundredths(-100, 200),
       pa=_hundredths(0, 50), l0=_hundredths(-100, 400),
       la=_hundredths(0, 100), phase=_hundredths(0, 628))
# grid argmaxes on the grid edge, so that two or four windows of a
# surface are scanned (test_scan_examples_reach_the_periodic_images)
@example(n=8, p0=0.0, pa=0.0, l0=-0.5, la=0.0, phase=0.0)
@example(n=50, p0=0.0, pa=0.0, l0=-0.5, la=0.0, phase=0.0)
@example(n=200, p0=0.05, pa=0.0, l0=-0.5, la=0.0, phase=0.0)
@example(n=200, p0=0.3, pa=0.2, l0=2.0, la=0.0, phase=0.0)
def test_batched_scan_matches_window_by_window_oracle(n, p0, pa, l0, la,
                                                      phase):
    """Random numeric kernels: the lockstep scan of every window returns
    the bits of (g_min, g_max, gt_max) that scanning one window at a time
    returns, periodic images on the grid edge included."""
    p = pc(f"{p0!r} + {pa!r}*cos(3*t + {phase!r})")
    l = pc(f"{l0!r} + {la!r}*sin(3*t)")
    try:
        gf = numeric_periodic_green(p, l, OMEGA, n=n)
    except ResonanceError:
        assume(False)
    found = np.array([gf.g_min, gf.g_max, gf.gt_max])
    oracle = np.array(scanned_extremes(gf._factors, gf.t, gf.G, gf.Gt))
    assert found.tobytes() == oracle.tobytes()


def test_scan_examples_reach_the_periodic_images():
    """The explicit examples of the oracle test above seed windows on the
    grid edge, so their comparison covers the periodic images."""
    for n, p, l, counts in ((8, "0", "-0.5", [4, 2, 4]),
                            (50, "0", "-0.5", [4, 2, 1]),
                            (200, "0.05", "-0.5", [1, 2, 4]),
                            (200, "0.3 + 0.2*cos(3*t)", "2", [1, 1, 4])):
        gf = numeric_periodic_green(pc(p), pc(l), OMEGA, n=n)
        assert _grid_argmax_images(gf) == counts


def test_window_abscissae_match_linspace():
    """The scan's window abscissae are np.linspace's, bit for bit, at every
    width the scan uses on grids of 8, 50 and 200 cells: random centres,
    and the centres 0, width/2, omega - width/2 and omega, whose windows
    are clipped at 0 or at omega."""
    rng = np.random.default_rng(23)
    for omega in (2.0 * math.pi / 3.0, 0.05, 3.0, *rng.uniform(0.01, 50.0, 5)):
        for n in (8, 50, 200):
            width = omega / n
            for _ in range(_SCAN_LEVELS):
                centres = np.concatenate((
                    [0.0, 0.5 * width, omega - 0.5 * width, omega],
                    rng.uniform(0.0, omega, 60)))
                ref = np.linspace(np.maximum(0.0, centres - width),
                                  np.minimum(omega, centres + width),
                                  _SCAN_POINTS, axis=-1)
                found = _window_abscissae(centres, width, omega)
                assert found.shape == ref.shape
                assert found.tobytes() == ref.tobytes()
                width /= 8.0


def _count_grid_evaluations(monkeypatch):
    """Record every (G, Gt) pair greens._evaluate returns."""
    calls = []
    evaluate = greens._evaluate

    def counted(factors, t, s, branch="auto"):
        calls.append(evaluate(factors, t, s, branch))
        return calls[-1]

    monkeypatch.setattr(greens, "_evaluate", counted)
    return calls


def test_certify_builds_no_closed_form_kernel_grid(monkeypatch, spec41):
    calls = _count_grid_evaluations(monkeypatch)
    cert = certify(spec41)
    assert cert.greens.source == "closed-form" and cert.verdict
    assert calls == []


def test_greens_command_evaluates_the_grid_once(monkeypatch, tmp_path,
                                                capsys):
    monkeypatch.setenv("PERIORBIT_OUT", str(tmp_path))
    calls = _count_grid_evaluations(monkeypatch)
    built = []
    kernel = cli.kernel_for

    def recorded(*args, **kwargs):
        built.append(kernel(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "kernel_for", recorded)
    assert cli.main(["greens", "example41"]) == 0
    assert "rows = 40401" in capsys.readouterr().out
    assert len(calls) == 1 and len(built) == 1
    assert built[0].G is calls[0][0] and built[0].Gt is calls[0][1]


def test_numeric_factors_evaluate_phi_once_a_call(monkeypatch):
    """A numeric kernel's build evaluates its grid once, for the positivity
    test and the scan seeds, and hands it over; every factors call, the
    grid's and each scan level's, makes one dense evaluation of Phi."""
    grid_calls = _count_grid_evaluations(monkeypatch)
    factor_sizes, dense_sizes = [], []
    dense = ivp.DenseSolution.__call__
    assemble = greens._assemble

    def counted_dense(self, t):
        dense_sizes.append(len(t))
        return dense(self, t)

    def counted_assemble(omega, n, factors, source, extremes=None):
        def counted_factors(t, s):
            factor_sizes.append(len(t) + len(s))
            return factors(t, s)
        return assemble(omega, n, counted_factors, source, extremes)

    monkeypatch.setattr(ivp.DenseSolution, "__call__", counted_dense)
    monkeypatch.setattr(greens, "_assemble", counted_assemble)
    gf = numeric_periodic_green(pc(P_VARYING), pc(L_VARYING), OMEGA, n=60)
    assert len(factor_sizes) == 1 + _SCAN_LEVELS
    # reading the grid evaluates nothing more
    assert gf.G is grid_calls[0][0] and gf.Gt is grid_calls[0][1]
    assert len(grid_calls) == 1
    gf.kernel(np.linspace(0.0, OMEGA, 7), np.linspace(0.0, OMEGA, 5))
    assert len(factor_sizes) == 2 + _SCAN_LEVELS
    assert dense_sizes == factor_sizes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(omega=st.floats(0.5, 5.0), half=st.floats(0.01, math.pi / 2))
def test_closed_form_constants_match_dense_cosine_scan(omega, half):
    """The analytic constants against a direct-cosine scan of both branches,
    for half angles xi omega/2 up to pi/2, the positivity edge xi = pi/omega
    where the closed form stops."""
    xi = 2.0 * half / omega
    assume(xi < math.pi / omega)
    gf = closed_form_constant(xi, omega, n=8)
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
    assert homogeneous_residual(gf, 0.0, XI * XI) <= 1e-4
    # rows at t = 0 and t = omega agree for interior source points
    assert periodicity_mismatch(gf) <= 1e-6
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
    for branch, V in (("lower", V_lo), ("upper", V_up)):
        G, Gt = _direct_kernel(which, t, s, branch)
        assert np.max(np.abs(U @ V.T - G)) <= tol * np.max(np.abs(G))
        assert np.max(np.abs(dU @ V.T - Gt)) <= tol * np.max(np.abs(Gt))
        assert np.array_equal(gf.kernel(t, s, branch=branch)[0], U @ V.T)


def test_solve_linear_constant_forcing(gf_closed):
    """For constant l the periodic response to h = 1 is exactly 1/l."""
    u = solve_linear(gf_closed, lambda s: np.ones_like(s))
    assert np.max(np.abs(u - 16.0)) < 1e-9


def test_solve_linear_superposition(gf_closed):
    h1 = lambda s: np.exp(np.sin(3.0 * s))
    h2 = lambda s: 1.0 + 0.5 * np.cos(3.0 * s)
    combo = solve_linear(gf_closed, lambda s: 2.0 * h1(s) - 3.0 * h2(s))
    parts = 2.0 * solve_linear(gf_closed, h1) - 3.0 * solve_linear(gf_closed, h2)
    scale = float(np.max(np.abs(parts))) + 1.0
    assert np.max(np.abs(combo - parts)) <= 1e-12 * scale


@pytest.fixture(scope="module")
def gf_varying():
    return numeric_periodic_green(pc(P_VARYING), pc(L_VARYING), OMEGA)


def test_varying_coefficients_properties(gf_varying):
    assert gf_varying.source == "numeric"
    assert homogeneous_residual(gf_varying, pc(P_VARYING),
                                pc(L_VARYING)) <= 1e-4
    assert periodicity_mismatch(gf_varying) <= 1e-6
    rng = np.random.default_rng(7)
    s_vals = rng.uniform(0.05 * OMEGA, 0.95 * OMEGA, size=20)
    assert float(np.max(diagonal_jump_error(gf_varying, s_vals))) <= 1e-4


def test_solve_linear_cross_checked_against_ivp(gf_varying):
    """The periodic response must actually solve u'' + p u' + l u = h: start
    an independent initial-value integration from (u(0), u'(0)) and compare."""
    from periorbit.ivp import solve_ivp_dp

    h = lambda s: 1.0 + 0.3 * np.sin(3.0 * s) + 0.1 * np.cos(6.0 * s)
    u, up = solve_linear(gf_varying, h, return_derivative=True)
    p, l = pc(P_VARYING), pc(L_VARYING)

    def f(t, y):
        ta = np.array([t])
        return np.array([
            y[1],
            float(h(ta)[0]) - float(p(ta)[0]) * y[1] - float(l(ta)[0]) * y[0],
        ])

    res = solve_ivp_dp(callable_field(f), 0.0, [u[0], up[0]], OMEGA,
                       rtol=1e-12, atol=1e-14, dense=True)
    vals = res.dense(gf_varying.t)
    scale = float(np.max(np.abs(u))) + 1.0
    assert np.max(np.abs(vals[:, 0] - u)) <= 1e-6 * scale
    assert np.max(np.abs(vals[:, 1] - up)) <= 1e-6 * scale
    # the trajectory closes up: the response is a genuine periodic solution
    assert abs(res.y[0] - u[0]) <= 1e-6 * scale
    assert abs(res.y[1] - up[0]) <= 1e-6 * scale


def test_resonance_periodic_numeric():
    with pytest.raises(ResonanceError):
        numeric_periodic_green(0.0, 9.0, OMEGA)
    # p = l = 0 writes no term at all: u'' = 0, whose constants are
    # periodic
    with pytest.raises(ResonanceError, match="eigenvalue 1"):
        numeric_periodic_green(pc("0"), 0.0, OMEGA)


def test_resonance_antiperiodic_numeric():
    # xi*omega = pi: monodromy eigenvalue -1; the numeric construction
    # refuses rather than returning a sign-degenerate kernel
    with pytest.raises(ResonanceError):
        numeric_periodic_green(0.0, 2.25, OMEGA)


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
                    numeric_periodic_green(0.0, xi * xi, OMEGA, n=8)
            else:
                numeric_periodic_green(0.0, xi * xi, OMEGA, n=8)


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
    gf = numeric_periodic_green(p, l, omega, n=120)
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
