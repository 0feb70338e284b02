"""Guarded integration, Newton shooting, operator application, cone checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import OMEGA, make_cheap_spec, make_constant_spec, pc
from kernel_oracles import branch_kernel, solve_linear
from periorbit import (
    NoConvergenceError,
    ProblemSpec,
    State,
    find_periodic,
    parse_problem_text,
)
from periorbit.greens import closed_form_constant, numeric_periodic_green
from periorbit.ivp import IntegrationBlowUp, eigvals_2x2
from periorbit.solver import (
    _MAX_NEWTON,
    _SHOOT_RTOL,
    _START_FACTORS,
    STOP_CAP,
    STOP_FLOOR,
    STOP_LINE_SEARCH,
    STOP_SHOT,
    STOP_SINGULAR,
    STOP_STAGNANT,
    _Flow,
    _return_map,
    apply_T,
    cone_check,
    guard_floor,
)
from periorbit.transform import (TRANSFORMED, PositivityError, SampledPath,
                                 residual, to_y_equation)
from shooting_oracles import integrate, vector_field

XBAR = (3.0 + math.sqrt(13.0)) / 2.0  # positive root of x^2 - 3x - 1 = 0

# A generated family text with varying p and q: its kernel is numeric and
# its orbit's multipliers have product exp(-0.0528 omega).
NUMERIC_P_TEXT = ("omega = 2*pi/3\n"
                  "p = 0.0528 + 0.028*cos(3*t)\n"
                  "q = 0.0302 + 0.0098*sin(3*t)\n"
                  "b = 1.4617 + 0.1767*cos(3*t)\n"
                  "c = 1.0929*exp(1.3484*sin(3*t))\n"
                  "e = 9.7496 + 1.1534*cos(3*t)\n"
                  "rho1 = 1.5654\n"
                  "rho2 = 1.5654\n")
P_MEAN = 0.0528


@pytest.fixture(scope="module")
def spec_numeric_p():
    return parse_problem_text(NUMERIC_P_TEXT).spec


def _no_orbit_spec(om=0.3):
    """x'' = x + 1/x + 1 has no periodic solution: v strictly increases by
    at least 3 omega per period."""
    return ProblemSpec(p=pc("0", om), q=pc("-1", om), b=pc("0", om),
                       c=pc("1", om), e=pc("1", om),
                       rho1=1.0, rho2=1.0, omega=om)


def _counting_shots(monkeypatch):
    """Count every integration the solver makes, at the name it calls."""
    import periorbit.solver as solver

    integrations = []
    integrate_dp = solver.solve_ivp_dp

    def counted(*args, **kwargs):
        integrations.append(None)
        return integrate_dp(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_ivp_dp", counted)
    return integrations


def test_rhs_frozen_oracle(spec41):
    """Hand evaluation at t=0, x=400, v=0:
    -q x + b x^(-3/2) + c x^(-1.3) + e = -10 + 3/400^1.5 + 1/400^1.3 + 11."""
    oracle = (-0.025 * 400.0 + 3.0 * 400.0 ** -1.5
              + 1.0 * 400.0 ** -1.3 + 11.0)
    assert oracle == pytest.approx(1.0007893067521678, rel=1e-15)
    f = vector_field(spec41)
    dx, dv = f(0.0, (400.0, 0.0))
    assert dx == 0.0
    assert dv == pytest.approx(oracle, rel=1e-13)
    # velocity passes straight through
    dx2, _ = f(0.0, (400.0, -2.5))
    assert dx2 == -2.5


def test_guard_floor_scales_with_amplitude(spec41):
    # mean e / mean q = 10 / (1/40) = 400
    assert guard_floor(spec41) == pytest.approx(4e-4, rel=1e-9)
    # without a positive linear coefficient the scale falls back to |mean e|
    free = ProblemSpec(p=pc("0"), q=pc("0"), b=pc("0"), c=pc("1"), e=pc("3"),
                       rho1=1.0, rho2=1.0, omega=OMEGA)
    assert guard_floor(free) == pytest.approx(3e-6, rel=1e-9)


def test_rhs_vanishes_at_equilibrium():
    spec = make_constant_spec()
    _, dv = vector_field(spec)(0.0, (XBAR, 0.0))
    assert abs(dv) < 1e-14


def test_poincare_fixes_equilibrium():
    spec = make_constant_spec()
    path = integrate(spec, XBAR, 0.0)
    assert path.t[-1] == pytest.approx(OMEGA, abs=1e-13)
    assert path.x[-1] == pytest.approx(XBAR, abs=1e-8)
    assert path.v[-1] == pytest.approx(0.0, abs=1e-8)


def test_integrate_path_shape(spec41):
    path = integrate(spec41, 400.0, 0.0)
    assert path.t.size == 2049
    assert path.t[0] == 0.0
    assert path.t[-1] == pytest.approx(OMEGA, abs=1e-14)
    # the dense end sample agrees with the terminal state of a plain shot
    end = _Flow(spec41).shoot(400.0, 0.0).y
    assert path.x[-1] == pytest.approx(end[0], abs=1e-8)
    assert path.v[-1] == pytest.approx(end[1], abs=1e-8)
    small = integrate(spec41, 400.0, 0.0, samples=101)
    assert small.t.size == 101


def test_integrate_zero_span_and_backward(spec41):
    p = integrate(spec41, 400.0, 1.0, t0=2.0, t1=2.0)
    assert p.t.size == 1 and p.x[0] == 400.0 and p.v[0] == 1.0
    with pytest.raises(ValueError):
        integrate(spec41, 400.0, 0.0, t0=1.0, t1=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_find_periodic_rejects_tol_not_finite_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        find_periodic(make_cheap_spec(), tol=tol)


@pytest.mark.parametrize("x,v", [(math.nan, 0.0), (math.inf, 0.0),
                                 (2.0, math.nan), (2.0, -math.inf)])
def test_find_periodic_rejects_a_guess_not_finite(x, v):
    """A start that is not finite is refused before any shot: a nan
    velocity once converged, and a nan or infinite position failed as a
    guard-floor or convergence error."""
    with pytest.raises(ValueError, match="guess must be finite"):
        find_periodic(make_cheap_spec(), guess=State(t=0.0, x=x, v=v))


def test_find_periodic_constant_instance():
    spec = make_constant_spec()
    orbit = find_periodic(spec, tol=1e-10)
    # independent oracle: the orbit is the equilibrium root of x^2-3x-1
    roots = np.roots([1.0, -3.0, -1.0])
    xbar = float(roots[roots > 0.0][0])
    assert np.max(np.abs(orbit.path.x - xbar)) <= 1e-8 * xbar
    assert np.max(np.abs(orbit.path.v)) <= 1e-8 * xbar
    assert orbit.periodicity_residual <= 1e-10
    assert orbit.min_x == pytest.approx(xbar, rel=1e-8)


def test_orbit_structure(spec41, orbit41):
    o = orbit41
    assert o.omega == pytest.approx(OMEGA, rel=1e-15)
    assert o.path.t.size == 2049
    assert o.path.t[0] == 0.0 and o.path.t[-1] == pytest.approx(OMEGA, abs=1e-12)
    # y-path is the power image of the x-path: y = x^(1+rho1) = x^2.5
    y_expected = o.path.x ** 2.5
    assert np.max(np.abs(o.y_path.x - y_expected)) <= 1e-10 * np.max(y_expected)
    assert o.norm_y == pytest.approx(
        float(np.max(np.abs(o.y_path.x)) + np.max(np.abs(o.y_path.v))), rel=1e-12)
    assert o.min_x == pytest.approx(float(np.min(o.path.x)), rel=1e-12)
    assert o.min_x > 0.0
    assert o.start_factor in (1.0, 0.5, 0.75, 1.5, 2.0)
    assert o.tol == 1e-8
    s = o.summary()
    assert set(s) == {"x0", "v0", "omega", "periodicity_residual",
                      "ode_residual", "ode_residual_y", "min_x", "norm_y",
                      "newton_steps", "start_factor", "tol",
                      "multiplier1_re", "multiplier1_im", "multiplier2_re",
                      "multiplier2_im", "det_M_minus_I"}


def test_orbit_initial_values_frozen(orbit41, orbit42, orbit43):
    assert orbit41.initial.x == pytest.approx(399.93134103492781, rel=1e-6)
    assert orbit42.initial.x == pytest.approx(399.89412362498058, rel=1e-6)
    assert orbit43.initial.x == pytest.approx(399.90495522637127, rel=1e-6)


def test_orbit_residuals(orbit41, orbit42, orbit43):
    for o in (orbit41, orbit42, orbit43):
        assert o.periodicity_residual <= 1e-8
        assert o.ode_residual <= 1e-4 * 11.0
        assert o.min_x > 0.0
        assert o.newton_steps <= 10


def test_newton_converges_from_good_guess(spec41):
    orbit = find_periodic(spec41, guess=State(t=0.0, x=400.0, v=0.0), tol=1e-8)
    assert orbit.newton_steps <= 3
    assert orbit.initial.x == pytest.approx(399.93134103492781, rel=1e-6)


@settings(max_examples=110, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(frac=st.floats(0.0, 1.0))
def test_poincare_shift_property(cheap_orbit, frac):
    """Flowing the orbit to any phase tau and then through one more period
    returns to the same state: the periodic orbit is a fixed point of every
    time-tau return map."""
    spec = make_cheap_spec()
    tau = frac * OMEGA
    x0, v0 = cheap_orbit.initial.x, cheap_orbit.initial.v
    if tau < 1e-9:
        tau = 0.0
        xt, vt = x0, v0
    else:
        leg = integrate(spec, x0, v0, t0=0.0, t1=tau, samples=3)
        xt, vt = float(leg.x[-1]), float(leg.v[-1])
    ret = integrate(spec, xt, vt, t0=tau, t1=tau + OMEGA, samples=3)
    err = math.hypot(float(ret.x[-1]) - xt, float(ret.v[-1]) - vt)
    assert err <= 10.0 * cheap_orbit.tol


def test_apply_T_constant_case():
    """Constant instance: y = 4 maps to (c/a + (e/a) sqrt(y)) / l = 14/2 = 7,
    approached at the trapezoid rule's second order in the grid step."""
    spec = make_constant_spec()
    tspec = to_y_equation(spec)
    gf = closed_form_constant(math.sqrt(2.0), OMEGA)

    def worst_error(samples):
        t = np.linspace(0.0, OMEGA, samples)
        y = SampledPath(t=t, x=np.full(t.size, 4.0), v=np.zeros(t.size))
        Ty = apply_T(gf, tspec, y)
        assert Ty.t.size == t.size
        assert np.max(np.abs(Ty.v)) <= 1e-7  # exact limit is a constant
        return float(np.max(np.abs(Ty.x - 7.0)))

    coarse, fine = worst_error(201), worst_error(401)
    assert coarse <= 2e-4
    assert fine <= 5e-5
    # halving the step shrinks the defect ~4x: second-order quadrature
    assert 2.5 <= coarse / fine <= 6.0
    assert worst_error(2049) <= 2e-6


def test_apply_T_gradient_term_against_kernel_solve():
    """The operator is the periodic response to the whole right-hand side,
    gradient term included, independently computable from the kernel.  On
    the constant instance alpha = 1/2: the load is 2 c + 2 e y^(1/2)
    + (1/2) y'^2 / y with c = 1, e = 3 and b = 0."""
    spec = make_constant_spec()
    gf = closed_form_constant(math.sqrt(2.0), OMEGA)
    t = np.linspace(0.0, OMEGA, 513)
    y = SampledPath(t=t, x=4.0 + np.sin(3.0 * t), v=3.0 * np.cos(3.0 * t))
    Ty = apply_T(gf, to_y_equation(spec), y)
    load = lambda s: (2.0 + 6.0 * np.sqrt(4.0 + np.sin(3.0 * s))
                      + 0.5 * (3.0 * np.cos(3.0 * s)) ** 2
                      / (4.0 + np.sin(3.0 * s)))
    u, up = solve_linear(gf, t, load, return_derivative=True)
    scale = float(np.max(np.abs(u))) + 1.0
    assert np.max(np.abs(Ty.x - u)) <= 1e-5 * scale
    assert np.max(np.abs(Ty.v - up)) <= 1e-5 * scale


def _dense_apply_T(gf, tspec, y):
    """Reference operator: the trapezoid weight matrices split at the
    diagonal, applied to full kernel rows (O(n^2) time and memory)."""
    t = y.t
    n = t.size - 1
    c, e, b = (E.scaled(tspec.k) for E in (tspec.spec.c, tspec.spec.e,
                                            tspec.spec.b))
    F = (c(t) * y.x ** tspec.exponent_c
         + e(t) * y.x ** tspec.exponent_e
         + tspec.gradient_factor * y.v * y.v / y.x
         + b(t))
    h = y.step
    Ty = np.empty(t.size)
    Typ = np.empty(t.size)
    cols = np.arange(t.size)
    chunk = max(1, int(5e5 // t.size))
    for lo in range(0, t.size, chunk):
        hi = min(t.size, lo + chunk)
        G_lo, Gt_lo = branch_kernel(gf, t[lo:hi], t, "lower")
        G_up, Gt_up = branch_kernel(gf, t[lo:hi], t, "upper")
        idx = np.arange(lo, hi)[:, None]
        W_lo = np.where(cols[None, :] < idx, h, 0.0)
        W_lo[:, 0] = 0.5 * h
        W_lo[cols[None, :] == idx] = 0.5 * h
        W_lo[idx[:, 0] == 0, :] = 0.0
        W_up = np.where(cols[None, :] > idx, h, 0.0)
        W_up[:, -1] = 0.5 * h
        W_up[cols[None, :] == idx] = 0.5 * h
        W_up[idx[:, 0] == n, :] = 0.0
        Ty[lo:hi] = (W_lo * G_lo + W_up * G_up) @ F
        Typ[lo:hi] = (W_lo * Gt_lo + W_up * Gt_up) @ F
    return Ty, Typ


@pytest.fixture(scope="module")
def operator_kernels():
    return {
        "closed": closed_form_constant(0.25, OMEGA),
        "numeric": numeric_periodic_green(pc("1/5+1/10*sin(3*t)"),
                                          pc("4/5+3/10*cos(3*t)"), OMEGA),
    }


@pytest.mark.parametrize("which", ["closed", "numeric"])
@pytest.mark.parametrize("n", [2, 3, 64, 2048])
def test_apply_T_matches_dense_weight_matrices(operator_kernels, spec41,
                                               which, n):
    gf = operator_kernels[which]
    t = np.linspace(0.0, OMEGA, n + 1)
    y = SampledPath(t=t, x=6.0 + np.sin(3.0 * t + 0.7) + 0.5 * np.cos(6.0 * t),
                    v=3.0 * np.cos(3.0 * t + 0.7) - 3.0 * np.sin(6.0 * t))
    tspec = to_y_equation(spec41)
    Ty = apply_T(gf, tspec, y)
    ref_x, ref_v = _dense_apply_T(gf, tspec, y)
    # relative to the C^1 norm of the image: on three samples the closed
    # form's derivative vanishes exactly, leaving only rounding in ref_v
    norm = np.max(np.abs(ref_x)) + np.max(np.abs(ref_v))
    assert np.max(np.abs(Ty.x - ref_x)) <= 1e-12 * norm
    assert np.max(np.abs(Ty.v - ref_v)) <= 1e-12 * norm


def test_apply_T_memory_is_linear(operator_kernels, spec41):
    """A dense 2049 x 2049 kernel row block alone would take 32 MB."""
    t = np.linspace(0.0, OMEGA, 2049)
    y = SampledPath(t=t, x=6.0 + np.sin(3.0 * t), v=3.0 * np.cos(3.0 * t))
    tspec = to_y_equation(spec41)
    for gf in operator_kernels.values():
        tracemalloc.start()
        try:
            apply_T(gf, tspec, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20


def test_apply_T_validation():
    spec = make_constant_spec()
    tspec = to_y_equation(spec)
    gf = closed_form_constant(math.sqrt(2.0), OMEGA)
    t_bad = np.linspace(0.0, 0.5 * OMEGA, 65)
    with pytest.raises(ValueError):
        apply_T(gf, tspec, SampledPath(t=t_bad, x=np.ones(65), v=np.zeros(65)))
    t = np.linspace(0.0, OMEGA, 65)
    x = np.ones(65)
    x[30] = 0.0
    with pytest.raises(PositivityError):
        apply_T(gf, tspec, SampledPath(t=t, x=x, v=np.zeros(65)))


def test_apply_T_fixed_point_on_certified_orbit(spec41, cert41, orbit41):
    gf = cert41.greens
    tspec = to_y_equation(spec41)
    Ty = apply_T(gf, tspec, orbit41.y_path)
    rel = float(np.max(np.abs(Ty.x - orbit41.y_path.x))) / orbit41.norm_y
    assert rel <= 1e-6


def test_cone_membership_of_certified_orbit(cert41, orbit41):
    k = cert41.computed.constants
    report = cone_check(orbit41.y_path, k.sigma, k.delta)
    assert report.in_cone is True
    assert report.floor_margin >= 0.0
    assert report.slope_margin >= 0.0
    assert report.norm == pytest.approx(orbit41.norm_y, rel=1e-12)


def test_cone_check_rejects_violations():
    t = np.linspace(0.0, 1.0, 11)
    flat = SampledPath(t=t, x=np.ones(11), v=np.zeros(11))
    assert cone_check(flat, 0.9, 0.1).in_cone is True
    steep = SampledPath(t=t, x=np.ones(11), v=np.full(11, 0.5))
    rep = cone_check(steep, 0.5, 0.1)
    assert rep.in_cone is False
    assert rep.slope_margin < 0.0
    shallow = SampledPath(t=t, x=np.linspace(1.0, 1.0, 11), v=np.zeros(11))
    assert cone_check(shallow, 1.001, 0.1).in_cone is False  # floor above min


def test_integration_blowup_near_attractive_singularity():
    spec = ProblemSpec(p=pc("0"), q=pc("1"), b=pc("-5"), c=pc("1/1000"),
                       e=pc("1/1000"), rho1=1.0, rho2=1.0, omega=OMEGA)
    with pytest.raises(IntegrationBlowUp) as exc:
        integrate(spec, 0.5, -3.0)
    assert exc.value.t > 0.0
    assert exc.value.y[0] > 0.0  # last accepted state still above the floor


def test_zero_b_takes_no_power_near_the_floor():
    """b = 0 writes no b x^-rho1 term into the shooting fields, so a shot
    from just above the guard floor with rho1 = 100, where x^-rho1 is past
    the float range, integrates.  The term's 0.0 * x ** -100 would raise
    OverflowError and fail the shot."""
    spec = ProblemSpec(p=pc("0"), q=pc("1"), b=pc("0"), c=pc("1"),
                       e=pc("3 + cos(3*t)"), rho1=100.0, rho2=1.0,
                       omega=OMEGA)
    flow = _Flow(spec)
    x0 = 2.0 * flow.eps_min
    with pytest.raises(OverflowError):
        x0 ** -spec.rho1
    for jacobian in (False, True):
        shot = _return_map(flow, x0, 0.0, jacobian=jacobian)
        assert shot is not None
        assert all(math.isfinite(value) for value in shot[:2])


def test_find_periodic_rejects_subfloor_starts(spec41):
    """Every start below the guard floor: nothing is shot, and the search
    fails as any other, with NoConvergenceError and every stop the floor."""
    with pytest.raises(NoConvergenceError, match=STOP_FLOOR) as exc:
        find_periodic(spec41, guess=State(t=0.0, x=1e-9, v=0.0))
    err = exc.value
    assert err.stops == (STOP_FLOOR,) * len(_START_FACTORS)
    assert (err.shots, err.newton_steps) == (0, 0)
    assert err.best_residual == math.inf


def test_find_periodic_reports_no_convergence(monkeypatch):
    """Every start on a text without orbit must fail with the best
    residual reported, together with the shots and Newton steps spent and
    why each start stopped."""
    om = 0.3
    integrations = _counting_shots(monkeypatch)
    with pytest.raises(NoConvergenceError) as exc:
        find_periodic(_no_orbit_spec(om), tol=1e-8)
    err = exc.value
    assert err.best_residual >= 3.0 * om - 1e-9
    assert err.shots == len(integrations) > 0
    assert 0 < err.newton_steps <= len(_START_FACTORS) * _MAX_NEWTON
    # every start reaches the minimum of |F|, which is not a root: there
    # the Newton step explodes and no candidate along it is admissible
    assert err.stops == (STOP_LINE_SEARCH,) * len(_START_FACTORS)
    # every start reaches Newton with one Jacobian shot, and each step
    # shoots at least one line-search candidate
    assert err.shots >= err.newton_steps + len(_START_FACTORS)
    assert f"{err.shots} shots, {err.newton_steps} Newton steps" in str(err)
    assert str(err).count(STOP_LINE_SEARCH) == len(_START_FACTORS)


def test_no_convergence_names_a_subfloor_start(monkeypatch):
    """A start below the guard floor is reported as such among the
    others, as when every start is below it."""
    spec = _no_orbit_spec()
    floor = guard_floor(spec)
    # factor 0.5 puts the second start below the floor, the others above
    with pytest.raises(NoConvergenceError) as exc:
        find_periodic(spec, guess=State(t=0.0, x=1.5 * floor, v=0.0))
    stops = exc.value.stops
    assert len(stops) == len(_START_FACTORS)
    assert [i for i, stop in enumerate(stops) if stop == STOP_FLOOR] == [1]
    assert STOP_FLOOR in str(exc.value)


def test_shot_budget(monkeypatch, spec41, spec42, spec43):
    """One Jacobian shot for the start and one full-step candidate, which
    carries Phi and dense output and so is packaged as the orbit: two
    shots for the bundled instances, and a bounded failure on a text
    without orbit."""
    integrations = _counting_shots(monkeypatch)
    for spec in (spec41, spec42, spec43):
        integrations.clear()
        orbit = find_periodic(spec, tol=1e-8)
        assert orbit.newton_steps == 1
        assert len(integrations) == 2
    integrations.clear()
    with pytest.raises(NoConvergenceError):
        find_periodic(_no_orbit_spec(), tol=1e-8)
    assert len(integrations) <= 1000


def _stops(spec):
    """The stop of every start of a search that does not converge."""
    with pytest.raises(NoConvergenceError) as exc:
        find_periodic(spec, tol=1e-8)
    return exc.value.stops


def test_newton_cap_stops_every_start(monkeypatch, spec41):
    import periorbit.solver as solver

    monkeypatch.setattr(solver, "_MAX_NEWTON", 0)
    assert _stops(spec41) == (STOP_CAP,) * len(_START_FACTORS)


def _fixed_return_map(M):
    """A stand-in for _return_map: every shot gives the defect (1, 0), and
    a Jacobian shot the monodromy matrix M."""
    def shot(flow, x, v, jacobian=False, dense=False):
        return 1.0, 0.0, list(M) if jacobian else None, None
    return shot


@pytest.mark.parametrize("M", [
    (1.0, 0.0, 0.0, 1.0),        # M - I = 0: zero determinant
    (1.0, 1e-310, 1e-10, 1.0),   # subnormal determinant: the step overflows
], ids=["zero-det", "overflowing-step"])
def test_singular_jacobian_stops_every_start(monkeypatch, spec41, M):
    import periorbit.solver as solver

    monkeypatch.setattr(solver, "_return_map", _fixed_return_map(M))
    assert _stops(spec41) == (STOP_SINGULAR,) * len(_START_FACTORS)


def test_stagnation_stops_every_start(monkeypatch, spec41):
    """A defect that no step decreases: each Newton step backtracks through
    every candidate, and the start stops after _MAX_STAGNANT such steps."""
    import periorbit.solver as solver

    monkeypatch.setattr(solver, "_MAX_STAGNANT", 2)
    monkeypatch.setattr(solver, "_return_map",
                        _fixed_return_map((2.0, 0.0, 0.0, 2.0)))
    with pytest.raises(NoConvergenceError) as exc:
        find_periodic(spec41, tol=1e-8)
    assert exc.value.stops == (STOP_STAGNANT,) * len(_START_FACTORS)
    assert exc.value.newton_steps == 2 * len(_START_FACTORS)


def test_end_point_not_finite_stops_every_start(monkeypatch, spec41):
    """A shot that integrates but ends on a value that is not finite is a
    failed shot: each start stops on its first one, before any step."""
    import periorbit.solver as solver

    integrate_dp = solver.solve_ivp_dp

    def not_finite(*args, **kwargs):
        res = integrate_dp(*args, **kwargs)
        res.y[0] = math.nan
        return res

    monkeypatch.setattr(solver, "solve_ivp_dp", not_finite)
    with pytest.raises(NoConvergenceError) as exc:
        find_periodic(spec41, tol=1e-8)
    assert exc.value.stops == (STOP_SHOT,) * len(_START_FACTORS)
    assert exc.value.shots == len(_START_FACTORS)
    assert exc.value.newton_steps == 0


def test_failed_jacobian_reshot_stops_every_start(monkeypatch, spec41):
    """The full step's defect grows, the backtracked plain candidate's
    shrinks, so the step is taken without a Jacobian; the next step's
    Jacobian shot at that point fails, and each start stops after one
    step."""
    import periorbit.solver as solver

    M, plain = [2.0, 0.0, 0.0, 2.0], set()

    def shot(flow, x, v, jacobian=False, dense=False):
        if not jacobian:
            plain.add((x, v))
            return 0.5, 0.0, None, None
        if dense:
            return 2.0, 0.0, M, None
        return None if (x, v) in plain else (1.0, 0.0, M, None)

    monkeypatch.setattr(solver, "_return_map", shot)
    with pytest.raises(NoConvergenceError) as exc:
        find_periodic(spec41, tol=1e-8)
    assert exc.value.stops == (STOP_SHOT,) * len(_START_FACTORS)
    assert exc.value.newton_steps == len(_START_FACTORS)


@pytest.mark.parametrize("M", [
    (2.0, 1.0, 1.0, 3.0),        # distinct real multipliers
    (-3.0, 0.5, 2.0, 0.25),      # real, of opposite signs
    (0.0, 1.0, 0.0, 0.0),        # nilpotent: both multipliers 0
])
def test_floquet_real_multipliers(M):
    mine = eigvals_2x2(M)
    ref = np.linalg.eigvals(np.array(M).reshape(2, 2))
    assert all(m.imag == 0.0 for m in mine)
    assert abs(mine[0]) >= abs(mine[1])
    assert np.allclose(sorted(m.real for m in mine), np.sort(ref.real),
                       rtol=1e-14, atol=0.0)


def test_package_reshoots_a_point_that_needs_no_step(spec41, orbit41):
    """A guess already on the orbit converges before any Newton step, so no
    carried shot exists and the orbit is packaged from a fresh one: the
    same orbit as Newton's, bit for bit."""
    orbit = find_periodic(spec41, guess=State(0.0, orbit41.initial.x,
                                              orbit41.initial.v))
    assert orbit.newton_steps == 0
    for field in ("t", "x", "v"):
        assert np.array_equal(getattr(orbit.path, field),
                              getattr(orbit41.path, field))
    for name in ("multipliers", "periodicity_residual", "ode_residual",
                 "ode_residual_y", "det_M_minus_I"):
        assert getattr(orbit, name) == getattr(orbit41, name)


def _residual_y_oracle(spec, path):
    """The y-equation defect on coefficients built here as E scaled by
    1/alpha, with the exponents written out."""
    alpha = spec.alpha
    l, c, e, b = (E.scaled(1.0 / alpha)
                  for E in (spec.q, spec.c, spec.e, spec.b))
    a = (path.v[2:] - path.v[:-2]) / (2.0 * path.step)
    t, x, v = path.t[1:-1], path.x[1:-1], path.v[1:-1]
    defect = (a + spec.p(t) * v + l(t) * x
              - c(t) * x ** (1.0 - alpha - alpha * spec.rho2)
              - e(t) * x ** (1.0 - alpha)
              - (1.0 - alpha) * v * v / x
              - b(t))
    return float(np.max(np.abs(defect)))


@pytest.mark.parametrize("which", ["example41", "example42", "example43",
                                   "numeric-p"])
def test_packaging_matches_a_fresh_shot(which, request):
    """However Newton reached the orbit, its path, Floquet data and
    y-residual are those of fresh shots from orbit.initial, bit for bit."""
    if which == "numeric-p":
        spec = request.getfixturevalue("spec_numeric_p")
        orbit = find_periodic(spec, tol=1e-8)
    else:
        spec = request.getfixturevalue("spec" + which[-2:])
        orbit = request.getfixturevalue("orbit" + which[-2:])
    x, v = orbit.initial.x, orbit.initial.v
    path = integrate(spec, x, v, tol=_SHOOT_RTOL)
    for mine, fresh in ((orbit.path.t, path.t), (orbit.path.x, path.x),
                        (orbit.path.v, path.v)):
        assert np.array_equal(mine, fresh)
    M = _Flow(spec).shoot(x, v, jacobian=True).y[2:].tolist()
    assert orbit.multipliers == eigvals_2x2(M)
    assert orbit.det_M_minus_I == (M[0] - 1.0) * (M[3] - 1.0) - M[1] * M[2]
    assert orbit.ode_residual_y == residual(spec, orbit.y_path, TRANSFORMED)
    assert orbit.ode_residual_y == _residual_y_oracle(spec, orbit.y_path)


def _scipy_return_map(spec, x, v):
    """(x, v)(omega) by scipy's DOP853 on the coefficients' own calls."""
    from scipy.integrate import solve_ivp

    def f(t, y):
        return [y[1], (-spec.p(t) * y[1] - spec.q(t) * y[0]
                       + spec.b(t) * y[0] ** -spec.rho1
                       + spec.c(t) * y[0] ** -spec.rho2 + spec.e(t))]

    res = solve_ivp(f, (0.0, spec.omega), [x, v], method="DOP853",
                    rtol=1e-12, atol=1e-12)
    assert res.success
    return res.y[:, -1]


@pytest.mark.parametrize("which", ["example41", "numeric-p"])
def test_jacobian_against_central_differences(which, spec41,
                                              spec_numeric_p):
    """M - I from the variational equations matches central differences
    of an independent return map at the default start."""
    spec = spec41 if which == "example41" else spec_numeric_p
    flow = _Flow(spec)
    x, v = flow.scale, 0.0
    _, _, M, _ = _return_map(flow, x, v, jacobian=True)
    J = np.array(M).reshape(2, 2) - np.eye(2)
    cols = []
    for j in range(2):
        h = 1e-3 * (1.0 + abs((x, v)[j]))
        e = h * np.eye(2)[j]
        plus = _scipy_return_map(spec, x + e[0], v + e[1])
        minus = _scipy_return_map(spec, x - e[0], v - e[1])
        cols.append((plus - minus) / (2.0 * h))
    oracle = np.column_stack(cols) - np.eye(2)
    assert np.max(np.abs(J - oracle)) <= 1e-6 * np.max(np.abs(oracle))


@pytest.mark.parametrize("which", ["example41", "numeric-p"])
def test_jacobian_shot_keeps_the_plain_state(which, spec41, spec_numeric_p):
    """The error norm leaves Phi out, so a shot that carries it takes the
    plain shot's steps and ends in its state, bit for bit."""
    spec = spec41 if which == "example41" else spec_numeric_p
    flow = _Flow(spec)
    plain = flow.shoot(flow.scale, 0.0, dense=True)
    var = flow.shoot(flow.scale, 0.0, dense=True, jacobian=True)
    assert var.y.shape == (6,)
    assert var.y[:2].tolist() == plain.y.tolist()
    counts = lambda r: (r.t, r.nsteps, r.nfev, r.rejected,
                        r.guard_rejections)
    assert counts(var) == counts(plain)
    ts = np.linspace(0.0, spec.omega, 257)
    assert np.array_equal(var.dense(ts)[:, :2], plain.dense(ts))


def test_floquet_multipliers_obey_liouville(orbit41, orbit42, orbit43,
                                            spec_numeric_p):
    """det M = exp(-int_0^omega p): 1 for the bundled instances (p = 0),
    exp(-0.0528 omega) for the numeric-p text."""
    numeric = find_periodic(spec_numeric_p, tol=1e-8)
    cases = [(o, 1.0) for o in (orbit41, orbit42, orbit43)]
    cases.append((numeric, math.exp(-P_MEAN * spec_numeric_p.omega)))
    for orbit, det in cases:
        m1, m2 = orbit.multipliers
        assert abs(m1 * m2 - det) <= 1e-8 * det
        assert abs(m1) >= abs(m2)
        assert orbit.det_M_minus_I == pytest.approx(
            ((m1 - 1.0) * (m2 - 1.0)).real, rel=1e-12, abs=1e-14)
        s = orbit.summary()
        assert (s["multiplier1_re"], s["multiplier1_im"]) == (m1.real,
                                                              m1.imag)
        assert (s["multiplier2_re"], s["multiplier2_im"]) == (m2.real,
                                                              m2.imag)
