"""Adaptive Runge-Kutta integrator: accuracy, dense output, guards, errors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (OMEGA, make_cheap_spec, make_constant_spec,
                      make_example, pc)
from periorbit import ProblemSpec, find_periodic
from periorbit.expressions import compiled
from periorbit.greens import ResonanceError
from periorbit.ivp import DenseSolution, IntegrationBlowUp, IvpResult, solve_ivp_dp
from periorbit.solver import _SHOOT_RTOL, _Flow
from shooting_oracles import callable_field, positivity_guard, vector_field


def _solve(f, t0, y0, t1, guard=None, **kwargs):
    """solve_ivp_dp on the field of a callable f(t, y) and guard(y)."""
    return solve_ivp_dp(callable_field(f, guard), t0, y0, t1, **kwargs)


def _harmonic(t, y):
    return np.array([y[1], -y[0]])


def test_harmonic_oscillator_endpoint():
    res = _solve(_harmonic, 0.0, [1.0, 0.0], 2.0 * math.pi,
                 rtol=1e-12, atol=1e-14)
    assert abs(res.t - 2.0 * math.pi) < 1e-14
    assert abs(res.y[0] - 1.0) < 1e-10
    assert abs(res.y[1]) < 1e-10
    assert res.nsteps > 10
    assert res.nfev >= 6 * res.nsteps


def test_dense_output_accuracy():
    res = _solve(_harmonic, 0.0, [1.0, 0.0], 2.0 * math.pi,
                 rtol=1e-12, atol=1e-14, dense=True)
    ts = np.linspace(0.0, 2.0 * math.pi, 1001)
    vals = res.dense(ts)
    err = np.abs(vals - np.stack([np.cos(ts), -np.sin(ts)], axis=1))
    assert np.max(err) < 1e-9
    # a one-element query agrees with the same point of a longer one
    assert np.array_equal(res.dense(ts[[617]]), vals[[617]])


def test_dense_output_rejects_out_of_span():
    res = _solve(_harmonic, 0.0, [1.0, 0.0], 1.0, dense=True)
    with pytest.raises(ValueError):
        res.dense(np.array([1.5]))
    with pytest.raises(ValueError):
        res.dense(np.array([-0.5]))


def _reference_dense(sol, t):
    """The dense evaluation as first written: two range checks, a clipped
    step index, a clipped theta and one expression for the quartic."""
    tq = np.asarray(t, dtype=float)
    lo, hi = min(sol.t0, sol.t1), max(sol.t0, sol.t1)
    if np.any(tq < lo - 1e-12 * (hi - lo + 1.0)) or \
            np.any(tq > hi + 1e-12 * (hi - lo + 1.0)):
        raise ValueError("dense evaluation outside the integrated span")
    idx = np.searchsorted(sol.lefts, tq, side="right") - 1
    idx = np.clip(idx, 0, len(sol.lefts) - 1)
    theta = (tq - sol.lefts[idx]) / sol.widths[idx]
    theta = np.clip(theta, 0.0, 1.0)[:, None]
    c = sol.coef[idx]
    one = 1.0 - theta
    out = c[:, 0] + theta * (c[:, 1] + one * (c[:, 2] + theta * (
        c[:, 3] + one * c[:, 4])))
    return out


def test_dense_call_matches_reference_formula():
    """Random, endpoint, step-boundary and just-outside-but-tolerated
    queries give the reference formula's values bit for bit."""
    rng = np.random.default_rng(7)
    res = _solve(lambda t, y: (y[2], y[3], -y[0], -y[1]), 0.5,
                 [1.0, 0.0, 0.0, 1.0], 3.0, rtol=1e-9, dense=True)
    sol = res.dense
    edges = np.concatenate([sol.lefts, sol.lefts + sol.widths])
    slack = 0.5e-12 * (2.5 + 1.0)
    queries = [
        rng.uniform(0.5, 3.0, 500),
        np.array([0.5, 3.0, 0.5 - slack, 3.0 + slack]),
        edges,
        np.nextafter(edges, -np.inf).clip(0.5, 3.0),
        np.nextafter(edges, np.inf).clip(0.5, 3.0),
        np.array([]),
    ]
    for tq in queries:
        mine = sol(tq)
        assert mine.shape == (tq.size, 4)
        assert np.array_equal(mine, _reference_dense(sol, tq))
    for t in (0.5, 3.0, float(sol.lefts[3]), 1.2345):
        tq = np.array([t])
        assert np.array_equal(sol(tq), _reference_dense(sol, tq))
    for bad in (0.5 - 4 * slack, 3.0 + 4 * slack):
        with pytest.raises(ValueError):
            sol(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            _reference_dense(sol, np.array([1.0, bad]))


def test_error_norm_over_leading_components():
    """Components past norm_dims ride along: a variational system adds
    them without moving the leading state or the steps."""
    def f(t, y):
        return (y[1], -math.sin(y[0]))

    def f_var(t, y):
        x, v, u, w, du, dw = y
        fx = -math.cos(x)
        return (v, -math.sin(x), du, dw, fx * u, fx * w)

    plain = _solve(f, 0.0, [1.0, 0.0], 7.0, rtol=1e-10, atol=1e-12)
    var = _solve(f_var, 0.0, [1.0, 0.0, 1.0, 0.0, 0.0, 1.0], 7.0,
                 rtol=1e-10, atol=1e-12, norm_dims=2)
    assert var.y[:2].tolist() == plain.y.tolist()
    assert (var.nsteps, var.nfev, var.rejected) == (plain.nsteps, plain.nfev,
                                                    plain.rejected)
    # a flow of a Hamiltonian system preserves area: det Phi = 1
    u, w, du, dw = var.y[2:]
    assert u * dw - w * du == pytest.approx(1.0, abs=1e-8)
    for bad in (0, 7):
        with pytest.raises(ValueError, match="norm_dims"):
            _solve(f_var, 0.0, [1.0, 0.0, 1.0, 0.0, 0.0, 1.0], 1.0,
                   norm_dims=bad)


def test_against_scipy_reference():
    """Cross-check a driven damped pendulum against an independent solver."""
    from scipy.integrate import solve_ivp as scipy_solve

    def f(t, y):
        return np.array([y[1], -math.sin(y[0]) - 0.1 * y[1] + 0.3 * math.cos(2.0 * t)])

    mine = _solve(f, 0.0, [1.0, 0.0], 10.0, rtol=1e-11, atol=1e-12)
    ref = scipy_solve(f, (0.0, 10.0), [1.0, 0.0], method="DOP853",
                      rtol=1e-12, atol=1e-13)
    assert ref.success
    assert np.max(np.abs(mine.y - ref.y[:, -1])) < 1e-8


def test_energy_drift_on_singular_oscillator():
    """One period of the conservative x'' = -q x + b x^(-3/2) + c x^(-1.3) + e
    preserves energy to 1e-8 relative."""
    q, b, c, e = 1.0 / 40.0, 3.0, 1.0, 11.0
    rho1, rho2 = 1.5, 1.3

    def f(t, y):
        x, v = y
        return np.array([v, -q * x + b * x ** (-rho1) + c * x ** (-rho2) + e])

    def energy(y):
        x, v = y
        potential = (0.5 * q * x * x
                     + b * x ** (1.0 - rho1) / (rho1 - 1.0)
                     + c * x ** (1.0 - rho2) / (rho2 - 1.0)
                     - e * x)
        return 0.5 * v * v + potential

    y0 = np.array([400.0, 0.0])
    res = _solve(f, 0.0, y0, 2.0 * math.pi / 3.0, rtol=1e-12, atol=1e-14)
    e0, e1 = energy(y0), energy(res.y)
    assert abs(e1 - e0) <= 1e-8 * abs(e0)


def test_guard_stops_integration():
    def f(t, y):
        return np.array([-1.0])

    with pytest.raises(IntegrationBlowUp) as exc:
        _solve(f, 0.0, [1.0], 2.0, guard=lambda y: y[0] < 0.5)
    err = exc.value
    # the last accepted state sits just above the guard line near t = 0.5
    assert err.y[0] >= 0.5
    assert 0.0 < err.t <= 0.5 + 1e-9


def test_guard_violated_at_start():
    def f(t, y):
        return np.array([-1.0])

    with pytest.raises(IntegrationBlowUp) as exc:
        _solve(f, 0.0, [0.1], 1.0, guard=lambda y: y[0] < 0.5)
    assert exc.value.t == 0.0


def test_backward_span_rejected():
    """A span that is backward or empty is refused: t1 must exceed t0."""
    for t1 in (0.0, 1.0):
        with pytest.raises(ValueError, match="must exceed t0"):
            _solve(_harmonic, 1.0, [1.0, 0.0], t1)


def test_span_ends_on_t1():
    """A zero slope grows each step by _MAX_FACTOR until the last one is
    clipped to t1.  Clipped from below t1/2, t + h can round to a hair off
    t1: short of it, the next step underflowed (t1 = 3.5237...), and past
    it the integration ended 1 ulp beyond t1 (t1 = 3.2218...).  The last
    step ends on t1 exactly."""
    for t1 in (3.5237267579127782, 3.2218977859380833,
               *np.linspace(0.1, 10.0, 199).tolist()):
        res = _solve(lambda t, y: (0.0,), 0.0, [0.0], t1)
        assert (res.t, res.nsteps) == (t1, 4)


def test_max_step_honored():
    res = _solve(_harmonic, 0.0, [1.0, 0.0], 1.0, max_step=0.01)
    assert res.nsteps >= 100


def test_counters_are_consistent():
    res = _solve(_harmonic, 0.0, [1.0, 0.0], 6.0)
    assert res.rejected >= 0
    assert res.guard_rejections == 0
    assert res.nfev >= 6 * (res.nsteps + res.rejected)


# ---------------------------------------------------------------------------
# oracle: the integrator as it was written over numpy arrays, one array
# operation per tableau row.  The float version must take the same steps.

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])


def _numpy_solve_ivp_dp(f, t0, y0, t1, rtol=1e-10, atol=1e-12, guard=None,
                        dense=False, max_step=np.inf):
    y = np.asarray(y0, dtype=float).copy()
    if guard is not None and guard(y):
        raise IntegrationBlowUp("initial state violates the guard", t0, y)
    span = t1 - t0
    hmin = 1e-14 * span
    h = min(span / 100.0, max_step, span)
    t = t0
    k = np.empty((7, y.size), dtype=float)
    k[0] = f(t, y)
    nfev = 1
    nsteps = rejected = guard_rejections = 0
    lefts, widths, coefs = [], [], []
    while t < t1:
        last = t1 - t < h + hmin
        if last:
            h = t1 - t
        if h < hmin:
            raise IntegrationBlowUp(
                f"step size underflow near t = {t:.12g}", t, y)
        guard_hit = False
        for i in range(1, 7):
            yi = y + h * (_A[i] @ k[:i])
            if guard is not None and guard(yi):
                guard_hit = True
                break
            k[i] = f(t + _C[i] * h, yi)
            nfev += 1
        if guard_hit:
            h *= 0.5
            guard_rejections += 1
            continue
        y_new = yi
        err_vec = h * (_E @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            if dense:
                dy = y_new - y
                r3 = h * k[0] - dy
                r4 = dy - h * k[6] - r3
                r5 = h * (_D @ k)
                coefs.append(np.stack([y, dy, r3, r4, r5]))
                lefts.append(t)
                widths.append(h)
            t = t1 if last else t + h
            y = y_new
            k[0] = k[6]
            nsteps += 1
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h = min(h * max(factor, 0.2), max_step)
        else:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
    sol = None
    if dense:
        sol = DenseSolution(t0, t1, np.asarray(lefts), np.asarray(widths),
                            np.asarray(coefs))
    return IvpResult(t, y, sol, nsteps, nfev, rejected, guard_rejections)


def _assert_same_run(f, y0, t1, guard=None, rtol=1e-12, atol=1e-14,
                     max_step=np.inf, field=None):
    """The loop and the numpy oracle take the same steps to within
    rounding; the loop runs field when given (it carries its own guard),
    else the field of f and guard."""
    mine = solve_ivp_dp(field or callable_field(f, guard), 0.0, y0, t1,
                        rtol=rtol, atol=atol, dense=True, max_step=max_step)
    ref = _numpy_solve_ivp_dp(f, 0.0, y0, t1, rtol=rtol, atol=atol,
                              guard=guard, dense=True, max_step=max_step)
    counts = lambda r: (r.nsteps, r.nfev, r.rejected, r.guard_rejections)
    assert counts(mine) == counts(ref)
    assert mine.t == ref.t
    assert mine.y.dtype == np.float64
    scale = np.max(np.abs(ref.y))
    assert np.max(np.abs(mine.y - ref.y)) <= 1e-12 * scale
    ts = np.linspace(0.0, t1, 1001)
    dense_ref = ref.dense(ts)
    assert np.max(np.abs(mine.dense(ts) - dense_ref)) \
        <= 1e-12 * np.max(np.abs(dense_ref))
    return mine


def _numeric_kernel_spec():
    """A family instance with varying p and q, whose kernel is numeric."""
    return ProblemSpec(p=pc("0.05 + 0.03*cos(3*t)"),
                       q=pc("0.03 + 0.005*sin(3*t)"),
                       b=pc("1 + 0.5*cos(3*t)"),
                       c=pc("1.2*exp(0.8*sin(3*t))"),
                       e=pc("10 + 0.7*cos(3*t)"),
                       rho1=1.5, rho2=1.0, omega=OMEGA)


def _flow_atol(flow):
    return 1e-14 * (1.0 + flow.scale)


def _oracle_shot(flow, variational=False):
    """The shooting field's closure and guard, for the oracles."""
    return (vector_field(flow.spec, variational),
            positivity_guard(flow.eps_min))


@pytest.mark.parametrize("rho2", [1.3, 2.0, 1.5])
def test_oracle_return_map_shot_bundled(rho2):
    """The shot through each bundled instance's periodic start."""
    spec = make_example(rho2)
    orbit = find_periodic(spec, tol=1e-8)
    flow = _Flow(spec)
    f, guard = _oracle_shot(flow)
    res = _assert_same_run(f, [orbit.initial.x, orbit.initial.v],
                           spec.omega, guard=guard, atol=_flow_atol(flow),
                           field=flow.field)
    assert res.nsteps > 10


def test_oracle_numeric_kernel_family_text(monkeypatch):
    """A shot of the shooting system with varying coefficients, and the
    4-dimensional fundamental-matrix field the numeric kernel integrates."""
    spec = _numeric_kernel_spec()
    flow = _Flow(spec)
    f, guard = _oracle_shot(flow)
    _assert_same_run(f, [flow.scale, 0.0], spec.omega, guard=guard,
                     atol=_flow_atol(flow), field=flow.field)
    p, l = spec.p, spec.q.scaled(1.0 / 0.4)

    def monodromy(t, y):
        u, w, du, dw = y
        pv, lv = float(p(t)), float(l(t))
        return du, dw, -lv * u - pv * du, -lv * w - pv * dw

    field = _kernel_fields(monkeypatch, p, l, spec.omega)[0]
    _assert_same_run(monodromy, np.eye(2).ravel(), spec.omega,
                     max_step=spec.omega / 16.0, field=field)


def test_oracle_guard_hitting_start():
    """A start that dives towards the floor: stage states are vetoed and
    the step halved, and a steeper dive ends in step underflow at the same
    time."""
    spec = make_cheap_spec()
    flow = _Flow(spec)
    f, guard = _oracle_shot(flow)
    res = _assert_same_run(f, [0.001, -3.0], spec.omega, guard=guard,
                           atol=_flow_atol(flow), field=flow.field)
    assert res.guard_rejections > 0
    tols = dict(rtol=_SHOOT_RTOL, atol=_flow_atol(flow))
    with pytest.raises(IntegrationBlowUp) as mine:
        solve_ivp_dp(flow.field, 0.0, [0.01, -10.0], spec.omega, **tols)
    with pytest.raises(IntegrationBlowUp) as ref:
        _numpy_solve_ivp_dp(f, 0.0, [0.01, -10.0], spec.omega, guard=guard,
                            **tols)
    mine, ref = mine.value, ref.value
    assert mine.t == pytest.approx(ref.t, rel=1e-12, abs=0.0)
    # the last states sit on the floor, where 1/x makes the velocity
    # ill-conditioned; both must still hold an admissible position
    assert isinstance(mine.y, np.ndarray)
    assert mine.y[0] > flow.eps_min and ref.y[0] > flow.eps_min


def test_shooting_tolerance_rule(monkeypatch):
    """One rule gives the tolerances of every shot, plain or carrying Phi:
    each runs over one period at the shooting rtol, with the absolute
    tolerance 1e-14 in units of 1 + the amplitude scale."""
    import periorbit.solver as solver

    flow = _Flow(make_cheap_spec())
    seen = []

    def spy(field, t0, y0, t1, **kwargs):
        seen.append((t0, t1, kwargs["rtol"], kwargs["atol"]))
        return solve_ivp_dp(field, t0, y0, t1, **kwargs)

    monkeypatch.setattr(solver, "solve_ivp_dp", spy)
    flow.shoot(2.0, 0.0)
    flow.shoot(2.0, 0.0, dense=True, jacobian=True)
    assert seen == [(0.0, OMEGA, _SHOOT_RTOL, 1e-14 * (1.0 + flow.scale))] * 2
    assert flow.shots == 2


def test_state_and_slopes_are_floats_inside():
    seen = []

    def f(t, y):
        seen.append(type(y))
        return (y[1], -y[0])

    def guard(y):
        seen.append(type(y))
        return False

    res = _solve(f, 0.0, np.array([1.0, 0.0]), 1.0, guard=guard)
    assert set(seen) == {list}
    assert isinstance(res.y, np.ndarray) and res.y.shape == (2,)


# ---------------------------------------------------------------------------
# oracle: the float integrator as it was written over lists, one
# comprehension per stage.  The generated per-dimension loop must reproduce
# it bit for bit: states, step sequence, counters, dense coefficients and
# the state carried by IntegrationBlowUp.

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_A71, _A73, _A74, _A75, _A76 = (35 / 384, 500 / 1113, 125 / 192,
                                -2187 / 6784, 11 / 84)
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)


class _Vetoed(Exception):
    def __init__(self, calls):
        self.calls = calls


def _list_stages(f, guard, t, h, y, k1):
    y2 = [a + h * (_A21 * p1) for a, p1 in zip(y, k1)]
    if guard(y2):
        raise _Vetoed(0)
    k2 = f(t + 1 / 5 * h, y2)
    y3 = [a + h * (_A31 * p1 + _A32 * p2) for a, p1, p2 in zip(y, k1, k2)]
    if guard(y3):
        raise _Vetoed(1)
    k3 = f(t + 3 / 10 * h, y3)
    y4 = [a + h * (_A41 * p1 + _A42 * p2 + _A43 * p3)
          for a, p1, p2, p3 in zip(y, k1, k2, k3)]
    if guard(y4):
        raise _Vetoed(2)
    k4 = f(t + 4 / 5 * h, y4)
    y5 = [a + h * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4)
          for a, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)]
    if guard(y5):
        raise _Vetoed(3)
    k5 = f(t + 8 / 9 * h, y5)
    y6 = [a + h * (_A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
          for a, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)]
    if guard(y6):
        raise _Vetoed(4)
    k6 = f(t + h, y6)
    y7 = [a + h * (_A71 * p1 + _A73 * p3 + _A74 * p4 + _A75 * p5 + _A76 * p6)
          for a, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
    if guard(y7):
        raise _Vetoed(5)
    k7 = f(t + h, y7)
    return k2, k3, k4, k5, k6, k7, y7


def _list_solve_ivp_dp(f, t0, y0, t1, rtol=1e-10, atol=1e-12, guard=None,
                       dense=False, max_step=np.inf, norm_dims=None):
    y = np.asarray(y0, dtype=float).tolist()
    n = len(y)
    m = n if norm_dims is None else norm_dims
    controlled = range(m)
    if guard is None:
        guard = lambda y: False
    elif guard(y):
        raise IntegrationBlowUp("initial state violates the guard", t0,
                                np.array(y))
    span = t1 - t0
    hmin = 1e-14 * span
    h = min(span / 100.0, max_step, span)
    t = t0
    k1 = f(t, y)
    nfev = 1
    nsteps = rejected = guard_rejections = 0
    lefts, widths, coefs = [], [], []
    while t < t1:
        last = t1 - t < h + hmin
        if last:
            h = t1 - t
        if h < hmin:
            raise IntegrationBlowUp(
                f"step size underflow near t = {t:.12g}", t, np.array(y))
        try:
            k2, k3, k4, k5, k6, k7, y_new = _list_stages(f, guard, t, h, y,
                                                         k1)
        except _Vetoed as veto:
            nfev += veto.calls
            h *= 0.5
            guard_rejections += 1
            continue
        nfev += 6
        err = 0.0
        for _, a, b, p1, p3, p4, p5, p6, p7 in zip(controlled, y, y_new, k1,
                                                   k3, k4, k5, k6, k7):
            r = (h * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6
                      + _E7 * p7)
                 / (atol + rtol * max(abs(a), abs(b))))
            err += r * r
        err = math.sqrt(err / m)
        if err <= 1.0:
            if dense:
                dy = [b - a for a, b in zip(y, y_new)]
                r3 = [h * p1 - d for p1, d in zip(k1, dy)]
                r4 = [d - h * p7 - c for d, p7, c in zip(dy, k7, r3)]
                r5 = [h * (_D1 * p1 + _D3 * p3 + _D4 * p4 + _D5 * p5
                           + _D6 * p6 + _D7 * p7)
                      for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6,
                                                        k7)]
                for part in (y, dy, r3, r4, r5):
                    coefs.extend(part)
                lefts.append(t)
                widths.append(h)
            t = t1 if last else t + h
            y = y_new
            k1 = k7
            nsteps += 1
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h = min(h * max(factor, 0.2), max_step)
        else:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
    sol = None
    if dense:
        # dense output keeps the error-controlled components only
        sol = DenseSolution(t0, t1, np.asarray(lefts), np.asarray(widths),
                            np.array(coefs).reshape(nsteps, 5, n)[:, :, :m])
    return IvpResult(t, np.array(y, dtype=float), sol, nsteps, nfev,
                     rejected, guard_rejections)


def _run(integrate, *args, **kwargs):
    """The result of one run, or the IntegrationBlowUp it raised."""
    try:
        return integrate(*args, **kwargs)
    except IntegrationBlowUp as exc:
        return exc


def _assert_bitwise(f, t0, y0, t1, make_guard=None, field=None, **kwargs):
    """The generated loop and the list oracle agree bit for bit.
    make_guard builds a fresh guard per run, so a stateful guard sees the
    same calls in both.  The loop runs field when given (it carries its
    own guard), else the field of f with the guard."""
    guard = lambda: make_guard() if make_guard else None
    mine = _run(solve_ivp_dp, field or callable_field(f, guard()), t0, y0,
                t1, **kwargs)
    ref = _run(_list_solve_ivp_dp, f, t0, y0, t1, guard=guard(), **kwargs)
    assert type(mine) is type(ref)
    assert mine.t == ref.t
    assert mine.y.dtype == ref.y.dtype == np.float64
    assert mine.y.tobytes() == ref.y.tobytes()
    if isinstance(ref, IntegrationBlowUp):
        assert str(mine) == str(ref)
        return mine
    counts = lambda r: (r.nsteps, r.nfev, r.rejected, r.guard_rejections)
    assert counts(mine) == counts(ref)
    if kwargs.get("dense"):
        for part in ("lefts", "widths", "coef"):
            a, b = getattr(mine.dense, part), getattr(ref.dense, part)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    else:
        assert mine.dense is None and ref.dense is None
    return mine


def _shot_kwargs(flow, dense=False):
    return dict(rtol=_SHOOT_RTOL, atol=_flow_atol(flow), dense=dense)


def _assert_fused_shot(flow, y0, variational=False, **kwargs):
    """A shot through the solver's fused field equals the list oracle run
    with the hand-written right-hand side and guard, bit for bit."""
    f, guard = _oracle_shot(flow, variational)
    if variational:
        y0 = (*y0, 1.0, 0.0, 0.0, 1.0)
        kwargs["norm_dims"] = 2
    return _assert_bitwise(
        f, 0.0, y0, flow.spec.omega, lambda: guard,
        field=flow.field_var if variational else flow.field, **kwargs)


@pytest.mark.parametrize("rho2", [1.3, 2.0, 1.5])
def test_list_oracle_bundled_shots(rho2):
    """Return-map shots and Jacobian shots through each bundled instance's
    periodic start and through a start off the orbit."""
    spec = make_example(rho2)
    orbit = find_periodic(spec, tol=1e-8)
    flow = _Flow(spec)
    x0, v0 = orbit.initial.x, orbit.initial.v
    for start in ((x0, v0), (0.7 * x0, 0.3 * abs(v0) + 1.0)):
        for dense in (False, True):
            res = _assert_fused_shot(flow, start, **_shot_kwargs(flow, dense))
            assert res.nsteps > 10
        _assert_fused_shot(flow, start, variational=True,
                           **_shot_kwargs(flow, dense=True))


def _kernel_fields(monkeypatch, p, l, omega):
    """The Field and the call numeric_periodic_green integrates the
    fundamental matrix of u'' + p u' + l u with."""
    import periorbit.ivp as ivp
    from periorbit.greens import numeric_periodic_green

    calls = []

    def spy(field, *args, **kwargs):
        calls.append((field, args, kwargs))
        return solve_ivp_dp(field, *args, **kwargs)

    monkeypatch.setattr(ivp, "solve_ivp_dp", spy)
    numeric_periodic_green(p, l, omega, n=8)
    (call,) = calls
    return call


def test_list_oracle_numeric_family_and_monodromy(monkeypatch):
    """A shot with varying coefficients, its 6-dimensional Jacobian shot
    with dense output, and the 4-dimensional monodromy field of the
    numeric kernel, for varying, constant and zero p and l (a zero p
    writes no term): the field equals the list oracle run with the
    hand-written monodromy system, bit for bit, in the kernel's own call
    and without dense output."""
    spec = _numeric_kernel_spec()
    flow = _Flow(spec)
    _assert_fused_shot(flow, (flow.scale, 0.0), **_shot_kwargs(flow))
    _assert_fused_shot(flow, (flow.scale, 0.0), variational=True,
                       **_shot_kwargs(flow, dense=True))
    p, l = spec.p, spec.q.scaled(1.0 / 0.4)
    for p, l, mask in ((p, l, (0, 0)), (pc("0"), pc("1/16"), (2, 1)),
                       (pc("0"), l, (2, 0)), (p, pc("0.07"), (0, 1))):
        field, args, kwargs = _kernel_fields(monkeypatch, p, l, spec.omega)
        assert (field.name, field.mask) == ("monodromy", mask)
        assert kwargs["dense"]
        pf, lf = compiled(p.expr), compiled(l.expr)

        def monodromy(t, y):
            u, w, du, dw = y
            pv, lv = pf(t), lf(t)
            return du, dw, -lv * u - pv * du, -lv * w - pv * dw

        for dense in (True, False):
            _assert_bitwise(monodromy, *args, field=field,
                            **{**kwargs, "dense": dense})


@pytest.mark.parametrize("variational", [False, True])
def test_varying_coefficients_are_read_once_per_stage_time(variational):
    """Stage 7 is taken at t + h, as stage 6 is (c6 = c7 = 1), so a varying
    coefficient is read once at the start and 5 times per attempted step,
    not 6, while the steps, the slope count nfev, the rejections and the
    end state are the list oracle's, which calls the right-hand side 6
    times a step."""
    spec = _numeric_kernel_spec()
    flow = _Flow(spec)
    field = flow.field_var if variational else flow.field
    assert field.mask[:2] == (0, 0)
    read, calls = field.args["_p"], []

    def counted(t):
        calls.append(t)
        return read(t)

    counting = dataclasses.replace(field, args={**field.args, "_p": counted})
    f, guard = _oracle_shot(flow, variational)
    y0 = (0.5 * flow.scale, 3.0, 1.0, 0.0, 0.0, 1.0)[:6 if variational else 2]
    res = _assert_bitwise(f, 0.0, y0, spec.omega, lambda: guard,
                          field=counting, norm_dims=2, rtol=1e-9,
                          atol=1e-11 * (1.0 + flow.scale))
    attempted = res.nsteps + res.rejected
    assert res.rejected > 0 and res.guard_rejections == 0
    assert res.nfev == 1 + 6 * attempted
    assert len(calls) == 1 + 5 * attempted


def test_jacobian_shot_keeps_dense_output_of_x_and_v_only():
    """A dense 6-component shot with norm_dims=2 records the interpolant of
    (x, v) alone, shape (nsteps, 5, 2), bit-equal to the plain shot's."""
    for spec in (make_example(1.3), _numeric_kernel_spec()):
        flow = _Flow(spec)
        plain = flow.shoot(flow.scale, 0.0, dense=True)
        carried = flow.shoot(flow.scale, 0.0, dense=True, jacobian=True)
        assert carried.y.shape == (6,)
        assert carried.dense.coef.shape == (carried.nsteps, 5, 2)
        for part in ("lefts", "widths", "coef"):
            a, b = getattr(carried.dense, part), getattr(plain.dense, part)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_list_oracle_guard_hits_and_blowup():
    """The guard-hitting start (stage states vetoed, steps halved) and the
    steep dive that ends in step underflow, plain and with the Jacobian."""
    flow = _Flow(make_cheap_spec())
    res = _assert_fused_shot(flow, (0.001, -3.0), **_shot_kwargs(flow, True))
    assert res.guard_rejections > 0
    for variational in (False, True):
        exc = _assert_fused_shot(flow, (0.01, -10.0), variational,
                                 **_shot_kwargs(flow))
        assert isinstance(exc, IntegrationBlowUp)
        assert "underflow" in str(exc) and exc.y[0] > flow.eps_min
        exc = _assert_fused_shot(flow, (-1.0, 0.0), variational)
        assert exc.t == 0.0 and "initial state" in str(exc)


@pytest.mark.parametrize("stage", range(6))
def test_veto_at_each_stage_counts_its_rhs_calls(stage):
    """A guard that vetoes the stage state of position `stage` in the third
    step charges the `stage` RHS calls made before it, and no more."""
    def make_guard():
        calls = [0]

        def guard(y):
            calls[0] += 1
            # call 1 checks the initial state; each full step makes six
            return calls[0] == 2 + 2 * 6 + stage

        return guard

    res = _assert_bitwise(lambda t, y: (y[1], -y[0]), 0.0, (1.0, 0.0), 1.0,
                          make_guard, dense=True)
    assert res.guard_rejections == 1
    assert res.nfev == 1 + 6 * (res.nsteps + res.rejected) + stage


def test_list_oracle_growth_at_the_cap_and_last_step_clipped():
    """Constant slopes make the error estimate exactly zero, so each step
    grows h by _MAX_FACTOR until the last one is clipped to t1.  On the
    oscillator at a loose tolerance the first error is small but not zero,
    and _SAFETY * err ** -0.2 is clamped down to _MAX_FACTOR."""
    res = _assert_bitwise(lambda t, y: (1.0, -2.0), 0.0, (0.0, 1.0), 1.0,
                          dense=True)
    widths = res.dense.widths
    assert res.rejected == 0 and res.t == 1.0
    assert widths.tolist() == [0.01, 0.01 * 5.0, 0.01 * 5.0 * 5.0,
                               1.0 - res.dense.lefts[-1]]
    res = _assert_bitwise(lambda t, y: (y[1], -y[0]), 0.0, (1.0, 0.0), 1.0,
                          rtol=1e-6, atol=1e-9, dense=True)
    assert res.dense.widths[1] == 0.01 * 5.0


def test_list_oracle_max_step_cap():
    """Zero-error growth runs into max_step, which then bounds every step
    but the clipped last one."""
    res = _assert_bitwise(lambda t, y: (1.0, -2.0), 0.0, (0.0, 1.0), 1.0,
                          dense=True, max_step=0.1)
    widths = res.dense.widths.tolist()
    assert widths[:3] == [0.01, 0.05, 0.1]
    assert set(widths[2:-1]) == {0.1} and widths[-1] < 0.1


def test_list_oracle_rejection_floor():
    """y' = -1e6 y from the default first step h = span / 100: the first
    trial's error is so large that _SAFETY * err ** -0.2 falls below
    _MIN_FACTOR, and the rejection shrinks h by the floor instead."""
    res = _assert_bitwise(lambda t, y: (-1e6 * y[0],), 0.0, (1.0,), 1e-3)
    assert res.rejected > 0


def test_list_oracle_slope_turning_nan():
    """A slope that turns NaN makes every error NaN, so every step is
    rejected by the floor until h underflows: the same message and state
    as the oracle."""
    def f(t, y):
        return (y[1], -y[0]) if t < 0.5 else (math.nan, 1.0)

    exc = _assert_bitwise(f, 0.0, (1.0, 0.0), 1.0)
    assert isinstance(exc, IntegrationBlowUp)
    assert "underflow" in str(exc) and exc.t < 0.5


def test_list_oracle_negative_zero_state():
    """A state holding -0.0, whose error scale abs(-0.0) ties with the
    stage's 0.0, integrates as the oracle does, zero signs included."""
    for dense in (False, True):
        _assert_bitwise(lambda t, y: (-0.0, y[0] + 1.0), 0.0, (-0.0, -0.0),
                        1.0, dense=dense)


def test_generated_loops_call_no_min_or_max(monkeypatch):
    """The loops of every shape the package builds (plain and Jacobian
    shots, dense and not, and the dense 4-dimensional monodromy shot)
    clamp their step sizes and take their error scales without a call to
    min, max or abs, and a coefficient that is the constant 0 leaves no
    name in its field's loop: neither its argument nor a local."""
    import ast

    import periorbit.ivp as ivp
    from periorbit.greens import numeric_periodic_green

    sources = {}
    make = ivp._loop_source

    def spy(n, m, dense, field):
        source = make(n, m, dense, field)
        sources[n, m, dense, field.name, field.mask] = source
        return source

    monkeypatch.setattr(ivp, "_LOOPS", {})
    monkeypatch.setattr(ivp, "_loop_source", spy)
    spec = make_example(1.3)
    find_periodic(spec, tol=1e-8)
    zero_q = ProblemSpec(p=pc("0.1"), q=pc("0"), b=pc("0"), c=pc("1"),
                         e=pc("3 + cos(3*t)"), rho1=1.0, rho2=1.0,
                         omega=OMEGA)
    for shooting in (spec, make_cheap_spec(), zero_q):
        flow = _Flow(shooting)
        flow.shoot(flow.scale, 0.0)
        flow.shoot(flow.scale, 0.0, dense=True, jacobian=True)
    for p, l in ((spec.p, spec.l), (spec.p, pc("2 + cos(3*t)")),
                 (_numeric_kernel_spec().p, pc("0"))):
        try:
            numeric_periodic_green(p, l, spec.omega, n=8)
        except ResonanceError:
            assert l.constant == 0.0
    shapes = {key[:4] for key in sources}
    assert {(2, 2, False, "shooting"), (6, 2, False, "variational"),
            (6, 2, True, "variational"), (4, 4, True, "monodromy")} <= shapes
    zeros = {"shooting": "pqb", "variational": "pqb", "monodromy": "pl"}
    dropped = set()
    for (*_, name, mask), source in sources.items():
        tree = ast.parse(source)
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)}
        assert not called & {"min", "max", "abs"}
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        names |= {node.arg for node in ast.walk(tree)
                  if isinstance(node, ast.arg)}
        for k, coeff in zip(mask, zeros[name]):
            if k == 2:
                dropped.add((name, coeff))
                assert not {f"_{coeff}", f"{coeff}t"} & names
    assert dropped == {(name, coeff) for name in zeros
                       for coeff in zeros[name]}


@pytest.mark.parametrize("zeros", range(8))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_fused_shot_with_zero_coefficients_matches_list_oracle(zeros, data):
    """For each subset of (p, q, b) that is the constant 0, the others
    varying, the fused shot writes no term for the zeros, and still equals
    the list oracle, which adds their zero terms, bit for bit: plain and
    variational, dense and not."""
    cents = lambda lo, hi: st.integers(lo, hi).map(lambda i: i / 100)
    values = [0.0 if zeros >> k & 1 else data.draw(cents(-100, 200))
              for k in range(3)] + [data.draw(cents(10, 300))
                                    for _ in range(2)]
    amplitudes = [data.draw(cents(1, 50)) for _ in range(3)] + [
        data.draw(cents(1, 99)) * v for v in values[3:]]
    rho1, rho2 = data.draw(cents(50, 250)), data.draw(cents(50, 250))
    spec = _spec_with_mask(zeros, values, amplitudes, rho1, rho2)
    flow = _Flow(spec)
    assert flow.field.mask == tuple(2 if zeros >> k & 1 else 0
                                    for k in range(5))
    start = (data.draw(cents(5, 500)), data.draw(cents(-300, 300)))
    rtol = 10.0 ** -data.draw(st.integers(6, 12))
    for variational in (False, True):
        for dense in (False, True):
            _assert_fused_shot(flow, start, variational, rtol=rtol,
                               atol=1e-2 * rtol, dense=dense)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 6), dense=st.booleans(),
       rtol=st.floats(1e-12, 1e-4))
def test_list_oracle_random_linear_systems(data, n, dense, rtol):
    """y' = A y + cos(t) b for random A, b and start, over random spans and
    error-norm widths: the generated loop matches the oracle bit for bit."""
    vals = st.floats(-3.0, 3.0, allow_nan=False)
    A = data.draw(st.lists(st.lists(vals, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    b = data.draw(st.lists(vals, min_size=n, max_size=n))
    y0 = data.draw(st.lists(vals, min_size=n, max_size=n))
    m = data.draw(st.integers(1, n))
    t1 = data.draw(st.floats(0.1, 4.0))

    def f(t, y):
        c = math.cos(t)
        return [sum(a * u for a, u in zip(row, y)) + c * bi
                for row, bi in zip(A, b)]

    _assert_bitwise(f, 0.0, y0, t1, rtol=rtol, atol=1e-3 * rtol,
                    dense=dense, norm_dims=m)


def _spec_with_mask(mask, values, amplitudes, rho1=1.5, rho2=1.3):
    """A shooting problem whose coefficient k in (p, q, b, c, e) is the
    constant values[k] where bit k of mask is set, and varies by
    amplitudes[k] * cos(3t + k) around it where it is clear."""
    coeffs = [pc(f"{v!r}") if mask >> k & 1 else
              pc(f"{v!r} + {a!r}*cos(3*t + {k})")
              for k, (v, a) in enumerate(zip(values, amplitudes))]
    return ProblemSpec(*coeffs, rho1=rho1, rho2=rho2, omega=OMEGA)


@pytest.mark.parametrize("mask", range(32))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_fused_shot_matches_list_oracle_for_every_mask(mask, data):
    """Random shooting problems, for each of the 32 constant/varying masks
    of (p, q, b, c, e): the fused shot, plain and variational, dense and
    not, equals the list oracle run with the hand-written right-hand side
    and guard bit for bit, blow-ups included."""
    cents = lambda lo, hi: st.integers(lo, hi).map(lambda i: i / 100)
    values = [data.draw(cents(-50, 50)), data.draw(cents(-100, 200)),
              data.draw(cents(-100, 200)), data.draw(cents(10, 300)),
              data.draw(cents(10, 300))]
    # c and e must stay positive
    amplitudes = [data.draw(cents(1, 50)) for _ in values[:3]] + [
        data.draw(cents(1, 99)) * v for v in values[3:]]
    rho1, rho2 = data.draw(cents(50, 250)), data.draw(cents(50, 250))
    spec = _spec_with_mask(mask, values, amplitudes, rho1, rho2)
    flow = _Flow(spec)
    assert flow.field.mask == tuple(
        0 if not mask >> k & 1 else 2 if k < 3 and values[k] == 0.0 else 1
        for k in range(5))
    start = (data.draw(cents(5, 500)), data.draw(cents(-300, 300)))
    rtol = 10.0 ** -data.draw(st.integers(6, 12))
    for variational in (False, True):
        for dense in (False, True):
            _assert_fused_shot(flow, start, variational, rtol=rtol,
                               atol=1e-2 * rtol, dense=dense)


def test_step_loop_generated_once_per_shape(monkeypatch):
    """A second integration of the same (n, norm_dims, dense, field name,
    field mask) reuses the compiled loop; any other key generates its own.
    The shooting fields of two problems with the same mask share their
    loops, whatever their coefficients, and a constant p or b that is 0
    gives a mask, and loops, of its own."""
    import periorbit.ivp as ivp

    generated = []
    make = ivp._loop_source

    def spy(n, m, dense, field):
        generated.append((n, m, dense, field.name, field.mask))
        return make(n, m, dense, field)

    monkeypatch.setattr(ivp, "_LOOPS", {})
    monkeypatch.setattr(ivp, "_loop_source", spy)
    f = lambda t, y: (y[1], -y[0], y[2])
    for _ in range(2):
        _solve(f, 0.0, [1.0, 0.0, 1.0], 1.0, norm_dims=2, dense=True)
    assert generated == [(3, 2, True, "generic", (False,))]
    _solve(f, 0.0, [1.0, 0.0, 1.0], 1.0, norm_dims=2)
    _solve(f, 0.0, [1.0, 0.0, 1.0], 1.0, norm_dims=2,
           guard=lambda y: False)
    assert generated[1:] == [(3, 2, False, "generic", (False,)),
                             (3, 2, False, "generic", (True,))]

    generated.clear()
    zeros_e_varies, e_varies = (2, 1, 2, 1, 0), (1, 1, 1, 1, 0)
    for spec in (make_cheap_spec(),
                 _spec_with_mask(0b01111, [0.0, 2.0, 0.0, 1.0, 4.0],
                                 [0.0] * 4 + [0.5]),
                 _spec_with_mask(0b01111, [0.1, 2.0, 0.5, 1.0, 4.0],
                                 [0.0] * 4 + [0.5]),
                 make_constant_spec()):
        flow = _Flow(spec)
        for jacobian in (False, True, False):
            flow.shoot(flow.scale, 0.0, jacobian=jacobian)
    assert generated == [(2, 2, False, "shooting", zeros_e_varies),
                         (6, 2, False, "variational", zeros_e_varies),
                         (2, 2, False, "shooting", e_varies),
                         (6, 2, False, "variational", e_varies),
                         (2, 2, False, "shooting", (2, 1, 2, 1, 1)),
                         (6, 2, False, "variational", (2, 1, 2, 1, 1))]


def test_generated_loop_shows_in_tracebacks(monkeypatch):
    """A traceback through the loop names it and shows its source line."""
    import traceback

    import periorbit.ivp as ivp

    monkeypatch.setattr(ivp, "_LOOPS", {})

    def f(t, y):
        if t > 0.5:
            raise ArithmeticError("stop")
        return (y[1], -y[0])

    with pytest.raises(ArithmeticError) as exc:
        _solve(f, 0.0, [1.0, 0.0], 1.0)
    text = "".join(traceback.format_exception(exc.value))
    assert 'File "<dp5 loop n=2 m=2 dense=False field=generic mask=0>"' \
        in text
    assert "= f(t + " in text
