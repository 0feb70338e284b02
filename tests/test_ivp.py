"""Adaptive Runge-Kutta integrator: accuracy, dense output, guards, errors."""

import math

import numpy as np
import pytest

from conftest import OMEGA, make_cheap_spec, make_example, pc
from periorbit import ProblemSpec, find_periodic
from periorbit.ivp import DenseSolution, IntegrationBlowUp, IvpResult, solve_ivp_dp
from periorbit.solver import _SHOOT_RTOL, _Flow


def _harmonic(t, y):
    return np.array([y[1], -y[0]])


def test_harmonic_oscillator_endpoint():
    res = solve_ivp_dp(_harmonic, 0.0, [1.0, 0.0], 2.0 * math.pi,
                       rtol=1e-12, atol=1e-14)
    assert abs(res.t - 2.0 * math.pi) < 1e-14
    assert abs(res.y[0] - 1.0) < 1e-10
    assert abs(res.y[1]) < 1e-10
    assert res.nsteps > 10
    assert res.nfev >= 6 * res.nsteps


def test_dense_output_accuracy():
    res = solve_ivp_dp(_harmonic, 0.0, [1.0, 0.0], 2.0 * math.pi,
                       rtol=1e-12, atol=1e-14, dense=True)
    ts = np.linspace(0.0, 2.0 * math.pi, 1001)
    vals = res.dense(ts)
    err = np.abs(vals - np.stack([np.cos(ts), -np.sin(ts)], axis=1))
    assert np.max(err) < 1e-9
    # scalar evaluation agrees with the vector path
    mid = res.dense(1.2345)
    assert np.allclose(mid, res.dense(np.array([1.2345]))[0])


def test_dense_output_rejects_out_of_span():
    res = solve_ivp_dp(_harmonic, 0.0, [1.0, 0.0], 1.0, dense=True)
    with pytest.raises(ValueError):
        res.dense(1.5)
    with pytest.raises(ValueError):
        res.dense(-0.5)


def test_against_scipy_reference():
    """Cross-check a driven damped pendulum against an independent solver."""
    from scipy.integrate import solve_ivp as scipy_solve

    def f(t, y):
        return np.array([y[1], -math.sin(y[0]) - 0.1 * y[1] + 0.3 * math.cos(2.0 * t)])

    mine = solve_ivp_dp(f, 0.0, [1.0, 0.0], 10.0, rtol=1e-11, atol=1e-12)
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
    res = solve_ivp_dp(f, 0.0, y0, 2.0 * math.pi / 3.0, rtol=1e-12, atol=1e-14)
    e0, e1 = energy(y0), energy(res.y)
    assert abs(e1 - e0) <= 1e-8 * abs(e0)


def test_guard_stops_integration():
    def f(t, y):
        return np.array([-1.0])

    with pytest.raises(IntegrationBlowUp) as exc:
        solve_ivp_dp(f, 0.0, [1.0], 2.0, guard=lambda y: y[0] < 0.5)
    err = exc.value
    # the last accepted state sits just above the guard line near t = 0.5
    assert err.y[0] >= 0.5
    assert 0.0 < err.t <= 0.5 + 1e-9


def test_guard_violated_at_start():
    def f(t, y):
        return np.array([-1.0])

    with pytest.raises(IntegrationBlowUp) as exc:
        solve_ivp_dp(f, 0.0, [0.1], 1.0, guard=lambda y: y[0] < 0.5)
    assert exc.value.t == 0.0


def test_zero_span_returns_initial_state():
    res = solve_ivp_dp(_harmonic, 1.0, [2.0, 3.0], 1.0, dense=True)
    assert res.t == 1.0
    assert np.array_equal(res.y, [2.0, 3.0])
    assert res.nsteps == 0
    assert np.allclose(res.dense(1.0), [2.0, 3.0])


def test_backward_span_rejected():
    with pytest.raises(ValueError):
        solve_ivp_dp(_harmonic, 1.0, [1.0, 0.0], 0.0)


def test_max_step_honored():
    res = solve_ivp_dp(_harmonic, 0.0, [1.0, 0.0], 1.0, max_step=0.01)
    assert res.nsteps >= 100


def test_counters_are_consistent():
    res = solve_ivp_dp(_harmonic, 0.0, [1.0, 0.0], 6.0)
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
        h = min(h, t1 - t)
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
            t += h
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
                     max_step=np.inf):
    mine = solve_ivp_dp(f, 0.0, y0, t1, rtol=rtol, atol=atol, guard=guard,
                        dense=True, max_step=max_step)
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


@pytest.mark.parametrize("rho2", [1.3, 2.0, 1.5])
def test_oracle_return_map_shot_bundled(rho2):
    """The shot through each bundled instance's periodic start."""
    spec = make_example(rho2)
    orbit = find_periodic(spec, tol=1e-8)
    flow = _Flow(spec)
    res = _assert_same_run(flow.f, [orbit.initial.x, orbit.initial.v],
                           spec.omega, guard=flow.guard,
                           atol=_flow_atol(flow))
    assert res.nsteps > 10


def test_oracle_numeric_kernel_family_text():
    """A shot of the shooting system with varying coefficients, and the
    4-dimensional fundamental-matrix system the numeric kernel integrates."""
    spec = _numeric_kernel_spec()
    flow = _Flow(spec)
    _assert_same_run(flow.f, [flow.scale, 0.0], spec.omega,
                     guard=flow.guard, atol=_flow_atol(flow))
    p, l = spec.p, spec.q.scaled(1.0 / 0.4)

    def monodromy(t, y):
        u, w, du, dw = y
        pv, lv = float(p(t)), float(l(t))
        return du, dw, -lv * u - pv * du, -lv * w - pv * dw

    _assert_same_run(monodromy, np.eye(2).ravel(), spec.omega,
                     max_step=spec.omega / 16.0)


def test_oracle_guard_hitting_start():
    """A start that dives towards the floor: stage states are vetoed and
    the step halved, and a steeper dive ends in step underflow at the same
    time."""
    spec = make_cheap_spec()
    flow = _Flow(spec)
    res = _assert_same_run(flow.f, [0.001, -3.0], spec.omega,
                           guard=flow.guard, atol=_flow_atol(flow))
    assert res.guard_rejections > 0
    blowups = []
    for integrate in (solve_ivp_dp, _numpy_solve_ivp_dp):
        with pytest.raises(IntegrationBlowUp) as exc:
            integrate(flow.f, 0.0, [0.01, -10.0], spec.omega,
                      rtol=_SHOOT_RTOL, atol=_flow_atol(flow),
                      guard=flow.guard)
        blowups.append(exc.value)
    mine, ref = blowups
    assert mine.t == pytest.approx(ref.t, rel=1e-12, abs=0.0)
    # the last states sit on the floor, where 1/x makes the velocity
    # ill-conditioned; both must still hold an admissible position
    assert isinstance(mine.y, np.ndarray)
    assert mine.y[0] > flow.eps_min and ref.y[0] > flow.eps_min


def test_shooting_tolerance_rule(monkeypatch):
    """One rule gives the absolute tolerance of every shot: the floor at
    the shooting rtol (Newton shots), two orders below a looser rtol
    (integrate)."""
    import periorbit.solver as solver

    flow = _Flow(make_cheap_spec())
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["atol"])
        return solve_ivp_dp(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_ivp_dp", spy)
    flow.shoot(2.0, 0.0, 0.0, OMEGA, rtol=_SHOOT_RTOL)
    flow.shoot(2.0, 0.0, 0.0, OMEGA, rtol=1e-10)
    assert seen == [1e-14 * (1.0 + flow.scale), 1e-12 * (1.0 + flow.scale)]
    assert flow.shots == 2


def test_state_and_slopes_are_floats_inside():
    seen = []

    def f(t, y):
        seen.append(type(y))
        return (y[1], -y[0])

    def guard(y):
        seen.append(type(y))
        return False

    res = solve_ivp_dp(f, 0.0, np.array([1.0, 0.0]), 1.0, guard=guard)
    assert set(seen) == {list}
    assert isinstance(res.y, np.ndarray) and res.y.shape == (2,)


def test_rhs_of_wrong_length_rejected():
    with pytest.raises(ValueError, match="components"):
        solve_ivp_dp(lambda t, y: (1.0,), 0.0, [1.0, 0.0], 1.0)
