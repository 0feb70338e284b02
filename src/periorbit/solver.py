"""Periodic orbits by Newton shooting on the time-omega return map.

A periodic solution of the singular equation is a fixed point of the flow
map over one period.  The solver integrates the equation with an adaptive
embedded Runge-Kutta pair protected by a positivity guard (the right-hand
side is never evaluated at or below the singularity floor), and applies
damped Newton iteration to the return-map defect F(s) = flow(s) - s.  The
Jacobian of F is M - I, where the monodromy matrix M is the fundamental
matrix of the variational equations, integrated in the same shot as the
state: a Newton step costs one such shot plus the plain shots of its line
search, which backtracks by safeguarded quadratic interpolation on |F|^2.
The converged trajectory is packaged together with its Floquet
multipliers (the eigenvalues of M) and positivity, periodicity and
plug-in residual diagnostics.

The cone-operator route is kept independent: apply_T evaluates the kernel
integral operator whose fixed points are the periodic solutions of the
transformed equation, so a shooting orbit can be cross-checked against the
operator formulation without sharing any machinery with the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import compiled
from .greens import GreensFunction
from .hypotheses import ProblemSpec, alpha_exponent
from .ivp import IntegrationBlowUp, solve_ivp_dp
from .transform import (ORIGINAL, TRANSFORMED, PositivityError, SampledPath,
                        TransformedSpec, residual, x_from_y)

PATH_SAMPLES = 2049          # 2048 uniform intervals per period, endpoints kept
_SHOOT_RTOL = 1e-12          # return-map integrations run tighter than the
_SHOOT_ATOL_FLOOR = 1e-14    # Newton tolerance so map jitter stays below it
_START_FACTORS = (1.0, 0.5, 0.75, 1.5, 2.0)
_MAX_NEWTON = 50
_MAX_HALVINGS = 20           # line-search candidates per Newton step
_MAX_STAGNANT = 5
# each backtrack shrinks the step length into [0.1, 0.5] of the last one
_SHRINK_MIN, _SHRINK_MAX = 0.1, 0.5

# why a start stopped, as NoConvergenceError.stops lists them
STOP_FLOOR = "start below the guard floor"
STOP_SHOT = "failed shot"
STOP_SINGULAR = "singular Jacobian"
STOP_LINE_SEARCH = "no admissible line-search point"
STOP_STAGNANT = "stagnation"
STOP_CAP = "Newton cap"


class SingularityError(RuntimeError):
    pass


class NoConvergenceError(RuntimeError):
    """Every start failed; carries the smallest return-map defect reached,
    the work spent (shots integrated and Newton steps taken, summed over
    all starts) and, in stops, why each start stopped, in start order."""

    def __init__(self, message: str, best_residual: float, shots: int = 0,
                 newton_steps: int = 0, stops: tuple = ()):
        super().__init__(message)
        self.best_residual = best_residual
        self.shots = shots
        self.newton_steps = newton_steps
        self.stops = stops


@dataclass(frozen=True)
class State:
    t: float
    x: float
    v: float


@dataclass(frozen=True)
class Orbit:
    """A converged periodic trajectory with its diagnostics."""

    initial: State
    path: SampledPath                 # x-space samples over [0, omega]
    y_path: SampledPath               # mapped through y = x^(1/alpha)
    omega: float
    periodicity_residual: float       # |(x(w)-x(0), v(w)-v(0))|_2
    ode_residual: float               # plug-in defect, original equation
    ode_residual_y: float             # plug-in defect, transformed equation
    min_x: float
    norm_y: float                     # max|y| + max|y'|
    newton_steps: int
    start_factor: float
    tol: float
    multipliers: tuple[complex, complex]  # Floquet: eigenvalues of M
    det_M_minus_I: float              # det of the Newton Jacobian M - I

    def summary(self) -> dict:
        m1, m2 = self.multipliers
        return {
            "x0": self.initial.x,
            "v0": self.initial.v,
            "omega": self.omega,
            "periodicity_residual": self.periodicity_residual,
            "ode_residual": self.ode_residual,
            "ode_residual_y": self.ode_residual_y,
            "min_x": self.min_x,
            "norm_y": self.norm_y,
            "newton_steps": self.newton_steps,
            "start_factor": self.start_factor,
            "tol": self.tol,
            "multiplier1_re": m1.real,
            "multiplier1_im": m1.imag,
            "multiplier2_re": m2.real,
            "multiplier2_im": m2.imag,
            "det_M_minus_I": self.det_M_minus_I,
        }


def _amplitude_scale(spec: ProblemSpec) -> float:
    """Natural trajectory amplitude: the mean balance q x ~ e gives
    x ~ mean(e)/mean(q); fall back to a unit scale when the linear
    coefficient has no positive mean to balance against."""
    qm = spec.q.mean()
    em = spec.e.mean()
    if qm > 1e-12 and em > 0.0:
        return em / qm
    return max(1.0, abs(em))


def guard_floor(spec: ProblemSpec) -> float:
    """Positivity floor below which the integrator refuses to evaluate the
    inverse powers: a fixed small fraction of the amplitude scale."""
    return 1e-6 * _amplitude_scale(spec)


def _vector_field(spec: ProblemSpec, variational: bool = False):
    """f(t, (x, v)) -> (x', v') of the first-order system on floats, built
    on the coefficients' compiled scalar functions.

    variational=True gives the 6-dimensional field of (x, v) together with
    its fundamental matrix Phi = ((u, w), (u', w')), stored row-major
    after x and v: Phi' = ((0, 1), (f_x, -p)) Phi, where
    f_x = -q + (m1 b x^m1 + m2 c x^m2) / x is the x-derivative of the
    force.  Its (x', v') are the plain field's, operation for operation.
    """
    p, q, b, c, e = (compiled(k.expr) for k in
                     (spec.p, spec.q, spec.b, spec.c, spec.e))
    m1, m2 = -spec.rho1, -spec.rho2

    if not variational:
        def f(t, y):
            x, v = y
            return v, (-p(t) * v - q(t) * x + b(t) * x ** m1
                       + c(t) * x ** m2 + e(t))

        return f

    def f_var(t, y):
        x, v, u, w, du, dw = y
        pt, qt = p(t), q(t)
        bx = b(t) * x ** m1
        cx = c(t) * x ** m2
        fx = (m1 * bx + m2 * cx) / x - qt
        return (v, -pt * v - qt * x + bx + cx + e(t),
                du, dw, fx * u - pt * du, fx * w - pt * dw)

    return f_var


class _Flow:
    """The vector fields, guard and tolerance rule for repeated shots of
    one problem; counts the shots made."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.eps_min = guard_floor(spec)
        self.scale = _amplitude_scale(spec)
        self.f = _vector_field(spec)
        self.f_var = _vector_field(spec, variational=True)
        self.shots = 0
        eps_min = self.eps_min

        def guard(y):
            return not (y[0] > eps_min)

        self.guard = guard

    def shoot(self, x0: float, v0: float, t0: float, t1: float,
              rtol: float, dense: bool = False, jacobian: bool = False):
        """Integrate from (x0, v0) at t0 to t1.  The absolute tolerance is
        two orders below rtol, floored at _SHOOT_ATOL_FLOOR, in units of
        1 + the amplitude scale.

        jacobian=True also carries the fundamental matrix from Phi(t0) = I
        as state components 2..5.  The error norm covers (x, v) alone, so
        the shot's (x, v) and steps equal the plain shot's bit for bit."""
        self.shots += 1
        atol = max(_SHOOT_ATOL_FLOOR, rtol * 1e-2) * (1.0 + self.scale)
        if jacobian:
            return solve_ivp_dp(self.f_var, t0, (x0, v0, 1.0, 0.0, 0.0, 1.0),
                                t1, rtol=rtol, atol=atol, guard=self.guard,
                                dense=dense, norm_dims=2)
        return solve_ivp_dp(self.f, t0, (x0, v0), t1, rtol=rtol, atol=atol,
                            guard=self.guard, dense=dense)


def _sampled(res, t0: float, t1: float, samples: int) -> SampledPath:
    """(x, v) of a dense shot on a uniform grid of the given size."""
    tgrid = np.linspace(t0, t1, samples)
    vals = res.dense(tgrid)
    return SampledPath(tgrid, vals[:, 0], vals[:, 1])


def integrate(spec: ProblemSpec, x0: float, v0: float, t0: float = 0.0,
              t1: float | None = None, tol: float = 1e-10,
              samples: int = PATH_SAMPLES) -> SampledPath:
    """Guarded adaptive integration over [t0, t1] (default one period),
    sampled on a uniform grid via dense output."""
    if t1 is None:
        t1 = t0 + spec.omega
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    if t1 == t0:
        return SampledPath(np.array([t0]), np.array([x0]), np.array([v0]))
    res = _Flow(spec).shoot(x0, v0, t0, t1, rtol=tol, dense=True)
    return _sampled(res, t0, t1, samples)


def _return_map(flow: _Flow, x: float, v: float, jacobian: bool = False):
    """(F0, F1, M): the defect F = flow_omega(s) - s at s = (x, v), as
    floats, and with jacobian the monodromy matrix M = Phi(omega) as a
    row-major list (else empty).  None when the shot fails: guard floor
    hit or a defect that is not finite."""
    try:
        res = flow.shoot(x, v, 0.0, flow.spec.omega, rtol=_SHOOT_RTOL,
                         jacobian=jacobian)
    except IntegrationBlowUp:
        return None
    end = res.y.tolist()
    F0, F1 = end[0] - x, end[1] - v
    if not (math.isfinite(F0) and math.isfinite(F1)):
        return None
    return F0, F1, end[2:]


def _next_lambda(lam: float, ratio: float) -> float:
    """The backtracked step length after a rejected one, lam, whose |F|
    was ratio >= 1 times the current one: the minimiser of the quadratic
    phi(l) = phi0 (1 - 2 l) + a l^2 through phi(lam), with phi = |F|^2
    and slope -2 phi0 at 0 (that of an exact Newton direction), kept in
    [0.1, 0.5] lam (Dennis and Schnabel, Algorithm A6.3.1)."""
    lam_q = lam * lam / (ratio * ratio - 1.0 + 2.0 * lam)
    return min(max(lam_q, _SHRINK_MIN * lam), _SHRINK_MAX * lam)


def _newton(flow: _Flow, x: float, v: float, tol: float):
    """Damped Newton iteration from (x, v).  Returns
    (x, v, |F|, steps, best |F|, stop): stop is None when |F| <= tol,
    else the reason the start was given up."""
    shot = _return_map(flow, x, v, jacobian=True)
    if shot is None:
        return x, v, math.inf, 0, math.inf, STOP_SHOT
    F0, F1, M = shot
    fn = best = math.hypot(F0, F1)
    steps = stagnant = 0
    while fn > tol:
        if steps == _MAX_NEWTON:
            return x, v, fn, steps, best, STOP_CAP
        if M is None:
            shot = _return_map(flow, x, v, jacobian=True)
            if shot is None:
                return x, v, fn, steps, best, STOP_SHOT
            M = shot[2]
        # solve (M - I) d = -F by Cramer's rule
        j00, j01, j10, j11 = M[0] - 1.0, M[1], M[2], M[3] - 1.0
        det = j00 * j11 - j01 * j10
        if det == 0.0:
            return x, v, fn, steps, best, STOP_SINGULAR
        d0 = (j01 * F1 - j11 * F0) / det
        d1 = (j10 * F0 - j00 * F1) / det
        if not (math.isfinite(d0) and math.isfinite(d1)):
            return x, v, fn, steps, best, STOP_SINGULAR

        lam = 1.0
        accepted = last = None
        for _ in range(_MAX_HALVINGS):
            cx, cv = x + lam * d0, v + lam * d1
            cand = (_return_map(flow, cx, cv) if cx > flow.eps_min
                    else None)
            if cand is None:
                lam *= 0.5
                continue
            fc = math.hypot(cand[0], cand[1])
            last = (cx, cv, cand[0], cand[1], fc)
            if fc < fn:
                accepted = last
                break
            lam = _next_lambda(lam, fc / fn)
        steps += 1
        if last is None:
            return x, v, fn, steps, best, STOP_LINE_SEARCH
        x, v, F0, F1, fn = last
        M = None
        best = min(best, fn)
        stagnant = 0 if accepted else stagnant + 1
        if stagnant == _MAX_STAGNANT:
            return x, v, fn, steps, best, STOP_STAGNANT
    return x, v, fn, steps, best, None


def find_periodic(spec: ProblemSpec, guess: State | None = None,
                  tol: float = 1e-8) -> Orbit:
    """Damped Newton iteration on the return-map defect.

    The default initial point balances the periodic means (x = mean e /
    mean q, v = 0); on failure the x-guess is rescaled through a fixed
    factor ladder.  Each Newton step takes its Jacobian M - I from one
    shot that integrates the variational equations with the state, solves
    the 2x2 system by Cramer's rule, and backtracks along the step until
    |F| strictly decreases, each new step length minimising a quadratic
    model of |F|^2.  Five consecutive steps without a decrease abandon the
    current start.
    """
    flow = _Flow(spec)
    if guess is None:
        guess = State(t=0.0, x=flow.scale, v=0.0)
    starts = [guess.x * f for f in _START_FACTORS]
    best = math.inf
    newton_steps = 0
    stops = []

    for factor, x0 in zip(_START_FACTORS, starts):
        if not (x0 > flow.eps_min):
            stops.append(STOP_FLOOR)
            continue
        x, v, fn, steps, reached, stop = _newton(flow, x0, guess.v, tol)
        if stop is None:
            return _package(spec, flow, x, v, fn, steps, factor, tol)
        best = min(best, reached)
        newton_steps += steps
        stops.append(stop)

    if all(stop == STOP_FLOOR for stop in stops):
        raise SingularityError(
            f"every starting point {starts} lies at or below the "
            f"positivity floor {flow.eps_min:.6g}")
    reasons = "; ".join(f"{x0:.6g}: {stop}"
                        for x0, stop in zip(starts, stops))
    raise NoConvergenceError(
        f"no periodic orbit found after trying starts {starts} (best "
        f"residual {best:.3e}, tol {tol:.3e}; {flow.shots} shots, "
        f"{newton_steps} Newton steps; stops: {reasons})",
        best, flow.shots, newton_steps, tuple(stops))


def _floquet(M) -> tuple[complex, complex]:
    """Eigenvalues of the row-major 2x2 matrix M, the larger-modulus one
    first; their product is det M."""
    half = 0.5 * (M[0] + M[3])
    det = M[0] * M[3] - M[1] * M[2]
    disc = half * half - det
    if disc < 0.0:
        root = math.sqrt(-disc)
        return complex(half, root), complex(half, -root)
    big = half + math.copysign(math.sqrt(disc), half)
    return complex(big), complex(det / big if big else 0.0)


def _package(spec: ProblemSpec, flow: _Flow, x: float, v: float, fn: float,
             steps: int, factor: float, tol: float) -> Orbit:
    res = flow.shoot(x, v, 0.0, spec.omega, _SHOOT_RTOL, dense=True,
                     jacobian=True)
    path = _sampled(res, 0.0, spec.omega, PATH_SAMPLES)
    M = res.y[2:].tolist()
    alpha = alpha_exponent(spec.rho1)
    y_path = x_from_y(path, 1.0 / alpha)
    return Orbit(
        initial=State(t=0.0, x=x, v=v),
        path=path,
        y_path=y_path,
        omega=spec.omega,
        periodicity_residual=fn,
        ode_residual=residual(spec, path, ORIGINAL),
        ode_residual_y=residual(spec, y_path, TRANSFORMED),
        min_x=float(np.min(path.x)),
        norm_y=y_path.sup_norm(),
        newton_steps=steps,
        start_factor=factor,
        tol=tol,
        multipliers=_floquet(M),
        det_M_minus_I=(M[0] - 1.0) * (M[3] - 1.0) - M[1] * M[2],
    )


# ---------------------------------------------------------------------------
# kernel integral operator


def apply_T(gf: GreensFunction, tspec: TransformedSpec,
            y: SampledPath) -> SampledPath:
    """Image of a positive sampled function under the kernel operator

        (T y)(t) = int_0^omega G(t, s) [ (c/a) y^(1-a-a rho2)
                     + (e/a) y^(1-a) + (1-a) y'^2 / y + b/a ](s) ds

    together with its derivative through dG/dt, on the sample grid of y.
    Quadrature is the trapezoid rule on each sample cell, the cells left of
    t_i taking the kernel's lower branch and those right of it the upper
    one.  Both branches have rank 2, G(t,s) = U(t).V(s), so the rule runs
    as one prefix and one suffix sum over the cells: O(n) time and memory,
    no kernel matrix.
    """
    if not np.all(y.x > 0.0):
        raise PositivityError("operator input must be strictly positive")
    t = y.t
    n = t.size - 1
    if n < 2 or abs(t[0]) > 1e-12 * gf.omega \
            or abs(t[-1] - gf.omega) > 1e-9 * gf.omega:
        raise ValueError("operator input must sample [0, omega] uniformly")
    F = (tspec.c_over_alpha(t) * y.x ** tspec.exponent_c
         + tspec.e_over_alpha(t) * y.x ** tspec.exponent_e
         + tspec.gradient_factor * y.v * y.v / y.x
         + tspec.b_over_alpha(t))
    ends = lambda a: np.column_stack((a[:-1], a[1:]))
    Ty, Typ = gf._integrate(t, ends(t), np.full((n, 2), 0.5 * y.step),
                            ends(F))
    return SampledPath(t, Ty, Typ)


@dataclass(frozen=True)
class ConeReport:
    """Margins of the two cone inequalities min y >= sigma ||y|| and
    |y'| <= delta y; both margins nonnegative means membership."""

    in_cone: bool
    norm: float
    floor_margin: float    # min y - sigma ||y||
    slope_margin: float    # min over t of (delta y - |y'|)


def cone_check(y: SampledPath, sigma: float, delta: float) -> ConeReport:
    norm = y.sup_norm()
    floor_margin = float(np.min(y.x) - sigma * norm)
    slope_margin = float(np.min(delta * y.x - np.abs(y.v)))
    return ConeReport(in_cone=bool(floor_margin >= 0.0
                                   and slope_margin >= 0.0),
                      norm=norm, floor_margin=floor_margin,
                      slope_margin=slope_margin)
