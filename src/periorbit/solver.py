"""Periodic orbits by Newton shooting on the time-omega return map.

A periodic solution of the singular equation is a fixed point of the flow
map over one period.  The solver integrates the equation with an adaptive
embedded Runge-Kutta pair protected by a positivity guard (the right-hand
side is never evaluated at or below the singularity floor), applies damped
Newton iteration with a finite-difference 2x2 Jacobian to the return-map
defect, and packages the converged trajectory together with positivity,
periodicity and plug-in residual diagnostics.

The cone-operator route is kept independent: apply_T evaluates the kernel
integral operator whose fixed points are the periodic solutions of the
transformed equation, so a shooting orbit can be cross-checked against the
operator formulation without sharing any machinery with the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
_MAX_HALVINGS = 20
_MAX_STAGNANT = 5


class SingularityError(RuntimeError):
    pass


class NoConvergenceError(RuntimeError):
    """Every start failed; carries the smallest return-map defect reached
    and the work spent: shots integrated and Newton steps taken, summed
    over all starts."""

    def __init__(self, message: str, best_residual: float, shots: int = 0,
                 newton_steps: int = 0):
        super().__init__(message)
        self.best_residual = best_residual
        self.shots = shots
        self.newton_steps = newton_steps


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

    def summary(self) -> dict:
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


def _vector_field(spec: ProblemSpec):
    """f(t, (x, v)) -> (x', v') of the first-order system on floats, built
    on the coefficients' compiled scalar functions."""
    p, q, b, c, e = (compiled(k.expr) for k in
                     (spec.p, spec.q, spec.b, spec.c, spec.e))
    m1, m2 = -spec.rho1, -spec.rho2

    def f(t, y):
        x, v = y
        return v, (-p(t) * v - q(t) * x + b(t) * x ** m1
                   + c(t) * x ** m2 + e(t))

    return f


class _Flow:
    """The vector field, guard and tolerance rule for repeated shots of one
    problem; counts the shots made."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.eps_min = guard_floor(spec)
        self.scale = _amplitude_scale(spec)
        self.f = _vector_field(spec)
        self.shots = 0
        eps_min = self.eps_min

        def guard(y):
            return not (y[0] > eps_min)

        self.guard = guard

    def shoot(self, x0: float, v0: float, t0: float, t1: float,
              rtol: float, dense: bool = False):
        """Integrate from (x0, v0) at t0 to t1.  The absolute tolerance is
        two orders below rtol, floored at _SHOOT_ATOL_FLOOR, in units of
        1 + the amplitude scale."""
        self.shots += 1
        atol = max(_SHOOT_ATOL_FLOOR, rtol * 1e-2) * (1.0 + self.scale)
        return solve_ivp_dp(self.f, t0, (x0, v0), t1, rtol=rtol, atol=atol,
                            guard=self.guard, dense=dense)

    def sample(self, x0: float, v0: float, t0: float, t1: float,
               rtol: float, samples: int) -> SampledPath:
        """A dense shot from (x0, v0) at t0 to t1, sampled on a uniform
        grid of the given size."""
        res = self.shoot(x0, v0, t0, t1, rtol=rtol, dense=True)
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
    return _Flow(spec).sample(x0, v0, t0, t1, tol, samples)


def _return_defect(flow: _Flow, omega: float,
                   s: np.ndarray) -> np.ndarray | None:
    """F(s) = flow_omega(s) - s, or None when the shot fails (guard floor
    hit or state not finite)."""
    try:
        res = flow.shoot(s[0], s[1], 0.0, omega, rtol=_SHOOT_RTOL)
    except IntegrationBlowUp:
        return None
    out = res.y - s
    if not np.all(np.isfinite(out)):
        return None
    return out


def find_periodic(spec: ProblemSpec, guess: State | None = None,
                  tol: float = 1e-8) -> Orbit:
    """Damped Newton iteration on the return-map defect.

    The default initial point balances the periodic means (x = mean e /
    mean q, v = 0); on failure the x-guess is rescaled through a fixed
    factor ladder.  Each Newton step uses a forward-difference Jacobian
    and a halving line search on |F|; five consecutive non-decreasing
    steps abandon the current start.
    """
    flow = _Flow(spec)
    omega = spec.omega
    if guess is None:
        guess = State(t=0.0, x=flow.scale, v=0.0)
    best = math.inf
    attempted = 0
    newton_steps = 0

    for factor in _START_FACTORS:
        s = np.array([guess.x * factor, guess.v])
        if not (s[0] > flow.eps_min):
            continue
        attempted += 1
        F = _return_defect(flow, omega, s)
        if F is None:
            continue
        stagnant = 0
        steps = 0
        while steps < _MAX_NEWTON:
            fn = float(np.hypot(F[0], F[1]))
            best = min(best, fn)
            if fn <= tol:
                return _package(spec, flow, s, fn, steps, factor, tol)
            J = np.empty((2, 2))
            ok = True
            for j in range(2):
                h = 1e-6 * (1.0 + abs(s[j]))
                sp = s.copy()
                sp[j] += h
                Fp = _return_defect(flow, omega, sp)
                if Fp is None:
                    ok = False
                    break
                J[:, j] = (Fp - F) / h
            if not ok:
                break
            try:
                d = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(d)):
                break

            lam = 1.0
            accepted = None
            last_eval = None
            for _ in range(_MAX_HALVINGS):
                cand = s + lam * d
                Fc = (None if not (cand[0] > flow.eps_min)
                      else _return_defect(flow, omega, cand))
                if Fc is not None:
                    last_eval = (cand, Fc)
                    if float(np.hypot(Fc[0], Fc[1])) < fn:
                        accepted = (cand, Fc)
                        break
                lam *= 0.5
            steps += 1
            if accepted is not None:
                s, F = accepted
                stagnant = 0
            elif last_eval is not None:
                s, F = last_eval
                stagnant += 1
                if stagnant >= _MAX_STAGNANT:
                    break
            else:
                break
        newton_steps += steps
        # fall through to the next start factor

    if attempted == 0:
        raise SingularityError(
            f"every starting point {[guess.x * f for f in _START_FACTORS]} "
            f"lies at or below the positivity floor {flow.eps_min:.6g}")
    raise NoConvergenceError(
        f"no periodic orbit found after trying starts "
        f"{[guess.x * f for f in _START_FACTORS]} (best residual "
        f"{best:.3e}, tol {tol:.3e}; {flow.shots} shots, {newton_steps} "
        f"Newton steps)", best, flow.shots, newton_steps)


def _package(spec: ProblemSpec, flow: _Flow, s: np.ndarray, fn: float,
             steps: int, factor: float, tol: float) -> Orbit:
    path = flow.sample(s[0], s[1], 0.0, spec.omega, _SHOOT_RTOL, PATH_SAMPLES)
    alpha = alpha_exponent(spec.rho1)
    y_path = x_from_y(path, 1.0 / alpha)
    return Orbit(
        initial=State(t=0.0, x=float(s[0]), v=float(s[1])),
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
