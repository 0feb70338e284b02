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

from .greens import GreensFunction
from .hypotheses import ProblemSpec, alpha_exponent
from .ivp import IntegrationBlowUp, solve_ivp_dp
from .transform import (ORIGINAL, TRANSFORMED, PositivityError, SampledPath,
                        TransformedSpec, residual, x_from_y)

__all__ = [
    "SingularityError",
    "NoConvergenceError",
    "State",
    "Orbit",
    "guard_floor",
    "rhs",
    "integrate",
    "poincare",
    "find_periodic",
    "apply_T",
    "ConeReport",
    "cone_check",
    "PATH_SAMPLES",
]

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
    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


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


def rhs(spec: ProblemSpec, t: float, x: float, v: float,
        eps_min: float | None = None) -> tuple[float, float]:
    """(x', v') of the first-order system; refuses states at or below the
    singularity floor."""
    if eps_min is None:
        eps_min = guard_floor(spec)
    if not (x > eps_min):
        raise SingularityError(
            f"x = {x:.6g} at t = {t:.6g} is at or below the floor "
            f"{eps_min:.6g}")
    dv = (-spec.p(t) * v - spec.q(t) * x
          + spec.b(t) * x ** (-spec.rho1)
          + spec.c(t) * x ** (-spec.rho2)
          + spec.e(t))
    return v, dv


class _Flow:
    """Caches coefficient callables and the guard for repeated shots."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.eps_min = guard_floor(spec)
        self.scale = _amplitude_scale(spec)
        p, q, b, c, e = spec.p, spec.q, spec.b, spec.c, spec.e
        rho1, rho2 = spec.rho1, spec.rho2

        def f(t, y):
            x, v = y
            dv = (-p(t) * v - q(t) * x + b(t) * x ** -rho1
                  + c(t) * x ** -rho2 + e(t))
            return np.array([v, dv])

        def guard(y):
            return not (y[0] > self.eps_min)

        self.f = f
        self.guard = guard

    def shoot(self, x0: float, v0: float, t0: float, t1: float,
              rtol: float, atol: float, dense: bool = False):
        return solve_ivp_dp(self.f, t0, np.array([x0, v0]), t1,
                            rtol=rtol, atol=atol, guard=self.guard,
                            dense=dense)


def integrate(spec: ProblemSpec, x0: float, v0: float, t0: float = 0.0,
              t1: float | None = None, tol: float = 1e-10,
              samples: int = PATH_SAMPLES) -> SampledPath:
    """Guarded adaptive integration over [t0, t1] (default one period),
    sampled on a uniform grid via dense output."""
    if t1 is None:
        t1 = t0 + spec.omega
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    flow = _Flow(spec)
    if t1 == t0:
        return SampledPath(np.array([t0]), np.array([x0]), np.array([v0]))
    atol = max(_SHOOT_ATOL_FLOOR, tol * 1e-2) * (1.0 + flow.scale)
    res = flow.shoot(x0, v0, t0, t1, rtol=tol, atol=atol, dense=True)
    tgrid = np.linspace(t0, t1, samples)
    vals = res.dense(tgrid)
    return SampledPath(tgrid, vals[:, 0], vals[:, 1])


def poincare(spec: ProblemSpec, x0: float, v0: float,
             tol: float = 1e-10) -> State:
    """Terminal state of the flow after one period."""
    flow = _Flow(spec)
    atol = max(_SHOOT_ATOL_FLOOR, tol * 1e-2) * (1.0 + flow.scale)
    res = flow.shoot(x0, v0, 0.0, spec.omega, rtol=tol, atol=atol)
    return State(t=res.t, x=float(res.y[0]), v=float(res.y[1]))


def _return_defect(flow: _Flow, omega: float, s: np.ndarray,
                   atol: float) -> np.ndarray | None:
    """F(s) = flow_omega(s) - s, or None when the shot fails (guard floor
    hit or state not finite)."""
    try:
        res = flow.shoot(s[0], s[1], 0.0, omega,
                         rtol=_SHOOT_RTOL, atol=atol)
    except (IntegrationBlowUp, SingularityError):
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
    atol = _SHOOT_ATOL_FLOOR * (1.0 + flow.scale)
    if guess is None:
        guess = State(t=0.0, x=flow.scale, v=0.0)
    best = math.inf
    attempted = 0

    for factor in _START_FACTORS:
        s = np.array([guess.x * factor, guess.v])
        if not (s[0] > flow.eps_min):
            continue
        attempted += 1
        F = _return_defect(flow, omega, s, atol)
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
                Fp = _return_defect(flow, omega, sp, atol)
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
                      else _return_defect(flow, omega, cand, atol))
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
        # fall through to the next start factor

    if attempted == 0:
        raise SingularityError(
            f"every starting point {[guess.x * f for f in _START_FACTORS]} "
            f"lies at or below the positivity floor {flow.eps_min:.6g}")
    raise NoConvergenceError(
        f"no periodic orbit found after trying starts "
        f"{[guess.x * f for f in _START_FACTORS]} (best residual "
        f"{best:.3e}, tol {tol:.3e})", best)


def _package(spec: ProblemSpec, flow: _Flow, s: np.ndarray, fn: float,
             steps: int, factor: float, tol: float) -> Orbit:
    atol = _SHOOT_ATOL_FLOOR * (1.0 + flow.scale)
    res = flow.shoot(s[0], s[1], 0.0, spec.omega,
                     rtol=_SHOOT_RTOL, atol=atol, dense=True)
    tgrid = np.linspace(0.0, spec.omega, PATH_SAMPLES)
    vals = res.dense(tgrid)
    path = SampledPath(tgrid, vals[:, 0], vals[:, 1])
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

    def to_dict(self) -> dict:
        return {"in_cone": self.in_cone, "norm": self.norm,
                "floor_margin": self.floor_margin,
                "slope_margin": self.slope_margin}


def cone_check(y: SampledPath, sigma: float, delta: float) -> ConeReport:
    norm = y.sup_norm()
    floor_margin = float(np.min(y.x) - sigma * norm)
    slope_margin = float(np.min(delta * y.x - np.abs(y.v)))
    return ConeReport(in_cone=bool(floor_margin >= 0.0
                                   and slope_margin >= 0.0),
                      norm=norm, floor_margin=floor_margin,
                      slope_margin=slope_margin)
