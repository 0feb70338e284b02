"""Periodic orbits by Newton shooting on the time-omega return map.

A periodic solution of the singular equation is a fixed point of the flow
map over one period.  The solver integrates the equation with an adaptive
embedded Runge-Kutta pair protected by a positivity guard (the right-hand
side is never evaluated at or below the singularity floor), and applies
damped Newton iteration to the return-map defect F(s) = flow(s) - s.  The
force formula and the guard are written into the integrator's generated
step loop as source (see _field), so a stage costs no Python call beyond
the coefficients that vary in time.  The Jacobian of F is M - I, where the monodromy matrix M is the fundamental
matrix of the variational equations, integrated in the same shot as the
state.  Such a shot takes the plain shot's steps and ends in its state, so
while Newton takes full steps its lam = 1 candidate is shot that way, with
dense output: accepted, it brings the next step's Jacobian, and converged,
the orbit's path and M.  A step after a backtracked one costs one
Jacobian shot plus the plain shots of its line search, which backtracks by
safeguarded quadratic interpolation on |F|^2.  The converged trajectory is
packaged together with its Floquet multipliers (the eigenvalues of M) and
positivity, periodicity and plug-in residual diagnostics.

The cone-operator route is kept independent: apply_T evaluates the kernel
integral operator whose fixed points are the periodic solutions of the
transformed equation, so a shooting orbit can be cross-checked against the
operator formulation without sharing any machinery with the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greens import GreensFunction
from .hypotheses import ProblemSpec
from .ivp import (Field, IntegrationBlowUp, coefficient_field, eigvals_2x2,
                  phi_slopes, solve_ivp_dp, source_sum)
from .transform import (ORIGINAL, TRANSFORMED, PositivityError, SampledPath,
                        TransformedSpec, residual, x_from_y)

PATH_SAMPLES = 2049          # 2048 uniform intervals per period, endpoints kept
_SHOOT_RTOL = 1e-12          # the tolerances of every shot, tighter than
_SHOOT_ATOL = 1e-14          # Newton's; atol per unit of 1 + amplitude scale
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
    coefficient has no positive mean to balance against.  Both means are
    those that ProblemSpec.check_ranges found finite."""
    qm = spec.q.mean()
    em = spec.e.mean()
    if qm > 1e-12 and em > 0.0:
        return em / qm
    return max(1.0, abs(em))


def guard_floor(spec: ProblemSpec) -> float:
    """Positivity floor below which the integrator refuses to evaluate the
    inverse powers: a fixed small fraction of the amplitude scale."""
    return 1e-6 * _amplitude_scale(spec)


def _field(spec: ProblemSpec, eps_min: float, variational: bool) -> Field:
    """The first-order system of (x, v) as DP5 loop source, with the guard
    x > eps_min.

    variational=True gives the 6-dimensional field of (x, v) together with
    its fundamental matrix Phi = ((u, w), (u', w')), stored row-major
    after x and v: Phi' = ((0, 1), (f_x, -p)) Phi, where
    f_x = -q + (m1 b x^m1 + m2 c x^m2) / x is the x-derivative of the
    force, m1 = -rho1 and m2 = -rho2.  Its (x', v') are the plain field's,
    operation for operation.  A p, q or b that is the constant 0 writes
    no term (coefficient_field): an x whose power x^m1 would overflow no
    longer fails the shot.
    """

    def write(p, y, P, Q, B, C, E):
        x, v = y[:2]
        lines = [f"bx = {B} * {x} ** _m1"] if B else []
        lines += [f"cx = {C} * {x} ** _m2",
                  f"{p[0]} = {v}",
                  f"{p[1]} = " + source_sum(
                      ("-", P and f"{P} * {v}"), ("-", Q and f"{Q} * {x}"),
                      ("+", B and "bx"), ("+", "cx"), ("+", E))]
        if variational:
            powers = source_sum(("+", B and "_m1 * bx"), ("+", "_m2 * cx"))
            lines.append("fx = " + source_sum(("+", f"({powers}) / {x}"),
                                               ("-", Q)))
            lines += phi_slopes(p[2:], y[2:], ("+", "fx"), P)
        return lines

    return coefficient_field(
        "variational" if variational else "shooting",
        {"p": spec.p, "q": spec.q, "b": spec.b, "c": spec.c, "e": spec.e},
        write, lambda y: f"not ({y[0]} > _eps)",
        _eps=eps_min, _m1=-spec.rho1, _m2=-spec.rho2)


class _Flow:
    """The fields of repeated shots of one problem; counts the shots
    made."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.eps_min = guard_floor(spec)
        self.scale = _amplitude_scale(spec)
        self.field = _field(spec, self.eps_min, variational=False)
        self.field_var = _field(spec, self.eps_min, variational=True)
        self.shots = 0

    def shoot(self, x0: float, v0: float, dense: bool = False,
              jacobian: bool = False):
        """Integrate from (x0, v0) at t = 0 over one period, at the
        shooting tolerances.

        jacobian=True also carries the fundamental matrix from Phi(0) = I
        as state components 2..5.  The error norm covers (x, v) alone, so
        the shot's (x, v) and steps equal the plain shot's bit for bit."""
        self.shots += 1
        y0 = (x0, v0, 1.0, 0.0, 0.0, 1.0) if jacobian else (x0, v0)
        return solve_ivp_dp(self.field_var if jacobian else self.field, 0.0,
                            y0, self.spec.omega, rtol=_SHOOT_RTOL,
                            atol=_SHOOT_ATOL * (1.0 + self.scale),
                            dense=dense, norm_dims=2)


def _return_map(flow: _Flow, x: float, v: float, jacobian: bool = False,
                dense: bool = False):
    """(F0, F1, M, sol): the defect F = flow_omega(s) - s at s = (x, v), as
    floats; with jacobian the monodromy matrix M = Phi(omega) as a
    row-major list (else None); with dense the shot's dense output (else
    None).  None when the shot fails: guard floor hit, a right-hand side
    past the float range, or a defect that is not finite."""
    try:
        res = flow.shoot(x, v, dense=dense, jacobian=jacobian)
    except (IntegrationBlowUp, OverflowError):
        # a coefficient or power in the right-hand side left the float range
        return None
    end = res.y.tolist()
    F0, F1 = end[0] - x, end[1] - v
    if not (math.isfinite(F0) and math.isfinite(F1)):
        return None
    return F0, F1, end[2:] or None, res.dense


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
    (x, v, |F|, steps, best |F|, stop, carried): stop is None when
    |F| <= tol, else the reason the start was given up; carried is
    (M, dense output) of the final iterate when a carried candidate shot
    it, else None.

    In the full-step regime (the first step of a start, or a step after
    one accepted at lam = 1) the lam = 1 candidate is shot with Phi and
    dense output: taken as the next iterate, its M is the next step's
    Jacobian, and converged, its shot is the orbit's.  Every other
    candidate is plain."""
    shot = _return_map(flow, x, v, jacobian=True)
    if shot is None:
        return x, v, math.inf, 0, math.inf, STOP_SHOT, None
    F0, F1, M, sol = shot
    fn = best = math.hypot(F0, F1)
    steps = stagnant = 0
    full = True
    while fn > tol:
        if steps == _MAX_NEWTON:
            return x, v, fn, steps, best, STOP_CAP, None
        if M is None:
            shot = _return_map(flow, x, v, jacobian=True)
            if shot is None:
                return x, v, fn, steps, best, STOP_SHOT, None
            M = shot[2]
        # solve (M - I) d = -F by Cramer's rule
        j00, j01, j10, j11 = M[0] - 1.0, M[1], M[2], M[3] - 1.0
        det = j00 * j11 - j01 * j10
        if det == 0.0:
            return x, v, fn, steps, best, STOP_SINGULAR, None
        d0 = (j01 * F1 - j11 * F0) / det
        d1 = (j10 * F0 - j00 * F1) / det
        if not (math.isfinite(d0) and math.isfinite(d1)):
            return x, v, fn, steps, best, STOP_SINGULAR, None

        lam = 1.0
        accepted = last = None
        for _ in range(_MAX_HALVINGS):
            cx, cv = x + lam * d0, v + lam * d1
            carry = full and lam == 1.0
            cand = (_return_map(flow, cx, cv, jacobian=carry, dense=carry)
                    if cx > flow.eps_min else None)
            if cand is None:
                lam *= 0.5
                continue
            fc = math.hypot(cand[0], cand[1])
            last = (cx, cv, fc, cand)
            if fc < fn:
                accepted = last
                break
            lam = _next_lambda(lam, fc / fn)
        steps += 1
        if last is None:
            return x, v, fn, steps, best, STOP_LINE_SEARCH, None
        x, v, fn, (F0, F1, M, sol) = last
        best = min(best, fn)
        full = accepted is not None and lam == 1.0
        stagnant = 0 if accepted else stagnant + 1
        if stagnant == _MAX_STAGNANT:
            return x, v, fn, steps, best, STOP_STAGNANT, None
    carried = None if sol is None else (M, sol)
    return x, v, fn, steps, best, None, carried


def find_periodic(spec: ProblemSpec, guess: State | None = None,
                  tol: float = 1e-8) -> Orbit:
    """Damped Newton iteration on the return-map defect.

    The default initial point balances the periodic means (x = mean e /
    mean q, v = 0); on failure the x-guess is rescaled through a fixed
    factor ladder.  Each Newton step takes its Jacobian M - I from a shot
    that integrates the variational equations with the state, solves the
    2x2 system by Cramer's rule, and backtracks along the step until |F|
    strictly decreases, each new step length minimising a quadratic model
    of |F|^2.  Five consecutive steps without a decrease abandon the
    current start.  On the first step of a start, and after a step
    accepted at full length, the full-length candidate carries the
    variational equations and dense output: when it is accepted it needs
    no Jacobian shot of its own, and when it converges the orbit is
    packaged from it without shooting again.  tol must be a finite
    positive number, and a guess finite; spec.check_ranges() then runs
    before any shot, so a coefficient value or mean past the float range
    raises ValidationError keyed to its coefficient.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, not {tol!r}")
    if guess is not None and not (math.isfinite(guess.x)
                                  and math.isfinite(guess.v)):
        raise ValueError(f"guess must be finite, not {guess!r}")
    spec.check_ranges()
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
        x, v, fn, steps, reached, stop, carried = _newton(flow, x0, guess.v,
                                                          tol)
        if stop is None:
            return _package(spec, flow, x, v, fn, steps, factor, tol,
                            carried)
        best = min(best, reached)
        newton_steps += steps
        stops.append(stop)

    reasons = "; ".join(f"{x0:.6g}: {stop}"
                        for x0, stop in zip(starts, stops))
    raise NoConvergenceError(
        f"no periodic orbit found after trying starts {starts} (best "
        f"residual {best:.3e}, tol {tol:.3e}; {flow.shots} shots, "
        f"{newton_steps} Newton steps; stops: {reasons})",
        best, flow.shots, newton_steps, tuple(stops))


def _package(spec: ProblemSpec, flow: _Flow, x: float, v: float, fn: float,
             steps: int, factor: float, tol: float, carried) -> Orbit:
    """The orbit through the converged point (x, v).  carried is (M, dense
    output) of its Phi-carrying dense shot when Newton made one; without
    it the point is shot once more."""
    if carried is None:
        res = flow.shoot(x, v, dense=True, jacobian=True)
        carried = res.y[2:].tolist(), res.dense
    M, sol = carried
    tgrid = np.linspace(0.0, spec.omega, PATH_SAMPLES)
    vals = sol(tgrid)
    path = SampledPath(tgrid, vals[:, 0], vals[:, 1])
    # y = x^(1/alpha) and the residuals' powers and products can pass the
    # float range (a large rho1 makes 1/alpha large): the diagnostics then
    # read inf or nan, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        y_path = x_from_y(path, 1.0 / spec.alpha)
        ode_residual = residual(spec, path, ORIGINAL)
        ode_residual_y = residual(spec, y_path, TRANSFORMED)
    return Orbit(
        initial=State(t=0.0, x=x, v=v),
        path=path,
        y_path=y_path,
        omega=spec.omega,
        periodicity_residual=fn,
        ode_residual=ode_residual,
        ode_residual_y=ode_residual_y,
        min_x=float(np.min(path.x)),
        norm_y=y_path.sup_norm(),
        newton_steps=steps,
        start_factor=factor,
        tol=tol,
        multipliers=eigvals_2x2(M),
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
    The integrand is sampled once on that grid, and GreensFunction._integrate
    applies the trapezoid rule on each sample cell, the cells left of t_i
    taking the kernel's lower branch and those right of it the upper one.
    Both branches have rank 2, G(t,s) = U(t).V(s), so the rule runs as one
    prefix and one suffix sum over the cells: O(n) time and memory, no
    kernel matrix.
    """
    if not np.all(y.x > 0.0):
        raise PositivityError("operator input must be strictly positive")
    t = y.t
    if t.size < 3 or abs(t[0]) > 1e-12 * gf.omega \
            or abs(t[-1] - gf.omega) > 1e-9 * gf.omega:
        raise ValueError("operator input must sample [0, omega] uniformly")
    spec, k = tspec.spec, tspec.k
    F = (k * spec.c(t) * y.x ** tspec.exponent_c
         + k * spec.e(t) * y.x ** tspec.exponent_e
         + tspec.gradient_factor * y.v * y.v / y.x
         + k * spec.b(t))
    return SampledPath(t, *gf._integrate(t, F))


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
