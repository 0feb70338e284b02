"""Adaptive explicit Runge-Kutta integration, Dormand-Prince 5(4) pair.

Embedded 4th-order error estimate drives step control; the free 4th-order
interpolant of the pair provides dense output on accepted steps.  A guard
predicate can veto states (stage values included): a vetoed step is halved
rather than error-controlled, and step underflow raises IntegrationBlowUp
carrying the last valid state.

The systems integrated here are small (the 2-dimensional shooting system,
the 4-dimensional fundamental matrix), where numpy's per-call overhead on
tiny arrays costs more than the arithmetic.  So the step loop runs on plain
Python floats, with the seven stages written out; numpy appears only at the
boundary, in IvpResult.y, IntegrationBlowUp.y and the dense coefficients.
f(t, y) receives the state as a list of floats and may return any sequence
of the same length; guard(y) receives a list of floats as well.

Characteristics
---------------
order            : 5 (local error estimated by a 4th-order companion)
stages           : 7, first-same-as-last
dense output     : quartic polynomial per step, O(h^5) accurate
step control     : err^(-1/5) with safety 0.9, growth clamped to [0.2, 5]

References
----------
Dormand, Prince, "A family of embedded Runge-Kutta formulae" (1980).
Hairer, Norsett, Wanner, "Solving Ordinary Differential Equations I",
Sections II.4-5.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np


class IntegrationBlowUp(RuntimeError):
    """Step size underflowed; .t and .y hold the last accepted state."""

    def __init__(self, message: str, t: float, y: np.ndarray):
        super().__init__(message)
        self.t = t
        self.y = y


# Dormand-Prince tableau; zero entries are left out.  The 5th-order weights
# equal row 7 of A (FSAL), the error weights E are b5 - b4, and D holds
# the weights of the quartic dense-output interpolant.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
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

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


@dataclass
class DenseSolution:
    """Piecewise-quartic interpolant over the accepted steps."""

    t0: float
    t1: float
    lefts: np.ndarray          # (nsteps,) left edge of each step
    widths: np.ndarray         # (nsteps,)
    coef: np.ndarray           # (nsteps, 5, dim)

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = min(self.t0, self.t1), max(self.t0, self.t1)
        if np.any(tq < lo - 1e-12 * (hi - lo + 1.0)) or \
                np.any(tq > hi + 1e-12 * (hi - lo + 1.0)):
            raise ValueError("dense evaluation outside the integrated span")
        idx = np.searchsorted(self.lefts, tq, side="right") - 1
        idx = np.clip(idx, 0, len(self.lefts) - 1)
        theta = (tq - self.lefts[idx]) / self.widths[idx]
        theta = np.clip(theta, 0.0, 1.0)[:, None]
        c = self.coef[idx]
        one = 1.0 - theta
        out = c[:, 0] + theta * (c[:, 1] + one * (c[:, 2] + theta * (c[:, 3] + one * c[:, 4])))
        return out[0] if scalar else out


@dataclass
class IvpResult:
    t: float
    y: np.ndarray
    dense: DenseSolution | None
    nsteps: int
    nfev: int
    rejected: int
    guard_rejections: int


def _initial_step(span: float, max_step: float) -> float:
    return min(span / 100.0, max_step, span)


class _Vetoed(Exception):
    """The guard rejected a stage state after `calls` RHS evaluations."""

    def __init__(self, calls: int):
        self.calls = calls


def _never(y) -> bool:
    return False


def _stages(f, guard, t, h, y, k1):
    """Slopes k2..k7 of one step from (t, y) with first slope k1, plus the
    7th stage state, which is the 5th-order solution."""
    y2 = [a + h * (_A21 * p1) for a, p1 in zip(y, k1)]
    if guard(y2):
        raise _Vetoed(0)
    k2 = f(t + _C2 * h, y2)
    y3 = [a + h * (_A31 * p1 + _A32 * p2) for a, p1, p2 in zip(y, k1, k2)]
    if guard(y3):
        raise _Vetoed(1)
    k3 = f(t + _C3 * h, y3)
    y4 = [a + h * (_A41 * p1 + _A42 * p2 + _A43 * p3)
          for a, p1, p2, p3 in zip(y, k1, k2, k3)]
    if guard(y4):
        raise _Vetoed(2)
    k4 = f(t + _C4 * h, y4)
    y5 = [a + h * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4)
          for a, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)]
    if guard(y5):
        raise _Vetoed(3)
    k5 = f(t + _C5 * h, y5)
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


def solve_ivp_dp(f, t0: float, y0, t1: float, rtol: float = 1e-10,
                 atol: float = 1e-12, guard=None, dense: bool = False,
                 max_step: float = np.inf) -> IvpResult:
    """Integrate y' = f(t, y) from t0 to t1 (t1 > t0).

    f(t, y) gets the state as a list of floats and returns a sequence of
    the same length.  guard(y) -> bool, also given a list, returns True
    when the state is inadmissible.  f is only ever called on states that
    passed the guard, so it may safely evaluate inverse powers of
    components the guard keeps positive.
    """
    if t1 == t0:
        y = np.asarray(y0, dtype=float).copy()
        empty = DenseSolution(t0, t1, np.array([t0]), np.array([1.0]),
                              np.zeros((1, 5, y.size))) if dense else None
        if dense:
            empty.coef[0, 0] = y
            return IvpResult(t0, y, empty, 0, 0, 0, 0)
        return IvpResult(t0, y, None, 0, 0, 0, 0)
    if t1 < t0:
        raise ValueError("backward integration is not supported")
    y = np.asarray(y0, dtype=float).tolist()
    n = len(y)
    if guard is None:
        guard = _never
    elif guard(y):
        raise IntegrationBlowUp("initial state violates the guard", t0,
                                np.array(y))

    span = t1 - t0
    hmin = 1e-14 * span
    h = _initial_step(span, max_step)
    t = t0
    k1 = f(t, y)
    if len(k1) != n:
        raise ValueError(f"f returned {len(k1)} components for a state of "
                         f"{n}")
    nfev = 1
    nsteps = rejected = guard_rejections = 0
    # per accepted step: y, dy, r3, r4, r5, packed as C doubles
    lefts, widths, coefs = [], [], array("d")

    while t < t1:
        h = min(h, t1 - t)
        if h < hmin:
            raise IntegrationBlowUp(
                f"step size underflow near t = {t:.12g}", t, np.array(y))

        try:
            k2, k3, k4, k5, k6, k7, y_new = _stages(f, guard, t, h, y, k1)
        except _Vetoed as veto:
            nfev += veto.calls
            h *= 0.5
            guard_rejections += 1
            continue
        nfev += 6

        err = 0.0
        for a, b, p1, p3, p4, p5, p6, p7 in zip(y, y_new, k1, k3, k4, k5,
                                                k6, k7):
            r = (h * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6
                      + _E7 * p7)
                 / (atol + rtol * max(abs(a), abs(b))))
            err += r * r
        err = math.sqrt(err / n)

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
            t += h
            y = y_new
            k1 = k7
            nsteps += 1
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -0.2)
            h = min(h * max(factor, _MIN_FACTOR), max_step)
        else:
            rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)

    sol = None
    if dense:
        sol = DenseSolution(t0, t1, np.asarray(lefts), np.asarray(widths),
                            np.array(coefs).reshape(nsteps, 5, n))
    return IvpResult(t, np.array(y, dtype=float), sol, nsteps, nfev,
                     rejected, guard_rejections)
