"""Composite Gauss-Legendre quadrature with adaptive panel halving.

Panels are compared against their two halves; a panel is accepted when the
difference passes a budget proportional to its length.  The work is bounded
by a number of panel halvings, _MAX_PANELS: smooth integrands (everything
this package integrates) converge within a handful, and an integrand that
no halving brings under its budget, such as one with a singularity, fails
after that many.
"""

from __future__ import annotations

import math

import numpy as np

# relative accuracy driven well below the 1e-10*(b-a)*max|f| contract
_DEFAULT_REL = 1e-12
_MAX_PANELS = 10_000     # panel halvings before integrate_adaptive gives up
# a panel's nodes _X and weights _W: the 12-point Gauss-Legendre rule, the
# bits of numpy.polynomial.legendre.leggauss(12), which is exactly symmetric
# about 0, written as its six positive nodes and their weights
_HALF_X = np.array([float.fromhex(h) for h in (
    "0x1.007a5f8f630e4p-3", "0x1.78a8d20a8b19dp-2", "0x1.2cb4f05c077f9p-1",
    "0x1.8a30aeed88f36p-1", "0x1.cee874ffb88b3p-1", "0x1.f68f1d8e42e81p-1")])
_HALF_W = np.array([float.fromhex(h) for h in (
    "0x1.fe40ce6d4f022p-3", "0x1.de3155c256aaep-3", "0x1.a0163e6b1ab6bp-3",
    "0x1.47d7258f22d96p-3", "0x1.b60602bce61afp-4", "0x1.8275d9dea6d53p-5")])
_X = np.concatenate((-_HALF_X[::-1], _HALF_X))
_W = np.concatenate((_HALF_W[::-1], _HALF_W))
_GOLDEN_MAXITER = 200


class QuadratureError(RuntimeError):
    """Adaptive refinement used up its _MAX_PANELS halvings without meeting
    its budget, or met a panel sum that is not finite."""


def _panel(f, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _X), dtype=float)
    return half * float(np.sum(_W * vals))


def integrate_adaptive(f, a: float, b: float) -> float:
    """Integrate callable f over [a, b] to an absolute budget of
    _DEFAULT_REL * (b - a) * max|f|, with max|f| estimated from a 33-point
    probe.  f must accept a numpy array of abscissae and return values
    elementwise.  Raises QuadratureError after _MAX_PANELS halvings that
    leave some panel over its share of the budget.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    probe = np.asarray(f(np.linspace(a, b, 33)), dtype=float)
    tol = _DEFAULT_REL * (b - a) * (float(np.max(np.abs(probe))) + 1e-300)
    total = 0.0
    # stack entries: (left, right, whole-panel estimate)
    stack = [(a, b, _panel(f, a, b))]
    halvings = 0
    while stack:
        lo, hi, whole = stack.pop()
        if halvings == _MAX_PANELS:
            raise QuadratureError(
                f"no convergence on [{lo}, {hi}] after {halvings} panel "
                "halvings")
        halvings += 1
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        if not math.isfinite(left + right):
            # no refinement makes a sum past the float range finite
            raise QuadratureError(f"integral on [{lo}, {hi}] is not finite")
        if abs(left + right - whole) <= tol * (hi - lo) / (b - a):
            total += left + right
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return total


def cumulative_integral(f, grid: np.ndarray) -> np.ndarray:
    """Running integral of f from grid[0] along an ascending grid.

    Each grid interval is covered by one Gauss panel; the returned array has
    the same length as the grid with a leading zero.
    """
    grid = np.asarray(grid, dtype=float)
    mids = 0.5 * (grid[:-1] + grid[1:])
    halves = 0.5 * (grid[1:] - grid[:-1])
    pts = mids[:, None] + halves[:, None] * _X[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    pieces = halves * np.sum(vals * _W, axis=1)
    out = np.empty(grid.shape, dtype=float)
    out[0] = 0.0
    np.cumsum(pieces, out=out[1:])
    return out


def golden_min(f, a: float, b: float, tol: float = 1e-12
               ) -> tuple[float, float]:
    """Golden-section minimum of a scalar callable on [a, b].

    Returns (argmin, value).  The bracket need not be unimodal; the routine
    then still returns some local minimum inside it, which suits refinement
    around an already-located grid minimum.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAXITER):
        if (b - a) <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    fm = f(xm)
    if f1 < fm:
        xm, fm = x1, f1
    if f2 < fm:
        xm, fm = x2, f2
    return xm, fm
