"""Composite Gauss-Legendre quadrature with adaptive panel halving.

Panels are compared against their two halves; a panel is accepted when the
difference passes a budget proportional to its length.  Smooth integrands
(everything this package integrates) converge long before the depth cap.
"""

from __future__ import annotations

import math

import numpy as np

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# relative accuracy driven well below the 1e-10*(b-a)*max|f| contract
_DEFAULT_REL = 1e-12
_MAX_DEPTH = 48
_NODES = 12              # Gauss nodes per panel
_GOLDEN_MAXITER = 200


class QuadratureError(RuntimeError):
    """Adaptive refinement hit the depth cap without meeting its budget, or
    met a panel sum that is not finite."""


def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _NODE_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _NODE_CACHE[n] = (x, w)
    return _NODE_CACHE[n]


def _panel(f, a: float, b: float) -> float:
    x, w = _gauss_nodes(_NODES)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, np.asarray(f(mid + half * x), dtype=float)))


def integrate_adaptive(f, a: float, b: float, tol: float | None = None
                       ) -> float:
    """Integrate callable f over [a, b] to absolute accuracy tol.

    f must accept a numpy array of abscissae and return values elementwise.
    When tol is omitted a budget of _DEFAULT_REL * (b - a) * max|f| is used,
    with max|f| estimated from a 33-point probe.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    if tol is None:
        probe = np.asarray(f(np.linspace(a, b, 33)), dtype=float)
        scale = float(np.max(np.abs(probe)))
        tol = _DEFAULT_REL * (b - a) * (scale + 1e-300)
    total = 0.0
    # stack entries: (left, right, whole-panel estimate, depth)
    stack = [(a, b, _panel(f, a, b), 0)]
    while stack:
        lo, hi, whole, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        if not math.isfinite(left + right):
            # no refinement makes a sum past the float range finite
            raise QuadratureError(f"integral on [{lo}, {hi}] is not finite")
        err = abs(left + right - whole)
        if err <= tol * (hi - lo) / (b - a) or (hi - lo) <= 1e-15 * (b - a):
            total += left + right
        elif depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"no convergence on [{lo}, {hi}] after {depth} halvings")
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def cumulative_integral(f, grid: np.ndarray) -> np.ndarray:
    """Running integral of f from grid[0] along an ascending grid.

    Each grid interval is covered by one Gauss panel; the returned array has
    the same length as the grid with a leading zero.
    """
    grid = np.asarray(grid, dtype=float)
    x, w = _gauss_nodes(_NODES)
    mids = 0.5 * (grid[:-1] + grid[1:])
    halves = 0.5 * (grid[1:] - grid[:-1])
    pts = mids[:, None] + halves[:, None] * x[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    pieces = halves * (vals @ w)
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
