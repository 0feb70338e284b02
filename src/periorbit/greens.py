"""Periodic Green's functions for u'' + p(t) u' + l(t) u = h(t).

Two constructions are provided.  When p vanishes and l is a positive
constant xi^2 the kernel has the two-branch cosine closed form

    G(t,s) = cos(xi*(t - s - omega/2)) / (2 xi sin(xi omega/2)),  s <= t,
    G(t,s) = cos(xi*(t - s + omega/2)) / (2 xi sin(xi omega/2)),  s >  t,

positive exactly when xi < pi/omega.  Otherwise the kernel is assembled
from the fundamental matrix Phi of the first-order system: with monodromy
M = Phi(omega) and B = (I - M)^-1,

    G(t,s) = [Phi(t) B Phi(s)^-1]_{12},        s <= t,
    G(t,s) = [Phi(t) (B - I) Phi(s)^-1]_{12},  s >  t,

which satisfies the homogeneous equation off the diagonal, is omega-periodic
in t, and has a unit upward jump of dG/dt across the diagonal.  kernel_for
picks between the two.

On each branch the kernel has rank 2: G(t,s) = U(t).V(s) and
dG/dt(t,s) = U'(t).V(s), with U = Phi(t)[0,:], U' = Phi(t)[1,:] and
V = B Phi(s)^-1[:,1] (B - I on the upper branch); the closed form splits
the same way by the cosine addition theorem.  The integral operator
u(t_i) = int_0^omega G(t_i, s) f(s) ds on a grid t_0 < ... < t_n is then
U(t_i) dotted with the lower-branch integrals of V f over the cells left
of t_i plus the upper-branch ones right of it: a prefix and a suffix sum,
O(n) time and memory instead of an (n+1)^2 kernel matrix.

Constants attached to a kernel: the extreme values g_max and g_min, the
largest slope gt_max = max |dG/dt| (diagonal counted one-sided on both
branches), the cone floor ratio sigma = g_min/(g_max + gt_max), and the
slope-to-value bound delta = gt_max/g_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import PeriodicCoeff
from .quadrature import _gauss_nodes, integrate_adaptive

__all__ = [
    "ResonanceError",
    "GreensFunction",
    "closed_form_constant",
    "numeric_periodic_green",
    "kernel_for",
    "CriterionVerdict",
    "check_A1",
    "check_A2",
    "check_chu",
    "homogeneous_residual",
    "periodicity_mismatch",
    "diagonal_jump_error",
]

DEFAULT_GRID = 200
_RESONANCE_TOL = 1e-8


class ResonanceError(RuntimeError):
    """The homogeneous problem is degenerate; no usable periodic kernel."""


@dataclass
class GreensFunction:
    """Kernel grid plus constants; treat as immutable after construction.

    G and Gt hold G(t_i, s_j) and dG/dt(t_i, s_j) on the (n+1)^2 grid; the
    diagonal carries the s <= t branch.  source is "closed-form" or
    "numeric".  _factors(t, s) returns the rank-2 factors (U(t), U'(t),
    V_lower(s), V_upper(s)), each of shape (len, 2), with
    G = U.V_branch and dG/dt = U'.V_branch on each branch.
    """

    omega: float
    n: int
    t: np.ndarray
    G: np.ndarray
    Gt: np.ndarray
    g_max: float
    g_min: float
    gt_max: float
    sigma: float
    delta: float
    positive: bool
    source: str
    p_fn: object = field(repr=False)
    l_fn: object = field(repr=False)
    _branch_eval: object = field(repr=False)
    _factors: object = field(repr=False)

    def kernel(self, t, s, branch: str = "auto"):
        """Evaluate (G, Gt) on the outer product of abscissa arrays.

        branch "lower" forces the s <= t formula, "upper" the s > t one;
        "auto" selects by comparison with the diagonal assigned to lower.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return self._branch_eval(t, s, branch)

    def solve_linear(self, h, return_derivative: bool = False):
        """Periodic response u(t_i) = int_0^omega G(t_i, s) h(s) ds.

        Every grid cell carries a 10-point Gauss rule, so no cell straddles
        the diagonal; node placement depends only on the grid, making the
        map exactly linear in h.
        """
        x10, w10 = _gauss_nodes(10)
        half = 0.5 * np.diff(self.t)[:, None]
        nodes = 0.5 * (self.t[:-1] + self.t[1:])[:, None] + half * x10
        hv = np.asarray(h(nodes.ravel()), dtype=float).reshape(nodes.shape)
        u, up = self._integrate(self.t, nodes, half * w10, hv)
        return (u, up) if return_derivative else u

    def _integrate(self, t, nodes, weights, values):
        """(int_0^omega G(t_i, s) f(s) ds, the same with dG/dt) at every
        point t_i of an increasing grid t_0 = 0 < ... < t_n = omega.

        Cell k = [t_k, t_{k+1}] carries a quadrature rule: nodes, weights
        and the values of f at the nodes, each of shape (n, m).  Cells left
        of t_i take the lower branch and cells right of it the upper one,
        so the derivative's diagonal jump never falls inside a cell.  The
        rank-2 factors turn the sum over cells into a prefix sum of the
        lower-branch cell integrals of V f and a suffix sum of the
        upper-branch ones: O(n m) time and memory.
        """
        U, dU, V_lo, V_up = self._factors(t, nodes.ravel())
        wf = (weights * values).reshape(-1, 1)
        shape = nodes.shape + (2,)
        lower = (V_lo * wf).reshape(shape).sum(axis=1)
        upper = (V_up * wf).reshape(shape).sum(axis=1)
        acc = np.zeros((len(t), 2))
        np.cumsum(lower, axis=0, out=acc[1:])
        acc[:-1] += np.cumsum(upper[::-1], axis=0)[::-1]
        return np.einsum("ij,ij->i", U, acc), np.einsum("ij,ij->i", dU, acc)

    def constants(self) -> dict:
        return {
            "g_max": self.g_max,
            "g_min": self.g_min,
            "gt_max": self.gt_max,
            "sigma": self.sigma,
            "delta": self.delta,
            "positive": self.positive,
            "source": self.source,
        }


# ---------------------------------------------------------------------------
# extremum refinement on the kernel square


def _quadratic_fit_candidate(vals3: np.ndarray, sign: float):
    """Stationary point of a quadratic fitted to a 3x3 patch, cell units.

    Returns (dx, dy) within [-1.5, 1.5]^2 when the fit is usable for the
    requested extremum (sign = +1 for a maximum of vals, -1 for a minimum),
    else None.
    """
    xs, ys = np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], indexing="ij")
    A = np.column_stack([np.ones(9), xs.ravel(), ys.ravel(),
                         xs.ravel() ** 2, xs.ravel() * ys.ravel(),
                         ys.ravel() ** 2])
    c, *_ = np.linalg.lstsq(A, vals3.ravel(), rcond=None)
    H = np.array([[2 * c[3], c[4]], [c[4], 2 * c[5]]])
    det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
    if det <= 1e-12 * (abs(H).max() ** 2 + 1e-300):
        return None
    if sign > 0 and H[0, 0] >= 0:
        return None
    if sign < 0 and H[0, 0] <= 0:
        return None
    try:
        step = np.linalg.solve(H, -np.array([c[1], c[2]]))
    except np.linalg.LinAlgError:
        return None
    if np.max(np.abs(step)) > 1.5:
        return None
    return step


def _refine_value_extremum(be, tgrid, G, i, j, sign):
    """Polish an extreme kernel value near grid cell (i, j).

    A quadratic fit over the 3x3 neighbourhood is tried first; a two-level
    local subgrid scan backs it up, which also covers ridge-shaped kernels
    where the fit degenerates.  Returns the refined value (sign = +1 max,
    -1 min); never worse than the grid value.
    """
    omega = tgrid[-1]
    step = tgrid[1] - tgrid[0]
    best = sign * G[i, j]

    if 1 <= i <= len(tgrid) - 2 and 1 <= j <= len(tgrid) - 2:
        patch = G[i - 1:i + 2, j - 1:j + 2]
        cand = _quadratic_fit_candidate(patch, sign)
        if cand is not None:
            tt = np.array([min(max(tgrid[i] + cand[0] * step, 0.0), omega)])
            ss = np.array([min(max(tgrid[j] + cand[1] * step, 0.0), omega)])
            Gv, _ = be(tt, ss, "auto")
            best = max(best, sign * Gv[0, 0])

    tc, sc, width = tgrid[i], tgrid[j], step
    for _ in range(2):
        ts = np.linspace(max(0.0, tc - width), min(omega, tc + width), 17)
        ss = np.linspace(max(0.0, sc - width), min(omega, sc + width), 17)
        Gv, _ = be(ts, ss, "auto")
        flat = np.argmax(sign * Gv)
        ii, jj = np.unravel_index(flat, Gv.shape)
        val = sign * Gv[ii, jj]
        if val > best:
            best = val
        tc, sc = ts[ii], ss[jj]
        width /= 8.0
    return sign * best


def _refine_slope_maximum(be, tgrid, tc, sc, width):
    """Largest |dG/dt| near (tc, sc), honouring the diagonal one-sidedly.

    Both branch surfaces are scanned on their own closed half of the local
    window, so the two one-sided diagonal slopes each compete.
    """
    omega = tgrid[-1]
    best = -np.inf
    for _ in range(2):
        ts = np.linspace(max(0.0, tc - width), min(omega, tc + width), 17)
        ss = np.linspace(max(0.0, sc - width), min(omega, sc + width), 17)
        lower_ok = ts[:, None] >= ss[None, :]
        _, Gt_lo = be(ts, ss, "lower")
        _, Gt_up = be(ts, ss, "upper")
        cand = np.maximum(np.where(lower_ok, np.abs(Gt_lo), -np.inf),
                          np.where(~lower_ok | (ts[:, None] == ss[None, :]),
                                   np.abs(Gt_up), -np.inf))
        flat = np.argmax(cand)
        ii, jj = np.unravel_index(flat, cand.shape)
        if cand[ii, jj] > best:
            best = float(cand[ii, jj])
        tc, sc = ts[ii], ss[jj]
        width /= 8.0
    return best


def _grid_constants(be, tgrid, G, Gt, gt_analytic=None):
    n = len(tgrid) - 1
    imin, jmin = np.unravel_index(np.argmin(G), G.shape)
    imax, jmax = np.unravel_index(np.argmax(G), G.shape)
    g_min = _refine_value_extremum(be, tgrid, G, imin, jmin, -1.0)
    g_max = _refine_value_extremum(be, tgrid, G, imax, jmax, +1.0)

    if gt_analytic is not None:
        gt_max = gt_analytic
    else:
        step = tgrid[1] - tgrid[0]
        candidates = []
        i, j = np.unravel_index(np.argmax(np.abs(Gt)), Gt.shape)
        candidates.append((tgrid[i], tgrid[j]))
        diag_upper = np.abs(np.diagonal(Gt) - 1.0)
        k = int(np.argmax(diag_upper))
        candidates.append((tgrid[k], tgrid[k]))
        gt_max = max(_refine_slope_maximum(be, tgrid, tc, sc, step)
                     for tc, sc in candidates)
    return g_min, g_max, gt_max


def _assemble(omega, n, be, factors, source, p_fn, l_fn, positive=None,
              gt_analytic=None) -> GreensFunction:
    tgrid = np.linspace(0.0, omega, n + 1)
    G, Gt = be(tgrid, tgrid, "auto")
    g_min, g_max, gt_max = _grid_constants(be, tgrid, G, Gt, gt_analytic)
    if positive is None:
        positive = bool(G.min() > 0.0 and g_min > 0.0)
    sigma = g_min / (g_max + gt_max)
    delta = gt_max / g_min
    return GreensFunction(omega=omega, n=n, t=tgrid, G=G, Gt=Gt,
                          g_max=g_max, g_min=g_min, gt_max=gt_max,
                          sigma=sigma, delta=delta, positive=positive,
                          source=source, p_fn=p_fn, l_fn=l_fn,
                          _branch_eval=be, _factors=factors)


# ---------------------------------------------------------------------------
# closed form


def closed_form_constant(xi: float, omega: float, n: int = DEFAULT_GRID
                         ) -> GreensFunction:
    """Kernel for p = 0, l = xi^2 from the two-branch cosine formula."""
    if xi <= 0.0 or omega <= 0.0:
        raise ValueError("xi and omega must be positive")
    half_angle = 0.5 * xi * omega
    s_half = math.sin(half_angle)
    if abs(s_half) < 1e-12:
        raise ResonanceError(
            f"sin(xi*omega/2) = {s_half:.3e} vanishes: the homogeneous "
            "problem admits a periodic solution and the kernel is undefined")
    den = 2.0 * xi * s_half

    def be(tarr, sarr, branch):
        tau = tarr[:, None] - sarr[None, :]
        if branch == "lower":
            arg = xi * (tau - 0.5 * omega)
        elif branch == "upper":
            arg = xi * (tau + 0.5 * omega)
        else:
            arg = xi * np.where(tau >= 0.0, tau - 0.5 * omega,
                                tau + 0.5 * omega)
        return np.cos(arg) / den, -xi * np.sin(arg) / den

    # cos(xi (t - s -+ omega/2)) expanded by the addition theorem; be keeps
    # the direct cosines, which the kernel constants are computed from
    def factors(tarr, sarr):
        ct, st = np.cos(xi * tarr), np.sin(xi * tarr)
        lo = xi * (sarr + 0.5 * omega)
        up = xi * (sarr - 0.5 * omega)
        return (np.column_stack((ct, st)) / den,
                xi * np.column_stack((-st, ct)) / den,
                np.column_stack((np.cos(lo), np.sin(lo))),
                np.column_stack((np.cos(up), np.sin(up))))

    # |dG/dt| = |sin(u)| / (2 |sin(xi omega/2)|) with u running exactly over
    # [-xi omega/2, xi omega/2] on each closed branch: the maximisation is
    # one-dimensional and analytic.
    peak = math.sin(half_angle) if half_angle <= 0.5 * math.pi else 1.0
    gt_analytic = abs(peak) / (2.0 * abs(s_half))

    p_fn = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    l_fn = lambda t: np.full_like(np.asarray(t, dtype=float), xi * xi)
    return _assemble(omega, n, be, factors, "closed-form", p_fn, l_fn,
                     positive=bool(xi < math.pi / omega),
                     gt_analytic=gt_analytic)


# ---------------------------------------------------------------------------
# numeric construction via the fundamental matrix


def numeric_periodic_green(p, l, omega: float, n: int = DEFAULT_GRID,
                           rtol: float = 1e-12, atol: float = 1e-14
                           ) -> GreensFunction:
    """Kernel for general continuous periodic p, l via the monodromy matrix.

    p and l may be PeriodicCoeff or plain callables.  Raises ResonanceError
    when the monodromy matrix has an eigenvalue within 1e-8 of +1 (the
    homogeneous problem has a periodic solution) or of -1 (the antiperiodic
    boundary case, where the kernel theory degenerates).
    """
    from .ivp import solve_ivp_dp

    p_fn = p if callable(p) else (lambda t: np.full_like(t, float(p)))
    l_fn = l if callable(l) else (lambda t: np.full_like(t, float(l)))

    def rhs(t, y):
        Y = y.reshape(2, 2)
        pv = float(p_fn(t))
        lv = float(l_fn(t))
        out = np.empty((2, 2))
        out[0] = Y[1]
        out[1] = -lv * Y[0] - pv * Y[1]
        return out.ravel()

    res = solve_ivp_dp(rhs, 0.0, np.eye(2).ravel(), omega,
                       rtol=rtol, atol=atol, dense=True,
                       max_step=omega / 16.0)
    M = res.y.reshape(2, 2)
    eigs = np.linalg.eigvals(M)
    if np.min(np.abs(eigs - 1.0)) < _RESONANCE_TOL:
        raise ResonanceError(
            "monodromy matrix has eigenvalue 1: the homogeneous problem "
            "admits a periodic solution, no unique periodic response")
    if np.min(np.abs(eigs + 1.0)) < _RESONANCE_TOL:
        raise ResonanceError(
            "monodromy matrix has eigenvalue -1: antiperiodic boundary "
            "case, the periodic kernel construction degenerates")

    B_low = np.linalg.inv(np.eye(2) - M)
    B_up = B_low - np.eye(2)
    dense = res.dense

    def phi(tarr):
        return dense(tarr).reshape(-1, 2, 2)

    def factors(tarr, sarr):
        Pt = phi(tarr)
        Ps = phi(sarr)
        det = Ps[:, 0, 0] * Ps[:, 1, 1] - Ps[:, 0, 1] * Ps[:, 1, 0]
        # second column of Ps^-1: ( -b, a ) / det
        col = np.empty((len(sarr), 2))
        col[:, 0] = -Ps[:, 0, 1] / det
        col[:, 1] = Ps[:, 0, 0] / det
        return Pt[:, 0, :], Pt[:, 1, :], col @ B_low.T, col @ B_up.T

    def be(tarr, sarr, branch):
        rows1, rows2, v_low, v_up = factors(tarr, sarr)
        if branch == "lower":
            return rows1 @ v_low.T, rows2 @ v_low.T
        if branch == "upper":
            return rows1 @ v_up.T, rows2 @ v_up.T
        mask = tarr[:, None] >= sarr[None, :]
        G = np.where(mask, rows1 @ v_low.T, rows1 @ v_up.T)
        Gt = np.where(mask, rows2 @ v_low.T, rows2 @ v_up.T)
        return G, Gt

    return _assemble(omega, n, be, factors, "numeric", p_fn, l_fn)


def kernel_for(p: PeriodicCoeff, l: PeriodicCoeff, omega: float,
               n: int = DEFAULT_GRID) -> GreensFunction:
    """The kernel of u'' + p u' + l u: the closed form when p vanishes and
    l is a constant xi^2 with xi < pi/omega, where it is positive, and the
    numeric construction otherwise."""
    l_const = l.constant_value()
    if p.is_zero() and l_const is not None and l_const > 0.0:
        xi = math.sqrt(l_const)
        if xi < math.pi / omega:
            return closed_form_constant(xi, omega, n=n)
    return numeric_periodic_green(p, l, omega, n=n)


# ---------------------------------------------------------------------------
# defining-property diagnostics


def homogeneous_residual(gf: GreensFunction) -> float:
    """Max |G_tt + p G_t + l G| over grid rows at least two cells off the
    diagonal, with G_tt and G_t from central differences down the columns."""
    dt = gf.t[1] - gf.t[0]
    G = gf.G
    pv = np.asarray(gf.p_fn(gf.t), dtype=float)
    lv = np.asarray(gf.l_fn(gf.t), dtype=float)
    worst = 0.0
    nn = gf.n
    for i in range(1, nn):
        js = np.nonzero(np.abs(np.arange(nn + 1) - i) >= 2)[0]
        if len(js) == 0:
            continue
        d2 = (G[i + 1, js] - 2.0 * G[i, js] + G[i - 1, js]) / dt ** 2
        d1 = (G[i + 1, js] - G[i - 1, js]) / (2.0 * dt)
        r = np.abs(d2 + pv[i] * d1 + lv[i] * G[i, js])
        worst = max(worst, float(r.max()))
    return worst


def periodicity_mismatch(gf: GreensFunction) -> float:
    """Max of |G(0,s) - G(omega,s)| and |Gt(0,s) - Gt(omega,s)| over interior
    s.  The corner columns s = 0 and s = omega are excluded: there the two
    rows sit on opposite sides of the diagonal jump of Gt."""
    sel = slice(1, gf.n)
    dG = np.abs(gf.G[0, sel] - gf.G[-1, sel])
    dGt = np.abs(gf.Gt[0, sel] - gf.Gt[-1, sel])
    return float(max(dG.max(), dGt.max()))


def diagonal_jump_error(gf: GreensFunction, s_values, h: float | None = None
                        ) -> np.ndarray:
    """|(dG/dt(s+,s) - dG/dt(s-,s)) - 1| with one-sided second-order finite
    differences of G itself, independent of the stored Gt grid."""
    if h is None:
        h = 1e-4 * gf.omega
    s_values = np.asarray(s_values, dtype=float)
    out = np.empty(len(s_values))
    for idx, s in enumerate(s_values):
        sa = np.array([s])
        up_nodes = np.array([s - 2 * h, s - h, s])
        lo_nodes = np.array([s, s + h, s + 2 * h])
        Gu, _ = gf._branch_eval(up_nodes, sa, "upper")
        Gl, _ = gf._branch_eval(lo_nodes, sa, "lower")
        slope_minus = (3 * Gu[2, 0] - 4 * Gu[1, 0] + Gu[0, 0]) / (2 * h)
        slope_plus = (-3 * Gl[0, 0] + 4 * Gl[1, 0] - Gl[2, 0]) / (2 * h)
        out[idx] = abs((slope_plus - slope_minus) - 1.0)
    return out


# ---------------------------------------------------------------------------
# positivity criteria


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str  # A1 | A2 | CHU | CLOSED_FORM
    holds: bool
    applicable: bool
    quantities: dict
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "holds": self.holds,
            "applicable": self.applicable,
            "quantities": dict(self.quantities),
            "notes": self.notes,
        }


def check_A1(p: PeriodicCoeff, l: PeriodicCoeff, a1: PeriodicCoeff
             ) -> CriterionVerdict:
    """Factorisation criterion: with a2 = p - a1, positivity follows when
    a1' + a1 a2 = l and both mean values int a1, int a2 are positive.

    The caller supplies the factor a1; this routine only verifies it.
    """
    omega = p.omega
    a2 = PeriodicCoeff(p.expr + (-a1.expr), omega)
    a1p = a1.derivative()
    ts = np.linspace(0.0, omega, 1025)
    residual = float(np.max(np.abs(a1p(ts) + a1(ts) * a2(ts) - l(ts))))
    int_a1 = a1.integrate(0.0, omega)
    int_a2 = a2.integrate(0.0, omega)
    holds = residual <= 1e-8 and int_a1 > 0.0 and int_a2 > 0.0
    return CriterionVerdict(
        criterion="A1", holds=holds, applicable=True,
        quantities={"factorisation_residual": residual,
                    "int_a1": int_a1, "int_a2": int_a2},
        notes="a1 supplied by caller; a2 = p - a1")


def check_A2(p: PeriodicCoeff, l: PeriodicCoeff) -> CriterionVerdict:
    """Mean-coefficient criterion:
    (int_0^omega p)^2 >= 4 omega^2 exp((1/omega) int_0^omega ln l),
    requiring l > 0 throughout so the logarithm exists."""
    omega = p.omega
    lex = l.extrema()
    if lex.min_value <= 1e-10 * max(1.0, abs(lex.max_value)):
        return CriterionVerdict(
            criterion="A2", holds=False, applicable=False,
            quantities={"l_min": lex.min_value},
            notes="l must stay strictly positive for the log-mean")
    int_p = p.integrate(0.0, omega)
    log_mean = integrate_adaptive(lambda s: np.log(l(s)), 0.0, omega) / omega
    left = int_p ** 2
    right = 4.0 * omega ** 2 * math.exp(log_mean)
    return CriterionVerdict(
        criterion="A2", holds=bool(left >= right), applicable=True,
        quantities={"left": left, "right": right, "l_min": lex.min_value})


def check_chu(p: PeriodicCoeff, l: PeriodicCoeff) -> CriterionVerdict:
    """Exponential-weight criterion with window integrals over one period.

    With varsigma(p)(t) = exp(int_0^t p) and
    sigma1(p)(t) = varsigma(p)(omega) * int_0^t p(s) ds
                   + int_t^omega varsigma(p)(s) ds,
    it requires int_0^omega l varsigma(p) sigma1(-p) >= 0, the windowed
    product sup_t int_t^{t+omega} varsigma(-p) * int_t^{t+omega}
    max(l, 0) varsigma(p) <= 4 (sup over a 512-point t-grid), and l not
    identically zero.

    The first term of sigma1 integrates the coefficient itself, as the
    criterion is printed; a plausible variant integrates its exponential
    weight instead.  The printed form is applied verbatim and flagged here
    rather than silently corrected.
    """
    from .quadrature import cumulative_integral

    omega = p.omega
    half = 4096  # grid cells per period
    grid = np.linspace(0.0, 2.0 * omega, 2 * half + 1)
    P = cumulative_integral(lambda s: p(s), grid)
    vs_p = np.exp(P)           # varsigma(p)
    vs_mp = np.exp(-P)         # varsigma(-p)
    lv = np.asarray(l(grid), dtype=float)
    dt = grid[1] - grid[0]

    def cumtrapz(vals):
        out = np.empty_like(vals)
        out[0] = 0.0
        np.cumsum(0.5 * dt * (vals[1:] + vals[:-1]), out=out[1:])
        return out

    C_mp = cumtrapz(vs_mp)
    # sigma1(-p) on [0, omega]: vs_mp(omega) * int_0^t(-p) + int_t^omega vs_mp
    sig1_mp = vs_mp[half] * (-P[:half + 1]) + (C_mp[half] - C_mp[:half + 1])
    first = float(np.trapezoid(
        lv[:half + 1] * vs_p[:half + 1] * sig1_mp, dx=dt))

    C_lp = cumtrapz(np.maximum(lv, 0.0) * vs_p)
    idx = np.arange(512) * (half // 512)
    w1 = C_mp[idx + half] - C_mp[idx]
    w2 = C_lp[idx + half] - C_lp[idx]
    window_sup = float(np.max(w1 * w2))

    l_scale = float(np.max(np.abs(lv)))
    nonzero = l_scale > 1e-12
    holds = bool(first >= 0.0 and window_sup <= 4.0 and nonzero)
    return CriterionVerdict(
        criterion="CHU", holds=holds, applicable=True,
        quantities={"first_integral": first, "window_sup": window_sup,
                    "l_max_abs": l_scale},
        notes="sigma1 weight applied as printed: its first term integrates "
              "the coefficient itself, not its exponential weight")
