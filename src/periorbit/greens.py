"""Periodic Green's functions for u'' + p(t) u' + l(t) u = h(t).

Two constructions are provided.  When p vanishes and l is a constant
xi^2 with 0 < xi < pi/omega the kernel has the two-branch cosine closed form

    G(t,s) = cos(xi*(t - s - omega/2)) / (2 xi sin(xi omega/2)),  s <= t,
    G(t,s) = cos(xi*(t - s + omega/2)) / (2 xi sin(xi omega/2)),  s >  t,

which is positive exactly there, the only range where it is built.  For
every other p and l, a larger xi included, the kernel is assembled from
the fundamental matrix Phi of the first-order system: with monodromy
M = Phi(omega) and B = (I - M)^-1,

    G(t,s) = [Phi(t) B Phi(s)^-1]_{12},        s <= t,
    G(t,s) = [Phi(t) (B - I) Phi(s)^-1]_{12},  s >  t,

which satisfies the homogeneous equation off the diagonal, is omega-periodic
in t, and has a unit upward jump of dG/dt across the diagonal.  Phi is
integrated by periorbit.ivp with dense output, under the same source
writer as the solver's variational system.  B is formed by Cramer's rule,
and resonance is read off the eigenvalues of M - I and M + I.  kernel_for
picks between the two constructions from the coefficients' trees: the
closed form needs p and l constant, that is, written without t, and xi
below pi/omega.

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
slope-to-value bound delta = gt_max/g_min.  Every kernel value, on the
grid or anywhere else, is built from the rank-2 factors; a numeric
kernel's factors evaluate the dense Phi once a call, on both abscissa
arrays together.  The closed form's g_max, g_min and gt_max are a few
float operations: on each branch the cosine's argument runs exactly over
[-xi omega/2, xi omega/2], inside (-pi/2, pi/2).  They need no grid, and
its kernel grid is evaluated only when read, as the greens command reads
it.  A numeric kernel's are estimates: each is the best value a refining
scan finds, seeded at the grid cell where its surface is extreme (the
grid's argmin and argmax of G, and the argmax of |dG/dt| with both
one-sided slopes on the diagonal) and at that cell's periodic images; they
are not outward-rounded enclosures.  The scan refines all its windows, of
the three surfaces and their images, in lockstep: each level takes one
factors call for every window's abscissae and evaluates the windows by
stacked matrix products, the BLAS products the grid itself is evaluated
with, so each window finds the values it would find scanned alone, bit for
bit.

The CHU criterion samples p, its exponential weights and l over one
period; the window integrals over [t, t + omega] follow from periodicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import PeriodicCoeff
from .ivp import (IntegrationBlowUp, coefficient_field, eigvals_2x2,
                  phi_slopes)
from .quadrature import integrate_adaptive

DEFAULT_GRID = 200
_RESONANCE_TOL = 1e-8
_MONODROMY_RTOL = 1e-12
_MONODROMY_ATOL = 1e-14
_SCAN_POINTS = 17        # per axis of each extremum-scan level
_SCAN_LEVELS = 5         # each level cuts the scan's shortfall ~60-fold
_RAMP = np.arange(float(_SCAN_POINTS))  # a scan window's point indices


class ResonanceError(RuntimeError):
    """The homogeneous problem is degenerate; no usable periodic kernel."""


@dataclass
class GreensFunction:
    """Kernel constants and factors; treat as immutable after construction.

    G and Gt hold G(t_i, s_j) and dG/dt(t_i, s_j) on the (n+1)^2 grid t;
    the diagonal carries the s <= t branch.  The first read of either
    evaluates both from the factors in one call, and they are kept.  A
    numeric kernel's build evaluates that grid anyway, for its positivity
    test and scan seeds, and hands it over; a closed-form kernel evaluates
    it only when read, as the greens command reads it, and certify never
    does.  source is "closed-form" or "numeric".  _factors(t, s) returns
    the rank-2 factors (U(t), U'(t), V_lower(s), V_upper(s)), each of
    shape (len, 2), with G = U.V_branch and dG/dt = U'.V_branch on each
    branch.
    """

    omega: float
    n: int
    t: np.ndarray
    g_max: float
    g_min: float
    gt_max: float
    sigma: float
    delta: float
    positive: bool
    source: str
    _factors: object = field(repr=False)
    _grid: tuple | None = field(default=None, repr=False)

    @property
    def G(self) -> np.ndarray:
        return self._kernel_grid()[0]

    @property
    def Gt(self) -> np.ndarray:
        return self._kernel_grid()[1]

    def _kernel_grid(self):
        if self._grid is None:
            self._grid = _evaluate(self._factors, self.t, self.t)
        return self._grid

    def kernel(self, t, s, branch: str = "auto"):
        """Evaluate (G, Gt) on the outer product of abscissa arrays.

        branch "lower" forces the s <= t formula, "upper" the s > t one;
        "auto" selects by comparison with the diagonal assigned to lower.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return _evaluate(self._factors, t, s, branch)

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
# kernel values and their extremes


def _evaluate(factors, t, s, branch: str = "auto"):
    """(G, dG/dt) on the outer product of the arrays t and s from the rank-2
    factors; branch as in GreensFunction.kernel."""
    U, dU, V_lo, V_up = factors(t, s)
    if branch == "lower":
        return U @ V_lo.T, dU @ V_lo.T
    if branch == "upper":
        return U @ V_up.T, dU @ V_up.T
    lower = t[:, None] >= s[None, :]
    return (np.where(lower, U @ V_lo.T, U @ V_up.T),
            np.where(lower, dU @ V_lo.T, dU @ V_up.T))


def _slope(tau, G, Gt):
    """|dG/dt| with both one-sided slopes competing on the diagonal tau = 0,
    where G and Gt hold the lower branch and the unit jump puts the upper
    branch's slope at Gt - 1."""
    return np.where(tau == 0.0, np.maximum(np.abs(Gt), np.abs(Gt - 1.0)),
                    np.abs(Gt))


# the surfaces whose maxima are -g_min, g_max and gt_max
_SURFACES = (lambda tau, G, Gt: -G, lambda tau, G, Gt: G, _slope)


def _periodic_images(i, j, n):
    """Grid cell (i, j) and, since the kernel is omega-periodic in t and in
    s, its images on the opposite edges when it lies on an edge."""
    alt = lambda k: (k, n - k) if k in (0, n) else (k,)
    return [(a, b) for a in alt(i) for b in alt(j)]


def _window_abscissae(centres, width, omega):
    """np.linspace(max(0, c - width), min(omega, c + width), _SCAN_POINTS,
    axis=-1) for every centre c, bit for bit: numpy's own formula, lo plus
    _RAMP times (hi - lo)/(_SCAN_POINTS - 1), with the last point set to
    hi.  The centres lie in [0, omega] and width <= omega, so every window
    has hi - lo >= width > 0 and numpy's branch for a zero step never
    applies."""
    lo = np.maximum(0.0, centres - width)
    hi = np.minimum(omega, centres + width)
    x = lo[:, None] + _RAMP * ((hi - lo) / (_SCAN_POINTS - 1))[:, None]
    x[:, -1] = hi
    return x


def _scanned_extremes(factors, tgrid, G, Gt):
    """(g_min, g_max, gt_max) of a numeric kernel.  Each surface is scanned
    from its grid argmax and that cell's periodic images, so the constants
    are estimates, not enclosures.

    All windows are refined in lockstep.  Each level scans a
    _SCAN_POINTS^2 window of half-width `width` around every centre,
    clipped to the square, then recentres each on its argmax at 1/8 the
    width.  The windows' products stay np.matmul, as the grid's are:
    written out by hand they round differently where BLAS fuses.
    """
    omega, n, width = tgrid[-1], len(tgrid) - 1, tgrid[1] - tgrid[0]
    # _slope on the grid: the grid increases strictly, so tau = 0 exactly
    # on its diagonal.  argmin(G) picks argmax(-G)'s cell, ties and NaN
    # included.
    slope = np.abs(Gt)
    diag = np.arange(n + 1)
    slope[diag, diag] = np.maximum(slope[diag, diag],
                                   np.abs(Gt[diag, diag] - 1.0))
    centres, spans = [], []
    for flat in (np.argmin(G), np.argmax(G), np.argmax(slope)):
        i, j = np.unravel_index(flat, G.shape)
        images = _periodic_images(i, j, n)
        spans.append(slice(len(centres), len(centres) + len(images)))
        centres += [(tgrid[a], tgrid[b]) for a, b in images]
    tc, sc = np.array(centres).T
    windows = np.arange(len(centres))
    best = np.full(len(centres), -np.inf)
    for _ in range(_SCAN_LEVELS):
        ts, ss = (_window_abscissae(c, width, omega) for c in (tc, sc))
        U, dU, V_lo, V_up = (f.reshape(len(centres), _SCAN_POINTS, 2)
                             for f in factors(ts.ravel(), ss.ravel()))
        V_lo, V_up = V_lo.transpose(0, 2, 1), V_up.transpose(0, 2, 1)
        lower = ts[:, :, None] >= ss[:, None, :]
        g = np.where(lower, U @ V_lo, U @ V_up)
        gt = np.where(lower, dU @ V_lo, dU @ V_up)
        lag = ts[:, :, None] - ss[:, None, :]
        vals = np.concatenate([surface(lag[k], g[k], gt[k])
                               for surface, k in zip(_SURFACES, spans)])
        flat = vals.reshape(len(centres), -1)
        peak = np.argmax(flat, axis=1)
        top = flat[windows, peak]
        best = np.where(top > best, top, best)
        i, j = np.divmod(peak, _SCAN_POINTS)
        tc, sc = ts[windows, i], ss[windows, j]
        width /= 8.0
    found = [max(best[k].tolist()) for k in spans]
    return -found[0], found[1], found[2]


def _assemble(omega, n, factors, source, extremes=None) -> GreensFunction:
    """The kernel from its factors.  A closed-form kernel passes its
    extremes and is positive where it is built; a numeric one evaluates
    the grid here, for its positivity test and the scan's seeds, and
    hands it to the GreensFunction."""
    tgrid = np.linspace(0.0, omega, n + 1)
    grid, positive = None, True
    if extremes is None:
        grid = _evaluate(factors, tgrid, tgrid)
        extremes = _scanned_extremes(factors, tgrid, *grid)
        positive = bool(grid[0].min() > 0.0 and extremes[0] > 0.0)
    g_min, g_max, gt_max = extremes
    sigma = g_min / (g_max + gt_max)
    delta = gt_max / g_min
    return GreensFunction(omega=omega, n=n, t=tgrid, g_max=g_max,
                          g_min=g_min, gt_max=gt_max, sigma=sigma,
                          delta=delta, positive=positive, source=source,
                          _factors=factors, _grid=grid)


# ---------------------------------------------------------------------------
# closed form


def closed_form_constant(xi: float, omega: float, n: int = DEFAULT_GRID
                         ) -> GreensFunction:
    """Kernel for p = 0, l = xi^2 from the two-branch cosine formula, built
    where it is positive: 0 < xi < pi/omega, else ValueError."""
    if not (omega > 0.0 and 0.0 < xi < math.pi / omega):
        raise ValueError("the closed form needs omega > 0 and "
                         "0 < xi < pi/omega")
    half_angle = 0.5 * xi * omega
    den = 2.0 * xi * math.sin(half_angle)

    # cos(xi (t - s -+ omega/2)) expanded by the addition theorem
    def factors(tarr, sarr):
        ct, st = np.cos(xi * tarr), np.sin(xi * tarr)
        lo = xi * (sarr + 0.5 * omega)
        up = xi * (sarr - 0.5 * omega)
        return (np.column_stack((ct, st)) / den,
                xi * np.column_stack((-st, ct)) / den,
                np.column_stack((np.cos(lo), np.sin(lo))),
                np.column_stack((np.cos(up), np.sin(up))))

    # On each closed branch the cosine's argument u runs exactly over
    # [-xi omega/2, xi omega/2], inside (-pi/2, pi/2): G = cos(u)/den
    # ranges over [cos(xi omega/2)/den, 1/den], and |dG/dt| =
    # |sin(u)|/(2 sin(xi omega/2)) peaks at 1/2
    return _assemble(omega, n, factors, "closed-form",
                     extremes=(math.cos(half_angle) / den, 1.0 / den, 0.5))


# ---------------------------------------------------------------------------
# numeric construction via the fundamental matrix


def _periodic_resolvent(m0, m1, m2, m3) -> np.ndarray:
    """(I - M)^-1 of the monodromy matrix M = ((m0, m1), (m2, m3)), or
    ResonanceError, as numeric_periodic_green describes."""
    near = lambda shift: min(map(abs, eigvals_2x2(
        (m0 - shift, m1, m2, m3 - shift)))) < _RESONANCE_TOL
    if near(1.0):
        raise ResonanceError(
            "monodromy matrix has eigenvalue 1: the homogeneous problem "
            "admits a periodic solution, no unique periodic response")
    if near(-1.0):
        raise ResonanceError(
            "monodromy matrix has eigenvalue -1: antiperiodic boundary "
            "case, the periodic kernel construction degenerates")
    return (np.array([[1.0 - m3, m1], [m2, 1.0 - m0]])
            / ((m0 - 1.0) * (m3 - 1.0) - m1 * m2))


def numeric_periodic_green(p, l, omega: float, n: int = DEFAULT_GRID
                           ) -> GreensFunction:
    """Kernel for general continuous periodic p, l via the monodromy matrix.

    p and l are PeriodicCoeff or numbers, taken as constants.  Raises
    ResonanceError when the monodromy matrix M has an eigenvalue within
    1e-8 of +1 (the homogeneous problem has a periodic solution) or of -1
    (the antiperiodic boundary case), read off the eigenvalues of M - I
    and M + I formed from M's entries, and when the integration of Phi
    fails (as for p or l near the float range).  B = (I - M)^-1 is formed
    by Cramer's rule on det(M - I).
    """
    # looked up at call time, where bench/spans.py rebinds it
    from .ivp import solve_ivp_dp

    field = coefficient_field(
        "monodromy", {"p": p, "l": l},
        lambda k, y, pt, lt: phi_slopes(k, y, ("-", lt), pt))
    try:
        res = solve_ivp_dp(field, 0.0, np.eye(2).ravel(), omega,
                           rtol=_MONODROMY_RTOL, atol=_MONODROMY_ATOL,
                           dense=True, max_step=omega / 16.0)
    except IntegrationBlowUp as err:
        raise ResonanceError(
            f"the fundamental-matrix integration failed: {err}") from err
    B_low = _periodic_resolvent(*res.y.tolist())
    B_up = B_low - np.eye(2)

    def factors(tarr, sarr):
        # one dense evaluation for both arrays; it is elementwise, so each
        # point gets the bits it would get alone
        P = res.dense(np.concatenate((tarr, sarr))).reshape(-1, 2, 2)
        Pt, Ps = P[:len(tarr)], P[len(tarr):]
        det = Ps[:, 0, 0] * Ps[:, 1, 1] - Ps[:, 0, 1] * Ps[:, 1, 0]
        # second column of Ps^-1: ( -b, a ) / det
        col = np.empty((len(sarr), 2))
        col[:, 0] = -Ps[:, 0, 1] / det
        col[:, 1] = Ps[:, 0, 0] / det
        return Pt[:, 0, :], Pt[:, 1, :], col @ B_low.T, col @ B_up.T

    return _assemble(omega, n, factors, "numeric")


def kernel_for(p: PeriodicCoeff, l: PeriodicCoeff, omega: float,
               n: int = DEFAULT_GRID) -> GreensFunction:
    """The kernel of u'' + p u' + l u: the closed form when the trees of p
    and l are the constants 0 and xi^2 with xi < pi/omega, where it is
    positive, and the numeric construction otherwise, for any p or l in t
    (PeriodicCoeff.constant), however small its variation.  p and l are
    taken to be finite over the period, as ProblemSpec.check_ranges
    checks them."""
    l_const = l.constant
    if p.constant == 0.0 and l_const is not None and l_const > 0.0:
        xi = math.sqrt(l_const)
        if xi < math.pi / omega:
            return closed_form_constant(xi, omega, n=n)
    return numeric_periodic_green(p, l, omega, n=n)


# ---------------------------------------------------------------------------
# positivity criteria


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str  # A1 | A2 | CHU | CLOSED_FORM
    holds: bool
    applicable: bool
    quantities: dict
    notes: str = ""


def check_A1(p: PeriodicCoeff, l: PeriodicCoeff, a1: PeriodicCoeff
             ) -> CriterionVerdict:
    """Factorisation criterion: with a2 = p - a1, positivity follows when
    a1' + a1 a2 = l and both mean values int a1, int a2 are positive.

    The caller supplies the factor a1; this routine only verifies it.
    """
    omega = p.omega
    a2 = p._derived(p.expr + (-a1.expr))
    a1p = a1.derivative()
    ts = np.linspace(0.0, omega, 1025)
    # an a1 a2 that overflows gives an inf or nan residual: A1 fails
    with np.errstate(over="ignore", invalid="ignore"):
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
    sigma1(p)(t) = varsigma(p)(omega) * int_0^t varsigma(p)(s) ds
                   + int_t^omega varsigma(p)(s) ds,
    it requires int_0^omega l varsigma(p) sigma1(-p) >= 0, the windowed
    product sup_t int_t^{t+omega} varsigma(-p) * int_t^{t+omega}
    max(l, 0) varsigma(p) <= 4 (sup over a 512-point t-grid), and l not
    identically zero.

    p, the weights and l are sampled on [0, omega] only.  Since p is
    omega-periodic, int_0^{omega+t} p = int_0^omega p + int_0^t p, so each
    running integral C of a weight times a periodic factor continues past
    the period as C(omega + t) = C(omega) + varsigma(+-p)(omega) C(t),
    which gives the window integrals C(omega + t) - C(t).

    A weight or a product of them past the float range makes the
    criterion fail: no warning is raised, a quantity that is not finite
    reads on its failing side (first_integral -inf, window_sup +inf), and
    the notes say so.

    Both terms of sigma1 integrate the exponential weight.  The form in
    which the first term integrates the coefficient itself is unsound: it
    holds for omega = 3, p = 1.268 + 0.031 cos(2 pi t/3),
    l = -0.420 + 0.293 sin(2 pi t/3), whose kernel is negative throughout.
    """
    from .quadrature import cumulative_integral

    omega = p.omega
    cells = 4096  # grid cells over the period
    grid = np.linspace(0.0, omega, cells + 1)
    P = cumulative_integral(lambda s: p(s), grid)
    lv = np.asarray(l(grid), dtype=float)
    dt = grid[1] - grid[0]

    def cumtrapz(vals):
        out = np.empty_like(vals)
        out[0] = 0.0
        np.cumsum(0.5 * dt * (vals[1:] + vals[:-1]), out=out[1:])
        return out

    idx = np.arange(512) * (cells // 512)
    with np.errstate(over="ignore", invalid="ignore"):
        vs_p = np.exp(P)           # varsigma(p)
        vs_mp = np.exp(-P)         # varsigma(-p)
        C_mp = cumtrapz(vs_mp)
        # sigma1(-p): vs_mp(omega) int_0^t vs_mp + int_t^omega vs_mp
        sig1_mp = vs_mp[-1] * C_mp + (C_mp[-1] - C_mp)
        first = float(np.trapezoid(lv * vs_p * sig1_mp, dx=dt))
        C_lp = cumtrapz(np.maximum(lv, 0.0) * vs_p)
        w1 = (C_mp[-1] + vs_mp[-1] * C_mp[idx]) - C_mp[idx]
        w2 = (C_lp[-1] + vs_p[-1] * C_lp[idx]) - C_lp[idx]
        window_sup = float(np.max(w1 * w2))

    notes = ("sigma1 weight: both terms integrate the exponential "
             "weight varsigma(-p)")
    if not (math.isfinite(first) and math.isfinite(window_sup)):
        first = first if math.isfinite(first) else -math.inf
        window_sup = window_sup if math.isfinite(window_sup) else math.inf
        notes += ("; the weights exp(+-int_0^t p) or their products leave "
                  "the float range: CHU fails")
    l_scale = float(np.max(np.abs(lv)))
    nonzero = l_scale > 1e-12
    holds = bool(first >= 0.0 and window_sup <= 4.0 and nonzero)
    return CriterionVerdict(
        criterion="CHU", holds=holds, applicable=True,
        quantities={"first_integral": first, "window_sup": window_sup,
                    "l_max_abs": l_scale},
        notes=notes)
