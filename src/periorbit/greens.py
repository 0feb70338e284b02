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
slope-to-value bound delta = gt_max/g_min.  A GreensFunction holds these
and the rank-2 factors, and no grid: every kernel value, tabulated by
GreensFunction.table for the greens command or anywhere else, is built
from the factors, and a numeric kernel's factors evaluate the dense Phi
once a call, on both abscissa arrays together or on one that is both.
The closed form's g_max, g_min and gt_max are a few float operations: on
each branch the cosine's argument runs exactly over [-xi omega/2,
xi omega/2], inside (-pi/2, pi/2).  A numeric kernel's are estimates,
whatever table is asked of it later: each is the best value a refining
scan finds, seeded at the cell of one fixed seed grid, _SEED_GRID cells
a side, where its surface is extreme (the grid's argmin and argmax of G,
and the argmax of |dG/dt| with both one-sided slopes on the diagonal);
they are not outward-rounded enclosures.  G and dG/dt are omega-periodic
in t and in s, so a scan window that crosses an edge of the square wraps
around to the opposite one.  The scan refines its three windows, one a
surface, in lockstep: each level evaluates all windows' abscissae, every
t against every s, in one call of the grid's own evaluator, _evaluate, and
reads each window off a diagonal block of that grid, so each window finds
the values it would find scanned alone, bit for bit.
_evaluate is the one place where factors become kernel values.

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

_SEED_GRID = 200         # cells a side of a numeric kernel's seed grid
_RESONANCE_TOL = 1e-8
_MONODROMY_RTOL = 1e-12
_MONODROMY_ATOL = 1e-14
_SCAN_POINTS = 17        # per axis of each extremum-scan level
_SCAN_LEVELS = 5         # each level cuts the scan's shortfall ~60-fold
# a scan window's offsets from its centre, in steps of 1/8 its half-width
_RAMP = np.arange(_SCAN_POINTS) - _SCAN_POINTS // 2.0


class ResonanceError(RuntimeError):
    """The homogeneous problem is degenerate; no usable periodic kernel."""


@dataclass(frozen=True)
class GreensFunction:
    """A kernel's constants and its rank-2 factors, and nothing of any grid.

    source is "closed-form" or "numeric".  _factors(t, s) returns the
    rank-2 factors (U(t), U'(t), V_lower(s), V_upper(s)), each of shape
    (len, 2), with G = U.V_branch and dG/dt = U'.V_branch on each branch;
    t and s may be the same array.  table(n) tabulates the kernel on a grid
    of n cells a side, on demand; the constants do not depend on it.
    """

    omega: float
    g_max: float
    g_min: float
    gt_max: float
    positive: bool
    source: str
    _factors: object = field(repr=False)

    @property
    def sigma(self) -> float:
        return self.g_min / (self.g_max + self.gt_max)

    @property
    def delta(self) -> float:
        return self.gt_max / self.g_min

    def table(self, n: int):
        """(t, G, Gt) on the grid t of n + 1 points from 0 to omega: G and
        Gt hold G(t_i, t_j) and dG/dt(t_i, t_j), the diagonal on the s <= t
        branch.  The greens command writes it."""
        t = np.linspace(0.0, self.omega, n + 1)
        return (t, *_evaluate(self._factors, t, t))

    def kernel(self, t, s):
        """(G, Gt) on the outer product of abscissa arrays, each value on
        the branch its t and s select, the diagonal on the lower one.  No
        caller in the package: the tests read kernel values through it.
        The greens command calls table instead, since the benchmark's
        tracer replaces this method with a wrapper of an older
        signature."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return _evaluate(self._factors, t, s)

    def _integrate(self, t, f):
        """(int_0^omega G(t_i, s) f(s) ds, the same with dG/dt) at every
        point t_i of a uniform grid t_0 = 0 < ... < t_n = omega, from the
        samples f = f(t_i) by the trapezoid rule on each cell.  Cells left
        of t_i take the lower branch and cells right of it the upper one,
        so the derivative's diagonal jump never falls inside a cell.  The
        rank-2 factors, evaluated once a sample, turn the sum over cells
        into a prefix sum of the lower-branch cell integrals of V f and a
        suffix sum of the upper-branch ones: O(n) time and memory.
        """
        U, dU, V_lo, V_up = self._factors(t, t)
        wf = (0.5 * (t[1] - t[0]) * f)[:, None]
        lower = V_lo[:-1] * wf[:-1] + V_lo[1:] * wf[1:]
        upper = V_up[:-1] * wf[:-1] + V_up[1:] * wf[1:]
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


def _evaluate(factors, t, s):
    """(G, dG/dt) from the rank-2 factors on the outer product of the 1-D
    abscissa arrays t and s, each value on the branch its t and s select,
    the diagonal on the lower one.  When s is t the factors get one array
    for both, and evaluate it once."""
    U, dU, V_lo, V_up = factors(t, s)
    lower = t[:, None] >= s[None, :]
    # factors that are not finite (see the numeric factors) give inf or
    # nan values, which fail the positivity test, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
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


def _window_abscissae(centres, width, omega):
    """_SCAN_POINTS abscissae a step of width/8 apart around each centre,
    out to width on either side, wrapped into [0, omega]: the kernel is
    omega-periodic in t and in s, and _evaluate picks the branch from the
    wrapped abscissae."""
    return (centres[:, None] + _RAMP * (width / 8.0)) % omega


def _scanned_extremes(factors, tgrid, G, Gt):
    """(g_min, g_max, gt_max) of a numeric kernel, each scanned from its
    surface's grid argmax: estimates, not enclosures.  The three windows
    are refined in lockstep.  Each level scans a _SCAN_POINTS^2 window of
    half-width `width` around every centre, wrapped around the period,
    then recentres each on its argmax at 1/8 the width.  A level evaluates
    its windows' abscissae, all t against all s, as one grid, and reads
    window w off its diagonal block (w, w): each value is a product of
    two 2-vectors, so each window finds what it would find scanned alone.
    """
    omega, n, width = tgrid[-1], len(tgrid) - 1, tgrid[1] - tgrid[0]
    # _slope on the grid: the grid increases strictly, so tau = 0 exactly
    # on its diagonal.  argmin(G) picks argmax(-G)'s cell, ties and NaN
    # included.
    slope = np.abs(Gt)
    diag = np.arange(n + 1)
    slope[diag, diag] = np.maximum(slope[diag, diag],
                                   np.abs(Gt[diag, diag] - 1.0))
    i, j = np.unravel_index([np.argmin(G), np.argmax(G), np.argmax(slope)],
                            G.shape)
    tc, sc = tgrid[i], tgrid[j]
    windows = np.arange(len(_SURFACES))
    blocks = (len(windows), _SCAN_POINTS) * 2
    best = np.full(len(_SURFACES), -np.inf)
    for _ in range(_SCAN_LEVELS):
        ts, ss = (_window_abscissae(c, width, omega) for c in (tc, sc))
        g, gt = (x.reshape(blocks)[windows, :, windows]
                 for x in _evaluate(factors, ts.ravel(), ss.ravel()))
        lag = ts[:, :, None] - ss[:, None, :]
        flat = np.stack([surface(*args).ravel() for surface, *args
                         in zip(_SURFACES, lag, g, gt)])
        peak = np.argmax(flat, axis=1)
        top = flat[windows, peak]
        best = np.where(top > best, top, best)
        i, j = np.divmod(peak, _SCAN_POINTS)
        tc, sc = ts[windows, i], ss[windows, j]
        width /= 8.0
    return (-best[0].item(), *best[1:].tolist())


# ---------------------------------------------------------------------------
# closed form


def closed_form_constant(xi: float, omega: float) -> GreensFunction:
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
    return GreensFunction(omega=omega, g_max=1.0 / den,
                          g_min=math.cos(half_angle) / den, gt_max=0.5,
                          positive=True, source="closed-form",
                          _factors=factors)


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


def numeric_periodic_green(p: PeriodicCoeff, l: PeriodicCoeff,
                           omega: float) -> GreensFunction:
    """Kernel for general continuous periodic p, l via the monodromy matrix.

    Raises ResonanceError when the monodromy matrix M has an eigenvalue
    within 1e-8 of +1 (the homogeneous problem has a periodic solution) or
    of -1 (the antiperiodic boundary case), read off the eigenvalues of
    M - I and M + I formed from M's entries, and when the integration of
    Phi fails (as for p or l near the float range).  B = (I - M)^-1 is
    formed by Cramer's rule on det(M - I).  The constants are scanned from
    a seed grid of _SEED_GRID cells a side, which is not kept; the kernel
    is positive when G is on that grid and the scanned g_min is.
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
        # one dense evaluation for both arrays, or for one that is both; it
        # is elementwise, so each point gets the bits it would get alone
        both = tarr if sarr is tarr else np.concatenate((tarr, sarr))
        P = res.dense(both).reshape(-1, 2, 2)
        Pt, Ps = P[:len(tarr)], P[-len(sarr):]
        # second column of Ps^-1: ( -b, a ) / det.  For a large p,
        # det Phi(s) = exp(-int_0^s p) can cancel to 0, and for a growing
        # Phi its products can overflow; the values then come out inf or
        # nan, without a warning
        col = np.empty((len(sarr), 2))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            det = Ps[:, 0, 0] * Ps[:, 1, 1] - Ps[:, 0, 1] * Ps[:, 1, 0]
            col[:, 0] = -Ps[:, 0, 1] / det
            col[:, 1] = Ps[:, 0, 0] / det
            return Pt[:, 0, :], Pt[:, 1, :], col @ B_low.T, col @ B_up.T

    tgrid = np.linspace(0.0, omega, _SEED_GRID + 1)
    G, Gt = _evaluate(factors, tgrid, tgrid)
    g_min, g_max, gt_max = _scanned_extremes(factors, tgrid, G, Gt)
    return GreensFunction(omega=omega, g_max=g_max, g_min=g_min,
                          gt_max=gt_max,
                          positive=bool(G.min() > 0.0 and g_min > 0.0),
                          source="numeric", _factors=factors)


def kernel_for(p: PeriodicCoeff, l: PeriodicCoeff, omega: float
               ) -> GreensFunction:
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
            return closed_form_constant(xi, omega)
    return numeric_periodic_green(p, l, omega)


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
