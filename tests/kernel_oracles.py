"""Defining-property checks and a quadrature solve for periodic kernels.

Only the tests use these: each checks a kernel built by periorbit.greens
against a property of the periodic Green's function (the homogeneous
equation off the diagonal, periodicity in t, the unit jump of dG/dt across
the diagonal), applies it as an integral operator with a Gauss rule on
every grid cell (solve_linear; the package's operator takes samples and
the trapezoid rule), evaluates one branch's formula wherever t and s lie,
or scans its extremes one window at a time, each window wrapped around
the period, as the batched scan of periorbit.greens must.
chu_two_periods evaluates the CHU criterion as it was first written, with
its window integrals sampled over two periods.
"""

import numpy as np

from periorbit.greens import (_SCAN_LEVELS, _SCAN_POINTS, _SURFACES,
                             CriterionVerdict, _evaluate)
from periorbit.quadrature import cumulative_integral

_JUMP_STEP = 1e-4        # diagonal_jump_error's difference step, in omega units


def branch_kernel(gf, t, s, branch):
    """(G, dG/dt) on the outer product of the arrays t and s, all on one
    branch whatever the order of t and s: the s <= t formula U.V_lower for
    branch "lower", the s > t one U.V_upper for "upper"."""
    U, dU, V_lo, V_up = gf._factors(t, s)
    V = V_lo if branch == "lower" else V_up
    return U @ V.T, dU @ V.T


def solve_linear(gf, t, h, return_derivative: bool = False):
    """Periodic response u(t_i) = int_0^omega G(t_i, s) h(s) ds on the grid
    t, from 0 to omega.

    Every grid cell carries a 10-point Gauss rule, so no cell straddles
    the diagonal; node placement depends only on the grid, making the
    map exactly linear in h.  The cells left of t_i take the lower branch
    and those right of it the upper one, summed through the rank-2
    factors as a prefix and a suffix sum, as GreensFunction._integrate
    sums its trapezoid cells.
    """
    x10, w10 = np.polynomial.legendre.leggauss(10)
    half = 0.5 * np.diff(t)[:, None]
    nodes = 0.5 * (t[:-1] + t[1:])[:, None] + half * x10
    hv = np.asarray(h(nodes.ravel()), dtype=float).reshape(nodes.shape)
    U, dU, V_lo, V_up = gf._factors(t, nodes.ravel())
    wf = (half * w10 * hv).reshape(-1, 1)
    shape = nodes.shape + (2,)
    lower = (V_lo * wf).reshape(shape).sum(axis=1)
    upper = (V_up * wf).reshape(shape).sum(axis=1)
    acc = np.zeros((len(t), 2))
    np.cumsum(lower, axis=0, out=acc[1:])
    acc[:-1] += np.cumsum(upper[::-1], axis=0)[::-1]
    u, up = (U * acc).sum(axis=1), (dU * acc).sum(axis=1)
    return (u, up) if return_derivative else u


def homogeneous_residual(table, p, l) -> float:
    """Max |G_tt + p G_t + l G| over the rows of a kernel table (t, G, Gt),
    as GreensFunction.table returns it, at least two cells off the
    diagonal, with G_tt and G_t from central differences down the columns.
    p and l are the kernel's coefficients: numbers, or functions of an
    array of times."""
    t, G, _ = table
    dt = t[1] - t[0]
    pv, lv = (np.broadcast_to(k(t) if callable(k) else k, t.shape)
              for k in (p, l))
    worst = 0.0
    nn = len(t) - 1
    for i in range(1, nn):
        js = np.nonzero(np.abs(np.arange(nn + 1) - i) >= 2)[0]
        if len(js) == 0:
            continue
        d2 = (G[i + 1, js] - 2.0 * G[i, js] + G[i - 1, js]) / dt ** 2
        d1 = (G[i + 1, js] - G[i - 1, js]) / (2.0 * dt)
        r = np.abs(d2 + pv[i] * d1 + lv[i] * G[i, js])
        worst = max(worst, float(r.max()))
    return worst


def periodicity_mismatch(table) -> float:
    """Max of |G(0,s) - G(omega,s)| and |Gt(0,s) - Gt(omega,s)| over the
    interior s of a kernel table (t, G, Gt).  The corner columns s = 0 and
    s = omega are excluded: there the two rows sit on opposite sides of the
    diagonal jump of Gt."""
    _, G, Gt = table
    dG = np.abs(G[0, 1:-1] - G[-1, 1:-1])
    dGt = np.abs(Gt[0, 1:-1] - Gt[-1, 1:-1])
    return float(max(dG.max(), dGt.max()))


def diagonal_jump_error(gf, s_values) -> np.ndarray:
    """|(dG/dt(s+,s) - dG/dt(s-,s)) - 1| with one-sided second-order finite
    differences of G itself, independent of any tabulated Gt."""
    h = _JUMP_STEP * gf.omega
    s_values = np.asarray(s_values, dtype=float)
    out = np.empty(len(s_values))
    for idx, s in enumerate(s_values):
        sa = np.array([s])
        up_nodes = np.array([s - 2 * h, s - h, s])
        lo_nodes = np.array([s, s + h, s + 2 * h])
        Gu, _ = branch_kernel(gf, up_nodes, sa, "upper")
        Gl, _ = branch_kernel(gf, lo_nodes, sa, "lower")
        slope_minus = (3 * Gu[2, 0] - 4 * Gu[1, 0] + Gu[0, 0]) / (2 * h)
        slope_plus = (-3 * Gl[0, 0] + 4 * Gl[1, 0] - Gl[2, 0]) / (2 * h)
        out[idx] = abs((slope_plus - slope_minus) - 1.0)
    return out


def scanned_extremes(factors, tgrid, G, Gt):
    """(g_min, g_max, gt_max) of a numeric kernel scanned one window at a
    time, each seeded at a surface's argmax on the table (tgrid, G, Gt)
    and refined level by level on its own (_scan_max)."""
    omega, step = tgrid[-1], tgrid[1] - tgrid[0]
    tau = tgrid[:, None] - tgrid[None, :]
    found = []
    for surface in _SURFACES:
        vals = surface(tau, G, Gt)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        found.append(_scan_max(factors, surface, omega, tgrid[i], tgrid[j],
                               step))
    return -found[0], found[1], found[2]


def _scan_max(factors, surface, omega, tc, sc, width):
    """Largest value of the surface near (tc, sc).

    Each level scans a _SCAN_POINTS^2 window of half-width `width`, its
    abscissae a step of width/8 apart and wrapped into [0, omega], then
    recentres on its argmax at 1/8 the width.
    """
    offsets = np.arange(-(_SCAN_POINTS // 2), _SCAN_POINTS // 2 + 1.0)
    best = -np.inf
    for _ in range(_SCAN_LEVELS):
        ts = (tc + offsets * (width / 8.0)) % omega
        ss = (sc + offsets * (width / 8.0)) % omega
        vals = surface(ts[:, None] - ss[None, :], *_evaluate(factors, ts, ss))
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = max(best, float(vals[i, j]))
        tc, sc = ts[i], ss[j]
        width /= 8.0
    return best


def chu_two_periods(p, l) -> CriterionVerdict:
    """periorbit.greens.check_chu with p, the weights and l sampled on
    [0, 2 omega], so that each window integral over [t, t + omega] is a
    difference of running integrals along the grid itself."""
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
    # sigma1(-p) on [0, omega]: vs_mp(omega) int_0^t vs_mp + int_t^omega vs_mp
    sig1_mp = vs_mp[half] * C_mp[:half + 1] + (C_mp[half] - C_mp[:half + 1])
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
                    "l_max_abs": l_scale})
