"""The shooting right-hand side and positivity guard as Python closures.

periorbit.solver writes the force formula and the guard into the DP5
step loop as source.  These closures are the same formula as functions
of (t, y), in the same association order, on the coefficients' compiled
scalar functions, so an integration run with them (through
callable_field, or through a reference integrator) takes the fused
loop's steps bit for bit.  integrate runs the solver's own shooting field
over any span at any tolerance, where every shot of the solver runs over
one period at the shooting tolerance.
"""

import numpy as np

from periorbit.expressions import compiled
from periorbit.ivp import Field, solve_ivp_dp
from periorbit.solver import PATH_SAMPLES, _Flow
from periorbit.transform import SampledPath


def callable_field(f, guard=None):
    """The Field of a callable f(t, y) and guard(y), both given the state
    as a list of floats; f returns a sequence of the same length, and
    guard(y) is true where the state is inadmissible.  Its loop source
    calls them, so it takes the steps of the same right-hand side written
    as source, bit for bit."""

    def slopes(p, y, when):
        return [f"{', '.join(p)}, = f({when}, [{', '.join(y)}])"]

    veto = None if guard is None else lambda y: f"guard([{', '.join(y)}])"
    return Field("generic", (guard is not None,), slopes, veto,
                 {"f": f, "guard": guard})


def vector_field(spec, variational=False):
    """f(t, (x, v)) -> (x', v') of the first-order system on floats.

    variational=True gives the 6-dimensional field of (x, v) together with
    its fundamental matrix Phi = ((u, w), (u', w')), stored row-major
    after x and v: Phi' = ((0, 1), (f_x, -p)) Phi, where
    f_x = -q + (m1 b x^m1 + m2 c x^m2) / x is the x-derivative of the
    force.  Its (x', v') are the plain field's, operation for operation.
    """
    p, q, b, c, e = (compiled(k.expr) for k in
                     (spec.p, spec.q, spec.b, spec.c, spec.e))
    m1, m2 = -spec.rho1, -spec.rho2

    if not variational:
        def f(t, y):
            x, v = y
            return v, (-p(t) * v - q(t) * x + b(t) * x ** m1
                       + c(t) * x ** m2 + e(t))

        return f

    def f_var(t, y):
        x, v, u, w, du, dw = y
        pt, qt = p(t), q(t)
        bx = b(t) * x ** m1
        cx = c(t) * x ** m2
        fx = (m1 * bx + m2 * cx) / x - qt
        return (v, -pt * v - qt * x + bx + cx + e(t),
                du, dw, fx * u - pt * du, fx * w - pt * dw)

    return f_var


def positivity_guard(eps_min):
    """guard(y): True where the position y[0] is not above eps_min."""

    def guard(y):
        return not (y[0] > eps_min)

    return guard


def integrate(spec, x0, v0, t0=0.0, t1=None, tol=1e-10,
              samples=PATH_SAMPLES):
    """Guarded adaptive integration of the shooting field over [t0, t1]
    (default one period), sampled on a uniform grid via dense output.
    The absolute tolerance is two orders below tol, floored at 1e-14, in
    units of 1 + the amplitude scale: at the shooting rtol it is a
    shot's."""
    if t1 is None:
        t1 = t0 + spec.omega
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    if t1 == t0:
        return SampledPath(np.array([t0]), np.array([x0]), np.array([v0]))
    flow = _Flow(spec)
    atol = max(1e-14, tol * 1e-2) * (1.0 + flow.scale)
    res = solve_ivp_dp(flow.field, t0, (x0, v0), t1, rtol=tol, atol=atol,
                       dense=True)
    tgrid = np.linspace(t0, t1, samples)
    vals = res.dense(tgrid)
    return SampledPath(tgrid, vals[:, 0], vals[:, 1])
