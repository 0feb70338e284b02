"""Power-map change of variables x = y^alpha and residual cross-checks.

With alpha = 1/(1 + rho1) the substitution removes the sign-changing
inverse power: dividing the x-equation by alpha y^(alpha-1) yields

    y'' + p y' + (q/alpha) y = (c/alpha) y^(1-alpha-alpha rho2)
                             + (e/alpha) y^(1-alpha)
                             + (1-alpha) |y'|^2 / y + b/alpha

so the formerly singular sign-changing weight b enters only as the bounded
inhomogeneity b/alpha.  What remains of the repulsive term depends on the
exponent ordering: its new exponent 1-alpha-alpha*rho2 is positive when
rho1 > rho2 (no extra singularity), negative when rho1 < rho2 (a repulsive
inverse power survives), and exactly zero when rho1 = rho2 (the two weights
merge into (b+c)/alpha).

Positive periodic solutions of either form map bijectively onto those of
the other via y = x^(1/alpha).

ProblemSpec derives alpha and the coefficient l = q/alpha once, when it is
validated.  to_y_equation adds only floats: the factor k = 1/alpha that
the right-hand side applies to c, e and b as it evaluates them, the two
exponents and the gradient weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypotheses import ProblemSpec

ORIGINAL = "ORIGINAL"            # residual against the x-equation
TRANSFORMED = "TRANSFORMED"      # residual against the y-equation


@dataclass(frozen=True)
class TransformedSpec:
    """The constants of the y-equation: its coefficients are those of spec
    times k, with spec.l = k q."""

    spec: ProblemSpec
    k: float                # 1/alpha
    exponent_c: float       # 1 - alpha - alpha*rho2
    exponent_e: float       # 1 - alpha
    gradient_factor: float  # 1 - alpha, the weight of |y'|^2 / y


def to_y_equation(spec: ProblemSpec) -> TransformedSpec:
    alpha = spec.alpha
    return TransformedSpec(spec=spec, k=1.0 / alpha,
                           exponent_c=1.0 - alpha - alpha * spec.rho2,
                           exponent_e=1.0 - alpha,
                           gradient_factor=1.0 - alpha)


class PositivityError(ValueError):
    pass


@dataclass(frozen=True)
class SampledPath:
    """Uniformly sampled trajectory with stored first derivatives."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        if not (t.ndim == 1 and t.shape == x.shape == v.shape
                and t.size >= 1):
            raise ValueError("path needs matching 1-d t, x, v arrays")
        if t.size >= 2:
            dt = np.diff(t)
            if not (np.all(dt > 0.0)
                    and np.max(np.abs(dt - dt[0])) <= 1e-9 * abs(dt[0])):
                raise ValueError("path samples must be uniformly spaced")

    @property
    def step(self) -> float:
        return float(self.t[1] - self.t[0]) if self.t.size >= 2 else 0.0

    def sup_norm(self) -> float:
        """max|x| + max|v|, the C^1 norm used by the cone estimates."""
        return float(np.max(np.abs(self.x)) + np.max(np.abs(self.v)))


def x_from_y(path: SampledPath, alpha: float) -> SampledPath:
    """Map a y-trajectory to the x-trajectory (x = y^alpha,
    x' = alpha y^(alpha-1) y').  Pass 1/alpha to invert."""
    y = path.x
    if not np.all(y > 0.0):
        raise PositivityError(
            f"trajectory must stay positive (min {np.min(y):.6g})")
    x = y ** alpha
    v = alpha * y ** (alpha - 1.0) * path.v
    return SampledPath(t=path.t, x=x, v=v)


def _central_accel(path: SampledPath) -> np.ndarray:
    """Second derivative at interior samples from central differences of
    the stored first derivative."""
    return (path.v[2:] - path.v[:-2]) / (2.0 * path.step)


def residual(spec: ProblemSpec, path: SampledPath, which: str) -> float:
    """Max-norm defect of the trajectory in the chosen equation, evaluated
    at interior samples only (one-sided endpoint stencils excluded)."""
    if path.t.size < 3:
        raise ValueError("residual needs at least 3 samples")
    a = _central_accel(path)
    t = path.t[1:-1]
    x = path.x[1:-1]
    v = path.v[1:-1]
    if np.any(x <= 0.0):
        raise PositivityError("residual defined only for positive trajectories")
    if which == ORIGINAL:
        defect = (a + spec.p(t) * v + spec.q(t) * x
                  - spec.b(t) * x ** (-spec.rho1)
                  - spec.c(t) * x ** (-spec.rho2)
                  - spec.e(t))
    elif which == TRANSFORMED:
        ts = to_y_equation(spec)
        k = ts.k
        defect = (a + spec.p(t) * v + spec.l(t) * x
                  - k * spec.c(t) * x ** ts.exponent_c
                  - k * spec.e(t) * x ** ts.exponent_e
                  - ts.gradient_factor * v * v / x
                  - k * spec.b(t))
    else:
        raise ValueError(f"unknown equation selector {which!r}")
    return float(np.max(np.abs(defect)))
