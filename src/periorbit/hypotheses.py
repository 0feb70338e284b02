"""Existence certificates for positive periodic orbits.

The equation under study is

    x'' + p(t) x' + q(t) x = b(t) x^-rho1 + c(t) x^-rho2 + e(t)

with omega-periodic continuous coefficients, c and e strictly positive, b
allowed to change sign, rho1, rho2 > 0.  The substitution x = y^alpha with
alpha = 1/(1 + rho1) turns it into an equation whose periodic solutions are
fixed points of a compact kernel operator; positivity of the kernel plus a
pair of scalar inequalities then certifies a fixed point in the cone

    { y : min y >= sigma ||y||,  |y'| <= delta y },   ||y|| = max|y| + max|y'|.

Three cases are dispatched on the exponent ordering; the labels follow the
certificate wire format:

    T3.1    rho1 > rho2
    T3.2    rho1 < rho2
    T3.3-I  rho1 = rho2 and min b + min c >= 0
    T3.3-II rho1 = rho2 and min b + min c < 0

Each case needs a small radius r (H1/H3/H4, or any small r in case I) and a
large radius R produced by find_R; H2 is shared by all cases.  T3.3 merges
the two inverse powers, so the sum b + c plays the role of b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import PeriodicCoeff
# closed_form_constant and numeric_periodic_green are not called here;
# bench/spans.py rebinds them under these names
from .greens import (CriterionVerdict, GreensFunction, ResonanceError,
                     check_A1, check_A2, check_chu, closed_form_constant,
                     kernel_for, numeric_periodic_green)

__all__ = [
    "ValidationError",
    "ProblemSpec",
    "alpha_exponent",
    "HypothesisConstants",
    "constants_from",
    "IntervalCheck",
    "ValueCheck",
    "check_H1",
    "check_H2",
    "check_H3",
    "check_H4",
    "case_one_interval",
    "RSearch",
    "find_R",
    "theorem_for",
    "CertEvaluation",
    "Certificate",
    "certify",
]

R_SEARCH_CAP = 1e12


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemSpec:
    """A validated instance of the singular periodic equation."""

    p: PeriodicCoeff
    q: PeriodicCoeff
    b: PeriodicCoeff
    c: PeriodicCoeff
    e: PeriodicCoeff
    rho1: float
    rho2: float
    omega: float

    def __post_init__(self):
        if not (self.rho1 > 0.0 and self.rho2 > 0.0):
            raise ValidationError("rho1 and rho2 must be positive")
        if not (self.omega > 0.0):
            raise ValidationError("omega must be positive")
        for name in ("p", "q", "b", "c", "e"):
            coeff = getattr(self, name)
            if abs(coeff.omega - self.omega) > 1e-12 * self.omega:
                raise ValidationError(
                    f"coefficient {name} carries period {coeff.omega}, "
                    f"expected {self.omega}")
        for name in ("c", "e"):
            ext = getattr(self, name).extrema()
            if not (ext.min_value > 0.0):
                raise ValidationError(
                    f"{name} must be positive over a full period "
                    f"(min {ext.min_value:.6g} at t = {ext.t_min:.6g})")


def alpha_exponent(rho1: float) -> float:
    """Exponent of the positivity-preserving substitution x = y^alpha."""
    if not (rho1 > 0.0):
        raise ValidationError("rho1 must be positive")
    return 1.0 / (1.0 + rho1)


# ---------------------------------------------------------------------------
# constants record


@dataclass(frozen=True)
class HypothesisConstants:
    """Everything the scalar hypothesis checks consume.

    g_max, g_min are the kernel extremes, gt_max the slope maximum used for
    this evaluation (the computed scan value, or the reported alternative
    sin(xi*omega/2) when comparing against previously published numbers);
    sigma and delta are recomputed from the gt_max actually stored here.
    """

    label: str
    alpha: float
    omega: float
    rho1: float
    rho2: float
    g_max: float
    g_min: float
    gt_max: float
    sigma: float
    delta: float
    b_min: float
    b_max: float
    c_min: float
    c_max: float
    e_min: float
    e_max: float
    b_plus_mean: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "label", "alpha", "omega", "rho1", "rho2", "g_max", "g_min",
            "gt_max", "sigma", "delta", "b_min", "b_max", "c_min", "c_max",
            "e_min", "e_max", "b_plus_mean")}


def constants_from(spec: ProblemSpec, gf: GreensFunction,
                   gt_max_override: float | None = None,
                   label: str = "computed") -> HypothesisConstants:
    alpha = alpha_exponent(spec.rho1)
    gt_max = gf.gt_max if gt_max_override is None else gt_max_override
    sigma = gf.g_min / (gf.g_max + gt_max)
    delta = gt_max / gf.g_min
    bx = spec.b.extrema()
    cx = spec.c.extrema()
    ex = spec.e.extrema()
    return HypothesisConstants(
        label=label, alpha=alpha, omega=spec.omega,
        rho1=spec.rho1, rho2=spec.rho2,
        g_max=gf.g_max, g_min=gf.g_min, gt_max=gt_max,
        sigma=sigma, delta=delta,
        b_min=bx.min_value, b_max=bx.max_value,
        c_min=cx.min_value, c_max=cx.max_value,
        e_min=ex.min_value, e_max=ex.max_value,
        b_plus_mean=spec.b.mean_positive_part())


# ---------------------------------------------------------------------------
# scalar hypothesis checks


@dataclass(frozen=True)
class IntervalCheck:
    name: str
    lower: float
    upper: float
    ok: bool
    strict_lower: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "lower": self.lower, "upper": self.upper,
                "ok": self.ok, "strict_lower": self.strict_lower,
                "note": self.note}


@dataclass(frozen=True)
class ValueCheck:
    name: str
    value: float
    bound: float
    ok: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "ok": self.ok}


def _small_radius_floor(numerator: float, e_min: float, sigma: float,
                        alpha: float) -> float:
    """(1/sigma) * (numerator/e_min)^(1/(1-alpha)), or 0 when the forcing
    minimum already makes the lower bound vacuous (numerator <= 0)."""
    if numerator <= 0.0:
        return 0.0
    return (numerator / e_min) ** (1.0 / (1.0 - alpha)) / sigma


def check_H1(k: HypothesisConstants) -> IntervalCheck:
    """Small-radius window when the sign-changing power dominates
    (rho1 > rho2); the repulsive term supplies the upper bound."""
    a = k.alpha
    ec = 1.0 - a - a * k.rho2
    r_lo = _small_radius_floor(-k.b_min, k.e_min, k.sigma, a)
    r_hi = (k.g_min * k.c_min * k.omega * k.sigma ** ec / a) ** (
        1.0 / (a + a * k.rho2))
    return IntervalCheck("H1", r_lo, r_hi,
                         ok=bool(r_lo <= r_hi and r_hi > 0.0))


def check_H2(k: HypothesisConstants) -> ValueCheck:
    """Contraction margin of the gradient term:
    (1 - alpha)(g_max + delta g_min) delta^2 omega / sigma < 1."""
    value = ((1.0 - k.alpha) * (k.g_max + k.delta * k.g_min)
             * k.delta ** 2 * k.omega / k.sigma)
    return ValueCheck("H2", value, 1.0, ok=bool(value < 1.0))


def check_H3(k: HypothesisConstants) -> IntervalCheck:
    """Small-radius window when the repulsive power dominates (rho1 < rho2);
    same floor as H1 but the sharper upper bound needs no sigma weight."""
    a = k.alpha
    r_lo = _small_radius_floor(-k.b_min, k.e_min, k.sigma, a)
    r_hi = (k.g_min * k.c_min * k.omega / a) ** (1.0 / (a + a * k.rho2))
    return IntervalCheck("H3", r_lo, r_hi, ok=bool(r_lo <= r_hi))


def check_H4(k: HypothesisConstants) -> IntervalCheck:
    """Small-radius window for merged equal powers with min b + min c < 0;
    the lower bound is strict, the upper uses the positive-part mean of b."""
    a = k.alpha
    r_lo = _small_radius_floor(-(k.b_min + k.c_min), k.e_min, k.sigma, a)
    r_hi = k.g_min * k.b_plus_mean * k.omega / a
    return IntervalCheck("H4", r_lo, r_hi, ok=bool(r_lo < r_hi),
                         strict_lower=True)


def case_one_interval(k: HypothesisConstants) -> IntervalCheck:
    """Admissible small radii for merged equal powers with
    min b + min c >= 0: any r in (0, (g_min e_min sigma^(1-alpha)
    omega/alpha)^(1/alpha)] works, the forcing floor alone carries the
    lower fixed-point estimate."""
    a = k.alpha
    r_hi = (k.g_min * k.e_min * k.sigma ** (1.0 - a) * k.omega / a) ** (1.0 / a)
    return IntervalCheck("CASE_I", 0.0, r_hi, ok=bool(r_hi > 0.0),
                         strict_lower=True,
                         note="no extra condition: lower bound vacuous")


# ---------------------------------------------------------------------------
# large-radius search


@dataclass(frozen=True)
class RSearch:
    R: float | None
    found: bool
    boundary_bracketed: bool
    lhs_at_R: float | None
    evaluations: int

    def to_dict(self) -> dict:
        return {"R": self.R, "found": self.found,
                "boundary_bracketed": self.boundary_bracketed,
                "lhs_at_R": self.lhs_at_R, "evaluations": self.evaluations}


def step3_lhs(k: HypothesisConstants, case: str, R: float) -> float:
    """Upper estimate of ||T y|| over the cone slice ||y|| = R.

    The operator norm bound splits into the repulsive, the forcing, the
    gradient and the sign-changing contributions; in the merged case the
    sign-changing and repulsive maxima add, and when the repulsive exponent
    dominates its cone term carries an extra sigma weight.
    """
    a = k.alpha
    ec = 1.0 - a - a * k.rho2
    front = (k.g_max + k.delta * k.g_min) * k.omega
    grad = (1.0 - a) * k.delta ** 2 / k.sigma * R
    if case in ("T3.3-I", "T3.3-II"):
        inner = (k.e_max / a * R ** (1.0 - a) + grad
                 + (k.b_max + k.c_max) / a)
    elif case == "T3.2":
        inner = (k.c_max * k.sigma ** ec / a * R ** ec
                 + k.e_max / a * R ** (1.0 - a) + grad + k.b_max / a)
    else:
        inner = (k.c_max / a * R ** ec
                 + k.e_max / a * R ** (1.0 - a) + grad + k.b_max / a)
    return front * inner


def find_R(k: HypothesisConstants, case: str, r_lo: float,
           cap: float = R_SEARCH_CAP) -> RSearch:
    """Smallest radius R with step3_lhs(R) <= R, located on the geometric
    grid {2 r_lo 2^j} (seeded at 1 when r_lo = 0) and refined by bisection
    to six significant digits.  Returns found=False when no grid point up
    to the cap satisfies the inequality."""
    evals = 0

    def ok(R: float) -> bool:
        nonlocal evals
        evals += 1
        return step3_lhs(k, case, R) <= R

    base = 2.0 * r_lo if r_lo > 0.0 else 1.0
    R = base
    prev = None
    hit = None
    while R <= cap * (1.0 + 1e-9):
        if ok(R):
            hit = R
            break
        prev = R
        R *= 2.0
    if hit is None:
        return RSearch(None, False, False, None, evals)

    if prev is None:
        # the very first grid point already satisfies: walk down for a
        # violating bracket end, within the admissible range R > r_lo
        lo = hit / 2.0
        bracketed = False
        floor = max(r_lo, hit * 1e-12)
        for _ in range(60):
            if lo <= floor:
                break
            if not ok(lo):
                bracketed = True
                break
            hit = lo
            lo /= 2.0
        if not bracketed:
            return RSearch(hit, True, False, step3_lhs(k, case, hit), evals)
        prev = lo

    lo, hi = prev, hit
    while hi / lo > 1.0 + 1e-7:
        mid = math.sqrt(lo * hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return RSearch(hi, True, True, step3_lhs(k, case, hi), evals)


# ---------------------------------------------------------------------------
# dispatch and certification


def theorem_for(rho1: float, rho2: float, b_min_plus_c_min: float) -> str:
    """Case label as a pure function of sign(rho1 - rho2) and, for equal
    exponents, sign(min b + min c)."""
    if rho1 > rho2:
        return "T3.1"
    if rho1 < rho2:
        return "T3.2"
    return "T3.3-I" if b_min_plus_c_min >= 0.0 else "T3.3-II"


@dataclass(frozen=True)
class CertEvaluation:
    """One full hypothesis evaluation under one constant set."""

    constants: HypothesisConstants
    checks: dict
    r_interval: tuple[float, float] | None
    r_strict_lower: bool
    r_witness: RSearch
    verdict: bool
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "constants": self.constants.to_dict(),
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "r_interval": list(self.r_interval) if self.r_interval else None,
            "r_strict_lower": self.r_strict_lower,
            "R_witness": self.r_witness.to_dict(),
            "verdict": self.verdict,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Certificate:
    theorem: str  # T3.1 | T3.2 | T3.3-I | T3.3-II | NONE
    alpha: float
    positivity_source: str | None  # closed-form | A1 | A2 | CHU | grid | None
    positivity_checks: list
    positive: bool
    computed: CertEvaluation | None
    reported: CertEvaluation | None
    verdict: bool
    reason: str = ""
    greens: GreensFunction | None = field(default=None, repr=False,
                                          compare=False)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "alpha": self.alpha,
            "positivity_source": self.positivity_source,
            "positivity_checks": [v.to_dict() for v in self.positivity_checks],
            "positive": self.positive,
            "computed": self.computed.to_dict() if self.computed else None,
            "reported": self.reported.to_dict() if self.reported else None,
            "verdict": self.verdict,
            "reason": self.reason,
        }


def _evaluate_case(k: HypothesisConstants, case: str, positive: bool
                   ) -> CertEvaluation:
    if not positive:
        # sigma and delta are meaningless for a sign-indefinite kernel, so
        # none of the window formulas apply; report the failure directly
        return CertEvaluation(constants=k, checks={}, r_interval=None,
                              r_strict_lower=False,
                              r_witness=RSearch(None, False, False, None, 0),
                              verdict=False, reason="kernel not positive")
    checks: dict = {}
    h2 = check_H2(k)
    if case == "T3.1":
        window = check_H1(k)
    elif case == "T3.2":
        window = check_H3(k)
    elif case == "T3.3-II":
        window = check_H4(k)
    else:
        window = case_one_interval(k)
    checks[window.name] = window
    checks["H2"] = h2

    rs = find_R(k, case, window.lower)
    interval = (window.lower, window.upper) if window.ok else None
    verdict = bool(window.ok and h2.ok and rs.found
                   and rs.R is not None and rs.R > window.lower)
    reason = ""
    if not window.ok:
        reason = f"{window.name} window empty"
    elif not h2.ok:
        reason = "H2 contraction margin >= 1"
    elif not rs.found:
        reason = "no large radius below the search cap"
    elif not (rs.R > window.lower):
        reason = "large radius does not exceed the small-radius floor"
    return CertEvaluation(constants=k, checks=checks, r_interval=interval,
                          r_strict_lower=window.strict_lower, r_witness=rs,
                          verdict=verdict, reason=reason)


def certify(spec: ProblemSpec, a1: PeriodicCoeff | None = None,
            n: int = 200) -> Certificate:
    """Build the kernel, verify its positivity, evaluate the hypothesis
    chain for the dispatched case and search for the radius pair.

    When the closed-form kernel applies, the evaluation runs twice: once
    with the computed slope maximum (a direct scan of dG/dt gives 1/2 for
    every positive closed-form kernel) and once with the reported
    alternative sin(xi*omega/2), kept for comparison against previously
    published constant tables.  The headline verdict is the computed one.
    """
    alpha = alpha_exponent(spec.rho1)
    l = spec.q.scaled(1.0 / alpha)
    case = theorem_for(spec.rho1, spec.rho2,
                       spec.b.extrema().min_value + spec.c.extrema().min_value)

    checks: list[CriterionVerdict] = []
    try:
        gf = kernel_for(spec.p, l, spec.omega, n=n)
        if gf.source == "closed-form":
            # the kernel's l is xi*xi, and sqrt recovers xi exactly
            xi = math.sqrt(float(gf.l_fn(0.0)))
            source = "closed-form"
            checks.append(CriterionVerdict(
                criterion="CLOSED_FORM", holds=True, applicable=True,
                quantities={"xi": xi, "pi_over_omega": math.pi / spec.omega}))
        else:
            source = None
            if a1 is not None:
                v = check_A1(spec.p, l, a1)
                checks.append(v)
                if v.holds and source is None:
                    source = "A1"
            v = check_A2(spec.p, l)
            checks.append(v)
            if v.holds and source is None:
                source = "A2"
            v = check_chu(spec.p, l)
            checks.append(v)
            if v.holds and source is None:
                source = "CHU"
            if source is None and gf.positive:
                source = "grid"
    except ResonanceError as err:
        return Certificate(theorem="NONE", alpha=alpha,
                           positivity_source=None, positivity_checks=checks,
                           positive=False, computed=None, reported=None,
                           verdict=False, reason=f"resonance: {err}")

    positive = gf.positive
    if not positive:
        source = None

    k_computed = constants_from(spec, gf, label="computed")
    computed = _evaluate_case(k_computed, case, positive)

    reported = None
    if gf.source == "closed-form":
        gt_reported = abs(math.sin(0.5 * xi * spec.omega))
        k_reported = constants_from(spec, gf, gt_max_override=gt_reported,
                                    label="reported")
        reported = _evaluate_case(k_reported, case, positive)

    return Certificate(theorem=case, alpha=alpha, positivity_source=source,
                       positivity_checks=checks, positive=positive,
                       computed=computed, reported=reported,
                       verdict=computed.verdict, reason=computed.reason,
                       greens=gf)
