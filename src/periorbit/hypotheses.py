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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

from .expressions import EvalDomainError, PeriodicCoeff
# closed_form_constant and numeric_periodic_green are not called here;
# bench/spans.py rebinds them under these names
from .greens import (CriterionVerdict, GreensFunction, ResonanceError,
                     check_A1, check_A2, check_chu, closed_form_constant,
                     kernel_for, numeric_periodic_green)
from .quadrature import QuadratureError

R_SEARCH_CAP = 1e12


class ValidationError(ValueError):
    """An invalid instance; key names the coefficient at fault, if one is."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ProblemSpec:
    """A validated instance of the singular periodic equation, with the
    exponent alpha = 1/(1 + rho1) of the substitution x = y^alpha and the
    linear coefficient l = q/alpha of the y-equation."""

    p: PeriodicCoeff
    q: PeriodicCoeff
    b: PeriodicCoeff
    c: PeriodicCoeff
    e: PeriodicCoeff
    rho1: float
    rho2: float
    omega: float
    alpha: float = field(init=False)
    l: PeriodicCoeff = field(init=False, repr=False)

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
            with keyed(name):
                ext = getattr(self, name).extrema()
            if not (ext.min_value > 0.0):
                raise ValidationError(
                    f"{name} must be positive over a full period "
                    f"(min {ext.min_value:.6g} at t = {ext.t_min:.6g})", name)
        alpha = 1.0 / (1.0 + self.rho1)
        try:
            l = self.q.scaled(1.0 / alpha)
        except ValueError as err:
            raise ValidationError(f"q: q/alpha {err}", "q") from err
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "l", l)

    def check_ranges(self, a1: PeriodicCoeff | None = None) -> None:
        """Raise ValidationError, keyed to the coefficient, unless the
        extrema of p, b and l = q/alpha and the means of q, e and b's
        positive part are finite, and, when the factor a1 of criterion A1
        is given, the extrema of a1 and a1' and the mean of a1.  Parsing
        checks values on the period grid only; these are found between its
        points and kept on the coefficients.  Validation leaves them out:
        they cost more than parsing."""
        checks = [("p", "", self.p.extrema), ("b", "", self.b.extrema),
                  ("q", "q/alpha ", self.l.extrema), ("q", "", self.q.mean),
                  ("e", "", self.e.mean),
                  ("b", "mean of max(b, 0): ", self.b.mean_positive_part)]
        if a1 is not None:
            checks += [("a1", "", a1.extrema), ("a1", "", a1.mean),
                       ("a1", "a1' ", lambda: a1.derivative().extrema())]
        for key, what, value in checks:
            with keyed(key, what):
                value()


@contextmanager
def keyed(key: str, what: str = ""):
    """Report a value past the float range, or a mean that cannot be
    integrated, as a ValidationError against the problem key it comes
    from; what names the quantity derived from it, if any."""
    try:
        yield
    except (EvalDomainError, QuadratureError) as err:
        raise ValidationError(f"{key}: {what}{err}", key) from err


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


def constants_from(spec: ProblemSpec, gf: GreensFunction,
                   gt_max_override: float | None = None,
                   label: str = "computed") -> HypothesisConstants:
    gt_max = gf.gt_max if gt_max_override is None else gt_max_override
    sigma = gf.g_min / (gf.g_max + gt_max)
    delta = gt_max / gf.g_min
    bx = spec.b.extrema()
    cx = spec.c.extrema()
    ex = spec.e.extrema()
    return HypothesisConstants(
        label=label, alpha=spec.alpha, omega=spec.omega,
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


@dataclass(frozen=True)
class ValueCheck:
    name: str
    value: float
    bound: float
    ok: bool


def _pow(base: float, exponent: float) -> float:
    """base ** exponent, or +inf where it overflows the float range: an
    inequality with an overflowing side then fails instead of raising."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _small_radius_floor(numerator: float, e_min: float, sigma: float,
                        alpha: float) -> float:
    """(1/sigma) * (numerator/e_min)^(1/(1-alpha)), or 0 when the forcing
    minimum already makes the lower bound vacuous (numerator <= 0).  An
    alpha that rounds to 1 (rho1 below about 1.1e-16) takes the limit
    exponent +inf."""
    if numerator <= 0.0:
        return 0.0
    exponent = 1.0 / (1.0 - alpha) if alpha < 1.0 else math.inf
    return _pow(numerator / e_min, exponent) / sigma


def check_H1(k: HypothesisConstants) -> IntervalCheck:
    """Small-radius window when the sign-changing power dominates
    (rho1 > rho2); the repulsive term supplies the upper bound."""
    a = k.alpha
    ec = 1.0 - a - a * k.rho2
    r_lo = _small_radius_floor(-k.b_min, k.e_min, k.sigma, a)
    r_hi = _pow(k.g_min * k.c_min * k.omega * _pow(k.sigma, ec) / a,
                1.0 / (a + a * k.rho2))
    return IntervalCheck("H1", r_lo, r_hi,
                         ok=bool(r_lo <= r_hi and r_hi > 0.0))


def check_H2(k: HypothesisConstants) -> ValueCheck:
    """Contraction margin of the gradient term:
    (1 - alpha)(g_max + delta g_min) delta^2 omega / sigma < 1."""
    value = ((1.0 - k.alpha) * (k.g_max + k.delta * k.g_min)
             * _pow(k.delta, 2) * k.omega / k.sigma)
    return ValueCheck("H2", value, 1.0, ok=bool(value < 1.0))


def check_H3(k: HypothesisConstants) -> IntervalCheck:
    """Small-radius window when the repulsive power dominates (rho1 < rho2);
    same floor as H1 but the sharper upper bound needs no sigma weight."""
    a = k.alpha
    r_lo = _small_radius_floor(-k.b_min, k.e_min, k.sigma, a)
    r_hi = _pow(k.g_min * k.c_min * k.omega / a, 1.0 / (a + a * k.rho2))
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
    r_hi = _pow(k.g_min * k.e_min * _pow(k.sigma, 1.0 - a) * k.omega / a,
                1.0 / a)
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
    grad = (1.0 - a) * _pow(k.delta, 2) / k.sigma * R
    forcing = k.e_max / a * _pow(R, 1.0 - a)
    if case in ("T3.3-I", "T3.3-II"):
        inner = forcing + grad + (k.b_max + k.c_max) / a
    elif case == "T3.2":
        inner = (k.c_max * _pow(k.sigma, ec) / a * _pow(R, ec)
                 + forcing + grad + k.b_max / a)
    else:
        inner = (k.c_max / a * _pow(R, ec) + forcing + grad + k.b_max / a)
    return front * inner


def find_R(k: HypothesisConstants, case: str, r_lo: float) -> RSearch:
    """Smallest radius R with step3_lhs(R) <= R, located on the geometric
    grid {2 r_lo 2^j} (seeded at 1, and walked down, when r_lo = 0) and
    refined by bisection to six significant digits; a satisfying seed
    2 r_lo is returned unbracketed.  Returns found=False when no grid
    point up to R_SEARCH_CAP satisfies the inequality."""
    evals = 0

    def ok(R: float) -> bool:
        nonlocal evals
        evals += 1
        return step3_lhs(k, case, R) <= R

    from_floor = r_lo > 0.0
    R = 2.0 * r_lo if from_floor else 1.0
    prev = None
    hit = None
    while R <= R_SEARCH_CAP * (1.0 + 1e-9):
        if ok(R):
            hit = R
            break
        prev = R
        R *= 2.0
    if hit is None:
        return RSearch(None, False, False, None, evals)

    if prev is None:
        # the very first grid point already satisfies: the witness, when
        # it is 2 r_lo, as R must exceed r_lo; from 1, walk down to 1e-12
        # for a violating bracket end
        lo = hit / 2.0
        while not from_floor and lo > 1e-12:
            if not ok(lo):
                prev = lo
                break
            hit, lo = lo, lo / 2.0
        if prev is None:
            return RSearch(hit, True, False, step3_lhs(k, case, hit), evals)

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
        """The wire format: the fields, less the kernel, with each
        evaluation's r_witness written as R_witness."""
        doc = asdict(replace(self, greens=None))
        del doc["greens"]
        for ev in (doc["computed"], doc["reported"]):
            if ev is not None:
                ev["R_witness"] = ev.pop("r_witness")
        return doc


# the small-radius window of each case
_WINDOWS = {"T3.1": check_H1, "T3.2": check_H3, "T3.3-I": case_one_interval,
            "T3.3-II": check_H4}


def _evaluate_case(k: HypothesisConstants, case: str, positive: bool
                   ) -> CertEvaluation:
    if not positive:
        # sigma and delta are meaningless for a sign-indefinite kernel, so
        # none of the window formulas apply; report the failure directly
        return CertEvaluation(constants=k, checks={}, r_interval=None,
                              r_strict_lower=False,
                              r_witness=RSearch(None, False, False, None, 0),
                              verdict=False, reason="kernel not positive")
    window = _WINDOWS[case](k)
    h2 = check_H2(k)
    checks = {window.name: window, "H2": h2}

    rs = find_R(k, case, window.lower)
    interval = (window.lower, window.upper) if window.ok else None
    verdict = bool(window.ok and h2.ok and rs.found and rs.R > window.lower)
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


def certify(spec: ProblemSpec, a1: PeriodicCoeff | None = None
            ) -> Certificate:
    """Build the kernel, verify its positivity, evaluate the hypothesis
    chain for the dispatched case and search for the radius pair.

    When the closed-form kernel applies, the evaluation runs twice: once
    with the computed slope maximum (a direct scan of dG/dt gives 1/2 for
    every positive closed-form kernel) and once with the reported
    alternative sin(xi*omega/2), kept for comparison against previously
    published constant tables.  The headline verdict is the computed one.

    spec.check_ranges(a1) runs first: a coefficient value or mean past the
    float range, a1's included, raises ValidationError keyed to its
    coefficient.  A kernel with no usable periodic form (resonance, or a
    fundamental-matrix integration that fails) gives the NONE certificate.
    """
    spec.check_ranges(a1)
    l = spec.l
    case = theorem_for(spec.rho1, spec.rho2,
                       spec.b.extrema().min_value + spec.c.extrema().min_value)

    try:
        gf = kernel_for(spec.p, l, spec.omega)
    except ResonanceError as err:
        return Certificate(theorem="NONE", alpha=spec.alpha,
                           positivity_source=None, positivity_checks=[],
                           positive=False, computed=None, reported=None,
                           verdict=False, reason=f"resonance: {err}")
    if gf.source == "closed-form":
        # kernel_for built the closed form from xi = sqrt(l)
        xi = math.sqrt(l.constant)
        source = "closed-form"
        checks = [CriterionVerdict(
            criterion="CLOSED_FORM", holds=True, applicable=True,
            quantities={"xi": xi, "pi_over_omega": math.pi / spec.omega})]
    else:
        # every applicable criterion runs; the first that holds decides
        checks = [] if a1 is None else [check_A1(spec.p, l, a1)]
        checks += [check_A2(spec.p, l), check_chu(spec.p, l)]
        source = next((v.criterion for v in checks if v.holds), "grid")

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

    return Certificate(theorem=case, alpha=spec.alpha,
                       positivity_source=source,
                       positivity_checks=checks, positive=positive,
                       computed=computed, reported=reported,
                       verdict=computed.verdict, reason=computed.reason,
                       greens=gf)
