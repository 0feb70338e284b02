"""Hypothesis constants, window checks, radius search, dispatch, certify."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OMEGA, make_example, pc
from periorbit import (Certificate, ProblemSpec, certify, find_periodic,
                       parse_problem_text, theorem_for)
from periorbit import cli, hypotheses
from periorbit.greens import closed_form_constant
from periorbit.hypotheses import (
    HypothesisConstants,
    RSearch,
    ValidationError,
    ValueCheck,
    case_one_interval,
    check_H1,
    check_H2,
    check_H3,
    check_H4,
    _evaluate_case,
    constants_from,
    find_R,
    step3_lhs,
)

GT_REPORTED = math.sqrt(2.0 - math.sqrt(3.0)) / 2.0  # sin(pi/12)


@pytest.fixture(scope="module")
def gf():
    return closed_form_constant(0.25, OMEGA)


@pytest.fixture(scope="module")
def k41(gf):
    return constants_from(make_example(1.3), gf)


@pytest.fixture(scope="module")
def k41_rep(gf):
    return constants_from(make_example(1.3), gf, gt_max_override=GT_REPORTED,
                          label="reported")


@pytest.fixture(scope="module")
def k42(gf):
    return constants_from(make_example(2.0), gf)


@pytest.fixture(scope="module")
def k43(gf):
    return constants_from(make_example(1.5), gf)


@pytest.fixture(scope="module")
def k43_rep(gf):
    return constants_from(make_example(1.5), gf, gt_max_override=GT_REPORTED,
                          label="reported")


def test_problem_spec_alpha():
    """alpha = 1/(1 + rho1), derived once when the instance is validated;
    an instance with rho1 <= 0 has no substitution and is rejected."""
    spec = make_example(1.3)
    assert spec.alpha == pytest.approx(0.4, rel=1e-15)
    assert dataclasses.replace(spec, rho1=1.0).alpha == 0.5
    assert dataclasses.replace(spec, rho1=3.0).alpha == 0.25
    for rho1 in (0.0, -1.0):
        with pytest.raises(ValidationError):
            dataclasses.replace(spec, rho1=rho1)


def test_constants_from_worked_instance(k41, k41_rep):
    assert k41.alpha == pytest.approx(0.4, rel=1e-15)
    assert k41.b_min == pytest.approx(-1.0, abs=1e-9)
    assert k41.b_max == pytest.approx(3.0, abs=1e-10)
    assert k41.c_min == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert k41.c_max == pytest.approx(math.exp(2.0), rel=1e-9)
    assert k41.e_min == pytest.approx(9.0, abs=1e-10)
    assert k41.e_max == pytest.approx(11.0, abs=1e-10)
    assert k41.b_plus_mean == pytest.approx(2.0 / 3.0 + math.sqrt(3.0) / math.pi,
                                            abs=1e-9)
    # sigma and delta recomputed from the stored slope maximum
    assert k41.sigma == pytest.approx(k41.g_min / (k41.g_max + 0.5), rel=1e-14)
    assert k41.delta == pytest.approx(0.5 / k41.g_min, rel=1e-14)
    assert k41.sigma == pytest.approx(0.90722410702079115, rel=1e-12)
    assert k41.delta == pytest.approx(0.066987298107780674, rel=1e-12)
    # the alternative slope constant lifts sigma and shrinks delta
    assert k41_rep.gt_max == pytest.approx(GT_REPORTED, rel=1e-15)
    assert k41_rep.sigma == pytest.approx(0.93462192745289052, rel=1e-12)
    assert k41_rep.delta == pytest.approx(0.034675177060507378, rel=1e-12)
    assert k41_rep.label == "reported"


def test_H1_window(k41, k41_rep):
    h = check_H1(k41)
    # oracle: lower = ((-b_min)/e_min)^(1/(1-alpha)) / sigma
    lo = (1.0 / 9.0) ** (1.0 / 0.6) / k41.sigma
    ec = 1.0 - 0.4 - 0.4 * 1.3
    hi = (k41.g_min * k41.c_min * OMEGA * k41.sigma**ec / 0.4) ** (1.0 / (0.4 + 0.4 * 1.3))
    assert h.lower == pytest.approx(lo, rel=1e-10)
    assert h.upper == pytest.approx(hi, rel=1e-12)
    assert h.lower == pytest.approx(0.028306178153159604, rel=1e-9)
    assert h.upper == pytest.approx(6.0619652680420115, rel=1e-9)
    assert h.ok is True
    assert h.strict_lower is False

    h_rep = check_H1(k41_rep)
    assert h_rep.lower == pytest.approx(0.027476401359592593, rel=1e-9)
    assert h_rep.upper == pytest.approx(6.0776689773147385, rel=1e-9)
    assert h_rep.ok is True


def test_H2_margin(k41, k41_rep):
    h = check_H2(k41)
    oracle = (0.6 * (k41.g_max + k41.delta * k41.g_min) * k41.delta**2
              * OMEGA / k41.sigma)
    assert h.value == pytest.approx(oracle, rel=1e-14)
    assert h.value == pytest.approx(0.051137932514173298, rel=1e-12)
    assert h.bound == 1.0
    assert h.ok is True

    h_rep = check_H2(k41_rep)
    assert h_rep.value == pytest.approx(0.012910790979064444, rel=1e-12)
    assert h_rep.ok is True


def test_H3_window(k42):
    h = check_H3(k42)
    hi = (k42.g_min * k42.c_min * OMEGA / 0.4) ** (1.0 / (0.4 + 0.8))
    assert h.upper == pytest.approx(hi, rel=1e-12)
    assert h.upper == pytest.approx(4.0070306841051346, rel=1e-9)
    assert h.lower == pytest.approx(0.028306178153159604, rel=1e-9)
    assert h.ok is True


def test_H3_unit_radius_when_c_min_balances(k42):
    k = dataclasses.replace(k42, c_min=0.4 / (k42.g_min * OMEGA))
    assert check_H3(k).upper == pytest.approx(1.0, rel=1e-12)


def test_H4_window(k43, k43_rep):
    h = check_H4(k43)
    lo = ((1.0 - math.exp(-2.0)) / 9.0) ** (1.0 / 0.6) / k43.sigma
    hi = k43.g_min * k43.b_plus_mean * OMEGA / 0.4
    assert h.lower == pytest.approx(lo, rel=1e-9)
    assert h.upper == pytest.approx(hi, rel=1e-12)
    assert h.lower == pytest.approx(0.022214035681541993, rel=1e-9)
    assert h.upper == pytest.approx(47.601635161308593, rel=1e-9)
    assert h.ok is True
    assert h.strict_lower is True
    assert check_H4(k43_rep).lower == pytest.approx(0.021562845994249093, rel=1e-9)


def test_case_one_interval(gf):
    spec = ProblemSpec(p=pc("0"), q=pc("1/40"), b=pc("2+cos(3*t)"),
                       c=pc("exp(2*sin(3*t))"), e=pc("10+cos(3*t)"),
                       rho1=1.5, rho2=1.5, omega=OMEGA)
    k = constants_from(spec, gf)
    assert k.b_min + k.c_min > 0.0
    ci = case_one_interval(k)
    hi = (k.g_min * 9.0 * k.sigma**0.6 * OMEGA / 0.4) ** 2.5
    assert ci.lower == 0.0
    assert ci.upper == pytest.approx(hi, rel=1e-10)
    assert ci.ok is True
    assert ci.strict_lower is True


def test_floor_vanishes_when_sign_changing_min_nonnegative(k41):
    k = dataclasses.replace(k41, b_min=0.5)
    assert check_H1(k).lower == 0.0
    assert check_H3(k).lower == 0.0


def test_H4_fails_without_positive_part(k43):
    k = dataclasses.replace(k43, b_plus_mean=0.0)
    h = check_H4(k)
    assert h.upper == 0.0
    assert h.ok is False


def test_H2_zero_slope_gives_zero_margin(k41):
    k = dataclasses.replace(k41, delta=0.0)
    h = check_H2(k)
    assert h.value == 0.0
    assert h.ok is True


def _synthetic(**overrides):
    base = dict(label="synthetic", alpha=0.5, omega=1.0, rho1=1.0, rho2=1.0,
                g_max=3.0, g_min=2.0, gt_max=0.5, sigma=0.8, delta=0.25,
                b_min=-1.0, b_max=4.0, c_min=0.5, c_max=1.0, e_min=1.0,
                e_max=2.0, b_plus_mean=0.5)
    base.update(overrides)
    return HypothesisConstants(**base)


def test_boundary_equality_strictness():
    """At an exactly-touching window H1 (non-strict) passes while H4
    (strict lower bound) fails."""
    # H1: floor = ((-b_min)/e_min)^2 / sigma = 1; upper = 2 * c_min = 1
    k1 = _synthetic(sigma=1.0, b_min=-1.0, e_min=1.0, c_min=0.5,
                    g_min=1.0, omega=1.0)
    h1 = check_H1(k1)
    assert h1.lower == pytest.approx(1.0, rel=1e-14)
    assert h1.upper == pytest.approx(1.0, rel=1e-14)
    assert h1.ok is True
    # H4: floor = ((2-1)/1)^2 / 1 = 1; upper = 1*0.5*1/0.5 = 1 -> strict fail
    k4 = _synthetic(sigma=1.0, b_min=-2.0, c_min=1.0, e_min=1.0,
                    g_min=1.0, omega=1.0, b_plus_mean=0.5)
    h4 = check_H4(k4)
    assert h4.lower == pytest.approx(1.0, rel=1e-14)
    assert h4.upper == pytest.approx(1.0, rel=1e-14)
    assert h4.ok is False


def test_step3_lhs_hand_computed():
    """Every term evaluated by hand for clean constants at R = 16."""
    k = _synthetic(rho2=1.0, c_max=3.0)
    # front = (3 + 0.25*2) * 1 = 3.5;  grad = 0.5 * 0.0625 / 0.8 * 16 = 0.625
    # T3.1 inner: 3/0.5 * 16^0 + 2/0.5 * 16^0.5 + 0.625 + 4/0.5 = 6+16+0.625+8
    assert step3_lhs(k, "T3.1", 16.0) == pytest.approx(3.5 * 30.625, rel=1e-14)
    # T3.2 scales only the repulsive term by sigma^(1-2*alpha) = sigma^0 = 1
    assert step3_lhs(k, "T3.2", 16.0) == pytest.approx(3.5 * 30.625, rel=1e-14)
    # merged case: (b_max + c_max)/alpha = 14, no separate repulsive term
    assert step3_lhs(k, "T3.3-I", 16.0) == pytest.approx(
        3.5 * (16.0 + 0.625 + 14.0), rel=1e-14)
    assert step3_lhs(k, "T3.3-II", 16.0) == step3_lhs(k, "T3.3-I", 16.0)


def test_step3_lhs_sigma_weight_differs_for_negative_exponent():
    k = _synthetic(rho2=2.0, c_max=3.0)  # ec = 1 - 0.5 - 1 = -0.5
    plain = step3_lhs(k, "T3.1", 16.0)
    weighted = step3_lhs(k, "T3.2", 16.0)
    # sigma^(-0.5) > 1 inflates the repulsive contribution
    assert weighted > plain


def _bisect_fixed_point(k, case, lo=1e-8, hi=1e12):
    """Independent scalar-bisection oracle for the unique crossing of
    step3_lhs(R) = R (the left side is concave in R with sublinear tail)."""
    f = lambda R: step3_lhs(k, case, R) - R
    assert f(lo) > 0.0 and f(hi) < 0.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("rho2,case", [(1.3, "T3.1"), (2.0, "T3.2"), (1.5, "T3.3-II")])
def test_find_R_matches_bisection_oracle(gf, rho2, case):
    k = constants_from(make_example(rho2), gf)
    window = check_H1(k) if case == "T3.1" else (
        check_H3(k) if case == "T3.2" else check_H4(k))
    rs = find_R(k, case, window.lower)
    assert rs.found is True
    assert rs.R is not None and rs.R > window.lower
    # the witness satisfies the contraction inequality it certifies
    assert step3_lhs(k, case, rs.R) <= rs.R
    assert rs.lhs_at_R == pytest.approx(step3_lhs(k, case, rs.R), rel=1e-14)
    root = _bisect_fixed_point(k, case)
    assert rs.R == pytest.approx(root, rel=1e-5)


def test_find_R_single_term_analytic():
    """With only the forcing term active the fixed point is analytic:
    R = (g_max * omega * e_max / alpha)^(1/alpha)."""
    k = _synthetic(alpha=0.4, rho1=1.5, rho2=1.3, delta=0.0, gt_max=0.0,
                   b_max=0.0, c_max=0.0, e_max=0.9, g_max=2.0, omega=1.0)
    rs = find_R(k, "T3.1", 0.0)
    exact = (2.0 * 1.0 * 0.9 / 0.4) ** 2.5
    assert rs.found is True
    assert rs.R == pytest.approx(exact, rel=1e-5)


def test_find_R_not_found_when_gradient_dominates(k41):
    k = dataclasses.replace(k41, delta=2.0)
    rs = find_R(k, "T3.1", 0.01)
    assert rs.found is False
    assert rs.R is None
    assert rs.lhs_at_R is None
    assert rs.evaluations >= 40


def test_find_R_respects_cap(k41, monkeypatch):
    monkeypatch.setattr(hypotheses, "R_SEARCH_CAP", 100.0)
    k = dataclasses.replace(k41, delta=2.0)
    rs = find_R(k, "T3.1", 0.01)
    assert rs.found is False
    assert rs.evaluations <= 20


def test_find_R_walks_down_from_satisfied_seed():
    """Seeded at 2 r_lo > 0, a satisfying first grid point is the witness:
    the grid's next point down, r_lo, is not admissible, so the search
    makes no other evaluation."""
    k = _synthetic(b_max=1e-20, c_max=1e-20, e_max=1e-20, delta=0.0, gt_max=0.0)
    rs = find_R(k, "T3.1", 1.0)
    assert rs.found is True
    assert rs.boundary_bracketed is False
    assert rs.R == 2.0
    assert rs.evaluations == 1
    assert rs.lhs_at_R < 1e-10


def test_find_R_walks_down_to_a_bracket():
    """Seeded at 1 (r_lo = 0) above the fixed point, the walk-down halves
    until the inequality fails and then bisects that bracket; the fixed
    point is the single-term analytic one, (2 * 0.09 / 0.4)^2.5."""
    k = _synthetic(alpha=0.4, rho1=1.5, rho2=1.3, delta=0.0, gt_max=0.0,
                   b_max=0.0, c_max=0.0, e_max=0.09, g_max=2.0, omega=1.0)
    rs = find_R(k, "T3.1", 0.0)
    assert rs.found is True
    assert rs.boundary_bracketed is True
    assert rs.R == pytest.approx(0.45 ** 2.5, rel=1e-5)
    assert rs.lhs_at_R <= rs.R


def test_evaluate_case_names_the_failing_link(monkeypatch):
    """An empty window, no large radius below the cap and a witness that
    does not clear the small-radius floor each fail the verdict with their
    own reason."""
    empty = _evaluate_case(_synthetic(b_min=-100.0), "T3.1", True)
    no_radius = _evaluate_case(_synthetic(b_max=1e20), "T3.1", True)
    # find_R always searches above 2 r_lo, so only a witness put at the
    # floor reaches the last check
    monkeypatch.setattr(hypotheses, "find_R", lambda k, case, r_lo: RSearch(
        r_lo, True, True, r_lo, 1))
    at_floor = _evaluate_case(_synthetic(), "T3.1", True)
    for ev, reason in ((empty, "H1 window empty"),
                       (no_radius, "no large radius below the search cap"),
                       (at_floor, "large radius does not exceed the "
                                  "small-radius floor")):
        assert ev.verdict is False
        assert ev.reason == reason
    assert empty.r_interval is None
    assert no_radius.checks["H1"].ok and no_radius.checks["H2"].ok
    assert no_radius.r_witness.found is False
    assert at_floor.checks["H1"].ok and at_floor.checks["H2"].ok


@pytest.mark.parametrize("rho1", ["1e-17", "2e-16"])
def test_tiny_rho1_certifies_and_checks(rho1, tmp_path, monkeypatch, capsys):
    """alpha = 1/(1 + rho1) rounds to 1.0 below rho1 of about 1.1e-16; the
    small-radius floor then takes its limit exponent +inf instead of
    dividing by 1 - alpha."""
    text = ("omega = 2*pi/3\np = 0\nq = 1/40\nb = -1 + cos(3*t)\nc = 1\n"
            f"e = 10\nrho1 = {rho1}\nrho2 = 1\n")
    cert = certify(parse_problem_text(text).spec)
    assert cert.theorem == "T3.2"
    path = tmp_path / "tiny.problem"
    path.write_text(text)
    monkeypatch.setenv("PERIORBIT_OUT", str(tmp_path))
    code = cli.main(["check", str(path)])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out.splitlines()[-1].startswith(
        "verdict: TRUE" if code == 0 else "verdict: FALSE")


def test_small_radius_floor_monotone_in_forcing(k41):
    lowers = [check_H1(dataclasses.replace(k41, e_min=e)).lower
              for e in (9.0, 12.0, 15.0, 30.0)]
    assert all(a >= b for a, b in zip(lowers, lowers[1:]))


def test_theorem_dispatch_examples():
    assert theorem_for(1.5, 1.3, 0.0) == "T3.1"
    assert theorem_for(1.5, 2.0, 0.0) == "T3.2"
    assert theorem_for(1.5, 1.5, 1.0 + math.exp(-2.0)) == "T3.3-I"
    assert theorem_for(1.5, 1.5, -0.86) == "T3.3-II"
    assert theorem_for(1.5, 1.5, 0.0) == "T3.3-I"  # boundary: >= 0 merges up


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rho1=st.floats(0.01, 10.0),
    rho2=st.floats(0.01, 10.0),
    s=st.floats(-5.0, 5.0),
)
def test_theorem_dispatch_total_and_consistent(rho1, rho2, s):
    label = theorem_for(rho1, rho2, s)
    assert label in {"T3.1", "T3.2", "T3.3-I", "T3.3-II"}
    if rho1 > rho2:
        assert label == "T3.1"
    elif rho1 < rho2:
        assert label == "T3.2"
    else:
        assert label == ("T3.3-I" if s >= 0.0 else "T3.3-II")


# ---------------------------------------------------------------------------
# certify end to end


def test_certify_example_dominant_sign_changing(cert41):
    c = cert41
    assert isinstance(c, Certificate)
    assert c.theorem == "T3.1"
    assert c.alpha == pytest.approx(0.4, rel=1e-15)
    assert c.positivity_source == "closed-form"
    assert c.positive is True
    assert c.verdict is True
    assert c.computed is not None and c.computed.verdict is True
    assert c.reported is not None and c.reported.verdict is True
    assert c.greens is not None and c.greens.source == "closed-form"
    lo, hi = c.computed.r_interval
    assert lo == pytest.approx(0.028306178153159604, rel=1e-9)
    assert hi == pytest.approx(6.0619652680420115, rel=1e-9)
    assert c.computed.r_witness.found and c.computed.r_witness.R > lo


def test_certify_example_dominant_repulsive(cert42):
    c = cert42
    assert c.theorem == "T3.2"
    assert c.verdict is True
    assert c.computed.checks["H3"].ok is True
    assert c.computed.checks["H2"].ok is True


def test_certify_example_merged_powers(cert43):
    c = cert43
    assert c.theorem == "T3.3-II"
    assert c.verdict is True
    assert c.computed.checks["H4"].strict_lower is True
    lo, hi = c.computed.r_interval
    assert lo == pytest.approx(0.022214035681541993, rel=1e-9)
    assert hi == pytest.approx(47.601635161308593, rel=1e-9)


def test_certify_merged_nonnegative_case():
    spec = ProblemSpec(p=pc("0"), q=pc("1/40"), b=pc("2+cos(3*t)"),
                       c=pc("exp(2*sin(3*t))"), e=pc("10+cos(3*t)"),
                       rho1=1.5, rho2=1.5, omega=OMEGA)
    c = certify(spec)
    assert c.theorem == "T3.3-I"
    assert c.verdict is True
    assert "CASE_I" in c.computed.checks
    assert c.computed.r_interval[0] == 0.0


def test_certify_resonant_instance():
    spec = ProblemSpec(p=pc("0"), q=pc("18/5"), b=pc("1+2*cos(3*t)"),
                       c=pc("1"), e=pc("1"), rho1=1.5, rho2=1.3, omega=OMEGA)
    c = certify(spec)
    assert c.theorem == "NONE"
    assert c.verdict is False
    assert "resonance" in c.reason
    assert c.computed is None and c.reported is None


def test_certify_nonpositive_kernel():
    # l = q/alpha = 4, xi = 2 >= pi/omega: kernel exists but changes sign
    spec = ProblemSpec(p=pc("0"), q=pc("8/5"), b=pc("1+2*cos(3*t)"),
                       c=pc("1"), e=pc("1"), rho1=1.5, rho2=1.3, omega=OMEGA)
    c = certify(spec)
    assert c.theorem == "T3.1"
    assert c.positive is False
    assert c.verdict is False
    assert "kernel not positive" in c.reason


@pytest.mark.parametrize("rho2,case", [(1.3, "T3.1"), (1.5, "T3.3-I"),
                                       (2.0, "T3.2")])
def test_certify_proves_absence_before_the_kernel(monkeypatch, rho2, case):
    """max(q - p') = -1 + 3/10 < 0 and min b = 0: certify keeps the case
    label, names the test and its margins in absent, and builds no
    kernel, runs no criterion and evaluates no constant set."""
    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the sign test")

    for name in ("kernel_for", "check_A2", "check_chu", "_evaluate_case"):
        monkeypatch.setattr(hypotheses, name, unreachable)
    spec = ProblemSpec(p=pc("1/10*sin(3*t)"), q=pc("-1"), b=pc("0"),
                       c=pc("1"), e=pc("1"), rho1=1.5, rho2=rho2,
                       omega=OMEGA)
    c = certify(spec)
    top = c.absent["max_q_minus_dp"]
    assert c.absent == {"test": "sign", "max_q_minus_dp": top, "min_b": 0.0}
    assert top == pytest.approx(-0.7, abs=1e-12)
    assert c.theorem == case and c.alpha == spec.alpha
    assert c.verdict is False and c.positive is False
    assert c.greens is None and c.positivity_source is None
    assert c.positivity_checks == []
    assert c.computed is None and c.reported is None
    assert c.reason == ("proved absent: max(q - p') = -0.7 <= 0 and "
                        "min b = 0 >= 0")


def test_certify_numeric_path_uses_chu():
    spec = ProblemSpec(p=pc("0"), q=pc("(1/40)*(1+(1/10)*cos(3*t))"),
                       b=pc("1+2*cos(3*t)"), c=pc("exp(2*sin(3*t))"),
                       e=pc("10+cos(3*t)"), rho1=1.5, rho2=1.3, omega=OMEGA)
    c = certify(spec)
    assert c.positivity_source == "CHU"
    assert c.positive is True
    assert c.reported is None  # alternative constants only cover closed form
    names = [v.criterion for v in c.positivity_checks]
    assert "A2" in names and "CHU" in names
    a2 = next(v for v in c.positivity_checks if v.criterion == "A2")
    assert a2.holds is False


def test_certify_with_failing_factorisation_candidate():
    spec = ProblemSpec(p=pc("0"), q=pc("(1/40)*(1+(1/10)*cos(3*t))"),
                       b=pc("1+2*cos(3*t)"), c=pc("exp(2*sin(3*t))"),
                       e=pc("10+cos(3*t)"), rho1=1.5, rho2=1.3, omega=OMEGA)
    c = certify(spec, a1=pc("1"))
    names = [v.criterion for v in c.positivity_checks]
    assert "A1" in names
    a1v = next(v for v in c.positivity_checks if v.criterion == "A1")
    assert a1v.holds is False
    assert c.positivity_source == "CHU"


def test_certify_with_holding_factorisation():
    # p = a1 + a2, l = a1' + a1 a2 with a1 = 1 + sin(3t)/10, a2 = 1; q = alpha*l
    spec = ProblemSpec(
        p=pc("2+1/10*sin(3*t)"),
        q=pc("(2/5)*(1+1/10*sin(3*t)+3/10*cos(3*t))"),
        b=pc("0"), c=pc("1"), e=pc("1"), rho1=1.5, rho2=1.3, omega=OMEGA)
    c = certify(spec, a1=pc("1+1/10*sin(3*t)"))
    assert c.positivity_source == "A1"
    assert c.positive is True


def test_problem_spec_rejects_a_period_that_is_not_positive():
    with pytest.raises(ValidationError) as exc:
        ProblemSpec(p=pc("0"), q=pc("1/40"), b=pc("1"), c=pc("1"),
                    e=pc("1"), rho1=1.5, rho2=1.3, omega=-1.0)
    assert str(exc.value) == "omega must be positive"
    assert exc.value.key is None


def test_problem_spec_validation():
    with pytest.raises(ValidationError, match="c must be positive"):
        ProblemSpec(p=pc("0"), q=pc("1/40"), b=pc("1"), c=pc("cos(3*t)"),
                    e=pc("1"), rho1=1.5, rho2=1.3, omega=OMEGA)
    with pytest.raises(ValidationError, match="e must be positive"):
        ProblemSpec(p=pc("0"), q=pc("1/40"), b=pc("1"), c=pc("1"),
                    e=pc("-2"), rho1=1.5, rho2=1.3, omega=OMEGA)
    with pytest.raises(ValidationError):
        ProblemSpec(p=pc("0"), q=pc("1/40"), b=pc("1"), c=pc("1"),
                    e=pc("1"), rho1=-1.0, rho2=1.3, omega=OMEGA)
    with pytest.raises(ValidationError, match="rho2 must be positive") as exc:
        ProblemSpec(p=pc("0"), q=pc("1/40"), b=pc("1"), c=pc("1"),
                    e=pc("1"), rho1=1.5, rho2=-2.0, omega=OMEGA)
    assert exc.value.key == "rho2"
    with pytest.raises(ValidationError):
        ProblemSpec(p=pc("0"), q=pc("1/40"), b=pc("1"), c=pc("1"),
                    e=pc("1"), rho1=1.5, rho2=0.0, omega=OMEGA)
    with pytest.raises(ValidationError, match="period"):
        ProblemSpec(p=pc("0"), q=pc("1/40"), b=pc("1", omega=2.0 * math.pi),
                    c=pc("1"), e=pc("1"), rho1=1.5, rho2=1.3, omega=OMEGA)


@pytest.mark.parametrize("key,value", [
    ("p", "exp(710*cos(3*t - pi/256)^8)"),
    ("q", "exp(709*cos(3*t - pi/256)^8)"),
    ("b", "1e308 + cos(3*t)"),
    ("e", "1e308 + cos(3*t)")])
def test_certify_and_find_periodic_check_ranges_first(monkeypatch, key,
                                                      value):
    """p, or l = q/alpha, leaves the float range between grid points, or
    the mean of b's positive part or of e overflows: certify and
    find_periodic raise ValidationError keyed to the coefficient before
    any kernel build or shot."""
    import periorbit.hypotheses as hypotheses
    import periorbit.solver as solver

    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the range check")

    monkeypatch.setattr(hypotheses, "kernel_for", unreachable)
    monkeypatch.setattr(solver, "solve_ivp_dp", unreachable)
    coeffs = {"p": "0", "q": "1/40", "b": "1+2*cos(3*t)",
              "c": "exp(2*sin(3*t))", "e": "10+cos(3*t)", key: value}
    for run in (certify, find_periodic):
        spec = ProblemSpec(**{k: pc(v) for k, v in coeffs.items()},
                           rho1=1.5, rho2=1.3, omega=OMEGA)
        with pytest.raises(ValidationError) as info:
            run(spec)
        assert info.value.key == key


@pytest.mark.parametrize("a1", [
    "exp(710*cos(3*t - pi/256)^8)",   # a1 overflows between grid points
    "1e308 + cos(3*t)",               # its mean overflows
    "exp(709*cos(3*t)^8)"])           # a1 is finite, a1' is not
def test_certify_checks_the_range_of_a1_first(monkeypatch, a1):
    """The factor a1 of criterion A1 is range-checked with the problem's
    coefficients, before any kernel build: certify raises ValidationError
    keyed to a1."""
    import periorbit.hypotheses as hypotheses

    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the range check")

    monkeypatch.setattr(hypotheses, "kernel_for", unreachable)
    spec = ProblemSpec(
        p=pc("2+1/10*sin(3*t)"),
        q=pc("(2/5)*(1+1/10*sin(3*t)+3/10*cos(3*t))"),
        b=pc("0"), c=pc("1"), e=pc("1"), rho1=1.5, rho2=1.3, omega=OMEGA)
    with pytest.raises(ValidationError, match="^a1: .*not finite") as info:
        certify(spec, a1=pc(a1))
    assert info.value.key == "a1"


def test_certificate_to_dict_serializes(cert41):
    d = cert41.to_dict()
    assert set(d) == {"theorem", "alpha", "positivity_source",
                      "positivity_checks", "positive", "computed", "reported",
                      "verdict", "reason", "absent"}
    assert d["absent"] is None
    text = json.dumps(d, default=float, sort_keys=True)
    assert "T3.1" in text
    assert d["computed"]["checks"]["H1"]["ok"] is True
    assert d["computed"]["R_witness"]["found"] is True


# ---------------------------------------------------------------------------
# the wire format against the hand-written serializers it replaced


def _ref_verdict(v):
    return {"criterion": v.criterion, "holds": v.holds,
            "applicable": v.applicable, "quantities": dict(v.quantities),
            "notes": v.notes}


def _ref_constants(k):
    return {name: getattr(k, name) for name in (
        "label", "alpha", "omega", "rho1", "rho2", "g_max", "g_min",
        "gt_max", "sigma", "delta", "b_min", "b_max", "c_min", "c_max",
        "e_min", "e_max", "b_plus_mean")}


def _ref_check(c):
    if isinstance(c, ValueCheck):
        return {"name": c.name, "value": c.value, "bound": c.bound,
                "ok": c.ok}
    return {"name": c.name, "lower": c.lower, "upper": c.upper, "ok": c.ok,
            "strict_lower": c.strict_lower, "note": c.note}


def _ref_search(r):
    return {"R": r.R, "found": r.found,
            "boundary_bracketed": r.boundary_bracketed,
            "lhs_at_R": r.lhs_at_R, "evaluations": r.evaluations}


def _ref_evaluation(ev):
    if ev is None:
        return None
    return {
        "constants": _ref_constants(ev.constants),
        "checks": {k: _ref_check(v) for k, v in ev.checks.items()},
        "r_interval": list(ev.r_interval) if ev.r_interval else None,
        "r_strict_lower": ev.r_strict_lower,
        "R_witness": _ref_search(ev.r_witness),
        "verdict": ev.verdict,
        "reason": ev.reason,
    }


def _ref_certificate(c):
    return {
        "theorem": c.theorem,
        "alpha": c.alpha,
        "positivity_source": c.positivity_source,
        "positivity_checks": [_ref_verdict(v) for v in c.positivity_checks],
        "positive": c.positive,
        "computed": _ref_evaluation(c.computed),
        "reported": _ref_evaluation(c.reported),
        "verdict": c.verdict,
        "reason": c.reason,
        "absent": c.absent,
    }


A1_HOLDS = """\
omega = 2*pi/3
p = 2+1/10*sin(3*t)
q = (2/5)*(1+1/10*sin(3*t)+3/10*cos(3*t))
b = 0
c = 1
e = 1
rho1 = 3/2
rho2 = 13/10
a1 = 1+1/10*sin(3*t)
"""


def _wire_texts(monkeypatch):
    """example41-43, the family-solve texts of one benchmark seed (numeric
    and closed-form kernels), a text with a1, a resonant text, one whose
    kernel is not positive and one the sign test proves to have no orbit."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "bench"))
    import workloads

    texts = [path.read_text() for path in
             sorted((root / "src" / "periorbit" / "problems").glob("*.problem"))]
    texts += workloads.FamilySolve(41, "", "").texts
    texts.append(A1_HOLDS)
    for q in ("18/5", "8/5"):
        texts.append(A1_HOLDS.replace(
            "q = (2/5)*(1+1/10*sin(3*t)+3/10*cos(3*t))", f"q = {q}").replace(
            "p = 2+1/10*sin(3*t)", "p = 0"))
    texts.append(A1_HOLDS.replace(
        "q = (2/5)*(1+1/10*sin(3*t)+3/10*cos(3*t))", "q = -1"))
    return texts


def test_certificate_wire_format_matches_reference(monkeypatch):
    sources = set()
    absent = []
    for text in _wire_texts(monkeypatch):
        problem = parse_problem_text(text)
        cert = certify(problem.spec, a1=problem.a1)
        sources.add(cert.positivity_source)
        absent.append(cert.absent is not None)
        assert cli._json_text(cert.to_dict()) == \
            cli._json_text(_ref_certificate(cert))
    assert {"closed-form", "A1", "CHU", None} <= sources
    assert absent.count(True) == 1 and absent[-1]


def test_wire_format_is_plain_json(orbit41):
    """Every value of a certificate's wire format and of Orbit.summary()
    is a Python scalar, bool, str, list or dict, which json.dumps takes
    with no default hook: example41, a numeric kernel certified through
    a1, and a resonant instance."""
    resonant = A1_HOLDS.replace(
        "q = (2/5)*(1+1/10*sin(3*t)+3/10*cos(3*t))", "q = 18/5").replace(
        "p = 2+1/10*sin(3*t)", "p = 0")
    example41 = (Path(__file__).resolve().parents[1] / "src" / "periorbit"
                 / "problems" / "example41.problem").read_text()
    seen = set()
    for text in (example41, A1_HOLDS, resonant):
        problem = parse_problem_text(text)
        cert = certify(problem.spec, a1=problem.a1)
        seen.add((cert.theorem, cert.positivity_source))
        json.dumps(cert.to_dict())
    assert {("T3.1", "closed-form"), ("T3.1", "A1"), ("NONE", None)} == seen
    json.dumps(orbit41.summary())


def test_certificate_positivity_checks_entries():
    problem = parse_problem_text(A1_HOLDS)
    cert = certify(problem.spec, a1=problem.a1)
    entries = cert.to_dict()["positivity_checks"]
    assert [e["criterion"] for e in entries] == ["A1", "A2", "CHU"]
    for entry, verdict in zip(entries, cert.positivity_checks):
        assert set(entry) == {"criterion", "holds", "applicable",
                              "quantities", "notes"}
        assert entry["holds"] == verdict.holds
        assert entry["quantities"] == verdict.quantities
    assert entries[0]["holds"] is True
    assert cert.to_dict()["positivity_source"] == "A1"
