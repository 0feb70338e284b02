"""Command-line interface: outputs, sidecar files, exit codes, determinism."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import periorbit
from periorbit import cli, load_problem, parse_expression
from periorbit.expressions import (MAX_TREE_DEPTH, EvalDomainError,
                                   tree_depth)
from periorbit.ivp import IntegrationBlowUp

ROOT = Path(__file__).resolve().parents[1]

RESONANT = """\
omega = 2*pi/3
p = 0
q = 18/5
b = 1+2*cos(3*t)
c = 1
e = 1
rho1 = 3/2
rho2 = 13/10
"""

HUGE_NEGATIVE_B = """\
omega = 2*pi/3
p = 0
q = 1/40
b = -1e200 + cos(3*t)
c = 1
e = 1
rho1 = 3/2
rho2 = 1
"""

BAD_C = """\
omega = 2*pi/3
p = 0
q = 1/40
b = 1+2*cos(3*t)
c = cos(3*t)
e = 10+cos(3*t)
rho1 = 3/2
rho2 = 13/10
"""

# l = q (1 + rho1) = 4 is constant, but xi = 2 exceeds pi/omega = 3/2, so
# the closed form is not positive and the numeric construction applies
ABOVE_HALF_PERIOD = """\
omega = 2*pi/3
p = 0
q = 8/5
b = 1+2*cos(3*t)
c = 1
e = 1
rho1 = 3/2
rho2 = 13/10
"""

MERGED_NONNEG = """\
omega = 2*pi/3
p = 0
q = 1/40
b = 2+cos(3*t)
c = exp(2*sin(3*t))
e = 10+cos(3*t)
rho1 = 3/2
rho2 = 3/2
"""

# q = -1 makes the kernel negative everywhere (the solve-failure family)
NON_POSITIVE = """\
omega = 0.05
p = 0
q = -1
b = 0
c = 9
e = 3
rho1 = 3/2
rho2 = 1
"""


@pytest.fixture(autouse=True)
def _isolated_out(tmp_path, monkeypatch):
    monkeypatch.setenv("PERIORBIT_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_check_bundled_text_report(tmp_path, capsys):
    code = cli.main(["check", "example41"])
    out = capsys.readouterr().out
    assert code == 0
    assert "theorem: T3.1" in out
    assert "verdict: TRUE" in out
    assert "[computed]" in out and "[reported]" in out
    assert "positivity source: closed-form" in out
    cert_path = tmp_path / "example41.certificate.json"
    assert cert_path.exists()
    doc = json.loads(cert_path.read_text())
    assert doc["theorem"] == "T3.1"
    assert doc["verdict"] is True
    assert doc["instance"]["name"] == "example41"
    assert doc["computed"]["checks"]["H1"]["ok"] is True


def test_check_json_flag_both_positions(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path / "d1"), "check", "example42", "--json"])
    first = capsys.readouterr().out
    assert code == 0
    doc = json.loads(first)
    assert doc["theorem"] == "T3.2"
    code = cli.main(["check", "example42", "--json", "--out", str(tmp_path / "d2")])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second
    assert (tmp_path / "d1" / "example42.certificate.json").exists()
    assert (tmp_path / "d2" / "example42.certificate.json").exists()


def test_flags_do_not_leak_between_calls(tmp_path, capsys):
    """The parser is built once a process: a flag given to one call is not
    a default of the next."""
    assert cli.main(["check", "example41", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["theorem"] == "T3.1"
    assert cli.main(["check", "example41"]) == 0
    assert capsys.readouterr().out.startswith("instance: example41\n")


def test_check_missing_file_exit_2(capsys):
    code = cli.main(["check", "no_such_instance"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no such file" in err


def test_check_invalid_problem_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.problem"
    bad.write_text(BAD_C)
    code = cli.main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "c must be positive" in err


# c dips below 0 only in a narrow well at t = pi + pi/4096, halfway between
# two samples; the lowest sample reads 5e-7 at t = 0
NARROW_WELL_C = """\
omega = 2*pi
p = 0
q = 1
b = 0
c = 1.0000005 - cos(t) - 2.000001*exp(-1000*(1 + cos(t - 0.0007669903939428206)))
e = 1
rho1 = 3/2
rho2 = 13/10
"""


def test_check_c_negative_in_a_narrow_well_exit_2(tmp_path, capsys):
    bad = tmp_path / "well.problem"
    bad.write_text(NARROW_WELL_C)
    code = cli.main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: {bad}: line 5: c must be positive over a full "
                   f"period (min -7.94284e-07 at t = 3.14236)\n")


@pytest.mark.parametrize("key, value, line", [("rho1", "0", 7),
                                             ("rho2", "-2", 8)])
def test_exponent_not_positive_names_its_line_exit_2(tmp_path, capsys, key,
                                                     value, line):
    """A non-positive exponent is reported against its own key's line, as
    every other validation error is."""
    text = ("omega = 1\np = 0\nq = 1\nb = 0\nc = 1\ne = 1\nrho1 = 1\n"
            "rho2 = 1\n").replace(f"{key} = 1", f"{key} = {value}")
    bad = tmp_path / "exponent.problem"
    bad.write_text(text)
    code = cli.main(["check", str(bad)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line {line}: {key} must be positive\n")


def test_unfinished_scalar_names_its_line_and_column_exit_2(tmp_path,
                                                            capsys):
    """A scalar key whose value does not parse is reported against its
    line, with the parser's message and column."""
    bad = tmp_path / "scalar.problem"
    bad.write_text("omega = 1\np = 0\nq = 1\nb = 0\nc = 1\ne = 1\n"
                   "rho1 = 3/\nrho2 = 1\n")
    assert cli.main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 7: rho1: unexpected end of input (column 3)\n")


def test_domain_error_reaching_main_exit_2(monkeypatch, capsys):
    """An EvalDomainError that no command turns into an error of its own
    reaches main, which writes it as one line and exits 2."""
    def failing(spec, a1=None):
        raise EvalDomainError("zero base raised to power -1.5")

    monkeypatch.setattr(cli, "certify", failing)
    assert cli.main(["check", "example41"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "domain error: zero base raised to power -1.5\n"


# each value is out of the float range or evaluates to inf or nan on the
# period grid; (key, value, line of the key in the text below)
_NON_FINITE = [("c", "exp(1000)", 5), ("q", "1e400", 3), ("q", "10^400", 3),
               ("rho1", "10^400", 7), ("b", "1e308*10*cos(t)", 4),
               ("rho2", "1e400", 8), ("rho1", "exp(1000)", 7),
               ("q", "3^(10^9)", 3), ("rho1", "sin(1e400)", 7)]


@pytest.mark.parametrize("key,value,line", _NON_FINITE)
def test_check_non_finite_value_exit_2(tmp_path, capsys, key, value, line):
    lines = MERGED_NONNEG.splitlines()
    assert lines[line - 1].startswith(f"{key} = ")
    lines[line - 1] = f"{key} = {value}"
    bad = tmp_path / "non_finite.problem"
    bad.write_text("\n".join(lines) + "\n")
    code = cli.main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {bad}: line {line}: {key}: ")
    assert "not finite" in err and err.count("\n") == 1


# finite on the 256-point period grid (the peak at t = pi/768 lies halfway
# between two points, where the exponent reaches 709.6), but exp overflows
# near the peak, where the extrema refinement evaluates it
_OVERFLOW_BETWEEN_GRID_POINTS = "exp(710*cos(3*t - pi/256)^8)"


def _example41_with(key: str, value: str, tmp_path) -> tuple[Path, int]:
    text = (ROOT / "src" / "periorbit" / "problems"
            / "example41.problem").read_text()
    lines = text.splitlines()
    line = next(i for i, ln in enumerate(lines, 1)
                if ln.startswith(f"{key} = "))
    lines[line - 1] = f"{key} = {value}"
    path = tmp_path / "overflow.problem"
    path.write_text("\n".join(lines) + "\n")
    return path, line


def test_check_overflow_between_grid_points_exit_2(tmp_path, capsys):
    bad, line = _example41_with("c", _OVERFLOW_BETWEEN_GRID_POINTS, tmp_path)
    code = cli.main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {bad}: line {line}: c: ")
    assert "not finite" in err and err.count("\n") == 1


def _exits_2_on_line(argv, bad, line, key, capsys, what=""):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {bad}: line {line}: {key}: {what}")
    assert "not finite" in err and err.count("\n") == 1


def test_check_overflow_in_certificate_extrema_exit_2(tmp_path, capsys):
    """b's extrema are first taken after parsing, by the range check: the
    overflow is still reported on b's line."""
    bad, line = _example41_with("b", _OVERFLOW_BETWEEN_GRID_POINTS, tmp_path)
    _exits_2_on_line(["check", str(bad)], bad, line, "b", capsys)


def test_check_overflowing_radius_power_is_a_failed_radius(tmp_path,
                                                           capsys):
    """With rho2 = 1262 the repulsive term R^(1 - a - a rho2) of the
    large-radius inequality overflows at small R: those radii fail the
    inequality, and a larger one is the witness."""
    path, _ = _example41_with("rho2", "1262", tmp_path)
    assert cli.main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "theorem: T3.2" in out
    assert out.endswith("verdict: TRUE\n")


def test_check_overflowing_floor_power_empties_the_window(tmp_path, capsys):
    """min b = -1e200 puts the H1 floor (-b_min/e_min)^(1/(1-a)) / sigma
    past the float range: the floor reads inf, written "inf" in JSON, and
    the window is empty."""
    path = tmp_path / "huge_b.problem"
    path.write_text(HUGE_NEGATIVE_B)
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "theorem: T3.1" in out
    assert out.endswith("verdict: FALSE  (H1 window empty)\n")
    assert cli.main(["check", "--json", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False and doc["reason"] == "H1 window empty"
    assert doc["computed"]["checks"]["H1"]["lower"] == "inf"


def test_solve_mean_past_float_range_exit_2(tmp_path, capsys):
    """The mean of b's positive part, which bounds the H4 window, and the
    mean of e, which sets the solver's amplitude scale, overflow: every
    command stops on the key's line, not in a quadrature traceback or a
    failed search, and b's error names the positive part."""
    for key, what in (("b", "mean of max(b, 0): integral on "),
                      ("e", "integral on ")):
        bad, line = _example41_with(key, "1e308 + cos(3*t)", tmp_path)
        for command in ("check", "greens", "solve"):
            _exits_2_on_line([command, str(bad)], bad, line, key, capsys,
                             what)


# the numeric-kernel text of test_certify_with_holding_factorisation
_A1_TEXT = """omega = 2*pi/3
p = 2+1/10*sin(3*t)
q = (2/5)*(1+1/10*sin(3*t)+3/10*cos(3*t))
b = 0
c = 1
e = 1
rho1 = 1.5
rho2 = 1.3
a1 = {}
"""


def _a1_exits_2_on_its_line(value, tmp_path, capsys, monkeypatch):
    """check, and reproduce of an instance read from the text, exit 2 on
    a1's line."""
    bad = tmp_path / "a1.problem"
    bad.write_text(_A1_TEXT.format(value))
    monkeypatch.setitem(cli._REPRO["4.1"], "file", str(bad))
    for argv in (["check", str(bad)], ["reproduce", "4.1"]):
        _exits_2_on_line(argv, bad, 9, "a1", capsys)


def test_a1_overflow_between_grid_points_exit_2(tmp_path, capsys,
                                                monkeypatch):
    """a1 leaves the float range between grid points: a ValueError
    traceback from a1's derivative once."""
    _a1_exits_2_on_its_line("exp(710*cos(3*t - pi/256)^8)", tmp_path,
                            capsys, monkeypatch)


def test_a1_mean_past_float_range_exit_2(tmp_path, capsys, monkeypatch):
    """a1's mean overflows: a QuadratureError traceback from its integral
    once."""
    _a1_exits_2_on_its_line("1e308 + cos(3*t)", tmp_path, capsys,
                            monkeypatch)


def test_check_a1_product_overflow_fails_without_a_warning(tmp_path,
                                                          capsys):
    """a1 = -8e307 is finite, and so are a1' and both means, but a1 a2
    overflows on the grid: the factorisation residual is inf and A1
    fails, with no RuntimeWarning (an error under the test filter)."""
    path = tmp_path / "a1.problem"
    path.write_text(_A1_TEXT.format("-8e307"))
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "positivity A1: fails  factorisation_residual = inf" in out


@pytest.mark.parametrize("p", ["200", "400"])
def test_chu_weights_past_float_range_fail_without_a_warning(tmp_path,
                                                            capsys, p):
    """exp(int_0^t p) reaches exp(419) at p = 200, and its square leaves
    the float range; at p = 400 the weight itself does.  CHU fails with
    no RuntimeWarning (an error under the test filter) and no NaN: each
    quantity past the range reads on its failing side, written "inf" or
    "-inf" in JSON.  A2 decides as before; the kernel is not positive
    either way, so the exit code is 1."""
    path = tmp_path / "steep.problem"
    path.write_text(f"omega = 2*pi/3\np = {p}\nq = 1\nb = 1\nc = 1\n"
                    "e = 1\nrho1 = 3/2\nrho2 = 1\n")
    assert cli.main(["check", "--json", str(path)]) == 1
    out = capsys.readouterr().out
    assert "NaN" not in out
    a2, chu = json.loads(out)["positivity_checks"]
    assert a2["criterion"] == "A2" and a2["holds"] is True
    assert chu["criterion"] == "CHU" and chu["holds"] is False
    assert "float range" in chu["notes"]
    assert chu["quantities"]["window_sup"] == "inf"
    first = chu["quantities"]["first_integral"]
    if p == "400":
        assert first == "-inf"
    else:
        assert math.isfinite(first)


def _strict_json(text: str):
    """text parsed as RFC 8259 JSON, which has no Infinity or NaN."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


# rho1 = 30 makes 1/alpha = 31: y = x^31 of the orbit leaves the float
# range, so norm_y is inf and ode_residual_y nan
_Y_PAST_RANGE = ("omega = 1\np = 3\nq = 1e-9\nb = -5\nc = 1e8\n"
                 "e = 1e9\nrho1 = 30\nrho2 = 1.5\n")


def test_json_writes_non_finite_floats_as_strings(tmp_path, capsys):
    """check --json and its sidecar, and solve --json, write a float that
    is not finite as "inf", "-inf" or "nan", as _g spells it, and so are
    valid JSON."""
    steep = tmp_path / "steep.problem"
    steep.write_text("omega = 2*pi/3\np = 400\nq = 1\nb = 1\nc = 1\n"
                     "e = 1\nrho1 = 1.5\nrho2 = 1\n")
    assert cli.main(["check", "--json", str(steep)]) == 1
    doc = _strict_json(capsys.readouterr().out)
    sidecar = (tmp_path / "steep.certificate.json").read_text()
    assert _strict_json(sidecar) == doc
    chu = doc["positivity_checks"][1]["quantities"]
    assert (chu["first_integral"], chu["window_sup"]) == ("-inf", "inf")

    far = tmp_path / "far.problem"
    far.write_text(_Y_PAST_RANGE)
    assert cli.main(["solve", "--json", str(far)]) == 0
    orbit = _strict_json(capsys.readouterr().out)
    assert (orbit["norm_y"], orbit["ode_residual_y"]) == ("inf", "nan")
    assert math.isfinite(orbit["x0"])


@pytest.mark.parametrize("command,text,code", [
    ("solve", _Y_PAST_RANGE, 0),
    ("solve", "omega = 1\np = 0.01*sin(2*pi*t)\nq = 2+sin(2*pi*t)\nb = 0\n"
              "c = 1e-8\ne = 1e9\nrho1 = 30\nrho2 = 2\n", 0),
    ("check", "omega = 100\np = 0.01*sin(2*pi*t/100)\nq = -1\nb = -5\n"
              "c = 1\ne = 1\nrho1 = 30\nrho2 = 1.5\n", 1),
    ("check", "omega = 100\np = 3\nq = -1\nb = -5\nc = 1e-8\ne = 1e-8\n"
              "rho1 = 1e-3\nrho2 = 50\n", 1),
], ids=["solve-y-power", "solve-y-product", "check-det", "check-matmul"])
def test_values_past_float_range_warn_nothing(tmp_path, capsys, command,
                                              text, code):
    """Orbits whose y = x^(1/alpha) diagnostics leave the float range, and
    numeric kernels whose factors' products or grid products do: under the
    suite's error::RuntimeWarning filter each command runs through, the
    solves exit 0 and the checks exit 1 on a kernel that is not
    positive."""
    path = tmp_path / "far.problem"
    path.write_text(text)
    assert cli.main([command, str(path)]) == code
    if command == "check":
        assert capsys.readouterr().out.endswith(
            "verdict: FALSE  (kernel not positive)\n")


@pytest.mark.parametrize("command", ["check", "greens", "solve"])
def test_q_over_alpha_past_float_range_exit_2(tmp_path, capsys, command):
    """q = 1e308 is finite, but l = q/alpha = 2.5e308 is not."""
    bad, line = _example41_with("q", "1e308", tmp_path)
    _exits_2_on_line([command, str(bad)], bad, line, "q", capsys)


@pytest.mark.parametrize("command", ["check", "greens", "solve"])
def test_q_over_alpha_overflow_between_grid_points_exit_2(tmp_path, capsys,
                                                          command):
    """q peaks at exp(709), finite, and l = 2.5 q overflows there; on the
    grid l stays finite, so the range check meets it first, before any
    kernel build or shot."""
    bad, line = _example41_with("q", "exp(709*cos(3*t - pi/256)^8)",
                                tmp_path)
    _exits_2_on_line([command, str(bad)], bad, line, "q", capsys)


# 400 nested parentheses, a sign chain with no operand, and a scalar sum
# as deep as it is long: each once ended in a RecursionError
_DEEP = [("p", "(" * 400 + "0" + ")" * 400, "nested deeper than 100 levels"),
         ("p", "-" * 1500, "unexpected end of input"),
         ("rho2", "13/10" + "+t" * 1500, "rho2 must be a constant")]


@pytest.mark.parametrize("key,value,message", _DEEP)
def test_check_deep_nesting_exit_2(tmp_path, capsys, key, value, message):
    bad, line = _example41_with(key, value, tmp_path)
    code = cli.main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {bad}: line {line}: ")
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("key,value", [
    ("p", _OVERFLOW_BETWEEN_GRID_POINTS),
    ("b", _OVERFLOW_BETWEEN_GRID_POINTS)])
def test_solve_overflow_in_shooting_coefficients_exit_2(tmp_path, capsys,
                                                        key, value):
    """p or b overflows between grid points: every command stops on the
    key's line, before any kernel build or shot."""
    bad, line = _example41_with(key, value, tmp_path)
    for command in ("check", "greens", "solve"):
        _exits_2_on_line([command, str(bad)], bad, line, key, capsys)


# p or l = q/alpha is finite but so large that the step size of the
# fundamental-matrix integration underflows: no usable periodic kernel
_KERNEL_BLOW_UP = [("p", "1e308 + cos(3*t)"), ("q", "1e300 + cos(3*t)")]


@pytest.mark.parametrize("key,value", _KERNEL_BLOW_UP)
def test_check_failed_kernel_integration_is_no_certificate(tmp_path, capsys,
                                                           key, value):
    path, _ = _example41_with(key, value, tmp_path)
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "theorem: NONE" in out
    assert out.endswith("verdict: FALSE  (resonance: the fundamental-matrix "
                        "integration failed: step size underflow near "
                        "t = 0)\n")


@pytest.mark.parametrize("key,value", _KERNEL_BLOW_UP)
def test_greens_failed_kernel_integration_exit_1(tmp_path, capsys, key,
                                                 value):
    path, _ = _example41_with(key, value, tmp_path)
    assert cli.main(["greens", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("resonance: the fundamental-matrix integration "
                          "failed: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


def test_solve_overflowing_power_is_a_failed_shot(tmp_path, capsys):
    """x^-200 at x = 0.01 leaves the float range inside the first shot of
    every start: the solve gives up, exit 1, with no traceback."""
    path, _ = _example41_with("rho1", "200", tmp_path)
    path.write_text(path.read_text() + "guess_x0 = 0.01\n")
    assert cli.main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("no convergence: ") and "failed shot" in err


# a difference and a right-deep product (_mul puts the constant first) as
# deep as they are long: each once ended in a RecursionError
_TOO_DEEP = [("p", "-".join(["t"] * 1500)),
             ("p", "t" + "*2" * 1500)]


def test_long_constant_scalar_sum_folds(tmp_path):
    """A scalar sum of 1500 terms free of t, once rejected as too deep,
    folds to one constant while it is parsed, left to right."""
    path, _ = _example41_with("rho2", "+".join(["sin(1)"] * 1500), tmp_path)
    total = 0.0
    for _ in range(1500):
        total += math.sin(1.0)
    assert load_problem(path).spec.rho2 == total


@pytest.mark.parametrize("key,value", _TOO_DEEP)
def test_check_deep_tree_exit_2(tmp_path, capsys, key, value):
    bad, line = _example41_with(key, value, tmp_path)
    assert cli.main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {bad}: line {line}: {key}: expression tree "
                   f"deeper than {MAX_TREE_DEPTH} levels\n")


def _a1_product(depth: int) -> str:
    """A product of periodic factors whose tree is exactly depth deep: a
    factor cos(3*t) is 3 levels deep and each further factor adds one.  Its
    derivative is about twice as deep."""
    text = "*".join(["cos(3*t)"] * (depth - 2))
    assert tree_depth(parse_expression(text)) == depth
    return text


def test_deep_tree_at_the_bound_is_accepted(tmp_path, capsys):
    """An a1 at the depth bound is parsed, compiled and differentiated by
    the factorisation criterion of a numeric kernel; one level deeper is
    rejected on a1's line."""
    path = tmp_path / "deep.problem"
    at_bound = ABOVE_HALF_PERIOD + f"a1 = {_a1_product(MAX_TREE_DEPTH)}\n"
    path.write_text(at_bound)
    assert cli.main(["check", str(path)]) in (0, 1)
    assert "positivity A1: fails" in capsys.readouterr().out

    line = at_bound.count("\n")
    path.write_text(at_bound.replace("\na1 = ", "\na1 = cos(3*t)*"))
    assert tree_depth(parse_expression(
        "cos(3*t)*" + _a1_product(MAX_TREE_DEPTH))) == MAX_TREE_DEPTH + 1
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line {line}: a1: expression tree deeper than "
        f"{MAX_TREE_DEPTH} levels\n")


@pytest.mark.parametrize("a1", [
    "exp(30*cos(3*t))",
    "*".join(["(1+cos(3*t)/9)"] * (MAX_TREE_DEPTH - 4))],
    ids=["exp", "product-at-the-depth-bound"])
def test_check_steep_a1_prints_its_verdict(tmp_path, capsys, a1):
    """Factors whose derivatives are steep (about 1e15 for the exponential
    and for the product of 296 factors) once ended in a PeriodicityError
    traceback: the derivative's period was sampled again and failed on
    rounding near its zeros."""
    assert tree_depth(parse_expression(a1)) <= MAX_TREE_DEPTH
    path = tmp_path / "steep.problem"
    path.write_text(ABOVE_HALF_PERIOD + f"a1 = {a1}\n")
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "positivity A1: fails" in out and "verdict: FALSE" in out


def test_check_long_sign_chain_parses(tmp_path, capsys):
    """1500 minus signs before 0 are p = 0, example41's own p."""
    path, _ = _example41_with("p", "-" * 1500 + "0", tmp_path)
    assert cli.main(["check", str(path)]) == 0
    assert "verdict: TRUE" in capsys.readouterr().out


def test_check_resonant_instance_exit_1(tmp_path, capsys):
    res = tmp_path / "resonant.problem"
    res.write_text(RESONANT)
    code = cli.main(["check", str(res)])
    out = capsys.readouterr().out
    assert code == 1
    assert "theorem: NONE" in out
    assert "resonance" in out


def test_check_merged_nonnegative_instance(tmp_path, capsys):
    f = tmp_path / "merged.problem"
    f.write_text(MERGED_NONNEG)
    code = cli.main(["check", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "theorem: T3.3-I" in out
    assert "CASE_I" in out


def test_greens_grid_and_csv(tmp_path, capsys):
    code = cli.main(["greens", "example41", "--n", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rows = 2601" in out
    assert "source = closed-form" in out
    csv_path = tmp_path / "example41.greens.csv"
    lines = csv_path.read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0] == "t,s,G,Gt"
    assert len(data) == 1 + 2601
    # all kernel values on the grid are positive for this instance
    g_col = [float(l.split(",")[2]) for l in data[1:]]
    assert min(g_col) > 0.0


def test_greens_and_check_choose_the_same_kernel(tmp_path, capsys):
    f = tmp_path / "above.problem"
    f.write_text(ABOVE_HALF_PERIOD)
    assert cli.main(["greens", str(f), "--n", "20"]) == 0
    assert "source = numeric" in capsys.readouterr().out
    cli.main(["check", str(f)])
    assert "kernel: numeric" in capsys.readouterr().out


# numeric kernels: one whose slope maximum lies next to a far corner, and
# one under strong damping (p = 15, l = 2.5), whose constants a coarse
# grid's seeds move in the third digit
NUMERIC_TEXTS = {
    "corner": "omega = 2*pi/3\np = 0.0747 + 0.0301*cos(3*t)\n"
              "q = 0.0206 + 0.0074*sin(3*t)\nb = 1.1008 + 0.0312*cos(3*t)\n"
              "c = 0.9419*exp(0.7052*sin(3*t))\ne = 11.1053 + 1.1937*cos(3*t)\n"
              "rho1 = 1.6484\nrho2 = 1.6484\n",
    "damped": "omega = 2*pi/3\np = 15\nq = 1\nb = 1\nc = 1\ne = 1\n"
              "rho1 = 1.5\nrho2 = 1\n",
}


@pytest.mark.parametrize("n", [1, 7, 200, 333])
@pytest.mark.parametrize("name", sorted(NUMERIC_TEXTS))
def test_greens_prints_the_constants_check_uses(tmp_path, capsys, name, n):
    """greens --n sets only the table: a numeric kernel's constants come
    from its fixed seed grid, so greens prints those of check's
    certificate kernel at every n."""
    f = tmp_path / f"{name}.problem"
    f.write_text(NUMERIC_TEXTS[name])
    cli.main(["check", str(f), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert cli.main(["greens", str(f), "--n", str(n)]) == 0
    shown = dict(line.split(" = ")
                 for line in capsys.readouterr().out.splitlines())
    assert shown["source"] == "numeric"
    constants = doc["computed"]["constants"]
    for key in ("g_max", "g_min", "gt_max", "sigma", "delta"):
        assert float(shown[key]) == constants[key], key
    assert shown["positive"] == str(doc["positive"]) == "True"
    assert shown["rows"] == str((n + 1) ** 2)


def test_cone_ratios_of_a_non_positive_kernel_print_na(tmp_path, capsys):
    """sigma and delta mean nothing for a kernel that is not positive: the
    text outputs say n/a, the JSON and CSV keep the numbers."""
    f = tmp_path / "nonpos.problem"
    f.write_text(NON_POSITIVE)
    assert cli.main(["check", str(f)]) == 1
    report = capsys.readouterr().out
    assert "positive: no" in report
    assert "[computed] gt_max = " in report
    assert "sigma = n/a  delta = n/a" in report
    doc = json.loads((tmp_path / "nonpos.certificate.json").read_text())
    assert isinstance(doc["computed"]["constants"]["sigma"], float)
    assert cli.main(["greens", str(f), "--n", "20"]) == 0
    out = capsys.readouterr().out
    assert "positive = False" in out
    assert "sigma = n/a\ndelta = n/a\n" in out
    header = (tmp_path / "nonpos.greens.csv").read_text().split("t,s,G,Gt")[0]
    assert "n/a" not in header
    assert "# sigma = 1.06" in header


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("text", [None, ABOVE_HALF_PERIOD],
                         ids=["closed-form", "numeric"])
def test_greens_n_below_one_is_usage_error(tmp_path, capsys, text, n):
    """--n counts grid intervals: 0 and -1 exit 2 as usage errors on both
    kernel kinds, name the flag, and write no CSV."""
    file = "example41"
    if text:
        file = str(tmp_path / "above.problem")
        Path(file).write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["greens", file, "--n", n])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n: must be a positive integer" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("global_flag", [False, True],
                         ids=["after", "before"])
def test_tol_not_finite_positive_is_usage_error(tmp_path, capsys, tol,
                                                global_flag):
    """--tol must be a finite positive number, before or after the
    subcommand: anything else exits 2 as a usage error, solves nothing
    and writes nothing."""
    argv = (["--tol", tol, "solve", "example41"] if global_flag else
            ["solve", "example41", "--tol", tol])
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --tol: must be a finite positive number" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--x0", "--v0"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "x"])
def test_start_not_finite_is_usage_error(tmp_path, capsys, flag, value):
    """--x0 and --v0 must be finite numbers: anything else exits 2 as a
    usage error and writes nothing.  A nan or infinite --v0 once solved
    to an orbit from a start that was never shot."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "solve", "example41",
                  f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a finite number, not {value!r}" in err
    assert not list(tmp_path.iterdir())


# x'' = -x + 1/x + 3, autonomous, at a period where the last step of a
# shot, clipped to omega, rounded to a hair short of it: the step after it
# underflowed, so every line-search candidate near the orbit failed
AUTONOMOUS = ("omega = 0.2269912058272475\np = 0\nq = 1\nb = 0\nc = 1\n"
              "e = 3\nrho1 = 1\nrho2 = 1\n")


def test_solve_span_ending_short_of_the_period(tmp_path, capsys):
    """The orbit is the equilibrium x = (3 + sqrt 13)/2."""
    path = tmp_path / "autonomous.problem"
    path.write_text(AUTONOMOUS)
    assert cli.main(["--out", str(tmp_path), "--json", "solve",
                     str(path)]) == 0
    orbit = json.loads(capsys.readouterr().out)
    assert orbit["x0"] == pytest.approx((3.0 + math.sqrt(13.0)) / 2.0,
                                        rel=1e-12)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_problem_file_tol_not_positive_exit_2(tmp_path, capsys, value):
    bad = tmp_path / "bad_tol.problem"
    bad.write_text(MERGED_NONNEG + f"tol = {value}\n")
    line = MERGED_NONNEG.count("\n") + 1
    code = cli.main(["--out", str(tmp_path), "solve", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {bad}: line {line}: tol must be positive\n"
    assert list(tmp_path.iterdir()) == [bad]


def test_greens_resonant_exit_1(tmp_path, capsys):
    res = tmp_path / "resonant.problem"
    res.write_text(RESONANT)
    code = cli.main(["greens", str(res)])
    err = capsys.readouterr().err
    assert code == 1
    assert "resonance" in err


def test_solve_outputs_and_determinism(tmp_path, capsys):
    code = cli.main(["solve", "example41", "--json", "--svg",
                     "--out", str(tmp_path / "r1")])
    out1 = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out1)
    assert abs(doc["x0"] - 399.93134103492781) <= 1e-6 * 400.0
    assert doc["periodicity_residual"] <= 1e-8
    assert doc["min_x"] > 0.0

    code = cli.main(["solve", "example41", "--json", "--svg",
                     "--out", str(tmp_path / "r2")])
    out2 = capsys.readouterr().out
    assert code == 0
    assert out1 == out2  # byte-identical reruns

    csv1 = (tmp_path / "r1" / "example41.orbit.csv").read_bytes()
    csv2 = (tmp_path / "r2" / "example41.orbit.csv").read_bytes()
    assert csv1 == csv2
    data = [l for l in csv1.decode().splitlines()
            if l and not l.startswith("#")]
    assert data[0] == "t,x,v"
    assert len(data) == 1 + 2049

    for name, n_poly in (("example41.phase.svg", 1),
                         ("example41.timeseries.svg", 2)):
        text = (tmp_path / "r1" / name).read_text()
        ET.fromstring(text)  # well-formed XML
        assert text.count("<polyline") == n_poly


def test_solve_subfloor_guess_exit_1(capsys):
    code = cli.main(["solve", "example41", "--x0", "1e-9"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("no convergence:")
    assert "start below the guard floor" in err


def test_solve_guard_violation_exit_1(capsys, monkeypatch):
    """A shot past the positivity guard that reaches solve itself, and not
    the search's own stops, is reported as a singularity, exit 1."""
    def failing(problem, args):
        raise IntegrationBlowUp("initial state violates the guard", 0.0,
                                (0.0, 0.0))

    monkeypatch.setattr(cli, "_solve_problem", failing)
    code = cli.main(["solve", "example41"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("singularity: initial state violates the "
                            "guard\n")


def test_solve_respects_tol_flag(tmp_path, capsys):
    code = cli.main(["--tol", "1e-6", "solve", "example41", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["tol"] == 1e-6


def test_reproduce_single_instance(tmp_path, capsys):
    code = cli.main(["reproduce", "4.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[4.3] PASS" in out
    assert "ALL PASS" in out
    # positive-part mean appears with its closed-form reference value
    assert "1.2179955620884" in out
    doc = json.loads((tmp_path / "reproduce.json").read_text())
    assert doc["4.3"]["pass"] is True
    assert doc["4.3"]["theorem"] == "T3.3-II"
    assert doc["4.3"]["checks"]["cone"] is True
    assert set(doc) == {"4.3"}


def test_reproduce_all_prints_both_slope_constants(tmp_path, capsys):
    code = cli.main(["reproduce", "all"])
    out = capsys.readouterr().out
    assert code == 0
    for key in ("4.1", "4.2", "4.3"):
        assert f"[{key}] PASS" in out
    assert "ALL PASS" in out
    # computed slope maximum and the alternative reported constant
    assert "slope max computed 0.5 reference 0.25881904510252079" in out
    doc = json.loads((tmp_path / "reproduce.json").read_text())
    assert set(doc) == {"4.1", "4.2", "4.3"}
    assert all(doc[k]["pass"] for k in doc)


def test_reproduce_ignores_a_file_named_like_a_bundled_instance(tmp_path,
                                                                capsys):
    """A file named example41 that holds example42's text: check reads the
    file, a path coming first, but reproduce 4.1 replays the bundled
    instance."""
    (tmp_path / "example41").write_text(
        (ROOT / "src" / "periorbit" / "problems"
         / "example42.problem").read_text())
    assert cli.main(["check", "example41"]) == 0
    assert "theorem: T3.2" in capsys.readouterr().out
    assert cli.main(["reproduce", "4.1"]) == 0
    out = capsys.readouterr().out
    assert "[4.1] theorem T3.1 (reference T3.1)" in out
    assert "[4.1] PASS" in out


def test_reproduce_reports_a_failed_orbit(tmp_path, capsys, monkeypatch):
    """A bundled instance whose orbit search fails is reported line by
    line, fails reproduce with exit 1, and has no orbit in
    reproduce.json."""
    solve = cli._solve_problem

    def failing(problem, args):
        if problem.name == "example41":
            raise periorbit.NoConvergenceError("no start converged", 1.0)
        return solve(problem, args)

    monkeypatch.setattr(cli, "_solve_problem", failing)
    code = cli.main(["reproduce", "all"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "[4.1] orbit: FAILED (no start converged)" in lines
    assert "[4.1] FAIL (orbit)" in lines
    assert "[4.2] PASS" in lines and "[4.3] PASS" in lines
    assert lines[-1] == "FAILURES PRESENT"
    doc = json.loads((tmp_path / "reproduce.json").read_text())
    assert doc["4.1"]["pass"] is False
    assert doc["4.1"]["checks"]["orbit"] is False
    assert "orbit" not in doc["4.1"]
    assert doc["4.2"]["pass"] is True and "orbit" in doc["4.2"]


def test_reproduce_fails_an_orbit_outside_the_cone(tmp_path, capsys,
                                                   monkeypatch):
    """The cone line is a check: an orbit outside the cone fails reproduce
    as FAIL (cone) with exit 1, and reproduce.json records it."""
    real = cli.cone_check

    def outside(y, sigma, delta):
        return dataclasses.replace(real(y, sigma, delta), in_cone=False)

    monkeypatch.setattr(cli, "cone_check", outside)
    code = cli.main(["reproduce", "4.2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert any(ln.startswith("[4.2] cone membership False") for ln in lines)
    assert "[4.2] FAIL (cone)" in lines
    assert lines[-1] == "FAILURES PRESENT"
    doc = json.loads((tmp_path / "reproduce.json").read_text())
    assert doc["4.2"]["checks"]["cone"] is False
    assert doc["4.2"]["pass"] is False


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
@pytest.mark.parametrize("argv", [["check", "example41"],
                                  ["greens", "example41"],
                                  ["solve", "example41"],
                                  ["reproduce", "4.1"]],
                         ids=lambda argv: argv[0])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, monkeypatch,
                                          argv, via_env):
    """An --out, or a PERIORBIT_OUT, that names an existing regular file
    exits 2 with an error naming the path, before any computation."""
    target = tmp_path / "taken"
    target.write_text("")

    def computed(*args, **kwargs):
        raise AssertionError("computed before the output directory")

    for name in ("certify", "kernel_for", "find_periodic"):
        monkeypatch.setattr(cli, name, computed)
    if via_env:
        monkeypatch.setenv("PERIORBIT_OUT", str(target))
    else:
        argv = ["--out", str(target), *argv]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {target}: not a usable output directory")
    assert target.read_text() == ""


@pytest.mark.parametrize("argv, sidecar", [
    (["check", "example41"], "example41.certificate.json"),
    (["greens", "example41", "--n", "7"], "example41.greens.csv"),
    (["solve", "example41", "--svg"], "example41.phase.svg"),
    (["reproduce", "4.1"], "reproduce.json")],
    ids=["check", "greens", "solve", "reproduce"])
def test_unwritable_sidecar_is_usage_error(tmp_path, capsys, argv, sidecar):
    """A sidecar path that cannot be written, here a directory, exits 2
    with one error line naming the path, not a traceback."""
    target = tmp_path / sidecar
    target.mkdir()
    code = cli.main([*argv, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {target}: cannot write (")
    assert err.endswith(")\n") and err.count("\n") == 1
    assert "Traceback" not in err
    assert target.is_dir()


def test_reproduce_rejects_unknown_id():
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "9.9"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def _checkout_env():
    """The inherited environment, with the source root of the imported
    ``periorbit`` first on ``PYTHONPATH``: a child process then runs the
    code under test even where ``PYTHONPATH`` holds a path relative to the
    directory the suite started in, or where another copy is installed."""
    src = str(Path(periorbit.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def _run(argv):
    return subprocess.run(argv, capture_output=True, text=True,
                          env=_checkout_env())


def test_console_script_entry_point(tmp_path):
    # A console script is a generated wrapper that imports the declared
    # object and exits with what it returns; run the declared entry point
    # that way, from the checkout, with nothing installed.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["periorbit"]
    module, attr = target.split(":")
    script = [sys.executable, "-c",
              f"import sys; from {module} import {attr}; sys.exit({attr}())"]

    proc = _run(script + ["check", "example41"])
    assert proc.returncode == 0, proc.stderr
    assert "verdict: TRUE" in proc.stdout
    assert (tmp_path / "example41.certificate.json").exists()
    # README: the console script is equivalent to ``python3 -m periorbit.cli``
    as_module = _run([sys.executable, "-m", "periorbit.cli",
                      "check", "example41"])
    assert as_module.returncode == 0, as_module.stderr
    assert as_module.stdout == proc.stdout

    res = tmp_path / "resonant.problem"
    res.write_text(RESONANT)
    proc = _run(script + ["check", str(res)])
    assert proc.returncode == 1, proc.stderr
    assert "theorem: NONE" in proc.stdout

    proc = _run(script + ["check", "nosuch"])
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.skipif(shutil.which("periorbit") is None,
                    reason="periorbit console script not on PATH")
def test_installed_console_script():
    proc = _run([shutil.which("periorbit"), "check", "example41"])
    assert proc.returncode == 0, proc.stderr
    assert "verdict: TRUE" in proc.stdout
