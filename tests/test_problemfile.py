"""Plain-text problem file parsing: happy path, optional keys, line errors."""

import hashlib
import math

import pytest

from conftest import OMEGA
from periorbit import ProblemFileError, load_problem, parse_problem_text

FULL = """\
# demo problem with all optional keys
omega = 2*pi/3
p = 0
q = 1/40
b = 1+2*cos(3*t)
c = exp(2*sin(3*t))
e = 10+cos(3*t)
rho1 = 3/2
rho2 = 13/10

a1 = 1
guess_x0 = 410
guess_v0 = -1/2
tol = 1/100000000
"""


def test_parse_full_file():
    prob = parse_problem_text(FULL, name="demo")
    assert prob.name == "demo"
    assert prob.spec.omega == pytest.approx(OMEGA, rel=1e-15)
    assert prob.spec.rho1 == pytest.approx(1.5)
    assert prob.spec.rho2 == pytest.approx(1.3)
    assert prob.spec.b(0.0) == pytest.approx(3.0)
    assert prob.spec.c(0.0) == pytest.approx(1.0)
    assert prob.a1 is not None and prob.a1(0.3) == pytest.approx(1.0)
    assert prob.guess_x0 == pytest.approx(410.0)
    assert prob.guess_v0 == pytest.approx(-0.5)
    assert prob.tol == pytest.approx(1e-8)
    # content hash is the SHA-256 of the raw text
    assert prob.sha256 == hashlib.sha256(FULL.encode("utf-8")).hexdigest()


def test_parse_minimal_file_defaults():
    minimal = "\n".join([
        "omega = 2*pi/3", "p = 0", "q = 1/40", "b = 1+2*cos(3*t)",
        "c = exp(2*sin(3*t))", "e = 10+cos(3*t)", "rho1 = 3/2", "rho2 = 2",
    ])
    prob = parse_problem_text(minimal)
    assert prob.a1 is None
    assert prob.guess_x0 is None and prob.guess_v0 is None and prob.tol is None
    assert prob.name == "<string>"


def _replace_line(key, new_line):
    lines = FULL.splitlines()
    out = []
    for line in lines:
        if line.split("=")[0].strip() == key:
            out.append(new_line)
        else:
            out.append(line)
    return "\n".join(out)


def test_missing_required_key():
    text = "\n".join(l for l in FULL.splitlines()
                     if not l.startswith("rho2"))
    with pytest.raises(ProblemFileError, match="missing required key 'rho2'"):
        parse_problem_text(text)


def test_duplicate_key_reports_both_lines():
    text = FULL + "q = 1/40\n"
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_text(text)
    assert "duplicate key 'q'" in str(exc.value)
    assert "line 4" in str(exc.value)  # first occurrence
    assert exc.value.line == 15


def test_unknown_key_with_line_number():
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_text(FULL + "flux = 3\n")
    assert exc.value.line == 15
    assert "unknown key 'flux'" in str(exc.value)


def test_line_without_equals():
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_text("omega 2*pi/3\n")
    assert exc.value.line == 1
    assert "expected 'key = value'" in str(exc.value)


def test_empty_value():
    with pytest.raises(ProblemFileError, match="empty value for 'p'"):
        parse_problem_text(_replace_line("p", "p ="))


def test_bad_expression_carries_line():
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_text(_replace_line("b", "b = 1+*cos(3*t)"))
    assert exc.value.line == 5
    assert "b:" in str(exc.value)


@pytest.mark.parametrize("name", ["log", "sqrt", "abs"])
def test_unsupported_functions_rejected(name):
    with pytest.raises(ProblemFileError, match="unknown name"):
        parse_problem_text(_replace_line("b", f"b = 2+{name}(2+cos(3*t))"))


def test_scalar_must_not_depend_on_time():
    with pytest.raises(ProblemFileError, match="rho1 must be a constant"):
        parse_problem_text(_replace_line("rho1", "rho1 = 3/2+t"))


def test_omega_must_be_positive():
    with pytest.raises(ProblemFileError, match="omega must be positive") as exc:
        parse_problem_text(_replace_line("omega", "omega = -1"))
    assert exc.value.line == 2


def test_nonperiodic_coefficient_rejected_with_line():
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_text(_replace_line("b", "b = cos(t)"))
    assert exc.value.line == 5
    assert "periodic" in str(exc.value)


def test_validation_error_is_wrapped():
    with pytest.raises(ProblemFileError, match="c must be positive"):
        parse_problem_text(_replace_line("c", "c = cos(3*t)"))


def test_load_problem_from_disk(tmp_path):
    path = tmp_path / "demo.problem"
    path.write_text(FULL, encoding="utf-8")
    prob = load_problem(path)
    assert prob.name == "demo"
    assert prob.spec.rho2 == pytest.approx(1.3)


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(ProblemFileError, match="cannot read"):
        load_problem(tmp_path / "absent.problem")


def test_bundled_examples_parse():
    from importlib import resources

    for stem, rho2 in (("example41", 1.3), ("example42", 2.0),
                       ("example43", 1.5)):
        text = (resources.files("periorbit") / "problems" /
                f"{stem}.problem").read_text(encoding="utf-8")
        prob = parse_problem_text(text, name=stem)
        assert prob.spec.rho1 == pytest.approx(1.5)
        assert prob.spec.rho2 == pytest.approx(rho2)
        assert prob.spec.omega == pytest.approx(OMEGA, rel=1e-15)
