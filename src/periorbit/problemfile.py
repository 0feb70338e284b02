"""Plain-text problem files: one `key = value` pair per line.

Required keys: omega, p, q, b, c, e, rho1, rho2.  Optional: a1 (auxiliary
weight for the factorization positivity criterion), guess_x0, guess_v0
(shooting start), tol (periodicity tolerance).  Values are expressions in
the variable t for the coefficient keys and constant expressions (pi and
arithmetic allowed, no t) for the scalar keys.  Blank lines and lines
starting with '#' are ignored.  Errors carry the 1-based line number.

Parsing folds the constant parts of a value, so a scalar's value is read
off its tree and 1/0 is a parse error with its column.  A coefficient is
constant exactly when its value has no t; only p = 0 with a constant q can
select the closed-form kernel (greens.kernel_for).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

from .expressions import Const, ParseError, PeriodicCoeff, parse_expression
from .hypotheses import ProblemSpec, ValidationError

_COEFF_KEYS = ("p", "q", "b", "c", "e", "a1")
_SCALAR_KEYS = ("omega", "rho1", "rho2", "guess_x0", "guess_v0", "tol")
_REQUIRED = ("omega", "p", "q", "b", "c", "e", "rho1", "rho2")


class ProblemFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class LoadedProblem:
    spec: ProblemSpec
    a1: PeriodicCoeff | None
    guess_x0: float | None
    guess_v0: float | None
    tol: float | None
    sha256: str
    name: str
    lines: dict             # each key's line in the text


def _scalar(text: str, key: str, line: int) -> float:
    """key's value, which must be free of t: parsing folds it to one
    Const, whose value is read off the tree."""
    try:
        expr = parse_expression(text)
    except ParseError as err:
        raise ProblemFileError(f"{key}: {err}", line) from err
    if type(expr) is not Const:
        raise ProblemFileError(f"{key} must be a constant (found t)", line)
    if not math.isfinite(expr.value):
        raise ProblemFileError(f"{key}: value {expr.value} is not finite",
                               line)
    return expr.value


def parse_problem_text(text: str, name: str = "<string>") -> LoadedProblem:
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ProblemFileError("expected 'key = value'", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _COEFF_KEYS and key not in _SCALAR_KEYS:
            raise ProblemFileError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ProblemFileError(
                f"duplicate key {key!r} (first seen on line {raw[key][1]})",
                lineno)
        if not value:
            raise ProblemFileError(f"empty value for {key!r}", lineno)
        raw[key] = (value, lineno)

    for key in _REQUIRED:
        if key not in raw:
            raise ProblemFileError(f"missing required key {key!r}")

    omega = _scalar(raw["omega"][0], "omega", raw["omega"][1])
    if not (omega > 0.0):
        raise ProblemFileError("omega must be positive", raw["omega"][1])

    coeffs: dict[str, PeriodicCoeff] = {}
    for key in _COEFF_KEYS:
        if key not in raw:
            continue
        value, lineno = raw[key]
        try:
            coeffs[key] = PeriodicCoeff(parse_expression(value), omega)
        except Exception as err:
            raise ProblemFileError(f"{key}: {err}", lineno) from err

    scalars: dict[str, float] = {}
    for key in ("rho1", "rho2", "guess_x0", "guess_v0", "tol"):
        if key in raw:
            scalars[key] = _scalar(raw[key][0], key, raw[key][1])

    if "tol" in scalars and not scalars["tol"] > 0.0:
        raise ProblemFileError("tol must be positive", raw["tol"][1])

    lines = {key: lineno for key, (_, lineno) in raw.items()}
    try:
        spec = ProblemSpec(p=coeffs["p"], q=coeffs["q"], b=coeffs["b"],
                           c=coeffs["c"], e=coeffs["e"],
                           rho1=scalars["rho1"], rho2=scalars["rho2"],
                           omega=omega)
    except ValidationError as err:
        raise ProblemFileError(str(err), lines.get(err.key)) from err

    return LoadedProblem(
        spec=spec,
        a1=coeffs.get("a1"),
        guess_x0=scalars.get("guess_x0"),
        guess_v0=scalars.get("guess_v0"),
        tol=scalars.get("tol"),
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        name=name,
        lines=lines,
    )


def load_problem(path) -> LoadedProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ProblemFileError(f"cannot read {path}: {err}") from err
    base = os.path.basename(str(path))
    stem = base[:-8] if base.endswith(".problem") else base
    return parse_problem_text(text, name=stem)
