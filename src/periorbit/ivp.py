"""Adaptive explicit Runge-Kutta integration, Dormand-Prince 5(4) pair.

Embedded 4th-order error estimate drives step control; the free 4th-order
interpolant of the pair provides dense output on accepted steps, for the
error-controlled components (the first norm_dims) only.  A guard can
veto states (stage values included): a vetoed step is halved rather than
error-controlled, and step underflow raises IntegrationBlowUp carrying
the last valid state.

The systems integrated here are small (the 2-dimensional shooting system,
the 6-dimensional shooting system with its variational equations, the
4-dimensional fundamental matrix), where numpy's per-call overhead on
tiny arrays costs more than the arithmetic, and so does a Python call
and a list per stage.  So the step loop is generated: its source writes
every stage, error and dense-output expression out for each component,
on scalar local floats, and takes the right-hand side as a Field, the
source of one slope evaluation, of the coefficient reads it takes from
the stage time and of its guard test on a stage's locals, so slopes and
guard cost no call of their own.  A loop is compiled on the first
integration of each (dimension, error-norm width, dense, field name,
field mask) and cached in _LOOPS; nothing is generated at import.  numpy appears only at the boundary, in IvpResult.y,
IntegrationBlowUp.y and the dense coefficients.  Neither the step-size
clamps nor the error scales call a builtin: a min or max call per clamp
cost about a fifth of a short shot.  Each clamp is a conditional
expression that returns exactly what min or max returns, ties and NaN
included, and each error scale |a| is written a if a > 0.0 else -a,
which is abs(a) up to the sign of a zero that atol + rtol * |a| does
not see.

Characteristics
---------------
order            : 5 (local error estimated by a 4th-order companion)
stages           : 7, first-same-as-last
dense output     : quartic polynomial per step, O(h^5) accurate
step control     : err^(-1/5) with safety 0.9, growth clamped to [0.2, 5]

References
----------
Dormand, Prince, "A family of embedded Runge-Kutta formulae" (1980).
Hairer, Norsett, Wanner, "Solving Ordinary Differential Equations I",
Sections II.4-5.
"""

from __future__ import annotations

import linecache
import math
from array import array
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .expressions import compiled


class IntegrationBlowUp(RuntimeError):
    """Step size underflowed; .t and .y hold the last accepted state."""

    def __init__(self, message: str, t: float, y: np.ndarray):
        super().__init__(message)
        self.t = t
        self.y = y


# Dormand-Prince tableau; zero entries are left out.  The 5th-order weights
# equal row 7 of A (FSAL), the error weights E are b5 - b4, and D holds
# the weights of the quartic dense-output interpolant.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_A71, _A73, _A74, _A75, _A76 = (35 / 384, 500 / 1113, 125 / 192,
                                -2187 / 6784, 11 / 84)
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


@dataclass
class DenseSolution:
    """Piecewise-quartic interpolant over the accepted steps."""

    t0: float
    t1: float
    lefts: np.ndarray          # (nsteps,) left edge of each step
    widths: np.ndarray         # (nsteps,)
    coef: np.ndarray           # (nsteps, 5, norm_dims)

    def __post_init__(self):
        slack = 1e-12 * (self.t1 - self.t0 + 1.0)
        self._span = (self.t0 - slack, self.t1 + slack)
        # searching the inner edges gives each query its step index,
        # already clamped to [0, nsteps - 1]
        self._inner = self.lefts[1:]

    def __call__(self, t):
        """The interpolant at the 1-D array t, one row per query."""
        tq = np.asarray(t, dtype=float)
        lo, hi = self._span
        if tq.size and (tq.min() < lo or tq.max() > hi):
            raise ValueError("dense evaluation outside the integrated span")
        idx = np.searchsorted(self._inner, tq, side="right")
        theta = tq - self.lefts[idx]
        theta /= self.widths[idx]
        np.maximum(theta, 0.0, out=theta)
        np.minimum(theta, 1.0, out=theta)
        theta = theta[:, None]
        one = 1.0 - theta
        c = self.coef[idx]
        # c0 + theta (c1 + one (c2 + theta (c3 + one c4))), in place
        out = one * c[:, 4]
        out += c[:, 3]
        out *= theta
        out += c[:, 2]
        out *= one
        out += c[:, 1]
        out *= theta
        out += c[:, 0]
        return out


@dataclass
class IvpResult:
    t: float
    y: np.ndarray
    dense: DenseSolution | None
    nsteps: int
    nfev: int
    rejected: int
    guard_rejections: int


def _initial_step(span: float, max_step: float) -> float:
    return min(span / 100.0, max_step, span)


@dataclass(frozen=True)
class Field:
    """A right-hand side y' = f(t, y) as step-loop source.

    slopes(p, y, when) returns the source lines that set the slope names p
    from the state names y at time `when`, an expression.  reads(when)
    returns the lines (none by default), written before them, that read
    what the slopes take from that time (the coefficient values).  The
    loop writes them once per distinct stage time: stage 7 is taken at
    t + h as stage 6 is (c6 = c7 = 1), so its slopes use stage 6's reads,
    though they still get their own stage's time.  veto(y) returns an
    expression that is true where the guard rejects the state y, or None
    when no state is rejected: slopes are only ever taken on states that
    passed it.  Every other name the source reads is a key of args,
    and the loop takes args' values as its trailing arguments.  name and
    mask identify the source: fields that share them write the same lines
    for the same names."""

    name: str
    mask: tuple
    slopes: Callable[[list, list, str], list]
    veto: Callable[[list], str] | None
    args: dict
    reads: Callable[[str], list] = lambda when: []


def source_sum(*terms) -> str:
    """The source of a sum of signed terms, left to right: each term is a
    pair of a sign, "+" or "-", and an expression, or of a sign and None
    (or "") for a term that is left out.  "0.0" when every term is."""
    kept = [(sign, term) for sign, term in terms if term]
    if not kept:
        return "0.0"
    (sign, head), rest = kept[0], kept[1:]
    return ("-" if sign == "-" else "") + head + "".join(
        f" {sign} {term}" for sign, term in rest)


def coefficient_field(name: str, coeffs: dict, write, veto=None,
                      **floats) -> Field:
    """The Field `name` of the coefficients coeffs, a dict from a name k
    to a PeriodicCoeff, and the float arguments floats.

    write(p, y, *reads) returns the lines that set the slope names p from
    the state names y, reads holding what each coefficient's terms read.
    The mask holds per coefficient 0 where it varies in t: the loop takes
    its compiled scalar function as _k and calls it once per stage time
    into the local kt, its read; 1 where it is a nonzero constant, the
    float argument and read _k; and 2 where it is the constant 0, which
    reads None, so each term it scales is a zero left out (source_sum)."""
    mask, args, reads = [], dict(floats), []
    for k, coeff in coeffs.items():
        value = coeff.constant
        mask.append(0 if value is None else 2 if value == 0.0 else 1)
        if value != 0.0:
            args[f"_{k}"] = compiled(coeff.expr) if value is None else value
        reads.append(f"{k}t" if value is None else f"_{k}" if value else None)
    calls = [f"{k}t = _{k}(ts)" for k, bit in zip(coeffs, mask) if bit == 0]

    def read_at(when):
        return [f"ts = {when}", *calls] if calls else []

    return Field(name, tuple(mask), lambda p, y, when: write(p, y, *reads),
                 veto, args, read_at)


def phi_slopes(k: list, phi: list, a: tuple, p: str | None) -> list:
    """The lines that set the slope names k of a fundamental matrix
    Phi = ((u, w), (u', w')), stored row-major in the names phi, under
    Phi' = ((0, 1), (a, -p)) Phi.  a is a signed term, (sign, expression),
    and p an expression, each left out where None (source_sum)."""
    u, w, du, dw = phi
    sign, a = a
    row = lambda z, dz: source_sum((sign, a and f"{a} * {z}"),
                                   ("-", p and f"{p} * {dz}"))
    return [f"{k[0]} = {du}", f"{k[1]} = {dw}",
            f"{k[2]} = {row(u, du)}", f"{k[3]} = {row(w, dw)}"]


def eigvals_2x2(m) -> tuple[complex, complex]:
    """The eigenvalues of the row-major 2x2 matrix m, the larger-modulus
    one first up to rounding; their product is det m.  Taken of M - I or
    M + I, formed from M's entries, they keep their digits where M's own
    eigenvalues, near 1 or -1, would lose half of them to cancellation."""
    half = 0.5 * (m[0] + m[3])
    det = m[0] * m[3] - m[1] * m[2]
    disc = half * half - det
    if disc < 0.0:
        root = math.sqrt(-disc)
        return complex(half, root), complex(half, -root)
    big = half + math.copysign(math.sqrt(disc), half)
    return complex(big), complex(det / big if big else 0.0)


# ---------------------------------------------------------------------------
# the step loop, generated per (n, m, dense, field): state dimension,
# number of error-controlled components, dense output or not, and the
# right-hand side
#
# In the generated source a_i is the state, pj_i the j-th slope and yj_i
# the j-th stage state of component i.  Each tableau expression keeps the
# association order of the one-component formula, so states, steps and
# counters do not depend on the dimension the loop was written for.  The
# source is registered with linecache under the loop's filename, so
# tracebacks and profiles through it show the generated lines.
#
# The loop reads the tableau, the step-control constants and sqrt as
# locals: keyword-only parameters whose defaults are bound when the loop
# is compiled.  A clamp min(a, b) is written b if b < a else a (or
# `if b < a: a = b`), max(a, b) b if b > a else a, and abs(a)
# a if a > 0.0 else -a.

# per stage s = 2..7: the time of its slope and the weights A[s] of the
# earlier slopes in its state (None for a zero entry)
_STAGES = (
    ("t + _C2 * h", ("_A21",)),
    ("t + _C3 * h", ("_A31", "_A32")),
    ("t + _C4 * h", ("_A41", "_A42", "_A43")),
    ("t + _C5 * h", ("_A51", "_A52", "_A53", "_A54")),
    ("t + h", ("_A61", "_A62", "_A63", "_A64", "_A65")),
    ("t + h", ("_A71", None, "_A73", "_A74", "_A75", "_A76")),
)
_ERROR = ("_E1", None, "_E3", "_E4", "_E5", "_E6", "_E7")
_DENSE = ("_D1", None, "_D3", "_D4", "_D5", "_D6", "_D7")

_LOOPS: dict = {}  # (n, m, dense, field name, field mask) -> compiled loop


def _step_loop(n: int, m: int, dense: bool, field: Field):
    """The step loop for n components, the first m error-controlled."""
    key = (n, m, dense, field.name, field.mask)
    loop = _LOOPS.get(key)
    if loop is None:
        mask = "".join(str(int(bit)) for bit in field.mask)
        filename = (f"<dp5 loop n={n} m={m} dense={dense} "
                    f"field={field.name} mask={mask}>")
        source = _loop_source(n, m, dense, field)
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        # the loop is defined in a copy of this module's namespace, which
        # its defaults and its IntegrationBlowUp are read from, and is
        # taken out of it afterwards
        names = dict(globals())
        exec(compile(source, filename, "exec"), names)
        loop = _LOOPS[key] = names.pop("_loop")
    return loop


def _loop_source(n: int, m: int, dense: bool, field: Field) -> str:
    comps = range(n)

    def each(fmt: str, count: int = n) -> str:
        """fmt filled in for the first count components, each followed by a
        comma, so that one component still makes a tuple."""
        return " ".join(fmt.format(i=i) + "," for i in range(count))

    def combo(weights, i: int) -> str:
        return " + ".join(f"{w} * p{j}_{i}"
                          for j, w in enumerate(weights, 1) if w)

    def names(prefix: str) -> list:
        return [f"{prefix}_{i}" for i in comps]

    def indented(block, depth: int) -> list:
        return [" " * depth + line for line in block]

    def bound(group) -> str:
        return " ".join(f"{name}={name}," for name in group if name)

    state = each("a_{i}")
    lines = [
        "def _loop(t, t1, h, hmin, max_step, rtol, atol, y, lefts, widths,",
        f"          {', '.join(('coefs', *field.args))}, *,",
        f"          {bound(('_C2', '_C3', '_C4', '_C5'))}",
        *(f"          {bound(weights)}" for _, weights in _STAGES),
        *(f"          {bound(weights)}"
          for weights in ((_ERROR, _DENSE) if dense else (_ERROR,))),
        f"          {bound(('_MIN_FACTOR', '_MAX_FACTOR', '_SAFETY'))}",
        "          _sqrt=math.sqrt):",
        f"    {state} = y",
    ]
    if field.veto:
        lines += [
            f"    if {field.veto(names('a'))}:",
            "        raise IntegrationBlowUp(\"initial state violates the "
            "guard\",",
            f"                                t, np.array([{state}]))",
        ]
    lines += indented(field.reads("t") + field.slopes(names("p1"),
                                                      names("a"), "t"), 4)
    lines += [
        "    nfev = 1",
        "    nsteps = rejected = guard_rejections = 0",
        # a step ending within hmin of t1 ends on t1 exactly: t + h could
        # round to a hair short of t1, where the next step underflows
        "    while t < t1:",
        "        last = t1 - t < h + hmin",
        "        if last:",
        "            h = t1 - t",
        "        if h < hmin:",
        "            raise IntegrationBlowUp(",
        "                f\"step size underflow near t = {t:.12g}\", t,",
        f"                np.array([{state}]))",
    ]
    read_when = None
    for s, (when, weights) in enumerate(_STAGES, 2):
        lines += [f"        y{s}_{i} = a_{i} + h * ({combo(weights, i)})"
                  for i in comps]
        if field.veto:
            lines.append(f"        if {field.veto(names(f'y{s}'))}:")
            if s > 2:
                lines.append(f"            nfev += {s - 2}")
            lines += [
                "            h *= 0.5",
                "            guard_rejections += 1",
                "            continue",
            ]
        # stage 7 shares stage 6's time, and so its reads
        reads = [] if when == read_when else field.reads(when)
        read_when = when
        lines += indented(reads + field.slopes(names(f"p{s}"),
                                               names(f"y{s}"), when), 8)
    lines.append("        nfev += 6")
    for i in range(m):
        lines += [
            f"        s0 = a_{i} if a_{i} > 0.0 else -a_{i}",
            f"        s7 = y7_{i} if y7_{i} > 0.0 else -y7_{i}",
            f"        r = (h * ({combo(_ERROR, i)})",
            "             / (atol + rtol * (s7 if s7 > s0 else s0)))",
            f"        err {'+' if i else ''}= r * r",
        ]
    lines += [
        f"        err = _sqrt(err / {m})",
        "        if err <= 1.0:",
    ]
    if dense:
        for i in range(m):
            lines += [
                f"            dy_{i} = y7_{i} - a_{i}",
                f"            r3_{i} = h * p1_{i} - dy_{i}",
                f"            r4_{i} = dy_{i} - h * p7_{i} - r3_{i}",
                f"            r5_{i} = h * ({combo(_DENSE, i)})",
            ]
        lines += [
            "            coefs.extend((",
            *(f"                {each(part + '_{i}', m)}"
              for part in ("a", "dy", "r3", "r4", "r5")),
            "            ))",
            "            lefts.append(t)",
            "            widths.append(h)",
        ]
    lines += [
        "            t = t1 if last else t + h",
        f"            {state} = {each('y7_{i}')}",
        f"            {each('p1_{i}')} = {each('p7_{i}')}",
        "            nsteps += 1",
        # no floor: an accepted step has err <= 1, so the factor
        # _SAFETY * err ** -0.2 is at least 0.9 > _MIN_FACTOR, and
        # err = 0 gives _MAX_FACTOR
        "            if err == 0.0:",
        "                factor = _MAX_FACTOR",
        "            else:",
        "                g = _SAFETY * err ** -0.2",
        "                factor = g if g < _MAX_FACTOR else _MAX_FACTOR",
        "            h *= factor",
        "            if max_step < h:",
        "                h = max_step",
        "        else:",
        "            rejected += 1",
        "            g = _SAFETY * err ** -0.2",
        "            h *= g if g > _MIN_FACTOR else _MIN_FACTOR",
        f"    return t, [{state}], nsteps, nfev, rejected, guard_rejections",
    ]
    return "\n".join(lines) + "\n"


def solve_ivp_dp(field: Field, t0: float, y0, t1: float,
                 rtol: float = 1e-10, atol: float = 1e-12,
                 dense: bool = False, max_step: float = np.inf,
                 norm_dims: int | None = None) -> IvpResult:
    """Integrate the field's y' = f(t, y) from t0 to t1, where t1 > t0.

    The right-hand side is only ever evaluated on states that passed the
    field's guard, so it may safely evaluate inverse powers of components
    the guard keeps positive.  A start that fails the guard raises
    IntegrationBlowUp.

    The error norm runs over the first norm_dims components (default:
    all).  Components past them ride along uncontrolled: when they do not
    feed back into the leading ones, as a variational system does not,
    the leading components and the step sequence are those of the leading
    system integrated alone, bit for bit.  Dense output, too, covers the
    first norm_dims components only: the interpolant of a variational
    shot is that of its leading system.
    """
    if not t1 > t0:
        raise ValueError(f"t1 = {t1!r} must exceed t0 = {t0!r}")
    y = np.asarray(y0, dtype=float).tolist()
    n = len(y)
    m = n if norm_dims is None else norm_dims
    if not 0 < m <= n:
        raise ValueError(f"norm_dims must lie in [1, {n}], not {norm_dims}")

    span = t1 - t0
    # per accepted step: y, dy, r3, r4, r5 of the first m components,
    # packed as C doubles
    lefts, widths, coefs = [], [], array("d")
    loop = _step_loop(n, m, dense, field)
    t, y, nsteps, nfev, rejected, guard_rejections = loop(
        t0, t1, _initial_step(span, max_step), 1e-14 * span, max_step,
        rtol, atol, y, lefts, widths, coefs, *field.args.values())

    sol = None
    if dense:
        sol = DenseSolution(t0, t1, np.asarray(lefts), np.asarray(widths),
                            np.array(coefs).reshape(nsteps, 5, m))
    return IvpResult(t, np.array(y, dtype=float), sol, nsteps, nfev,
                     rejected, guard_rejections)
