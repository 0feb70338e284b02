"""Expression trees for periodic coefficient functions.

Supported node kinds: real constants, the time variable t, negation, sums,
products, powers with rational exponents, sine, cosine and the exponential.
The text grammar accepts infix + - * / ^, the functions sin/cos/exp, the
variable t, the constant pi and numeric literals.  Division lowers to a
power with exponent -1 and subtraction to an added negation, so the node
set above is closed under parsing and differentiation.

Parsing folds every constant part to one Const (sin, cos and exp through
math), so a parsed tree free of t is a single Const and
PeriodicCoeff.constant reads constancy off the tree.  A constant power out
of its domain, such as (-2)^(1/2) or 1/0, is a ParseError at its ^ or /.

Rational exponents are stored as fractions.Fraction (integer pairs) rather
than floats: exponent arithmetic in the calling code stays drift-free and
the integer/fractional distinction drives the domain rule for powers
(a fractional power demands a strictly positive base).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quadrature import golden_min, integrate_adaptive


class ExpressionError(ValueError):
    pass


class EvalDomainError(ExpressionError):
    """Evaluation left a node's domain (fractional power of a non-positive
    base) or the float range."""


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class PeriodicityError(ExpressionError):
    """A coefficient failed the period check on the verification grid."""


# ---------------------------------------------------------------------------
# nodes


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return _add(self, other) if isinstance(other, Expr) else NotImplemented

    def __neg__(self):
        return _neg(self)

    def __getstate__(self):
        # compiled code and functions (see `compiled`) are rebuilt on demand
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_code", "_scalar_fn", "_array_fn")}


@dataclass(frozen=True)
class Const(Expr):
    value: float
    # exact rational value when known (literals, folded literal arithmetic);
    # consulted only when a parsed exponent must be certified rational
    exact: Fraction | None = None


@dataclass(frozen=True)
class TimeVar(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


# folding constructors; they keep derivative trees small without doing any
# general rewriting
def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        exact = a.exact + b.exact if a.exact is not None and b.exact is not None else None
        return Const(a.value + b.value, exact)
    return Add(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0, Fraction(0))
        if a.value == 1.0:
            return b
        if isinstance(b, Const):
            exact = a.exact * b.exact if a.exact is not None and b.exact is not None else None
            return Const(a.value * b.value, exact)
    if isinstance(b, Const) and not isinstance(a, Const):
        return _mul(b, a)
    return Mul(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value, -a.exact if a.exact is not None else None)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(base: Expr, exponent: Fraction) -> Expr:
    """base^exponent; a constant base outside the power's domain raises
    EvalDomainError, as evaluating the power would."""
    if exponent == 0:
        return Const(1.0, Fraction(1))
    if exponent == 1:
        return base
    if type(base) is not Const:
        return Pow(base, exponent)
    x = base.value
    if exponent.denominator == 1:
        if base.exact is not None and (base.exact != 0 or exponent > 0):
            return _exact_power(base.exact, exponent.numerator)
        if x == 0.0 and exponent < 0:
            raise EvalDomainError(f"zero base raised to power {exponent}")
    elif x <= 0.0:
        raise EvalDomainError(
            f"fractional power {exponent} of a non-positive base")
    try:
        return Const(math.pow(x, float(exponent)))
    except OverflowError:
        odd = exponent.denominator == 1 and exponent.numerator % 2 == 1
        return Const(-math.inf if x < 0.0 and odd else math.inf)


# An exact power is computed only up to this many bits: past it, its float
# is beyond the float range anyway (overflow past 2^1024, underflow below
# 2^-1075), and the exact integers would cost time growing with the
# exponent.
_EXACT_POWER_BITS = 1 << 16


def _exact_power(x: Fraction, n: int) -> Const:
    """x^n folded to a Const (x = 0 only with n > 0).  A power whose bit
    length |n log2|x|| passes _EXACT_POWER_BITS folds straight to +-inf or
    +-0.0, and one whose exact integers would pass it (a base near +-1,
    where log2|x| reads about 0) folds through floats; neither keeps an
    exact value.  Any other keeps its exact value."""
    negative = x < 0 and n % 2 == 1
    log2x = (math.log2(abs(x.numerator)) - math.log2(x.denominator)
             if x != 0 else 0.0)
    if log2x:
        try:
            bits = abs(n * log2x)
        except OverflowError:  # n past the float range
            bits = math.inf
        if bits > _EXACT_POWER_BITS:
            value = math.inf if (n > 0) == (log2x > 0) else 0.0
            return Const(-value if negative else value)
    # about the bit length of the larger integer of x^n; 0 for 0 and +-1
    size = abs(n) * (max(x.numerator.bit_length(),
                         x.denominator.bit_length()) - 1)
    if size > _EXACT_POWER_BITS:
        try:
            value = math.exp(n * math.log1p(float(abs(x) - 1)))
        except OverflowError:  # exp, or n past the float range
            value = math.inf if (n > 0) == (abs(x) > 1) else 0.0
        return Const(-value if negative else value)
    exact = x ** n
    try:
        value = float(exact)
    except OverflowError:  # as the literal 1e400 does
        value = -math.inf if negative else math.inf
    return Const(value, exact)


# ---------------------------------------------------------------------------
# evaluation
#
# Each tree is compiled into the code of a Python function whose body is
# the tree as one fully parenthesised expression.  It performs the same
# operations in the same order as a recursive walk, so its values are
# bit-identical to one, and it frees each intermediate array as soon as it
# is consumed.  The code names its functions (_sin, _cos, _exp and the
# rational powers) and every constant (_k0, _k1, ...) as globals, so its
# source depends only on the tree's shape: one code object serves every
# tree of that shape, from a bounded cache keyed by the source, and each
# tree binds it twice with its own constants, to math.sin/cos/exp for
# floats and to the numpy ufuncs for arrays.  A subtree nested deeper than
# _MAX_NESTING is first assigned to a local: Python's parser accepts at
# most 200 nested parentheses.  So is a subtree that the tree reaches along
# more than one path (a derivative reuses the factors of a product), at the
# point where the walk first evaluates it; later references read the local,
# where the walk would compute the same value again.  The source then grows
# with the distinct nodes, not with the paths.

_MAX_NESTING = 100
_CODE_CACHE = 512  # code objects kept, one per tree shape


def evaluate(expr: Expr, t):
    """Evaluate expr at a scalar t or elementwise at a numpy array."""
    if isinstance(t, np.ndarray):
        result = compiled(expr, array=True)(t)
        if np.ndim(result) == 0:
            return np.full(t.shape, float(result))
        return result
    return compiled(expr)(t)


def compiled(expr: Expr, array: bool = False):
    """The function t -> value of expr, built on first use and cached on
    the tree's root node: for a float t, or (array=True) elementwise for a
    numpy array t, where a subtree free of t still yields a scalar.  Both
    bind the same code, that of the tree's shape, kept on the root as
    _code with the tree's constants."""
    slot = "_array_fn" if array else "_scalar_fn"
    fn = getattr(expr, slot, None)
    if fn is None:
        if getattr(expr, "_code", None) is None:
            object.__setattr__(expr, "_code", _compile(expr))
        code, constants = expr._code
        names = {**(_ARRAY_NAMES if array else _SCALAR_NAMES), **constants}
        exec(code, names)
        # taken out of its own globals, so that no reference cycle keeps a
        # dead function alive until the next full collection
        fn = names.pop("_f")
        object.__setattr__(expr, slot, fn)
    return fn


def _rational_powers(test):
    """base ** x for a rational exponent q (x = float(q)) behind its domain
    rule: a fractional power needs a positive base, a negative integer one
    a nonzero base.  test folds the comparison into one truth value."""

    def fractional(base, x, q):
        if test(base <= 0.0):
            raise EvalDomainError(
                f"fractional power {q} of a non-positive base")
        return base ** x

    def negative(base, x, q):
        if test(base == 0.0):
            raise EvalDomainError(f"zero base raised to power {q}")
        return base ** x

    return {"_fpow": fractional, "_npow": negative}


_SCALAR_NAMES = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp,
                 **_rational_powers(bool)}
_ARRAY_NAMES = {"_sin": np.sin, "_cos": np.cos, "_exp": np.exp,
                **_rational_powers(np.any)}
_UFUNC = {Sin: "_sin", Cos: "_cos", Exp: "_exp"}


def _compile(expr: Expr):
    """The code object that defines _f(t), shared by every tree of expr's
    shape, and the constants it reads by name."""
    constants: dict[str, float] = {}
    spills: list[str] = []
    shared = _shared_nodes(expr)
    spilled: dict[int, str] = {}

    def spill(code: str, at: int | None = None) -> str:
        name = f"v{len(spills)}"
        line = f"    {name} = {code}\n"
        spills.insert(len(spills) if at is None else at, line)
        return name

    def emit(e: Expr) -> tuple[str, int]:
        """Source of e and its parenthesis nesting depth."""
        kind = type(e)
        if kind is TimeVar:
            return "t", 0
        if kind is Const:
            name = f"_k{len(constants)}"
            constants[name] = e.value
            return name, 0
        if id(e) in spilled:
            return spilled[id(e)], 0
        if kind in (Add, Mul):
            a, da = emit(e.left)
            mark = len(spills)
            b, db = emit(e.right)
            if len(spills) > mark and da > 0:
                # part of the right operand runs first: keep left-to-right
                a, da = spill(a, at=mark), 0
            code = f"({a} {'+' if kind is Add else '*'} {b})"
            depth = max(da, db)
        elif kind is Pow:
            a, depth = emit(e.base)
            q = e.exponent
            if q.denominator != 1:
                code = f"_fpow({a}, {float(q)!r}, {str(q)!r})"
            elif q < 0:
                code = f"_npow({a}, {float(q)!r}, {str(q)!r})"
            else:
                code = f"({a} ** {float(q)!r})"
        else:
            a, depth = emit(e.arg)
            if kind is Neg:
                code = f"(-{a})"
            elif kind in _UFUNC:
                code = f"{_UFUNC[kind]}({a})"
            else:
                raise TypeError(f"unknown node {e!r}")
        if id(e) in shared:
            spilled[id(e)] = spill(code)
            return spilled[id(e)], 0
        if depth + 1 < _MAX_NESTING:
            return code, depth + 1
        return spill(code), 0

    body, _ = emit(expr)
    source = "def _f(t):\n" + "".join(spills) + f"    return {body}\n"
    return _shape_code(source), constants


@functools.lru_cache(maxsize=_CODE_CACHE)
def _shape_code(source: str):
    return compile(source, "<periorbit expression>", "exec")


def _shared_nodes(expr: Expr) -> set[int]:
    """ids of the nodes that expr reaches along more than one path, as a
    derivative's tree reaches the factors of a product."""
    seen: set[int] = set()
    shared: set[int] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if id(e) in seen:
            shared.add(id(e))
        else:
            seen.add(id(e))
            stack += _children(e)
    return shared


def _children(e: Expr) -> tuple:
    kind = type(e)
    if kind in (Neg, Sin, Cos, Exp):
        return (e.arg,)
    if kind in (Add, Mul):
        return (e.left, e.right)
    if kind is Pow:
        return (e.base,)
    if kind in (Const, TimeVar):
        return ()
    raise TypeError(f"unknown node {e!r}")


# The deepest tree a problem file or PeriodicCoeff may be given (a sum or
# product of n terms is about n deep).  _compile and derivative recurse
# once per level, and a derivative is at most about twice as deep as its
# tree, so both stay well inside Python's default recursion limit of 1000.
MAX_TREE_DEPTH = 300


def tree_depth(e: Expr) -> int:
    """Nodes on the longest path from e down to a leaf, counted one level
    of the tree at a time, without recursion."""
    depth, level = 0, [e]
    while level:
        depth += 1
        level = [c for node in level for c in _children(node)]
    return depth


# ---------------------------------------------------------------------------
# differentiation


def derivative(e: Expr) -> Expr:
    kind = type(e)
    # a built Pow of a Const (parsing folds one) may have no q - 1 power
    if kind is Const or kind is Pow and type(e.base) is Const:
        return Const(0.0, Fraction(0))
    if kind is TimeVar:
        return Const(1.0, Fraction(1))
    if kind is Neg:
        return _neg(derivative(e.arg))
    if kind is Add:
        return _add(derivative(e.left), derivative(e.right))
    if kind is Mul:
        return _add(_mul(derivative(e.left), e.right),
                    _mul(e.left, derivative(e.right)))
    if kind is Pow:
        q = e.exponent
        return _mul(_mul(Const(float(q)), _pow(e.base, q - 1)),
                    derivative(e.base))
    if kind is Sin:
        return _mul(Cos(e.arg), derivative(e.arg))
    if kind is Cos:
        return _mul(_neg(Sin(e.arg)), derivative(e.arg))
    if kind is Exp:
        return _mul(e, derivative(e.arg))
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))")

_FUNCTIONS = {"sin": (Sin, math.sin), "cos": (Cos, math.cos),
              "exp": (Exp, math.exp)}

# Parentheses, function calls and exponents may nest this deep; the parser
# recurses a few frames per level and stops well inside Python's limit.
_MAX_PARSE_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.lastgroup is not None:
            tokens.append(_Token(m.lastgroup, m.group(m.lastgroup),
                                 m.start(m.lastgroup)))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def nest(self, tok: _Token, parse):
        """parse() one nesting level below tok, which opens it."""
        if self.depth == _MAX_PARSE_NESTING:
            raise ParseError(f"nested deeper than {_MAX_PARSE_NESTING} "
                             f"levels", tok.pos)
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return e

    def expression(self) -> Expr:
        e = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                e = _add(e, rhs) if tok.text == "+" else _add(e, _neg(rhs))
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.unary()
                if tok.text == "*":
                    e = _mul(e, rhs)
                else:
                    e = _mul(e, self.folded_pow(tok, rhs, Fraction(-1)))
            else:
                return e

    def unary(self) -> Expr:
        # a chain of signs is read in a loop, then folded innermost first
        negations = 0
        tok = self.peek()
        while tok.kind == "op" and tok.text in "+-":
            negations += tok.text == "-"
            self.advance()
            tok = self.peek()
        e = self.power()
        for _ in range(negations):
            e = _neg(e)
        return e

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            epos = self.peek().pos
            exponent_expr = self.nest(tok, self.unary)
            # the folding constructors reduce a rational constant subtree
            # to one Const
            q = (exponent_expr.exact if isinstance(exponent_expr, Const)
                 else None)
            if q is None:
                raise ParseError("exponent must be a rational constant", epos)
            return self.folded_pow(tok, base, q)
        return base

    def folded_pow(self, tok: _Token, base: Expr, q: Fraction) -> Expr:
        """base^q, a constant base outside the power's domain reported at
        the operator tok."""
        try:
            return _pow(base, q)
        except EvalDomainError as err:
            raise ParseError(str(err), tok.pos) from None

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "number":
            return Const(float(tok.text), Fraction(tok.text))
        if tok.kind == "name":
            if tok.text == "t":
                return TimeVar()
            if tok.text == "pi":
                return Const(math.pi)
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.nest(tok, self.expression)
                self.expect_op(")")
                kind, fn = _FUNCTIONS[tok.text]
                if type(arg) is not Const:
                    return kind(arg)
                try:
                    return Const(fn(arg.value))
                except OverflowError:  # exp past the float range
                    return Const(math.inf)
                except ValueError:  # sin or cos of +-inf, nan as in numpy
                    return Const(math.nan)
            raise ParseError(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            e = self.nest(tok, self.expression)
            self.expect_op(")")
            return e
        raise ParseError(
            f"expected a value, got {tok.text!r}" if tok.text else
            "unexpected end of input", tok.pos)


def parse_expression(text: str) -> Expr:
    """Parse source text into an expression tree.

    Raises ParseError with a 0-based .position (reported 1-based in the
    message) on malformed input.
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# periodic coefficients

_EXTREMA_SAMPLES = 4096
_REFINE_SEEDS = 8
_PERIOD_GRID = 256
_PERIOD_RTOL = 1e-10


def _not_finite(t) -> EvalDomainError:
    """The error for a coefficient value past the float range near t."""
    return EvalDomainError(f"value near t = {t:.6f} is not finite")


@dataclass(frozen=True)
class Extrema:
    min_value: float
    max_value: float
    t_min: float
    t_max: float


@dataclass(frozen=True)
class PeriodicCoeff:
    """An expression plus its period, validated on construction.

    The period check compares f(t) against f(t + omega) on a 256-point grid
    with relative tolerance 1e-10; non-periodic expressions are rejected
    rather than silently wrapped, and so are values that are not finite
    on that grid and trees deeper than MAX_TREE_DEPTH, which could not be
    compiled.
    """

    expr: Expr
    omega: float

    def __post_init__(self):
        if not (self.omega > 0.0) or not math.isfinite(self.omega):
            raise ValueError("period must be a positive finite number")
        if tree_depth(self.expr) > MAX_TREE_DEPTH:
            raise ExpressionError(
                f"expression tree deeper than {MAX_TREE_DEPTH} levels")
        ts, f0 = self._finite_samples()
        with np.errstate(over="ignore", invalid="ignore"):
            f1 = evaluate(self.expr, ts + self.omega)
        gap = np.abs(f1 - f0) - _PERIOD_RTOL * (1.0 + np.abs(f0))
        if np.any(gap > 0.0):
            worst = int(np.argmax(gap))
            raise PeriodicityError(
                f"expression is not {self.omega}-periodic: "
                f"|f(t+omega)-f(t)| = {abs(f1[worst] - f0[worst]):.3e} "
                f"at t = {ts[worst]:.6f}")

    def _finite_samples(self):
        """The period grid and the values on it; an EvalDomainError (a
        ValueError) names the first value that is not finite."""
        ts = np.linspace(0.0, self.omega, _PERIOD_GRID, endpoint=False)
        with np.errstate(over="ignore", invalid="ignore"):
            f0 = evaluate(self.expr, ts)
        if not np.all(np.isfinite(f0)):
            bad = int(np.argmin(np.isfinite(f0)))
            raise EvalDomainError(f"value {f0[bad]} at t = {ts[bad]:.6f} "
                                  f"is not finite")
        return ts, f0

    def _derived(self, expr: Expr) -> "PeriodicCoeff":
        """A coefficient of this period built from this one and others
        that passed the checks: a derivative, a multiple or a difference.
        It is periodic by construction, so only its values' finiteness is
        checked.  Sampling its period again could fail on rounding alone:
        near a zero of a derivative of size 1e15 the pointwise tolerance
        is below the error of sin(3(t + omega)).  Its depth, at most about
        twice that of its parts, is not bounded either."""
        coeff = object.__new__(PeriodicCoeff)
        object.__setattr__(coeff, "expr", expr)
        object.__setattr__(coeff, "omega", self.omega)
        coeff._finite_samples()
        return coeff

    def __call__(self, t):
        return evaluate(self.expr, t)

    @property
    def constant(self) -> float | None:
        """The value of a coefficient whose tree is a Const, else None.  A
        parsed tree free of t is always one Const."""
        return self.expr.value if type(self.expr) is Const else None

    def derivative(self) -> "PeriodicCoeff":
        return self._derived(derivative(self.expr))

    def scaled(self, factor: float) -> "PeriodicCoeff":
        return self._derived(_mul(Const(float(factor)), self.expr))

    def extrema(self) -> Extrema:
        """Global extrema over one period, computed on the first call and
        kept on the (immutable) coefficient.

        A 4097-point scan finds the sampled local minima (maxima).  Each,
        with its two neighbours, is a seed; the _REFINE_SEEDS lowest
        (highest) seeds, ties in sample order, are polished by
        golden-section search over the two cells around each, so values are
        correct to ~1e-8 even when the true extremum falls between samples.
        A basin deeper than the one of the lowest sample is refined too,
        once the scan samples a local minimum in it.  Of equal values the
        earliest seed wins, so the locations do not depend on how numpy
        sorts on a given CPU.
        """
        return self._kept("_extrema", self._locate_extrema)

    def _kept(self, key: str, compute):
        """compute()'s result, kept on the coefficient under key."""
        found = self.__dict__.get(key)
        if found is None:
            found = compute()
            object.__setattr__(self, key, found)
        return found

    def _locate_extrema(self) -> Extrema:
        # a constant is its own extrema, at t = 0, which the scan returns
        value = self.constant
        if value is not None:
            return Extrema(value, value, 0.0, 0.0)
        ts = np.linspace(0.0, self.omega, _EXTREMA_SAMPLES + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = self(ts)
        finite = np.isfinite(vals)
        if not np.all(finite):
            raise _not_finite(ts[int(np.argmin(finite))])
        step = self.omega / _EXTREMA_SAMPLES
        fn = compiled(self.expr)

        def refine(sign: float, objective) -> tuple[float, float]:
            """The extremum of sign * f, with objective(u) = sign * f(u)."""
            signed = sign * vals
            # a sample no larger than its neighbours (one neighbour at an
            # end) is a sampled minimum; it and its neighbours are seeds,
            # since the true minimum may lie in a neighbour's bracket
            padded = np.concatenate(([math.inf], signed, [math.inf]))
            low = (signed <= padded[:-2]) & (signed <= padded[2:])
            seeds = np.flatnonzero(np.convolve(low, (1, 1, 1), "same"))
            # stable, so that ties keep their index order on every CPU
            order = seeds[np.argsort(signed[seeds], kind="stable")
                          [:_REFINE_SEEDS]]
            best_t = float(ts[order[0]])
            best_v = float(signed[order[0]])
            for idx in order:
                seed = float(ts[idx])
                lo = max(0.0, seed - step)
                hi = min(self.omega, seed + step)
                try:
                    tm, vm = golden_min(objective, lo, hi,
                                        tol=1e-12 * max(1.0, self.omega))
                except OverflowError:
                    tm, vm = seed, math.inf
                if not math.isfinite(vm):
                    raise _not_finite(tm)
                if vm < best_v:
                    best_t, best_v = tm, vm
            return best_t, sign * best_v

        t_min, v_min = refine(1.0, fn)
        t_max, v_max = refine(-1.0, lambda u: -fn(u))
        return Extrema(v_min, v_max, t_min, t_max)

    def integrate(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError("integration bounds must satisfy t0 <= t1")
        # a sum past the float range raises QuadratureError, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return integrate_adaptive(lambda s: self(s), t0, t1)

    def mean(self) -> float:
        """Mean over one period, computed on the first call and kept on the
        coefficient."""
        return self._kept("_mean", lambda: self.integrate(0.0, self.omega)
                          / self.omega)

    def mean_positive_part(self) -> float:
        """Mean of max(f, 0) over one period, computed on the first call and
        kept on the coefficient.

        Sign changes are first isolated by bisection on a 4096-cell grid;
        the positive part is then integrated piecewise on intervals where f
        keeps one sign, so the integrand handed to the quadrature is smooth.
        """
        return self._kept("_mean_positive_part", self._integrate_positive_part)

    def _integrate_positive_part(self) -> float:
        ts = np.linspace(0.0, self.omega, _EXTREMA_SAMPLES + 1)
        vals = np.asarray(self(ts), dtype=float)
        fn = compiled(self.expr)
        cuts = [0.0]
        # cells whose ends have strictly opposite signs; a zero end gives a
        # zero product and no cut, and an overflowing one keeps its sign
        with np.errstate(over="ignore"):
            changes = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        for i in changes:
            a, fa = float(ts[i]), float(vals[i])
            b, fb = float(ts[i + 1]), float(vals[i + 1])
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = float(fn(m))
                if fm == 0.0 or (b - a) < 1e-14 * self.omega:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            cuts.append(0.5 * (a + b))
        cuts.append(self.omega)
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo < 1e-14 * self.omega:
                continue
            if float(fn(0.5 * (lo + hi))) > 0.0:
                total += self.integrate(lo, hi)
        return max(total, 0.0) / self.omega

