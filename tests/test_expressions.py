"""Expression parsing, evaluation, calculus helpers, and periodic coefficients."""

import builtins
import dataclasses
import decimal
import json
import math
import os
import pickle
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OMEGA, pc
from periorbit import PeriodicCoeff, expressions, parse_expression
from periorbit.expressions import (
    Add,
    Call,
    Const,
    MAX_TREE_DEPTH,
    EvalDomainError,
    ExpressionError,
    Mul,
    Neg,
    ParseError,
    PeriodicityError,
    Pow,
    TimeVar,
    compiled,
    derivative,
    evaluate,
    tree_depth,
)

# ---------------------------------------------------------------------------
# parsing and evaluation


def test_eval_basic_values():
    e = parse_expression("1+2*cos(3*t)")
    assert evaluate(e, 0.0) == pytest.approx(3.0, abs=1e-15)
    assert evaluate(e, math.pi / 3.0) == pytest.approx(-1.0, abs=1e-14)
    g = parse_expression("exp(2*sin(3*t))")
    assert evaluate(g, math.pi / 6.0) == pytest.approx(math.e**2, rel=1e-15)


def test_eval_vectorized_matches_scalar():
    e = parse_expression("(10+cos(3*t))*exp(sin(3*t))")
    ts = np.linspace(-2.0, 2.0, 37)
    vec = evaluate(e, ts)
    scal = np.array([evaluate(e, float(t)) for t in ts])
    assert vec.shape == ts.shape
    assert np.max(np.abs(vec - scal)) <= 1e-14 * np.max(np.abs(scal))


def test_precedence_and_unary():
    assert evaluate(parse_expression("2+3*4"), 0.0) == 14.0
    assert evaluate(parse_expression("2*3^2"), 0.0) == 18.0
    # unary minus binds looser than the power operator
    assert evaluate(parse_expression("-3^2"), 0.0) == -9.0
    assert evaluate(parse_expression("(-3)^2"), 0.0) == 9.0
    assert evaluate(parse_expression("1/40"), 0.0) == pytest.approx(0.025, abs=0.0)
    assert evaluate(parse_expression("2*pi/3"), 0.0) == pytest.approx(OMEGA, rel=1e-16)


def test_rational_exponents():
    assert evaluate(parse_expression("4^(1/2)"), 0.0) == pytest.approx(2.0, abs=1e-15)
    assert evaluate(parse_expression("t^(3/2)"), 4.0) == pytest.approx(8.0, rel=1e-15)
    assert evaluate(parse_expression("t^(-1)"), 4.0) == pytest.approx(0.25, abs=1e-18)


def test_parse_error_position_is_reported():
    with pytest.raises(ParseError) as exc:
        parse_expression("1 + * 2")
    assert exc.value.position == 4
    assert "column 5" in str(exc.value)
    # a character no token starts with, and a token left over after a
    # whole expression
    for text, message in (("1 $ 2", "unexpected character '$'"),
                          ("t t", "unexpected 't'")):
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert str(exc.value) == f"{message} (column 3)"
        assert exc.value.position == 2


def test_parse_error_unknown_name():
    with pytest.raises(ParseError, match="unknown name"):
        parse_expression("1 + foo(t)")


def test_parse_error_empty():
    with pytest.raises(ParseError):
        parse_expression("   ")


def test_parse_error_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_expression("cos(3*t")


def test_nonrational_exponent_rejected():
    with pytest.raises(ParseError, match="exponent must be a rational constant"):
        parse_expression("t^t")
    with pytest.raises(ParseError, match="exponent must be a rational constant"):
        parse_expression("2^(cos(t))")


def _rational_value(e):
    """The parser's former exponent rule: the exact rational value of a
    constant subtree, None when not available."""
    kind = type(e)
    if kind is Const:
        return e.exact
    if kind is Neg:
        v = _rational_value(e.arg)
        return None if v is None else -v
    if kind in (Add, Mul):
        a, b = _rational_value(e.left), _rational_value(e.right)
        if a is None or b is None:
            return None
        return a + b if kind is Add else a * b
    if kind is Pow:
        a = _rational_value(e.base)
        if a is None or e.exponent.denominator != 1:
            return None
        n = e.exponent.numerator
        return None if a == 0 and n < 0 else a ** n
    return None


def _constant_texts(depth):
    """Constant expression texts nested at most depth deep, which keeps
    the exact powers small."""
    leaves = st.sampled_from(["0", "1", "2", "3", "0.5", "1e400", "pi",
                              "sin(1)"])
    if depth == 0:
        return leaves
    sub = _constant_texts(depth - 1)
    return st.one_of(
        leaves, st.builds("-({})".format, sub),
        st.builds("({}){}({})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("({})^({})".format, sub,
                  st.sampled_from(["-2", "-1", "0", "2", "3", "1/2"])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_constant_texts(4))
def test_folding_reduces_every_rational_constant_to_one_const(text):
    """The parser takes an exponent's value from the folded Const alone:
    a rational constant subtree always folds into one."""
    try:
        e = parse_expression(text)
    except ParseError:
        return
    assert (e.exact if isinstance(e, Const) else None) == _rational_value(e)


def test_domain_error_fractional_power_of_negative():
    e = parse_expression("t^(1/2)")
    with pytest.raises(EvalDomainError):
        evaluate(e, -1.0)
    with pytest.raises(EvalDomainError):
        evaluate(e, np.array([1.0, -1.0]))


def test_domain_error_negative_power_of_zero():
    e = parse_expression("t^(-1)")
    with pytest.raises(EvalDomainError):
        evaluate(e, 0.0)


# ---------------------------------------------------------------------------
# compiled evaluation against a tree walk

# each function a coefficient may call, on a float and on an array
_REFERENCE = {"sin": (math.sin, np.sin), "cos": (math.cos, np.cos),
              "exp": (math.exp, np.exp)}


def _sin(arg):
    return Call("sin", arg)


def _cos(arg):
    return Call("cos", arg)


def _exp(arg):
    return Call("exp", arg)


def test_one_table_names_each_function_and_its_rules():
    """The table gives sin, cos and exp, each with its float function, its
    array function and its derivative rule; it fills both bindings."""
    table = expressions._FUNCTIONS
    assert {name: (f.scalar, f.array) for name, f in table.items()} == \
        _REFERENCE
    u = Add(Mul(Const(3.0), TimeVar()), Const(0.5))
    assert table["sin"].derivative(_sin(u)) == _cos(u)
    assert table["cos"].derivative(_cos(u)) == Neg(_sin(u))
    node = _exp(u)
    assert table["exp"].derivative(node) is node
    for name, (scalar, array) in _REFERENCE.items():
        assert expressions._SCALAR_NAMES[f"_{name}"] is scalar
        assert expressions._ARRAY_NAMES[f"_{name}"] is array


def _ev(e, t, vec):
    """Recursive tree-walk evaluation, the reference for compiled code."""
    kind = type(e)
    if kind is Const:
        return e.value
    if kind is TimeVar:
        return t
    if kind is Neg:
        return -_ev(e.arg, t, vec)
    if kind is Add:
        return _ev(e.left, t, vec) + _ev(e.right, t, vec)
    if kind is Mul:
        return _ev(e.left, t, vec) * _ev(e.right, t, vec)
    if kind is Pow:
        base = _ev(e.base, t, vec)
        q = e.exponent
        if q.denominator != 1:
            bad = np.any(np.asarray(base) <= 0.0) if vec else base <= 0.0
            if bad:
                raise EvalDomainError(
                    f"fractional power {q} of a non-positive base")
            return base ** float(q)
        if q < 0:
            bad = np.any(np.asarray(base) == 0.0) if vec else base == 0.0
            if bad:
                raise EvalDomainError(f"zero base raised to power {q}")
        return base ** float(q)
    if kind is Call:
        scalar, array = _REFERENCE[e.name]
        v = _ev(e.arg, t, vec)
        return array(v) if vec else scalar(v)
    raise TypeError(f"unknown node {e!r}")


def _walk_evaluate(e, t):
    vec = isinstance(t, np.ndarray)
    result = _ev(e, t, vec)
    if vec and np.ndim(result) == 0:
        return np.full(t.shape, float(result))
    return result


def _outcome(fn, e, t):
    """The value as (type, dtype, shape, raw bytes), or the exception."""
    try:
        with np.errstate(all="ignore"):
            v = fn(e, t)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    if isinstance(v, np.ndarray):
        return np.ndarray, v.dtype, v.shape, v.tobytes()
    return type(v), struct.pack("<d", v)


_leaves = st.one_of(
    st.just(TimeVar()),
    st.builds(Const, st.floats(-4.0, 4.0)),
    st.builds(Const, st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan])))
_exponents = st.builds(Fraction, st.integers(-3, 4), st.integers(1, 3))


def _calls(sub):
    """A call of each function on sub, one strategy per function."""
    return [st.builds(Call, st.just(name), sub) for name in _REFERENCE]


_trees = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds(Neg, sub), st.builds(Add, sub, sub), st.builds(Mul, sub, sub),
    st.builds(Pow, sub, _exponents), *_calls(sub)), max_leaves=12)
_POINTS = (-2.0, -0.5, -0.0, 0.0, 0.3, 1.7, 40.0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(e=_trees)
def test_compiled_matches_tree_walk_bit_for_bit(e):
    """Compiled scalar and array evaluation reproduce the tree walk: the
    same value bit for bit, NaNs compared as one NaN (_one_nan), or the
    same error (domain, overflow, math domain) on the same input."""
    compiled_fn, walk_fn = _one_nan(evaluate), _one_nan(_walk_evaluate)
    for t in _POINTS:
        assert _outcome(compiled_fn, e, t) == _outcome(walk_fn, e, t)
    for ts in (np.array(_POINTS), np.array([0.3, 1.7]), np.zeros(0)):
        assert _outcome(compiled_fn, e, ts) == _outcome(walk_fn, e, ts)


def test_compiled_function_is_built_once():
    e = parse_expression("1+2*cos(3*t)")
    assert compiled(e) is compiled(e)
    assert compiled(e, array=True) is compiled(e, array=True)
    assert compiled(e) is not compiled(e, array=True)


def _spy_compiles(monkeypatch) -> list:
    """The sources compiled for coefficients from now on, in order."""
    expressions._source_code.cache_clear()
    sources = []
    real_compile = builtins.compile

    def spy(source, filename, *args, **kwargs):
        if filename == "<periorbit expression>":
            sources.append(source)
        return real_compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", spy)
    return sources


def test_scalar_and_array_builds_compile_the_source_once(monkeypatch):
    """The scalar and the array function bind one code object, so a tree
    used both ways is compiled once, its infinite constant included."""
    sources = _spy_compiles(monkeypatch)
    e = Add(Mul(Const(math.inf), _cos(TimeVar())), Const(2.0))
    assert evaluate(e, 0.0) == math.inf
    assert list(evaluate(e, np.array([0.0, math.pi]))) == [math.inf,
                                                           -math.inf]
    assert len(sources) == 1


_EDGE_CONSTANTS = [-0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf,
                   -math.inf, math.nan]
_edge_trees = st.recursive(
    st.one_of(_leaves, st.builds(Const, st.sampled_from(_EDGE_CONSTANTS))),
    lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(Add, sub, sub),
        st.builds(Mul, sub, sub), st.builds(Pow, sub, _exponents),
        *_calls(sub)),
    max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(e=_edge_trees)
def test_named_constants_match_literal_constants_bit_for_bit(e):
    """Every constant, a finite one written as a literal and an infinite or
    NaN one read by the fixed name _inf or _nan, gives the values, or the
    error, of the tree walk on scalar and array inputs: among them -0.0,
    the smallest subnormal, 1e308 and the infinities, alone and inside
    shared subtrees.  NaNs are compared as one NaN (_one_nan): the sign of
    a product of two NaNs follows CPython's specialisation of the code
    object, not the constants."""
    mine, oracle = _one_nan(evaluate), _one_nan(_walk_evaluate)
    for tree in (e, *_shared_uses(e, Const(-0.0))):
        for t in _POINTS:
            assert _outcome(mine, tree, t) == _outcome(oracle, tree, t)
        for ts in (np.array(_POINTS), np.zeros(0)):
            assert _outcome(mine, tree, ts) == _outcome(oracle, tree, ts)


def _shaped(k0, k1, k2, k3):
    """One tree shape, over a power, a product, a shared subtree and every
    function, with the constants k0..k3."""
    inner = Add(Mul(Const(k1), TimeVar()), Const(k2))
    root = Pow(Add(Const(2.0), inner), Fraction(1, 2))
    return derivative(Mul(Add(Const(k0), _cos(inner)),
                          _exp(Mul(Const(k3), _sin(root)))))


def test_parsing_a_text_again_compiles_nothing(monkeypatch):
    """The code is cached by its source, in a bounded cache: a text parsed
    again, a new tree, binds the code its first parse compiled."""
    sources = _spy_compiles(monkeypatch)
    text = "(0.0432 + 0.0321*cos(3*t))*exp(sin(3*t))^(1/2)"
    first, again = parse_expression(text), parse_expression(text)
    assert first is not again
    functions = [compiled(e, array=array) for e in (first, again)
                 for array in (False, True)]
    assert len(sources) == 1
    assert len({fn.__code__ for fn in functions}) == 1
    assert evaluate(again, 0.3) == evaluate(first, 0.3)
    assert expressions._source_code.cache_info().maxsize == \
        expressions._CODE_CACHE


def test_trees_differing_in_a_constant_compile_separate_code(monkeypatch):
    """Trees of one shape whose constants differ, finite or not, each
    compile a source of their own, with their constants in it, and each
    gives the tree walk's values bit for bit."""
    sources = _spy_compiles(monkeypatch)
    trees = [_shaped(*ks) for ks in ((1.5, 3.0, 0.25, -0.5),
                                     (-0.0, 5e-324, 1e308, 2.0),
                                     (math.inf, -1.0, -0.0, -math.inf))]
    codes = {compiled(e).__code__ for e in trees}
    assert len(sources) == 3 and len(codes) == 3
    assert all(compiled(e, array=True).__code__ is compiled(e).__code__
               for e in trees)
    assert "(1.5)" in sources[0] and "(5e-324)" in sources[1]
    assert "_inf" in sources[2] and "_k" not in "".join(sources)
    for e in trees:
        for t in (0.0, 0.3, -1.7):
            assert _outcome(evaluate, e, t) == _outcome(_walk_evaluate, e, t)
        ts = np.array([0.0, 0.3, -1.7])
        assert _outcome(evaluate, e, ts) == _outcome(_walk_evaluate, e, ts)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                   -math.nan], ids=["inf", "-inf", "nan",
                                                    "-nan"])
def test_non_finite_constants_evaluate_in_both_bindings(value):
    """An infinite or NaN constant, which has no literal, evaluates in the
    scalar and the array binding, sign bit included: alone, inside a
    tree, and in a subtree the tree reaches along two paths."""

    def bits(v):
        return np.asarray(v, dtype=float).tobytes()

    alone = Const(value)
    assert bits(evaluate(alone, 0.3)) == bits(value)
    assert bits(evaluate(alone, np.array([0.3, 1.0]))) == bits([value] * 2)
    shared = Add(Const(value), Mul(Const(0.5), TimeVar()))
    for tree in (Mul(shared, _cos(shared)), derivative(Mul(shared, shared))):
        for t in (0.3, np.array([0.3, -1.0])):
            assert _outcome(_one_nan(evaluate), tree, t) == \
                _outcome(_one_nan(_walk_evaluate), tree, t)


def test_evaluated_expression_still_pickles():
    e = parse_expression("(2+cos(3*t))^(3/2)")
    evaluate(e, 0.4)
    evaluate(e, np.array([0.4]))
    assert {"_code", "_scalar_fn", "_array_fn"} <= set(vars(e))
    back = pickle.loads(pickle.dumps(e))
    assert back == e
    assert not {"_code", "_scalar_fn", "_array_fn"} & set(vars(back))
    assert evaluate(back, 0.4) == evaluate(e, 0.4)


def test_deep_trees_compile():
    """Trees nested deeper than the 200 parentheses Python's parser accepts
    in one expression still compile, and keep the walk's order: a long sum
    as the parser builds it, and a chain over every node kind whose deep
    right operands fail the power domain after a failing left one."""
    e = parse_expression("+".join(f"{k}*cos({k}*t)" for k in range(1, 401)))
    ts = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(evaluate(e, ts), _walk_evaluate(e, ts))
    assert evaluate(e, 0.25) == _walk_evaluate(e, 0.25)

    chain = TimeVar()
    for k in range(300):
        node = (Neg, _sin, _cos, _exp)[k % 4](chain) if k % 5 else \
            Pow(Add(Const(1.5), chain), Fraction(1, 2))
        chain = Mul(Const(0.5), node) if k % 3 else Add(node, TimeVar())
    late = Add(Pow(TimeVar(), Fraction(-1)), Mul(chain, Pow(TimeVar(), Fraction(1, 3))))
    for tree in (chain, late):
        for t in (-0.7, 0.0, 0.4):
            assert _outcome(evaluate, tree, t) == _outcome(_walk_evaluate, tree, t)
        for ts in (np.array([0.1, 0.4]), np.array([-0.7, 0.0])):
            assert _outcome(evaluate, tree, ts) == _outcome(_walk_evaluate, tree, ts)
    with pytest.raises(EvalDomainError, match="zero base"):
        evaluate(late, 0.0)


def _shared_uses(e, f):
    """Trees that reach e along several paths, first on the left of f, on
    its right, or under a unary node, and a derivative's own sharing."""
    return (derivative(e), derivative(Mul(e, Mul(f, e))),
            Mul(Add(e, f), _sin(e)), Add(f, Mul(e, Neg(e))),
            Add(_exp(f), Pow(Add(e, Mul(f, e)), Fraction(1, 2))))


def _one_nan(fn):
    """fn with every NaN it returns made the default NaN.  Which NaN the
    product of two NaNs is, IEEE 754 leaves open, and CPython's generic and
    specialised float multiplications pick differently: a function called
    eight times returns nan * -nan with the other sign from then on.  A
    tree that reaches a NaN along two paths, one negated, meets this."""

    def call(e, t):
        v = fn(e, t)
        if isinstance(v, np.ndarray):
            return np.where(np.isnan(v), np.nan, v)
        return type(v)(math.nan) if math.isnan(v) else v

    return call


@settings(max_examples=200, deadline=None, derandomize=True)
@given(e=_trees, f=_trees)
def test_shared_subtrees_match_tree_walk_bit_for_bit(e, f):
    """A subtree reached along several paths is compiled once, yet gives
    the walk's value bit for bit, NaNs aside, or its first error, wherever
    it is first met."""
    compiled_fn, walk_fn = _one_nan(evaluate), _one_nan(_walk_evaluate)
    for tree in _shared_uses(e, f):
        for t in _POINTS:
            assert _outcome(compiled_fn, tree, t) == _outcome(walk_fn, tree, t)
        ts = np.array(_POINTS)
        assert _outcome(compiled_fn, tree, ts) == _outcome(walk_fn, tree, ts)


def test_derivative_source_grows_linearly_in_factors(monkeypatch):
    """The derivative of a product reuses each factor; written once each,
    the compiled source of a k-factor product's derivative grows linearly
    in k, where writing every reference grows as k squared."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(expressions, "compile", spy, raising=False)
    expressions._source_code.cache_clear()
    lengths = {}
    for k in (50, 200):
        d = derivative(parse_expression("*".join(["(1+cos(3*t)/9)"] * k)))
        for array in (False, True):
            compiled(d, array=array)
            lengths[k, array] = len(sources[-1])
    for array in (False, True):
        assert lengths[200, array] < 4.5 * lengths[50, array]


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_examples():
    d = derivative(parse_expression("sin(3*t)"))
    ts = np.linspace(0.0, 2.0, 17)
    assert np.max(np.abs(evaluate(d, ts) - 3.0 * np.cos(3.0 * ts))) < 1e-14

    d2 = derivative(parse_expression("exp(2*sin(3*t))"))
    # chain rule at t=0: exp(0) * 2*3*cos(0) = 6
    assert evaluate(d2, 0.0) == pytest.approx(6.0, rel=1e-15)

    d3 = derivative(parse_expression("10"))
    assert evaluate(d3, 0.3) == 0.0

    d4 = derivative(parse_expression("t^(3/2)"))
    assert evaluate(d4, 4.0) == pytest.approx(3.0, rel=1e-15)


@settings(max_examples=140, deadline=None, derandomize=True)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    k=st.integers(1, 4),
    m=st.integers(1, 4),
    shape=st.integers(0, 3),
    t0=st.floats(-2.0, 2.0),
)
def test_derivative_matches_finite_differences(a, b, k, m, shape, t0):
    """Symbolic derivative agrees with a central finite difference."""
    if shape == 0:
        text = f"({a})+({b})*cos({k}*t)"
    elif shape == 1:
        text = f"exp(({a}/3)*sin({k}*t))"
    elif shape == 2:
        text = f"(({a})+({b})*sin({k}*t))*cos({m}*t)"
    else:
        text = f"(2+cos({k}*t))^(3/2)+({b})*t"
    e = parse_expression(text)
    d = derivative(e)
    h = 1e-6
    fd = (evaluate(e, t0 + h) - evaluate(e, t0 - h)) / (2.0 * h)
    exact = evaluate(d, t0)
    scale = 1.0 + abs(exact) + abs(evaluate(e, t0))
    assert abs(exact - fd) < 1e-4 * scale


# ---------------------------------------------------------------------------
# periodic coefficients


def test_periodicity_rejected():
    with pytest.raises(PeriodicityError):
        PeriodicCoeff(parse_expression("cos(t)"), OMEGA)


def test_periodicity_accepts_multiples():
    # fundamental period omega/2 is still omega-periodic
    PeriodicCoeff(parse_expression("cos(6*t)"), OMEGA)


def test_bad_period_rejected():
    with pytest.raises(ValueError):
        PeriodicCoeff(parse_expression("1"), 0.0)
    with pytest.raises(ValueError):
        PeriodicCoeff(parse_expression("1"), -1.0)


def test_exact_power_past_float_range_folds_to_inf():
    assert parse_expression("10^400") == Const(math.inf, Fraction(10) ** 400)
    assert parse_expression("(-10)^401").value == -math.inf
    assert parse_expression("10^400").value == parse_expression("1e400").value


def test_exact_power_far_past_float_range_is_not_computed():
    """A power whose exact value would run to millions of digits folds
    straight to +-inf or +-0.0, in parse time independent of the
    exponent."""
    start = time.perf_counter()
    assert parse_expression("3^(10^9)") == Const(math.inf)
    assert time.perf_counter() - start < 0.1
    assert parse_expression("3^(10^400)") == Const(math.inf)
    assert parse_expression("(-3)^(10^9+1)") == Const(-math.inf)
    assert parse_expression("(1/3)^(10^9)") == Const(0.0)
    negative_zero = parse_expression("(-3)^(-10^9-1)").value
    assert negative_zero == 0.0 and math.copysign(1.0, negative_zero) < 0.0
    # a power of one stays exact however large the exponent
    assert parse_expression("(-1)^(10^400+1)") == Const(-1.0, Fraction(-1))


def _float_of_power(base: Fraction, n: int) -> float:
    """float(base^n), from a 60-digit decimal power."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(base.numerator) / decimal.Decimal(base.denominator)
        return float(x ** n)


@pytest.mark.parametrize("text,base,n", [
    ("1.00000000000000000001^(10^5)", Fraction("1.00000000000000000001"),
     10 ** 5),
    ("(1+10^-30)^(10^5)", 1 + Fraction(1, 10 ** 30), 10 ** 5),
    ("(1+10^-30)^(10^6)", 1 + Fraction(1, 10 ** 30), 10 ** 6),
    ("(1-10^-12)^(10^6)", 1 - Fraction(1, 10 ** 12), 10 ** 6),
    ("(-1-10^-20)^(-10^5-1)", -1 - Fraction(1, 10 ** 20), -10 ** 5 - 1),
])
def test_exact_power_near_one_folds_through_floats(text, base, n):
    """A base within float cancellation of +-1 has log2|x| of about 0, yet
    its exact power runs to n times its bit length: past the bound it
    folds through floats, in bounded time, to the exact power's float."""
    start = time.perf_counter()
    value = parse_expression(text)
    assert time.perf_counter() - start < 0.1
    assert value.exact is None
    expected = _float_of_power(base, n)
    assert abs(value.value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("text,base,n", [
    ("(3/2)^40", Fraction(3, 2), 40),
    ("(-7/3)^(-25)", Fraction(-7, 3), -25),
    ("2^1000", Fraction(2), 1000),
    ("(1+10^-30)^600", 1 + Fraction(1, 10 ** 30), 600),
    ("1.00000000000000000001^(10^2)", Fraction("1.00000000000000000001"),
     100),
])
def test_exact_power_under_the_bound_stays_exact(text, base, n):
    assert parse_expression(text) == Const(float(base ** n), base ** n)


def test_nesting_limit():
    """Parentheses, function calls and exponents nest at most 100 deep;
    the level past it is a ParseError at its column, not a
    RecursionError.  Signs are not nesting: any chain of them parses."""
    assert parse_expression("(" * 100 + "t" + ")" * 100) == TimeVar()
    for text, column in (("(" * 101 + "t" + ")" * 101, 101),
                         ("(" * 400 + "0" + ")" * 400, 101),
                         ("1+" + "sin(" * 101 + "t" + ")" * 101, 403),
                         ("t" + "^1" * 101, 202)):
        with pytest.raises(ParseError, match="nested deeper than 100") as err:
            parse_expression(text)
        assert err.value.position == column - 1
    assert parse_expression("-" * 1500 + "0") == Const(0.0, Fraction(0))
    assert parse_expression("-" * 1501 + "t") == Neg(TimeVar())
    assert parse_expression("+-" * 300 + "t") == TimeVar()
    assert parse_expression("2*-" + "-+" * 700 + "3") == Const(-6.0,
                                                               Fraction(-6))
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_expression("-" * 1500)


def test_long_constant_sums_fold_to_one_const():
    """A sum free of t folds to one Const however long it is, left to
    right; one term in t keeps the tree."""
    total = 0.0
    for _ in range(5000):
        total += math.sin(1.0)
    assert parse_expression("+".join(["sin(1)"] * 5000)) == Const(total)
    assert tree_depth(parse_expression("13/10" + "+t" * 5000)) == 5001


@pytest.mark.parametrize("text,value", [
    ("sin(1)", math.sin(1.0)),
    ("cos(pi/3)", math.cos(math.pi / 3)),
    ("exp(2)", math.exp(2.0)),
    ("-exp(-sin(1/2))", -math.exp(-math.sin(0.5))),
    ("exp(sin(1))^(1/2)", math.pow(math.exp(math.sin(1.0)), 0.5)),
    ("2*cos(1)/3", 2.0 * math.cos(1.0) * math.pow(3.0, -1.0)),
    ("exp(710)", math.inf),
    ("-exp(1000)", -math.inf),
    ("exp(-1000)", 0.0),
    ("pi^1000", math.inf),
    ("(-pi)^1001", -math.inf),
    ("(-pi)^1000", math.inf),
    ("exp(1)^(2001/2)", math.inf),
])
def test_functions_and_powers_of_constants_fold(text, value):
    """sin, cos and exp of a constant fold through math; a power of an
    inexact constant past the float range folds to +-inf, negative only
    for a negative base under an odd exponent."""
    folded = parse_expression(text)
    assert type(folded) is Const
    assert folded.value == value
    assert math.copysign(1.0, folded.value) == math.copysign(1.0, value)


def test_sin_of_an_infinite_constant_folds_to_nan():
    assert math.isnan(parse_expression("sin(exp(1000))").value)
    assert math.isnan(parse_expression("cos(-10^400)").value)


@pytest.mark.parametrize("text,message,column", [
    ("(-2)^(1/2)", "fractional power 1/2 of a non-positive base", 5),
    ("0^(1/2)", "fractional power 1/2 of a non-positive base", 2),
    ("0^(-1)", "zero base raised to power -1", 2),
    ("1/0", "zero base raised to power -1", 2),
    ("t + 1/0*0", "zero base raised to power -1", 6),
    ("t*(1-1)^(-2)", "zero base raised to power -2", 8),
    ("2 + sin(t) * (cos(1)-1)^(3/2)", "fractional power 3/2 of a "
     "non-positive base", 24),
])
def test_constant_power_out_of_domain_is_a_parse_error(text, message,
                                                       column):
    """A constant power outside its domain cannot fold: the parser reports
    the evaluation's message at the column of its ^ or /."""
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert str(err.value) == f"{message} (column {column})"
    assert err.value.position == column - 1


@st.composite
def _constant_texts(draw, depth=3):
    """Texts of expressions free of t over every grammar form."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(["1", "2.5", "pi", "1/3", "0.1"]))
    a = draw(_constant_texts(depth - 1))
    form = draw(st.sampled_from(["neg", "+", "-", "*", "/", "^", "sin",
                                 "cos", "exp"]))
    if form == "neg":
        return f"-({a})"
    if form in ("sin", "cos", "exp"):
        return f"{form}({a})"
    if form == "^":
        return f"({a})^{draw(st.sampled_from(['2', '(-1)', '3']))}"
    b = draw(_constant_texts(depth - 1))
    return f"({a}){form}({b})"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_constant_texts())
def test_a_parsed_tree_free_of_t_is_one_const(text):
    try:
        folded = parse_expression(text)
    except ParseError as err:
        assert "zero base" in str(err)
        return
    assert type(folded) is Const


def test_extrema_overflow_between_grid_points():
    """A value finite on the period grid but past the float range between
    its points is an error of the extrema search, not an OverflowError."""
    coeff = pc("exp(710*cos(3*t - pi/256)^8)")
    with pytest.raises(EvalDomainError, match="not finite"):
        coeff.extrema()


def test_extrema_frozen_examples():
    bx = pc("1+2*cos(3*t)").extrema()
    assert bx.min_value == pytest.approx(-1.0, abs=1e-10)
    assert bx.max_value == pytest.approx(3.0, abs=1e-12)

    cx = pc("exp(2*sin(3*t))").extrema()
    assert cx.min_value == pytest.approx(math.exp(-2.0), rel=1e-10)
    assert cx.max_value == pytest.approx(math.exp(2.0), rel=1e-10)

    kx = pc("10").extrema()
    assert kx.min_value == 10.0 and kx.max_value == 10.0


# a narrow well at t = pi + pi/4096, halfway between two samples, deeper
# than the lowest sample (-1 at t = 0); both samples at its edges read
# about -0.9994
NARROW_WELL = ("-cos(t) - 2.000001*exp(-1000*(1 + cos(t - "
               "0.0007669903939428206)))")


def test_extrema_find_a_narrow_deeper_well():
    """Every sampled local minimum is refined, not only the lowest
    sample's basin."""
    ex = pc(NARROW_WELL, 2.0 * math.pi).extrema()
    assert ex.min_value == pytest.approx(-1.0000012942843701, abs=1e-15)
    assert ex.t_min == pytest.approx(3.14236, abs=1e-5)


def test_tied_extrema_are_read_at_their_first_sample():
    """2 + cos(128t) reads 1 and 3 exactly at 128 sampled minima and 129
    sampled maxima; numpy's default sort of those seeds puts a later tie
    first on an AVX-512 CPU."""
    ex = pc("2+cos(128*t)", 2.0 * math.pi).extrema()
    assert (ex.min_value, ex.max_value) == (1.0, 3.0)
    assert (ex.t_min, ex.t_max) == (math.pi / 128, 0.0)


def test_extrema_refine_at_most_eight_seeds(monkeypatch):
    """A family-solve b0 + b1*cos(3t) has one sampled minimum and a maximum
    at each end: at most 8 golden-section searches in all."""
    calls = []
    real = expressions.golden_min

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(expressions, "golden_min", counted)
    ex = pc("0.7091+0.2147*cos(3*t)").extrema()
    assert ex.min_value == 0.7091 - 0.2147 and ex.max_value == 0.9238
    assert (ex.t_min, ex.t_max) == (OMEGA / 2, 0.0)
    assert 0 < len(calls) <= 8


def test_extrema_cached_on_the_coefficient(monkeypatch):
    coeff = pc("1+2*cos(3*t)")
    first = coeff.extrema()
    calls = []
    monkeypatch.setattr(PeriodicCoeff, "__call__",
                        lambda self, t: calls.append(t))
    assert coeff.extrema() is first
    assert calls == []


def test_mean_positive_part_cached_on_the_coefficient(monkeypatch):
    coeff = pc("1+2*cos(3*t)")
    first = coeff.mean_positive_part()
    calls = []
    monkeypatch.setattr(expressions, "integrate_adaptive",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(PeriodicCoeff, "__call__",
                        lambda self, t: calls.append(t))
    assert coeff.mean_positive_part() == first
    assert calls == []


@settings(max_examples=140, deadline=None, derandomize=True)
@given(
    a=st.floats(-5.0, 5.0),
    b=st.floats(-4.0, 4.0),
    c=st.floats(-4.0, 4.0),
    k=st.integers(1, 5),
)
def test_extrema_bound_analytic_oracle(a, b, c, k):
    """min/max of a + b*cos(kt) + c*sin(kt) are a -/+ hypot(b, c)."""
    coeff = PeriodicCoeff(
        parse_expression(f"({a})+({b})*cos({k}*t)+({c})*sin({k}*t)"),
        2.0 * math.pi,
    )
    ex = coeff.extrema()
    r = math.hypot(b, c)
    assert ex.min_value == pytest.approx(a - r, abs=1e-8)
    assert ex.max_value == pytest.approx(a + r, abs=1e-8)
    # the reported extrema bound every dense sample
    ts = np.linspace(0.0, 2.0 * math.pi, 2049)
    vals = coeff(ts)
    assert ex.min_value <= np.min(vals) + 1e-9
    assert ex.max_value >= np.max(vals) - 1e-9


def test_integrate_examples():
    assert pc("cos(3*t)").integrate(0.0, OMEGA) == pytest.approx(0.0, abs=1e-12)
    assert pc("10+cos(3*t)").integrate(0.0, OMEGA) == pytest.approx(
        10.0 * OMEGA, rel=1e-12
    )
    # int of 1+2cos(3t) between its zero crossings -2pi/9 .. 2pi/9
    lo, hi = -2.0 * math.pi / 9.0, 2.0 * math.pi / 9.0
    exact = (hi - lo) + (2.0 / 3.0) * (math.sin(3.0 * hi) - math.sin(3.0 * lo))
    assert exact == pytest.approx(4.0 * math.pi / 9.0 + 2.0 * math.sqrt(3.0) / 3.0, rel=1e-15)
    assert pc("1+2*cos(3*t)").integrate(lo, hi) == pytest.approx(exact, rel=1e-12)


def test_integrate_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        pc("1").integrate(1.0, 0.0)


def test_mean_and_mean_positive_part():
    assert pc("10+cos(3*t)").mean() == pytest.approx(10.0, rel=1e-12)
    # positive part of 1+2cos(3t): exact mean is 2/3 + sqrt(3)/pi
    exact = 2.0 / 3.0 + math.sqrt(3.0) / math.pi
    assert pc("1+2*cos(3*t)").mean_positive_part() == pytest.approx(exact, abs=1e-9)
    # strictly negative coefficient has zero positive part
    assert pc("-5").mean_positive_part() == 0.0
    # strictly positive coefficient: positive part equals the mean
    assert pc("7").mean_positive_part() == pytest.approx(7.0, rel=1e-12)
    assert pc("cos(3*t)").mean_positive_part() == pytest.approx(1.0 / math.pi, abs=1e-9)


def test_constant_reads_the_tree():
    """A coefficient is constant exactly when its tree is a Const: parsed
    with no t, or scaled from such a one; a varying coefficient is not,
    however small its variation."""
    assert pc("0").constant == 0.0
    assert pc("1/40").constant == 0.025
    assert pc("sin(1)^2+cos(1)^2").constant == (math.pow(math.sin(1.0), 2.0)
                                                + math.pow(math.cos(1.0), 2.0))
    assert pc("1/40").scaled(2.5).constant == 2.5 * 0.025
    # a zero factor folds its product away; nothing else is rewritten
    assert pc("0*t+1").constant == 1.0
    for text in ("cos(3*t)", "10+cos(3*t)", "1e-14*cos(3*t)", "t-t"):
        assert pc(text).constant is None


def test_constant_of_values_near_the_float_limit():
    """The value is the tree's: no mean or spread is taken, so a constant
    near the float limit reads exactly, and a varying one near it is not
    constant."""
    assert pc("1e308").constant == 1e308
    assert pc("1e305").constant == 1e305
    varying = pc("1e308*(1.5+0.2*cos(3*t))")
    assert varying.extrema().max_value == pytest.approx(1.7e308)
    assert varying.constant is None


def test_tree_depth_counts_the_longest_path():
    assert tree_depth(parse_expression("t")) == 1
    assert tree_depth(parse_expression("sin(3*t)+1")) == 4
    # left-deep sums, and right-deep products with the constant first
    assert tree_depth(parse_expression("+".join(["t"] * 5000))) == 5000
    assert tree_depth(parse_expression("t" + "*2" * 5000)) == 5001


def test_periodic_coeff_bounds_tree_depth():
    """A tree past MAX_TREE_DEPTH is rejected with an error naming the
    bound, not a RecursionError from compiling it; one at the bound is
    accepted, and so is its derivative, about twice as deep."""
    deep = parse_expression("-".join(["cos(3*t)"] * 1500))
    with pytest.raises(ExpressionError,
                       match=f"deeper than {MAX_TREE_DEPTH} levels"):
        PeriodicCoeff(deep, OMEGA)
    text = "+".join(["cos(3*t)"] * (MAX_TREE_DEPTH - 2))
    at_bound = pc(text)
    assert tree_depth(at_bound.expr) == MAX_TREE_DEPTH
    slope = at_bound.derivative()
    assert tree_depth(slope.expr) > MAX_TREE_DEPTH
    assert slope(0.1) == pytest.approx(-3.0 * math.sin(0.3) * 298, rel=1e-12)


def test_derived_coefficients_skip_the_period_resample():
    """The derivative of exp(30 cos 3t) is periodic by construction, but
    sampled again near one of its zeros, where it is about 1e15 steep, it
    fails the pointwise 1e-10 test on rounding alone.  Derived
    coefficients are checked for finite values only."""
    steep = pc("exp(30*cos(3*t))")
    with pytest.raises(PeriodicityError):
        PeriodicCoeff(derivative(steep.expr), OMEGA)
    slope = steep.derivative()
    assert slope(0.5) == pytest.approx(
        -90.0 * math.sin(1.5) * math.exp(30.0 * math.cos(1.5)), rel=1e-12)
    with pytest.raises(ValueError, match="not finite"):
        pc("exp(709*cos(3*t))").derivative()
    with pytest.raises(ValueError, match="not finite"):
        pc("1e300*(2+cos(3*t))").scaled(1e10)


def test_scaled_plus_derivative_methods():
    q = pc("1/40")
    assert q.scaled(40.0)(0.3) == pytest.approx(1.0, rel=1e-15)
    d = pc("exp(2*sin(3*t))").derivative()
    h = 1e-6
    f = pc("exp(2*sin(3*t))")
    for t0 in (0.1, 0.9, 1.7):
        fd = (f(t0 + h) - f(t0 - h)) / (2.0 * h)
        assert d(t0) == pytest.approx(fd, rel=1e-7)


# ---------------------------------------------------------------------------
# oracle: extrema and positive-part means as first written, refining and
# bisecting through PeriodicCoeff.__call__ on numpy scalars, with the
# golden-section search on numpy's sqrt.  The code on compiled floats must
# give the same values bit for bit.


def _old_golden_min(f, a, b, tol=1e-12):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if (b - a) <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    fm = f(xm)
    if f1 < fm:
        xm, fm = x1, f1
    if f2 < fm:
        xm, fm = x2, f2
    return xm, fm


def _old_extrema(coeff):
    ts = np.linspace(0.0, coeff.omega, 4097)
    vals = coeff(ts)
    step = coeff.omega / 4096

    def refine(sign):
        signed = sign * vals
        order = np.argsort(signed, kind="stable")[:8]
        best_t = float(ts[order[0]])
        best_v = float(signed[order[0]])
        for idx in order:
            lo = max(0.0, ts[idx] - step)
            hi = min(coeff.omega, ts[idx] + step)
            tm, vm = _old_golden_min(
                lambda u: sign * float(coeff(float(u))), lo, hi,
                tol=1e-12 * max(1.0, coeff.omega))
            if vm < best_v:
                best_t, best_v = tm, vm
        return best_t, sign * best_v

    t_min, v_min = refine(1.0)
    t_max, v_max = refine(-1.0)
    return v_min, v_max, t_min, t_max


def _old_mean_positive_part(coeff):
    n = 4096
    ts = np.linspace(0.0, coeff.omega, n + 1)
    vals = np.asarray(coeff(ts), dtype=float)
    cuts = [0.0]
    for i in range(n):
        a, fa = ts[i], vals[i]
        b, fb = ts[i + 1], vals[i + 1]
        if fa == 0.0:
            continue
        if fa * fb < 0.0:
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = float(coeff(m))
                if fm == 0.0 or (b - a) < 1e-14 * coeff.omega:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            cuts.append(0.5 * (a + b))
    cuts.append(coeff.omega)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-14 * coeff.omega:
            continue
        if float(coeff(0.5 * (lo + hi))) > 0.0:
            total += coeff.integrate(lo, hi)
    return max(total, 0.0) / coeff.omega


ROOT = Path(__file__).resolve().parents[1]


def _coefficients_of(texts):
    """The coefficients of the problem texts, with their derivatives."""
    from periorbit import parse_problem_text

    coeffs = []
    for text in texts:
        spec = parse_problem_text(text).spec
        for k in (spec.p, spec.q, spec.b, spec.c, spec.e):
            coeffs += [k, k.derivative()]
    return coeffs


def _generated_coefficients(monkeypatch):
    """The coefficients of the family-solve and solve-failure benchmark
    texts of two seeds and of example41-43, with their derivatives."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    texts = [path.read_text() for path in
             sorted((ROOT / "src" / "periorbit" / "problems").glob("*.problem"))]
    for seed in (41, 42):
        for kind in (workloads.FamilySolve, workloads.SolveFailure):
            texts += kind(seed, "", "").texts
    return _coefficients_of(texts)


def test_coefficient_analysis_matches_list_oracle(monkeypatch):
    coeffs = _generated_coefficients(monkeypatch)
    changing = constant = 0
    for k in coeffs:
        old_pos = _old_mean_positive_part(k)
        new_pos = k._integrate_positive_part()
        assert struct.pack("<d", new_pos) == struct.pack("<d", old_pos)
        # sign changes are cut on float brackets: no numpy scalar leaks out
        assert type(new_pos) is float
        ext = k._locate_extrema()
        got = (ext.min_value, ext.max_value, ext.t_min, ext.t_max)
        assert [struct.pack("<d", v) for v in got] == \
            [struct.pack("<d", v) for v in _old_extrema(k)]
        assert all(type(v) is float for v in got)
        changing += ext.min_value < 0.0 < ext.max_value
        constant += ext.min_value == ext.max_value
    # sign-changing b of T3.3-II and derivatives; p = 0 and constant q
    assert changing > 20 and constant > 20


def _bits(values):
    return [struct.pack("<d", v).hex() for v in values]


# seed 41's family-solve coefficients and 2 + cos(3t), whose maximum 3 is
# read at both ends of the period: each with its extrema and the list
# oracle's, as hex bits
_SIMD_SCRIPT = """
import dataclasses, json, workloads
from conftest import pc
from test_expressions import _bits, _coefficients_of, _old_extrema
coeffs = _coefficients_of(workloads.FamilySolve(41, "", "").texts)
coeffs.append(pc("2+cos(3*t)"))
print(json.dumps([(_bits(dataclasses.astuple(k.extrema())),
                   _bits(_old_extrema(k))) for k in coeffs]))
"""


def _has_exp(e) -> bool:
    stack = [e]
    while stack:
        node = stack.pop()
        if type(node) is Call and node.name == "exp":
            return True
        stack += expressions._children(node)
    return False


def test_extremum_locations_do_not_depend_on_numpy_simd_dispatch(
        monkeypatch):
    """numpy's default argsort orders tied samples by its SIMD dispatch;
    the seeds are sorted stably.  With every SIMD feature numpy dispatches
    to on this CPU switched off (the "found" list of numpy.show_runtime()),
    the extrema still match the list oracle bit for bit, 2 + cos(3t) still
    reads its maximum at t = 0, and every coefficient free of exp, whose
    grid values do not follow the dispatch, has the extrema found here."""
    from numpy._core._multiarray_umath import (
        __cpu_dispatch__,
        __cpu_features__,
    )

    found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(found),
               PYTHONPATH=os.pathsep.join(
                   str(ROOT / d) for d in ("src", "bench", "tests")))
    run = subprocess.run([sys.executable, "-c", _SIMD_SCRIPT], env=env,
                         capture_output=True, text=True, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    rows = json.loads(run.stdout)
    assert all(got == oracle for got, oracle in rows)
    assert rows[-1][0][3] == _bits([0.0])[0]
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    here = _coefficients_of(workloads.FamilySolve(41, "", "").texts)
    here.append(pc("2+cos(3*t)"))
    assert len(here) == len(rows)
    free = [(got, _bits(dataclasses.astuple(k.extrema())))
            for (got, _), k in zip(rows, here) if not _has_exp(k.expr)]
    assert len(free) > len(rows) // 2
    assert all(there == local for there, local in free)
