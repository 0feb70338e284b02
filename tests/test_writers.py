"""The bulk writers (greens CSV, orbit CSV, SVG polylines) format whole row
blocks at once; their bytes must be those of the per-cell writers they
replaced, which are kept here as oracles."""

import argparse
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from periorbit import cli, svgfig
from periorbit.greens import kernel_for
from periorbit.problemfile import parse_problem_text
from test_cli import ABOVE_HALF_PERIOD

_g = cli._g
BUNDLED = ["example41", "example42", "example43"]


# ---------------------------------------------------------------------------
# the per-cell writers


def _per_cell_greens_csv(problem, gf, n) -> str:
    t, G, Gt = gf.table(n)
    lines = [f"# instance = {problem.name}",
             f"# sha256 = {problem.sha256}",
             f"# source = {gf.source}",
             f"# n = {n}"]
    for key, val in gf.constants().items():
        lines.append(f"# {key} = {val if isinstance(val, (bool, str)) else _g(val)}")
    header = "\n".join(lines) + "\nt,s,G,Gt\n"
    rows = []
    for i, ti in enumerate(t):
        for j, sj in enumerate(t):
            rows.append(f"{_g(ti)},{_g(sj)},{_g(G[i, j])},{_g(Gt[i, j])}")
    return header + "\n".join(rows) + "\n"


def _per_point_orbit_csv(problem, orbit) -> str:
    lines = [f"# instance = {problem.name}",
             f"# sha256 = {problem.sha256}",
             f"# omega = {_g(orbit.omega)}",
             f"# rho1 = {_g(problem.spec.rho1)}",
             f"# rho2 = {_g(problem.spec.rho2)}"]
    for key, val in orbit.summary().items():
        if key == "omega":
            continue
        lines.append(f"# {key} = {_g(float(val))}")
    lines.append("t,x,v")
    for t, x, v in zip(orbit.path.t, orbit.path.x, orbit.path.v):
        lines.append(f"{_g(t)},{_g(x)},{_g(v)}")
    return "\n".join(lines) + "\n"


def _old_X(v, xlo, xhi, px0, px1):
    return px0 + (v - xlo) / (xhi - xlo) * (px1 - px0)


def _old_Y(v, ylo, yhi, py0, py1):
    return py1 - (v - ylo) / (yhi - ylo) * (py1 - py0)


def _per_point_render_panel(panel, width, height, y_off):
    xlo, xhi = svgfig._data_range(panel.x)
    ylo, yhi = svgfig._data_range(panel.y)
    px0, px1 = svgfig._MARGIN_L, width - svgfig._MARGIN_R
    py0, py1 = y_off + svgfig._MARGIN_T, y_off + height - svgfig._MARGIN_B

    def X(v):
        return _old_X(v, xlo, xhi, px0, px1)

    def Y(v):
        return _old_Y(v, ylo, yhi, py0, py1)

    out = [f'<rect x="{px0}" y="{py0}" width="{px1 - px0}" '
           f'height="{py1 - py0}" fill="white" stroke="#444444" '
           f'stroke-width="1"/>']
    for tx in svgfig._ticks(xlo, xhi):
        gx = X(tx)
        out.append(f'<line x1="{gx:.2f}" y1="{py0}" x2="{gx:.2f}" '
                   f'y2="{py1}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{gx:.2f}" y="{py1 + 18}" font-size="12" '
                   f'text-anchor="middle">{svgfig._fmt(tx)}</text>')
    for ty in svgfig._ticks(ylo, yhi):
        gy = Y(ty)
        out.append(f'<line x1="{px0}" y1="{gy:.2f}" x2="{px1}" '
                   f'y2="{gy:.2f}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px0 - 6}" y="{gy + 4:.2f}" font-size="12" '
                   f'text-anchor="end">{svgfig._fmt(ty)}</text>')
    pts = " ".join(f"{X(a):.2f},{Y(b):.2f}" for a, b in zip(panel.x, panel.y))
    out.append(f'<polyline points="{pts}" fill="none" '
               f'stroke="{panel.color}" stroke-width="1.3"/>')
    if panel.title:
        out.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{py0 - 14}" '
                   f'font-size="15" text-anchor="middle" '
                   f'font-weight="bold">{panel.title}</text>')
    cy = (py0 + py1) / 2
    out.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{py1 + 38}" '
               f'font-size="13" text-anchor="middle">{panel.xlabel}</text>')
    out.append(f'<text x="18" y="{cy:.1f}" font-size="13" '
               f'text-anchor="middle" '
               f'transform="rotate(-90 18 {cy:.1f})">{panel.ylabel}</text>')
    return out


# ---------------------------------------------------------------------------
# byte identity on the bundled instances


# a numeric kernel under strong negative damping, whose table holds nan
# cells and whose constants are not finite
NEGATIVE_P = """\
omega = 2*pi/3
p = -50
q = 1
b = 1
c = 1
e = 1
rho1 = 3/2
rho2 = 1
"""
NUMERIC_TEXTS = {"numeric": ABOVE_HALF_PERIOD, "negative_p": NEGATIVE_P}


def _greens_target(tmp_path, name) -> str:
    """The greens argument for name: a bundled instance, or the path of
    a file holding one of NUMERIC_TEXTS."""
    if name not in NUMERIC_TEXTS:
        return name
    path = tmp_path / f"{name}.problem"
    path.write_text(NUMERIC_TEXTS[name])
    return str(path)


@pytest.mark.parametrize("name, n", [
    *((name, n) for name in BUNDLED + ["numeric"] for n in [1, 7, 200, 333]),
    ("negative_p", 20)])
def test_greens_csv_matches_per_cell_writer(tmp_path, capsys, name, n):
    name = _greens_target(tmp_path, name)
    assert cli.main(["greens", name, "--n", str(n), "--out",
                     str(tmp_path)]) == 0
    capsys.readouterr()
    problem = cli._resolve(name)
    spec = problem.spec
    gf = kernel_for(spec.p, spec.l, spec.omega)
    written = (tmp_path / f"{problem.name}.greens.csv").read_bytes()
    assert written == _per_cell_greens_csv(problem, gf, n).encode()


def _repeats(values: np.ndarray) -> bool:
    """Whether at most half of the cells of values hold distinct bits."""
    distinct = np.unique(np.ascontiguousarray(values).view(np.int64))
    return 2 * distinct.size <= values.size


def test_greens_kernels_take_each_format_path(monkeypatch):
    """The kernel's source picks the block writer.  example41's closed-form
    tables join cells formatted once a distinct value: at the default n,
    [example41-200] above, both columns repeat, and at n = 7 its G repeats
    and its Gt does not.  A numeric kernel's columns do not repeat past
    n = 1, and [numeric-7/200/333] and [negative_p-20] format every
    float."""
    joined = []
    kernel_cells = cli._kernel_cells

    def counted(values, sep):
        joined.append(sep)
        return kernel_cells(values, sep)

    monkeypatch.setattr(cli, "_kernel_cells", counted)
    for name, n, repeats in [
            ("example41", 200, (True, True)), ("example41", 7, (True, False)),
            ("numeric", 7, (False, False)), ("numeric", 200, (False, False)),
            ("numeric", 333, (False, False)),
            ("negative_p", 20, (False, False))]:
        problem = (cli._resolve(name) if name in BUNDLED
                   else parse_problem_text(NUMERIC_TEXTS[name]))
        spec = problem.spec
        gf = kernel_for(spec.p, spec.l, spec.omega)
        t, G, Gt = gf.table(n)
        assert (_repeats(G), _repeats(Gt)) == repeats
        del joined[:]
        for _ in cli._greens_csv(problem, gf, t, G, Gt):
            pass
        closed = gf.source == "closed-form"
        assert closed == (name == "example41")
        assert joined == ([",", "\n"] if closed else [])


@pytest.mark.parametrize("name", ["example41", "numeric"])
def test_greens_memory_stays_below_its_csv(tmp_path, capsys, name):
    """greens at the default n writes its CSV one t-block at a time: the
    traced peak of the whole command stays below the size of the file,
    which a writer that builds the file as one string exceeds."""
    name = _greens_target(tmp_path, name)
    argv = ["greens", name, "--out", str(tmp_path)]
    assert cli.main(argv) == 0  # compiles and caches what later runs reuse
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    written = (tmp_path / f"{cli._resolve(name).name}.greens.csv").stat()
    assert peak < written.st_size


@pytest.mark.parametrize("name", BUNDLED)
def test_orbit_csv_and_svgs_match_per_point_writers(tmp_path, capsys,
                                                    monkeypatch, name):
    assert cli.main(["solve", name, "--svg", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    problem = cli._resolve(name)
    orbit = cli._solve_problem(problem, argparse.Namespace(tol=None))
    written = (tmp_path / f"{name}.orbit.csv").read_bytes()
    assert written == _per_point_orbit_csv(problem, orbit).encode()

    monkeypatch.setattr(svgfig, "_render_panel", _per_point_render_panel)
    expected = {
        "phase": svgfig.phase_svg(orbit.path,
                                  title=f"Phase portrait ({name})"),
        "timeseries": svgfig.timeseries_svg(orbit.path,
                                            title=f"Time series ({name})"),
    }
    for kind, text in expected.items():
        assert (tmp_path / f"{name}.{kind}.svg").read_text() == text


# ---------------------------------------------------------------------------
# the identities the block writers rest on


_EDGES = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
          2.2250738585072009e-308, 1.7976931348623157e308, 0.005, 0.015,
          -0.125, 2.675, 1e16, 123456789012345678.0]


def _with_edges(test):
    for x in _EDGES:
        test = example(x)(test)
    return test


@_with_edges
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_percent_formats_equal_f_strings(x):
    for spec in (".17g", ".2f"):
        want = format(x, spec)
        assert ("%" + spec) % x == want
        # the per-cell writers formatted numpy scalars
        assert format(np.float64(x), spec) == want


_finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False,
                    allow_subnormal=True)


@given(st.lists(_finite, min_size=1, max_size=40),
       st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=1000))
def test_array_pixels_equal_per_point_pixels(values, p0, span):
    """Mapping a whole array gives, element for element, the doubles the
    per-point X and Y gave, and Y's form p0 + ... * (p1 - p0) with
    p1 < p0 is exactly the old py1 - ... * (py1 - py0)."""
    v = np.array(values)
    lo, hi = svgfig._data_range(v)
    p1 = p0 + span
    x_new = svgfig._to_pixels(v, lo, hi, p0, p1)
    y_new = svgfig._to_pixels(v, lo, hi, p1, p0)
    x_old = np.array([_old_X(a, lo, hi, p0, p1) for a in v])
    y_old = np.array([_old_Y(a, lo, hi, p0, p1) for a in v])
    assert x_new.tobytes() == x_old.tobytes()
    assert y_new.tobytes() == y_old.tobytes()
    # tick positions are mapped one Python float at a time
    for a in values:
        assert (svgfig._to_pixels(a, lo, hi, p0, p1).hex()
                == _old_X(a, lo, hi, p0, p1).hex())
        assert (svgfig._to_pixels(a, lo, hi, p1, p0).hex()
                == _old_Y(a, lo, hi, p0, p1).hex())


# ---------------------------------------------------------------------------
# kernel cells: each distinct bit pattern formatted once


def _assert_cells_match_per_cell(values: np.ndarray) -> bool:
    """The cells of values are the per-cell strings with the separator
    attached; returns whether the values repeat."""
    for sep in (",", "\n"):
        assert cli._kernel_cells(values, sep) == [
            [_g(v) + sep for v in row] for row in values.tolist()]
    return _repeats(values)


_any_float = st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True)


@given(st.lists(_any_float, min_size=1, max_size=3), st.data())
def test_repeating_kernel_cells_match_per_cell_writer(pool, data):
    """At most three distinct values in at least six cells: each distinct
    one is formatted once."""
    shape = (data.draw(st.integers(2, 9)), data.draw(st.integers(3, 9)))
    picks = data.draw(st.lists(st.sampled_from(pool),
                               min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]))
    values = np.array(picks).reshape(shape)
    assert _assert_cells_match_per_cell(values)


@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_distinct_kernel_cells_match_per_cell_writer(rows, cols, data):
    """No two cells share a bit pattern: each is formatted once all the
    same."""
    picks = data.draw(st.lists(_any_float, min_size=rows * cols,
                               max_size=rows * cols,
                               unique_by=lambda x: struct.pack("<d", x)))
    values = np.array(picks).reshape(rows, cols)
    assert not _assert_cells_match_per_cell(values)


def test_kernel_cells_keep_signed_zeros_and_special_values():
    """-0.0 and 0.0 compare equal as floats but are written differently;
    nan, the infinities and subnormals keep their own strings too."""
    edges = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
             -5e-324, 2.2250738585072009e-308, 1.5]
    values = np.array(edges * 4 + [-0.0, 0.0]).reshape(6, 7)
    assert _assert_cells_match_per_cell(values)
    assert _assert_cells_match_per_cell(values[:, ::-1])
    assert not _assert_cells_match_per_cell(np.array(edges).reshape(2, 5))
