"""Dependency-free SVG line charts for trajectories.

Output is deterministic text: fixed float formatting, no timestamps, no
randomness, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BLUE, _RED = "#1f77b4", "#d62728"
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 74, 22, 40, 50


@dataclass(frozen=True)
class Panel:
    """One curve and its axes."""

    x: np.ndarray
    y: np.ndarray
    color: str
    xlabel: str
    ylabel: str
    title: str = ""


def _nice_step(span: float) -> float:
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    frac = raw / mag
    if frac < 1.5:
        nice = 1.0
    elif frac < 3.0:
        nice = 2.0
    elif frac < 7.0:
        nice = 5.0
    else:
        nice = 10.0
    return nice * mag


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _data_range(values) -> tuple[float, float]:
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi - lo < 1e-12 * max(1.0, abs(lo), abs(hi)):
        pad = max(1e-6, abs(lo) * 0.05, 0.5)
        lo, hi = lo - pad, hi + pad
    else:
        pad = 0.04 * (hi - lo)
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _to_pixels(v, lo, hi, p0, p1):
    """Data value v in [lo, hi] as a pixel coordinate from p0 to p1.  An
    array v gets the operations a float would, element by element, so
    its values are the same doubles."""
    return p0 + (v - lo) / (hi - lo) * (p1 - p0)


def _render_panel(panel: Panel, width: int, height: int, y_off: int) -> list[str]:
    xlo, xhi = _data_range(panel.x)
    ylo, yhi = _data_range(panel.y)
    px0, px1 = _MARGIN_L, width - _MARGIN_R
    py0, py1 = y_off + _MARGIN_T, y_off + height - _MARGIN_B

    def X(v):
        return _to_pixels(v, xlo, xhi, px0, px1)

    def Y(v):
        return _to_pixels(v, ylo, yhi, py1, py0)

    out = [f'<rect x="{px0}" y="{py0}" width="{px1 - px0}" '
           f'height="{py1 - py0}" fill="white" stroke="#444444" '
           f'stroke-width="1"/>']
    for tx in _ticks(xlo, xhi):
        gx = X(tx)
        out.append(f'<line x1="{gx:.2f}" y1="{py0}" x2="{gx:.2f}" '
                   f'y2="{py1}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{gx:.2f}" y="{py1 + 18}" font-size="12" '
                   f'text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        gy = Y(ty)
        out.append(f'<line x1="{px0}" y1="{gy:.2f}" x2="{px1}" '
                   f'y2="{gy:.2f}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px0 - 6}" y="{gy + 4:.2f}" font-size="12" '
                   f'text-anchor="end">{_fmt(ty)}</text>')
    xy = np.column_stack((X(panel.x), Y(panel.y))).ravel().tolist()
    pts = " ".join(["%.2f,%.2f"] * len(panel.x)) % tuple(xy)
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


def render_panels(panels, width: int = 760, panel_height: int = 360) -> str:
    total_h = panel_height * len(panels)
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{total_h}" viewBox="0 0 {width} {total_h}">',
            f'<rect width="{width}" height="{total_h}" fill="white"/>']
    for i, panel in enumerate(panels):
        body.extend(_render_panel(panel, width, panel_height,
                                  i * panel_height))
    body.append("</svg>")
    return "\n".join(body) + "\n"


def phase_svg(path, title: str = "Phase portrait") -> str:
    """Position-velocity loop of a trajectory."""
    return render_panels([Panel(path.x, path.v, _BLUE, "x", "x'", title)],
                         panel_height=480)


def timeseries_svg(path, title: str = "Time series") -> str:
    """Stacked x(t) and x'(t) panels."""
    return render_panels([Panel(path.t, path.x, _BLUE, "t", "x", title),
                          Panel(path.t, path.v, _RED, "t", "x'")])
