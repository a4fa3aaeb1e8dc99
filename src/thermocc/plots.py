"""Deterministic SVG plots: PR curve and occupancy/HVAC timelines.

The SVG is assembled by hand with fixed two-decimal coordinates, so a
rerun of the same pipeline produces byte-identical files that diff
cleanly under version control. No plotting library is involved.
"""

from __future__ import annotations

import os

from .errors import ConfigError
from .metrics import PRCurve
from .occupancy import HvacSchedule, OccupancyTimeline
from .util import make_dirs, write_text_atomic

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 62, 18, 22, 46

_STYLE = ("font-family=\"Helvetica, Arial, sans-serif\" "
          "font-size=\"13\" fill=\"#333\"")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _document(xlabel: str, ylabel: str, body: list[str]) -> str:
    """The SVG both figures share: background, plot frame, axis labels,
    then body's elements."""
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" '
        f'height="{y0 - y1}" fill="none" stroke="#999"/>',
        f'<text {_STYLE} x="{(x0 + x1) / 2:.0f}" y="{_H - 10}" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text {_STYLE} x="16" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">{ylabel}</text>',
        *body, "</svg>"]) + "\n"


def _x(frac: float) -> float:
    return _ML + frac * (_W - _ML - _MR)


def _y(frac: float) -> float:
    return (_H - _MB) - frac * (_H - _MT - _MB)


def pr_curve_svg(curve: PRCurve, ap50: float) -> str:
    """Precision/recall curve with the AP@0.50 figure annotated."""
    parts = []
    for k in range(5):
        frac = k / 4
        label = f"{frac:.2f}"
        parts.append(f'<text {_STYLE} x="{_fmt(_x(frac))}" y="{_H - _MB + 16}" '
                     f'text-anchor="middle">{label}</text>')
        parts.append(f'<text {_STYLE} x="{_ML - 8}" y="{_fmt(_y(frac) + 4)}" '
                     f'text-anchor="end">{label}</text>')
        if 0 < k < 4:
            parts.append(f'<line x1="{_fmt(_x(frac))}" y1="{_y(0)}" '
                         f'x2="{_fmt(_x(frac))}" y2="{_y(1)}" '
                         f'stroke="#eee"/>')
            parts.append(f'<line x1="{_x(0)}" y1="{_fmt(_y(frac))}" '
                         f'x2="{_x(1)}" y2="{_fmt(_y(frac))}" '
                         f'stroke="#eee"/>')
    if curve.points:
        coords = " ".join(f"{_fmt(_x(r))},{_fmt(_y(p))}"
                          for r, p in curve.points)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="#1f6fb4" stroke-width="2"/>')
    else:
        parts.append(f'<text {_STYLE} x="{_x(0.5):.0f}" y="{_y(0.5):.0f}" '
                     f'text-anchor="middle">no detections</text>')
    parts.append(f'<text {_STYLE} x="{_W - _MR - 8}" y="{_MT + 18}" '
                 f'text-anchor="end">AP@0.50 = {ap50:.3f}</text>')
    return _document("recall", "precision", parts)


def _step_path(timestamps: list[int], flags: list[bool], t0: int, span: int,
               y_off: float, y_on: float) -> str:
    def px(ts: int) -> str:
        return _fmt(_x((ts - t0) / span))

    def py(flag: bool) -> str:
        return _fmt(y_on if flag else y_off)

    cmds = [f"M {px(timestamps[0])} {py(flags[0])}"]
    for k in range(1, len(timestamps)):
        cmds.append(f"H {px(timestamps[k])}")
        if flags[k] != flags[k - 1]:
            cmds.append(f"V {py(flags[k])}")
    cmds.append(f"H {px(timestamps[-1])}")
    return " ".join(cmds)


def timeline_svg(actual: OccupancyTimeline, detected: OccupancyTimeline,
                 schedule: HvacSchedule | None = None) -> str:
    """Stacked step plots: actual occupancy, detected occupancy, HVAC."""
    parts = []
    series = [("actual", actual.timestamps(), actual.flags(), "#1f6fb4"),
              ("detected", detected.timestamps(), detected.flags(), "#d1495b")]
    for label, stamps, _, _ in series:
        if not stamps:
            raise ConfigError(f"the {label} timeline has no samples to plot")
    if schedule is not None and schedule.entries:
        series.append(("hvac on", [t for t, _ in schedule.entries],
                       [f for _, f in schedule.entries], "#3a7d44"))
    all_ts = [ts for _, stamps, _, _ in series for ts in stamps]
    t0 = min(all_ts)
    span = max(max(all_ts) - t0, 1)
    bands = len(series)
    usable = _H - _MT - _MB
    for band, (label, stamps, flags, color) in enumerate(series):
        base = _MT + usable * (band + 0.5) / bands
        y_on = base - usable / bands * 0.32
        y_off = base + usable / bands * 0.32
        parts.append(f'<text {_STYLE} x="{_ML + 6}" y="{_fmt(y_on - 6)}" '
                     f'fill="{color}">{label}</text>')
        parts.append(f'<path d="{_step_path(stamps, flags, t0, span, y_off, y_on)}" '
                     f'fill="none" stroke="{color}" stroke-width="1.5"/>')
    for k in range(5):
        ts = t0 + round(span * k / 4)
        parts.append(f'<text {_STYLE} x="{_fmt(_x(k / 4))}" '
                     f'y="{_H - _MB + 16}" text-anchor="middle">{ts}</text>')
    return _document("time (s)", "", parts)


def emit_plots(out_dir: str, curve: PRCurve, ap50: float,
               actual: OccupancyTimeline, detected: OccupancyTimeline,
               schedule: HvacSchedule | None = None) -> tuple[str, str]:
    """Write pr_curve.svg and occupancy_timeline.svg under out_dir; both
    are rendered first, so a refused timeline writes neither."""
    svgs = {"pr_curve.svg": pr_curve_svg(curve, ap50),
            "occupancy_timeline.svg": timeline_svg(actual, detected, schedule)}
    make_dirs(out_dir)
    for name, svg in svgs.items():
        write_text_atomic(os.path.join(out_dir, name), svg)
    return tuple(os.path.join(out_dir, name) for name in svgs)
