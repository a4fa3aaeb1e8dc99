import os
import re

import pytest

from thermocc.errors import ConfigError
from thermocc.metrics import PRCurve
from thermocc.occupancy import (ControlPolicy, OccupancyTimeline,
                                simulate_control)
from thermocc.plots import emit_plots, pr_curve_svg, timeline_svg

CURVE = PRCurve(points=((0.25, 1.0), (0.5, 1.0), (0.5, 2 / 3), (0.75, 0.75)),
                total_gts=4)


def test_pr_curve_structure():
    svg = pr_curve_svg(CURVE, ap50=0.625)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 1
    assert "AP@0.50 = 0.625" in svg
    assert "recall" in svg and "precision" in svg
    points = re.search(r'<polyline points="([^"]+)"', svg).group(1)
    assert len(points.split()) == len(CURVE.points)
    for pair in points.split():
        assert re.fullmatch(r"-?\d+\.\d\d,-?\d+\.\d\d", pair)


def test_pr_curve_empty():
    svg = pr_curve_svg(PRCurve(points=(), total_gts=0), ap50=0.0)
    assert "no detections" in svg
    assert "<polyline" not in svg
    assert "AP@0.50 = 0.000" in svg


def test_pr_curve_deterministic():
    assert pr_curve_svg(CURVE, 0.625) == pr_curve_svg(CURVE, 0.625)


def test_timeline_paths():
    actual = OccupancyTimeline(((0, True), (10, True), (20, False),
                                (30, False), (40, True)))
    detected = OccupancyTimeline(((0, True), (10, False), (20, False),
                                  (30, False), (40, True)))
    svg = timeline_svg(actual, detected)
    paths = re.findall(r'<path d="([^"]+)"', svg)
    assert len(paths) == 2
    assert "actual" in svg and "detected" in svg
    assert "hvac on" not in svg
    # same series, same band: identical across renders
    same = timeline_svg(actual, actual)
    same_paths = re.findall(r'<path d="([^"]+)"', same)
    assert same_paths[0] == paths[0]
    # a different series in the second band changes that band's path
    assert same_paths[1] != paths[1]
    # bands sit at different heights, but the same series keeps the same
    # x steps and transition count in either band
    x_of = lambda d: re.findall(r"H (\d+\.\d\d)", d)
    assert x_of(same_paths[0]) == x_of(same_paths[1])
    assert same_paths[0].count("V ") == same_paths[1].count("V ")


def test_timeline_with_schedule():
    actual = OccupancyTimeline(((0, True), (10, False), (20, False)))
    schedule = simulate_control(actual, ControlPolicy(0.0, 900.0))
    svg = timeline_svg(actual, actual, schedule)
    assert "hvac on" in svg
    assert len(re.findall(r"<path ", svg)) == 3


def test_timeline_single_sample():
    one = OccupancyTimeline(((5, True),))
    svg = timeline_svg(one, one)
    assert svg.count("<path ") == 2  # span collapses but must not divide by 0


def test_timeline_tick_labels_cover_span():
    actual = OccupancyTimeline(((0, True), (1000, False)))
    svg = timeline_svg(actual, actual)
    assert ">0</text>" in svg
    assert ">1000</text>" in svg
    assert ">500</text>" in svg


def test_emit_plots_files(tmp_path):
    actual = OccupancyTimeline(((0, True), (10, False)))
    pr_path, tl_path = emit_plots(str(tmp_path), CURVE, 0.625, actual, actual)
    first = (open(pr_path, "rb").read(), open(tl_path, "rb").read())
    assert first[0].startswith(b"<svg ")
    assert first[1].endswith(b"</svg>\n")
    pr_path, tl_path = emit_plots(str(tmp_path), CURVE, 0.625, actual, actual)
    second = (open(pr_path, "rb").read(), open(tl_path, "rb").read())
    assert first == second


@pytest.mark.parametrize("empty", ["actual", "detected", "both"])
def test_timeline_refuses_an_empty_series(tmp_path, empty):
    """An empty actual or detected timeline is a ConfigError naming it,
    from timeline_svg and from emit_plots, which then writes no file."""
    none, one = OccupancyTimeline(()), OccupancyTimeline(((5, True),))
    actual = none if empty in ("actual", "both") else one
    detected = none if empty in ("detected", "both") else one
    named = "actual" if empty == "both" else empty
    with pytest.raises(ConfigError, match=f"the {named} timeline"):
        timeline_svg(actual, detected, simulate_control(detected))
    out = tmp_path / "plots"
    with pytest.raises(ConfigError, match=f"the {named} timeline"):
        emit_plots(str(out), CURVE, 0.625, actual, detected)
    assert not os.path.exists(out / "pr_curve.svg")
