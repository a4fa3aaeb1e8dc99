import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermocc
from thermocc.annot import Detection, NormalizedBox, PixelBox, from_pixel_box
from thermocc.detect import (DEFAULT_CONFIG, DetectorConfig, _warm_components,
                             detect_blobs, detect_manifest, nms, score_blob)
from thermocc.errors import ConfigError, DegenerateBoxError
from thermocc.frame import ThermalFrame, celsius_from_raw, decode_frame, \
    encode_frame, raw_from_celsius, read_frame
from thermocc.manifest import (ManifestRecord, prediction_filenames,
                               read_manifest, resolve)
from thermocc.metrics import to_pixel_box
from thermocc.synth import (DatasetSpec, FRONTAL_SCENARIOS, generate_dataset,
                            plan_dataset, render_frame)

from oracle import flood_fill_components, oracle_nms


def frame_from_celsius(temps, ts=0):
    temps = np.asarray(temps, dtype=np.float64)
    h, w = temps.shape
    return ThermalFrame(w, h, raw_from_celsius(temps), ts)


def uniform_frame(celsius, width=128, height=96):
    return frame_from_celsius(np.full((height, width), celsius))


# a config that accepts every component regardless of shape, used when a
# test targets the labeling rather than the scoring
OPEN_CONFIG = DetectorConfig(warm_threshold=30.0, t_warm=20.0, t_face=21.0,
                             area_knots=(1e-9, 2e-9, 0.999, 1.0),
                             aspect_knots=(1e-4, 2e-4, 500.0, 600.0),
                             nms_iou=1.0)


def test_default_config_values():
    cfg = DEFAULT_CONFIG
    assert cfg.warm_threshold == 30.0
    assert cfg.t_warm == 28.0
    assert cfg.t_face == 34.0
    assert cfg.area_knots == (0.005, 0.02, 0.25, 0.60)
    assert cfg.aspect_knots == (0.6, 0.8, 1.6, 2.2)
    assert cfg.nms_iou == 0.5


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(t_warm=35.0, t_face=34.0)
    with pytest.raises(ConfigError):
        DetectorConfig(area_knots=(0.02, 0.005, 0.25, 0.6))
    with pytest.raises(ConfigError):
        DetectorConfig(nms_iou=1.5)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError):
            DetectorConfig(warm_threshold=bad)
    # a non-finite temperature or knot can make a score NaN, which would
    # not be zeroed by a zero area or aspect score
    inf = float("inf")
    for bad in (dict(t_warm=-inf), dict(t_face=inf),
                dict(area_knots=(-inf, 0.02, 0.25, 0.6)),
                dict(aspect_knots=(0.6, 0.8, 1.6, inf)),
                dict(aspect_knots=(0.6, 0.8, 1.6, 1.6)),
                dict(area_knots=(0.02, 0.02, 0.25, 0.6))):
        with pytest.raises(ConfigError):
            DetectorConfig(**bad)


def test_score_blob_saturated():
    assert score_blob(34.0, 0.10, 1.0) == 1.0
    assert score_blob(40.0, 0.10, 1.0) == 1.0  # ramp clamps at 1


def test_score_blob_half_temperature():
    assert score_blob(31.0, 0.10, 1.0) == 0.5


def test_score_blob_cold_is_zero():
    assert score_blob(28.0, 0.10, 1.0) == 0.0
    assert score_blob(25.0, 0.10, 1.0) == 0.0


def test_score_blob_area_edges():
    assert score_blob(34.0, 0.004, 1.0) == 0.0
    assert score_blob(34.0, 0.0125, 1.0) == pytest.approx(0.5)  # mid-ramp
    assert score_blob(34.0, 0.60, 1.0) == 0.0
    assert score_blob(34.0, 0.425, 1.0) == pytest.approx(0.5)


def test_score_blob_aspect_edges():
    assert score_blob(34.0, 0.10, 0.6) == 0.0
    assert score_blob(34.0, 0.10, 0.7) == pytest.approx(0.5)
    assert score_blob(34.0, 0.10, 1.9) == pytest.approx(0.5)
    assert score_blob(34.0, 0.10, 2.2) == 0.0


def test_score_blob_monotone_in_temperature():
    scores = [score_blob(t, 0.10, 1.0) for t in np.linspace(26, 36, 41)]
    assert all(b >= a for a, b in zip(scores, scores[1:]))


def test_detect_uniform_cold_frame():
    assert detect_blobs(uniform_frame(22.0)) == []


def test_detect_single_rectangle():
    temps = np.full((96, 128), 22.0)
    temps[36:60, 54:74] = 34.0  # 20 wide, 24 tall
    dets = detect_blobs(frame_from_celsius(temps))
    assert len(dets) == 1
    det = dets[0]
    assert det.confidence == 1.0
    box = to_pixel_box(det.box, 128, 96)
    assert (box.x0, box.y0, box.x1, box.y1) == (54.0, 36.0, 74.0, 60.0)


def test_detect_two_rectangles_descending_confidence():
    temps = np.full((96, 128), 22.0)
    temps[10:34, 10:30] = 34.0   # saturated: confidence 1.0
    temps[60:84, 90:110] = 31.0  # half ramp: confidence 0.5
    dets = detect_blobs(frame_from_celsius(temps))
    assert len(dets) == 2
    assert dets[0].confidence == 1.0
    assert dets[1].confidence == 0.5
    assert dets[0].confidence > dets[1].confidence


def test_detect_subthreshold_blob_ignored():
    temps = np.full((96, 128), 22.0)
    temps[36:60, 54:74] = 29.5  # warm but below the 30 degree contour
    assert detect_blobs(frame_from_celsius(temps)) == []


def test_zero_confidence_component_is_dropped():
    """A blob above the warm contour whose area and aspect both score 1
    but whose mean is under t_warm scores 0 and is dropped; with t_warm
    lowered under its mean the same blob is kept."""
    temps = np.full((96, 128), 22.0)
    temps[40:56, 50:70] = 27.5  # 20 wide, 16 tall: aspect 0.8
    frame = frame_from_celsius(temps)
    assert detect_blobs(frame, DetectorConfig(warm_threshold=27.0)) == []
    det, = detect_blobs(frame, DetectorConfig(warm_threshold=27.0,
                                              t_warm=27.0))
    assert det.confidence == pytest.approx(0.5 / 7)


def test_component_boxes_match_bfs_oracle():
    """Component bounding boxes must equal a brute-force 4-connected
    flood fill, including diagonal-only neighbours staying separate."""
    rng = np.random.default_rng(77)
    for _ in range(60):
        h = int(rng.integers(4, 25))
        w = int(rng.integers(4, 25))
        mask = rng.random((h, w)) < 0.35
        temps = np.where(mask, 34.0, 22.0)
        dets = detect_blobs(frame_from_celsius(temps), OPEN_CONFIG)
        got = {tuple(np.round([b.x0, b.y0, b.x1, b.y1], 9))
               for b in (to_pixel_box(d.box, w, h) for d in dets)}
        want = {tuple(float(v) for v in box)
                for box, _ in flood_fill_components(mask.tolist())}
        assert got == want


@st.composite
def warm_masks(draw):
    """Random masks of every density, plus full masks, checkerboards,
    single rows or columns, and blobs."""
    h, w = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    kind = draw(st.sampled_from(["random", "full", "checker", "row",
                                 "column", "blob"]))
    if kind == "full":
        return np.ones((h, w), dtype=bool)
    if kind == "checker":
        yy, xx = np.indices((h, w))
        return (yy + xx) % 2 == draw(st.integers(0, 1))
    if kind == "blob":
        seed = draw(st.integers(0, 2 ** 32 - 1))
        return blob_mask(np.random.default_rng(seed), h, w)
    if kind == "row":
        h = 1
    elif kind == "column":
        w = 1
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).random((h, w)) < density


def blob_mask(rng, h, w):
    """One to three filled ellipses with a ragged rim, like a warm head
    or body. Some are centred on the first or last row or column, so
    they touch the frame's edge. A ragged rim can split a row into runs
    that join lower down, the case the labeller's one-component check
    cannot take."""
    yy, xx = np.indices((h, w))
    mask = np.zeros((h, w), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        cy, cx = int(rng.integers(0, h)), int(rng.integers(0, w))
        edge = rng.integers(0, 6)  # 4 and 5 leave the centre inside
        if edge == 0:
            cy = 0
        elif edge == 1:
            cy = h - 1
        elif edge == 2:
            cx = 0
        elif edge == 3:
            cx = w - 1
        ry, rx = rng.uniform(0.5, h / 2 + 1), rng.uniform(0.5, w / 2 + 1)
        dist = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2
        mask |= dist <= 1.0 + rng.uniform(-0.5, 0.5, (h, w))
    return mask


def labeller_and_flood_fill(mask):
    """The components the run labeller and the flood fill find, as
    (box, member raster indices) in order. They must be equal: the
    same components, order, boxes and members in raster order. The
    labeller's members are the pixels of its box that its component
    image marks k + 1, as detect_blobs reads them; the image must mark
    every cold pixel 0."""
    h, w = mask.shape
    index = np.arange(h * w).reshape(h, w)
    boxes, ids = _warm_components(mask.astype(np.uint16), 1)
    assert ((ids != 0) == mask).all()
    got = [((x0, y0, x1, y1),
            index[y0:y1, x0:x1][ids[y0:y1, x0:x1] == k + 1].tolist())
           for k, (y0, y1, x0, x1) in enumerate(boxes)]
    want = [(box, [r * w + c for r, c in members])
            for box, members in flood_fill_components(mask.tolist())]
    return got, want


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(warm_masks())
def test_warm_components_match_flood_fill(mask):
    got, want = labeller_and_flood_fill(mask)
    assert got == want


@pytest.mark.parametrize("rows, components", [
    # two runs on the top row join below: the one-component check fails
    # at the second top run, and the union-find finds one blob
    pytest.param(["#...#",
                  "#...#",
                  "#####"], 1, id="U"),
    pytest.param(["#.#",
                  "###"], 1, id="U-at-every-edge"),
    # one top run over two runs: the check holds
    pytest.param(["#####",
                  "#...#",
                  "#...#"], 1, id="cap"),
    pytest.param(["#####",
                  "#...#",
                  "#####"], 1, id="ring"),
    # a pixel that touches the blob's last row only at a corner
    pytest.param(["###..",
                  "###..",
                  "...#."], 2, id="corner-right"),
    pytest.param(["..###",
                  "..###",
                  ".#..."], 2, id="corner-left"),
    # each run of the lower bar lies two rows under a run of the upper
    # one, and a cold row parts them
    pytest.param(["####",
                  "....",
                  "####"], 2, id="bars"),
    # two runs that join one row down, and a run that joins nothing
    pytest.param(["##.##..#",
                  "#####..#"], 2, id="join-and-lone-run"),
    # every run before the last touches a run of the row below: the
    # check from the bottom takes these
    pytest.param(["#...#...#",
                  "##.###.##",
                  ".#######."], 1, id="W"),
    pytest.param(["#.#.#.#",
                  "#.#.#.#",
                  "#######"], 1, id="comb-on-a-bar"),
    # one component with a run that touches nothing above and another
    # that touches nothing below: both checks fail
    pytest.param(["#...#",
                  "#####",
                  "#...#"], 1, id="H"),
    pytest.param(["#####",
                  "#...#",
                  "#....",
                  "#####",
                  "....#",
                  "#...#",
                  "#####"], 1, id="S"),
])
def test_one_component_check_edge_cases(rows, components):
    mask = np.array([[c == "#" for c in row] for row in rows])
    # the same shape inside a larger cold frame
    framed = np.zeros((mask.shape[0] + 4, mask.shape[1] + 6), dtype=bool)
    framed[2:-2, 3:-3] = mask
    for m in (mask, framed):
        got, want = labeller_and_flood_fill(m)
        assert len(want) == components
        assert got == want


def test_vertical_serpentine_matches_flood_fill():
    """One path up and down every other column of a full-size frame,
    turning on the top and bottom rows. Its runs form a chain of about
    6000, whose far end the least label reaches only after about 100
    labelling rounds."""
    mask = np.zeros((96, 128), dtype=bool)
    mask[:, ::2] = True
    mask[0, 1::4] = True
    mask[-1, 3::4] = True
    got, want = labeller_and_flood_fill(mask)
    assert len(want) == 1
    assert got == want


class NumpyWithoutArgsort:
    """numpy, except that argsort raises: only the labeller sorts."""

    def __getattr__(self, name):
        if name == "argsort":
            raise AssertionError("the frame entered the labeller")
        return getattr(np, name)


def test_u_shaped_frame_takes_the_one_blob_exit(monkeypatch):
    mask = np.zeros((96, 128), dtype=bool)
    mask[30:70, 40:90] = True
    mask[30:60, 50:80] = False  # a U: two top runs that join below
    monkeypatch.setattr("thermocc.detect.np", NumpyWithoutArgsort())
    got, want = labeller_and_flood_fill(mask)
    assert len(want) == 1
    assert got == want
    mask[65:70, 60:70] = False  # legs below as well, as in an H
    with pytest.raises(AssertionError, match="entered the labeller"):
        labeller_and_flood_fill(mask)


def oracle_detect(frame, config):
    """detect_blobs rebuilt on the flood-fill labeller, the Celsius mask
    and the brute-force NMS: each component's mean is taken over its
    pixels in raster order, as the detector's contract requires."""
    temps = frame.temps_celsius()
    mask = temps >= config.warm_threshold
    dets = []
    for (x0, y0, x1, y1), members in flood_fill_components(mask.tolist()):
        rows, cols = zip(*members)
        box = PixelBox(float(x0), float(y0), float(x1), float(y1))
        conf = score_blob(float(temps[list(rows), list(cols)].mean()),
                          box.area() / (frame.width * frame.height),
                          (y1 - y0) / (x1 - x0), config)
        if conf > 0.0:
            dets.append(Detection(0, from_pixel_box(box, frame.width,
                                                    frame.height), conf))
    return oracle_nms(dets, config.nms_iou, frame.width, frame.height)


def test_detect_matches_oracle_on_varied_temperatures():
    """Boxes, order and confidences, bit for bit, on blobs whose pixels
    differ in temperature."""
    rng = np.random.default_rng(5)
    config = dataclasses.replace(OPEN_CONFIG, t_face=40.0)
    for _ in range(40):
        h, w = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        temps = np.where(rng.random((h, w)) < rng.random(),
                         rng.uniform(29.0, 40.0, (h, w)), 22.0)
        frame = frame_from_celsius(temps)
        assert detect_blobs(frame, config) == oracle_detect(frame, config)


@pytest.mark.parametrize("pattern", ["checkerboard", "speckle"])
def test_dense_frame_matches_oracle(pattern):
    """Worst case for a run labeller: hundreds to thousands of tiny
    components on a full-size frame. No time bound: on such frames the
    per-component scoring costs more than the labelling."""
    yy, xx = np.indices((96, 128))
    if pattern == "checkerboard":
        mask = (yy + xx) % 2 == 0
    else:
        mask = np.random.default_rng(3).random((96, 128)) < 0.5
    frame = frame_from_celsius(np.where(mask, 34.0, 22.0))
    boxes, _ = _warm_components(frame.temps, DEFAULT_CONFIG._raw_cut)
    assert [(x0, y0, x1, y1) for y0, y1, x0, x1 in boxes] == \
        [box for box, _ in flood_fill_components(mask.tolist())]
    assert len(boxes) > 500
    assert detect_blobs(frame) == oracle_detect(frame, DEFAULT_CONFIG)


def knot_cases(x):
    """Trapezoid knots with a or d on x, one ulp inside and one ulp
    outside, as (knots, scores above zero)."""
    up, down = math.nextafter(x, math.inf), math.nextafter(x, -math.inf)
    for a, above in ((x, False), (down, True), (up, False)):
        yield (a, 2 * x, 3 * x, 4 * x), above
    for d, above in ((x, False), (up, True), (down, False)):
        yield (x / 4, x / 2, 3 * x / 4, d), above


@pytest.mark.parametrize("score", ["area", "aspect"])
def test_geometry_skip_at_the_trapezoid_knots(score):
    """The detector drops a component on its area or aspect score before
    taking its temperatures; at and around each knot it must still give
    what scoring every component gives, bit for bit."""
    rng = np.random.default_rng(11)
    temps = np.full((96, 128), 22.0)
    for y, x in ((10, 10), (60, 90)):  # two 20 x 24 blobs: the union-find
        temps[y:y + 24, x:x + 20] = rng.uniform(30.0, 40.0, (24, 20))
    frame = frame_from_celsius(temps)
    ratio = {"area": 20 * 24 / (128 * 96), "aspect": 24 / 20}[score]
    base = dataclasses.replace(OPEN_CONFIG, t_face=40.0)
    for knots, above in knot_cases(ratio):
        config = dataclasses.replace(base, **{f"{score}_knots": knots})
        dets = detect_blobs(frame, config)
        assert dets == oracle_detect(frame, config)
        assert len(dets) == (2 if above else 0)


def test_zero_geometry_components_convert_no_temperatures(monkeypatch):
    """On the checkerboard every component is one pixel, whose area
    score is zero, so no count is converted to Celsius; a frame with one
    scoring blob converts that blob's counts once, whether it takes a
    one-blob exit or, with one-pixel specks above and below the blob,
    the labeller."""
    yy, xx = np.indices((96, 128))
    checker = frame_from_celsius(np.where((yy + xx) % 2 == 0, 34.0, 22.0))
    temps = np.full((96, 128), 22.0)
    temps[36:60, 54:74] = 34.0
    one_blob = frame_from_celsius(temps)
    temps[[5, 5, 90], [5, 120, 10]] = 34.0
    specks = frame_from_celsius(temps)
    DEFAULT_CONFIG._raw_cut  # computed here, not under the spy
    sizes = []

    def spy(raw):
        sizes.append(len(raw))
        return celsius_from_raw(raw)

    monkeypatch.setattr("thermocc.detect.celsius_from_raw", spy)
    assert detect_blobs(checker) == []
    assert sizes == []
    assert len(detect_blobs(one_blob)) == 1
    assert sizes == [20 * 24]
    with monkeypatch.context() as m:
        m.setattr("thermocc.detect.np", NumpyWithoutArgsort())
        with pytest.raises(AssertionError, match="entered the labeller"):
            detect_blobs(specks)
    sizes.clear()
    assert len(detect_blobs(specks)) == 1
    assert sizes == [20 * 24]


def test_nms_runs_only_on_two_or_more_boxes(monkeypatch):
    calls = []

    def spy(dets, *args):
        calls.append(len(dets))
        return nms(dets, *args)

    monkeypatch.setattr("thermocc.detect.nms", spy)
    temps = np.full((96, 128), 22.0)
    temps[36:60, 54:74] = 34.0
    assert len(detect_blobs(frame_from_celsius(temps))) == 1
    assert calls == []
    temps[10:34, 10:30] = 34.0
    assert len(detect_blobs(frame_from_celsius(temps))) == 2
    assert calls == [2]


def test_threshold_edges_of_the_raw_range():
    """The cut on raw counts covers the whole 16-bit range: 0 is
    -273.15 C and 65535 is 382.2 C."""
    assert DEFAULT_CONFIG._raw_cut == 30315
    hottest = ThermalFrame(128, 96, np.full((96, 128), 65535, np.uint16), 0)
    whole = dataclasses.replace(OPEN_CONFIG, area_knots=(1e-9, 2e-9, 1.0, 2.0))
    for threshold in (382.21, 1000.0):
        config = dataclasses.replace(whole, warm_threshold=threshold)
        assert config._raw_cut == 65536
        assert detect_blobs(hottest, config) == []
    for threshold, frame in ((382.2, hottest), (-273.15, uniform_frame(22.0)),
                             (-1000.0, uniform_frame(22.0))):
        config = dataclasses.replace(whole, warm_threshold=threshold)
        dets = detect_blobs(frame, config)
        assert len(dets) == 1
        box = to_pixel_box(dets[0].box, 128, 96)
        assert (box.x0, box.y0, box.x1, box.y1) == (0.0, 0.0, 128.0, 96.0)


def test_cli_import_loads_no_scipy():
    """Start-up stays light: importing the CLI pulls in no scipy module,
    which once cost most of the CLI's start-up time."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(thermocc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, thermocc.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_diagonal_blobs_stay_separate():
    temps = np.full((8, 8), 22.0)
    temps[2, 2] = 34.0
    temps[3, 3] = 34.0  # touches only at the corner
    dets = detect_blobs(frame_from_celsius(temps), OPEN_CONFIG)
    assert len(dets) == 2


def test_nms_keeps_single():
    d = Detection(0, NormalizedBox(0.5, 0.5, 0.2, 0.2), 0.9)
    assert nms([d], 0.5, 128, 96) == [d]


def test_nms_drops_duplicate():
    box = NormalizedBox(0.5, 0.5, 0.2, 0.2)
    hi = Detection(0, box, 0.9)
    lo = Detection(0, box, 0.8)
    assert nms([lo, hi], 0.5, 128, 96) == [hi]


def test_nms_keeps_disjoint():
    a = Detection(0, NormalizedBox(0.25, 0.25, 0.2, 0.2), 0.9)
    b = Detection(0, NormalizedBox(0.75, 0.75, 0.2, 0.2), 0.7)
    assert nms([b, a], 0.5, 128, 96) == [a, b]


@pytest.mark.parametrize("survivor, loser", [
    ((10, 10, 30, 30), (10, 12, 30, 32)),  # lower y0
    ((10, 10, 30, 30), (12, 10, 32, 30)),  # same y0, lower x0
    ((14, 10, 34, 30), (10, 12, 30, 32)),  # y0 decides before x0
])
def test_nms_exact_confidence_tie(survivor, loser):
    """On equal confidence the box with the lower pixel y0, then x0,
    survives, whatever the input order."""
    keep, drop = (Detection(0, from_pixel_box(PixelBox(*b), 128, 96), 0.75)
                  for b in (survivor, loser))
    assert nms([keep, drop], 0.5, 128, 96) == [keep]
    assert nms([drop, keep], 0.5, 128, 96) == [keep]


def test_nms_rejects_boxes_as_to_pixel_box_does():
    """A box too thin for the grid fails with to_pixel_box's error, and
    so does any box on a grid under 1x1; no boxes there are no error."""
    thin = NormalizedBox(0.5, 0.5, 1e-17, 0.5)
    with pytest.raises(DegenerateBoxError) as want:
        to_pixel_box(thin, 128, 96)
    good = Detection(0, NormalizedBox(0.5, 0.5, 0.2, 0.2), 0.9)
    with pytest.raises(DegenerateBoxError) as got:
        nms([good, Detection(0, thin, 0.5)], 0.5, 128, 96)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="at least 1x1"):
        nms([good], 0.5, 0, 96)
    assert nms([], 0.5, 0, 96) == []


def test_nms_idempotent_and_subset():
    rng = np.random.default_rng(13)
    for _ in range(200):
        dets = []
        for _ in range(int(rng.integers(0, 8))):
            w = float(rng.uniform(0.05, 0.5))
            h = float(rng.uniform(0.05, 0.5))
            dets.append(Detection(0, NormalizedBox(
                float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), w, h),
                float(rng.uniform(0, 1))))
        kept = nms(dets, 0.5, 128, 96)
        assert all(d in dets for d in kept)
        assert nms(kept, 0.5, 128, 96) == kept
        confs = [d.confidence for d in kept]
        assert confs == sorted(confs, reverse=True)


def test_detect_deterministic_across_codec():
    temps = np.full((96, 128), 22.0)
    temps[30:60, 40:70] = 33.0
    frame = frame_from_celsius(temps)
    direct = detect_blobs(frame)
    via_codec = detect_blobs(decode_frame(encode_frame(frame)))
    assert direct == via_codec
    assert detect_blobs(frame) == direct


def test_detect_manifest_is_per_frame_detection_in_order(tmp_path):
    spec = DatasetSpec(frames=24, scenarios=FRONTAL_SCENARIOS, seed=5)
    manifest_path = generate_dataset(spec, str(tmp_path))
    records = read_manifest(manifest_path)[::-1]  # not in ts or file order
    expected = [detect_blobs(read_frame(resolve(manifest_path, rec.frame)))
                for rec in records]
    assert detect_manifest(records, manifest_path) == expected
    assert len(expected) == 24 and any(expected)


def test_prediction_filename():
    def rec(frame):
        return ManifestRecord(frame, None, False, 0)

    assert prediction_filenames([rec("frames/frame_000001.pgm"),
                                 rec("a/b/c.PGM")]) == \
        ["frame_000001.txt", "c.txt"]
    with pytest.raises(ConfigError):
        prediction_filenames([rec("a/x.pgm"), rec("b/x.pgm")])


# sha256 of warm_room_lines() at the commit that added this test
WARM_ROOM_SHA256 = ("419d422e48859b1f131bc9caca5e3ec3"
                   "eef1e4654c2d2fd9a16294d5482e5876")


def warm_room_lines():
    """One line per frame naming its detection count, then one line per
    detection: the float.hex of each box field and of the confidence.
    Noise in a room at 29.0 C or warmer leaves tens to about 1500 warm
    components per frame, so most of these frames go through the
    union-find rather than the one-blob exit."""
    for background in (28.5, 29.0, 29.5, 29.9):
        for seed in (0, 1):
            spec = DatasetSpec(frames=10, seed=seed,
                               background_temp=background)
            for plan in plan_dataset(spec):
                dets = detect_blobs(render_frame(spec, plan)[0])
                yield f"{background} {seed} {plan.index}: {len(dets)}"
                for d in dets:
                    yield " ".join(float.hex(v) for v in (
                        d.box.cx, d.box.cy, d.box.w, d.box.h, d.confidence))


def test_warm_room_detections_keep_their_bits():
    text = "\n".join(warm_room_lines()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == WARM_ROOM_SHA256
