"""Property tests: the parsers of outside input fail only with ThermoccError,
the frame parser reads every header its grammar allows, the metrics'
box geometry, batch and one-box, gives the bits of the brute-force
oracle's rules, and NMS keeps what the oracle keeps.

Any exception other than a ThermoccError would reach the CLI as exit
code 2, which is reserved for bugs. The runs are derandomized and keep
no example database, so the suite does the same work on every run.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocc.annot import (Detection, NormalizedBox, parse_labels,
                            parse_predictions)
from thermocc.detect import nms
from thermocc.errors import DegenerateBoxError, ThermoccError
from thermocc.frame import ThermalFrame, decode_frame
from thermocc.manifest import read_manifest
from thermocc.metrics import (_corners, _match_block, _overlaps, iou,
                              to_pixel_box)

from oracle import corners, oracle_nms, overlap, ranking

SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                    deadline=None)

# Digit runs on both sides of the interpreter's 4300-digit int limit.
DIGITS = st.one_of(st.integers(0, 2 ** 20).map(str),
                   st.integers(4290, 4400).map(lambda n: "9" * n))

# --- frames ----------------------------------------------------------------

_WS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"  "])
_FIELD = st.one_of(DIGITS.map(str.encode), st.binary(max_size=4))


@st.composite
def pgm_like(draw):
    """A P5 header with each part drawn valid or mangled, then a payload."""
    ts = draw(st.one_of(DIGITS.map(str.encode), st.binary(max_size=6)))
    parts = [b"P5", draw(_WS), b"# ts=", ts, b"\n"]
    # the maxval field is often the one valid value, so that the checks
    # after it, on the sizes and the payload, run too
    for field in (_FIELD, _FIELD, st.one_of(st.just(b"65535"), _FIELD)):
        parts += [draw(field), draw(_WS)]
    return b"".join(parts) + draw(st.binary(max_size=32))


@given(st.one_of(st.binary(max_size=64), pgm_like()))
@SETTINGS
def test_decode_frame_raises_only_thermocc_errors(data):
    try:
        frame = decode_frame(data)
    except ThermoccError:
        return
    assert isinstance(frame, ThermalFrame)



_ANY_SPACE = " \t\r\n"


def _spaces(chars, min_size):
    return st.text(alphabet=chars, min_size=min_size, max_size=4).map(
        str.encode)


@st.composite
def valid_pgm(draw):
    """A valid frame whose header has any mix of space, tab, CR and LF
    wherever the grammar allows whitespace, and leading zeros on its
    numbers; returns (bytes, width, height, timestamp, payload)."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ts = draw(st.integers(-2 ** 40, 2 ** 40))
    payload = draw(st.binary(min_size=2 * width * height,
                             max_size=2 * width * height))
    header = [b"P5", draw(_spaces(_ANY_SPACE, 1)), b"#",
              draw(_spaces(" \t", 0)), b"ts=", str(ts).encode(),
              draw(_spaces(" \t\r", 0)), b"\n"]
    for k, field in enumerate((width, height, 65535)):
        zeros = b"0" * draw(st.integers(0, 2))
        header += [draw(_spaces(_ANY_SPACE, min(k, 1))), zeros,
                   str(field).encode()]
    header.append(draw(st.sampled_from(_ANY_SPACE)).encode())
    return b"".join(header) + payload, width, height, ts, payload


@given(valid_pgm())
@SETTINGS
def test_valid_headers_decode_to_their_fields(case):
    data, width, height, ts, payload = case
    frame = decode_frame(data)
    assert (frame.width, frame.height, frame.timestamp) == (width, height, ts)
    assert frame.temps.astype(">u2").tobytes() == payload


# --- labels and predictions --------------------------------------------------

_TOKEN = st.one_of(st.text(max_size=6), DIGITS,
                   st.floats().map(repr),
                   st.sampled_from(["0", "0.5", "nan", "-inf", "1e999",
                                    "٣", "0x1", "1_0"]))
_LINE = st.lists(_TOKEN, min_size=4, max_size=7).map(" ".join)
_ANNOTATION_TEXT = st.one_of(st.text(max_size=64),
                             st.lists(_LINE, max_size=4).map("\n".join))


@given(_ANNOTATION_TEXT)
@SETTINGS
def test_parse_labels_raises_only_thermocc_errors(text):
    try:
        parse_labels(text)
    except ThermoccError:
        pass


@given(_ANNOTATION_TEXT)
@SETTINGS
def test_parse_predictions_raises_only_thermocc_errors(text):
    try:
        parse_predictions(text)
    except ThermoccError:
        pass


# --- manifests ---------------------------------------------------------------

_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=6)
_RECORD = st.dictionaries(
    st.sampled_from(["frame", "labels", "occupied", "ts", "extra"]), _JSON,
    max_size=5).map(json.dumps)
# A well-formed record whose ts is a raw token, such as an overlong integer.
_TEMPLATED = DIGITS.map(lambda ts: '{"frame": "f.pgm", "labels": null, '
                                   '"occupied": false, "ts": ' + ts + "}")
_MANIFEST_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(st.one_of(_RECORD, _TEMPLATED, st.text(max_size=16)),
             max_size=3).map(lambda lines: "\n".join(lines).encode()))


@given(_MANIFEST_BYTES)
@SETTINGS
def test_read_manifest_raises_only_thermocc_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "property_manifest.jsonl"
    path.write_bytes(data)
    try:
        read_manifest(str(path))
    except ThermoccError:
        pass


# --- batch box geometry ------------------------------------------------------

# Centers and sizes mostly from a few values, so that boxes clamp at either
# edge, repeat, share edges and tie on y0 or x0; the rest drawn freely.
_CENTER = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                    st.floats(0.0, 1.0))
_SIZE = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(1e-3, 1.0))
_BOX = st.builds(NormalizedBox, _CENTER, _CENTER, _SIZE, _SIZE)
_GRID = st.sampled_from([(128, 96), (20, 20), (7, 3)])


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@given(st.lists(_BOX, max_size=8), _GRID)
@SETTINGS
def test_batch_corners_equal_oracle_corners(boxes, grid):
    got = _corners(boxes, *grid)
    assert got.shape == (len(boxes), 4)
    for box, row in zip(boxes, got):
        assert _hexes(row) == _hexes(corners(box, *grid))


@given(st.lists(st.tuples(_BOX, _BOX), min_size=1, max_size=8), _GRID)
@SETTINGS
def test_batch_iou_equals_oracle_overlap(pairs, grid):
    got = _overlaps(_corners([a for a, _ in pairs], *grid),
                    _corners([b for _, b in pairs], *grid))
    assert _hexes(got) == _hexes(overlap(corners(a, *grid), corners(b, *grid))
                                 for a, b in pairs)


@given(st.tuples(_BOX, _BOX), _GRID)
@SETTINGS
def test_one_box_views_equal_oracle(pair, grid):
    """to_pixel_box and iou, the one-box API, give the oracle's bits."""
    (a, b), want = pair, [corners(box, *grid) for box in pair]
    got = [to_pixel_box(box, *grid) for box in pair]
    assert [_hexes((p.x0, p.y0, p.x1, p.y1)) for p in got] == [
        _hexes(c) for c in want]
    assert float.hex(iou(*got)) == float.hex(overlap(*want))


@given(st.lists(st.lists(st.tuples(_BOX, st.sampled_from([0.0, 0.5, 1.0])),
                         max_size=6), max_size=4), _GRID)
@SETTINGS
def test_batch_order_equals_visit_order(images, grid):
    """Several images in one block, confidences from three values."""
    block = [([Detection(0, box, c) for box, c in image], [])
             for image in images]
    order, conf, found = _match_block(block, np.array([[0.5]]), *grid)
    want, want_conf = [], []
    for preds, _ in block:
        ranked = ranking(preds, [corners(d.box, *grid) for d in preds])
        want += ranked
        want_conf += [preds[i].confidence for i in ranked]
    assert order.tolist() == want
    assert _hexes(conf) == _hexes(want_conf)
    assert (found == -1).all()


@st.composite
def nms_inputs(draw):
    """Detections with confidences from three values, some repeated
    exactly, in any order."""
    dets = draw(st.lists(st.builds(Detection, st.just(0), _BOX,
                                   st.sampled_from([0.25, 0.5, 1.0])),
                         max_size=10))
    if dets:
        dets += draw(st.lists(st.sampled_from(dets), max_size=4))
    return draw(st.permutations(dets))


@given(nms_inputs(), st.sampled_from([0.0, 0.3, 0.5, 1.0]), _GRID)
@SETTINGS
def test_nms_equals_oracle_nms(dets, thresh, grid):
    assert nms(dets, thresh, *grid) == oracle_nms(dets, thresh, *grid)


@given(_CENTER, _CENTER, st.floats(5e-324, 1e-15), _GRID)
@SETTINGS
def test_batch_corners_reject_what_the_oracle_rejects(cx, cy, thin, grid):
    """A width that vanishes in rounding collapses the box, unless it
    sits at an edge where the clamp keeps it open."""
    box = NormalizedBox(cx, cy, thin, 0.5)
    x0, y0, x1, y1 = want = corners(box, *grid)
    if x1 > x0 and y1 > y0:
        assert _hexes(_corners([box], *grid)[0]) == _hexes(want)
    else:
        with pytest.raises(DegenerateBoxError) as got:
            _corners([NormalizedBox(0.5, 0.5, 0.5, 0.5), box], *grid)
        assert str(got.value) == (
            f"box collapses to zero area on a {grid[0]}x{grid[1]} grid")
