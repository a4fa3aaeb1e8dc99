import random

import pytest

from thermocc.annot import (Detection, GroundTruthBox, NormalizedBox,
                            from_pixel_box, parse_labels, parse_predictions,
                            serialize_labels, serialize_predictions)
from thermocc.errors import (AnnotationParseError, BoxRangeError,
                             DegenerateBoxError, ThermoccError)
from thermocc.metrics import to_pixel_box


def test_parse_labels_empty_means_no_objects():
    assert parse_labels("") == []
    assert parse_labels("   \n\n  \t\n") == []


def test_parse_labels_example():
    boxes = parse_labels("0 0.5 0.5 0.25 0.3\n")
    assert len(boxes) == 1
    box = boxes[0].box
    assert (box.cx, box.cy, box.w, box.h) == (0.5, 0.5, 0.25, 0.3)
    assert boxes[0].class_id == 0


def test_parse_labels_rejects_wide_box():
    with pytest.raises(BoxRangeError):
        parse_labels("0 0.5 0.5 1.5 0.3\n")


def test_parse_labels_rejects_field_count():
    with pytest.raises(AnnotationParseError) as err:
        parse_labels("0 0.5 0.5 0.25\n")
    assert "line 1" in str(err.value)


def test_parse_labels_rejects_nonzero_class():
    with pytest.raises(BoxRangeError):
        parse_labels("1 0.5 0.5 0.25 0.3\n")


def test_parse_labels_rejects_garbage_numbers():
    with pytest.raises(AnnotationParseError):
        parse_labels("0 x 0.5 0.25 0.3\n")
    with pytest.raises(AnnotationParseError):
        parse_labels("zero 0.5 0.5 0.25 0.3\n")


def test_parse_labels_rejects_nan():
    with pytest.raises(BoxRangeError):
        parse_labels("0 0.5 0.5 nan 0.3\n")


def test_parse_labels_reports_offending_line():
    text = "0 0.5 0.5 0.25 0.3\n\n0 0.5 0.5 0.25 2.0\n"
    with pytest.raises(BoxRangeError) as err:
        parse_labels(text)
    assert "line 3" in str(err.value)


# One row per raise that parse_labels or parse_predictions can reach,
# with its exact class and message. A line that is wrong in more than one
# way pins the order of checks: field count; class as an integer; cx, cy,
# w, h as numbers; the box range; confidence as a number; then class 0
# and the confidence range.
PARSE_ERRORS = [
    # field count
    (parse_labels, "0 0.5 0.5 0.25\n", AnnotationParseError,
     "line 1: expected 5 fields, got 4"),
    (parse_labels, "0 0.5 0.5 0.25 0.3 0.9\n", AnnotationParseError,
     "line 1: expected 5 fields, got 6"),
    (parse_predictions, "0 0.5 0.5 0.25 0.3\n", AnnotationParseError,
     "line 1: expected 6 fields, got 5"),
    # class as an integer
    (parse_labels, "zero 0.5 0.5 0.25 0.3\n", AnnotationParseError,
     "line 1: class id 'zero' is not an integer"),
    (parse_predictions, "0.0 0.5 0.5 0.25 0.3 0.9\n", AnnotationParseError,
     "line 1: class id '0.0' is not an integer"),
    # geometry as numbers
    (parse_labels, "0 x 0.5 0.25 0.3\n", AnnotationParseError,
     "line 1: cx 'x' is not a number"),
    (parse_labels, "0 0.5 y 0.25 0.3\n", AnnotationParseError,
     "line 1: cy 'y' is not a number"),
    (parse_labels, "0 0.5 0.5 w 0.3\n", AnnotationParseError,
     "line 1: w 'w' is not a number"),
    (parse_predictions, "0 0.5 0.5 0.25 h 0.9\n", AnnotationParseError,
     "line 1: h 'h' is not a number"),
    # the box range
    (parse_labels, "0 1.5 0.5 0.25 0.3\n", BoxRangeError,
     "line 1: cx must lie in [0, 1], got 1.5"),
    (parse_predictions, "0 0.5 -0.1 0.25 0.3 0.9\n", BoxRangeError,
     "line 1: cy must lie in [0, 1], got -0.1"),
    (parse_labels, "0 0.5 0.5 0 0.3\n", BoxRangeError,
     "line 1: w must lie in (0, 1], got 0.0"),
    (parse_labels, "0 0.5 0.5 0.25 nan\n", BoxRangeError,
     "line 1: h must lie in (0, 1], got nan"),
    # confidence as a number
    (parse_predictions, "0 0.5 0.5 0.25 0.3 c\n", AnnotationParseError,
     "line 1: confidence 'c' is not a number"),
    # class 0 and the confidence range
    (parse_labels, "1 0.5 0.5 0.25 0.3\n", BoxRangeError,
     "line 1: only class 0 exists in this task, got 1"),
    (parse_predictions, "1 0.5 0.5 0.25 0.3 0.9\n", BoxRangeError,
     "line 1: only class 0 exists in this task, got 1"),
    (parse_predictions, "0 0.5 0.5 0.25 0.3 1.2\n", BoxRangeError,
     "line 1: confidence must lie in [0, 1], got 1.2"),
    (parse_predictions, "0 0.5 0.5 0.25 0.3 nan\n", BoxRangeError,
     "line 1: confidence must lie in [0, 1], got nan"),
    # blank lines count toward the line number
    (parse_labels, "\n0 0.5 0.5 0.25 0.3\n\n0 0.5 0.5 0.25 2.0\n",
     BoxRangeError, "line 4: h must lie in (0, 1], got 2.0"),
    # wrong in two ways: the earlier check wins
    (parse_labels, "x 0.5\n", AnnotationParseError,
     "line 1: expected 5 fields, got 2"),
    (parse_labels, "x 0.5 y 0.25 0.3\n", AnnotationParseError,
     "line 1: class id 'x' is not an integer"),
    (parse_predictions, "0 x 0.5 0.25 0.3 c\n", AnnotationParseError,
     "line 1: cx 'x' is not a number"),
    (parse_predictions, "0 1.5 0.5 0.25 0.3 c\n", BoxRangeError,
     "line 1: cx must lie in [0, 1], got 1.5"),
    (parse_labels, "1 0.5 0.5 1.5 0.3\n", BoxRangeError,
     "line 1: w must lie in (0, 1], got 1.5"),
    (parse_predictions, "1 0.5 0.5 0.25 0.3 c\n", AnnotationParseError,
     "line 1: confidence 'c' is not a number"),
    (parse_predictions, "1 0.5 0.5 0.25 0.3 1.2\n", BoxRangeError,
     "line 1: only class 0 exists in this task, got 1"),
]


@pytest.mark.parametrize("parse, text, error, message", PARSE_ERRORS)
def test_parse_error_table(parse, text, error, message):
    with pytest.raises(ThermoccError) as err:
        parse(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_serialize_labels_empty_and_single():
    assert serialize_labels([]) == ""
    text = serialize_labels([GroundTruthBox(0, NormalizedBox(0.5, 0.5, 0.25, 0.3))])
    assert text == "0 0.500000 0.500000 0.250000 0.300000\n"


def test_predictions_example_and_conf_range():
    dets = parse_predictions("0 0.5 0.5 0.25 0.3 0.95\n")
    assert dets[0].confidence == 0.95
    with pytest.raises(BoxRangeError):
        parse_predictions("0 0.5 0.5 0.25 0.3 1.20\n")


def test_predictions_share_label_geometry_grammar():
    geo = "0 0.41 0.52 0.11 0.19"
    label_box = parse_labels(geo + "\n")[0].box
    pred_box = parse_predictions(geo + " 0.5\n")[0].box
    assert label_box == pred_box


def test_serialize_predictions():
    det = Detection(0, NormalizedBox(0.5, 0.5, 0.25, 0.3), 0.875)
    assert (serialize_predictions([det])
            == "0 0.500000 0.500000 0.250000 0.300000 0.875000\n")


def test_label_roundtrip_random():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(0, 4)
        boxes = []
        for _ in range(n):
            w = rng.uniform(1e-3, 1.0)
            h = rng.uniform(1e-3, 1.0)
            boxes.append(GroundTruthBox(0, NormalizedBox(
                rng.uniform(0, 1), rng.uniform(0, 1), w, h)))
        back = parse_labels(serialize_labels(boxes))
        assert len(back) == n
        for orig, got in zip(boxes, back):
            for name in ("cx", "cy", "w", "h"):
                assert abs(getattr(orig.box, name) - getattr(got.box, name)) <= 1e-6


def test_prediction_roundtrip_random():
    rng = random.Random(100)
    for _ in range(1000):
        n = rng.randint(0, 4)
        dets = [Detection(0, NormalizedBox(rng.uniform(0, 1), rng.uniform(0, 1),
                                           rng.uniform(1e-3, 1.0),
                                           rng.uniform(1e-3, 1.0)),
                          rng.uniform(0, 1)) for _ in range(n)]
        back = parse_predictions(serialize_predictions(dets))
        assert len(back) == n
        for orig, got in zip(dets, back):
            assert abs(orig.confidence - got.confidence) <= 1e-6
            assert abs(orig.box.cx - got.box.cx) <= 1e-6


def test_detection_rejects_bad_confidence():
    with pytest.raises(BoxRangeError):
        Detection(0, NormalizedBox(0.5, 0.5, 0.1, 0.1), 1.01)
    with pytest.raises(BoxRangeError):
        Detection(0, NormalizedBox(0.5, 0.5, 0.1, 0.1), -0.01)


def test_to_pixel_box_centered():
    box = to_pixel_box(NormalizedBox(0.5, 0.5, 0.5, 0.5), 128, 96)
    assert (box.x0, box.y0, box.x1, box.y1) == (32.0, 24.0, 96.0, 72.0)


def test_to_pixel_box_clamps_at_corner():
    box = to_pixel_box(NormalizedBox(1.0, 1.0, 0.5, 0.5), 128, 96)
    assert (box.x0, box.y0, box.x1, box.y1) == (96.0, 72.0, 128.0, 96.0)


def test_to_pixel_box_keeps_subpixel_boxes():
    box = to_pixel_box(NormalizedBox(0.0, 0.0, 0.001, 0.001), 128, 96)
    assert box.x0 == 0.0 and box.y0 == 0.0
    assert box.x1 == pytest.approx(0.064)
    assert box.y1 == pytest.approx(0.048)
    assert box.area() > 0


def test_to_pixel_box_degenerate_guard():
    # a box fully outside the clamp window can only be built by bypassing
    # validation, but the rasterizer must still refuse it
    bad = object.__new__(NormalizedBox)
    object.__setattr__(bad, "cx", 2.0)
    object.__setattr__(bad, "cy", 0.5)
    object.__setattr__(bad, "w", 0.1)
    object.__setattr__(bad, "h", 0.1)
    with pytest.raises(DegenerateBoxError):
        to_pixel_box(bad, 128, 96)


def test_to_pixel_box_refuses_an_empty_grid_as_the_callers_error():
    """A grid 0 pixels wide or high raises ValueError, not the box's
    DegenerateBoxError, though the box collapses on it too."""
    for width, height in ((0, 96), (128, 0)):
        with pytest.raises(ValueError, match="at least 1x1") as got:
            to_pixel_box(NormalizedBox(0.5, 0.5, 0.5, 0.5), width, height)
        assert type(got.value) is ValueError


def test_pixel_box_roundtrip_random():
    rng = random.Random(5)
    for _ in range(400):
        w = rng.uniform(0.01, 0.4)
        h = rng.uniform(0.01, 0.4)
        cx = rng.uniform(w / 2, 1 - w / 2)
        cy = rng.uniform(h / 2, 1 - h / 2)
        box = NormalizedBox(cx, cy, w, h)
        back = from_pixel_box(to_pixel_box(box, 128, 96), 128, 96)
        assert back.cx == pytest.approx(cx, abs=1e-12)
        assert back.w == pytest.approx(w, abs=1e-12)


def test_nested_boxes_stay_nested():
    rng = random.Random(6)
    for _ in range(200):
        w = rng.uniform(0.2, 0.6)
        h = rng.uniform(0.2, 0.6)
        cx = rng.uniform(w / 2, 1 - w / 2)
        cy = rng.uniform(h / 2, 1 - h / 2)
        outer = to_pixel_box(NormalizedBox(cx, cy, w, h), 128, 96)
        inner = to_pixel_box(NormalizedBox(cx, cy, w / 2, h / 2), 128, 96)
        assert inner.x0 >= outer.x0 and inner.x1 <= outer.x1
        assert inner.y0 >= outer.y0 and inner.y1 <= outer.y1
