"""Annotation boxes and their on-disk text format.

Label files carry one `class cx cy w h` line per object; prediction
files append a confidence column. All geometry is normalized to the
unit square with (cx, cy) the box center. A blank or empty file means
the frame has no objects, which is how unoccupied frames are stored.
Only class id 0 (a person's head) exists in this task; anything else
in a file is treated as corruption rather than silently carried along.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AnnotationParseError, BoxRangeError


@dataclass(frozen=True)
class NormalizedBox:
    """Center/size box in unit coordinates."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (0.0 <= self.cx <= 1.0):
            raise BoxRangeError(f"cx must lie in [0, 1], got {self.cx}")
        if not (0.0 <= self.cy <= 1.0):
            raise BoxRangeError(f"cy must lie in [0, 1], got {self.cy}")
        if not (0.0 < self.w <= 1.0):
            raise BoxRangeError(f"w must lie in (0, 1], got {self.w}")
        if not (0.0 < self.h <= 1.0):
            raise BoxRangeError(f"h must lie in (0, 1], got {self.h}")


@dataclass(frozen=True)
class GroundTruthBox:
    class_id: int
    box: NormalizedBox

    def __post_init__(self):
        if self.class_id != 0:
            raise BoxRangeError(
                f"only class 0 exists in this task, got {self.class_id}")


@dataclass(frozen=True)
class Detection:
    class_id: int
    box: NormalizedBox
    confidence: float

    def __post_init__(self):
        if self.class_id != 0:
            raise BoxRangeError(
                f"only class 0 exists in this task, got {self.class_id}")
        if not (0.0 <= self.confidence <= 1.0):
            raise BoxRangeError(
                f"confidence must lie in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class PixelBox:
    """Corner box in continuous pixel coordinates, x1/y1 exclusive-ish.

    Coordinates stay unrounded floats; rounding before overlap math
    would shift IoU values on images this small.
    """

    x0: float
    y0: float
    x1: float
    y1: float


def from_pixel_box(pbox: PixelBox, width: int, height: int) -> NormalizedBox:
    """Inverse of metrics.to_pixel_box, which scales boxes onto the grid,
    for boxes already inside it."""
    return NormalizedBox(
        cx=(pbox.x0 + pbox.x1) / 2.0 / width,
        cy=(pbox.y0 + pbox.y1) / 2.0 / height,
        w=(pbox.x1 - pbox.x0) / width,
        h=(pbox.y1 - pbox.y0) / height,
    )


def parse_labels(text: str) -> list[GroundTruthBox]:
    """Parse label text; blank and whitespace-only input is an empty list."""
    return _parse_lines(text, 5)


def serialize_labels(boxes: list[GroundTruthBox]) -> str:
    return _format_lines(boxes, confidence=False)


def parse_predictions(text: str) -> list[Detection]:
    """Parse prediction text: label grammar plus a trailing confidence."""
    return _parse_lines(text, 6)


def serialize_predictions(dets: list[Detection]) -> str:
    return _format_lines(dets, confidence=True)


def _parse_lines(text: str, nfields: int) -> list:
    """Read `class cx cy w h [conf]` lines, five fields to a GroundTruthBox
    and six to a Detection. Checks run in order: field count; class as an
    integer; cx, cy, w, h as numbers; the box range; confidence as a
    number; class 0 and the confidence range."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != nfields:
            raise AnnotationParseError(
                f"line {lineno}: expected {nfields} fields, got {len(fields)}")
        class_id = _number(fields[0], lineno, "class id", int)
        try:
            box = NormalizedBox(_number(fields[1], lineno, "cx"),
                                _number(fields[2], lineno, "cy"),
                                _number(fields[3], lineno, "w"),
                                _number(fields[4], lineno, "h"))
            rows.append(GroundTruthBox(class_id, box) if nfields == 5 else
                        Detection(class_id, box,
                                  _number(fields[5], lineno, "confidence")))
        except BoxRangeError as exc:
            raise BoxRangeError(f"line {lineno}: {exc}") from exc
    return rows


def _number(token: str, lineno: int, what: str, kind=float):
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise AnnotationParseError(
            f"line {lineno}: {what} {token!r} is not {noun}") from None


def _format_lines(rows, confidence: bool) -> str:
    """The one writer: six decimals per number, each line ends in LF."""
    return "".join([
        f"{r.class_id} {r.box.cx:.6f} {r.box.cy:.6f} {r.box.w:.6f} "
        f"{r.box.h:.6f}" + (f" {r.confidence:.6f}\n" if confidence else "\n")
        for r in rows])
