"""Thermal frame codec.

Frames travel as binary PGM (P5) files with a 16-bit big-endian
payload, maxval 65535, and a mandatory `# ts=<integer>` comment line
directly after the magic. Pixel values are centi-kelvin, so a raw
value v maps to (v - 27315) / 100 degrees Celsius and the codec is
lossless at 0.01 degree resolution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (FrameFormatError, FrameIOError, FrameMetadataError,
                     FrameTruncationError)

CENTI_KELVIN_OFFSET = 27315  # raw value of 0.00 degrees Celsius
PGM_MAXVAL = 65535
# The sensor's grid: synth draws on it and the metrics score on it.
NATIVE_WIDTH, NATIVE_HEIGHT = 128, 96

# The header grammar: whitespace after the magic, the `# ts=` line, then
# width, height and maxval, each optional so that the first missing one
# can be named, then the one whitespace byte that ends the header.
_SPACE = re.compile(rb"[ \t\r\n]*")
_TS_COMMENT = re.compile(rb"#[ \t]*ts=(-?\d+)[ \t\r]*$")
_FIELDS = re.compile(rb"[ \t\r\n]*(\d+)?(?:[ \t\r\n]+(\d+))?"
                     rb"(?:[ \t\r\n]+(\d+))?([ \t\r\n])?")


def celsius_from_raw(raw):
    """Convert raw centi-kelvin counts to degrees Celsius."""
    return (np.asarray(raw, dtype=np.float64) - CENTI_KELVIN_OFFSET) / 100.0


def raw_from_celsius(temp):
    """Quantize Celsius to centi-kelvin counts, clipped to the 16-bit range."""
    raw = np.floor(np.asarray(temp, dtype=np.float64) * 100.0
                   + CENTI_KELVIN_OFFSET + 0.5)
    return np.clip(raw, 0, PGM_MAXVAL).astype(np.uint16)


@dataclass(frozen=True, eq=False)
class ThermalFrame:
    """A single radiometric frame: raw counts plus a capture timestamp."""

    width: int
    height: int
    temps: np.ndarray  # shape (height, width), dtype uint16
    timestamp: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("frame dimensions must be at least 1x1")
        arr = np.ascontiguousarray(self.temps, dtype=np.uint16)
        if arr.shape != (self.height, self.width):
            raise ValueError(
                f"temps shape {arr.shape} does not match "
                f"{self.height}x{self.width}")
        object.__setattr__(self, "temps", arr)

    def temps_celsius(self) -> np.ndarray:
        return celsius_from_raw(self.temps)

    def __eq__(self, other):
        if not isinstance(other, ThermalFrame):
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and self.timestamp == other.timestamp
                and np.array_equal(self.temps, other.temps))

    __hash__ = None


def decode_frame(data: bytes) -> ThermalFrame:
    """Parse one binary PGM frame from bytes."""
    if not data.startswith(b"P5"):
        raise FrameFormatError("not a binary PGM: missing P5 magic")
    pos = _SPACE.match(data, 2).end()
    if pos == 2:
        raise FrameFormatError("expected whitespace after magic")
    if pos == len(data):
        raise FrameFormatError("header ends prematurely")
    if data[pos:pos + 1] != b"#":
        raise FrameMetadataError("expected a '# ts=' comment after the magic")
    eol = data.find(b"\n", pos)
    if eol < 0:
        raise FrameFormatError("comment line is not terminated")
    m = _TS_COMMENT.match(data[pos:eol])
    if m is None:
        raise FrameMetadataError(
            f"comment must read '# ts=<integer>', got {data[pos:eol]!r}")
    try:
        timestamp = int(m.group(1))
    except ValueError:  # beyond the interpreter's int digit limit
        raise FrameMetadataError("timestamp has too many digits") from None
    m = _FIELDS.match(data, eol + 1)
    fields = []
    for what, digits in zip(("width", "height", "maxval"), m.groups()):
        if digits is None:
            raise FrameFormatError(f"missing or non-numeric {what} in header")
        try:
            fields.append(int(digits))
        except ValueError:  # beyond the interpreter's int digit limit
            raise FrameFormatError(
                f"{what} in header has too many digits") from None
    width, height, maxval = fields
    if maxval != PGM_MAXVAL:
        raise FrameFormatError(f"maxval must be {PGM_MAXVAL}, got {maxval}")
    if width < 1 or height < 1:
        raise FrameFormatError(f"bad dimensions {width}x{height}")
    if m.group(4) is None:
        raise FrameFormatError("missing whitespace before pixel data")
    payload = data[m.end():]
    expected = width * height * 2
    if len(payload) != expected:
        try:
            size = str(expected)
        except ValueError:  # beyond the interpreter's int digit limit
            size = "too many"
        raise FrameTruncationError(
            f"expected {size} payload bytes for {width}x{height}, "
            f"got {len(payload)}")
    temps = np.frombuffer(payload, dtype=">u2").astype(np.uint16)
    return ThermalFrame(width, height, temps.reshape(height, width), timestamp)


def encode_frame(frame: ThermalFrame) -> bytes:
    """Serialize a frame; decode(encode(f)) == f byte-for-byte."""
    header = (f"P5\n# ts={frame.timestamp}\n"
              f"{frame.width} {frame.height}\n{PGM_MAXVAL}\n").encode("ascii")
    return header + frame.temps.astype(">u2").tobytes()


def read_frame(path: str) -> ThermalFrame:
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.readall()
    except OSError as exc:
        raise FrameIOError(f"cannot read frame {path}: {exc}") from exc
    return decode_frame(data)


def write_frame(path: str, frame: ThermalFrame) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(encode_frame(frame))
    except OSError as exc:
        raise FrameIOError(f"cannot write frame {path}: {exc}") from exc
