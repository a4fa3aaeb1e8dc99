import numpy as np
import pytest

from thermocc.errors import (FrameFormatError, FrameIOError,
                             FrameMetadataError, FrameTruncationError)
from thermocc.frame import (CENTI_KELVIN_OFFSET, ThermalFrame,
                            celsius_from_raw, decode_frame, encode_frame,
                            raw_from_celsius, read_frame, write_frame)


def make_frame(width, height, celsius, ts=0):
    temps = raw_from_celsius(np.full((height, width), celsius, dtype=np.float64))
    return ThermalFrame(width, height, temps, ts)


def test_raw_celsius_inverse():
    raws = np.array([0, 27315, 29715, 65535], dtype=np.uint16)
    assert np.array_equal(raw_from_celsius(celsius_from_raw(raws)), raws)


def test_celsius_from_raw_values():
    assert celsius_from_raw(27315) == 0.0
    assert celsius_from_raw(29715) == 24.0
    assert celsius_from_raw(0) == -273.15


def test_encode_frozen_bytes():
    frame = ThermalFrame(1, 1, np.array([[CENTI_KELVIN_OFFSET]], dtype=np.uint16), 0)
    assert encode_frame(frame) == b"P5\n# ts=0\n1 1\n65535\n\x6a\xb3"


def test_decode_example():
    data = b"P5\n# ts=100\n2 1\n65535\n" + bytes([0x74, 0x13, 0x6A, 0xB3])
    frame = decode_frame(data)
    assert frame.timestamp == 100
    assert frame.width == 2 and frame.height == 1
    assert celsius_from_raw(frame.temps).tolist() == [[24.0, 0.0]]


def test_decode_rejects_bad_magic():
    with pytest.raises(FrameFormatError):
        decode_frame(b"P6\n# ts=0\n1 1\n65535\n\x00\x00")


def test_decode_rejects_missing_ts_comment():
    with pytest.raises(FrameMetadataError):
        decode_frame(b"P5\n1 1\n65535\n\x00\x00")


def test_decode_rejects_malformed_ts():
    with pytest.raises(FrameMetadataError):
        decode_frame(b"P5\n# ts=abc\n1 1\n65535\n\x00\x00")


def test_decode_rejects_wrong_maxval():
    with pytest.raises(FrameFormatError):
        decode_frame(b"P5\n# ts=0\n1 1\n255\n\x00\x00")


def test_decode_rejects_truncated_payload():
    good = encode_frame(make_frame(4, 3, 20.0))
    with pytest.raises(FrameTruncationError):
        decode_frame(good[:-1])
    with pytest.raises(FrameTruncationError):
        decode_frame(good + b"\x00")


def test_decode_rejects_zero_dimension():
    with pytest.raises(FrameFormatError):
        decode_frame(b"P5\n# ts=0\n0 1\n65535\n")


def test_negative_timestamp_roundtrip():
    frame = make_frame(2, 2, 21.0, ts=-5)
    assert decode_frame(encode_frame(frame)).timestamp == -5


def test_roundtrip_random_frames():
    """encode/decode must be the identity in both directions."""
    rng = np.random.default_rng(2024)
    for _ in range(300):
        w = int(rng.integers(1, 17))
        h = int(rng.integers(1, 17))
        temps = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
        ts = int(rng.integers(-1000, 10_000_000))
        frame = ThermalFrame(w, h, temps, ts)
        data = encode_frame(frame)
        back = decode_frame(data)
        assert back == frame
        assert encode_frame(back) == data


def test_frame_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ThermalFrame(2, 2, np.zeros((3, 2), dtype=np.uint16), 0)


def test_frame_rejects_a_zero_dimension():
    # the array matches the shape, so only the dimension check refuses it
    with pytest.raises(ValueError, match="at least 1x1"):
        ThermalFrame(0, 1, np.zeros((1, 0), dtype=np.uint16), 0)


@pytest.mark.parametrize("counts", [[70000, 1, 2], [-1, 1, 2],
                                    [30315.7, 1, 2], [np.nan, 1, 2]])
def test_frame_refuses_counts_it_would_wrap(counts):
    # a uint16 cast would read the first three as 4464, 65535 and 30315
    with pytest.raises(ValueError, match="integer counts in 0..65535"):
        ThermalFrame(3, 1, np.array([counts]), 0)


def test_frame_takes_in_range_counts_of_any_integer_type():
    frame = ThermalFrame(3, 1, np.array([[0, 30315, 65535]], np.int64), 0)
    assert frame.temps.dtype == np.uint16
    assert frame.temps.tolist() == [[0, 30315, 65535]]


def test_frame_is_not_equal_to_another_type():
    frame = make_frame(2, 2, 24.0)
    assert (frame == object()) is False
    assert frame != "frame"


def test_write_frame_into_missing_directory(tmp_path):
    with pytest.raises(FrameIOError, match="cannot write frame"):
        write_frame(str(tmp_path / "missing" / "a.pgm"), make_frame(2, 2, 24.0))


def test_read_frame_missing_file(tmp_path):
    with pytest.raises(FrameIOError):
        read_frame(str(tmp_path / "nope.pgm"))


def test_read_frame_directory(tmp_path):
    with pytest.raises(FrameIOError):
        read_frame(str(tmp_path))


def test_decode_rejects_overlong_header_numbers():
    """Header fields past the interpreter's int digit limit are bad input."""
    digits = b"9" * 5000
    with pytest.raises(FrameMetadataError):
        decode_frame(b"P5\n# ts=" + digits + b"\n1 1\n65535\n\x00\x00")
    for header in (digits + b" 1\n65535", b"1 " + digits + b"\n65535",
                   b"1 1\n" + digits):
        with pytest.raises(FrameFormatError):
            decode_frame(b"P5\n# ts=0\n" + header + b"\n\x00\x00")


def test_decode_rejects_a_payload_size_too_long_to_print():
    """Two size fields that each parse can multiply to a payload size
    with more digits than the interpreter will print; that is bad input
    too, not a bug."""
    digits = b"9" * 2200
    with pytest.raises(FrameTruncationError) as info:
        decode_frame(b"P5\n# ts=0\n" + digits + b" " + digits
                     + b"\n65535\n\x00\x00")
    message = str(info.value)
    assert message.startswith("expected too many payload bytes for 999")
    assert message.endswith(", got 2")


_BIG = b"9" * 5000  # past the interpreter's int digit limit


@pytest.mark.parametrize("data, error, message", [
    (b"P6\n# ts=0\n1 1\n65535\n\x00\x00", FrameFormatError,
     "not a binary PGM: missing P5 magic"),
    (b"", FrameFormatError, "not a binary PGM: missing P5 magic"),
    (b"P5# ts=0\n1 1\n65535\n\x00\x00", FrameFormatError,
     "expected whitespace after magic"),
    (b"P5", FrameFormatError, "expected whitespace after magic"),
    (b"P5 \t\r\n", FrameFormatError, "header ends prematurely"),
    (b"P5\n1 1\n65535\n\x00\x00", FrameMetadataError,
     "expected a '# ts=' comment after the magic"),
    (b"P5\n# ts=0", FrameFormatError, "comment line is not terminated"),
    (b"P5\n# ts=abc\n1 1\n65535\n\x00\x00", FrameMetadataError,
     "comment must read '# ts=<integer>', got b'# ts=abc'"),
    (b"P5\n#ts=1 2\n1 1\n65535\n\x00\x00", FrameMetadataError,
     "comment must read '# ts=<integer>', got b'#ts=1 2'"),
    (b"P5\n# ts=" + _BIG + b"\n1 1\n65535\n\x00\x00", FrameMetadataError,
     "timestamp has too many digits"),
    (b"P5\n# ts=0\n", FrameFormatError,
     "missing or non-numeric width in header"),
    (b"P5\n# ts=0\n \t\r\n", FrameFormatError,
     "missing or non-numeric width in header"),
    (b"P5\n# ts=0\n+1 1\n65535\n\x00\x00", FrameFormatError,
     "missing or non-numeric width in header"),
    (b"P5\n# ts=0\n" + _BIG + b"\n", FrameFormatError,
     "width in header has too many digits"),
    (b"P5\n# ts=0\n1", FrameFormatError,
     "missing or non-numeric height in header"),
    (b"P5\n# ts=0\n1x1\n65535\n\x00\x00", FrameFormatError,
     "missing or non-numeric height in header"),
    (b"P5\n# ts=0\n1 " + _BIG + b" x", FrameFormatError,
     "height in header has too many digits"),
    (b"P5\n# ts=0\n1 1\n", FrameFormatError,
     "missing or non-numeric maxval in header"),
    (b"P5\n# ts=0\n1 1 -65535\n\x00\x00", FrameFormatError,
     "missing or non-numeric maxval in header"),
    (b"P5\n# ts=0\n1 1\n" + _BIG, FrameFormatError,
     "maxval in header has too many digits"),
    (b"P5\n# ts=0\n1 1\n255\n\x00\x00", FrameFormatError,
     "maxval must be 65535, got 255"),
    (b"P5\n# ts=0\n0 1\n65535", FrameFormatError, "bad dimensions 0x1"),
    (b"P5\n# ts=0\n2 000\n65535\n", FrameFormatError, "bad dimensions 2x0"),
    (b"P5\n# ts=0\n1 1\n65535", FrameFormatError,
     "missing whitespace before pixel data"),
    (b"P5\n# ts=0\n1 1\n65535x\x00\x00", FrameFormatError,
     "missing whitespace before pixel data"),
    (b"P5\n# ts=0\n1 1\n65535\n\x00", FrameTruncationError,
     "expected 2 payload bytes for 1x1, got 1"),
    # only one whitespace byte ends the header: the LF of CR LF is payload
    (b"P5\n# ts=0\n2 1\n65535\r\n\x00\x00\x00\x00", FrameTruncationError,
     "expected 4 payload bytes for 2x1, got 5"),
])
def test_decode_error_table(data, error, message):
    """Each way a header can be malformed, with the error class and the
    exact message it gives: one row or more for every raise."""
    with pytest.raises(error) as info:
        decode_frame(data)
    assert type(info.value) is error
    assert str(info.value) == message
