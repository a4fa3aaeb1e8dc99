"""Property tests: the parsers of outside input fail only with ThermoccError,
and the frame parser reads every header its grammar allows.

Any exception other than a ThermoccError would reach the CLI as exit
code 2, which is reserved for bugs. The runs are derandomized and keep
no example database, so the suite does the same work on every run.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from thermocc.annot import parse_labels, parse_predictions
from thermocc.errors import ThermoccError
from thermocc.frame import ThermalFrame, decode_frame
from thermocc.manifest import read_manifest

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
