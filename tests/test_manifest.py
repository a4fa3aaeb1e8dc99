import pytest

from thermocc.errors import ManifestError
from thermocc.manifest import (ManifestRecord, read_manifest, resolve,
                               write_manifest)


def test_roundtrip(tmp_path):
    records = [
        ManifestRecord("frames/a.pgm", "labels/a.txt", True, 0),
        ManifestRecord("frames/b.pgm", None, False, 10),
    ]
    path = str(tmp_path / "manifest.jsonl")
    write_manifest(path, records)
    assert read_manifest(path) == records


def test_write_is_deterministic(tmp_path):
    records = [ManifestRecord("f.pgm", "l.txt", True, 42)]
    p1 = str(tmp_path / "a.jsonl")
    p2 = str(tmp_path / "b.jsonl")
    write_manifest(p1, records)
    write_manifest(p2, records)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_empty_manifest(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    write_manifest(path, [])
    assert read_manifest(path) == []
    assert open(path, "rb").read() == b""


def test_rejects_missing_key(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": "a.pgm", "labels": null, "occupied": true}\n')
    with pytest.raises(ManifestError) as err:
        read_manifest(str(path))
    assert "ts" in str(err.value)


def test_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": "a.pgm", "labels": null, "occupied": true, '
                    '"ts": 0, "extra": 1}\n')
    with pytest.raises(ManifestError):
        read_manifest(str(path))


def test_rejects_wrong_types(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": "a.pgm", "labels": null, "occupied": 1, "ts": 0}\n')
    with pytest.raises(ManifestError):
        read_manifest(str(path))


def test_rejects_a_line_that_is_not_an_object(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('[1, 2]\n')
    with pytest.raises(ManifestError, match=r":1: expected a JSON object$"):
        read_manifest(str(path))


def test_rejects_labels_that_are_not_a_string(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": "a.pgm", "labels": 5, "occupied": true, '
                    '"ts": 0}\n')
    with pytest.raises(ManifestError,
                       match="labels path must be a string or null"):
        read_manifest(str(path))


def test_rejects_blank_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": "a.pgm", "labels": null, "occupied": true, '
                    '"ts": 0}\n\n')
    with pytest.raises(ManifestError):
        read_manifest(str(path))


def test_rejects_overlong_integer(tmp_path):
    """An integer past the interpreter's digit limit is not a bare ValueError."""
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": "a.pgm", "labels": null, "occupied": true, '
                    '"ts": ' + "1" * 5000 + '}\n')
    with pytest.raises(ManifestError):
        read_manifest(str(path))


def test_rejects_nul_in_paths(tmp_path):
    with pytest.raises(ManifestError):
        ManifestRecord("a\0.pgm", None, False, 0)
    with pytest.raises(ManifestError):
        ManifestRecord("a.pgm", "l\0.txt", True, 0)
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": "a.pgm", "labels": "l\\u0000.txt", '
                    '"occupied": true, "ts": 0}\n')
    with pytest.raises(ManifestError):
        read_manifest(str(path))


def test_rejects_bool_ts():
    with pytest.raises(ManifestError):
        ManifestRecord("a.pgm", None, False, True)


def test_resolve_is_relative_to_manifest_dir(tmp_path):
    manifest = tmp_path / "sub" / "m.jsonl"
    assert resolve(str(manifest), "frames/a.pgm") == str(
        tmp_path / "sub" / "frames" / "a.pgm")
