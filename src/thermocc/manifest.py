"""Dataset manifests: one JSON object per line, one line per frame.

A record ties a frame file to its label file (or null when no label
file exists), the ground-truth occupancy flag and the capture
timestamp. Paths are stored relative to the manifest's own directory
so a dataset directory can be moved or compared byte-for-byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import ConfigError, ManifestError
from .util import read_text, write_text_atomic

_KEYS = ("frame", "labels", "occupied", "ts")


@dataclass(frozen=True)
class ManifestRecord:
    frame: str
    labels: str | None
    occupied: bool
    ts: int

    def __post_init__(self):
        if not isinstance(self.frame, str) or not self.frame:
            raise ManifestError("frame path must be a non-empty string")
        if self.labels is not None and not isinstance(self.labels, str):
            raise ManifestError("labels path must be a string or null")
        if "\0" in self.frame or "\0" in (self.labels or ""):
            raise ManifestError("paths must not contain NUL characters")
        if not isinstance(self.occupied, bool):
            raise ManifestError("occupied flag must be a boolean")
        if not isinstance(self.ts, int) or isinstance(self.ts, bool):
            raise ManifestError("ts must be an integer")


def read_manifest(path: str) -> list[ManifestRecord]:
    """Parse a JSONL manifest file. Blank lines are rejected, not skipped."""
    records = []
    lines = read_text(path).splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and integers past the
            # interpreter's digit limit; RecursionError, deep nesting
            raise ManifestError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ManifestError(f"{path}:{lineno}: expected a JSON object")
        missing = [k for k in _KEYS if k not in obj]
        if missing:
            raise ManifestError(f"{path}:{lineno}: missing keys {missing}")
        extra = [k for k in obj if k not in _KEYS]
        if extra:
            raise ManifestError(f"{path}:{lineno}: unknown keys {extra}")
        try:
            records.append(ManifestRecord(obj["frame"], obj["labels"],
                                          obj["occupied"], obj["ts"]))
        except ManifestError as exc:
            raise ManifestError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_manifest(path: str, records: list[ManifestRecord]) -> None:
    """Write records as JSONL with a fixed key order (byte-deterministic)."""
    out = []
    for rec in records:
        out.append(json.dumps(
            {"frame": rec.frame, "labels": rec.labels,
             "occupied": rec.occupied, "ts": rec.ts},
            separators=(", ", ": ")))
    write_text_atomic(path, "\n".join(out + [""]))


def resolve(manifest_path: str, relative: str) -> str:
    """Resolve a record path against the manifest's directory."""
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), relative)


def prediction_filenames(records: list[ManifestRecord]) -> list[str]:
    """Each record's frame stem plus .txt; rejects duplicate stems."""
    names = [os.path.splitext(os.path.basename(r.frame))[0] + ".txt"
             for r in records]
    if len(set(names)) != len(names):
        raise ConfigError("manifest contains duplicate frame stems")
    return names
