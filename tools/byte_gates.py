"""Check the byte gates: digests of whole runs that must not change.

tests/golden/byte_gates.sha256 holds one `digest  name` line per gate:

- `pipeline seed S threads T`: the listing digest of the run directory
  of `thermocc pipeline --frames 4836 --seed S --threads T`, at seeds 0
  and 4 with 1 and 2 threads. The listing digest of a directory RUN is
  what this prints:

      (cd RUN && find . -type f -exec sha256sum {} + \\
          | LC_ALL=C sort -k2 | sha256sum)

- `synth seed 0`: the listing digest of `thermocc synth --frames 4836
  --seed 0`, which must equal that of the seed 0 pipeline run's
  dataset/ (the check fails at once if it does not);
- `occupancy`: the listing digest of the `thermocc occupancy` output
  for the seed 0 run's splits/test.jsonl and preds/;
- `detect --warm-threshold 29 --nms-iou 0.3`: the listing digest of
  that `thermocc detect` run over the seed 0 run's dataset manifest;
- `detections F frames at B C`: the sha256 of UTF-8 text that ends in
  a newline, with one `{index}: {count}` line per seed 0 frame of
  plan_dataset, each followed by one line per detection of
  detect_blobs at the default config: the float.hex of cx, cy, w, h
  and the confidence.

The golden test (tests/test_golden.py) pins a 300-frame run; these
gates cover the reference size, warm rooms and the stages' options.
They take about half a minute. A change that alters these bytes on
purpose regenerates the fixture and says so in CHANGES.md:

    python tools/byte_gates.py --write

Before the gates, the script prints numpy's version and checks the
numpy stream canary (tests/stream_canary.py against
tests/golden/stream_canary.sha256), which `--write` leaves alone. When
a digest differs, its last line names the likelier cause: numpy's
streams moved if the canary differs, else thermocc's own code.

Exit 0 when the canary and every digest match their fixtures, 1
otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "golden", "byte_gates.sha256")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402
from run_tree import tree_files  # noqa: E402
from stream_canary import expected_digest, stream_digest  # noqa: E402
from thermocc.cli import main as thermocc  # noqa: E402
from thermocc.detect import detect_blobs  # noqa: E402
from thermocc.synth import DatasetSpec, plan_dataset, render_frame  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def listing_digest(root: str) -> str:
    """sha256 of the `sha256sum` lines of every file under root, sorted
    by path, with paths written `./rel/path`."""
    lines = {f"./{rel}".encode(): f"{_sha256(data)}  ./{rel}\n"
             for rel, data in tree_files(root)}
    return _sha256("".join(lines[k] for k in sorted(lines)).encode())


def detection_digest(frames: int, background: float) -> str:
    spec = DatasetSpec(frames=frames, seed=0, background_temp=background)
    lines = []
    for index, scenario in enumerate(plan_dataset(spec)):
        dets = detect_blobs(render_frame(spec, index, scenario)[0])
        lines.append(f"{index}: {len(dets)}")
        lines += [" ".join(float.hex(v) for v in (
            d.box.cx, d.box.cy, d.box.w, d.box.h, d.confidence))
            for d in dets]
    return _sha256(("\n".join(lines) + "\n").encode())


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = thermocc(list(argv))
    if code != 0:
        raise SystemExit(f"thermocc {' '.join(argv)} exited {code}")


def gates(work: str):
    """Yield (name, digest) for each gate, running thermocc under work."""
    for seed in ("0", "4"):
        for threads in ("1", "2"):
            run = os.path.join(work, f"pipeline_{seed}_{threads}")
            _run("pipeline", "--out", run, "--frames", "4836", "--seed", seed,
                 "--threads", threads)
            yield f"pipeline seed {seed} threads {threads}", listing_digest(run)
    run = os.path.join(work, "pipeline_0_1")
    out = os.path.join(work, "synth")
    _run("synth", "--out", out, "--frames", "4836", "--seed", "0")
    digest = listing_digest(out)
    if digest != listing_digest(os.path.join(run, "dataset")):
        raise SystemExit("synth seed 0 differs from the seed 0 pipeline "
                         "run's dataset/")
    yield "synth seed 0", digest
    out = os.path.join(work, "occupancy")
    _run("occupancy", "--manifest", os.path.join(run, "splits", "test.jsonl"),
         "--preds", os.path.join(run, "preds"), "--out", out)
    yield "occupancy", listing_digest(out)
    out = os.path.join(work, "detect")
    _run("detect", "--manifest", os.path.join(run, "dataset", "manifest.jsonl"),
         "--out", out, "--warm-threshold", "29", "--nms-iou", "0.3")
    yield "detect --warm-threshold 29 --nms-iou 0.3", listing_digest(out)
    for frames, background in ((4836, 22.0), (150, 29.5), (150, 29.9)):
        yield (f"detections {frames} frames at {background} C",
               detection_digest(frames, background))


def main(argv: list[str]) -> int:
    print(f"numpy {np.__version__}")
    canary = stream_digest() == expected_digest()
    print(f"{'ok' if canary else 'CHANGED':8}  numpy stream canary",
          flush=True)
    if argv == ["--write"] and not canary:
        print("numpy streams moved: the fixture is left as it is")
        return 1
    with tempfile.TemporaryDirectory() as work:
        actual = dict(gates(work))
    if argv == ["--write"]:
        with open(FIXTURE, "w", encoding="utf-8") as fh:
            fh.writelines(f"{d}  {name}\n" for name, d in actual.items())
        return 0
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = dict(reversed(line.rstrip("\n").split("  ", 1))
                        for line in fh)
    for name, digest in actual.items():
        print(f"{'ok' if expected.get(name) == digest else 'CHANGED':8}  "
              f"{name}")
    missing = sorted(set(expected) - set(actual))
    for name in missing:
        print(f"{'MISSING':8}  {name}")
    if not canary:
        print("numpy streams moved: the canary's draws differ")
    elif expected != actual:
        print("thermocc's own code changed the bytes: the canary held")
    return 0 if canary and expected == actual else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
