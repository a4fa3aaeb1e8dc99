"""The benchmark's workloads: set-up, one timed repeat, and output checks.

Every workload drives thermocc through `thermocc.cli.run(argv)` or the
package's exported functions, looked up on the module at call time so
that a traced run can wrap them. Inputs come only from the seed.
"""

from __future__ import annotations

import array
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

import thermocc
import thermocc.cli

import refscore

# The ROADMAP reference run: the mixed scenario at the reference size.
FRAMES = 4836
THREADS = 2
TAU = 0.9
CROWDED_IMAGES = 3000

# Quality floors for the mixed scenario at tau 0.9, so that a detector
# that stops detecting fails its output check instead of looking fast.
# On twelve seeds (0-3, 7, 400, 401, 500, 501, 1000, 99999, 123456) the
# reference run scored precision 1.000, recall 0.28-0.47 and mAP50
# 0.55-0.73; occupancy recall over all frames was 0.27-0.46, and no
# empty frame was ever decided occupied. Each floor sits well below the
# lowest seed and far above a detector that finds nothing.
MIN_PRECISION = 0.95
MIN_RECALL = 0.10
MIN_MAP50 = 0.30
MIN_OCCUPANCY_RECALL = 0.10


def tree_stats(root: str) -> tuple[str, int, int]:
    """(sha256, files, bytes) over every file under root, paths included."""
    digest = hashlib.sha256()
    files = size = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            digest.update(f"{rel}\0{len(data)}\0".encode())
            digest.update(data)
            files += 1
            size += len(data)
    return digest.hexdigest(), files, size


def _cli(argv: list[str]) -> int:
    """Run the CLI in-process with its chatter captured; returns the exit
    code."""
    with redirect_stdout(io.StringIO()):
        return thermocc.cli.run(argv)


class Verdict:
    """What the output checks found: counts plus a digest of the output."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.problems: list[str] = []
        self.digest = ""

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


class PipelineRef:
    """`thermocc pipeline` at the reference size into a fresh run directory."""

    name = "pipeline_ref"
    setup_repeats = 5

    def __init__(self, seed: int, work: str, src: str):
        self.seed = seed
        self.work = work
        self.src = src
        self.frames_per_repeat = FRAMES
        self.runs: list[tuple[str, int]] = []

    def setup(self, k: int) -> float:
        # The only set-up a pipeline user pays: starting the CLI, which
        # imports thermocc, numpy and scipy in a fresh interpreter.
        env = dict(os.environ, PYTHONPATH=self.src)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import thermocc.cli"],
                       env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    def repeat(self, i: int) -> None:
        out = os.path.join(self.work, f"run_{i}")
        rc = _cli(["pipeline", "--out", out, "--frames", str(FRAMES),
                   "--seed", str(self.seed), "--threads", str(THREADS)])
        self.runs.append((out, rc))

    def run_dir(self) -> str:
        return self.runs[-1][0]

    def verify(self) -> Verdict:
        verdict = Verdict(len(self.runs))
        first = None
        for out, rc in self.runs:
            if rc != 0:
                verdict.fail(f"{out}: exit code {rc}")
                continue
            digest = tree_stats(out)[0]
            if first is None:
                try:
                    problems = self._check(out)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                if problems:
                    verdict.fail(f"{out}: " + "; ".join(problems))
                    continue
                first = digest
                verdict.digest = digest
            elif digest != first:
                verdict.fail(f"{out}: run directory differs from the first")
        return verdict

    @staticmethod
    def _check(out: str) -> list[str]:
        problems = []
        with open(os.path.join(out, "dataset", "manifest.jsonl"),
                  encoding="utf-8") as fh:
            if len(fh.read().splitlines()) != FRAMES:
                problems.append(f"dataset manifest is not {FRAMES} lines long")
        test_manifest = os.path.join(out, "splits", "test.jsonl")
        with open(test_manifest, encoding="utf-8") as fh:
            n_test = len(fh.read().splitlines())
        n_preds = len(os.listdir(os.path.join(out, "preds")))
        if n_preds != n_test:
            problems.append(f"{n_preds} prediction files for {n_test} frames")
        with open(os.path.join(out, "occupancy", "timeline.csv"),
                  encoding="utf-8") as fh:
            if len(fh.read().splitlines()) != n_test + 1:
                problems.append("timeline.csv does not cover the test frames")
        for name in ("pr_curve.svg", "occupancy_timeline.svg"):
            if not os.path.isfile(os.path.join(out, "plots", name)):
                problems.append(f"plots/{name} missing")
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.loads(fh.read())
        expected = refscore.score(test_manifest, os.path.join(out, "preds"),
                                  TAU)
        problems += refscore.disagreements(report, expected)
        for key, floor in (("precision", MIN_PRECISION),
                           ("recall", MIN_RECALL), ("map50", MIN_MAP50)):
            if not report.get(key, 0.0) >= floor:
                problems.append(f"report {key} {report.get(key)} < {floor}")
        with open(os.path.join(out, "occupancy", "timeline.csv"),
                  encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        problems += occupancy_problems([r[1] == "1" for r in rows],
                                       [r[2] == "1" for r in rows])
        return problems


def occupancy_problems(actual: list[bool], detected: list[bool]) -> list[str]:
    """No empty frame decided occupied, and occupancy recall at its floor."""
    problems = []
    false_alarms = sum(d and not a for a, d in zip(actual, detected))
    if false_alarms:
        problems.append(f"{false_alarms} empty frames decided occupied")
    occupied = sum(actual)
    found = sum(d and a for a, d in zip(actual, detected))
    if occupied and found / occupied < MIN_OCCUPANCY_RECALL:
        problems.append(f"occupancy recall {found}/{occupied} < "
                        f"{MIN_OCCUPANCY_RECALL}")
    return problems


class OnlineFrames:
    """A sensor hub's closed loop: one caller, no think time, ts order.

    Each frame goes through read_frame -> detect_blobs ->
    frame_occupancy(dets, 0.9); a repeat is one pass over all frames.
    Passes take the set-up copies of the dataset in turn, so that with
    more than one set-up consecutive passes never read the same files.
    """

    name = "online_frames"
    setup_repeats = 3

    def __init__(self, seed: int, work: str, src: str):
        self.seed = seed
        self.work = work
        self.datasets: list[str] = []
        self.paths: list[list[str]] = []  # per set-up copy, in ts order
        self.empty: list[bool] = []
        self.passes: list[bytes] = []
        # One array per pass: 8 bytes a frame, so the benchmark's own
        # memory barely grows with the number of passes.
        self.latencies_ns: list[array.array] = []
        self.errors: list[str] = []

    def setup(self, k: int) -> float:
        dataset = os.path.join(self.work, f"dataset_{k}")
        spec = thermocc.DatasetSpec(frames=FRAMES, seed=self.seed)
        start = time.perf_counter()
        manifest = thermocc.generate_dataset(spec, dataset)
        records = sorted(thermocc.read_manifest(manifest), key=lambda r: r.ts)
        elapsed = time.perf_counter() - start
        self.datasets.append(dataset)
        self.paths.append([os.path.join(dataset, r.frame) for r in records])
        self.empty = [not r.occupied for r in records]
        return elapsed

    def repeat(self, i: int) -> None:
        read_frame = thermocc.read_frame
        detect_blobs = thermocc.detect_blobs
        frame_occupancy = thermocc.frame_occupancy
        clock = time.perf_counter_ns
        paths = self.paths[i % len(self.paths)]
        decisions = bytearray(len(paths))
        latencies = array.array("q")
        for n, path in enumerate(paths):
            start = clock()
            try:
                decisions[n] = frame_occupancy(
                    detect_blobs(read_frame(path)), TAU)
            except Exception:  # one frame's failure is counted, not fatal
                decisions[n] = 2
                if len(self.errors) < 3:
                    self.errors.append(traceback.format_exc())
            latencies.append(clock() - start)
        self.passes.append(bytes(decisions))
        self.latencies_ns.append(latencies)

    def run_dir(self) -> str:
        return self.datasets[-1]

    def verify(self) -> Verdict:
        frames = len(self.empty)
        verdict = Verdict(frames * len(self.passes))
        verdict.problems += self.errors
        first = self.passes[0]
        verdict.digest = hashlib.sha256(first).hexdigest()
        # A first pass that misses the occupancy checks (too few occupied
        # frames found, or an empty frame decided occupied) fails whole;
        # the later passes must equal it, frame by frame.
        shortfall = occupancy_problems([not e for e in self.empty],
                                       [d == 1 for d in first])
        for k, decisions in enumerate(self.passes):
            paths = self.paths[k % len(self.paths)]
            bad = [n for n in range(frames)
                   if decisions[n] == 2
                   or (self.empty[n] and decisions[n] != 0)
                   or decisions[n] != first[n]]
            if k == 0 and shortfall:
                verdict.fail(f"pass 0: {'; '.join(shortfall)}", frames)
            elif bad:
                verdict.fail(f"pass {k}: {len(bad)} frames failed, first at "
                             f"{paths[bad[0]]}", len(bad))
        return verdict


def _box(rng: random.Random) -> tuple[float, float, float, float]:
    w = rng.uniform(0.05, 0.30)
    h = rng.uniform(0.05, 0.30)
    return rng.uniform(w / 2, 1 - w / 2), rng.uniform(h / 2, 1 - h / 2), w, h


def _jitter(rng: random.Random, box) -> tuple[float, float, float, float]:
    """A prediction near a ground truth, so IoUs spread over 0.5..0.95."""
    cx, cy, w, h = box
    w2 = min(w * rng.uniform(0.8, 1.25), 1.0)
    h2 = min(h * rng.uniform(0.8, 1.25), 1.0)
    cx2 = min(max(cx + rng.gauss(0.0, 0.08) * w, 0.0), 1.0)
    cy2 = min(max(cy + rng.gauss(0.0, 0.08) * h, 0.0), 1.0)
    return cx2, cy2, w2, h2


def crowded_set(seed: int) -> tuple[list, list]:
    """A crowded labelled set with predictions, serialized by thermocc.

    Returns (stem, label text, prediction text) per image and the
    manifest records. Each image has 0-6 ground truths, 0-2 jittered
    predictions per ground truth and 0-3 spurious ones. Confidences have
    two decimals, so ties occur. Only labels and predictions exist: eval
    reads no frames.
    """
    rng = random.Random(seed)
    texts = []
    records = []
    for i in range(CROWDED_IMAGES):
        stem = f"img_{i:06d}"
        truths = [_box(rng) for _ in range(rng.randint(0, 6))]
        preds = [(_jitter(rng, t), round(rng.uniform(0.30, 1.00), 2))
                 for t in truths for _ in range(rng.randint(0, 2))]
        preds += [(_box(rng), round(rng.uniform(0.00, 0.95), 2))
                  for _ in range(rng.randint(0, 3))]
        rng.shuffle(preds)
        gts = [thermocc.GroundTruthBox(0, thermocc.NormalizedBox(*b))
               for b in truths]
        dets = [thermocc.Detection(0, thermocc.NormalizedBox(*b), conf)
                for b, conf in preds]
        texts.append((stem, thermocc.serialize_labels(gts),
                      thermocc.serialize_predictions(dets)))
        records.append(thermocc.ManifestRecord(
            frame=f"frames/{stem}.pgm", labels=f"labels/{stem}.txt",
            occupied=bool(gts), ts=10 * i))
    return texts, records


def write_texts(out: str, texts: list) -> None:
    """Write each image's label and prediction file under out."""
    for sub, column in (("labels", 1), ("preds", 2)):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
        for entry in texts:
            with open(os.path.join(out, sub, entry[0] + ".txt"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(entry[column])


class EvalCrowded:
    """`thermocc eval` over a crowded set, where matching does the work."""

    name = "eval_crowded"
    setup_repeats = 5

    def __init__(self, seed: int, work: str, src: str):
        self.seed = seed
        self.work = work
        self.frames_per_repeat = CROWDED_IMAGES
        self.dirs: list[str] = []
        self.reports: list[tuple[str, int]] = []

    def setup(self, k: int) -> float:
        # Timed: generating the set, thermocc's serializers and its
        # manifest writer. Not timed: the benchmark's own 6000 small
        # file writes, which are not thermocc's work and whose cost on a
        # shared ext4 disk swung from 0.3 to 3.6 s per set-up.
        crowded = os.path.join(self.work, f"crowded_{k}")
        start = time.perf_counter()
        texts, records = crowded_set(self.seed)
        elapsed = time.perf_counter() - start
        write_texts(crowded, texts)
        start = time.perf_counter()
        thermocc.write_manifest(os.path.join(crowded, "manifest.jsonl"),
                                records)
        elapsed += time.perf_counter() - start
        self.dirs.append(crowded)
        return elapsed

    def repeat(self, i: int) -> None:
        # Repeats take the set-up copies in turn, so that with more than
        # one set-up consecutive evals never read the same files. Reports
        # go beside the sets, so run_dir.files counts inputs only.
        crowded = self.dirs[i % len(self.dirs)]
        report = os.path.join(self.work, f"report_{i}.json")
        rc = _cli(["eval", "--manifest",
                   os.path.join(crowded, "manifest.jsonl"),
                   "--preds", os.path.join(crowded, "preds"),
                   "--out", report, "--tau", str(TAU)])
        self.reports.append((report, rc))

    def run_dir(self) -> str:
        return self.dirs[-1]

    def verify(self) -> Verdict:
        verdict = Verdict(len(self.reports))
        first = None
        for path, rc in self.reports:
            if rc != 0:
                verdict.fail(f"{path}: exit code {rc}")
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            if first is None:
                crowded = self.dirs[0]
                expected = refscore.score(
                    os.path.join(crowded, "manifest.jsonl"),
                    os.path.join(crowded, "preds"), TAU)
                try:
                    problems = refscore.disagreements(json.loads(data),
                                                      expected)
                except (ValueError, AttributeError, TypeError) as exc:
                    problems = [f"unreadable report: {exc!r}"]
                if problems:
                    verdict.fail(f"{path}: " + "; ".join(problems))
                    continue
                first = verdict.digest = digest
            elif digest != first:
                verdict.fail(f"{path}: report differs from the first")
        return verdict


WORKLOADS = {w.name: w for w in (PipelineRef, OnlineFrames, EvalCrowded)}
