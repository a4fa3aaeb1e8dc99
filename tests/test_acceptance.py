"""Whole-system acceptance checks.

Each check prints one `[acceptance] criterion N: PASS/FAIL` line (run
with -s to watch them as they go) and pins a headline behavior: the
reference split counts, the 968-frame scoring fixture, exact oracle
equivalence of the metrics engine, the hand-checkable metric unit
vectors, end-to-end quality bars on synthetic scenes, byte-for-byte
pipeline determinism, detection throughput, and codec round trips.
"""

import os
import time
from contextlib import contextmanager

import numpy as np

from thermocc.annot import (Detection, GroundTruthBox, NormalizedBox,
                            PixelBox, parse_labels, parse_predictions,
                            serialize_labels, serialize_predictions)
from thermocc.cli import main
from thermocc.detect import DEFAULT_CONFIG, detect_manifest
from thermocc.frame import ThermalFrame, decode_frame, encode_frame
from thermocc.manifest import ManifestRecord, read_manifest
from thermocc.metrics import (MAP_THRESHOLDS, average_precision, evaluate,
                              iou, load_samples, map_range, match_detections,
                              pr_curve, precision_recall)
from thermocc.occupancy import (compare, detection_timeline,
                                manifest_timeline)
from thermocc.split import DEFAULT_FRACTIONS, stratified_split, verify_ratio
from thermocc.synth import (FRONTAL_SCENARIOS, MIXED_SCENARIOS, DatasetSpec,
                            generate_dataset)

from oracle import naive_ap, naive_curve, oracle_match

REFERENCE_OCCUPIED = 3818
REFERENCE_EMPTY = 1018


@contextmanager
def criterion(num, desc):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL - {desc}")
        raise
    note = f" ({info['note']})" if "note" in info else ""
    print(f"[acceptance] criterion {num}: PASS - {desc}{note}")


def test_criterion_1_reference_split_counts():
    with criterion(1, "stratified split reproduces the reference subset "
                      "counts and keeps the occupancy ratio") as info:
        start = time.perf_counter()
        flags = [True] * REFERENCE_OCCUPIED + [False] * REFERENCE_EMPTY
        assignment = stratified_split(flags, DEFAULT_FRACTIONS, seed=0)

        def counts(indices):
            occ = sum(flags[i] for i in indices)
            return occ, len(indices) - occ

        assert counts(assignment.train) == (2290, 610)
        assert counts(assignment.val) == (764, 204)
        assert counts(assignment.test) == (764, 204)
        report = verify_ratio(assignment, flags)
        assert report.consistent
        assert all(s.consistent for s in report.subsets.values())
        assert report.overall.ratio == REFERENCE_OCCUPIED / REFERENCE_EMPTY
        assert round(report.overall.ratio, 2) == 3.75
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        info["note"] = f"{elapsed:.3f}s"


def test_criterion_2_consistency_fixture(tmp_path):
    with criterion(2, "968-frame fixture with 752 exact detections and 12 "
                      "misses scores precision 1.000 / recall 0.984") as info:
        labels_dir = tmp_path / "labels"
        preds_dir = tmp_path / "preds"
        labels_dir.mkdir()
        preds_dir.mkdir()
        box = NormalizedBox(0.5, 0.45, 0.25, 0.3)
        records = []
        for i in range(968):
            occupied = i < 764
            stem = f"frame_{i:06d}"
            gts = [GroundTruthBox(0, box)] if occupied else []
            (labels_dir / f"{stem}.txt").write_text(serialize_labels(gts))
            if occupied and i >= 12:  # the first 12 go undetected
                (preds_dir / f"{stem}.txt").write_text(
                    serialize_predictions([Detection(0, box, 0.95)]))
            records.append(ManifestRecord(
                frame=f"{stem}.pgm", labels=f"labels/{stem}.txt",
                occupied=occupied, ts=i * 10))
        manifest_path = str(tmp_path / "manifest.jsonl")

        report = evaluate(
            load_samples(records, str(preds_dir), manifest_path)[0],
            operating_tau=0.9)
        assert report.precision == 1.0
        assert report.recall == 752 / 764
        assert round(report.recall, 3) == 0.984
        assert report.counts == {"images": 968, "gts": 764, "preds": 752,
                                 "tp": 752, "fp": 0, "fn": 12}

        samples, _ = load_samples(records, str(preds_dir), manifest_path)
        actual = manifest_timeline(records)
        detected = detection_timeline([r.ts for r in records],
                                      [preds for preds, _ in samples], 0.9)
        confusion = compare(actual, detected)
        assert confusion.missed_occupied == 12
        assert (confusion.tp, confusion.fp, confusion.tn) == (752, 0, 204)
        assert confusion.precision == 1.0
        info["note"] = f"recall {report.recall:.6f}"


# The oracle battery backs criteria 3 and 4, so it runs once and both
# tests read the outcome (including a cached failure).
_BATTERY = {}

def _run_battery():
    rng = np.random.default_rng(20260816)

    def rand_box():
        return NormalizedBox(float(rng.uniform(0, 1)),
                             float(rng.uniform(0, 1)),
                             float(rng.uniform(0.05, 0.5)),
                             float(rng.uniform(0.05, 0.5)))

    # the ladder's first rung reuses the IoU 0.50 oracle curve
    assert MAP_THRESHOLDS[0] == 0.5
    start = time.perf_counter()
    package = [0.0]  # seconds spent inside thermocc's metric functions

    def timed(fn, *args):
        begin = time.perf_counter()
        result = fn(*args)
        package[0] += time.perf_counter() - begin
        return result

    map_pairs = []
    instances = 1000
    last_conf = None
    for inst in range(instances):
        samples = []
        for _ in range(int(rng.integers(1, 6))):
            gts = [GroundTruthBox(0, rand_box())
                   for _ in range(int(rng.integers(0, 6)))]
            preds = []
            for _ in range(int(rng.integers(0, 9))):
                if last_conf is not None and rng.uniform() < 0.2:
                    conf = last_conf  # deliberate confidence ties
                else:
                    conf = float(rng.uniform(0, 1))
                last_conf = conf
                preds.append(Detection(0, rand_box(), conf))
            samples.append((preds, gts))

        for preds, gts in samples:
            got = timed(match_detections, preds, gts, 0.5)
            want = oracle_match(preds, gts, 0.5)
            assert got == want, f"matcher diverged on instance {inst}"

        got_curve = timed(pr_curve, samples, 0.5)
        want_points, want_total = naive_curve(samples, 0.5)
        assert got_curve.total_gts == want_total
        assert len(got_curve.points) == len(want_points)
        for (gr, gp), (wr, wp) in zip(got_curve.points, want_points):
            assert abs(gr - wr) <= 1e-9, f"recall diverged on {inst}"
            assert abs(gp - wp) <= 1e-9, f"precision diverged on {inst}"
        assert abs(timed(average_precision, got_curve)
                   - naive_ap(want_points)) <= 1e-9

        n_gts = sum(len(g) for _, g in samples)
        n_preds = sum(len(p) for p, _ in samples)
        if n_gts or n_preds:
            map50, map50_95, aps = timed(map_range, samples)
            want_aps = [naive_ap(want_points)] + [
                naive_ap(naive_curve(samples, t)[0])
                for t in MAP_THRESHOLDS[1:]]
            for a, b in zip(aps, want_aps):
                assert abs(a - b) <= 1e-9, f"AP ladder diverged on {inst}"
            assert abs(map50 - want_aps[0]) <= 1e-9
            assert abs(map50_95 - sum(want_aps) / len(want_aps)) <= 1e-9
            map_pairs.append((map50, map50_95))
    return {"elapsed": time.perf_counter() - start, "package_s": package[0],
            "instances": instances, "map_pairs": map_pairs}


def oracle_battery():
    if "outcome" not in _BATTERY:
        try:
            _BATTERY["outcome"] = ("ok", _run_battery())
        except BaseException as exc:
            _BATTERY["outcome"] = ("error", exc)
    kind, value = _BATTERY["outcome"]
    if kind == "error":
        raise value
    return value


def test_criterion_3_oracle_equivalence():
    with criterion(3, "matcher, PR curve, AP and the mAP ladder agree with "
                      "the brute-force oracle on 1000 instances") as info:
        battery = oracle_battery()
        assert battery["instances"] >= 1000
        # The bound times thermocc's calls; most of the battery's wall
        # time is the brute-force oracle's, which is no measure of them.
        assert battery["package_s"] < 10.0
        info["note"] = (f"{battery['instances']} instances, "
                        f"{battery['package_s']:.2f}s in thermocc of "
                        f"{battery['elapsed']:.2f}s")


def test_criterion_4_metric_unit_vectors():
    with criterion(4, "hand-checkable metric values are exact and "
                      "map50_95 never exceeds map50") as info:
        a = PixelBox(0.0, 0.0, 2.0, 2.0)
        assert iou(a, a) == 1.0
        assert iou(a, PixelBox(5.0, 5.0, 7.0, 7.0)) == 0.0
        assert iou(a, PixelBox(1.0, 0.0, 3.0, 2.0)) == 1 / 3

        assert precision_recall(3, 1, 0) == (0.75, 1.0)
        assert precision_recall(0, 0, 0) == (1.0, 1.0)

        # one pred at IoU exactly 0.6 against one gt, on a 20x20 grid
        gt = GroundTruthBox(0, NormalizedBox(0.25, 0.25, 0.5, 0.5))
        pred = Detection(0, NormalizedBox(0.25, 0.375, 0.5, 0.5), 0.9)
        result = match_detections([pred], [gt], 0.5, 20, 20)
        assert (result.tp, result.fp, result.fn) == (1, 0, 0)
        result = match_detections([], [gt, gt], 0.5, 20, 20)
        assert (result.tp, result.fp, result.fn) == (0, 0, 2)

        # a lone perfect detection
        perfect = pr_curve([([Detection(0, gt.box, 1.0)], [gt])], 0.5)
        assert perfect.points == ((1.0, 1.0),)
        assert average_precision(perfect) == 1.0

        # a false positive outranking the true positive halves AP
        far = Detection(0, NormalizedBox(0.8, 0.8, 0.1, 0.1), 0.9)
        hit = Detection(0, gt.box, 0.8)
        curve = pr_curve([([far, hit], [gt])], 0.5, 20, 20)
        assert curve.points == ((0.0, 0.0), (1.0, 0.5))
        assert average_precision(curve) == 0.5

        # no predictions at all scores zero
        assert average_precision(pr_curve([([], [gt])], 0.5)) == 0.0

        # perfect predictions sweep the whole ladder
        map50, map50_95, aps = map_range([([Detection(0, gt.box, 1.0)], [gt])])
        assert map50 == 1.0 and map50_95 == 1.0
        assert aps == tuple([1.0] * 10)

        battery = oracle_battery()
        assert all(m5095 <= m50 + 1e-12
                   for m50, m5095 in battery["map_pairs"])
        info["note"] = (f"monotone on {len(battery['map_pairs'])} "
                        f"mAP instances")


def test_criterion_5_synthetic_end_to_end(tmp_path):
    with criterion(5, "detector clears the quality bars on easy scenes and "
                      "degrades on hard poses") as info:
        start = time.perf_counter()

        def run(name, scenarios):
            spec = DatasetSpec(frames=1000, scenarios=scenarios, seed=11)
            manifest_path = generate_dataset(spec, str(tmp_path / name))
            records = read_manifest(manifest_path)
            detections = detect_manifest(records, manifest_path,
                                         DEFAULT_CONFIG)
            preds_dir = tmp_path / name / "preds"
            preds_dir.mkdir()
            for rec, dets in zip(records, detections):
                stem = os.path.splitext(os.path.basename(rec.frame))[0]
                (preds_dir / f"{stem}.txt").write_text(
                    serialize_predictions(dets))
            report = evaluate(
                load_samples(records, str(preds_dir), manifest_path)[0],
                operating_tau=0.9)
            actual = manifest_timeline(records)
            detected = detection_timeline(
                [r.ts for r in records],
                [[d for d in dets if d.confidence >= 0.9]
                 for dets in detections], 0.9)
            return report, compare(actual, detected), records

        frontal_report, frontal_conf, records = run("frontal",
                                                    FRONTAL_SCENARIOS)
        assert sum(r.occupied for r in records) == 789
        assert frontal_report.precision >= 0.95
        assert frontal_report.recall >= 0.95
        assert frontal_report.map50 >= 0.90

        _, mixed_conf, _ = run("mixed", MIXED_SCENARIOS)
        assert mixed_conf.recall < frontal_conf.recall

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["note"] = (f"frontal P {frontal_report.precision:.3f} "
                        f"R {frontal_report.recall:.3f} "
                        f"mAP50 {frontal_report.map50:.3f}; occupancy "
                        f"recall {frontal_conf.recall:.3f} -> "
                        f"{mixed_conf.recall:.3f} on mixed; {elapsed:.1f}s")


def test_criterion_6_pipeline_determinism(tmp_path):
    with criterion(6, "two pipeline runs with the same seed emit "
                      "byte-identical artifacts") as info:
        for out, threads in ((tmp_path / "a", "1"), (tmp_path / "b", "2")):
            rc = main(["pipeline", "--out", str(out), "--frames", "300",
                       "--seed", "4", "--threads", threads])
            assert rc == 0

        def tree(root):
            out = {}
            for dirpath, _, names in os.walk(root):
                for name in names:
                    full = os.path.join(dirpath, name)
                    out[os.path.relpath(full, root)] = open(full, "rb").read()
            return out

        a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
        assert sorted(a) == sorted(b)
        assert a == b
        manifests = [p for p in a if p.endswith(".jsonl")]
        predictions = [p for p in a
                       if os.path.dirname(p) == "preds"]
        assert len(manifests) == 4  # dataset manifest plus three subsets
        assert predictions
        assert "report.json" in a
        info["note"] = f"{len(a)} files compared"


def test_criterion_7_throughput(tmp_path):
    with criterion(7, "detect plus evaluate covers 4836 frames inside "
                      "10 seconds") as info:
        spec = DatasetSpec(frames=4836, seed=3)
        manifest_path = generate_dataset(spec, str(tmp_path / "data"))
        records = read_manifest(manifest_path)
        preds_dir = tmp_path / "preds"
        preds_dir.mkdir()

        start = time.perf_counter()
        detections = detect_manifest(records, manifest_path, DEFAULT_CONFIG)
        for rec, dets in zip(records, detections):
            stem = os.path.splitext(os.path.basename(rec.frame))[0]
            (preds_dir / f"{stem}.txt").write_text(
                serialize_predictions(dets))
        report = evaluate(
            load_samples(records, str(preds_dir), manifest_path)[0],
            operating_tau=0.9)
        elapsed = time.perf_counter() - start

        assert report.counts["images"] == 4836
        assert report.counts["gts"] == 3818
        assert elapsed < 10.0
        info["note"] = f"{elapsed:.2f}s for detect + evaluate"


def test_criterion_8_round_trips():
    with criterion(8, "codec and annotation serializers survive 1000 "
                      "random round trips") as info:
        rng = np.random.default_rng(424242)
        for case in range(1000):
            h = int(rng.integers(1, 128))
            w = int(rng.integers(1, 128))
            temps = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
            ts = int(rng.integers(-10 ** 9, 10 ** 9))
            frame = ThermalFrame(w, h, temps, ts)
            blob = encode_frame(frame)
            back = decode_frame(blob)
            assert back == frame, f"codec case {case}"
            assert encode_frame(back) == blob

        def rand_box():
            return NormalizedBox(float(rng.uniform(0, 1)),
                                 float(rng.uniform(0, 1)),
                                 float(rng.uniform(0.01, 0.99)),
                                 float(rng.uniform(0.01, 0.99)))

        for case in range(1000):
            n = int(rng.integers(0, 5))
            if case % 2 == 0:
                items = [GroundTruthBox(0, rand_box()) for _ in range(n)]
                text = serialize_labels(items)
                parsed = parse_labels(text)
                assert serialize_labels(parsed) == text
                assert parse_labels(serialize_labels(parsed)) == parsed
                pairs = zip(items, parsed)
            else:
                items = [Detection(0, rand_box(), float(rng.uniform(0, 1)))
                         for _ in range(n)]
                text = serialize_predictions(items)
                parsed = parse_predictions(text)
                assert serialize_predictions(parsed) == text
                assert parse_predictions(
                    serialize_predictions(parsed)) == parsed
                for x, y in zip(items, parsed):
                    assert abs(x.confidence - y.confidence) <= 1e-6
                pairs = zip(items, parsed)
            for x, y in pairs:
                for field in ("cx", "cy", "w", "h"):
                    assert abs(getattr(x.box, field)
                               - getattr(y.box, field)) <= 1e-6
        info["note"] = "1000 codec + 1000 annotation cases"
