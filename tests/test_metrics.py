import json
import random
import tracemalloc

import pytest

from thermocc.annot import (Detection, GroundTruthBox, NormalizedBox,
                            PixelBox, serialize_labels,
                            serialize_predictions)
from thermocc import metrics
from thermocc.errors import ConfigError, DegenerateBoxError
from thermocc.manifest import ManifestRecord, write_manifest
from thermocc.metrics import (MAP_THRESHOLDS, average_precision, evaluate,
                              iou, load_samples, map_range, match_detections,
                              pr_curve, precision_recall, to_pixel_box)

from oracle import naive_ap, naive_curve, oracle_match

GRID = 20  # small square grid keeps corner arithmetic exact


def nb(x0, y0, x1, y1, grid=GRID):
    """Normalized box from pixel corners on a square test grid."""
    return NormalizedBox((x0 + x1) / 2 / grid, (y0 + y1) / 2 / grid,
                         (x1 - x0) / grid, (y1 - y0) / grid)


def det(x0, y0, x1, y1, conf):
    return Detection(0, nb(x0, y0, x1, y1), conf)


def gt(x0, y0, x1, y1):
    return GroundTruthBox(0, nb(x0, y0, x1, y1))


def pb(box):
    return to_pixel_box(box, GRID, GRID)


def rand_box(rng):
    w = rng.uniform(0.02, 0.6)
    h = rng.uniform(0.02, 0.6)
    return NormalizedBox(rng.uniform(0, 1), rng.uniform(0, 1), w, h)


def test_iou_identical_is_one():
    a = pb(nb(2, 3, 8, 9))
    assert iou(a, a) == 1.0


def test_iou_disjoint_is_zero():
    assert iou(pb(nb(0, 0, 4, 4)), pb(nb(5, 5, 9, 9))) == 0.0
    # touching edges count as no overlap
    assert iou(PixelBox(0, 0, 4, 4), PixelBox(4, 0, 8, 4)) == 0.0


def test_iou_of_two_boxes_without_area_is_zero():
    point = PixelBox(1.0, 1.0, 1.0, 1.0)
    assert iou(point, point) == 0.0


def test_iou_one_third():
    # 2x2 squares offset by 1: intersection 2, union 6
    assert iou(pb(nb(0, 0, 2, 2)), pb(nb(1, 0, 3, 2))) == pytest.approx(1 / 3)


def test_iou_symmetric_random():
    rng = random.Random(1)
    for _ in range(300):
        a = to_pixel_box(rand_box(rng), 128, 96)
        b = to_pixel_box(rand_box(rng), 128, 96)
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)


def test_iou_scale_invariant():
    rng = random.Random(2)
    for _ in range(300):
        a = rand_box(rng)
        b = rand_box(rng)
        small = iou(to_pixel_box(a, 128, 96), to_pixel_box(b, 128, 96))
        big = iou(to_pixel_box(a, 256, 192), to_pixel_box(b, 256, 192))
        assert small == pytest.approx(big, abs=1e-12)


def test_match_single_true_positive():
    result = match_detections([det(2, 2, 8, 8, 0.9)], [gt(2, 2, 8, 8)], 0.5,
                              GRID, GRID)
    assert (result.tp, result.fp, result.fn) == (1, 0, 0)
    assert result.assignments == ((0, 0),)


def test_match_no_predictions():
    result = match_detections([], [gt(0, 0, 4, 4), gt(6, 6, 9, 9)], 0.5,
                              GRID, GRID)
    assert (result.tp, result.fp, result.fn) == (0, 0, 2)
    assert result.assignments == ()


def test_match_greedy_consumes_best_first():
    """The confident prediction takes its best gt; the later one finds
    its strong overlap already consumed and goes unmatched."""
    box_a = gt(0, 0, 10, 10)
    box_b = gt(8, 0, 18, 10)
    p_hi = det(2, 0, 12, 10, 0.9)
    p_lo = det(1, 0, 11, 10, 0.8)
    # setup sanity: p_hi prefers A, p_lo overlaps A strongly but B weakly
    assert iou(pb(p_hi.box), pb(box_a.box)) == pytest.approx(2 / 3)
    assert iou(pb(p_hi.box), pb(box_b.box)) == pytest.approx(0.25)
    assert iou(pb(p_lo.box), pb(box_a.box)) == pytest.approx(9 / 11)
    assert iou(pb(p_lo.box), pb(box_b.box)) == pytest.approx(3 / 17)
    result = match_detections([p_hi, p_lo], [box_a, box_b], 0.5, GRID, GRID)
    assert (result.tp, result.fp, result.fn) == (1, 1, 1)
    assert result.assignments == ((0, 0), (1, None))
    ref = oracle_match([p_hi, p_lo], [box_a, box_b], 0.5, GRID, GRID)
    assert (ref.tp, ref.fp, ref.fn) == (1, 1, 1)
    assert ref.assignments == result.assignments


def test_match_ties_go_to_the_first_gt():
    """The first prediction overlaps both gts at 2/3 and takes gt 0, the
    lower index; the second, a copy of gt 0, is left with gt 1 at 3/7."""
    g0, g1 = gt(0, 0, 10, 10), gt(4, 0, 14, 10)
    p1, p2 = det(2, 0, 12, 10, 0.9), det(0, 0, 10, 10, 0.8)
    assert iou(pb(p1.box), pb(g0.box)) == iou(pb(p1.box), pb(g1.box))
    assert iou(pb(p2.box), pb(g1.box)) == pytest.approx(3 / 7)
    result = match_detections([p1, p2], [g0, g1], 0.5, GRID, GRID)
    assert result.assignments == ((0, 0), (1, None))
    assert result == oracle_match([p1, p2], [g0, g1], 0.5, GRID, GRID)
    assert map_range([([p1, p2], [g0, g1])], GRID, GRID)[0] == 51 / 101


def test_match_rejects_boxes_as_to_pixel_box_does():
    """A box too thin for the grid fails with to_pixel_box's error,
    whichever image and side of the sweep it sits in."""
    thin = NormalizedBox(0.5, 0.5, 1e-17, 0.5)
    with pytest.raises(DegenerateBoxError) as want:
        to_pixel_box(thin, 128, 96)
    good = ([det(2, 2, 8, 8, 0.9)], [gt(2, 2, 8, 8)])
    for bad in (([Detection(0, thin, 0.5)], []), ([], [GroundTruthBox(0, thin)])):
        with pytest.raises(DegenerateBoxError) as got:
            evaluate([good, bad])
        assert str(got.value) == str(want.value)
        with pytest.raises(DegenerateBoxError):
            match_detections(*bad)
    with pytest.raises(ValueError, match="at least 1x1"):
        match_detections(*good, 0.5, 0, 96)
    assert match_detections([], [], 0.5, 0, 96).assignments == ()


def test_sweep_blocks_match_each_image_alone(monkeypatch):
    """One image of 1000 predictions and 1000 gts among 500 small ones.
    Wherever the block edges fall, every image's hits at every rung equal
    match_detections on that image alone, and the sweep's memory is set
    by the block cap, not by the big image's 10^6 pairs."""
    rng = random.Random(23)

    def image(npred, ngt):
        return ([Detection(0, rand_box(rng), round(rng.uniform(0, 1), 2))
                 for _ in range(npred)],
                [GroundTruthBox(0, rand_box(rng)) for _ in range(ngt)])

    samples = ([image(rng.randint(0, 6), rng.randint(0, 4))
                for _ in range(250)] + [image(1000, 1000)]
               + [image(rng.randint(0, 6), rng.randint(0, 4))
                  for _ in range(250)])
    tracemalloc.start()
    try:
        metrics._sweep(samples, MAP_THRESHOLDS, 128, 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A block holds fewer than _BLOCK_BOXES boxes plus its last image's
    # 2000. Its arrays at ten rungs, with the sweep's per-prediction
    # output, stay within 400 bytes a box; the big image's IoUs alone
    # would take 8 MB.
    assert peak < 400 * (metrics._BLOCK_BOXES + 2000)

    blocks = []
    match_block = metrics._match_block

    def spy(block, rungs, width, height):
        result = match_block(block, rungs, width, height)
        blocks.append((block, result))
        return result

    monkeypatch.setattr(metrics, "_match_block", spy)
    metrics._sweep(samples, MAP_THRESHOLDS, 128, 96)
    monkeypatch.undo()
    assert len(blocks) >= 3
    assert [s for block, _ in blocks for s in block] == samples
    for block, (order, _, found) in blocks:
        at = 0
        for preds, gts in block:
            for k, rung in enumerate(MAP_THRESHOLDS):
                alone = match_detections(preds, gts, rung)
                got = tuple(zip(order[at:at + len(preds)].tolist(),
                                [None if j < 0 else j for j in
                                 found[k, at:at + len(preds)].tolist()]))
                assert got == alone.assignments
            at += len(preds)


def test_match_agrees_with_oracle_random():
    rng = random.Random(42)
    for _ in range(500):
        preds = [Detection(0, rand_box(rng), round(rng.uniform(0, 1), 3))
                 for _ in range(rng.randint(0, 6))]
        gts = [GroundTruthBox(0, rand_box(rng))
               for _ in range(rng.randint(0, 4))]
        thresh = rng.choice([0.3, 0.5, 0.75])
        ours = match_detections(preds, gts, thresh)
        ref = oracle_match(preds, gts, thresh)
        assert (ours.tp, ours.fp, ours.fn) == (ref.tp, ref.fp, ref.fn)
        assert ours.assignments == ref.assignments


def test_match_conservation_random():
    rng = random.Random(43)
    for _ in range(200):
        preds = [Detection(0, rand_box(rng), rng.uniform(0, 1))
                 for _ in range(rng.randint(0, 8))]
        gts = [GroundTruthBox(0, rand_box(rng))
               for _ in range(rng.randint(0, 5))]
        result = match_detections(preds, gts, 0.5)
        assert result.tp + result.fp == len(preds)
        assert result.tp + result.fn == len(gts)
        matched_gts = [j for _, j in result.assignments if j is not None]
        assert len(matched_gts) == len(set(matched_gts)) == result.tp


def test_precision_recall_values():
    assert precision_recall(3, 1, 0) == (0.75, 1.0)
    assert precision_recall(0, 0, 0) == (1.0, 1.0)
    precision, recall = precision_recall(752, 0, 12)
    assert precision == 1.0
    assert round(recall, 3) == 0.984


def test_pr_curve_single_perfect():
    samples = [([det(2, 2, 8, 8, 0.9)], [gt(2, 2, 8, 8)])]
    curve = pr_curve(samples, 0.5, GRID, GRID)
    assert curve.points == ((1.0, 1.0),)
    assert average_precision(curve) == 1.0


def test_pr_curve_fp_before_tp():
    """A confident miss then a correct hit: curve (0,0) -> (1,0.5)."""
    samples = [([det(12, 12, 16, 16, 0.9), det(2, 2, 8, 8, 0.8)],
                [gt(2, 2, 8, 8)])]
    curve = pr_curve(samples, 0.5, GRID, GRID)
    assert curve.points == ((0.0, 0.0), (1.0, 0.5))
    assert average_precision(curve) == 0.5


def test_pr_curve_no_gts_recall_is_one():
    samples = [([det(2, 2, 8, 8, 0.7)], [])]
    curve = pr_curve(samples, 0.5, GRID, GRID)
    assert curve.total_gts == 0
    assert curve.points == ((1.0, 0.0),)


def test_average_precision_empty_curve():
    samples = [([], [gt(2, 2, 8, 8)])]
    curve = pr_curve(samples, 0.5, GRID, GRID)
    assert curve.points == ()
    assert average_precision(curve) == 0.0


def test_pr_curve_matches_per_rank_recomputation():
    """The one-pass sweep must equal re-matching each confidence prefix."""
    rng = random.Random(7)
    for _ in range(40):
        samples = []
        for _ in range(rng.randint(1, 5)):
            preds = [Detection(0, rand_box(rng), round(rng.uniform(0, 1), 3))
                     for _ in range(rng.randint(0, 4))]
            gts = [GroundTruthBox(0, rand_box(rng))
                   for _ in range(rng.randint(0, 3))]
            samples.append((preds, gts))
        curve = pr_curve(samples, 0.5)
        total_gts = sum(len(g) for _, g in samples)
        ranked = sorted(
            ((d.confidence, img, d) for img, (preds, _) in enumerate(samples)
             for d in preds),
            key=lambda e: (-e[0],
                           e[1],
                           to_pixel_box(e[2].box, 128, 96).y0,
                           to_pixel_box(e[2].box, 128, 96).x0))
        for rank in range(1, len(ranked) + 1):
            admitted = ranked[:rank]
            tp = 0
            for img, (_, gts) in enumerate(samples):
                sub = [d for _, i, d in admitted if i == img]
                tp += match_detections(sub, gts, 0.5).tp
            want_recall = tp / total_gts if total_gts else 1.0
            want_precision = tp / rank
            got_recall, got_precision = curve.points[rank - 1]
            assert got_recall == pytest.approx(want_recall, abs=1e-12)
            assert got_precision == pytest.approx(want_precision, abs=1e-12)


def tie_box(rng):
    """A box from a few pixel corners on the 20x20 grid, so that equal
    y0/x0 pairs, duplicates and IoUs exactly on a threshold are common."""
    x0, y0 = rng.choice((2, 4, 6)), rng.choice((2, 4, 6))
    return nb(x0, y0, x0 + rng.choice((4, 6, 8)), y0 + rng.choice((4, 6, 8)))


def tie_samples(rng):
    """1-4 images whose confidences come from three values and that hold
    duplicated predictions and ground truths."""
    samples = []
    for _ in range(rng.randint(1, 4)):
        gts = [GroundTruthBox(0, tie_box(rng))
               for _ in range(rng.randint(0, 4))]
        preds = [Detection(0, tie_box(rng), rng.choice((0.5, 0.9, 1.0)))
                 for _ in range(rng.randint(0, 6))]
        if preds and rng.random() < 0.5:
            preds.insert(rng.randint(0, len(preds)), rng.choice(preds))
        if gts and rng.random() < 0.3:
            gts.append(rng.choice(gts))
        samples.append((preds, gts))
    return samples


@pytest.mark.parametrize("width,height", [(128, 96), (20, 20)])
def test_metrics_agree_with_oracle_under_ties(width, height):
    """Exact confidence ties within and across images, so the ranking
    rule decides every curve, AP and operating-point count."""
    rng = random.Random(19)
    for _ in range(60):
        samples = tie_samples(rng)
        want = {t: naive_curve(samples, t, width, height)
                for t in MAP_THRESHOLDS}
        curve = pr_curve(samples, 0.5, width, height)
        assert curve.points == tuple(want[0.5][0])
        assert curve.total_gts == want[0.5][1]
        assert average_precision(curve) == pytest.approx(
            naive_ap(want[0.5][0]), abs=1e-9)
        if not any(preds or gts for preds, gts in samples):
            continue
        want_aps = [naive_ap(want[t][0]) for t in MAP_THRESHOLDS]
        map50, map50_95, aps = map_range(samples, width, height)
        assert aps == pytest.approx(want_aps, abs=1e-9)
        assert map50 == pytest.approx(want_aps[0], abs=1e-9)
        assert map50_95 == pytest.approx(sum(want_aps) / 10, abs=1e-9)
        for tau in (0.0, 0.5, 0.9, 1.0):
            report = evaluate(samples, tau, width, height)
            tp = fp = fn = kept = 0
            for preds, gts in samples:
                admitted = [d for d in preds if d.confidence >= tau]
                ref = oracle_match(admitted, gts, 0.5, width, height)
                tp, fp, fn = tp + ref.tp, fp + ref.fp, fn + ref.fn
                kept += len(admitted)
            assert report.counts == {
                "images": len(samples), "gts": want[0.5][1], "preds": kept,
                "tp": tp, "fp": fp, "fn": fn}
            assert (report.precision, report.recall) == precision_recall(
                tp, fp, fn)
            assert report.ap_per_iou == aps
            assert report.curve == curve


def test_map_range_perfect_predictions():
    samples = [([det(2, 2, 8, 8, 1.0)], [gt(2, 2, 8, 8)]),
               ([det(4, 4, 9, 9, 1.0)], [gt(4, 4, 9, 9)])]
    map50, map50_95, aps = map_range(samples, GRID, GRID)
    assert map50 == 1.0
    assert map50_95 == 1.0
    assert aps == tuple([1.0] * 10)


def test_map_range_iou_point_six():
    """IoU exactly 0.6 passes thresholds 0.50/0.55/0.60 and fails the rest."""
    samples = [([Detection(0, nb(2.5, 0, 12.5, 10), 1.0)],
                [gt(0, 0, 10, 10)])]
    overlap = iou(pb(samples[0][0][0].box), pb(samples[0][1][0].box))
    assert overlap == 0.6
    map50, map50_95, aps = map_range(samples, GRID, GRID)
    assert map50 == 1.0
    assert aps == (1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert map50_95 == pytest.approx(0.3, abs=1e-12)


def test_map_thresholds_ladder():
    assert MAP_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85,
                              0.9, 0.95)


def test_map_range_rejects_empty_everything():
    with pytest.raises(ConfigError):
        map_range([([], []), ([], [])])


def test_map_monotone_in_threshold():
    rng = random.Random(11)
    samples = []
    for _ in range(20):
        preds = [Detection(0, rand_box(rng), rng.uniform(0, 1))
                 for _ in range(rng.randint(0, 3))]
        gts = [GroundTruthBox(0, rand_box(rng))
               for _ in range(rng.randint(0, 2))]
        samples.append((preds, gts))
    _, _, aps = map_range(samples)
    for lo, hi in zip(aps, aps[1:]):
        assert hi <= lo + 1e-12


# --- evaluate() over samples loaded from files ------------------------------


def write_eval_fixture(tmp_path, pred_rows):
    """Three frames: two with one gt each, one empty."""
    labels_dir = tmp_path / "labels"
    preds_dir = tmp_path / "preds"
    labels_dir.mkdir()
    preds_dir.mkdir()
    gts = {
        "f0": [GroundTruthBox(0, NormalizedBox(0.4, 0.4, 0.2, 0.25))],
        "f1": [GroundTruthBox(0, NormalizedBox(0.6, 0.5, 0.15, 0.2))],
        "f2": [],
    }
    records = []
    for k, stem in enumerate(sorted(gts)):
        (labels_dir / f"{stem}.txt").write_text(serialize_labels(gts[stem]))
        records.append(ManifestRecord(f"frames/{stem}.pgm",
                                      f"labels/{stem}.txt",
                                      bool(gts[stem]), k * 10))
    manifest_path = str(tmp_path / "manifest.jsonl")
    write_manifest(manifest_path, records)
    for stem, dets in pred_rows.items():
        (preds_dir / f"{stem}.txt").write_text(serialize_predictions(dets))
    return records, str(preds_dir), manifest_path


def test_evaluate_perfect(tmp_path):
    preds = {
        "f0": [Detection(0, NormalizedBox(0.4, 0.4, 0.2, 0.25), 0.95)],
        "f1": [Detection(0, NormalizedBox(0.6, 0.5, 0.15, 0.2), 0.95)],
        "f2": [],
    }
    records, preds_dir, manifest_path = write_eval_fixture(tmp_path, preds)
    samples, missing = load_samples(records, preds_dir, manifest_path)
    samples = list(samples)  # read twice: by evaluate and by pr_curve
    assert missing == 0
    report = evaluate(samples, operating_tau=0.9)
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.map50 == 1.0
    assert report.map50_95 == 1.0
    assert report.counts == {"images": 3, "gts": 2, "preds": 2,
                             "tp": 2, "fp": 0, "fn": 0}
    assert report.curve == pr_curve(samples)


def test_evaluate_missing_pred_file_is_no_detections(tmp_path):
    preds = {"f0": [Detection(0, NormalizedBox(0.4, 0.4, 0.2, 0.25), 0.95)]}
    records, preds_dir, manifest_path = write_eval_fixture(tmp_path, preds)
    samples, missing = load_samples(records, preds_dir, manifest_path)
    assert missing == 2
    report = evaluate(samples, operating_tau=0.9)
    assert report.counts["fn"] == 1
    assert report.recall == 0.5


def test_evaluate_tau_filters_operating_point_not_map(tmp_path):
    preds = {
        "f0": [Detection(0, NormalizedBox(0.4, 0.4, 0.2, 0.25), 0.95)],
        "f1": [Detection(0, NormalizedBox(0.6, 0.5, 0.15, 0.2), 0.95)],
    }
    records, preds_dir, manifest_path = write_eval_fixture(tmp_path, preds)
    samples, _ = load_samples(records, preds_dir, manifest_path)
    report = evaluate(samples, operating_tau=0.99)
    assert report.counts["preds"] == 0
    assert report.recall == 0.0
    assert report.precision == 1.0  # no admitted predictions, none wrong
    assert report.map50 == 1.0  # the sweep still sees every prediction


def test_evaluate_rejects_bad_tau(tmp_path):
    records, preds_dir, manifest_path = write_eval_fixture(tmp_path, {})
    samples, _ = load_samples(records, preds_dir, manifest_path)
    with pytest.raises(ConfigError):
        evaluate(samples, operating_tau=1.5)
    with pytest.raises(ConfigError):
        evaluate([])


def test_evaluate_rejects_duplicate_stems(tmp_path):
    records, preds_dir, manifest_path = write_eval_fixture(tmp_path, {})
    dupe = records + [ManifestRecord("other/f0.pgm", None, False, 99)]
    with pytest.raises(ConfigError):
        load_samples(dupe, preds_dir, manifest_path)


def test_evaluate_holds_a_block_of_loaded_boxes(tmp_path):
    """evaluate over load_samples reads each record's files as the sweep
    reaches it, so its memory follows the block: over 2000 images of 0-6
    gts, each with a jittered prediction, about six blocks, the peak
    stays under 220 bytes a box, records and the curve included. Python
    3.11 takes about 140; older Pythons' objects are larger. Holding
    every parsed box as objects takes about 450."""
    rng = random.Random(31)
    (tmp_path / "labels").mkdir()
    (tmp_path / "preds").mkdir()
    records, boxes = [], 0
    u = rng.uniform
    for i in range(2000):
        gts = [GroundTruthBox(0, NormalizedBox(u(0.2, 0.8), u(0.2, 0.8),
                                               u(0.05, 0.3), u(0.05, 0.3)))
               for _ in range(rng.randint(0, 6))]
        preds = [Detection(0, NormalizedBox(
            g.box.cx + u(-0.02, 0.02), g.box.cy + u(-0.02, 0.02), g.box.w,
            g.box.h), round(u(0, 1), 2)) for g in gts]
        (tmp_path / "labels" / f"f{i}.txt").write_text(serialize_labels(gts))
        (tmp_path / "preds" / f"f{i}.txt").write_text(
            serialize_predictions(preds))
        records.append(ManifestRecord(f"f{i}.pgm", f"labels/f{i}.txt",
                                      bool(gts), i))
        boxes += 2 * len(gts)
    manifest_path = str(tmp_path / "manifest.jsonl")
    write_manifest(manifest_path, records)
    assert boxes > 5 * metrics._BLOCK_BOXES
    tracemalloc.start()
    try:
        report = evaluate(load_samples(records, str(tmp_path / "preds"),
                                       manifest_path)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.counts["images"] == 2000
    assert report.counts["gts"] == boxes // 2
    assert peak < 220 * boxes


def test_report_json_schema(tmp_path):
    preds = {"f0": [Detection(0, NormalizedBox(0.4, 0.4, 0.2, 0.25), 0.95)]}
    records, preds_dir, manifest_path = write_eval_fixture(tmp_path, preds)
    report = evaluate(load_samples(records, preds_dir, manifest_path)[0])
    data = json.loads(report.to_json())
    assert list(data.keys()) == ["precision", "recall", "map50", "map50_95",
                                 "ap_per_iou", "counts", "operating_tau"]
    assert len(data["ap_per_iou"]) == 10
    assert data["operating_tau"] == 0.9
    assert list(data["counts"].keys()) == ["images", "gts", "preds", "tp",
                                           "fp", "fn"]
