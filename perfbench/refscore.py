"""Independent reference scorer for checking `thermocc eval` reports.

It reads the manifest, label and prediction files with its own parser
and scores them with a brute-force greedy matcher and 101-point
interpolated AP, written from the report's documented definitions. It
imports nothing from thermocc, so a defect in the program's metrics,
parsers or box helpers cannot hide itself here.

Definitions it follows (see the thermocc README and metrics docs):
- Boxes are center-based fractions, scaled onto a 128x96 pixel grid
  and clamped to it.
- Per image, predictions are visited by descending confidence, ties
  by pixel y0 then x0 then file order. Each takes the unmatched ground
  truth of highest IoU (first one on ties); it is a true positive when
  that IoU is positive and reaches the threshold.
- Precision, recall and counts use predictions with confidence >= tau
  at IoU 0.5; an empty denominator counts as 1.0.
- AP at each IoU in 0.50..0.95 ranks every prediction by confidence,
  ties by image, y0, x0. It averages, over recall levels 0.00..1.00,
  the highest precision at any rank whose recall reaches the level.
"""

from __future__ import annotations

import json
import os

WIDTH = 128
HEIGHT = 96
THRESHOLDS = tuple((50 + 5 * k) / 100 for k in range(10))


def _clamp(x: float, lo: float, hi: float) -> float:
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def _read_boxes(path: str, nfields: int) -> list[tuple]:
    """(x0, y0, x1, y1[, conf]) pixel corners for each line of a box file."""
    boxes = []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            fields = line.split()
            if not fields:
                continue
            if len(fields) != nfields or fields[0] != "0":
                raise ValueError(f"{path}: bad line {line!r}")
            cx, cy, w, h = (float(f) for f in fields[1:5])
            corners = (_clamp((cx - w / 2.0) * WIDTH, 0.0, float(WIDTH)),
                       _clamp((cy - h / 2.0) * HEIGHT, 0.0, float(HEIGHT)),
                       _clamp((cx + w / 2.0) * WIDTH, 0.0, float(WIDTH)),
                       _clamp((cy + h / 2.0) * HEIGHT, 0.0, float(HEIGHT)))
            boxes.append(corners + ((float(fields[5]),) if nfields == 6 else ()))
    return boxes


def load(manifest_path: str, preds_dir: str) -> list[tuple[list, list]]:
    """(predictions, ground truths) per manifest line, in manifest order."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    samples = []
    with open(manifest_path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            rec = json.loads(line)
            gts = []
            if rec["labels"] is not None:
                gts = _read_boxes(os.path.join(base, rec["labels"]), 5)
            stem = os.path.splitext(os.path.basename(rec["frame"]))[0]
            pred_path = os.path.join(preds_dir, stem + ".txt")
            preds = (_read_boxes(pred_path, 6) if os.path.exists(pred_path)
                     else [])
            samples.append((preds, gts))
    return samples


def _iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def _greedy(preds, gts, ious, thresh: float) -> list[bool]:
    """True-positive flag per prediction, indexed like preds."""
    order = sorted(range(len(preds)),
                   key=lambda i: (-preds[i][4], preds[i][1], preds[i][0]))
    taken = [False] * len(gts)
    hits = [False] * len(preds)
    for i in order:
        best_j, best = None, 0.0
        for j in range(len(gts)):
            if not taken[j] and ious[i][j] > best:
                best_j, best = j, ious[i][j]
        if best_j is not None and best >= thresh:
            taken[best_j] = True
            hits[i] = True
    return hits


def _average_precision(flags: list[bool], total_gts: int) -> float:
    if not flags:
        return 0.0
    recalls, precisions = [], []
    tp = 0
    for rank, hit in enumerate(flags, start=1):
        tp += hit
        recalls.append(tp / total_gts if total_gts > 0 else 1.0)
        precisions.append(tp / rank)
    best_after = precisions[:]
    for k in range(len(best_after) - 2, -1, -1):
        best_after[k] = max(best_after[k], best_after[k + 1])
    total = 0.0
    k = 0  # recall never decreases, so the first rank reaching r only moves on
    for level in range(101):
        r = level / 100.0
        while k < len(recalls) and recalls[k] < r:
            k += 1
        if k < len(recalls):
            total += best_after[k]
    return total / 101.0


def score(manifest_path: str, preds_dir: str, tau: float = 0.9) -> dict:
    """The report `thermocc eval` should produce, as a plain dict."""
    samples = load(manifest_path, preds_dir)
    tp = fp = fn = kept = 0
    ranked = []  # (sort key, image, prediction index)
    ious_per_image = []
    for img, (preds, gts) in enumerate(samples):
        ious = [[_iou(p, g) for g in gts] for p in preds]
        ious_per_image.append(ious)
        admitted = [i for i, p in enumerate(preds) if p[4] >= tau]
        sub_preds = [preds[i] for i in admitted]
        hits = _greedy(sub_preds, gts, [ious[i] for i in admitted], 0.5)
        tp += sum(hits)
        fp += len(hits) - sum(hits)
        fn += len(gts) - sum(hits)
        kept += len(admitted)
        for i, p in enumerate(preds):
            ranked.append(((-p[4], img, p[1], p[0]), img, i))
    ranked.sort(key=lambda e: e[0])
    total_gts = sum(len(g) for _, g in samples)
    aps = []
    for thresh in THRESHOLDS:
        hits = [_greedy(preds, gts, ious_per_image[img], thresh)
                for img, (preds, gts) in enumerate(samples)]
        aps.append(_average_precision([hits[img][i] for _, img, i in ranked],
                                      total_gts))
    return {
        "precision": tp / (tp + fp) if tp + fp > 0 else 1.0,
        "recall": tp / (tp + fn) if tp + fn > 0 else 1.0,
        "map50": aps[0],
        "map50_95": sum(aps) / len(aps),
        "ap_per_iou": aps,
        "counts": {"images": len(samples), "gts": total_gts, "preds": kept,
                   "tp": tp, "fp": fp, "fn": fn},
        "operating_tau": tau,
    }


def disagreements(report: dict, expected: dict, tol: float = 1e-9) -> list[str]:
    """Fields where a report differs from the reference: counts exactly,
    precision, recall and every AP within tol."""
    problems = []
    if report.get("counts") != expected["counts"]:
        problems.append(f"counts {report.get('counts')} != {expected['counts']}")
    for key in ("precision", "recall", "map50", "map50_95"):
        if not abs(report.get(key, float("nan")) - expected[key]) <= tol:
            problems.append(f"{key} {report.get(key)} != {expected[key]}")
    got_aps = report.get("ap_per_iou", [])
    if len(got_aps) != len(expected["ap_per_iou"]) or any(
            not abs(a - b) <= tol
            for a, b in zip(got_aps, expected["ap_per_iou"])):
        problems.append(f"ap_per_iou {got_aps} != {expected['ap_per_iou']}")
    if report.get("operating_tau") != expected["operating_tau"]:
        problems.append(f"operating_tau {report.get('operating_tau')}")
    return problems
