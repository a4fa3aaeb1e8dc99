"""Detection metrics: IoU, greedy matching, PR curves, AP and mAP.

All overlap math runs on continuous pixel boxes. IoU is scale
invariant, so the rasterization size only pins the (y0, x0) tie-break
order; everything defaults to the native 128x96 grid.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .annot import Detection, GroundTruthBox, NormalizedBox, PixelBox, \
    parse_labels, parse_predictions
from .errors import ConfigError, DegenerateBoxError
from .frame import NATIVE_HEIGHT, NATIVE_WIDTH
from .manifest import ManifestRecord, prediction_filenames, resolve
from .util import read_text

# IoU thresholds for the mAP ladder: 0.50 to 0.95 in 0.05 steps.
MAP_THRESHOLDS = tuple((50 + 5 * k) / 100 for k in range(10))

# Confidence a detection needs to count at the operating point.
DEFAULT_TAU = 0.9

# _sweep matches images in blocks of about this many boxes.
_BLOCK_BOXES = 2048


def check_tau(tau: float) -> None:
    """Reject a confidence threshold outside [0, 1], NaN included."""
    if not (0.0 <= tau <= 1.0):
        raise ConfigError(f"tau must lie in [0, 1], got {tau}")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one image's predictions to its ground truth.

    assignments holds (prediction index, matched gt index or None) in
    visit order: descending confidence, then pixel y0, x0 and index.
    """

    assignments: tuple[tuple[int, int | None], ...]
    tp: int
    fp: int
    fn: int


def _corners(boxes, width: int, height: int) -> np.ndarray:
    """(x0, y0, x1, y1) rows of normalized boxes scaled onto a width x
    height grid and clamped to it. If a box has no area there, this
    raises ValueError on a grid under 1x1, else DegenerateBoxError."""
    b = np.array([(x.cx, x.cy, x.w, x.h) for x in boxes]).reshape(-1, 4)
    grid, half = np.array([width, height] * 2, dtype=float), b[:, 2:] / 2.0
    c = np.clip(np.hstack([b[:, :2] - half, b[:, :2] + half]) * grid, 0.0, grid)
    if not (c[:, 2:] > c[:, :2]).all():
        if width < 1 or height < 1:
            raise ValueError("image dimensions must be at least 1x1")
        raise DegenerateBoxError(
            f"box collapses to zero area on a {width}x{height} grid")
    return c


def to_pixel_box(box: NormalizedBox, width: int, height: int) -> PixelBox:
    """Scale a normalized box onto a width x height grid, clamped to it:
    _corners of one box, with its errors."""
    return PixelBox(*_corners([box], width, height)[0].tolist())


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of rows a[k] and b[k] of two corner arrays for each k; boxes
    that do not overlap give 0.0, or 0 / 0 if neither has area."""
    wh = np.minimum(a[:, 2:], b[:, 2:]) - np.maximum(a[:, :2], b[:, :2])
    inter = np.maximum(wh[:, 0], 0.0) * np.maximum(wh[:, 1], 0.0)
    ea, eb = a[:, 2:] - a[:, :2], b[:, 2:] - b[:, :2]
    return inter / (ea[:, 0] * ea[:, 1] + eb[:, 0] * eb[:, 1] - inter)


def iou(a: PixelBox, b: PixelBox) -> float:
    """Intersection over union of two pixel boxes, by _overlaps; 0.0 for
    any two that do not overlap, two boxes without area included."""
    rows = np.array([[p.x0, p.y0, p.x1, p.y1] for p in (a, b)])
    with np.errstate(invalid="ignore"):  # 0 / 0 is nan, which means 0.0
        return float(np.nan_to_num(_overlaps(rows[:1], rows[1:])[0]))


def _visit_order(corners: np.ndarray, conf: np.ndarray, *outer) -> np.ndarray:
    """Indices of boxes as NMS and matching visit them: any keys in outer
    (last first), then descending conf, pixel y0, x0 and index."""
    return np.lexsort((corners[:, 0], corners[:, 1], -conf) + outer)


def _match_block(block, rungs: np.ndarray, width: int, height: int):
    """Greedily match a block of (preds, gts) images at each rung of
    rungs, an (r, 1) array, scanning the p-th prediction of every image
    at step p. Returns each image's prediction indices in _visit_order,
    image after image; their confidences; and found[k, i], the gt index
    that prediction i of that order took at rungs[k], or -1."""
    npred, ngt = np.array([(len(preds), len(gts)) for preds, gts in block],
                          dtype=np.intp).reshape(-1, 2).T
    preds = [d for ds, _ in block for d in ds]
    pc = _corners([d.box for d in preds], width, height)
    gc = _corners([g.box for _, gts in block for g in gts], width, height)
    conf = np.array([d.confidence for d in preds], dtype=np.float64)
    order = _visit_order(pc, conf, np.repeat(np.arange(len(block)), npred))
    pc, pstart, gstart = pc[order], npred.cumsum() - npred, ngt.cumsum() - ngt
    taken = np.zeros((len(rungs), len(gc)), dtype=bool)
    found = np.full((len(rungs), len(pc)), -1, dtype=np.intp)
    for p in range(int(npred[ngt > 0].max(initial=0))):
        act = ((npred > p) & (ngt > 0)).nonzero()[0]
        seg = ngt[act]  # image act[a]'s pairs start at starts[a]
        starts = seg.cumsum() - seg
        span = np.arange(starts[-1] + seg[-1])
        cols, rows = span + np.repeat(gstart[act] - starts, seg), pstart[act] + p
        vals = np.where(taken[:, cols], 0.0,
                        _overlaps(np.repeat(pc[rows], seg, axis=0), gc[cols]))
        best = np.maximum.reduceat(vals, starts, axis=1)
        ties = vals == np.repeat(best, seg, axis=1)
        g = cols[np.minimum.reduceat(np.where(ties, span, span.size), starts,
                                     axis=1)]
        hit = (best > 0.0) & (best >= rungs)
        taken[hit.nonzero()[0], g[hit]] = True
        found[:, rows] = np.where(hit, g - gstart[act], -1)
    return order - np.repeat(pstart, npred), conf[order], found


def match_detections(preds: list[Detection], gts: list[GroundTruthBox],
                     iou_thresh: float = 0.5,
                     width: int = NATIVE_WIDTH,
                     height: int = NATIVE_HEIGHT) -> MatchResult:
    """Greedily match predictions to ground-truth boxes.

    Predictions are visited as MatchResult orders them. Each takes the
    still-unmatched ground truth with the highest IoU, ties going to the
    lowest gt index, and counts as a true positive when that IoU reaches
    iou_thresh. Each ground truth is consumed at most once.
    """
    order, _, (found,) = _match_block([(preds, gts)], np.array([[iou_thresh]]),
                                      width, height)
    found = [j if j >= 0 else None for j in found.tolist()]
    tp = len(found) - found.count(None)
    return MatchResult(tuple(zip(order.tolist(), found)), tp,
                       len(preds) - tp, len(gts) - tp)


def precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    """Pointwise precision and recall; empty denominators count as 1.0."""
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    return precision, recall


@dataclass(frozen=True)
class PRCurve:
    """Dataset-wide precision/recall after each prediction rank.

    points[k] is (recall, precision) after admitting the k+1 highest
    confidence predictions across every image. With zero ground truths
    recall is defined as 1.0 throughout.
    """

    points: tuple[tuple[float, float], ...]
    total_gts: int


def _sweep(samples, thresholds, width: int, height: int):
    """Match every image once for all thresholds and rank all predictions
    once: confidence descending, then image, then _visit_order position.
    The greedy pass visits predictions by descending confidence, so the
    match of a confidence prefix is the prefix of the full match, and one
    pass labels every prediction TP or FP for the whole sweep. Returns
    (curve, aps, conf, cum_tp): the PR curve at thresholds[0], the AP at
    each threshold, and, in rank order, the confidences and the running
    TP count at thresholds[0].
    """
    rungs = np.array(thresholds, dtype=np.float64)[:, None]
    samples = list(samples)
    total_gts = sum(len(gts) for _, gts in samples)
    at = np.cumsum([0] + [len(preds) for preds, _ in samples])
    conf, hits = np.empty(at[-1]), np.empty((len(rungs), at[-1]), dtype=bool)
    # A block ends where an image starts a new window of _BLOCK_BOXES
    # boxes, so it holds fewer boxes than that plus its last image's.
    first = np.cumsum([0] + [len(p) + len(g) for p, g in samples])[:-1]
    cuts = (np.diff(first // _BLOCK_BOXES).nonzero()[0] + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(samples)]):
        _, conf[at[lo]:at[hi]], found = _match_block(samples[lo:hi], rungs,
                                                     width, height)
        hits[:, at[lo]:at[hi]] = found >= 0
    rank = np.argsort(-conf, kind="stable")  # ties keep image, visit order

    def rates(flags):  # running TP count, recall and precision
        cum_tp = np.cumsum(flags[rank], dtype=np.int64)
        recall = cum_tp / total_gts if total_gts > 0 else np.ones(len(rank))
        return cum_tp, recall, cum_tp / np.arange(1, len(rank) + 1)

    aps = tuple(_interpolated_ap(*rates(flags)[1:]) for flags in hits)
    cum_tp, recall, precision = rates(hits[0])
    curve = PRCurve(tuple(zip(recall.tolist(), precision.tolist())),
                    total_gts)
    return curve, aps, conf[rank], cum_tp


def pr_curve(samples, iou_thresh: float = 0.5,
             width: int = NATIVE_WIDTH,
             height: int = NATIVE_HEIGHT) -> PRCurve:
    """Sweep confidence over a dataset of (predictions, gts) pairs,
    ranked as _sweep describes."""
    return _sweep(samples, (iou_thresh,), width, height)[0]


def _interpolated_ap(rec, prec) -> float:
    if not len(rec):
        return 0.0
    suffix_max = np.maximum.accumulate(prec[::-1])[::-1]
    grid = np.arange(101) / 100.0
    idx = np.searchsorted(rec, grid, side="left")
    hit = idx < len(rec)
    return float(suffix_max[idx[hit]].sum() / 101.0)


def average_precision(curve: PRCurve) -> float:
    """101-point interpolated AP.

    AP = mean over r in {0.00, 0.01, ..., 1.00} of the maximum
    precision among curve points whose recall is at least r; grid
    points beyond the final recall contribute zero.
    """
    points = np.array(curve.points, dtype=np.float64).reshape(-1, 2)
    return _interpolated_ap(points[:, 0], points[:, 1])


def map_range(samples, width: int = NATIVE_WIDTH,
              height: int = NATIVE_HEIGHT):
    """AP at each IoU threshold plus the 0.50 and 0.50:0.95 summaries.

    Returns (map50, map50_95, ap_per_iou) as evaluate scores them; it
    raises ConfigError on no samples or on neither gts nor predictions.
    """
    report = evaluate(samples, DEFAULT_TAU, width, height)
    return report.map50, report.map50_95, report.ap_per_iou


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    map50: float
    map50_95: float
    ap_per_iou: tuple[float, ...]
    counts: dict
    operating_tau: float
    # the IoU 0.50 PR curve the ladder swept, kept for plotting and
    # left out of to_dict
    curve: PRCurve

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "map50": self.map50,
            "map50_95": self.map50_95,
            "ap_per_iou": list(self.ap_per_iou),
            "counts": dict(self.counts),
            "operating_tau": self.operating_tau,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def load_samples(records: list[ManifestRecord], preds_dir: str,
                 manifest_path: str):
    """Pair each record's predictions with its ground truths.

    Returns (samples, missing): samples[i] is (predictions, gts) for
    records[i], and missing counts the frames with no prediction file.
    Ground truth comes from the record's label file (a null label path
    means no objects). Predictions come from preds_dir/<frame stem>.txt;
    a missing file means zero predictions, while a missing preds_dir or
    anything unparseable is a hard error. Duplicate frame stems would
    silently share one prediction file, so they are rejected.
    """
    names = prediction_filenames(records)
    if not os.path.isdir(preds_dir):
        raise ConfigError(f"predictions directory {preds_dir} is missing")
    samples = []
    missing = 0
    for rec, name in zip(records, names):
        gts = []
        if rec.labels is not None:
            gts = parse_labels(read_text(resolve(manifest_path, rec.labels)))
        pred_path = os.path.join(preds_dir, name)
        preds = []
        if os.path.exists(pred_path):
            preds = parse_predictions(read_text(pred_path))
        else:
            missing += 1
        samples.append((preds, gts))
    return samples, missing


def evaluate(samples, operating_tau: float = DEFAULT_TAU,
             width: int = NATIVE_WIDTH,
             height: int = NATIVE_HEIGHT) -> EvalReport:
    """Score (predictions, gts) pairs, one per frame (see load_samples).

    Precision/recall and the confusion counts are taken at the
    operating confidence threshold with IoU 0.5; the mAP figures sweep
    every prediction regardless of the operating threshold.
    """
    check_tau(operating_tau)
    samples = list(samples)
    if not samples:
        raise ConfigError("manifest holds no records to evaluate")
    # a mean over nothing is meaningless
    if not any(preds or gts for preds, gts in samples):
        raise ConfigError("no ground truths and no predictions to score")
    curve, aps, conf, cum_tp = _sweep(samples, MAP_THRESHOLDS, width, height)
    # conf >= tau admits a prefix of the ranking, whose TPs cum_tp counts
    kept = int(np.count_nonzero(conf >= operating_tau))
    tp = int(cum_tp[kept - 1]) if kept else 0
    fp, fn = kept - tp, curve.total_gts - tp
    precision, recall = precision_recall(tp, fp, fn)
    counts = {"images": len(samples), "gts": curve.total_gts, "preds": kept,
              "tp": tp, "fp": fp, "fn": fn}
    return EvalReport(precision, recall, aps[0], sum(aps) / len(aps), aps,
                      counts, operating_tau, curve)
