"""Brute-force references that the tests compare the package against.

They live with the tests, not the package, and share no helper with
the code they check. The matcher and NMS recompute box scaling,
overlap, ranking and their greedy passes with plain Python floats; the
PR sweep re-matches an image through the matcher after every rank; the
labeller finds connected components by flood fill, pixel by pixel.
"""

from thermocc.annot import Detection, GroundTruthBox, NormalizedBox
from thermocc.metrics import MatchResult


class OracleScaleError(ValueError):
    """The brute-force matcher was handed more boxes than it accepts."""


def corners(box: NormalizedBox, width: int,
            height: int) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1) of box on a width x height grid, clamped to it."""
    x0 = min(max((box.cx - box.w / 2.0) * width, 0.0), float(width))
    x1 = min(max((box.cx + box.w / 2.0) * width, 0.0), float(width))
    y0 = min(max((box.cy - box.h / 2.0) * height, 0.0), float(height))
    y1 = min(max((box.cy + box.h / 2.0) * height, 0.0), float(height))
    return x0, y0, x1, y1


def overlap(a, b) -> float:
    """IoU of two (x0, y0, x1, y1) corner tuples; 0.0 when disjoint."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def ranking(dets: list[Detection], cs) -> list[int]:
    """Indices of dets by descending confidence, then pixel y0, x0 and
    index; cs[i] holds the corners of dets[i]."""
    return sorted(range(len(dets)),
                  key=lambda i: (-dets[i].confidence, cs[i][1], cs[i][0]))


def oracle_nms(dets: list[Detection], iou_thresh: float, width: int,
               height: int) -> list[Detection]:
    """Brute-force greedy NMS: visit dets in ranking order and keep each
    one whose overlap with every box kept before stays below iou_thresh."""
    cs = [corners(d.box, width, height) for d in dets]
    kept = []
    for i in ranking(dets, cs):
        if all(overlap(cs[i], cs[j]) < iou_thresh for j in kept):
            kept.append(i)
    return [dets[i] for i in kept]


def oracle_match(preds: list[Detection], gts: list[GroundTruthBox],
                 iou_thresh: float = 0.5, width: int = 128,
                 height: int = 96) -> MatchResult:
    """Brute-force reference matcher for cross-checking.

    Recomputes box scaling, overlap and the greedy assignment with
    plain Python floats and no shared helpers, so it can disagree with
    the production matcher if either drifts. Deliberately capped to
    tiny inputs; it exists to be obviously correct, not fast.
    """
    if len(preds) > 8:
        raise OracleScaleError(f"at most 8 predictions, got {len(preds)}")
    if len(gts) > 5:
        raise OracleScaleError(f"at most 5 ground truths, got {len(gts)}")

    pcs = [corners(d.box, width, height) for d in preds]
    gcs = [corners(g.box, width, height) for g in gts]
    order = ranking(preds, pcs)
    taken = [False] * len(gts)
    assignments = []
    tp = 0
    for i in order:
        best_j = None
        best = 0.0
        for j in range(len(gts)):
            if taken[j]:
                continue
            v = overlap(pcs[i], gcs[j])
            if v > best:
                best = v
                best_j = j
        if best_j is not None and best >= iou_thresh:
            taken[best_j] = True
            tp += 1
            assignments.append((i, best_j))
        else:
            assignments.append((i, None))
    return MatchResult(tuple(assignments), tp, len(preds) - tp,
                       len(gts) - tp)


def naive_curve(samples, thresh: float, width: int = 128,
                height: int = 96):
    """Per-rank recomputation of the PR sweep; returns (points, total_gts).

    Predictions are admitted one global rank at a time, ranked by
    descending confidence, then image, then pixel y0, x0 and index; the
    image whose prediction set changed is re-matched from scratch
    through oracle_match (the other images' inputs are unchanged, so
    their previous counts are definitionally still correct).
    """
    order = []
    for img, (preds, _) in enumerate(samples):
        for j, det in enumerate(preds):
            x0, y0, _, _ = corners(det.box, width, height)
            order.append((-det.confidence, img, y0, x0, j))
    order.sort()
    total_gts = sum(len(g) for _, g in samples)
    points = []
    chosen = [set() for _ in samples]
    tps = [0] * len(samples)
    for k, (_, img, _, _, j) in enumerate(order, start=1):
        chosen[img].add(j)
        prefix = [d for i, d in enumerate(samples[img][0])
                  if i in chosen[img]]
        tps[img] = oracle_match(prefix, samples[img][1], thresh, width,
                                height).tp
        tp = sum(tps)
        recall = tp / total_gts if total_gts else 1.0
        points.append((recall, tp / k))
    return points, total_gts


def naive_ap(points) -> float:
    """Direct 101-term interpolated AP sum over (recall, precision)."""
    if not points:
        return 0.0
    total = 0.0
    for i in range(101):
        r = i / 100
        total += max((prec for rec, prec in points if rec >= r), default=0.0)
    return total / 101


def flood_fill_components(mask) -> list[tuple[tuple[int, int, int, int],
                                             list[tuple[int, int]]]]:
    """4-connected components of a 2-D boolean mask, by flood fill.

    Returns (box, members) per component, in raster order of each
    component's first pixel. box is (x0, y0, x1, y1), half-open;
    members are the component's (row, col) pixels in raster order.
    Pixels that touch only at a corner are not connected.
    """
    h, w = len(mask), len(mask[0])
    seen = [[False] * w for _ in range(h)]
    components = []
    for r in range(h):
        for c in range(w):
            if not mask[r][c] or seen[r][c]:
                continue
            seen[r][c] = True
            stack = [(r, c)]
            members = []
            while stack:
                y, x = stack.pop()
                members.append((y, x))
                for ny, nx in ((y + 1, x), (y - 1, x), (y, x + 1), (y, x - 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny][nx] \
                            and not seen[ny][nx]:
                        seen[ny][nx] = True
                        stack.append((ny, nx))
            members.sort()
            ys = [y for y, _ in members]
            xs = [x for _, x in members]
            components.append(((min(xs), min(ys), max(xs) + 1, max(ys) + 1),
                               members))
    return components
