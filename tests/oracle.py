"""Brute-force references that the tests compare the package against.

They live with the tests, not the package, and share no helper with
the code they check. The matcher recomputes box scaling, overlap and
the greedy assignment with plain Python floats; the labeller finds
connected components by flood fill, pixel by pixel.
"""

from thermocc.annot import Detection, GroundTruthBox, NormalizedBox
from thermocc.metrics import MatchResult


class OracleScaleError(ValueError):
    """The brute-force matcher was handed more boxes than it accepts."""


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

    def corners(box: NormalizedBox) -> tuple[float, float, float, float]:
        x0 = min(max((box.cx - box.w / 2.0) * width, 0.0), float(width))
        x1 = min(max((box.cx + box.w / 2.0) * width, 0.0), float(width))
        y0 = min(max((box.cy - box.h / 2.0) * height, 0.0), float(height))
        y1 = min(max((box.cy + box.h / 2.0) * height, 0.0), float(height))
        return x0, y0, x1, y1

    def overlap(a, b) -> float:
        iw = min(a[2], b[2]) - max(a[0], b[0])
        ih = min(a[3], b[3]) - max(a[1], b[1])
        if iw <= 0.0 or ih <= 0.0:
            return 0.0
        inter = iw * ih
        area_a = (a[2] - a[0]) * (a[3] - a[1])
        area_b = (b[2] - b[0]) * (b[3] - b[1])
        return inter / (area_a + area_b - inter)

    pcs = [corners(d.box) for d in preds]
    gcs = [corners(g.box) for g in gts]
    order = sorted(range(len(preds)),
                   key=lambda i: (-preds[i].confidence, pcs[i][1], pcs[i][0]))
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
