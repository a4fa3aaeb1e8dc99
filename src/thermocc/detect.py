"""Warm-blob occupant detector.

A frame is thresholded at a fixed Celsius contour, compared on the raw
counts, the warm mask is split into 4-connected components by joining
row runs, and each component is scored by three membership functions
(mean temperature ramp, bounding-box area fraction trapezoid,
bounding-box aspect trapezoid) whose product is the detection
confidence. Greedy NMS then drops overlapping boxes.
The whole pass is arithmetic on the raw frame, so identical frames
always produce identical detections.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .annot import Detection, PixelBox, from_pixel_box
from .errors import ConfigError
from .frame import PGM_MAXVAL, ThermalFrame, celsius_from_raw, read_frame
from .manifest import ManifestRecord, resolve
from .metrics import _corners, _overlaps, _visit_order


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs for the blob detector.

    warm_threshold seeds the mask. The temperature score ramps from 0
    at t_warm to 1 at t_face. Area and aspect scores are trapezoids
    (a, b, c, d): zero outside (a, d), one on [b, c], linear between.
    Area is the box's fraction of the frame, aspect is box height over
    width in pixels.
    """

    warm_threshold: float = 30.0
    t_warm: float = 28.0
    t_face: float = 34.0
    area_knots: tuple[float, float, float, float] = (0.005, 0.02, 0.25, 0.60)
    aspect_knots: tuple[float, float, float, float] = (0.6, 0.8, 1.6, 2.2)
    nms_iou: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.warm_threshold):
            raise ConfigError(f"warm_threshold must be finite, got "
                              f"{self.warm_threshold}")
        if not (-math.inf < self.t_warm < self.t_face < math.inf):
            raise ConfigError(f"need finite t_warm < t_face, got "
                              f"{self.t_warm} and {self.t_face}")
        for name, knots in (("area", self.area_knots),
                            ("aspect", self.aspect_knots)):
            a, b, c, d = knots
            if not (-math.inf < a < b <= c < d < math.inf):
                raise ConfigError(f"{name} knots must be finite with "
                                  f"a < b <= c < d, got {knots}")
        if not (0.0 <= self.nms_iou <= 1.0):
            raise ConfigError(f"nms_iou must lie in [0, 1], got {self.nms_iou}")

    @functools.cached_property
    def _raw_cut(self) -> int:
        """Smallest raw count whose Celsius value reaches warm_threshold.

        celsius_from_raw rises strictly over every count, so
        `raw >= cut` is exactly `celsius >= warm_threshold`. The cut is
        PGM_MAXVAL + 1 when no count is warm enough.
        """
        return int(np.searchsorted(celsius_from_raw(np.arange(PGM_MAXVAL + 1)),
                                   self.warm_threshold))


DEFAULT_CONFIG = DetectorConfig()


def _trapezoid(x: float, knots: tuple[float, float, float, float]) -> float:
    a, b, c, d = knots
    if x <= a or x >= d:
        return 0.0
    if x < b:
        return (x - a) / (b - a)
    if x <= c:
        return 1.0
    return (d - x) / (d - c)


def score_blob(mean_temp: float, area_frac: float, aspect: float,
               config: DetectorConfig = DEFAULT_CONFIG) -> float:
    """Confidence of one blob: product of the three membership scores."""
    f_temp = min(max((mean_temp - config.t_warm)
                     / (config.t_face - config.t_warm), 0.0), 1.0)
    f_area = _trapezoid(area_frac, config.area_knots)
    f_aspect = _trapezoid(aspect, config.aspect_knots)
    return f_temp * f_area * f_aspect


def nms(dets: list[Detection], iou_thresh: float,
        width: int, height: int) -> list[Detection]:
    """Greedy non-maximum suppression.

    Detections are visited in metrics._visit_order; each is kept only if
    its IoU with every box kept before stays below iou_thresh. The result
    keeps that order, is a subset of the input, and is idempotent.
    """
    corners = _corners([d.box for d in dets], width, height)
    kept: list[int] = []
    for i in _visit_order(corners, np.array([d.confidence for d in dets],
                                            dtype=np.float64)).tolist():
        if (_overlaps(corners[kept], corners[i:i + 1]) < iou_thresh).all():
            kept.append(i)
    return [dets[i] for i in kept]


def _warm_components(raw: np.ndarray, cut: int
                     ) -> tuple[list[tuple[int, int, int, int]], np.ndarray]:
    """4-connected components of `raw >= cut`, found from row runs.

    Returns (boxes, ids): the components' half-open boxes (y0, y1, x0,
    x1) in raster order of their first pixel, which NMS keeps among
    exact ties, and an image with ids[y, x] == k + 1 on component k and
    0 elsewhere. One component gives the warm mask, as True == 1.
    """
    # A cold column on either side of each row keeps runs from crossing
    # rows, so in the flattened frame warm runs and cold gaps alternate.
    # Edge i lies between padded positions i and i + 1, so a run from
    # column x0 to x1 (half open) of row y starts at y * stride + x0
    # and stops at y * stride + x1.
    stride = raw.shape[1] + 2
    padded = np.zeros((raw.shape[0], stride), dtype=bool)
    warm = padded[:, 1:-1]
    np.greater_equal(raw, cut, out=warm)
    flat = padded.ravel()
    edges = (flat[1:] != flat[:-1]).nonzero()[0]
    if edges.size == 0:
        return [], warm
    starts, stops = edges[0::2], edges[1::2]

    # Run j + 1 touches the runs of the row above that overlap its span
    # moved up one stride: indices lo[j] to hi[j], as starts and stops
    # both ascend. If every run after the first touches one, each joins
    # an earlier run, so all of them join run 0: one component. So do
    # they if every run before the last touches one in the row below:
    # run i does when some [lo[j], hi[j]) holds i, and hi[j] <= j + 1.
    lo = np.searchsorted(stops, starts[1:] - stride, side="right")
    hi = np.searchsorted(starts, stops[1:] - stride, side="left")
    if (hi > lo).all() or np.cumsum(np.bincount(lo, minlength=starts.size)
            - np.bincount(hi, minlength=starts.size))[:-1].all():
        y0, y1 = int(starts[0]) // stride, int(stops[-1]) // stride + 1
        x0, x1 = int((starts % stride).min()), int((stops % stride).max())
        return [(y0, y1, x0, x1)], warm

    # The same ranges as edges: run lower[e] touches run upper[e]. Each
    # round every run takes the least label at either end of its edges,
    # then its label's label. Labels only fall and stay in the component,
    # so once nothing changes each run holds its component's first run.
    runs, touches = np.arange(starts.size), hi - lo
    lower = np.repeat(runs[1:], touches)
    upper = np.arange(lower.size) - np.repeat(np.cumsum(touches) - hi, touches)
    label, hooked = None, runs
    while not np.array_equal(label, hooked):
        label, hooked = hooked, hooked.copy()
        np.minimum.at(hooked, lower, label[upper])
        np.minimum.at(hooked, upper, label[lower])
        hooked = hooked[hooked]

    # Sorting by label groups each component's runs, components by first
    # run; only min and max read a group, so its order is free. Each run's
    # pixels take k + 1.
    order = np.argsort(label)
    bounds = np.searchsorted(label[order], (label == runs).nonzero()[0])
    rows, x0 = np.divmod(starts[order], stride)
    x1 = stops[order] - rows * stride
    ids = np.zeros(padded.shape, dtype=np.intp)
    ids[padded] = np.repeat(np.cumsum(label == runs)[label], stops - starts)
    return list(zip(np.minimum.reduceat(rows, bounds).tolist(),
                    (np.maximum.reduceat(rows, bounds) + 1).tolist(),
                    np.minimum.reduceat(x0, bounds).tolist(),
                    np.maximum.reduceat(x1, bounds).tolist())), ids[:, 1:-1]


def detect_blobs(frame: ThermalFrame,
                 config: DetectorConfig = DEFAULT_CONFIG) -> list[Detection]:
    """Detect warm blobs in one frame.

    Returns detections in NMS's visit order, already thinned by NMS.
    Boxes are the tight pixel bounding boxes of the components,
    converted to normalized coordinates; zero-score components are
    dropped, area and aspect first; NMS runs only on two or more boxes.
    """
    frame_area = float(frame.width * frame.height)
    dets = []
    boxes, ids = _warm_components(frame.temps, config._raw_cut)
    for k, (y0, y1, x0, x1) in enumerate(boxes):
        # The float corners' area, as small int products are exact. The
        # config's values are finite, so a zero here zeroes the product.
        area_frac = (x1 - x0) * (y1 - y0) / frame_area
        aspect = (y1 - y0) / (x1 - x0)
        if not (_trapezoid(area_frac, config.area_knots)
                and _trapezoid(aspect, config.aspect_knots)):
            continue
        # ndarray.mean's sum and division over the same float64 sequence
        # as the Celsius frame masked to the component, so it keeps its bits.
        temps = celsius_from_raw(
            frame.temps[y0:y1, x0:x1][ids[y0:y1, x0:x1] == k + 1])
        pixel_box = PixelBox(float(x0), float(y0), float(x1), float(y1))
        conf = score_blob(float(np.add.reduce(temps)) / temps.size,
                          area_frac, aspect, config)
        if conf <= 0.0:
            continue
        dets.append(Detection(0, from_pixel_box(pixel_box, frame.width,
                                                frame.height), conf))
    return (nms(dets, config.nms_iou, frame.width, frame.height)
            if len(dets) >= 2 else dets)


def detect_manifest(records: list[ManifestRecord], manifest_path: str,
                    config: DetectorConfig = DEFAULT_CONFIG
                    ) -> list[list[Detection]]:
    """Run the detector over every manifest frame, in manifest order."""
    return [detect_blobs(read_frame(resolve(manifest_path, rec.frame)), config)
            for rec in records]
