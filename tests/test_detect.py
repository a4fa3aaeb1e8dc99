import numpy as np
import pytest

from thermocc.annot import Detection, NormalizedBox, to_pixel_box
from thermocc.detect import (DEFAULT_CONFIG, DetectorConfig, detect_blobs,
                             detect_manifest, nms, score_blob)
from thermocc.errors import ConfigError
from thermocc.frame import ThermalFrame, decode_frame, encode_frame, \
    raw_from_celsius, read_frame
from thermocc.manifest import (ManifestRecord, prediction_filenames,
                               read_manifest, resolve)
from thermocc.synth import DatasetSpec, FRONTAL_SCENARIOS, generate_dataset


def frame_from_celsius(temps, ts=0):
    temps = np.asarray(temps, dtype=np.float64)
    h, w = temps.shape
    return ThermalFrame(w, h, raw_from_celsius(temps), ts)


def uniform_frame(celsius, width=128, height=96):
    return frame_from_celsius(np.full((height, width), celsius))


# a config that accepts every component regardless of shape, used when a
# test targets the labeling rather than the scoring
OPEN_CONFIG = DetectorConfig(warm_threshold=30.0, t_warm=20.0, t_face=21.0,
                             area_knots=(1e-9, 2e-9, 0.999, 1.0),
                             aspect_knots=(1e-4, 2e-4, 500.0, 600.0),
                             nms_iou=1.0)


def test_default_config_values():
    cfg = DEFAULT_CONFIG
    assert cfg.warm_threshold == 30.0
    assert cfg.t_warm == 28.0
    assert cfg.t_face == 34.0
    assert cfg.area_knots == (0.005, 0.02, 0.25, 0.60)
    assert cfg.aspect_knots == (0.6, 0.8, 1.6, 2.2)
    assert cfg.nms_iou == 0.5


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(t_warm=35.0, t_face=34.0)
    with pytest.raises(ConfigError):
        DetectorConfig(area_knots=(0.02, 0.005, 0.25, 0.6))
    with pytest.raises(ConfigError):
        DetectorConfig(nms_iou=1.5)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError):
            DetectorConfig(warm_threshold=bad)


def test_score_blob_saturated():
    assert score_blob(34.0, 0.10, 1.0) == 1.0
    assert score_blob(40.0, 0.10, 1.0) == 1.0  # ramp clamps at 1


def test_score_blob_half_temperature():
    assert score_blob(31.0, 0.10, 1.0) == 0.5


def test_score_blob_cold_is_zero():
    assert score_blob(28.0, 0.10, 1.0) == 0.0
    assert score_blob(25.0, 0.10, 1.0) == 0.0


def test_score_blob_area_edges():
    assert score_blob(34.0, 0.004, 1.0) == 0.0
    assert score_blob(34.0, 0.0125, 1.0) == pytest.approx(0.5)  # mid-ramp
    assert score_blob(34.0, 0.60, 1.0) == 0.0
    assert score_blob(34.0, 0.425, 1.0) == pytest.approx(0.5)


def test_score_blob_aspect_edges():
    assert score_blob(34.0, 0.10, 0.6) == 0.0
    assert score_blob(34.0, 0.10, 0.7) == pytest.approx(0.5)
    assert score_blob(34.0, 0.10, 1.9) == pytest.approx(0.5)
    assert score_blob(34.0, 0.10, 2.2) == 0.0


def test_score_blob_monotone_in_temperature():
    scores = [score_blob(t, 0.10, 1.0) for t in np.linspace(26, 36, 41)]
    assert all(b >= a for a, b in zip(scores, scores[1:]))


def test_detect_uniform_cold_frame():
    assert detect_blobs(uniform_frame(22.0)) == []


def test_detect_single_rectangle():
    temps = np.full((96, 128), 22.0)
    temps[36:60, 54:74] = 34.0  # 20 wide, 24 tall
    dets = detect_blobs(frame_from_celsius(temps))
    assert len(dets) == 1
    det = dets[0]
    assert det.confidence == 1.0
    box = to_pixel_box(det.box, 128, 96)
    assert (box.x0, box.y0, box.x1, box.y1) == (54.0, 36.0, 74.0, 60.0)


def test_detect_two_rectangles_descending_confidence():
    temps = np.full((96, 128), 22.0)
    temps[10:34, 10:30] = 34.0   # saturated: confidence 1.0
    temps[60:84, 90:110] = 31.0  # half ramp: confidence 0.5
    dets = detect_blobs(frame_from_celsius(temps))
    assert len(dets) == 2
    assert dets[0].confidence == 1.0
    assert dets[1].confidence == 0.5
    assert dets[0].confidence > dets[1].confidence


def test_detect_subthreshold_blob_ignored():
    temps = np.full((96, 128), 22.0)
    temps[36:60, 54:74] = 29.5  # warm but below the 30 degree contour
    assert detect_blobs(frame_from_celsius(temps)) == []


def test_component_boxes_match_bfs_oracle():
    """Component bounding boxes must equal a brute-force 4-connected
    flood fill, including diagonal-only neighbours staying separate."""
    rng = np.random.default_rng(77)
    for _ in range(60):
        h = int(rng.integers(4, 25))
        w = int(rng.integers(4, 25))
        mask = rng.random((h, w)) < 0.35
        temps = np.where(mask, 34.0, 22.0)
        dets = detect_blobs(frame_from_celsius(temps), OPEN_CONFIG)
        got = {tuple(np.round([b.x0, b.y0, b.x1, b.y1], 9))
               for b in (to_pixel_box(d.box, w, h) for d in dets)}
        want = {(float(c0), float(r0), float(c1), float(r1))
                for c0, r0, c1, r1 in bfs_boxes(mask)}
        assert got == want


def bfs_boxes(mask):
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    boxes = []
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            stack = [(r, c)]
            seen[r, c] = True
            rmin = rmax = r
            cmin = cmax = c
            while stack:
                y, x = stack.pop()
                rmin, rmax = min(rmin, y), max(rmax, y)
                cmin, cmax = min(cmin, x), max(cmax, x)
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] \
                            and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
            boxes.append((cmin, rmin, cmax + 1, rmax + 1))
    return boxes


def test_diagonal_blobs_stay_separate():
    temps = np.full((8, 8), 22.0)
    temps[2, 2] = 34.0
    temps[3, 3] = 34.0  # touches only at the corner
    dets = detect_blobs(frame_from_celsius(temps), OPEN_CONFIG)
    assert len(dets) == 2


def test_nms_keeps_single():
    d = Detection(0, NormalizedBox(0.5, 0.5, 0.2, 0.2), 0.9)
    assert nms([d], 0.5, 128, 96) == [d]


def test_nms_drops_duplicate():
    box = NormalizedBox(0.5, 0.5, 0.2, 0.2)
    hi = Detection(0, box, 0.9)
    lo = Detection(0, box, 0.8)
    assert nms([lo, hi], 0.5, 128, 96) == [hi]


def test_nms_keeps_disjoint():
    a = Detection(0, NormalizedBox(0.25, 0.25, 0.2, 0.2), 0.9)
    b = Detection(0, NormalizedBox(0.75, 0.75, 0.2, 0.2), 0.7)
    assert nms([b, a], 0.5, 128, 96) == [a, b]


def test_nms_idempotent_and_subset():
    rng = np.random.default_rng(13)
    for _ in range(200):
        dets = []
        for _ in range(int(rng.integers(0, 8))):
            w = float(rng.uniform(0.05, 0.5))
            h = float(rng.uniform(0.05, 0.5))
            dets.append(Detection(0, NormalizedBox(
                float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), w, h),
                float(rng.uniform(0, 1))))
        kept = nms(dets, 0.5, 128, 96)
        assert all(d in dets for d in kept)
        assert nms(kept, 0.5, 128, 96) == kept
        confs = [d.confidence for d in kept]
        assert confs == sorted(confs, reverse=True)


def test_detect_deterministic_across_codec():
    temps = np.full((96, 128), 22.0)
    temps[30:60, 40:70] = 33.0
    frame = frame_from_celsius(temps)
    direct = detect_blobs(frame)
    via_codec = detect_blobs(decode_frame(encode_frame(frame)))
    assert direct == via_codec
    assert detect_blobs(frame) == direct


def test_detect_manifest_is_per_frame_detection_in_order(tmp_path):
    spec = DatasetSpec(frames=24, scenarios=FRONTAL_SCENARIOS, seed=5)
    manifest_path = generate_dataset(spec, str(tmp_path))
    records = read_manifest(manifest_path)[::-1]  # not in ts or file order
    expected = [detect_blobs(read_frame(resolve(manifest_path, rec.frame)))
                for rec in records]
    assert detect_manifest(records, manifest_path) == expected
    assert len(expected) == 24 and any(expected)


def test_prediction_filename():
    def rec(frame):
        return ManifestRecord(frame, None, False, 0)

    assert prediction_filenames([rec("frames/frame_000001.pgm"),
                                 rec("a/b/c.PGM")]) == \
        ["frame_000001.txt", "c.txt"]
    with pytest.raises(ConfigError):
        prediction_filenames([rec("a/x.pgm"), rec("b/x.pgm")])
