import math
import multiprocessing.context
import os
import threading

import numpy as np
import pytest

from thermocc.annot import Detection, GroundTruthBox, NormalizedBox
from thermocc import synth
from thermocc.cli import main
from thermocc.errors import SceneSpecError
from thermocc.frame import (NATIVE_HEIGHT, NATIVE_WIDTH, celsius_from_raw,
                            encode_frame, raw_from_celsius)
from thermocc.manifest import read_manifest, resolve
from thermocc.synth import (DEFAULT_OCCUPIED_FRACTION, FRONTAL_SCENARIOS,
                            HEAD_PEAK, MIXED_SCENARIOS, DatasetSpec, Scenario,
                            _Head, _occlusion_cut, generate_dataset,
                            occupied_count, manifest_records, plan_dataset,
                            render_frame, write_dataset)

from oracle import OracleScaleError, oracle_match
from run_tree import tree_files

ORIENTATIONS = tuple(synth._ORIENT_SCALE)
HEAD = _Head(cx=0.5, cy=0.45, rx=0.11, ry=0.15)


def _scene(head=None, background=22.0, noise_sigma=0.0, seed=0):
    """One native-size frame at ts 0 from synth's one rasterizer."""
    return synth._render(background, noise_sigma, head,
                         np.random.default_rng(seed), NATIVE_WIDTH,
                         NATIVE_HEIGHT, 0)


def test_scene_and_dataset_validation():
    with pytest.raises(SceneSpecError):
        Scenario(weight=0.0)
    with pytest.raises(SceneSpecError, match="unknown orientation"):
        Scenario(orientation="upside")
    with pytest.raises(SceneSpecError, match="occlusion"):
        Scenario(occlusion=0.95)
    with pytest.raises(SceneSpecError, match="occlusion"):
        Scenario(occlusion=float("nan"))
    with pytest.raises(SceneSpecError, match="noise sigma"):
        DatasetSpec(frames=10, noise_sigma=-0.1)
    with pytest.raises(SceneSpecError):
        DatasetSpec(frames=10, background_temp=36.0)  # above the head peak
    with pytest.raises(SceneSpecError):
        DatasetSpec(frames=0)
    with pytest.raises(SceneSpecError):
        DatasetSpec(frames=10, occupied_fraction=1.5)
    with pytest.raises(SceneSpecError):
        DatasetSpec(frames=10, seed=-1)
    with pytest.raises(SceneSpecError, match="need at least one scenario"):
        DatasetSpec(frames=10, scenarios=())
    with pytest.raises(SceneSpecError, match="frame period must be at least"):
        DatasetSpec(frames=10, period=0)
    nan, inf = float("nan"), float("inf")
    for bad in ({"background_temp": nan}, {"background_temp": inf},
                {"background_temp": -inf}, {"noise_sigma": nan},
                {"noise_sigma": inf}):
        with pytest.raises(SceneSpecError):
            DatasetSpec(frames=10, **bad)


def test_dataset_background_leaves_room_for_its_drift(tmp_path, capsys):
    """Each frame's background drifts up to 0.3 C from the spec's, under a
    34.0 C head: a spec whose drift could reach the head, or go below
    absolute zero, is refused before synth writes a frame, whatever the
    seed draws."""
    for bad in (33.7, -300.0):
        with pytest.raises(SceneSpecError,
                           match=r"must stay in \[-273.15, 34.0\) C"):
            DatasetSpec(frames=10, background_temp=bad)
        out = tmp_path / f"ds{bad}"
        assert main(["synth", "--frames", "400", "--background", str(bad),
                     "--out", str(out)]) == 1
        assert f"background {bad} C" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
    DatasetSpec(frames=10, background_temp=33.69)
    out = tmp_path / "ds"
    assert main(["synth", "--frames", "20", "--background", "33.69",
                 "--out", str(out)]) == 0
    assert len(read_manifest(str(out / "manifest.jsonl"))) == 20


def test_warmest_background_still_shows_every_head():
    """The warmest background DatasetSpec takes drifts to under 33.99 C,
    below the 34.0 C head, so no frame needs a check of its own: each
    occupied frame holds one head at the peak's count, above its
    background's, and each vacant frame is flat with no ground truth."""
    spec = DatasetSpec(frames=400, background_temp=33.69, noise_sigma=0.0,
                       seed=0)
    peak = raw_from_celsius(HEAD_PEAK)
    plan = plan_dataset(spec)
    assert None in plan and set(plan) != {None}
    for index, scenario in enumerate(plan):
        frame, gts = render_frame(spec, index, scenario)
        background = frame.temps.min()
        if scenario is None:
            assert gts == [] and frame.temps.max() == background
        else:
            assert len(gts) == 1
            assert frame.temps.max() == peak > background


def test_empty_scene_is_noise_around_background():
    frame, gts = _scene(noise_sigma=0.3, seed=1)
    assert gts == []
    temps = celsius_from_raw(frame.temps)
    assert abs(temps.mean() - 22.0) < 0.05
    assert np.max(np.abs(temps - 22.0)) < 2.0


def test_noiseless_head_peaks_at_requested_temperature():
    frame, gts = _scene(HEAD)
    temps = celsius_from_raw(frame.temps)
    assert temps.max() == 34.0
    assert len(gts) == 1


def warm_tight_box(temps, width, height):
    """Independent ground-truth oracle: tight box of pixels warmer than
    background plus half the peak delta (noiseless frames only)."""
    values, counts = np.unique(temps, return_counts=True)
    background = values[np.argmax(counts)]
    delta = temps.max() - background
    warm = temps > background + delta / 2
    rows = np.nonzero(warm.any(axis=1))[0]
    cols = np.nonzero(warm.any(axis=0))[0]
    return NormalizedBox(
        (cols[0] / width + (cols[-1] + 1) / width) / 2,
        (rows[0] / height + (rows[-1] + 1) / height) / 2,
        (cols[-1] + 1 - cols[0]) / width,
        (rows[-1] + 1 - rows[0]) / height)


def test_ground_truth_is_tight_warm_box():
    rng = np.random.default_rng(21)
    for _ in range(40):
        head = _Head(cx=float(rng.uniform(0.3, 0.7)),
                     cy=float(rng.uniform(0.3, 0.6)),
                     rx=float(rng.uniform(0.08, 0.14)),
                     ry=float(rng.uniform(0.1, 0.18)),
                     orientation=str(rng.choice(["frontal", "side", "down"])),
                     occlusion=float(rng.choice([0.0, 0.0, 0.3, 0.5])))
        frame, gts = _scene(head)
        assert len(gts) == 1
        want = warm_tight_box(celsius_from_raw(frame.temps), frame.width,
                              frame.height)
        got = gts[0].box
        for name in ("cx", "cy", "w", "h"):
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), abs=1e-12)


def test_occlusion_removes_expected_area():
    full_frame, full_gts = _scene(HEAD)
    full_warm = int((celsius_from_raw(full_frame.temps) > 23.0).sum())
    full_box = full_gts[0].box
    for q in (0.3, 0.5, 0.7):
        frame, gts = _scene(HEAD._replace(occlusion=q))
        warm = int((celsius_from_raw(frame.temps) > 23.0).sum())
        box = gts[0].box
        assert warm / full_warm == pytest.approx(1 - q, abs=0.04)
        # the cut comes from below: same top edge, shorter box, and the
        # width can only shrink (it does once the cut passes the equator)
        assert box.cy - box.h / 2 == pytest.approx(
            full_box.cy - full_box.h / 2, abs=1e-12)
        assert box.h < full_box.h
        assert box.w <= full_box.w
    _, barely_gts = _scene(HEAD._replace(occlusion=0.3))
    assert barely_gts[0].box.w == full_box.w  # equator row survives


def test_side_view_is_narrower():
    _, f_gts = _scene(HEAD)
    _, s_gts = _scene(HEAD._replace(orientation="side"))
    assert s_gts[0].box.w < f_gts[0].box.w
    assert s_gts[0].box.h == f_gts[0].box.h


def test_down_view_is_flatter():
    _, f_gts = _scene(HEAD)
    _, d_gts = _scene(HEAD._replace(orientation="down"))
    assert d_gts[0].box.h < f_gts[0].box.h
    assert d_gts[0].box.w == f_gts[0].box.w


def test_scene_determinism():
    a_frame, a_gts = _scene(HEAD, noise_sigma=0.3, seed=9)
    b_frame, b_gts = _scene(HEAD, noise_sigma=0.3, seed=9)
    assert encode_frame(a_frame) == encode_frame(b_frame)
    assert a_gts == b_gts
    c_frame, _ = _scene(HEAD, noise_sigma=0.3, seed=10)
    assert encode_frame(c_frame) != encode_frame(a_frame)


def test_occupied_count_rounding():
    assert occupied_count(4836, DEFAULT_OCCUPIED_FRACTION) == 3818
    assert occupied_count(100, DEFAULT_OCCUPIED_FRACTION) == 79
    assert occupied_count(1000, DEFAULT_OCCUPIED_FRACTION) == 789
    assert occupied_count(10, 0.25) == 3  # 2.5 rounds away from zero


def test_plan_counts_and_runs():
    spec = DatasetSpec(frames=500, seed=3)
    plan = plan_dataset(spec)
    assert len(plan) == 500
    assert sum(s is not None for s in plan) == occupied_count(
        500, DEFAULT_OCCUPIED_FRACTION)
    records = manifest_records(spec, enumerate(plan))
    assert [r.ts for r in records] == [k * 10 for k in range(500)]
    assert [r.occupied for r in records] == [s is not None for s in plan]
    for scenario in plan:
        if scenario is not None:
            assert type(scenario) is int
            assert 0 <= scenario < len(spec.scenarios)
    # scenarios are drawn once per run, so they form long plateaus:
    # adjacent occupied frames change scenario only at run boundaries,
    # of which 500 frames can hold at most a handful (runs are 30..120
    # frames). Per-frame draws would flip on most adjacent pairs.
    changes = sum(1 for prev, cur in zip(plan, plan[1:])
                  if prev is not None and cur is not None and prev != cur)
    assert changes <= 500 // 30


def test_plan_run_lengths_are_bounded():
    occupied = [s is not None for s in plan_dataset(
        DatasetSpec(frames=2000, seed=8))]
    runs = []
    length = 1
    for prev, cur in zip(occupied, occupied[1:]):
        if cur == prev:
            length += 1
        else:
            runs.append((prev, length))
            length = 1
    runs.append((occupied[-1], length))
    # every interior run respects the planner's bounds; the last run of
    # each kind may be truncated by the quota
    occ_runs = [n for occ, n in runs[:-1] if occ]
    vac_runs = [n for occ, n in runs[:-1] if not occ]
    assert occ_runs and vac_runs
    assert all(n <= 120 for n in occ_runs)
    assert all(n <= 100 for n in vac_runs)


def test_render_frame_deterministic():
    spec = DatasetSpec(frames=50, seed=12)
    plan = plan_dataset(spec)
    a = render_frame(spec, 7, plan[7])
    b = render_frame(spec, 7, plan[7])
    assert encode_frame(a[0]) == encode_frame(b[0])
    assert a[1] == b[1]


def test_generate_dataset_layout(tmp_path):
    spec = DatasetSpec(frames=40, seed=2)
    manifest_path = generate_dataset(spec, str(tmp_path / "data"))
    records = read_manifest(manifest_path)
    assert len(records) == 40
    assert sum(r.occupied for r in records) == occupied_count(
        40, DEFAULT_OCCUPIED_FRACTION)
    for rec in records:
        assert os.path.exists(resolve(manifest_path, rec.frame))
        assert rec.labels is not None
        label_text = open(resolve(manifest_path, rec.labels)).read()
        if rec.occupied:
            assert label_text.strip(), "occupied frame must have a box"
        else:
            assert label_text == "", "empty frame must have a blank file"


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _fork_starts(monkeypatch):
    """Record the thread count at each forked worker's start."""
    seen = []
    start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        seen.append(threading.active_count())
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        counting_start)
    return seen


def test_generate_dataset_reproducible(tmp_path, monkeypatch):
    """The same bytes from one process and from two forked workers, and
    the same as a pipeline run's dataset/."""
    spec = DatasetSpec(frames=31, seed=4)
    starts = _fork_starts(monkeypatch)
    trees = []
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        manifest = generate_dataset(spec, str(tmp_path / f"cpus{cpus}"))
        trees.append(dict(tree_files(os.path.dirname(manifest))))
    assert len(starts) == 2  # one CPU maps here; two fork two workers
    assert main(["pipeline", "--frames", "31", "--seed", "4",
                 "--out", str(tmp_path / "run")]) == 0
    trees.append(dict(tree_files(str(tmp_path / "run" / "dataset"))))
    assert len(trees[0]) == 2 * 31 + 1
    assert trees[1] == trees[0]
    assert trees[2] == trees[0]


def test_generate_dataset_forks_on_every_call(tmp_path, monkeypatch):
    """Each call joins its pool, manager thread included, so the next call
    forks too instead of mapping in one process."""
    _usable_cpus(monkeypatch, 2)
    starts = _fork_starts(monkeypatch)
    baseline = threading.active_count()
    for run in range(2):
        generate_dataset(DatasetSpec(frames=6, seed=1),
                         str(tmp_path / f"run{run}"))
        assert threading.active_count() == baseline
    assert starts == [baseline] * 4


def _index_and_pid(index, rec, frame, labels):
    return index, os.getpid()


@pytest.mark.parametrize("cpus", [1, 2])
def test_write_dataset_returns_follow_ups_in_plan_order(tmp_path, monkeypatch,
                                                        cpus):
    """The stage returns its follow-up's result for each pair in plan
    order, from the process that wrote the frame: forked workers at 2
    usable CPUs, this process at 1. Without a follow-up it returns None
    per pair and writes the same bytes."""
    _usable_cpus(monkeypatch, cpus)
    spec = DatasetSpec(frames=9, seed=3)
    plans = list(enumerate(plan_dataset(spec)))
    records = manifest_records(spec, plans)
    manifest, results = write_dataset(spec, plans, records, str(tmp_path / "a"),
                                      len(plans), _index_and_pid)
    assert manifest == str(tmp_path / "a" / "manifest.jsonl")
    assert read_manifest(manifest) == records
    assert [index for index, _ in results] == list(range(9))
    pids = {pid for _, pid in results}
    if cpus == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids
    _, results = write_dataset(spec, plans, records, str(tmp_path / "b"),
                               len(plans))
    assert results == [None] * 9
    assert (dict(tree_files(str(tmp_path / "b")))
            == dict(tree_files(str(tmp_path / "a"))))


def test_scenario_presets():
    assert sum(s.weight for s in MIXED_SCENARIOS) == pytest.approx(1.0)
    assert len(FRONTAL_SCENARIOS) == 1
    assert FRONTAL_SCENARIOS[0].orientation == "frontal"
    assert FRONTAL_SCENARIOS[0].occlusion == 0.0
    hard = [s for s in MIXED_SCENARIOS
            if s.orientation != "frontal" or s.occlusion > 0]
    assert hard, "the mixed preset must contain difficult poses"


def test_oracle_match_limits():
    box = NormalizedBox(0.5, 0.5, 0.2, 0.2)
    preds = [Detection(0, box, 0.5)] * 9
    with pytest.raises(OracleScaleError):
        oracle_match(preds, [])
    gts = [GroundTruthBox(0, box)] * 6
    with pytest.raises(OracleScaleError):
        oracle_match([], gts)


def test_oracle_match_simple_cases():
    box = NormalizedBox(0.5, 0.5, 0.2, 0.2)
    far = NormalizedBox(0.1, 0.1, 0.1, 0.1)
    result = oracle_match([Detection(0, box, 0.9)], [GroundTruthBox(0, box)])
    assert (result.tp, result.fp, result.fn) == (1, 0, 0)
    result = oracle_match([Detection(0, far, 0.9)], [GroundTruthBox(0, box)])
    assert (result.tp, result.fp, result.fn) == (0, 1, 1)
    result = oracle_match([], [])
    assert (result.tp, result.fp, result.fn) == (0, 0, 0)


def test_occlusion_cut_matches_pixel_area():
    """The rendered cut removes the requested share of ellipse pixels."""
    big = _Head(cx=0.5, cy=0.5, rx=0.3, ry=0.35)
    full, _ = _scene(big)
    n_full = int((celsius_from_raw(full.temps) > 23.0).sum())
    for q in (0.1, 0.25, 0.4, 0.6, 0.8):
        frame, _ = _scene(big._replace(occlusion=q))
        visible = int((celsius_from_raw(frame.temps) > 23.0).sum())
        assert visible / n_full == pytest.approx(1 - q, abs=0.02)


def _full_frame_render(background, noise_sigma, head, rng, width, height):
    """Reference rasterizer: evaluates the ellipse, peaking at 34.0 C, over
    every pixel of the frame. Returns the float temperatures and the
    ground truth."""
    temps = np.full((height, width), background, dtype=np.float64)
    gts = []
    sx, sy = {"frontal": (1.0, 1.0), "side": (0.55, 1.0),
              "down": (1.0, 0.55)}[head.orientation]
    rx, ry = head.rx * sx, head.ry * sy
    u = (np.arange(width) + 0.5) / width
    v = (np.arange(height) + 0.5) / height
    du = (u[None, :] - head.cx) / rx
    dv = (v[:, None] - head.cy) / ry
    dist = np.sqrt(du * du + dv * dv)
    inside = dist <= 1.0
    if head.occlusion > 0.0:
        inside &= dv <= _occlusion_cut.__wrapped__(head.occlusion)
    if inside.any():
        delta = 34.0 - background
        profile = np.where(dist <= 0.9, 1.0,
                           1.0 - (1.0 - 0.6) * (dist - 0.9) / (1.0 - 0.9))
        temps = np.where(inside, background + delta * profile, temps)
        rows = np.nonzero(inside.any(axis=1))[0]
        cols = np.nonzero(inside.any(axis=0))[0]
        x0, x1 = cols[0] / width, (cols[-1] + 1) / width
        y0, y1 = rows[0] / height, (rows[-1] + 1) / height
        gts.append(GroundTruthBox(0, NormalizedBox(
            (x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0)))
    if noise_sigma > 0.0:
        temps = temps + rng.normal(0.0, noise_sigma, temps.shape)
    return temps, gts


def _render_heads(rng):
    """Typical heads plus heads centered on the frame's edges and
    corners, where the pixel box is clipped."""
    for _ in range(12):
        yield (float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.3, 0.6)),
               float(rng.uniform(0.08, 0.14)), float(rng.uniform(0.1, 0.2)))
    for cx in (0.0, 0.5, 1.0):
        for cy in (0.0, 0.5, 1.0):
            yield cx, cy, 0.5, 0.5
            yield cx, cy, 0.11, 0.16
    yield 0.5, 0.5, 0.001, 0.001  # covers no pixel center: no ground truth


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("occlusion", (0.0, 0.5, 0.7, 0.9))
def test_box_render_matches_full_frame_render(monkeypatch, orientation,
                                              occlusion):
    seen = []

    def capture(temps):
        seen.append(temps)
        return raw_from_celsius(temps)

    monkeypatch.setattr(synth, "raw_from_celsius", capture)
    rng = np.random.default_rng(
        (ORIENTATIONS.index(orientation), int(occlusion * 10)))
    for k, (cx, cy, rx, ry) in enumerate(_render_heads(rng)):
        scene = (21.5, 0.3, _Head(cx, cy, rx, ry, orientation, occlusion))
        for width, height in ((128, 96), (37, 23)):
            frame, gts = synth._render(*scene, np.random.default_rng(k),
                                       width, height, 0)
            want, want_gts = _full_frame_render(
                *scene, np.random.default_rng(k), width, height)
            assert seen.pop().tobytes() == want.tobytes()
            assert gts == want_gts
            assert np.array_equal(frame.temps, raw_from_celsius(want))
