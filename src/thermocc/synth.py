"""Synthetic thermal scenes with exact ground truth.

An occupant's head is modeled as a warm ellipse over a uniform
background: a flat core at the peak temperature out to 90% of the
radius, then a linear falloff to 60% of the peak-over-background delta
at the rim. Because the rim never drops below half the delta, the
ground-truth box (the tight bounding box of visible in-ellipse pixels,
computed before noise) is exactly the tight box of pixels warmer than
background + delta/2.

Side and downward poses shrink one radius, occlusion cuts a chosen
fraction of the ellipse area from the bottom (a hand or a held object
in front of the lower face), and every frame draws from its own
seeded generator so datasets reproduce byte-for-byte.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .annot import GroundTruthBox, NormalizedBox, serialize_labels
from .errors import SceneSpecError
from .frame import (NATIVE_HEIGHT, NATIVE_WIDTH, ThermalFrame,
                    raw_from_celsius, write_frame)
from .manifest import ManifestRecord, write_manifest
from .util import fork_map, make_dirs, round_half_away, write_text

_ORIENT_SCALE = {"frontal": (1.0, 1.0), "side": (0.55, 1.0),
                 "down": (1.0, 0.55)}

# Radial profile: flat at the peak out to HEAD_CORE of the radius,
# linear down to HEAD_EDGE of the delta at the rim. HEAD_EDGE > 0.5
# keeps every in-ellipse pixel above background + delta/2.
HEAD_CORE = 0.9
HEAD_EDGE = 0.6

DEFAULT_OCCUPIED_FRACTION = 3.75 / 4.75
BACKGROUND_DRIFT = 0.3  # C either way, from DatasetSpec.background_temp
HEAD_PEAK = 34.0  # C, every head's peak


class _Head(NamedTuple):
    """One head's geometry: center and radii in unit coordinates."""

    cx: float
    cy: float
    rx: float
    ry: float
    orientation: str = "frontal"
    occlusion: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """A pose/occlusion combination and its sampling weight."""

    orientation: str = "frontal"
    occlusion: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        if self.orientation not in _ORIENT_SCALE:
            raise SceneSpecError(f"unknown orientation {self.orientation!r}")
        if not (0.0 <= self.occlusion <= 0.9):
            raise SceneSpecError("occlusion fraction must lie in [0, 0.9]")
        if not (self.weight > 0):
            raise SceneSpecError("scenario weight must be positive")


FRONTAL_SCENARIOS = (Scenario("frontal", 0.0, 1.0),)

# Mixed poses: clear frontal views plus the hard cases a ceiling
# camera actually sees (profiles, bowed heads, hands and held objects
# in front of the face).
MIXED_SCENARIOS = (
    Scenario("frontal", 0.0, 0.40),
    Scenario("side", 0.0, 0.25),
    Scenario("down", 0.0, 0.10),
    Scenario("frontal", 0.5, 0.15),
    Scenario("frontal", 0.7, 0.10),
)


@dataclass(frozen=True)
class DatasetSpec:
    frames: int
    occupied_fraction: float = DEFAULT_OCCUPIED_FRACTION
    scenarios: tuple[Scenario, ...] = MIXED_SCENARIOS
    seed: int = 0
    background_temp: float = 22.0
    noise_sigma: float = 0.3
    start_ts: int = 0
    period: int = 10

    def __post_init__(self):
        if self.frames < 1:
            raise SceneSpecError("need at least one frame")
        if not (0.0 <= self.occupied_fraction <= 1.0):
            raise SceneSpecError("occupied fraction must lie in [0, 1]")
        if not self.scenarios:
            raise SceneSpecError("need at least one scenario")
        if self.seed < 0:
            raise SceneSpecError("seed must be non-negative")
        if not math.isfinite(self.background_temp):
            raise SceneSpecError("background temperature must be finite")
        if not (0.0 <= self.noise_sigma < math.inf):
            raise SceneSpecError("noise sigma must be finite and non-negative")
        if not (self.background_temp + BACKGROUND_DRIFT < HEAD_PEAK
                and self.background_temp - BACKGROUND_DRIFT >= -273.15):
            raise SceneSpecError(
                f"background {self.background_temp} C must stay in [-273.15, "
                f"{HEAD_PEAK}) C as it drifts {BACKGROUND_DRIFT} C either way")
        if self.period < 1:
            raise SceneSpecError("frame period must be at least 1 s")

    def ts(self, index: int) -> int:
        return self.start_ts + index * self.period


def occupied_count(frames: int, fraction: float) -> int:
    """Occupied frames for a dataset: rounded, halves away from zero."""
    return round_half_away(frames * fraction)


@functools.lru_cache(maxsize=64)
def _occlusion_cut(fraction: float) -> float:
    """Chord level c such that the disk area below c equals fraction.

    Area below a chord at height c (c in [-1, 1], axis pointing down)
    is (acos(c) - c*sqrt(1 - c^2)) / pi; solved by bisection, which is
    exact enough (1e-12) and has no seed or library dependence.
    """
    def below(c: float) -> float:
        return (math.acos(c) - c * math.sqrt(1.0 - c * c)) / math.pi

    lo, hi = -1.0, 1.0  # below(lo) = 1, below(hi) = 0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if below(mid) > fraction:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _pixel_span(center: float, radius: float, size: int) -> tuple[int, int]:
    """Pixels [lo, hi) whose centers lie within radius of center, plus one
    more each way against rounding, clipped to the frame."""
    lo = math.floor((center - radius) * size - 0.5) - 1
    hi = math.ceil((center + radius) * size - 0.5) + 2
    return max(lo, 0), min(hi, size)


def _render(background: float, noise_sigma: float, head: _Head | None,
            rng: np.random.Generator, width: int, height: int, ts: int
            ) -> tuple[ThermalFrame, list[GroundTruthBox]]:
    """Rasterize a background and at most one head peaking at HEAD_PEAK;
    ground truth comes from the noiseless mask. DatasetSpec keeps every
    drawn background below the peak, so nothing here checks it.

    The ellipse is evaluated only over the pixel box that can hold it,
    with the same per-pixel arithmetic as over the whole frame, so the
    output does not depend on the box.
    """
    temps = np.full((height, width), background, dtype=np.float64)
    gts: list[GroundTruthBox] = []
    if head is not None:
        sx, sy = _ORIENT_SCALE[head.orientation]
        rx, ry = head.rx * sx, head.ry * sy
        c0, c1 = _pixel_span(head.cx, rx, width)
        r0, r1 = _pixel_span(head.cy, ry, height)
        u = (np.arange(c0, c1) + 0.5) / width
        v = (np.arange(r0, r1) + 0.5) / height
        du = (u[None, :] - head.cx) / rx
        dv = (v[:, None] - head.cy) / ry
        dist = np.sqrt(du * du + dv * dv)
        inside = dist <= 1.0
        if head.occlusion > 0.0:
            inside &= dv <= _occlusion_cut(head.occlusion)
        if inside.any():
            delta = HEAD_PEAK - background
            profile = np.where(
                dist <= HEAD_CORE, 1.0,
                1.0 - (1.0 - HEAD_EDGE) * (dist - HEAD_CORE) / (1.0 - HEAD_CORE))
            np.copyto(temps[r0:r1, c0:c1],
                      background + delta * profile, where=inside)
            rows = np.nonzero(inside.any(axis=1))[0] + r0
            cols = np.nonzero(inside.any(axis=0))[0] + c0
            x0, x1 = cols[0] / width, (cols[-1] + 1) / width
            y0, y1 = rows[0] / height, (rows[-1] + 1) / height
            gts.append(GroundTruthBox(0, NormalizedBox(
                (x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0)))
    if noise_sigma > 0.0:
        temps = temps + rng.normal(0.0, noise_sigma, temps.shape)
    return ThermalFrame(width, height, raw_from_celsius(temps), ts), gts


def plan_dataset(spec: DatasetSpec) -> list[int | None]:
    """Lay out occupancy runs and pick a scenario for each occupied run;
    returns each frame's index into spec.scenarios, None for a vacant one.

    Frames alternate between occupied stretches of 30..120 frames and
    vacant stretches of 20..100 frames (a person settling in, then the
    room standing empty), starting with whichever kind the quota needs
    more of. One scenario is drawn per occupied run: a person holds a
    pose for a while rather than re-rolling it every 10 seconds.
    """
    total_occ = occupied_count(spec.frames, spec.occupied_fraction)
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed,)))
    weights = np.array([s.weight for s in spec.scenarios], dtype=np.float64)
    weights /= weights.sum()
    plan: list[int | None] = []
    occ_left, vac_left = total_occ, spec.frames - total_occ
    occupied_turn = occ_left >= vac_left
    while occ_left > 0 or vac_left > 0:
        if occupied_turn and occ_left > 0:
            run = min(occ_left, int(rng.integers(30, 121)))
            occ_left -= run
            plan += [int(rng.choice(len(spec.scenarios), p=weights))] * run
        elif not occupied_turn and vac_left > 0:
            run = min(vac_left, int(rng.integers(20, 101)))
            vac_left -= run
            plan += [None] * run
        occupied_turn = not occupied_turn
    return plan


def render_frame(spec: DatasetSpec, index: int, scenario: int | None
                 ) -> tuple[ThermalFrame, list[GroundTruthBox]]:
    """Render one planned frame from its own (seed, index) stream.

    Draw order is fixed: background drift, then head geometry for
    occupied frames, then pixel noise; changing it would change every
    generated dataset.
    """
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
    bg = spec.background_temp + rng.uniform(-BACKGROUND_DRIFT, BACKGROUND_DRIFT)
    head = None
    if scenario is not None:
        pose = spec.scenarios[scenario]
        cx = rng.uniform(0.35, 0.65)
        cy = rng.uniform(0.30, 0.55)
        rx = rng.uniform(0.09, 0.13)
        ry = rx * rng.uniform(1.25, 1.55)
        head = _Head(cx, cy, rx, ry, pose.orientation, pose.occlusion)
    return _render(bg, spec.noise_sigma, head, rng, NATIVE_WIDTH,
                   NATIVE_HEIGHT, spec.ts(index))


def manifest_records(spec: DatasetSpec, frames) -> list[ManifestRecord]:
    """The manifest records of a plan's (index, scenario) pairs; their
    paths, relative to the dataset directory, name every file."""
    return [ManifestRecord(frame=f"frames/frame_{i:06d}.pgm",
                           labels=f"labels/frame_{i:06d}.txt",
                           occupied=s is not None, ts=spec.ts(i))
            for i, s in frames]


def _write_planned_frame(spec: DatasetSpec, out_dir: str, then, planned):
    """Render and write one (index, scenario) pair; returns then(index,
    record, frame, label text), or None without then. The 24 KB frame
    itself is never sent back from a worker."""
    index, scenario = planned
    rec, = manifest_records(spec, [planned])
    frame, gts = render_frame(spec, index, scenario)
    labels = serialize_labels(gts)
    write_frame(os.path.join(out_dir, rec.frame), frame)
    write_text(os.path.join(out_dir, rec.labels), labels)
    return None if then is None else then(index, rec, frame, labels)


def write_dataset(spec: DatasetSpec, plans, records: list[ManifestRecord],
                  out_dir: str, workers: int, then=None) -> tuple[str, list]:
    """The dataset stage: write the plan's (index, scenario) pairs, whose
    records are given, into out_dir's frames/ and labels/ on up to workers
    processes, then its manifest.jsonl. Returns the manifest's path and,
    in plan order, what then returned for each pair in the process that
    wrote it (None without then; then must be a picklable module-level
    function or partial). Each frame draws from its own (seed, index)
    stream, so util.fork_map writes them in any order and process."""
    for sub in ("frames", "labels"):
        make_dirs(os.path.join(out_dir, sub))
    results = fork_map(functools.partial(_write_planned_frame, spec, out_dir,
                                         then), plans, workers)
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    write_manifest(manifest_path, records)
    return manifest_path, results


def generate_dataset(spec: DatasetSpec, out_dir: str) -> str:
    """Write spec's frames/, labels/ and manifest.jsonl, one worker per
    usable CPU; returns the manifest's path."""
    plans = list(enumerate(plan_dataset(spec)))
    return write_dataset(spec, plans, manifest_records(spec, plans), out_dir,
                         len(plans))[0]
