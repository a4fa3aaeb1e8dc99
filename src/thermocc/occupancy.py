"""Occupancy timelines and a hysteresis HVAC control simulation.

A timeline is a strictly increasing series of (timestamp, occupied)
samples. Detected timelines come from thresholding per-frame
detections; actual timelines come from manifest flags. The control
simulator turns a detected timeline into an on/off schedule with an
on delay and an off hold, the usual guard against short vacancies
cycling the plant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .annot import Detection
from .errors import AlignmentError, ConfigError, SequenceError
from .manifest import ManifestRecord
from .metrics import DEFAULT_TAU, check_tau, precision_recall
from .util import write_text_atomic


@dataclass(frozen=True)
class OccupancyTimeline:
    entries: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           tuple((int(t), bool(f)) for t, f in self.entries))
        ts = [t for t, _ in self.entries]
        for a, b in zip(ts, ts[1:]):
            if b <= a:
                raise SequenceError(
                    f"timeline timestamps must strictly increase, "
                    f"got {a} then {b}")

    def timestamps(self) -> list[int]:
        return [t for t, _ in self.entries]

    def flags(self) -> list[bool]:
        return [f for _, f in self.entries]

    def __len__(self):
        return len(self.entries)


def frame_occupancy(dets: list[Detection], tau: float = DEFAULT_TAU) -> bool:
    """A frame counts as occupied when any detection reaches tau."""
    check_tau(tau)
    return any(d.confidence >= tau for d in dets)


def detection_timeline(timestamps: list[int],
                       detections: list[list[Detection]],
                       tau: float = DEFAULT_TAU) -> OccupancyTimeline:
    """Threshold per-frame detections into an occupancy timeline."""
    if len(timestamps) != len(detections):
        raise AlignmentError(
            f"{len(timestamps)} timestamps vs {len(detections)} "
            f"detection lists")
    return OccupancyTimeline(tuple(
        (ts, frame_occupancy(dets, tau))
        for ts, dets in zip(timestamps, detections)))


def manifest_timeline(records: list[ManifestRecord]) -> OccupancyTimeline:
    """Ground-truth occupancy straight from manifest flags, time-sorted."""
    entries = sorted((rec.ts, rec.occupied) for rec in records)
    return OccupancyTimeline(tuple(entries))


@dataclass(frozen=True)
class OccupancyConfusion:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float

    @property
    def missed_occupied(self) -> int:
        """Occupied frames the detector called vacant."""
        return self.fn


def _aligned(actual: OccupancyTimeline,
             detected: OccupancyTimeline) -> list[tuple[int, bool, bool]]:
    """(ts, truth, seen) per frame of two timelines on identical stamps."""
    if actual.timestamps() != detected.timestamps():
        raise AlignmentError("timelines cover different timestamps")
    return [(ts, truth, seen) for (ts, truth), (_, seen)
            in zip(actual.entries, detected.entries)]


def compare(actual: OccupancyTimeline,
            detected: OccupancyTimeline) -> OccupancyConfusion:
    """Frame-level confusion between two timelines on identical stamps."""
    pairs = Counter((truth, seen) for _, truth, seen
                    in _aligned(actual, detected))
    tp, fp, fn, tn = (pairs[True, True], pairs[False, True],
                      pairs[True, False], pairs[False, False])
    precision, recall = precision_recall(tp, fp, fn)
    return OccupancyConfusion(tp, fp, fn, tn, precision, recall)


@dataclass(frozen=True)
class ControlPolicy:
    """Hysteresis thresholds in seconds.

    on_delay: how long a space must look occupied before the plant
    turns on. off_hold: how long it must look vacant before it turns
    off again.
    """

    on_delay: float = 0.0
    off_hold: float = 900.0

    def __post_init__(self):
        # written so that NaN fails; +inf off_hold means never switch off
        if not (self.on_delay >= 0 and self.off_hold >= 0):
            raise ConfigError("policy delays must be non-negative numbers")


@dataclass(frozen=True)
class HvacSchedule:
    entries: tuple[tuple[int, bool], ...]
    on_seconds: float
    total_seconds: float
    on_fraction: float

    @property
    def runtime_reduction(self) -> float:
        """Fraction of always-on runtime the schedule saves."""
        return 1.0 - self.on_fraction


def simulate_control(detected: OccupancyTimeline,
                     policy: ControlPolicy = ControlPolicy()) -> HvacSchedule:
    """Walk a detected timeline through the hysteresis policy.

    The plant starts off. Within a run of equal occupancy samples the
    elapsed time since the run began is compared to the policy: an
    occupied run switches on once it reaches on_delay, a vacant run
    switches off once it reaches off_hold; otherwise the previous state
    holds. Durations weight each entry by the gap to the next sample;
    the final entry reuses the previous gap. A lone sample has no gap,
    and its on_fraction is the plant's state.
    """
    stamps = detected.timestamps()
    gaps = [b - a for a, b in zip(stamps, stamps[1:])] or [0]
    gaps.append(gaps[-1])
    entries = []
    hvac = False
    run_value: bool | None = None
    run_start = 0
    on = total = 0.0  # running sums in entry order fix their bits
    for (ts, occupied), gap in zip(detected.entries, gaps):
        if occupied != run_value:
            run_value = occupied
            run_start = ts
        elapsed = ts - run_start
        if run_value and elapsed >= policy.on_delay:
            hvac = True
        elif not run_value and elapsed >= policy.off_hold:
            hvac = False
        entries.append((ts, hvac))
        total += gap
        if hvac:
            on += gap
    return HvacSchedule(tuple(entries), on, total,
                        on / total if total else float(hvac))


def write_timeline_csv(path: str, actual: OccupancyTimeline,
                       detected: OccupancyTimeline) -> None:
    """One row per frame: timestamp, actual flag, detected flag (0/1)."""
    write_text_atomic(path, "ts,actual,detected\n" + "".join(
        f"{ts},{int(truth)},{int(seen)}\n"
        for ts, truth, seen in _aligned(actual, detected)))


def write_schedule_csv(path: str, schedule: HvacSchedule) -> None:
    write_text_atomic(path, "ts,hvac_on\n" + "".join(
        f"{ts},{int(flag)}\n" for ts, flag in schedule.entries))
