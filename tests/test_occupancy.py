import math

import pytest

from thermocc.annot import Detection, NormalizedBox
from thermocc.errors import AlignmentError, ConfigError, SequenceError
from thermocc.manifest import ManifestRecord
from thermocc.occupancy import (ControlPolicy, HvacSchedule,
                                OccupancyTimeline, compare,
                                detection_timeline, frame_occupancy,
                                manifest_timeline, simulate_control,
                                write_schedule_csv, write_timeline_csv)


def det(conf):
    return Detection(0, NormalizedBox(0.5, 0.5, 0.2, 0.2), conf)


def timeline(flags, period=10, start=0):
    return OccupancyTimeline(tuple((start + k * period, bool(f))
                                   for k, f in enumerate(flags)))


def test_frame_occupancy_threshold_inclusive():
    assert frame_occupancy([], 0.9) is False
    assert frame_occupancy([det(0.9)], 0.9) is True
    assert frame_occupancy([det(0.89)], 0.9) is False
    assert frame_occupancy([det(0.2), det(0.95)], 0.9) is True
    with pytest.raises(ConfigError):
        frame_occupancy([det(0.5)], 1.1)


def test_timeline_rejects_non_increasing():
    with pytest.raises(SequenceError):
        OccupancyTimeline(((10, True), (10, False)))
    with pytest.raises(SequenceError):
        OccupancyTimeline(((20, True), (10, False)))


def test_detection_timeline_alignment():
    with pytest.raises(AlignmentError):
        detection_timeline([0, 10], [[]], 0.9)
    tl = detection_timeline([0, 10], [[det(0.95)], []], 0.9)
    assert tl.entries == ((0, True), (10, False))


def test_manifest_timeline_sorts_by_ts():
    records = [ManifestRecord("b.pgm", None, False, 20),
               ManifestRecord("a.pgm", "l.txt", True, 10)]
    tl = manifest_timeline(records)
    assert tl.entries == ((10, True), (20, False))


def test_compare_counts():
    actual = timeline([True, True, False, False])
    detected = timeline([True, False, True, False])
    confusion = compare(actual, detected)
    assert (confusion.tp, confusion.fp, confusion.fn, confusion.tn) == (1, 1, 1, 1)
    assert confusion.precision == 0.5
    assert confusion.recall == 0.5
    assert confusion.missed_occupied == 1


def test_compare_identical_is_clean():
    tl = timeline([True, False, True])
    confusion = compare(tl, tl)
    assert confusion.fp == 0 and confusion.fn == 0
    assert confusion.precision == 1.0 and confusion.recall == 1.0


def test_compare_rejects_misaligned():
    with pytest.raises(AlignmentError):
        compare(timeline([True, False]), timeline([True, False], start=5))


def test_compare_conservation_random():
    import random
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 60)
        actual = timeline([rng.random() < 0.6 for _ in range(n)])
        detected = timeline([rng.random() < 0.5 for _ in range(n)])
        confusion = compare(actual, detected)
        assert confusion.tp + confusion.fn == sum(actual.flags())
        assert confusion.tp + confusion.fp == sum(detected.flags())
        assert confusion.tp + confusion.fp + confusion.fn + confusion.tn == n


def test_detected_recall_monotone_in_tau():
    import random
    rng = random.Random(4)
    stamps = list(range(0, 400, 10))
    dets = [[det(round(rng.random(), 3))
             for _ in range(rng.randint(0, 2))] for _ in stamps]
    actual = timeline([bool(d) for d in dets])
    recalls = []
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
        detected = detection_timeline(stamps, dets, tau)
        recalls.append(compare(actual, detected).recall)
    assert recalls == sorted(recalls, reverse=True)


def test_policy_validation():
    with pytest.raises(ConfigError):
        ControlPolicy(on_delay=-1.0)
    with pytest.raises(ConfigError):
        ControlPolicy(off_hold=-0.1)
    with pytest.raises(ConfigError):
        ControlPolicy(on_delay=float("nan"))
    with pytest.raises(ConfigError):
        ControlPolicy(off_hold=float("nan"))
    assert ControlPolicy(off_hold=float("inf")).off_hold == float("inf")
    assert ControlPolicy().on_delay == 0.0
    assert ControlPolicy().off_hold == 900.0


def three_hour_timeline():
    """Occupied for an hour, away for an hour, back for an hour; 10 s frames."""
    flags = [True] * 360 + [False] * 360 + [True] * 360
    return timeline(flags)


def test_simulate_control_reference():
    schedule = simulate_control(three_hour_timeline(), ControlPolicy(0.0, 900.0))
    states = dict(schedule.entries)
    assert states[0] is True           # on immediately with zero delay
    assert states[3600] is True        # vacancy just started, still held
    assert states[4490] is True        # 890 s vacant, one frame before the hold expires
    assert states[4500] is False       # 900 s vacant: off
    assert states[7190] is False       # last vacant frame
    assert states[7200] is True        # reoccupied
    assert schedule.on_seconds == 8100.0
    assert schedule.total_seconds == 10800.0
    assert schedule.on_fraction == 0.75
    assert schedule.runtime_reduction == 0.25


def test_simulate_on_delay():
    tl = timeline([True] * 6)
    schedule = simulate_control(tl, ControlPolicy(on_delay=30.0))
    assert [f for _, f in schedule.entries] == [False, False, False,
                                                True, True, True]


def test_simulate_short_vacancy_is_held_through():
    flags = [True] * 10 + [False] * 3 + [True] * 10
    schedule = simulate_control(timeline(flags), ControlPolicy(0.0, 900.0))
    assert all(f for _, f in schedule.entries)


def test_simulate_infinite_hold_never_turns_off():
    flags = [True] * 5 + [False] * 50
    schedule = simulate_control(timeline(flags),
                                ControlPolicy(0.0, math.inf))
    assert all(f for _, f in schedule.entries)


def test_simulate_empty_timeline():
    schedule = simulate_control(OccupancyTimeline(()), ControlPolicy())
    assert schedule.entries == ()
    assert schedule.on_fraction == 0.0


def test_simulate_single_sample_uses_frame_fallback():
    schedule = simulate_control(OccupancyTimeline(((0, True),)),
                                ControlPolicy(0.0, 900.0))
    assert schedule.entries == ((0, True),)
    assert schedule.total_seconds == 0.0
    assert schedule.on_fraction == 1.0


def test_simulate_irregular_spacing_weights_by_dwell():
    tl = OccupancyTimeline(((0, True), (10, False), (40, False)))
    schedule = simulate_control(tl, ControlPolicy(0.0, 0.0))
    # dwells: 10, 30, and the final sample reuses the previous 30
    assert schedule.entries == ((0, True), (10, False), (40, False))
    assert schedule.total_seconds == 70.0
    assert schedule.on_fraction == pytest.approx(1 / 7)


def test_timeline_csv(tmp_path):
    actual = timeline([True, False])
    detected = timeline([True, True])
    path = tmp_path / "timeline.csv"
    write_timeline_csv(str(path), actual, detected)
    assert path.read_text() == "ts,actual,detected\n0,1,1\n10,0,1\n"
    with pytest.raises(AlignmentError):
        write_timeline_csv(str(path), actual, timeline([True], start=99))


def test_schedule_csv(tmp_path):
    schedule = HvacSchedule(((0, True), (10, False)), 10.0, 20.0, 0.5)
    path = tmp_path / "schedule.csv"
    write_schedule_csv(str(path), schedule)
    assert path.read_text() == "ts,hvac_on\n0,1\n10,0\n"


def test_csv_writes_are_deterministic(tmp_path):
    actual = timeline([True, False, True])
    detected = timeline([False, False, True])
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_timeline_csv(str(a), actual, detected)
    write_timeline_csv(str(b), actual, detected)
    assert a.read_bytes() == b.read_bytes()



# Gaps of about 2**53 s, where a float no longer holds every integer: the
# running sums, taken in entry order, fix these bits; converting the sum
# of the integer gaps once would give total_seconds 3.6028797018963976e16.
HUGE_GAPS = (0, 2**53 + 1, 2**54 + 4, 2**54 + 2**53 + 7)


@pytest.mark.parametrize("entries, policy, hvac, expected", [
    (tuple(zip(HUGE_GAPS, (True, True, False, True))), ControlPolicy(0.0, 0.0),
     [True, True, False, True],
     ("0x1.8000000000002p+54", "0x1.0000000000002p+55",
      "0x1.7ffffffffffffp-1")),
    # one gap, which the last entry reuses; the first waits out the delay
    (((3, True), (10, True)), ControlPolicy(5.0, 900.0), [False, True],
     ("0x1.c000000000000p+2", "0x1.c000000000000p+3",
      "0x1.0000000000000p-1")),
], ids=["huge-gaps", "two-samples"])
def test_simulate_control_keeps_its_float_bits(entries, policy, hvac,
                                                expected):
    schedule = simulate_control(OccupancyTimeline(entries), policy)
    assert [f for _, f in schedule.entries] == hvac
    assert (schedule.on_seconds.hex(), schedule.total_seconds.hex(),
            schedule.on_fraction.hex()) == expected


def test_compare_counts_each_kind_of_pair():
    """Distinct counts for the four (truth, seen) kinds, so no two of
    them can trade places unseen."""
    actual = timeline([True] * 5 + [False] * 5)
    detected = timeline([True, True, True, False, False,
                         True, False, False, False, False])
    confusion = compare(actual, detected)
    assert (confusion.tp, confusion.fp, confusion.fn, confusion.tn) == (3, 1, 2, 4)
    assert confusion.precision == 0.75
    assert confusion.recall == 0.6
    assert confusion.missed_occupied == 2
