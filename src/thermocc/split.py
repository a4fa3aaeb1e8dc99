"""Deterministic stratified train/val/test splitting.

Frames are split within each occupancy stratum separately so that the
occupied-to-unoccupied ratio of every subset tracks the whole dataset.
Counts per stratum follow a fixed rule: the validation and test sizes
are rounded (halves away from zero) from the requested fractions and
training takes the remainder, so the three subsets always partition
the stratum exactly. Shuffling uses numpy's default PCG64 generator
seeded by the caller, which pins the assignment for a given
(manifest, fractions, seed) triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AssignmentIntegrityError, InfeasibleSplitError,
                     SplitConfigError)
from .manifest import ManifestRecord
from .util import round_half_away

SUBSET_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class SplitFractions:
    train: float
    val: float
    test: float

    def __post_init__(self):
        for name, value in zip(SUBSET_NAMES, (self.train, self.val, self.test)):
            if not (0.0 < value < 1.0):
                raise SplitConfigError(
                    f"{name} fraction must lie in (0, 1), got {value}")
        total = self.train + self.val + self.test
        if abs(total - 1.0) > 1e-9:
            raise SplitConfigError(f"fractions must sum to 1, got {total}")


DEFAULT_FRACTIONS = SplitFractions(0.6, 0.2, 0.2)


@dataclass(frozen=True)
class SplitAssignment:
    """Manifest indices per subset, each sorted ascending."""

    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]

    def subsets(self):
        return dict(zip(SUBSET_NAMES, (self.train, self.val, self.test)))


@dataclass(frozen=True)
class SubsetStats:
    total: int
    occupied: int
    unoccupied: int
    ratio: float  # occupied / unoccupied, inf when unoccupied == 0
    consistent: bool

    def to_dict(self):
        return {
            "total": self.total,
            "occupied": self.occupied,
            "unoccupied": self.unoccupied,
            "ratio": self.ratio if math.isfinite(self.ratio) else None,
            "consistent": self.consistent,
        }


@dataclass(frozen=True)
class RatioReport:
    overall: SubsetStats
    subsets: dict[str, SubsetStats]

    def to_dict(self):
        return {
            "overall": self.overall.to_dict(),
            "subsets": {k: v.to_dict() for k, v in self.subsets.items()},
        }

    @property
    def consistent(self) -> bool:
        return all(s.consistent for s in self.subsets.values())


def stratum_counts(n: int, fractions: SplitFractions) -> tuple[int, int, int]:
    """Subset sizes for one stratum of n members.

    val and test are rounded from their fractions, train gets the rest.
    """
    n_val = round_half_away(n * fractions.val)
    n_test = round_half_away(n * fractions.test)
    n_train = n - n_val - n_test
    if n_train <= 0:
        raise InfeasibleSplitError(
            f"stratum of {n} leaves no training members under "
            f"fractions ({fractions.train}, {fractions.val}, {fractions.test})")
    return n_train, n_val, n_test


def _occupancy_flags(records) -> list[bool]:
    return [r.occupied if isinstance(r, ManifestRecord) else bool(r)
            for r in records]


def stratified_split(records, fractions: SplitFractions = DEFAULT_FRACTIONS,
                     seed: int = 0) -> SplitAssignment:
    """Assign manifest indices to train/val/test, stratified by occupancy.

    The occupied stratum is shuffled and carved first, then the
    unoccupied stratum, both from one seeded generator; subsets are
    returned with indices sorted ascending. A stratum absent from the
    manifest simply contributes nothing.
    """
    if seed < 0:
        raise SplitConfigError(f"seed must be non-negative, got {seed}")
    flags = _occupancy_flags(records)
    if not flags:
        raise InfeasibleSplitError("manifest is empty")
    rng = np.random.default_rng(seed)
    parts: dict[str, list[int]] = {name: [] for name in SUBSET_NAMES}
    for value in (True, False):
        idx = np.array([i for i, f in enumerate(flags) if f == value],
                       dtype=np.int64)
        if idx.size == 0:
            continue
        n_train, n_val, _ = stratum_counts(int(idx.size), fractions)
        rng.shuffle(idx)
        parts["train"] += idx[:n_train].tolist()
        parts["val"] += idx[n_train:n_train + n_val].tolist()
        parts["test"] += idx[n_train + n_val:].tolist()
    return SplitAssignment(*(tuple(sorted(parts[name]))
                             for name in SUBSET_NAMES))


def verify_ratio(assignment: SplitAssignment, records) -> RatioReport:
    """Check the occupancy balance of an assignment against its manifest.

    Raises AssignmentIntegrityError unless the subsets are disjoint and
    cover every manifest index exactly once. A subset is consistent
    when its occupied and unoccupied counts are each within one frame
    of the dataset-wide proportion (and it has at least one unoccupied
    frame, so its ratio is finite); if the dataset itself has no
    unoccupied frames, a subset is consistent only when it has none.
    """
    flags = _occupancy_flags(records)
    combined = sorted(assignment.train + assignment.val + assignment.test)
    if combined != list(range(len(flags))):
        raise AssignmentIntegrityError(
            "subsets must partition the manifest indices exactly")
    occ_total = sum(flags)
    unocc_total = len(flags) - occ_total
    overall = _stats(occ_total, unocc_total, consistent=True)
    subsets = {}
    for name, indices in assignment.subsets().items():
        occ = sum(flags[i] for i in indices)
        unocc = len(indices) - occ
        if unocc_total == 0:
            ok = unocc == 0
        else:
            share = len(indices) / len(flags)
            ok = (unocc > 0
                  and abs(occ - occ_total * share) <= 1.0
                  and abs(unocc - unocc_total * share) <= 1.0)
        subsets[name] = _stats(occ, unocc, consistent=ok)
    return RatioReport(overall=overall, subsets=subsets)


def _stats(occ: int, unocc: int, consistent: bool) -> SubsetStats:
    ratio = occ / unocc if unocc > 0 else math.inf
    return SubsetStats(total=occ + unocc, occupied=occ, unoccupied=unocc,
                       ratio=ratio, consistent=consistent)
