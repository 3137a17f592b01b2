"""Misprediction-stream characterization.

Aggregates per-COND prediction outcomes into per-slice and whole-trace
per-ip statistics, then screens for hard-to-predict branches, ranks heavy
hitters, bins rarely executed branches, and measures recurrence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .defaults import DEFAULT_SLICE_LEN
from .errors import ArgumentError
from .predictors.simulate import MispredictionStream
from .records import BranchKind, BranchRecord

DECADE_BINS = 9   # [1,10), [10,100), ... [10^7,10^8), [10^8,inf)


@dataclass(frozen=True, slots=True)
class IpStats:
    executions: int
    mispredictions: int

    @property
    def accuracy(self) -> float:
        return 1.0 - self.mispredictions / self.executions if self.executions else 1.0


@dataclass(frozen=True)
class H2PCriteria:
    max_accuracy: float = 0.99
    min_executions: int = 15_000
    min_mispredictions: int = 1_000

    def validate(self) -> None:
        if not (0.0 < self.max_accuracy <= 1.0):
            raise ArgumentError(f"max_accuracy must be in (0,1], got {self.max_accuracy}")
        if self.min_executions < 1 or self.min_mispredictions < 1:
            raise ArgumentError("execution/misprediction thresholds must be positive")


@dataclass
class SliceStats:
    index: int
    slice_len: int
    partial: bool
    executions: dict[int, int] = field(default_factory=dict)
    mispredictions: dict[int, int] = field(default_factory=dict)

    def stats(self, ip: int) -> IpStats:
        return IpStats(self.executions.get(ip, 0), self.mispredictions.get(ip, 0))

    def per_ip(self) -> dict[int, IpStats]:
        return {
            ip: IpStats(e, self.mispredictions.get(ip, 0))
            for ip, e in self.executions.items()
        }


def require_at_least_one(value: int, name: str) -> None:
    """An ArgumentError naming ``name`` unless ``value`` is at least 1."""
    if value < 1:
        raise ArgumentError(f"{name} must be >= 1, got {value}")


def per_ip_totals(stream: MispredictionStream) -> dict[int, IpStats]:
    """Whole-trace executions/mispredictions per static ip."""
    execs: dict[int, int] = {}
    mis: dict[int, int] = {}
    for r in stream.records:
        execs[r.ip] = execs.get(r.ip, 0) + 1
        if r.predicted != r.actual:
            mis[r.ip] = mis.get(r.ip, 0) + 1
    return {ip: IpStats(e, mis.get(ip, 0)) for ip, e in execs.items()}


def accumulate_slice_stats(
    stream: MispredictionStream,
    total_instructions: int,
    slice_len: int = DEFAULT_SLICE_LEN,
) -> list[SliceStats]:
    """Fold the stream into ⌈total/slice_len⌉ slices; a record at seq s
    lands in slice s // slice_len. The final slice is flagged partial when
    the trace does not fill it."""
    require_at_least_one(slice_len, "slice_len")
    if stream.records:
        last_seq = stream.records[-1].seq
        if total_instructions <= last_seq:
            raise ArgumentError(
                f"total_instructions {total_instructions} does not cover seq {last_seq}"
            )
    n_slices = max(1, math.ceil(total_instructions / slice_len)) if total_instructions else 0
    slices = [
        SliceStats(
            index=i,
            slice_len=slice_len,
            partial=(i == n_slices - 1 and total_instructions % slice_len != 0),
        )
        for i in range(n_slices)
    ]
    if not stream.records:
        return slices
    for r in stream.records:
        s = slices[r.seq // slice_len]
        s.executions[r.ip] = s.executions.get(r.ip, 0) + 1
        if r.predicted != r.actual:
            s.mispredictions[r.ip] = s.mispredictions.get(r.ip, 0) + 1
    return slices


def screen_h2p(stats: Mapping[int, IpStats], criteria: H2PCriteria | None = None) -> set[int]:
    """Hard-to-predict screen: accuracy below max_accuracy AND executions
    and mispredictions at/above their floors, within one slice."""
    criteria = criteria or H2PCriteria()
    criteria.validate()
    return {
        ip for ip, st in stats.items()
        if st.executions >= criteria.min_executions
        and st.mispredictions >= criteria.min_mispredictions
        and st.accuracy < criteria.max_accuracy
    }


@dataclass(frozen=True)
class H2PReport:
    per_slice: list[set[int]]
    union: set[int]
    occupancy: dict[int, int]            # ip -> number of slices flagged in
    mis_fraction_per_slice: list[float]  # H2P share of slice mispredictions
    avg_mis_fraction: float | None       # over full (non-partial) slices


def h2p_report(slices: Sequence[SliceStats], criteria: H2PCriteria | None = None) -> H2PReport:
    criteria = criteria or H2PCriteria()
    per_slice = [screen_h2p(s.per_ip(), criteria) for s in slices]
    union: set[int] = set()
    occupancy: dict[int, int] = {}
    for flagged in per_slice:
        union |= flagged
        for ip in flagged:
            occupancy[ip] = occupancy.get(ip, 0) + 1
    fractions: list[float] = []
    full_fractions: list[float] = []
    for s, flagged in zip(slices, per_slice):
        total = sum(s.mispredictions.values())
        h2p_mis = sum(s.mispredictions.get(ip, 0) for ip in flagged)
        frac = h2p_mis / total if total else 0.0
        fractions.append(frac)
        if not s.partial:
            full_fractions.append(frac)
    avg = sum(full_fractions) / len(full_fractions) if full_fractions else None
    return H2PReport(per_slice, union, occupancy, fractions, avg)


@dataclass(frozen=True, slots=True)
class HeavyHitter:
    rank: int
    ip: int
    mispredictions: int
    cumulative_fraction: float


@dataclass(frozen=True)
class HeavyHitterReport:
    entries: list[HeavyHitter]
    total_mispredictions: int
    empty: bool

    def top(self, n: int) -> list[HeavyHitter]:
        return self.entries[:n]


def heavy_hitters(totals: Mapping[int, IpStats]) -> HeavyHitterReport:
    """Rank ips by misprediction count (desc, ties by ascending ip) with a
    running cumulative fraction. Zero total mispredictions yields an empty
    ranking flagged explicitly."""
    counts = {ip: st.mispredictions for ip, st in totals.items()}
    for ip, m in counts.items():
        if m < 0:
            raise ArgumentError(f"negative misprediction count for {ip:#x}")
    total = sum(counts.values())
    if total == 0:
        return HeavyHitterReport([], 0, True)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = []
    running = 0
    for rank, (ip, m) in enumerate(ranked, start=1):
        running += m
        entries.append(HeavyHitter(rank, ip, m, running / total))
    return HeavyHitterReport(entries, total, False)


@dataclass(frozen=True, slots=True)
class RareBin:
    lo: int         # executions in [lo, hi)
    hi: int
    count: int      # static branches in the bin
    mean_acc: float
    std_acc: float  # population sigma


@dataclass(frozen=True)
class RareBinReport:
    bin_width: int
    bins: list[RareBin]

    def bin_for(self, executions: int) -> RareBin | None:
        idx = executions // self.bin_width
        for b in self.bins:
            if b.lo == idx * self.bin_width:
                return b
        return None


def rare_bins(totals: Mapping[int, IpStats], bin_width: int = 100) -> RareBinReport:
    """Bin static branches by execution count; report per-bin mean and
    population standard deviation of accuracy. Only occupied bins appear."""
    require_at_least_one(bin_width, "bin_width")
    grouped: dict[int, list[float]] = {}
    for st in totals.values():
        grouped.setdefault(st.executions // bin_width, []).append(st.accuracy)
    bins = []
    for idx in sorted(grouped):
        accs = grouped[idx]
        mean = sum(accs) / len(accs)
        var = sum((a - mean) ** 2 for a in accs) / len(accs)
        bins.append(
            RareBin(idx * bin_width, (idx + 1) * bin_width, len(accs), mean, math.sqrt(var))
        )
    return RareBinReport(bin_width, bins)


@dataclass(frozen=True)
class RecurrenceStats:
    executions: int
    median_interval: int | None   # None for single-execution branches
    decade_histogram: tuple[int, ...]   # DECADE_BINS log10 bins


@dataclass(frozen=True)
class RecurrenceReport:
    per_ip: dict[int, RecurrenceStats]
    singletons: set[int]   # executed exactly once; no interval exists

    def median_of(self, ip: int) -> int | None:
        st = self.per_ip.get(ip)
        return st.median_interval if st else None


def decade_bin(interval: int) -> int:
    """log10 bin index: 0 for [1,10), 1 for [10,100), ..., 8 for >= 10^8."""
    if interval < 1:
        raise ArgumentError(f"intervals are positive, got {interval}")
    return min(DECADE_BINS - 1, len(str(interval)) - 1)


def recurrence_intervals(records: Iterable[BranchRecord]) -> RecurrenceReport:
    """Per static COND ip: instruction-count gaps between consecutive
    executions, summarized as a lower-middle median plus a decade
    histogram."""
    last_seen: dict[int, int] = {}
    intervals: dict[int, list[int]] = {}
    execs: dict[int, int] = {}
    for r in records:
        if r.kind is not BranchKind.COND:
            continue
        execs[r.ip] = execs.get(r.ip, 0) + 1
        prev = last_seen.get(r.ip)
        if prev is not None:
            intervals.setdefault(r.ip, []).append(r.seq - prev)
        last_seen[r.ip] = r.seq
    per_ip: dict[int, RecurrenceStats] = {}
    singletons: set[int] = set()
    for ip, n in execs.items():
        gaps = intervals.get(ip)
        if not gaps:
            singletons.add(ip)
            per_ip[ip] = RecurrenceStats(n, None, tuple([0] * DECADE_BINS))
            continue
        gaps.sort()
        median = gaps[(len(gaps) - 1) // 2]   # lower middle for even counts
        hist = [0] * DECADE_BINS
        for g in gaps:
            hist[decade_bin(g)] += 1
        per_ip[ip] = RecurrenceStats(n, median, tuple(hist))
    return RecurrenceReport(per_ip, singletons)
