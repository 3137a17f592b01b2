"""Backward dataflow slicing and dependency-branch attribution.

A value is identified by its dynamic producer: a ValueInstance is the pair
(producer seq, location), with producer == SOURCE for state that entered
the analysis window from outside. Two instructions share data iff their
backward slices contain a common ValueInstance; a prior COND branch whose
slice shares an instance with a target branch's slice is a dependency
branch of that target.

Slices are computed once per instruction at arrival, relative to that
instruction's own trailing window, and re-based at query time: a producer
older than the query window degrades to SOURCE. Because the true last
writer of a location never changes, that re-basing reproduces exactly what
a from-scratch analysis inside the query window would compute (the oracle
equivalence the tests check).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ArgumentError, EmptyTargetError
from .records import BranchKind, InstructionRecord

SOURCE = -1
DEFAULT_WINDOW = 5000
DEFAULT_TRACKED_REGS = tuple(range(18))
DEFAULT_VALUE_MASK = 0xFFFFFFFF

Location = tuple[str, int]          # ("r", register id) | ("m", address)
ValueInstance = tuple[int, Location]


def _read_locations(rec: InstructionRecord, include_memory: bool) -> Iterator[Location]:
    for r in rec.regs_read:
        yield ("r", r)
    if include_memory:
        for a in rec.mem_read:
            yield ("m", a)


class DefUseWindow:
    """Sliding def-use state over the last ``length`` instructions.

    push() records arrive in seq order; each instruction's backward slice
    (its reads' ValueInstances plus their producers' slices, transitively)
    is computed at arrival against the window [seq - length, seq - 1].
    """

    def __init__(self, length: int = DEFAULT_WINDOW, include_memory: bool = True):
        if length < 1:
            raise ArgumentError(f"window length must be >= 1, got {length}")
        self.length = length
        self.include_memory = include_memory
        self.last_writer: dict[Location, int] = {}
        self._deps: dict[int, frozenset[ValueInstance]] = {}
        self._direct: dict[int, frozenset[ValueInstance]] = {}
        self._order: deque[int] = deque()
        self._last_seq: int | None = None

    def slice_of_reads(self, locations: Iterable[Location], cut: int) -> tuple[
        frozenset[ValueInstance], frozenset[ValueInstance]
    ]:
        """(direct, transitive) ValueInstances for a read set, producers
        older than ``cut`` collapsed to SOURCE."""
        direct = set()
        full = set()
        for loc in locations:
            w = self.last_writer.get(loc)
            if w is None or w < cut:
                vi = (SOURCE, loc)
                direct.add(vi)
                full.add(vi)
            else:
                vi = (w, loc)
                direct.add(vi)
                full.add(vi)
                inner = self._deps.get(w)
                if inner:
                    for p, ploc in inner:
                        full.add((p, ploc) if p >= cut else (SOURCE, ploc))
        return frozenset(direct), frozenset(full)

    def push(self, rec: InstructionRecord) -> None:
        if self._last_seq is not None and rec.seq <= self._last_seq:
            raise ArgumentError(f"window pushes must increase in seq, got {rec.seq}")
        self._last_seq = rec.seq
        direct, full = self.slice_of_reads(
            _read_locations(rec, self.include_memory), rec.seq - self.length
        )
        self._deps[rec.seq] = full
        self._direct[rec.seq] = direct
        self._order.append(rec.seq)
        for reg, _val in rec.regs_written:
            self.last_writer[("r", reg)] = rec.seq
        if self.include_memory:
            for a in rec.mem_written:
                self.last_writer[("m", a)] = rec.seq
        cutoff = rec.seq - self.length
        while self._order and self._order[0] < cutoff:
            old = self._order.popleft()
            del self._deps[old]
            del self._direct[old]

    def slice_at(self, seq: int) -> frozenset[ValueInstance]:
        """Backward slice of the retained instruction at ``seq``, relative
        to its own trailing window (the state it was pushed with): reads of
        locations last written before that window collapse to (SOURCE, loc)."""
        try:
            return self._deps[seq]
        except KeyError:
            raise ArgumentError(f"seq {seq} is not retained in the window") from None


@dataclass(frozen=True)
class DependencyDistribution:
    """Where a target branch's dataflow ancestors sit in global history.

    positions[dep_ip][k] counts the (target execution, dependency
    occurrence) pairs where the dependency branch retired k COND branches
    before the target (k = 1 is the most recent prior COND)."""

    target_ip: int
    window: int
    executions: int
    positions: dict[int, dict[int, int]]

    @property
    def n_dep_branches(self) -> int:
        return len(self.positions)

    @property
    def min_position(self) -> int | None:
        return min((min(h) for h in self.positions.values()), default=None)

    @property
    def max_position(self) -> int | None:
        return max((max(h) for h in self.positions.values()), default=None)

    def total_mass(self) -> int:
        return sum(sum(h.values()) for h in self.positions.values())

    def mass_by_ip(self) -> dict[int, int]:
        return {ip: sum(h.values()) for ip, h in self.positions.items()}

    def top_dependency(self) -> int | None:
        mass = self.mass_by_ip()
        if not mass:
            return None
        return min(mass, key=lambda ip: (-mass[ip], ip))


def find_dependency_branches(
    records: Sequence[InstructionRecord],
    h2p_ip: int,
    window: int = DEFAULT_WINDOW,
    direct_reads_only: bool = False,
    include_memory: bool = True,
) -> DependencyDistribution:
    """Scan the trace; at every execution of ``h2p_ip`` find the prior COND
    branches (within ``window`` instructions) whose backward slice shares a
    ValueInstance with the target's slice, and record their global-history
    positions."""
    win = DefUseWindow(window, include_memory=include_memory)
    conds: deque[tuple[int, int]] = deque()   # (seq, ip) of window COND branches
    positions: dict[int, dict[int, int]] = {}
    executions = 0
    for rec in records:
        if rec.is_branch and rec.kind is BranchKind.COND:
            if rec.ip == h2p_ip:
                executions += 1
                cut = rec.seq - window
                t_direct, t_full = win.slice_of_reads(
                    _read_locations(rec, include_memory), cut
                )
                target_set = t_direct if direct_reads_only else t_full
                if target_set:
                    pos = 0
                    for b_seq, b_ip in reversed(conds):
                        if b_seq < cut:
                            break
                        pos += 1
                        b_set = win._direct[b_seq] if direct_reads_only else win._deps[b_seq]
                        for p, loc in b_set:
                            if ((p, loc) if p >= cut else (SOURCE, loc)) in target_set:
                                hist = positions.setdefault(b_ip, {})
                                hist[pos] = hist.get(pos, 0) + 1
                                break
            conds.append((rec.seq, rec.ip))
            if len(conds) > window:
                conds.popleft()
        win.push(rec)
    if executions == 0:
        raise EmptyTargetError(f"{h2p_ip:#x} never executes as a COND branch")
    return DependencyDistribution(h2p_ip, window, executions, positions)


@dataclass(frozen=True)
class RegValueHistogram:
    """Pre-execution register snapshots at a target branch: counts of the
    most recent masked write to each tracked register, aggregated over the
    target's dynamic executions."""

    target_ip: int
    tracked: tuple[int, ...]
    mask: int
    executions: int
    counts: dict[tuple[int, int], int]   # (register, masked value) -> count

    def values_of(self, reg: int) -> dict[int, int]:
        return {v: c for (r, v), c in self.counts.items() if r == reg}


def regval_snapshots(
    records: Iterable[InstructionRecord],
    h2p_ip: int,
    tracked: Sequence[int] = DEFAULT_TRACKED_REGS,
    mask: int = DEFAULT_VALUE_MASK,
) -> RegValueHistogram:
    """For each execution of ``h2p_ip``, record the last written (masked)
    value of every tracked register at that moment. Registers not yet
    written contribute nothing."""
    tracked = tuple(tracked)
    if not tracked:
        raise ArgumentError("tracked register list is empty")
    tracked_set = frozenset(tracked)
    last: dict[int, int] = {}
    counts: dict[tuple[int, int], int] = {}
    executions = 0
    for rec in records:
        if rec.is_branch and rec.kind is BranchKind.COND and rec.ip == h2p_ip:
            executions += 1
            for r in tracked:
                if r in last:
                    key = (r, last[r] & mask)
                    counts[key] = counts.get(key, 0) + 1
        for reg, val in rec.regs_written:
            if reg in tracked_set:
                last[reg] = val
    return RegValueHistogram(h2p_ip, tracked, mask, executions, counts)
