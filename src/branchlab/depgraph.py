"""Backward dataflow slicing and dependency-branch attribution.

A value is identified by its dynamic producer: a ValueInstance is the pair
(producer seq, location), with producer == SOURCE for state that entered
the analysis window from outside. Two instructions share data iff their
backward slices contain a common ValueInstance; a prior COND branch whose
slice shares an instance with a target branch's slice is a dependency
branch of that target.

Slices are computed once per instruction at arrival (DefUseWindow.push),
relative to that instruction's own trailing window, and re-based at query
time: a producer older than the query window degrades to SOURCE. Because
the true last writer of a location never changes, that re-basing
reproduces exactly what a from-scratch analysis inside the query window
would compute (the oracle equivalence the tests check).

The prior COND branches that share data with a target are found through an
inverted index over the slices of the COND branches in the window
(CondSliceIndex): location -> producer -> the CONDs whose slice holds
(producer, location). A COND's entries go in when it retires and come out
when it falls out of the trailing window, and a key left without holders
is deleted, so the index holds no more than the window's COND slices. A
target instance (p, loc) with p inside the target's window is one exact
lookup; a target instance (SOURCE, loc) takes every holder of loc whose
producer is SOURCE or older than the target's window, which is the
re-basing rule applied from the index side. A target execution therefore
visits only the CONDs it shares data with, not every COND in the window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .defaults import DEFAULT_VALUE_MASK, DEFAULT_WINDOW
from .errors import ArgumentError, EmptyTargetError
from .records import BranchKind, InstructionRecord

SOURCE = -1
DEFAULT_TRACKED_REGS = tuple(range(18))

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

    def push(self, rec: InstructionRecord) -> tuple[
        frozenset[ValueInstance], frozenset[ValueInstance]
    ]:
        """Retire ``rec`` into the window and return its (direct, transitive)
        arrival slice. Only the transitive slice is retained."""
        if self._last_seq is not None and rec.seq <= self._last_seq:
            raise ArgumentError(f"window pushes must increase in seq, got {rec.seq}")
        self._last_seq = rec.seq
        cutoff = rec.seq - self.length
        direct, full = self.slice_of_reads(_read_locations(rec, self.include_memory), cutoff)
        self._deps[rec.seq] = full
        self._order.append(rec.seq)
        for reg, _val in rec.regs_written:
            self.last_writer[("r", reg)] = rec.seq
        if self.include_memory:
            for a in rec.mem_written:
                self.last_writer[("m", a)] = rec.seq
        while self._order and self._order[0] < cutoff:
            del self._deps[self._order.popleft()]
        return direct, full

    def slice_at(self, seq: int) -> frozenset[ValueInstance]:
        """Backward slice of the retained instruction at ``seq``, relative
        to its own trailing window (the state it was pushed with): reads of
        locations last written before that window collapse to (SOURCE, loc)."""
        try:
            return self._deps[seq]
        except KeyError:
            raise ArgumentError(f"seq {seq} is not retained in the window") from None


class CondSliceIndex:
    """Inverted index over the slices of the COND branches retired into a
    trailing window: location -> producer -> ordinals, in increasing
    order, of the CONDs whose slice holds (producer, location).

    A COND's ordinal is the number of CONDs added before it, so a COND
    matched at a target's arrival sits ``added - ordinal`` CONDs back in
    global history."""

    def __init__(self):
        self.added = 0
        self._holders: dict[Location, dict[int, list[int]]] = {}
        self._window: deque[tuple[int, frozenset[ValueInstance]]] = deque()  # (seq, slice)
        self._ips: dict[int, int] = {}   # ordinal -> ip

    def add(self, seq: int, ip: int, instances: frozenset[ValueInstance]) -> None:
        """Index the COND at ``seq`` (seqs must increase) by ``instances``."""
        ordinal = self.added
        self.added += 1
        self._window.append((seq, instances))
        self._ips[ordinal] = ip
        holders = self._holders
        for p, loc in instances:
            by_producer = holders.get(loc)
            if by_producer is None:
                holders[loc] = {p: [ordinal]}
            else:
                ordinals = by_producer.get(p)
                if ordinals is None:
                    by_producer[p] = [ordinal]
                else:
                    ordinals.append(ordinal)

    def expire(self, cut: int) -> None:
        """Drop every COND retired before seq ``cut``, and the keys it alone
        held. CONDs leave in the order they were added, so the one leaving
        is the first holder of each of its keys."""
        window = self._window
        holders = self._holders
        while window and window[0][0] < cut:
            _seq, instances = window.popleft()
            ordinal = self.added - len(window) - 1
            del self._ips[ordinal]
            for p, loc in instances:
                by_producer = holders[loc]
                ordinals = by_producer[p]
                del ordinals[0]
                if not ordinals:
                    del by_producer[p]
                    if not by_producer:
                        del holders[loc]

    def matches(self, target: frozenset[ValueInstance], cut: int) -> Iterator[tuple[int, int]]:
        """(ip, history position) of each indexed COND whose slice, re-based
        to ``cut``, shares an instance with ``target`` (already re-based to
        ``cut``). Position 1 is the most recently added COND."""
        found: set[int] = set()
        holders = self._holders
        for p, loc in target:
            by_producer = holders.get(loc)
            if by_producer is None:
                continue
            if p != SOURCE:
                ordinals = by_producer.get(p)
                if ordinals:
                    found.update(ordinals)
            else:
                for q, ordinals in by_producer.items():
                    if q < cut or q == SOURCE:
                        found.update(ordinals)
        ips = self._ips
        for ordinal in found:
            yield ips[ordinal], self.added - ordinal

    def entries(self) -> dict[int, frozenset[ValueInstance]]:
        """seq -> instances of every indexed COND, read back from the index."""
        first = self.added - len(self._window)
        seqs = [seq for seq, _ in self._window]
        out: dict[int, set[ValueInstance]] = {}
        for loc, by_producer in self._holders.items():
            for p, ordinals in by_producer.items():
                for ordinal in ordinals:
                    out.setdefault(seqs[ordinal - first], set()).add((p, loc))
        return {seq: frozenset(vis) for seq, vis in out.items()}


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
    h2p_ips: Sequence[int],
    window: int = DEFAULT_WINDOW,
    direct_reads_only: bool = False,
    include_memory: bool = True,
) -> list[DependencyDistribution]:
    """Scan the trace once; at every execution of each ip of ``h2p_ips``
    find the prior COND branches (within ``window`` instructions) whose
    backward slice shares a ValueInstance with the target's slice, and
    record their global-history positions. One distribution per ip, in
    argument order; the first ip that never executes as a COND branch is
    an EmptyTargetError."""
    win = DefUseWindow(window, include_memory=include_memory)
    index = CondSliceIndex()
    positions: dict[int, dict[int, dict[int, int]]] = {ip: {} for ip in h2p_ips}
    executions = dict.fromkeys(positions, 0)
    for rec in records:
        direct, full = win.push(rec)
        cut = rec.seq - window
        index.expire(cut)
        if rec.is_branch and rec.kind is BranchKind.COND:
            own = direct if direct_reads_only else full
            found = positions.get(rec.ip)
            if found is not None:
                executions[rec.ip] += 1
                for ip, pos in index.matches(own, cut):
                    hist = found.setdefault(ip, {})
                    hist[pos] = hist.get(pos, 0) + 1
            index.add(rec.seq, rec.ip, own)
    for ip in h2p_ips:
        if executions[ip] == 0:
            raise EmptyTargetError(f"{ip:#x} never executes as a COND branch")
    return [DependencyDistribution(ip, window, executions[ip], positions[ip]) for ip in h2p_ips]


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
    written contribute nothing. A target that never executes is an
    EmptyTargetError, as in find_dependency_branches."""
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
    if executions == 0:
        raise EmptyTargetError(f"{h2p_ip:#x} never executes as a COND branch")
    return RegValueHistogram(h2p_ip, tracked, mask, executions, counts)
