"""Tagged geometric-history-length predictor (TAGE).

A direct-mapped bimodal base table backed by N partially tagged tables,
table i indexed by a hash of the ip, folded global direction history of
geometrically growing length L(i), and folded path history. The longest
matching table provides the prediction; the next longest (or base) is the
alternate. Tagged entries carry a signed prediction counter, a usefulness
counter that guards against reallocation, and the allocation-time metadata
driving the use-alt-on-newly-allocated heuristic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import ConfigError
from ..records import BranchKind, BranchRecord
from .base import ConditionalPredictor, counter_confidence, require_pow2
from .history import (
    LANE, LANE_MASK, FoldedRegister, GlobalHistory, fold_history, fold_trace, lane_ones,
    pack_lanes, unpack_lanes,
)

# use-alt heuristic: entry counts as newly allocated for this many updates
FRESH_UPDATES = 4
# signed prediction counter and usefulness counter of a tagged entry, bits
COUNTER_BITS = 3
USEFUL_BITS = 2
# path window folded into each index hash, bits (2 path chunks)
PATH_MIX_BITS = 32
# COND records whose indices and tags are computed in one pass on lane
# vectors; it bounds the size of their ints
TRACE_BLOCK = 1 << 14

# Counter tables, read by [counter] and [counter][outcome]. A tagged
# counter c >= 0 sits at index c and a negative one c places from the end,
# so the signed counter itself is the index. Base counters are unsigned.
_CTR_MIN, _CTR_MAX = -(1 << (COUNTER_BITS - 1)), (1 << (COUNTER_BITS - 1)) - 1
_CTR_AT = (*range(0, _CTR_MAX + 1), *range(_CTR_MIN, 0))
_CTR_CONF = tuple(min(3, abs(2 * c + 1) // 2) for c in _CTR_AT)
_CTR_NEXT = tuple((max(c - 1, _CTR_MIN), min(c + 1, _CTR_MAX)) for c in _CTR_AT)
_BASE_CONF = tuple(counter_confidence(c, 3) for c in range(4))
_BASE_NEXT = tuple((max(c - 1, 0), min(c + 1, 3)) for c in range(4))
_USEFUL_MAX = (1 << USEFUL_BITS) - 1


@dataclass(frozen=True)
class TageConfig:
    """Geometry of a TAGE instance.

    Table i has 8 + i//2 tag bits, capped at 12. History lengths follow
    L(i) = round(min_hist * r**i) with r solved so the last table sits
    exactly at max_hist.
    """

    num_tagged_tables: int = 12
    entries_per_table: int = 256
    min_hist: int = 4
    max_hist: int = 1000
    base_entries: int = 4096

    def tag_widths(self) -> tuple[int, ...]:
        return tuple(min(12, 8 + i // 2) for i in range(self.num_tagged_tables))

    def history_lengths(self) -> tuple[int, ...]:
        n = self.num_tagged_tables
        if n < 1:
            raise ConfigError(f"need at least one tagged table, got {n}")
        if self.min_hist < 1:
            raise ConfigError(f"min_hist must be >= 1, got {self.min_hist}")
        if n == 1:
            return (self.max_hist,)
        if self.max_hist <= self.min_hist:
            raise ConfigError(
                f"max_hist {self.max_hist} must exceed min_hist {self.min_hist}"
            )
        r = (self.max_hist / self.min_hist) ** (1.0 / (n - 1))
        lengths = [max(1, round(self.min_hist * r**i)) for i in range(n)]
        for i in range(1, n):
            if lengths[i] <= lengths[i - 1]:
                lengths[i] = lengths[i - 1] + 1
        lengths[-1] = self.max_hist
        if lengths[-2] >= self.max_hist:
            raise ConfigError(
                f"cannot fit {n} strictly increasing lengths in [{self.min_hist}, {self.max_hist}]"
            )
        return tuple(lengths)

    def validate(self) -> None:
        require_pow2(self.entries_per_table, "entries_per_table")
        if self.entries_per_table < 2:  # the index folds need a width of at least 1
            raise ConfigError(f"entries_per_table must be >= 2, got {self.entries_per_table}")
        require_pow2(self.base_entries, "base_entries")
        self.history_lengths()

    def storage_bytes(self) -> int:
        """Modeled table storage: tag + counter + usefulness bits per tagged
        entry, 2 bits per base entry. Bookkeeping (freshness, telemetry) is
        not hardware state and is excluded."""
        bits = sum(self.entries_per_table * (w + COUNTER_BITS + USEFUL_BITS)
                   for w in self.tag_widths())
        bits += self.base_entries * 2
        return bits // 8


@dataclass(frozen=True, slots=True)
class AllocationStats:
    total_allocations: int
    unique_entries: int


class Tage(ConditionalPredictor):
    name = "tage"

    def __init__(self, config: TageConfig | None = None, seed: int = 0):
        cfg = config if config is not None else TageConfig()
        cfg.validate()
        self.config = cfg
        self.lengths = cfg.history_lengths()
        self.tag_widths = cfg.tag_widths()
        self.index_bits = cfg.entries_per_table.bit_length() - 1
        n = cfg.num_tagged_tables
        e = cfg.entries_per_table
        self.tags = [[-1] * e for _ in range(n)]
        self.ctrs = [[0] * e for _ in range(n)]
        self.useful = [[0] * e for _ in range(n)]
        self.fresh = [[0] * e for _ in range(n)]
        self.base = [1] * cfg.base_entries
        self.history = GlobalHistory(cfg.max_hist)
        self.rng = random.Random(seed)
        self.alloc_total: dict[int, int] = {}
        self.alloc_sites: dict[int, set[tuple[int, int]]] = {}
        # Each table's history of length L, rolled into three folds: the
        # index, the tag and a second tag one bit narrower, (fi, f0, f1).
        self.folds = [
            (FoldedRegister(L, self.index_bits), FoldedRegister(L, w), FoldedRegister(L, w - 1))
            for L, w in zip(self.lengths, self.tag_widths)
        ]
        self._idx_mask = (1 << self.index_bits) - 1
        self._base_mask = cfg.base_entries - 1
        self._longest_first = range(n - 1, -1, -1)
        self._tag_masks = [(1 << w) - 1 for w in self.tag_widths]
        self._pc_shifts = [abs(self.index_bits - i) + 1 for i in range(n)]
        self._last_table = n - 1
        self._labels = tuple(f"tage{i}" for i in range(n))

    # ------------------------------------------------------------ hashes

    def _indices_tags(self, ip: int) -> tuple[list[int], list[int]]:
        pc = ip >> 2
        path = self.history.path
        indices = []
        tags = []
        for L, (fi, f0, f1), shift, tag_mask in zip(
            self.lengths, self.folds, self._pc_shifts, self._tag_masks
        ):
            pfold = fold_history(path, min(L, PATH_MIX_BITS), self.index_bits)
            indices.append((pc ^ (pc >> shift) ^ fi.comp ^ pfold) & self._idx_mask)
            tags.append((pc ^ f0.comp ^ (f1.comp << 1)) & tag_mask)
        return indices, tags

    # ------------------------------------------------------------ walk

    def walk(self, ip: int, indices: list[int], tags: list[int],
             outcome: bool) -> tuple[bool, int, str]:
        """Predict and train one COND retirement of ``ip`` whose table
        indices and tags are given, returning (taken, conf, provider).

        The longest tag match provides and the next longest (or the base
        table) is the alternate; a weak, newly allocated provider defers to
        the alternate ("alt"). Then the provider's counter, usefulness and
        freshness train toward ``outcome``, and so does the base while it
        provides or a weak entry covers it. A misprediction allocates in
        longer tables. History is retired separately, so an ensemble can
        share one GlobalHistory shift per branch."""
        table_tags = self.tags
        provider = alt = -1
        for i in self._longest_first:
            if table_tags[i][indices[i]] == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alt = i
                    break
        base = self.base
        b = (ip >> 2) & self._base_mask
        base_ctr = base[b]
        base_taken = base_ctr >= 2
        if provider < 0:
            taken, conf, label = base_taken, _BASE_CONF[base_ctr], "base"
            base[b] = _BASE_NEXT[base_ctr][outcome]
        else:
            idx = indices[provider]
            ctrs = self.ctrs[provider]
            ctr = ctrs[idx]
            provider_taken = ctr >= 0
            provider_weak = ctr == 0 or ctr == -1
            if alt >= 0:
                alt_ctr = self.ctrs[alt][indices[alt]]
                alt_taken = alt_ctr >= 0
            else:
                alt_taken = base_taken
            fresh = self.fresh[provider]
            newly = fresh[idx] > 0
            if newly and provider_weak:
                taken, label = alt_taken, "alt"
                conf = _CTR_CONF[alt_ctr] if alt >= 0 else _BASE_CONF[base_ctr]
            else:
                taken, conf, label = provider_taken, _CTR_CONF[ctr], self._labels[provider]
            if newly:
                fresh[idx] -= 1
            if provider_taken != alt_taken:
                useful = self.useful[provider]
                u = useful[idx]
                if provider_taken == outcome:
                    if u < _USEFUL_MAX:
                        useful[idx] = u + 1
                elif u:
                    useful[idx] = u - 1
            ctrs[idx] = _CTR_NEXT[ctr][outcome]
            # keep the base trained while a weak provider covers the branch,
            # so fallback after eviction is not stale
            if provider_weak:
                base[b] = _BASE_NEXT[base_ctr][outcome]
        if taken != outcome and provider < self._last_table:
            self._allocate(ip, indices, tags, provider, outcome)
        return taken, conf, label

    def retire_history(self, record: BranchRecord) -> None:
        bit = 1 if record.taken else 0
        h = self.history
        for L, regs in zip(self.lengths, self.folds):
            out = h.bit(L - 1)
            for reg in regs:
                reg.update(bit, out)
        h.push_direction(record.taken)
        h.push_path(record.ip)

    def _allocate(self, ip: int, indices: list[int], tags: list[int],
                  provider: int, outcome: bool) -> None:
        start = provider + 1
        n = self.config.num_tagged_tables
        useful = self.useful
        candidates = [j for j in range(start, n) if useful[j][indices[j]] == 0]
        if not candidates:
            # reallocation pressure: age every longer-history entry
            for j in range(start, n):
                idx = indices[j]
                if useful[j][idx] > 0:
                    useful[j][idx] -= 1
            return
        chosen = [self.rng.choice(candidates)]
        if provider >= 0 and len(candidates) > 1 and self.rng.random() < 0.5:
            rest = [j for j in candidates if j != chosen[0]]
            chosen.append(self.rng.choice(rest))
        sites = self.alloc_sites.get(ip)
        if sites is None:
            sites = self.alloc_sites[ip] = set()
        for j in chosen:
            idx = indices[j]
            self.tags[j][idx] = tags[j]
            self.ctrs[j][idx] = 0 if outcome else -1
            useful[j][idx] = 0
            self.fresh[j][idx] = FRESH_UPDATES
            sites.add((j, idx))
        self.alloc_total[ip] = self.alloc_total.get(ip, 0) + len(chosen)

    # ------------------------------------------------------------ misc

    def step(self, record: BranchRecord) -> tuple[bool, str] | None:
        if record.kind is not BranchKind.COND:
            self.history.push_path(record.ip)
            return None
        indices, tags = self._indices_tags(record.ip)
        taken, _, provider = self.walk(record.ip, indices, tags, record.taken)
        self.retire_history(record)
        return taken, provider

    def replay(self, records: Sequence[BranchRecord]) -> Iterator[tuple[BranchRecord, bool, str]]:
        """step() over every record, yielding (record, predicted, provider)
        per COND record. History comes from retire_trace, so only the table
        walks run per record."""
        walk = self.walk
        for record, indices, tags, _ in self.retire_trace(records):
            taken, _, provider = walk(record.ip, indices, tags, record.taken)
            yield record, taken, provider

    # ------------------------------------------------------------ whole trace

    def retire_trace(
        self, records: Sequence[BranchRecord], window: int = 0
    ) -> Iterator[tuple[BranchRecord, list[int], list[int], int]]:
        """Retire the direction and path history of a whole trace at once.

        In a trace-driven run the history before every branch depends on
        the trace alone. So the table indices and tags that step() would
        hash before each COND record, and the newest ``window`` direction
        bits (bit 0 newest; 0 when ``window`` is 0), are computed for the
        whole trace on lane vectors (see ``history``), TRACE_BLOCK COND
        records at a time. On return the history and the folded registers
        already hold the state after the last record. The returned
        iterator yields (record, indices, tags, window_bits) per COND
        record in order; a walk() per element, in that order, leaves every
        table as step() over each record would.
        """
        h = self.history
        cap = h.capacity
        chunk_bits = GlobalHistory.PATH_CHUNK_BITS
        path_mask = (1 << PATH_MIX_BITS) - 1
        # the path each COND record hashes: the low PATH_MIX_BITS of the
        # path history before it
        conds = []
        paths = []
        path = h.path & path_mask
        for r in records:
            if r.kind is BranchKind.COND:
                conds.append(r)
                paths.append(path)
            path = ((path << chunk_bits) | (r.ip & 0xFFFF)) & path_mask
        n = len(conds)
        directions = [r.taken for r in conds]
        pcs = [r.ip >> 2 for r in conds]
        # the live history, oldest first, then the trace's outcomes
        bits = pack_lanes([(h.bits >> age) & 1 for age in range(cap - 1, -1, -1)] + directions)

        # the state after the last record
        for reg, comp in zip(self._registers(), self._trace_folds(bits >> LANE * n, cap)):
            reg.comp = comp
        h.push_many(directions, [r.ip for r in records[-h.PATH_ENTRIES:]])

        def lookups():
            for lo in range(0, n, TRACE_BLOCK):
                hi = min(lo + TRACE_BLOCK, n)
                # the states before COND lo..hi-1 need cap bits of lookback
                count = cap + hi - lo - 1
                seg = (bits >> LANE * lo) & ((1 << LANE * count) - 1)
                indices, tags = self._trace_hashes(seg, count, pcs[lo:hi], paths[lo:hi])
                if window:
                    windows = unpack_lanes(fold_trace(seg, count, [window], window, cap)[0], hi - lo)
                else:
                    windows = [0] * (hi - lo)
                yield from zip(conds[lo:hi], indices, tags, windows)

        return lookups()

    def _registers(self) -> list[FoldedRegister]:
        """Every fold register, table by table, each table's (fi, f0, f1)."""
        return [reg for regs in self.folds for reg in regs]

    def _trace_folds(self, seg: int, count: int) -> list[int]:
        """The comp of every register of _registers(), one lane vector
        each, after each of the first cap, cap + 1 .. count outcomes of
        ``seg`` (lane-packed, oldest in lane 0), where cap is the history
        capacity; one fold_trace per distinct register width."""
        cap = self.history.capacity
        registers = self._registers()
        rows_of: dict[int, list[int]] = {}
        for row, reg in enumerate(registers):
            rows_of.setdefault(reg.width, []).append(row)
        out = [0] * len(registers)
        for width, rows in rows_of.items():
            folds = fold_trace(seg, count, [registers[r].length for r in rows], width, cap)
            for row, fold in zip(rows, folds):
                out[row] = fold
        return out

    def _trace_hashes(self, seg: int, count: int, pcs: list[int],
                      paths: list[int]) -> tuple[Iterator[list[int]], Iterator[list[int]]]:
        """Table indices and tags, one list of each per COND record, as
        _indices_tags() computes them at each state _trace_folds(seg,
        count) gives; ``pcs`` holds each record's ip >> 2 and ``paths``
        the path history it hashes."""
        m = len(pcs)
        ones = lane_ones(m)
        folds = self._trace_folds(seg, count)
        pc = pack_lanes([p & LANE_MASK for p in pcs])
        path = pack_lanes(paths)
        pfolds = {}
        idx_mask = self._idx_mask * ones
        index_rows = []
        tag_rows = []
        for t, (L, shift, tag_mask) in enumerate(
            zip(self.lengths, self._pc_shifts, self._tag_masks)
        ):
            fi, f0, f1 = folds[3 * t:3 * t + 3]
            pb = min(L, PATH_MIX_BITS)
            if pb not in pfolds:
                pfolds[pb] = fold_history(path, pb, self.index_bits, ones)
            # lane i + 1 shifts into the top bits of lane i, which the index
            # mask drops as long as the index reads no pc bit above the lane
            if shift + self.index_bits <= LANE:
                high = pc >> shift
            else:
                high = pack_lanes([(p >> shift) & LANE_MASK for p in pcs])
            index_rows.append(unpack_lanes((pc ^ high ^ fi ^ pfolds[pb]) & idx_mask, m))
            tag_rows.append(unpack_lanes((pc ^ f0 ^ (f1 << 1)) & tag_mask * ones, m))
        return map(list, zip(*index_rows)), map(list, zip(*tag_rows))

    def allocation_telemetry(self) -> dict[int, AllocationStats]:
        return {
            ip: AllocationStats(self.alloc_total[ip], len(self.alloc_sites[ip]))
            for ip in self.alloc_total
        }

    def storage_bytes(self) -> int:
        return self.config.storage_bytes()

