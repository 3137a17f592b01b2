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

import numpy as np

from ..errors import ConfigError
from ..records import BranchKind, BranchRecord
from .base import ConditionalPredictor, clamp, counter_confidence, require_pow2
from .history import GlobalHistory, fold_history, fold_trace

# use-alt heuristic: entry counts as newly allocated for this many updates
FRESH_UPDATES = 4
# path window folded into each index hash, bits (2 path chunks)
PATH_MIX_BITS = 32
# COND records whose indices and tags are computed in one numpy pass
TRACE_BLOCK = 1 << 14
# pc bits kept for the numpy hashes; indices and tags read far fewer
_PC_MASK = (1 << 62) - 1


@dataclass(frozen=True)
class TageConfig:
    """Geometry of a TAGE instance.

    Tag widths default to 8 + i//2 bits for table i, capped at 12. History
    lengths follow L(i) = round(min_hist * r**i) with r solved so the last
    table sits exactly at max_hist.
    """

    num_tagged_tables: int = 12
    entries_per_table: int = 256
    min_hist: int = 4
    max_hist: int = 1000
    base_entries: int = 4096
    counter_bits: int = 3
    useful_bits: int = 2
    tag_widths: tuple[int, ...] | None = None

    def resolved_tag_widths(self) -> tuple[int, ...]:
        if self.tag_widths is not None:
            if len(self.tag_widths) != self.num_tagged_tables:
                raise ConfigError(
                    f"{len(self.tag_widths)} tag widths for {self.num_tagged_tables} tables"
                )
            if any(w < 2 for w in self.tag_widths):
                raise ConfigError("tag widths must be >= 2 bits")
            return self.tag_widths
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
        require_pow2(self.base_entries, "base_entries")
        if self.counter_bits < 2:
            raise ConfigError(f"counter_bits must be >= 2, got {self.counter_bits}")
        if self.useful_bits < 1:
            raise ConfigError(f"useful_bits must be >= 1, got {self.useful_bits}")
        self.resolved_tag_widths()
        self.history_lengths()

    def storage_bytes(self) -> int:
        """Modeled table storage: tag + counter + usefulness bits per tagged
        entry, 2 bits per base entry. Bookkeeping (freshness, telemetry) is
        not hardware state and is excluded."""
        tag_widths = self.resolved_tag_widths()
        bits = sum(
            self.entries_per_table * (w + self.counter_bits + self.useful_bits)
            for w in tag_widths
        )
        bits += self.base_entries * 2
        return bits // 8


# Per-branch lookup results are not frozen: a frozen dataclass spends a few
# microseconds per construction, once per simulated branch.
@dataclass(slots=True)
class TageLookup:
    """Everything one table walk learns about an ip, reused by update()."""

    taken: bool
    conf: int
    provider: int          # tagged table index, -1 = base bimodal
    provider_taken: bool
    provider_weak: bool
    alt_taken: bool
    used_alt: bool
    indices: list[int]
    tags: list[int]
    base_index: int


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
        self.tag_widths = cfg.resolved_tag_widths()
        self.index_bits = cfg.entries_per_table.bit_length() - 1
        self.ctr_min = -(1 << (cfg.counter_bits - 1))
        self.ctr_max = (1 << (cfg.counter_bits - 1)) - 1
        self.u_max = (1 << cfg.useful_bits) - 1
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
        # Folded history registers, stored as parallel int lists and updated
        # inline in retire_history (same math as history.FoldedRegister).
        self._fi_comp = [0] * n
        self._f0_comp = [0] * n
        self._f1_comp = [0] * n
        self._idx_mask = (1 << self.index_bits) - 1
        self._base_mask = cfg.base_entries - 1
        self._longest_first = range(n - 1, -1, -1)
        f1_widths = [max(1, w - 1) for w in self.tag_widths]
        self._tag_masks = [(1 << w) - 1 for w in self.tag_widths]
        self._f1_masks = [(1 << w) - 1 for w in f1_widths]
        self._fold_consts = [
            (
                L - 1,
                L % self.index_bits,
                self.tag_widths[i],
                L % self.tag_widths[i],
                self._tag_masks[i],
                f1_widths[i],
                L % f1_widths[i],
                self._f1_masks[i],
            )
            for i, L in enumerate(self.lengths)
        ]
        # path-fold plans: one chunk list per distinct folded path width
        pbits = [min(L, PATH_MIX_BITS) for L in self.lengths]
        self._pbits_distinct = sorted(set(pbits))
        self._pslot = [self._pbits_distinct.index(p) for p in pbits]
        self._pfold_plans = []
        for pb in self._pbits_distinct:
            plan = []
            consumed = 0
            while consumed < pb:
                take = min(self.index_bits, pb - consumed)
                plan.append((pb - consumed - take, (1 << take) - 1, self.index_bits - take))
                consumed += take
            self._pfold_plans.append(plan)
        self._pc_shifts = [abs(self.index_bits - i) + 1 for i in range(n)]
        # whole-trace folds grouped by width: (register 0=fi 1=f0 2=f1, table, length)
        groups: dict[int, list[tuple[int, int, int]]] = {}
        for i, L in enumerate(self.lengths):
            groups.setdefault(self.index_bits, []).append((0, i, L))
            groups.setdefault(self.tag_widths[i], []).append((1, i, L))
            groups.setdefault(f1_widths[i], []).append((2, i, L))
        self._fold_groups = sorted(groups.items())

    # ------------------------------------------------------------ lookup

    def _indices_tags(self, ip: int) -> tuple[list[int], list[int]]:
        pc = ip >> 2
        idx_mask = self._idx_mask
        path = self.history.path
        pfolds = []
        for plan in self._pfold_plans:
            acc = 0
            for shift, mask, pad in plan:
                acc ^= ((path >> shift) & mask) << pad
            pfolds.append(acc)
        fi = self._fi_comp
        f0 = self._f0_comp
        f1 = self._f1_comp
        pslot = self._pslot
        pc_shifts = self._pc_shifts
        tag_masks = self._tag_masks
        indices = []
        tags = []
        for i in range(len(self.lengths)):
            indices.append((pc ^ (pc >> pc_shifts[i]) ^ fi[i] ^ pfolds[pslot[i]]) & idx_mask)
            tags.append((pc ^ f0[i] ^ (f1[i] << 1)) & tag_masks[i])
        return indices, tags

    def lookup(self, ip: int) -> TageLookup:
        """Pure table walk: longest tag match provides, next longest (or the
        base table) is the alternate."""
        indices, tags = self._indices_tags(ip)
        return self._lookup(ip, indices, tags)

    def _lookup(self, ip: int, indices: list[int], tags: list[int]) -> TageLookup:
        provider = -1
        alt = -1
        table_tags = self.tags
        for i in self._longest_first:
            if table_tags[i][indices[i]] == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alt = i
                    break
        base_index = (ip >> 2) & self._base_mask
        base_ctr = self.base[base_index]
        base_taken = base_ctr >= 2
        if provider < 0:
            return TageLookup(
                taken=base_taken, conf=counter_confidence(base_ctr, 3),
                provider=-1, provider_taken=base_taken, provider_weak=base_ctr in (1, 2),
                alt_taken=base_taken, used_alt=False,
                indices=indices, tags=tags, base_index=base_index,
            )
        ctr = self.ctrs[provider][indices[provider]]
        provider_taken = ctr >= 0
        provider_weak = ctr in (0, -1)
        if alt >= 0:
            alt_ctr = self.ctrs[alt][indices[alt]]
            alt_taken = alt_ctr >= 0
            alt_conf = min(3, abs(2 * alt_ctr + 1) // 2)
        else:
            alt_taken = base_taken
            alt_conf = counter_confidence(base_ctr, 3)
        newly = self.fresh[provider][indices[provider]] > 0
        used_alt = newly and provider_weak
        if used_alt:
            return TageLookup(
                taken=alt_taken, conf=alt_conf,
                provider=provider, provider_taken=provider_taken, provider_weak=provider_weak,
                alt_taken=alt_taken, used_alt=True,
                indices=indices, tags=tags, base_index=base_index,
            )
        return TageLookup(
            taken=provider_taken, conf=min(3, abs(2 * ctr + 1) // 2),
            provider=provider, provider_taken=provider_taken, provider_weak=provider_weak,
            alt_taken=alt_taken, used_alt=False,
            indices=indices, tags=tags, base_index=base_index,
        )

    def predict(self, ip: int) -> tuple[bool, int]:
        info = self.lookup(ip)
        return info.taken, info.conf

    # ------------------------------------------------------------ update

    def update(self, record: BranchRecord, info: TageLookup | None = None) -> None:
        if record.kind is not BranchKind.COND:
            self.history.push_path(record.ip)
            return
        if info is None:
            info = self.lookup(record.ip)
        self.train(record, info)
        self.retire_history(record)

    def train(self, record: BranchRecord, info: TageLookup) -> None:
        """Table updates for a COND outcome; history is retired separately so
        an ensemble can share one GlobalHistory shift per branch."""
        outcome = record.taken
        p = info.provider
        if p >= 0:
            idx = info.indices[p]
            if self.fresh[p][idx] > 0:
                self.fresh[p][idx] -= 1
            if info.provider_taken != info.alt_taken:
                u = self.useful[p][idx]
                self.useful[p][idx] = clamp(u + (1 if info.provider_taken == outcome else -1), 0, self.u_max)
            self.ctrs[p][idx] = clamp(self.ctrs[p][idx] + (1 if outcome else -1), self.ctr_min, self.ctr_max)
            # keep the base trained while a weak provider covers the branch,
            # so fallback after eviction is not stale
            if info.provider_weak:
                self.base[info.base_index] = clamp(self.base[info.base_index] + (1 if outcome else -1), 0, 3)
        else:
            self.base[info.base_index] = clamp(self.base[info.base_index] + (1 if outcome else -1), 0, 3)
        if info.taken != outcome and p < self.config.num_tagged_tables - 1:
            self._allocate(record.ip, info, outcome)

    def retire_history(self, record: BranchRecord) -> None:
        bit = 1 if record.taken else 0
        h = self.history
        hbit = h.bit
        fi = self._fi_comp
        f0 = self._f0_comp
        f1 = self._f1_comp
        iw = self.index_bits
        imask = self._idx_mask
        i = 0
        for age, fi_out, f0w, f0o, f0m, f1w, f1o, f1m in self._fold_consts:
            out = hbit(age)
            c = ((fi[i] << 1) | bit) ^ (out << fi_out)
            c ^= c >> iw
            fi[i] = c & imask
            c = ((f0[i] << 1) | bit) ^ (out << f0o)
            c ^= c >> f0w
            f0[i] = c & f0m
            c = ((f1[i] << 1) | bit) ^ (out << f1o)
            c ^= c >> f1w
            f1[i] = c & f1m
            i += 1
        h.push_direction(record.taken)
        h.push_path(record.ip)

    def _allocate(self, ip: int, info: TageLookup, outcome: bool) -> None:
        start = info.provider + 1
        n = self.config.num_tagged_tables
        candidates = [j for j in range(start, n) if self.useful[j][info.indices[j]] == 0]
        if not candidates:
            # reallocation pressure: age every longer-history entry
            for j in range(start, n):
                idx = info.indices[j]
                if self.useful[j][idx] > 0:
                    self.useful[j][idx] -= 1
            return
        chosen = [self.rng.choice(candidates)]
        if info.provider >= 0 and len(candidates) > 1 and self.rng.random() < 0.5:
            rest = [j for j in candidates if j != chosen[0]]
            chosen.append(self.rng.choice(rest))
        for j in chosen:
            idx = info.indices[j]
            self.tags[j][idx] = info.tags[j]
            self.ctrs[j][idx] = 0 if outcome else -1
            self.useful[j][idx] = 0
            self.fresh[j][idx] = FRESH_UPDATES
            self.alloc_total[ip] = self.alloc_total.get(ip, 0) + 1
            self.alloc_sites.setdefault(ip, set()).add((j, idx))

    # ------------------------------------------------------------ misc

    def step(self, record: BranchRecord) -> tuple[bool, str] | None:
        if record.kind is not BranchKind.COND:
            self.history.push_path(record.ip)
            return None
        info = self.lookup(record.ip)
        self.train(record, info)
        self.retire_history(record)
        return info.taken, provider_name(info)

    def replay(self, records: Sequence[BranchRecord]) -> Iterator[tuple[BranchRecord, bool, str]]:
        """step() over every record, yielding (record, predicted, provider)
        per COND record. History comes from retire_trace, so only the table
        walks and training run per record."""
        for record, indices, tags, _ in self.retire_trace(records):
            info = self._lookup(record.ip, indices, tags)
            self.train(record, info)
            yield record, info.taken, provider_name(info)

    # ------------------------------------------------------------ whole trace

    def retire_trace(
        self, records: Sequence[BranchRecord], window: int = 0
    ) -> Iterator[tuple[BranchRecord, list[int], list[int], int]]:
        """Retire the direction and path history of a whole trace at once.

        In a trace-driven run the history before every branch depends on
        the trace alone. So the table indices and tags that lookup() would
        hash before each COND record, and the newest ``window`` direction
        bits (bit 0 newest; 0 when ``window`` is 0), are computed with
        numpy for the whole trace. On return the history and the folded
        registers already hold the state after the last record. The
        returned iterator yields (record, indices, tags, window_bits) per
        COND record in order; a lookup and train per element, in that
        order, leaves every table as step() over each record would.
        """
        h = self.history
        cap = h.capacity
        chunk_bits = GlobalHistory.PATH_CHUNK_BITS
        ips = [r.ip for r in records]
        cond_at = [i for i, r in enumerate(records) if r.kind is BranchKind.COND]
        conds = [records[i] for i in cond_at]
        n = len(conds)
        directions = np.fromiter((r.taken for r in conds), dtype=np.uint8, count=n)
        # the live history, oldest first, then the trace's outcomes
        live = np.fromiter((h.bit(age) for age in range(cap - 1, -1, -1)), dtype=np.uint8, count=cap)
        bits = np.concatenate([live, directions])
        # the live path chunks, oldest first, then the trace's ips: chunk c
        # (0 newest) before record r sits at r + chunks - 1 - c
        chunks = PATH_MIX_BITS // chunk_bits
        live_path = [(h.path >> (chunk_bits * c)) & 0xFFFF for c in range(chunks - 1, -1, -1)]
        path_ips = np.array(live_path + [ip & 0xFFFF for ip in ips], dtype=np.int64)
        at = np.array(cond_at, dtype=np.int64)
        paths = np.zeros(n, dtype=np.int64)
        for c in range(chunks):
            paths |= path_ips[at + chunks - 1 - c] << (chunk_bits * c)
        pcs = np.array([(r.ip >> 2) & _PC_MASK for r in conds], dtype=np.int64)

        # the state after the last record
        fi, f0, f1 = self._trace_folds(bits[n:])
        self._fi_comp = fi[:, 0].tolist()
        self._f0_comp = f0[:, 0].tolist()
        self._f1_comp = f1[:, 0].tolist()
        h.push_many(directions, ips)

        def lookups():
            for lo in range(0, n, TRACE_BLOCK):
                hi = min(lo + TRACE_BLOCK, n)
                # the states before COND lo..hi-1 need cap bits of lookback
                seg = bits[lo:cap + hi - 1]
                indices, tags = self._trace_hashes(seg, pcs[lo:hi], paths[lo:hi])
                if window:
                    windows = fold_trace(seg, [window], window, cap)[0].tolist()
                else:
                    windows = [0] * (hi - lo)
                yield from zip(conds[lo:hi], indices.T.tolist(), tags.T.tolist(), windows)

        return lookups()

    def _trace_folds(self, seg: np.ndarray) -> tuple[np.ndarray, ...]:
        """Folded registers (fi, f0, f1), one row per table, after each of
        seg[:cap], seg[:cap + 1] .. seg, where cap is the history capacity."""
        cap = self.history.capacity
        regs = tuple(np.empty((len(self.lengths), len(seg) + 1 - cap), dtype=np.int64) for _ in range(3))
        for width, members in self._fold_groups:
            folded = fold_trace(seg, [L for _, _, L in members], width, cap)
            for row, (reg, i, _) in zip(folded, members):
                regs[reg][i] = row
        return regs

    def _trace_hashes(self, seg, pcs, paths) -> tuple[np.ndarray, np.ndarray]:
        """Table indices and tags, one row per table, as _indices_tags()
        computes them at each state _trace_folds(seg) gives."""
        fi, f0, f1 = self._trace_folds(seg)
        pfolds = [fold_history(paths, pb, self.index_bits) for pb in self._pbits_distinct]
        pfold = np.stack([pfolds[slot] for slot in self._pslot])
        shifts = np.array(self._pc_shifts, dtype=np.int64)[:, None]
        indices = (pcs ^ (pcs >> shifts) ^ fi ^ pfold) & self._idx_mask
        tags = (pcs ^ f0 ^ (f1 << 1)) & np.array(self._tag_masks, dtype=np.int64)[:, None]
        return indices, tags

    def allocation_telemetry(self) -> dict[int, AllocationStats]:
        return {
            ip: AllocationStats(self.alloc_total[ip], len(self.alloc_sites[ip]))
            for ip in self.alloc_total
        }

    def storage_bytes(self) -> int:
        return self.config.storage_bytes()


def provider_name(info: TageLookup) -> str:
    """The component that supplied a TAGE prediction: base, alt or tageN."""
    if info.provider < 0:
        return "base"
    return "alt" if info.used_alt else f"tage{info.provider}"
