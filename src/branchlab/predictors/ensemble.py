"""TAGE-SC-L-like ensemble and its budget-driven geometry.

Arbitration order per prediction: a confident loop-predictor hit overrides
everything; otherwise the statistical corrector arbitrates the TAGE output.
Budgets resolve on a power-of-two grid anchored at two reference
geometries: a 12-table/1,000-bit-history class at 8KB and a
15-table/3,000-bit-history class at 64KB. Every anchor multiple keeps the
same storage-to-budget ratio, inside the contracted +-10% band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import ConfigError
from ..records import BranchKind, BranchRecord
from .base import ConditionalPredictor
from .loop import LoopPredictor
from .sc import WINDOWS, CorrectorConfig, StatisticalCorrector
from .tage import Tage, TageConfig, TageLookup, provider_name

_SC_WINDOW = max(WINDOWS)


@dataclass(frozen=True)
class EnsembleConfig:
    tage: TageConfig
    corrector: CorrectorConfig
    loop_entries: int = 64
    budget_bytes: int | None = None

    def storage_bytes(self) -> int:
        from .loop import ENTRY_BITS

        return (
            self.tage.storage_bytes()
            + self.corrector.storage_bytes()
            + self.loop_entries * ENTRY_BITS // 8
        )


def resolve_budget(budget: int | str) -> int:
    if isinstance(budget, str):
        text = budget.strip().lower()
        try:
            if text.endswith("kb"):
                return int(text[:-2]) * 1024
            if text.endswith("b"):
                return int(text[:-1])
            return int(text)
        except ValueError:
            raise ConfigError(f"unparseable storage budget {budget!r}") from None
    return int(budget)


def ensemble_config(budget: int | str = 8192) -> EnsembleConfig:
    """Geometry for a storage budget on the {8KB * 2^k} grid."""
    budget_bytes = resolve_budget(budget)
    if budget_bytes >= 65536:
        anchor, mult = 65536, budget_bytes // 65536
        tables, max_hist = 15, 3000
        entries, base, loop, bias, rows = 2048, 16384, 256, 2048, 64
    elif budget_bytes >= 8192:
        anchor, mult = 8192, budget_bytes // 8192
        tables, max_hist = 12, 1000
        entries, base, loop, bias, rows = 256, 4096, 64, 1024, 16
    else:
        raise ConfigError(f"budget {budget_bytes} bytes below the 8KB floor")
    if anchor * mult != budget_bytes or mult & (mult - 1):
        raise ConfigError(
            f"budget {budget_bytes} bytes is not on the supported 8KB*2^k grid"
        )
    cfg = EnsembleConfig(
        tage=TageConfig(
            num_tagged_tables=tables,
            entries_per_table=entries * mult,
            min_hist=4,
            max_hist=max_hist,
            base_entries=base * mult,
        ),
        corrector=CorrectorConfig(bias_entries=bias * mult, vector_rows=rows * mult),
        loop_entries=loop * mult,
        budget_bytes=budget_bytes,
    )
    estimate = cfg.storage_bytes()
    if not (0.9 * budget_bytes <= estimate <= 1.1 * budget_bytes):
        raise ConfigError(
            f"geometry for {budget_bytes} B lands at {estimate} B, outside the 10% band"
        )
    return cfg


class TageSCL(ConditionalPredictor):
    name = "tage-sc-l"

    def __init__(self, config: EnsembleConfig | None = None, seed: int = 0):
        self.config = config = config or ensemble_config(8192)
        self.tage = Tage(config.tage, seed=seed)
        self.sc = StatisticalCorrector(config.corrector)
        self.loop = LoopPredictor(config.loop_entries)

    def predict(self, ip: int) -> tuple[bool, int]:
        lp = self.loop.lookup(ip)
        if lp.predict_valid:
            return lp.taken, 3
        info = self.tage.lookup(ip)
        d = self.sc.adjust(ip, info.taken, info.conf, self.tage.history.window(_SC_WINDOW))
        return d.taken, d.conf

    def update(self, record: BranchRecord) -> None:
        self.step(record)

    def step(self, record: BranchRecord) -> tuple[bool, str] | None:
        if record.kind is not BranchKind.COND:
            self.tage.history.push_path(record.ip)
            return None
        tage = self.tage
        info = tage.lookup(record.ip)
        out = self._resolve(record, info, tage.history.window(_SC_WINDOW))
        tage.retire_history(record)
        return out

    def replay(self, records: Sequence[BranchRecord]) -> Iterator[tuple[BranchRecord, bool, str]]:
        """step() over every record, yielding (record, predicted, provider)
        per COND record. History comes from Tage.retire_trace, so only the
        table walks and training run per record."""
        tage = self.tage
        for record, indices, tags, history_bits in tage.retire_trace(records, _SC_WINDOW):
            info = tage._lookup(record.ip, indices, tags)
            yield (record, *self._resolve(record, info, history_bits))

    def _resolve(self, record: BranchRecord, info: TageLookup, history_bits: int) -> tuple[bool, str]:
        """Arbitrate one COND record and train every component on it; the
        caller retires its history."""
        d = self.sc.adjust(record.ip, info.taken, info.conf, history_bits)
        lp = self.loop.lookup(record.ip)
        if lp.predict_valid:
            final, provider = lp.taken, "loop"
        elif d.overrode:
            final, provider = d.taken, "sc"
        else:
            final, provider = info.taken, provider_name(info)
        self.loop.update(record)
        self.sc.train(record.ip, info.taken, history_bits, d, record.taken)
        self.tage.train(record, info)
        return final, provider

    def allocation_telemetry(self):
        return self.tage.allocation_telemetry()

    def storage_bytes(self) -> int:
        return self.config.storage_bytes()
