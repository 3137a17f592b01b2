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
from .sc import WINDOWS, CorrectorConfig, StatisticalCorrector, mirror
from .tage import Tage, TageConfig

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


def resolve_budget(budget: str) -> int:
    """Bytes of a budget string: ``8kb`` (x1024), ``8192b`` or ``8192``."""
    text = budget.strip().lower()
    try:
        if text.endswith("kb"):
            return int(text[:-2]) * 1024
        if text.endswith("b"):
            return int(text[:-1])
        return int(text)
    except ValueError:
        raise ConfigError(f"unparseable storage budget {budget!r}") from None


def ensemble_config(budget_bytes: int = 8192) -> EnsembleConfig:
    """Geometry for a storage budget on the {8KB * 2^k} grid."""
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

    def step(self, record: BranchRecord) -> tuple[bool, str] | None:
        tage = self.tage
        if record.kind is not BranchKind.COND:
            tage.history.push_path(record.ip)
            return None
        indices, tags = tage._indices_tags(record.ip)
        item = (record, indices, tags, tage.history.window(_SC_WINDOW))
        _, predicted, provider = next(self._kernel((item,)))
        tage.retire_history(record)
        return predicted, provider

    def replay(self, records: Sequence[BranchRecord]) -> Iterator[tuple[BranchRecord, bool, str]]:
        """step() over every record, yielding (record, predicted, provider)
        per COND record. History comes from Tage.retire_trace, so only the
        table walks and training run per record."""
        return self._kernel(self.tage.retire_trace(records, _SC_WINDOW))

    def _kernel(self, items) -> Iterator[tuple[BranchRecord, bool, str]]:
        """Predict and train every component on each COND record of
        ``items``, (record, TAGE indices, TAGE tags, newest direction bits)
        in retirement order, yielding (record, predicted, provider); the
        caller retires the history. A confident loop entry overrides
        everything; otherwise the corrector arbitrates the TAGE output.
        The components share no state, so TAGE trains first: the corrector
        needs only its (taken, conf)."""
        walk = self.tage.walk
        decide, sc_train = self.sc.decide, self.sc.train
        loop_retire = self.loop.retire
        for record, indices, tags, history_bits in items:
            ip, outcome = record.ip, record.taken
            tage_taken, conf, provider = walk(ip, indices, tags, outcome)
            history = mirror(history_bits)
            total, overrode = decide(ip, tage_taken, conf, history)
            predicted = loop_retire(ip, outcome)
            if predicted is not None:
                provider = "loop"
            elif overrode:
                predicted, provider = not tage_taken, "sc"
            else:
                predicted = tage_taken
            sc_train(ip, tage_taken, history, total, overrode, outcome)
            yield record, predicted, provider

    def allocation_telemetry(self):
        return self.tage.allocation_telemetry()

    def storage_bytes(self) -> int:
        return self.config.storage_bytes()
