"""Trace replay: retire a branch stream through a predictor and collect
the per-COND prediction outcomes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..records import BranchRecord


@dataclass(slots=True)
class SimRecord:
    """One COND record's prediction outcome. Not frozen: a frozen
    dataclass costs about four times as much to build, and one is built
    per COND record; no caller hashes or mutates one."""

    seq: int
    ip: int
    predicted: bool
    actual: bool
    provider: str


@dataclass
class MispredictionStream:
    """Per-COND prediction outcomes, in retirement order."""

    records: list[SimRecord]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def mispredictions(self) -> int:
        return sum(1 for r in self.records if r.predicted != r.actual)

    def accuracy(self) -> float | None:
        if not self.records:
            return None
        return 1.0 - self.mispredictions() / len(self.records)

    def to_csv(self) -> str:
        lines = ["seq,ip_hex,predicted,actual,provider"]
        for r in self.records:
            lines.append(
                f"{r.seq},{r.ip:#x},{1 if r.predicted else 0},{1 if r.actual else 0},{r.provider}"
            )
        lines.append("")
        return "\n".join(lines)


def simulate(records: Iterable[BranchRecord], predictor) -> MispredictionStream:
    """Replay ``records`` through ``predictor``; one output element per COND
    record, in order. Deterministic for a fixed (trace, config, seed).

    A predictor with a ``replay(records)`` method (TAGE, TAGE-SC-L)
    computes its history for the whole trace up front; the stream and the
    end state equal those of calling ``step`` on each record."""
    replay = getattr(predictor, "replay", None)
    if replay is not None:
        if not isinstance(records, Sequence):
            records = list(records)
        return MispredictionStream([
            SimRecord(rec.seq, rec.ip, predicted, rec.taken, provider)
            for rec, predicted, provider in replay(records)
        ])
    out: list[SimRecord] = []
    append = out.append
    step = predictor.step
    for rec in records:
        stepped = step(rec)
        if stepped is not None:
            predicted, provider = stepped
            append(SimRecord(rec.seq, rec.ip, predicted, rec.taken, provider))
    return MispredictionStream(out)
