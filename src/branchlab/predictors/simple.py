"""Baseline predictors: static taken, bimodal, gshare."""

from __future__ import annotations

from ..errors import ConfigError
from ..records import BranchKind, BranchRecord
from .base import ConditionalPredictor, clamp, require_pow2
from .history import GlobalHistory, fold_history


class AlwaysTaken(ConditionalPredictor):
    name = "always-taken"

    def step(self, record: BranchRecord) -> tuple[bool, str] | None:
        return (True, self.name) if record.kind is BranchKind.COND else None

    def storage_bytes(self) -> int:
        return 0


class Bimodal(ConditionalPredictor):
    """Per-ip 2-bit saturating counters, direct-mapped. Counters start at 1
    (weakly not taken is 0/1, weakly taken is 2/3; init biases weakly toward
    not taken so the first taken outcome flips the prediction)."""

    name = "bimodal"

    def __init__(self, entries: int = 4096):
        self.entries = require_pow2(entries, "bimodal entries")
        self._mask = entries - 1
        self.table = [1] * entries

    def step(self, record: BranchRecord) -> tuple[bool, str] | None:
        if record.kind is not BranchKind.COND:
            return None
        i = (record.ip >> 2) & self._mask
        c = self.table[i]
        self.table[i] = clamp(c + (1 if record.taken else -1), 0, 3)
        return c >= 2, self.name

    def storage_bytes(self) -> int:
        return self.entries * 2 // 8


class Gshare(ConditionalPredictor):
    """2-bit counters indexed by ip XOR folded global history."""

    name = "gshare"

    def __init__(self, entries: int = 16384, history_length: int | None = None):
        self.entries = require_pow2(entries, "gshare entries")
        self.index_bits = entries.bit_length() - 1
        self.history_length = self.index_bits if history_length is None else history_length
        if self.history_length < 1:
            raise ConfigError(f"gshare history length must be >= 1, got {self.history_length}")
        self._mask = entries - 1
        self.table = [1] * entries
        self.history = GlobalHistory(self.history_length)

    def step(self, record: BranchRecord) -> tuple[bool, str] | None:
        if record.kind is not BranchKind.COND:
            return None
        folded = fold_history(self.history.window(self.history_length),
                              self.history_length, self.index_bits)
        i = ((record.ip >> 2) ^ folded) & self._mask
        c = self.table[i]
        self.table[i] = clamp(c + (1 if record.taken else -1), 0, 3)
        self.history.push_direction(record.taken)
        return c >= 2, self.name

    def storage_bytes(self) -> int:
        return self.entries * 2 // 8
