"""Global-history perceptron predictor.

One signed weight per history position plus a bias weight, per ip-hashed
row. Output y = bias + sum(w_i * x_i) with x_i = +1 for taken history and
-1 for not taken; predict taken iff y >= 0. Rows train on a misprediction
or whenever |y| is below the threshold theta = floor(1.93 * n + 14).
"""

from __future__ import annotations

import math

from ..errors import ConfigError
from ..records import BranchKind, BranchRecord
from .base import ConditionalPredictor, require_pow2
from .history import GlobalHistory
from .packed import FieldLayout


class Perceptron(ConditionalPredictor):
    name = "perceptron"

    def __init__(self, history_length: int = 28, rows: int = 256, weight_bits: int = 8):
        if history_length < 1:
            raise ConfigError(f"history length must be >= 1, got {history_length}")
        require_pow2(rows, "rows")
        if weight_bits < 2:
            raise ConfigError(f"weight bits must be >= 2, got {weight_bits}")
        self.history_length = history_length
        self.rows = rows
        self.weight_bits = weight_bits
        self.theta = math.floor(1.93 * history_length + 14)
        # weights[row] packs [bias, w_1 .. w_n]; w_i pairs with the outcome
        # i branches back
        self.layout = FieldLayout(weight_bits, history_length + 1)
        self.weights = [self.layout.pack([0] * (history_length + 1))] * rows
        self.history = GlobalHistory(history_length)

    def _row(self, ip: int) -> int:
        return (ip >> 2) & (self.rows - 1)

    def step(self, record: BranchRecord) -> tuple[bool, str] | None:
        if record.kind is not BranchKind.COND:
            return None
        layout = self.layout
        row = self._row(record.ip)
        packed = self.weights[row]
        # history bit i - 1 feeds field i; the bias's field 0 reads +1
        history = layout.mirror(self.history.bits, self.history_length) << layout.width
        y = layout.dot(packed, history)
        predicted = y >= 0
        taken = record.taken
        if predicted != taken or abs(y) <= self.theta:
            self.weights[row] = layout.step(packed, history, taken)
        self.history.push_direction(taken)
        return predicted, self.name

    def storage_bytes(self) -> int:
        return self.rows * (self.history_length + 1) * self.weight_bits // 8
