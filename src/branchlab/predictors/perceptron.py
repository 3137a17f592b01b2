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
from .base import ConditionalPredictor, clamp, require_pow2
from .history import GlobalHistory


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
        self._wmin = -(1 << (weight_bits - 1))
        self._wmax = (1 << (weight_bits - 1)) - 1
        # weights[row] = [bias, w_1 .. w_n]; w_i pairs with the outcome i
        # branches back
        self.weights = [[0] * (history_length + 1) for _ in range(rows)]
        self.history = GlobalHistory(history_length)

    def _row(self, ip: int) -> int:
        return (ip >> 2) & (self.rows - 1)

    def _output(self, ip: int) -> int:
        w = self.weights[self._row(ip)]
        bits = self.history.window(self.history_length)
        y = w[0]
        for i in range(1, self.history_length + 1):
            if (bits >> (i - 1)) & 1:
                y += w[i]
            else:
                y -= w[i]
        return y

    def predict(self, ip: int) -> tuple[bool, int]:
        y = self._output(ip)
        conf = min(3, 3 * abs(y) // self.theta)
        return y >= 0, conf

    def update(self, record: BranchRecord) -> None:
        if record.kind is not BranchKind.COND:
            return
        y = self._output(record.ip)
        predicted = y >= 0
        t = 1 if record.taken else -1
        if predicted != record.taken or abs(y) <= self.theta:
            w = self.weights[self._row(record.ip)]
            bits = self.history.window(self.history_length)
            w[0] = clamp(w[0] + t, self._wmin, self._wmax)
            for i in range(1, self.history_length + 1):
                x = 1 if (bits >> (i - 1)) & 1 else -1
                w[i] = clamp(w[i] + t * x, self._wmin, self._wmax)
        self.history.push_direction(record.taken)

    def storage_bytes(self) -> int:
        return self.rows * (self.history_length + 1) * self.weight_bits // 8
