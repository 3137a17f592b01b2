"""Signed saturating weights packed as biased fields of one int.

A ``FieldLayout(weight_bits, count)`` packs ``count`` signed weights of
``weight_bits`` bits: weight i plus ``bias`` = 2**(weight_bits - 1) sits
in field i, ``width`` bits wide, so every field holds a value in
[0, top] with top = 2**weight_bits - 1. The width leaves room for the sum
of all fields and for one carry bit above each.

A +-1 history operand is its *mirror*: ``top`` in every field whose input
is -1 (a not-taken history bit), 0 in every field whose input is +1.
XOR with the mirror turns field f into top - f where the input is -1,
and one multiply by a ones pattern sums every field of the result. For
a field f = w + bias, w = f - bias and -w = (top - f) - bias + 1, so
``dot`` is that sum, minus count * bias, plus one per -1 input; the
mirror's bit count is weight_bits per -1 input.

``step`` moves every weight by +-1 at once, saturating at the signed
bounds: fields that move down are mirrored, so every field moves up; one
is added to each field; a field that reached 2**weight_bits (one past
top) falls back to top; the mirror is undone. For +-1 steps, "skip a
weight that would leave the bounds" and "clamp" are the same rule.
"""

from __future__ import annotations

from typing import Sequence


class FieldLayout:
    __slots__ = (
        "weight_bits", "count", "width", "bias",
        "_ones", "_full", "_high", "_sum_shift", "_field", "_bytes",
    )

    def __init__(self, weight_bits: int, count: int):
        self.weight_bits = weight_bits
        self.count = count
        self.bias = 1 << (weight_bits - 1)
        top = (1 << weight_bits) - 1
        self.width = width = max(weight_bits + 1, (count * top).bit_length())
        self._ones = sum(1 << (width * i) for i in range(count))
        self._full = self._ones * top
        self._high = self._ones << weight_bits
        self._sum_shift = width * (count - 1)
        self._field = (1 << width) - 1
        # the mirror of each history byte, fields 0-7
        self._bytes = [
            sum(top << (width * j) for j in range(8) if not b >> j & 1) for b in range(256)
        ]

    def pack(self, weights: Sequence[int]) -> int:
        return sum((w + self.bias) << (self.width * i) for i, w in enumerate(weights))

    def unpack(self, packed: int) -> list[int]:
        width, field, bias = self.width, self._field, self.bias
        return [(packed >> (width * i) & field) - bias for i in range(self.count)]

    def fields(self, n: int) -> int:
        """Every bit of fields 0..n-1."""
        return (1 << (self.width * n)) - 1

    def mirror(self, bits: int, length: int) -> int:
        """The mirror of history ``bits``, bit j to field j for j < length."""
        out = 0
        table, span = self._bytes, 8 * self.width
        for k in range(0, length, 8):
            out |= table[bits >> k & 0xFF] << (span * (k >> 3))
        return out & self.fields(length)

    def dot(self, packed: int, mirror: int) -> int:
        """sum(w_i * x_i) over the packed weights w and the +-1 inputs x."""
        total = (packed ^ mirror) * self._ones >> self._sum_shift & self._field
        return total - self.count * self.bias + mirror.bit_count() // self.weight_bits

    def step(self, packed: int, mirror: int, up: bool) -> int:
        """Every weight moved by +x_i if ``up``, else by -x_i, each held
        inside [-bias, bias - 1]."""
        if not up:
            mirror ^= self._full
        moved = (packed ^ mirror) + self._ones
        return (moved - ((moved & self._high) >> self.weight_bits)) ^ mirror
