"""Global branch history state and the history folds: scalar
(``fold_history``, ``FoldedRegister``) and whole-trace (``fold_trace``)."""

from __future__ import annotations

import numpy as np

from ..errors import ArgumentError


def fold_history(bits: int, length: int, width: int) -> int:
    """Compress ``length`` history bits down to ``width`` bits.

    The window is split MSB-first into ceil(length/width) chunks of
    ``width`` bits, the final partial chunk zero-padded on the right, and
    the chunks are XORed together. fold_history(0b1010, 4, 4) == 0b1010;
    fold_history(0b10100110, 8, 4) == 0b1100.
    """
    if width < 1:
        raise ArgumentError(f"fold width must be >= 1, got {width}")
    if length < 0:
        raise ArgumentError(f"fold length must be >= 0, got {length}")
    bits = bits & ((1 << length) - 1)
    acc = 0
    consumed = 0
    while consumed < length:
        take = min(width, length - consumed)
        chunk = (bits >> (length - consumed - take)) & ((1 << take) - 1)
        acc ^= chunk << (width - take)
        consumed += take
    return acc


class FoldedRegister:
    """Rolling ``width``-bit compression of the most recent ``length``
    direction bits, updated in O(1) per branch instead of refolding the
    whole window."""

    __slots__ = ("length", "width", "comp", "_outpoint", "_mask")

    def __init__(self, length: int, width: int):
        if width < 1 or length < 1:
            raise ArgumentError("folded register needs length >= 1 and width >= 1")
        self.length = length
        self.width = width
        self.comp = 0
        self._outpoint = length % width
        self._mask = (1 << width) - 1

    def update(self, new_bit: int, out_bit: int) -> None:
        comp = (self.comp << 1) | new_bit
        comp ^= out_bit << self._outpoint
        comp ^= comp >> self.width
        self.comp = comp & self._mask


def fold_trace(bits, lengths, width: int, start: int = 0) -> np.ndarray:
    """Every state of ``FoldedRegister(length, width)``, for each of
    ``lengths``, over a whole direction stream at once.

    ``bits`` holds 0/1 outcomes, oldest first. Row r, entry j of the
    result is the ``comp`` of a register of length ``lengths[r]`` after
    ``bits[:start + j]`` were pushed from the all-zero state, for
    ``start + j`` in [start, len(bits)]: the XOR over ages a < length of
    ``bit(a) << (a mod width)``, with bits older than the stream reading
    as 0. Chunk c of the window (ages c*width onward) is the
    ``width``-bit window as it stood c*width pushes earlier, so the XOR
    of the whole chunks is the difference of two prefix XORs taken with
    stride ``width``; the partial top chunk is one masked window.
    """
    if not 1 <= width <= 62 or any(L < 1 for L in lengths):
        raise ArgumentError(
            f"trace fold needs lengths >= 1 and width in [1, 62], got {lengths}, {width}"
        )
    n = len(bits)
    if not 0 <= start <= n:
        raise ArgumentError(f"fold start {start} outside [0, {n}]")
    # zero bits standing for the empty history before the stream
    lead = max(lengths, default=0) // width * width + width
    ext = np.zeros(lead + n, dtype=np.int64)
    ext[lead:] = np.asarray(bits, dtype=np.int64)
    total = len(ext)
    # win[i]: the newest ``width`` bits before ext[i], bit 0 newest
    win = np.zeros(total + 1, dtype=np.int64)
    for age in range(width):
        win[age + 1:] |= ext[:total - age] << age
    # pre[i] = win[i] ^ win[i - width] ^ win[i - 2*width] ^ ...
    pad = (-len(win)) % width
    pre = np.concatenate([win, np.zeros(pad, dtype=np.int64)]).reshape(-1, width)
    pre = np.bitwise_xor.accumulate(pre, axis=0).ravel()
    out = np.empty((len(lengths), n + 1 - start), dtype=np.int64)
    now = slice(lead + start, lead + n + 1)
    for row, length in enumerate(lengths):
        chunks, rem = divmod(length, width)
        back = chunks * width
        then = slice(now.start - back, now.stop - back)
        out[row] = pre[now] ^ pre[then]
        if rem:
            out[row] ^= win[then] & ((1 << rem) - 1)
    return out


class GlobalHistory:
    """Direction and path history shared by history-based predictors.

    The newest ``capacity`` directions are one int, ``bits``, with bit 0
    the newest; older and unwritten history reads as 0 (not taken). Path
    history keeps the low 16 bits of the last PATH_ENTRIES branch ips,
    newest in the low chunk.
    """

    __slots__ = ("capacity", "bits", "path", "_mask")

    PATH_CHUNK_BITS = 16
    PATH_ENTRIES = 4
    _PATH_MASK = (1 << (PATH_ENTRIES * PATH_CHUNK_BITS)) - 1

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ArgumentError(f"history capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.bits = 0
        self.path = 0
        self._mask = (1 << capacity) - 1

    def push_direction(self, taken: bool) -> None:
        self.bits = ((self.bits << 1) | (1 if taken else 0)) & self._mask

    def push_path(self, ip: int) -> None:
        self.path = ((self.path << self.PATH_CHUNK_BITS) | (ip & 0xFFFF)) & self._PATH_MASK

    def push_many(self, directions, ips) -> None:
        """The state that push_direction over ``directions`` and push_path
        over ``ips``, each in order, would leave."""
        # the newest capacity outcomes, newest first: bit 0 when packed LSB-first
        newest = np.asarray(directions, dtype=np.uint8)[::-1][:self.capacity]
        packed = np.packbits(newest, bitorder="little").tobytes()
        self.bits = ((self.bits << len(newest)) | int.from_bytes(packed, "little")) & self._mask
        for ip in ips[max(0, len(ips) - self.PATH_ENTRIES):]:
            self.push_path(ip)

    def bit(self, age: int) -> int:
        """Direction bit ``age`` outcomes back (0 == most recent)."""
        return (self.bits >> age) & 1

    def window(self, length: int) -> int:
        """The most recent ``length`` direction bits as an int, bit 0 most
        recent."""
        return self.bits & ((1 << length) - 1)
