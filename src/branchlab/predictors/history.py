"""Global branch history state and the history folds: scalar
(``fold_history``, ``FoldedRegister``) and whole-trace (``fold_trace``).

The whole-trace folds work on lane vectors: one int holds n lanes of
``LANE`` bits, lane i at bits LANE*i onward (``pack_lanes``,
``unpack_lanes``). Shifting the int left by LANE*k moves every lane k
lanes up, so one big-int operation acts on all n lanes at once.
"""

from __future__ import annotations

import sys
from array import array

from ..errors import ArgumentError

LANE = 32
LANE_MASK = (1 << LANE) - 1
# "\0" and "\1" outcomes as the digits of a base-2 literal
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def pack_lanes(values) -> int:
    """One int holding ``values``, each in [0, 2**32), values[i] in lane i."""
    lanes = array("I", values)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


def unpack_lanes(packed: int, n: int) -> array:
    """Lanes 0..n-1 of ``packed``, which has no bit set above them, as an
    ``array("I")``: iterating it makes each lane's int only as it is read,
    with no list of them in between."""
    lanes = array("I")
    lanes.frombytes(packed.to_bytes(LANE // 8 * n, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def lane_ones(n: int) -> int:
    """1 in each of lanes 0..n-1: ``mask * lane_ones(n)`` is ``mask`` in
    every lane."""
    return int.from_bytes(b"\1\0\0\0" * n, "little")


def fold_history(bits: int, length: int, width: int, ones: int = 1) -> int:
    """Compress ``length`` history bits down to ``width`` bits.

    The window is split MSB-first into ceil(length/width) chunks of
    ``width`` bits, the final partial chunk zero-padded on the right, and
    the chunks are XORed together. fold_history(0b1010, 4, 4) == 0b1010;
    fold_history(0b10100110, 8, 4) == 0b1100.

    With ``ones`` from ``lane_ones(n)``, ``bits`` is a lane vector and each
    of its n lanes folds on its own; length and width are then at most LANE.
    """
    if width < 1:
        raise ArgumentError(f"fold width must be >= 1, got {width}")
    if length < 0:
        raise ArgumentError(f"fold length must be >= 0, got {length}")
    bits = bits & ((1 << length) - 1) * ones
    chunk_mask = ((1 << width) - 1) * ones
    acc = 0
    rest = length  # bits not yet folded, the low ones
    while rest >= width:
        rest -= width
        acc ^= (bits >> rest) & chunk_mask
    if rest:
        acc ^= (bits & ((1 << rest) - 1) * ones) << (width - rest)
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


def fold_trace(bits: int, n: int, lengths, width: int, start: int = 0) -> list[int]:
    """Every state of ``FoldedRegister(length, width)``, for each of
    ``lengths``, over a whole direction stream at once.

    ``bits`` holds n 0/1 outcomes, oldest in lane 0. One lane vector is
    returned per length: its lane j is the ``comp`` of a register of that
    length after outcomes 0..start+j-1 were pushed from the all-zero
    state, for start + j in [start, n]. That is the XOR over ages
    a < length of ``bit(a) << (a mod width)``, with outcomes older than
    the stream reading as 0. Chunk c of the register's window (ages
    c*width onward) is the ``width``-bit window as it stood c*width pushes
    earlier, so the XOR of the whole chunks is the difference of two
    prefix XORs taken with stride ``width``; the partial top chunk is one
    masked window.
    """
    if not 1 <= width <= LANE or any(L < 1 for L in lengths):
        raise ArgumentError(
            f"trace fold needs lengths >= 1 and width in [1, {LANE}], got {lengths}, {width}"
        )
    if not 0 <= start <= n:
        raise ArgumentError(f"fold start {start} outside [0, {n}]")
    # zero outcomes standing for the history before the stream, so that
    # every look back of whole chunks from a kept lane stays in the int
    lead = max(0, max((L - L % width for L in lengths), default=0) - start)
    bits <<= LANE * lead
    n += lead
    start += lead
    lanes = n + 1
    full = (1 << LANE * lanes) - 1
    # win lane i: the newest ``width`` outcomes before outcome i, bit 0
    # newest, joined from spans of 1, 2, 4 .. ages. A span shifted up k
    # lanes and k bits covers the k ages after its own.
    win = 0
    have = 0
    span, size = bits << LANE, 1
    while True:
        if width & size:
            win |= span << (LANE + 1) * have
            have += size
        if size * 2 > width:
            break
        span |= span << (LANE + 1) * size
        size *= 2
    win &= full
    # pre lane i: win lane i ^ win lane i - width ^ win lane i - 2*width ..
    pre = win
    if max(lengths, default=0) >= 2 * width:
        stride = width
        while stride < lanes:
            pre = (pre ^ (pre << LANE * stride)) & full
            stride *= 2
    # the kept lanes start .. n, and each length's lanes as many back
    kept = (1 << LANE * (lanes - start)) - 1
    ones = lane_ones(lanes - start)
    now = pre >> LANE * start
    out = []
    for length in lengths:
        chunks, rem = divmod(length, width)
        then = LANE * (start - length + rem)
        if chunks > 1:
            fold = now ^ (pre >> then)
        else:  # one whole chunk is the window itself
            fold = win >> LANE * start if chunks else 0
        if rem:
            fold ^= (win >> then) & ((1 << rem) - 1) * ones
        out.append(fold & kept)
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
        """The state that push_direction over ``directions`` (a list of
        bools or 0/1) and push_path over ``ips``, each in order, would
        leave."""
        # the newest capacity outcomes, oldest first: the digits of an int
        # whose bit 0 is the newest
        newest = directions[-self.capacity:]
        if newest:
            packed = int(bytes(newest).translate(_BIT_DIGITS), 2)
            self.bits = ((self.bits << len(newest)) | packed) & self._mask
        for ip in ips[max(0, len(ips) - self.PATH_ENTRIES):]:
            self.push_path(ip)

    def bit(self, age: int) -> int:
        """Direction bit ``age`` outcomes back (0 == most recent)."""
        return (self.bits >> age) & 1

    def window(self, length: int) -> int:
        """The most recent ``length`` direction bits as an int, bit 0 most
        recent."""
        return self.bits & ((1 << length) - 1)
