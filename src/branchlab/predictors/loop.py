"""Loop termination predictor (ensemble component).

Tracks, per tagged entry, the trip count observed at loop exits (the
not-taken retirement of an otherwise taken back edge). Once the same trip
count has been confirmed enough times the component predicts the exit
iteration itself, which a history predictor only manages when the whole
loop body fits inside its history window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import require_pow2

# per-entry field widths, bits: tag 10, past 12, current 12, conf 2, age 3
ENTRY_BITS = 39
_TAG_MASK = (1 << 10) - 1
_MAX_TRIP = (1 << 12) - 1
_FRESH_AGE = 7


@dataclass(slots=True)
class LoopEntry:
    tag: int = -1
    past: int = 0       # confirmed trip count, 0 = not yet learned
    current: int = 0    # taken streak of the in-flight instance
    conf: int = 0
    age: int = 0


class LoopPredictor:
    def __init__(self, entries: int = 64):
        self.entries = require_pow2(entries, "loop entries")
        self._idx_mask = entries - 1
        self._tag_shift = 2 + entries.bit_length() - 1
        self.table = [LoopEntry() for _ in range(entries)]

    def retire(self, ip: int, taken: bool) -> bool | None:
        """The direction a confident entry predicts for this COND
        retirement of ``ip`` (None when no entry is confident), then the
        entry's update with the outcome ``taken``."""
        entry = self.table[(ip >> 2) & self._idx_mask]
        tag = (ip >> self._tag_shift) & _TAG_MASK
        if entry.tag != tag:
            if entry.tag != -1 and entry.age > 0:
                entry.age -= 1
                return None
            # claim the slot; a not-taken first observation gives no streak
            entry.tag = tag
            entry.past = 0
            entry.current = 1 if taken else 0
            entry.conf = 0
            entry.age = _FRESH_AGE
            return None
        past, observed = entry.past, entry.current + 1
        # exit iteration: the (past)th retirement of the instance falls out
        predicted = None if past == 0 or entry.conf < 3 else observed != past
        entry.age = _FRESH_AGE
        if taken:
            entry.current = observed
            if observed > _MAX_TRIP:
                # runaway streak: not loop-shaped, release the entry
                entry.tag = -1
            return predicted
        entry.current = 0
        if past == observed:
            entry.conf = min(3, entry.conf + 1)
        else:
            entry.past = observed
            entry.conf = 1
        return predicted

    def storage_bytes(self) -> int:
        return self.entries * ENTRY_BITS // 8
