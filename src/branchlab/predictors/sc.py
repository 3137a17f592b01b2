"""Statistical corrector: a perceptron-style arbiter over the TAGE output.

Five signed contributions are summed: the TAGE vote scaled by its
confidence, a per-ip bias weight, and dot products of three small weight
vectors against fixed global-history windows (8, 16, 32 bits). When the
sum disagrees in sign with TAGE and clears a dynamically trained
threshold, the corrector's direction wins. With all weights zero the sum
is exactly the scaled TAGE vote, so a fresh corrector can never override.

The bias weights are a list of signed ints. The three vectors of one
prediction are one packed row of ``LAYOUT`` (``packed.FieldLayout``): 56
fields of 12 bits, each holding a 6-bit weight plus 32. The 8-bit
window's weights sit in fields 0-7, the 16-bit window's in fields 8-23
and the 32-bit window's in fields 24-55. Each bank stores its rows
already shifted to its own fields, so the row of a prediction is the OR
of one row of each bank. The history's mirror over those fields is the
OR of one ``_BYTE_MIRRORS`` entry per history byte; the dot product of
the row against it is one multiply, and one packed step trains all 56
weights. A step skips a weight that would leave [-32, 31], which for +-1
steps is the packed step's saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import clamp, require_pow2
from .packed import FieldLayout

WINDOWS = (8, 16, 32)
# signed weight width, and the dynamic threshold's start and bounds
WEIGHT_BITS = 6
_WMIN = -(1 << (WEIGHT_BITS - 1))
_WMAX = (1 << (WEIGHT_BITS - 1)) - 1
THETA_INIT, THETA_MIN, THETA_MAX = 6, 1, 63
# the pc shear that decorrelates each bank's row index
_SHEARS = tuple(3 + k for k in range(len(WINDOWS)))

LAYOUT = FieldLayout(WEIGHT_BITS, sum(WINDOWS))
# the first field of each window
_OFFSETS = tuple(sum(WINDOWS[:k]) for k in range(len(WINDOWS)))
# every bit of each bank's fields
_BANK_FIELDS = tuple(
    LAYOUT.fields(w) << (LAYOUT.width * off) for w, off in zip(WINDOWS, _OFFSETS)
)


# _BYTE_MIRRORS[k][b]: the mirror of history byte k holding b, in every
# window that holds the byte (each window is whole bytes); the byte's
# fields in different windows do not overlap, so one multiply places
# every copy
_BYTE_MIRRORS = tuple(
    tuple(LAYOUT.mirror(b, 8) * copies for b in range(256))
    for copies in (
        sum(1 << (LAYOUT.width * (off + 8 * k)) for w, off in zip(WINDOWS, _OFFSETS) if w > 8 * k)
        for k in range(max(WINDOWS) // 8)
    )
)


def mirror(history_bits: int) -> int:
    """The mirror of the newest 32 direction bits (bit 0 newest) over the
    fields of every window: bit j reaches field offset + j of each window
    longer than j."""
    t0, t1, t2, t3 = _BYTE_MIRRORS
    return (t0[history_bits & 0xFF] | t1[history_bits >> 8 & 0xFF]
            | t2[history_bits >> 16 & 0xFF] | t3[history_bits >> 24 & 0xFF])


@dataclass(frozen=True)
class CorrectorConfig:
    bias_entries: int = 1024
    vector_rows: int = 16

    def validate(self) -> None:
        require_pow2(self.bias_entries, "bias_entries")
        require_pow2(self.vector_rows, "vector_rows")

    def storage_bytes(self) -> int:
        return (self.bias_entries + sum(WINDOWS) * self.vector_rows) * WEIGHT_BITS // 8


class StatisticalCorrector:
    """The corrector's state: ``bias`` holds signed weights, ``banks[k]``
    the packed rows of window k, and ``theta`` the threshold."""

    def __init__(self, config: CorrectorConfig | None = None):
        cfg = config if config is not None else CorrectorConfig()
        cfg.validate()
        self.config = cfg
        self.bias = [0] * cfg.bias_entries
        zero = LAYOUT.pack([0] * LAYOUT.count)
        self.banks = [[zero & fields] * cfg.vector_rows for fields in _BANK_FIELDS]
        self.theta = THETA_INIT
        self._bias_mask = cfg.bias_entries - 1
        self._row_mask = cfg.vector_rows - 1

    def _rows(self, pc: int) -> tuple[int, int, int]:
        """Each bank's row index; the pc shears decorrelate the banks."""
        mask = self._row_mask
        s0, s1, s2 = _SHEARS
        return (pc ^ pc >> s0) & mask, (pc ^ pc >> s1) & mask, (pc ^ pc >> s2) & mask

    def decide(self, ip: int, tage_taken: bool, tage_conf: int, history: int) -> tuple[int, bool]:
        """The sum for one prediction, and whether it overrides TAGE: it
        disagrees with TAGE in sign and its magnitude clears theta.
        ``history`` is ``mirror`` of the newest directions. Changes no
        state."""
        pc = ip >> 2
        r0, r1, r2 = self._rows(pc)
        b0, b1, b2 = self.banks
        vote = 4 * tage_conf + 2
        total = (
            (vote if tage_taken else -vote)
            + self.bias[pc & self._bias_mask]
            + LAYOUT.dot(b0[r0] | b1[r1] | b2[r2], history)
        )
        sc_taken = total >= 0
        return total, sc_taken != tage_taken and abs(total) > self.theta

    def train(self, ip: int, tage_taken: bool, history: int,
              total: int, overrode: bool, outcome: bool) -> None:
        """Theta and weight update for one outcome, given what decide()
        returned for the same ip and history."""
        sc_taken = total >= 0
        magnitude = abs(total)
        theta = self.theta
        # the dynamic threshold adapts on TAGE/SC disagreements
        if sc_taken != tage_taken:
            if sc_taken == outcome and magnitude <= theta:
                theta = self.theta = max(THETA_MIN, theta - 1)
            elif sc_taken != outcome and magnitude > theta:
                theta = self.theta = min(THETA_MAX, theta + 1)
        if (sc_taken if overrode else tage_taken) == outcome and magnitude > theta:
            return
        pc = ip >> 2
        bias = self.bias
        b = pc & self._bias_mask
        bias[b] = clamp(bias[b] + (1 if outcome else -1), _WMIN, _WMAX)
        r0, r1, r2 = self._rows(pc)
        b0, b1, b2 = self.banks
        row = LAYOUT.step(b0[r0] | b1[r1] | b2[r2], history, outcome)
        f0, f1, f2 = _BANK_FIELDS
        b0[r0] = row & f0
        b1[r1] = row & f1
        b2[r2] = row & f2

    def storage_bytes(self) -> int:
        return self.config.storage_bytes()
