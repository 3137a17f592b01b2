"""Statistical corrector: a perceptron-style arbiter over the TAGE output.

Five signed contributions are summed: the TAGE vote scaled by its
confidence, a per-ip bias weight, and dot products of three small weight
vectors against fixed global-history windows (8, 16, 32 bits). When the
sum disagrees in sign with TAGE and clears a dynamically trained
threshold, the corrector's direction wins. With all weights zero the sum
is exactly the scaled TAGE vote, so a fresh corrector can never override.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .base import clamp, require_pow2

WINDOWS = (8, 16, 32)
# signed weight width, and the dynamic threshold's start and bounds
WEIGHT_BITS = 6
_WMIN = -(1 << (WEIGHT_BITS - 1))
_WMAX = (1 << (WEIGHT_BITS - 1)) - 1
THETA_INIT, THETA_MIN, THETA_MAX = 6, 1, 63
_SHEARS = tuple(3 + k for k in range(len(WINDOWS)))
# _BYTE_BITS[b][j] is bit j of byte b, so a window's bits, LSB first, are
# concatenated byte rows
_BYTE_BITS = tuple(tuple((b >> j) & 1 for j in range(8)) for b in range(256))


@dataclass(frozen=True)
class CorrectorConfig:
    bias_entries: int = 1024
    vector_rows: int = 16

    def validate(self) -> None:
        require_pow2(self.bias_entries, "bias_entries")
        require_pow2(self.vector_rows, "vector_rows")

    def storage_bytes(self) -> int:
        return (self.bias_entries + sum(WINDOWS) * self.vector_rows) * WEIGHT_BITS // 8


# not frozen, like tage.TageLookup: built once per simulated branch
@dataclass(slots=True)
class ScDecision:
    taken: bool
    conf: int
    overrode: bool
    total: int


class StatisticalCorrector:
    def __init__(self, config: CorrectorConfig | None = None):
        cfg = config if config is not None else CorrectorConfig()
        cfg.validate()
        self.config = cfg
        self.bias = [0] * cfg.bias_entries
        self.vectors = [[[0] * w for _ in range(cfg.vector_rows)] for w in WINDOWS]
        self.theta = THETA_INIT
        self._bias_mask = cfg.bias_entries - 1
        self._row_mask = cfg.vector_rows - 1

    def _rows(self, ip: int) -> list[int]:
        pc = ip >> 2
        mask = self._row_mask
        # decorrelate the three banks with different pc shears
        return [(pc ^ (pc >> shear)) & mask for shear in _SHEARS]

    def _sum(self, ip: int, tage_taken: bool, tage_conf: int, history_bits: int) -> int:
        total = (1 if tage_taken else -1) * (2 * tage_conf + 1) * 2
        total += self.bias[(ip >> 2) & self._bias_mask]
        rows = self._rows(ip)
        taken_bits = ()
        for shift in range(0, max(WINDOWS), 8):
            taken_bits += _BYTE_BITS[(history_bits >> shift) & 0xFF]
        # +weight where the history bit is taken, -weight where it is not
        for k in range(len(WINDOWS)):
            vec = self.vectors[k][rows[k]]
            total += 2 * sum(compress(vec, taken_bits)) - sum(vec)
        return total

    def adjust(self, ip: int, tage_taken: bool, tage_conf: int, history_bits: int) -> ScDecision:
        """Pure arbitration; ``history_bits`` carries the most recent
        direction outcomes with bit 0 newest."""
        total = self._sum(ip, tage_taken, tage_conf, history_bits)
        sc_taken = total >= 0
        if sc_taken != tage_taken and abs(total) > self.theta:
            return ScDecision(sc_taken, min(3, abs(total) // (2 * self.theta)), True, total)
        return ScDecision(tage_taken, tage_conf, False, total)

    def train(self, ip: int, tage_taken: bool, history_bits: int,
              decision: ScDecision, outcome: bool) -> None:
        """Weight/threshold update for one outcome; ``decision`` must be the
        adjust() result computed against the same pre-branch history."""
        total = decision.total
        sc_taken = total >= 0
        # dynamic threshold adapts on TAGE/SC disagreements
        if sc_taken != tage_taken:
            if sc_taken == outcome and abs(total) <= self.theta:
                self.theta = max(THETA_MIN, self.theta - 1)
            elif sc_taken != outcome and abs(total) > self.theta:
                self.theta = min(THETA_MAX, self.theta + 1)
        if decision.taken == outcome and abs(total) > self.theta:
            return
        t = 1 if outcome else -1
        b = (ip >> 2) & self._bias_mask
        self.bias[b] = clamp(self.bias[b] + t, _WMIN, _WMAX)
        rows = self._rows(ip)
        for k, w in enumerate(WINDOWS):
            vec = self.vectors[k][rows[k]]
            for j in range(w):
                x = 1 if (history_bits >> j) & 1 else -1
                nw = vec[j] + t * x
                if _WMIN <= nw <= _WMAX:
                    vec[j] = nw

    def storage_bytes(self) -> int:
        return self.config.storage_bytes()
