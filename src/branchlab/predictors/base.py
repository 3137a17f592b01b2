"""Common conditional-predictor interface.

Every predictor exposes:

* ``step(record) -> (predicted, provider) | None``: predict-then-update for
  one record, returning the prediction made for COND records and the
  component that made it. Non-COND branches may still shift path history;
  only COND records train direction state.
* ``storage_bytes() -> int``: modeled hardware budget of the table state.

A predictor may also expose ``replay(records)``, yielding (record,
predicted, provider) per COND record with the same results and end state
as ``step`` on each record; ``simulate`` uses it when present.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..records import BranchRecord


class ConditionalPredictor:
    name = "predictor"

    def step(self, record: BranchRecord) -> tuple[bool, str] | None:
        raise NotImplementedError

    def storage_bytes(self) -> int:
        raise NotImplementedError


def require_pow2(n: int, what: str) -> int:
    if n < 1 or n & (n - 1):
        raise ConfigError(f"{what} must be a power of two, got {n}")
    return n


def clamp(value: int, lo: int, hi: int) -> int:
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def counter_confidence(counter: int, maximum: int) -> int:
    """Map an unsigned 2-bit counter to confidence: saturated ends are 3,
    weak middle is 0."""
    return 3 if counter in (0, maximum) else 0
