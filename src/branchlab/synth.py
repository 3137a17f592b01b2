"""Seeded synthetic trace generator with planted ground truth.

A SyntheticProgramSpec plants branch behaviors at chosen ips; the generator
interleaves them (weighted, seeded) among filler instructions and returns
both the instruction trace and a PlantedManifest declaring what was planted
where, with the difficulty class each behavior is expected to land in.
Downstream analyses are validated against that manifest.

Every planted conditional is emitted as an atomic [register write, branch]
pair: the branch reads the register its producer just wrote, so every COND
satisfies the reads-something invariant without sharing dataflow across
behaviors (each write is a fresh value instance). The DataDependent
behavior is the exception by design: its branch reads a dedicated walking
register that an optional planted gate branch also reads, and the branch
itself retires a bounded random number of scheduler events after the write,
so dependency-analysis positions vary.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import ArgumentError
from .records import BranchKind, InstructionRecord, TraceMeta

EASY = "EASY"
H2P = "H2P"
RARE = "RARE"

COND_REG = 250      # shared condition register for self-contained behaviors
FILLER_REG = 255
_TARGET_DELTA = 0x40
_JUMP_IPS = (0x7000010, 0x7000020, 0x7000030, 0x7000040)
_JUMP_FRACTION = 0.04   # fraction of filler slots emitted as UNCOND jumps


# ---------------------------------------------------------------- behaviors

@dataclass(frozen=True)
class Periodic:
    """Deterministic repeating direction pattern ('T'/'N' string)."""

    ip: int
    pattern: str
    kind = "periodic"

    def validate(self) -> None:
        if len(self.pattern) < 1 or set(self.pattern) - {"T", "N"}:
            raise ArgumentError(f"pattern must be a nonempty T/N string, got {self.pattern!r}")

    def klass(self) -> str:
        return EASY if len(self.pattern) <= 32 else H2P


@dataclass(frozen=True)
class Biased:
    """Independent Bernoulli directions with fixed taken probability."""

    ip: int
    p_taken: float
    kind = "biased"

    def validate(self) -> None:
        if not (0.0 <= self.p_taken <= 1.0):
            raise ArgumentError(f"p_taken must be in [0,1], got {self.p_taken}")

    def klass(self) -> str:
        return EASY if self.p_taken >= 0.99 or self.p_taken <= 0.01 else H2P


@dataclass(frozen=True)
class HistoryCorrelated:
    """Direction = XOR of earlier global COND directions at the given
    positions (1 = most recent prior COND)."""

    ip: int
    positions: tuple[int, ...]
    kind = "history"

    def validate(self) -> None:
        if not self.positions:
            raise ArgumentError("positions must be non-empty")
        if any(p < 1 or p > 64 for p in self.positions):
            raise ArgumentError(f"positions must lie in [1,64], got {self.positions}")

    def klass(self) -> str:
        # positions a short exact-match table reaches are easily learned
        return EASY if max(self.positions) <= 6 else H2P


@dataclass(frozen=True)
class DataDependent:
    """Taken iff a seeded bounded random walk sits at/above threshold.

    The walk value is written to ``reg`` (a fresh write per execution), the
    branch reads ``reg``, and retires 0..max_gap scheduler events later.
    When gate_ip is set, a second planted branch reading the same write is
    emitted right after the write: an upstream dependency branch.
    """

    ip: int
    reg: int = 0
    threshold: int = 128
    half_range: int = 16
    max_step: int = 4
    max_gap: int = 6
    gate_ip: int | None = None
    kind = "data"

    def validate(self) -> None:
        if not (0 <= self.reg < 256):
            raise ArgumentError(f"reg must be in [0,256), got {self.reg}")
        if self.half_range < 1 or self.max_step < 1 or self.max_gap < 0:
            raise ArgumentError("half_range/max_step must be >= 1, max_gap >= 0")
        if self.threshold - self.half_range < 0:
            raise ArgumentError("walk range must stay non-negative")

    def klass(self) -> str:
        return H2P


@dataclass(frozen=True)
class LoopExit:
    """Back edge taken trip-1 times then not taken once, repeatedly."""

    ip: int
    trip: int
    kind = "loop"

    def validate(self) -> None:
        if self.trip < 2:
            raise ArgumentError(f"trip must be >= 2, got {self.trip}")

    def klass(self) -> str:
        return EASY


@dataclass(frozen=True)
class RarePool:
    """A pool of static ips executed with zipfian frequency and iid biased
    directions; the long tail supplies rare branches."""

    count: int
    exponent: float
    bias: float = 0.5
    base_ip: int = 0x5000000
    stride: int = 16
    kind = "rare_pool"

    def validate(self) -> None:
        if self.count < 1:
            raise ArgumentError(f"pool count must be >= 1, got {self.count}")
        if self.exponent <= 0:
            raise ArgumentError(f"zipf exponent must be > 0, got {self.exponent}")
        if not (0.0 <= self.bias <= 1.0):
            raise ArgumentError(f"bias must be in [0,1], got {self.bias}")
        if self.stride < 4:
            raise ArgumentError(f"stride must be >= 4, got {self.stride}")

    def ips(self) -> range:
        return range(self.base_ip, self.base_ip + self.count * self.stride, self.stride)

    def klass(self) -> str:
        return RARE


Behavior = Union[Periodic, Biased, HistoryCorrelated, DataDependent, LoopExit, RarePool]


# ---------------------------------------------------------------- spec

@dataclass(frozen=True)
class SyntheticProgramSpec:
    behaviors: tuple[Behavior, ...]
    weights: tuple[float, ...] | None = None
    filler_density: float = 0.5

    def validate(self) -> None:
        if not self.behaviors:
            raise ArgumentError("spec needs at least one behavior")
        for b in self.behaviors:
            b.validate()
        if self.weights is not None:
            if len(self.weights) != len(self.behaviors):
                raise ArgumentError(
                    f"{len(self.weights)} weights for {len(self.behaviors)} behaviors"
                )
            if any(w <= 0 for w in self.weights):
                raise ArgumentError("weights must be positive")
        if not (0.0 <= self.filler_density < 1.0):
            raise ArgumentError(f"filler_density must be in [0,1), got {self.filler_density}")
        seen: set[int] = set()
        pool_ips: list[range] = []
        for b in self.behaviors:
            if isinstance(b, RarePool):
                pool_ips.append(b.ips())
                continue
            ips = [b.ip]
            if isinstance(b, DataDependent) and b.gate_ip is not None:
                ips.append(b.gate_ip)
            for ip in ips:
                if ip in seen:
                    raise ArgumentError(f"planted ip {ip:#x} is not unique")
                seen.add(ip)
        for rng_ in pool_ips:
            for ip in seen:
                if ip in rng_:
                    raise ArgumentError(f"planted ip {ip:#x} collides with a rare pool")


# ---------------------------------------------------------------- manifest

@dataclass(frozen=True)
class PlantedEntry:
    behavior: Behavior
    klass: str
    role: str = "branch"   # "gate" for a DataDependent upstream gate


@dataclass(frozen=True)
class PoolInfo:
    base_ip: int
    stride: int
    count: int
    exponent: float
    bias: float

    def __contains__(self, ip: int) -> bool:
        off = ip - self.base_ip
        return 0 <= off < self.count * self.stride and off % self.stride == 0


@dataclass(frozen=True)
class PlantedManifest:
    planted: dict[int, PlantedEntry]
    pools: tuple[PoolInfo, ...]
    meta: TraceMeta

    def expected_class(self, ip: int) -> str | None:
        entry = self.planted.get(ip)
        if entry is not None:
            return entry.klass
        if any(ip in pool for pool in self.pools):
            return RARE
        return None

    def ips_of_class(self, klass: str, role: str = "branch") -> list[int]:
        return sorted(
            ip for ip, e in self.planted.items() if e.klass == klass and e.role == role
        )

    def to_json_dict(self) -> dict:
        return {
            "seed": self.meta.seed,
            "instructions": self.meta.instructions,
            "cond_branches": self.meta.cond_branches,
            "planted": {
                f"{ip:#x}": {
                    "class": e.klass,
                    "role": e.role,
                    "behavior": _behavior_to_json(e.behavior),
                }
                for ip, e in sorted(self.planted.items())
            },
            "pools": [
                {
                    "base_ip": f"{p.base_ip:#x}",
                    "stride": p.stride,
                    "count": p.count,
                    "exponent": p.exponent,
                    "bias": p.bias,
                }
                for p in self.pools
            ],
        }


# ---------------------------------------------------------------- json spec

_BEHAVIOR_KINDS = {
    "periodic": Periodic,
    "biased": Biased,
    "history": HistoryCorrelated,
    "data": DataDependent,
    "loop": LoopExit,
    "rare_pool": RarePool,
}


def _parse_ip(value) -> int:
    try:
        return int(value, 16) if isinstance(value, str) else int(value)
    except (TypeError, ValueError):
        raise ArgumentError(f"bad ip {value!r} (use hex like '0x400100')") from None


def _behavior_to_json(b: Behavior) -> dict:
    obj: dict = {"kind": b.kind}
    for f in fields(b):
        value = getattr(b, f.name)
        if value is None:
            continue
        if f.name in ("ip", "gate_ip", "base_ip"):
            value = f"{value:#x}"
        elif f.name == "positions":
            value = list(value)
        obj[f.name] = value
    return obj


def behavior_from_json(obj: dict) -> Behavior:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    cls = _BEHAVIOR_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ArgumentError(f"unknown behavior kind {kind!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in obj:
            continue
        value = obj[f.name]
        if f.name in ("ip", "gate_ip", "base_ip"):
            value = _parse_ip(value)
        elif f.name == "positions":
            try:
                value = tuple(int(p) for p in value)
            except (TypeError, ValueError):
                raise ArgumentError(f"bad {kind} behavior: positions must be integers") from None
        # f.type is the annotation's text: this module postpones annotations
        elif f.type in ("int", "float") and not isinstance(value, (int, float)):
            raise ArgumentError(f"bad {kind} behavior: {f.name} must be a number, got {value!r}")
        elif f.type == "str" and not isinstance(value, str):
            raise ArgumentError(f"bad {kind} behavior: {f.name} must be a string, got {value!r}")
        kwargs[f.name] = value
    try:
        behavior = cls(**kwargs)
    except TypeError as e:
        raise ArgumentError(f"bad {kind} behavior: {e}") from None
    return behavior


def program_spec_from_json(obj: dict) -> SyntheticProgramSpec:
    if not isinstance(obj, dict) or not isinstance(obj.get("behaviors"), list):
        raise ArgumentError("program spec JSON needs a 'behaviors' list")
    behaviors = tuple(behavior_from_json(b) for b in obj["behaviors"])
    try:
        weights = tuple(float(w) for w in obj["weights"]) if obj.get("weights") else None
        filler_density = float(obj.get("filler_density", 0.5))
    except (TypeError, ValueError):
        raise ArgumentError("spec weights and filler_density must be numbers") from None
    spec = SyntheticProgramSpec(behaviors=behaviors, weights=weights, filler_density=filler_density)
    spec.validate()
    return spec


def program_spec_to_json(spec: SyntheticProgramSpec) -> dict:
    obj: dict = {"behaviors": [_behavior_to_json(b) for b in spec.behaviors]}
    if spec.weights is not None:
        obj["weights"] = list(spec.weights)
    obj["filler_density"] = spec.filler_density
    return obj


# ---------------------------------------------------------------- rng plumbing

class _Stream:
    """Buffered draws from one seeded bit generator; keeps the per-event
    cost at numpy-array rates while staying a pure function of the seed."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed & ((1 << 64) - 1))
        self._u = np.empty(0)
        self._ui = 0

    def uniform(self) -> float:
        if self._ui >= len(self._u):
            self._u = self._rng.random(8192)
            self._ui = 0
        v = self._u[self._ui]
        self._ui += 1
        return float(v)

    def randint(self, n: int) -> int:
        """Uniform int in [0, n)."""
        return int(self.uniform() * n)

    def choice_stream(self, weights: np.ndarray):
        """Factory for buffered weighted index draws."""
        rng = self._rng
        buf: list[int] = []

        def draw() -> int:
            nonlocal buf
            if not buf:
                buf = rng.choice(len(weights), size=4096, p=weights).tolist()
            return buf.pop()

        return draw


# ---------------------------------------------------------------- generator

class _BehaviorState:
    __slots__ = ("behavior", "phase", "value", "busy", "loop_i", "draw_rank", "executed")

    def __init__(self, behavior: Behavior):
        self.behavior = behavior
        self.phase = 0
        self.value = behavior.threshold if isinstance(behavior, DataDependent) else 0
        self.busy = False
        self.loop_i = 0
        self.draw_rank = None
        self.executed = False


def _unit_cost(b: Behavior) -> int:
    if isinstance(b, DataDependent):
        return 2 + (1 if b.gate_ip is not None else 0)   # write [+ gate] + branch
    return 2


def generate_trace(
    spec: SyntheticProgramSpec, seed: int, length: int
) -> tuple[list[InstructionRecord], PlantedManifest]:
    """Deterministic instruction trace of exactly ``length`` records plus
    the manifest of planted behaviors. Raises ArgumentError when ``length``
    cannot fit every planted behavior at least once."""
    spec.validate()
    if length < 1:
        raise ArgumentError(f"length must be >= 1, got {length}")
    min_needed = sum(_unit_cost(b) for b in spec.behaviors) + 2
    if length < min_needed:
        raise ArgumentError(
            f"length {length} cannot plant {len(spec.behaviors)} behaviors "
            f"(needs >= {min_needed})"
        )

    stream = _Stream(seed)
    states = [_BehaviorState(b) for b in spec.behaviors]
    for st in states:
        if isinstance(st.behavior, RarePool):
            ranks = np.arange(1, st.behavior.count + 1, dtype=np.float64)
            weights = ranks ** (-st.behavior.exponent)
            weights /= weights.sum()
            st.draw_rank = stream.choice_stream(weights)

    raw_weights = spec.weights or tuple(1.0 for _ in spec.behaviors)
    cum_weights = []
    acc = 0.0
    for w in raw_weights:
        acc += w
        cum_weights.append(acc)
    total_weight = acc

    out: list[InstructionRecord] = []
    cond_history: list[bool] = []   # most recent first, capped
    pending: list[list] = []        # [due_event, state, ip, reg, taken]
    event = 0
    cond_count = 0
    jump_cycle = 0

    def emit_filler() -> None:
        nonlocal jump_cycle
        seq = len(out)
        if stream.uniform() < _JUMP_FRACTION:
            ip = _JUMP_IPS[jump_cycle % len(_JUMP_IPS)]
            jump_cycle += 1
            out.append(
                InstructionRecord(
                    seq=seq, ip=ip, is_branch=True, kind=BranchKind.UNCOND,
                    target=ip + _TARGET_DELTA, taken=True,
                )
            )
        else:
            out.append(
                InstructionRecord(seq=seq, ip=0x7000000, regs_written=((FILLER_REG, seq),))
            )

    def emit_cond(ip: int, taken: bool, reads: frozenset[int]) -> None:
        nonlocal cond_count
        out.append(
            InstructionRecord(
                seq=len(out), ip=ip, is_branch=True, kind=BranchKind.COND,
                target=ip + _TARGET_DELTA, taken=taken, regs_read=reads,
            )
        )
        cond_count += 1
        cond_history.insert(0, taken)
        if len(cond_history) > 64:
            cond_history.pop()

    def emit_producer(ip: int, reg: int, value: int) -> None:
        out.append(InstructionRecord(seq=len(out), ip=ip, regs_written=((reg, value),)))

    def fire_pending(entry: list) -> None:
        _, st, ip, reg, taken = entry
        emit_cond(ip, taken, frozenset((reg,)))
        st.busy = False
        st.executed = True

    def run_unit(st: _BehaviorState) -> None:
        b = st.behavior
        seq = len(out)
        if isinstance(b, Periodic):
            emit_producer(b.ip - 4, COND_REG, seq)
            emit_cond(b.ip, b.pattern[st.phase] == "T", frozenset((COND_REG,)))
            st.phase = (st.phase + 1) % len(b.pattern)
            st.executed = True
        elif isinstance(b, Biased):
            emit_producer(b.ip - 4, COND_REG, seq)
            emit_cond(b.ip, stream.uniform() < b.p_taken, frozenset((COND_REG,)))
            st.executed = True
        elif isinstance(b, HistoryCorrelated):
            emit_producer(b.ip - 4, COND_REG, seq)
            bits = [cond_history[p - 1] if p - 1 < len(cond_history) else False
                    for p in b.positions]
            taken = bool(sum(bits) & 1)
            emit_cond(b.ip, taken, frozenset((COND_REG,)))
            st.executed = True
        elif isinstance(b, LoopExit):
            emit_producer(b.ip - 4, COND_REG, seq)
            st.loop_i += 1
            taken = st.loop_i < b.trip
            if not taken:
                st.loop_i = 0
            emit_cond(b.ip, taken, frozenset((COND_REG,)))
            st.executed = True
        elif isinstance(b, DataDependent):
            v = st.value + stream.randint(2 * b.max_step + 1) - b.max_step
            lo, hi = b.threshold - b.half_range, b.threshold + b.half_range
            if v > hi:
                v = 2 * hi - v
            elif v < lo:
                v = 2 * lo - v
            st.value = v
            taken = v >= b.threshold
            emit_producer(b.ip - 4, b.reg, v)
            if b.gate_ip is not None:
                emit_cond(b.gate_ip, taken, frozenset((b.reg,)))
            pending.append([event + stream.randint(b.max_gap + 1), st, b.ip, b.reg, taken])
            st.busy = True
        elif isinstance(b, RarePool):
            rank = st.draw_rank()
            ip = b.base_ip + rank * b.stride
            emit_producer(b.base_ip - 4, COND_REG, seq)
            emit_cond(ip, stream.uniform() < b.bias, frozenset((COND_REG,)))
            st.executed = True
        else:  # pragma: no cover - exhaustive over Behavior
            raise AssertionError(type(b))

    while len(out) < length:
        event += 1
        # retire due deferred branches first, oldest first
        while pending and len(out) < length:
            due = min(pending, key=lambda e: e[0])
            if due[0] > event:
                break
            pending.remove(due)
            fire_pending(due)
        if len(out) >= length:
            break
        remaining = length - len(out)
        unexecuted = [st for st in states if not st.executed and not st.busy]
        reserve = sum(_unit_cost(st.behavior) + 1 for st in unexecuted) + len(pending)
        if remaining <= reserve + 4:
            # end game: flush deferred branches, force-plant anything unseen
            for entry in sorted(pending, key=lambda e: e[0]):
                if len(out) >= length:
                    break
                pending.remove(entry)
                fire_pending(entry)
            for st in unexecuted:
                if length - len(out) < _unit_cost(st.behavior) + 1:
                    break
                run_unit(st)
                for entry in list(pending):
                    if entry[1] is st and len(out) < length:
                        pending.remove(entry)
                        fire_pending(entry)
            while len(out) < length:
                emit_filler()
            break
        if stream.uniform() < spec.filler_density:
            emit_filler()
            continue
        pick = bisect_right(cum_weights, stream.uniform() * total_weight)
        st = states[min(pick, len(states) - 1)]
        if st.busy or _unit_cost(st.behavior) > remaining:
            emit_filler()
            continue
        run_unit(st)

    never = [st.behavior.ip for st in states
             if not st.executed and not isinstance(st.behavior, RarePool)]
    if never:
        raise ArgumentError(
            f"length {length} too small to execute planted ips "
            + ", ".join(f"{ip:#x}" for ip in never)
        )

    planted: dict[int, PlantedEntry] = {}
    pools: list[PoolInfo] = []
    for b in spec.behaviors:
        if isinstance(b, RarePool):
            pools.append(PoolInfo(b.base_ip, b.stride, b.count, b.exponent, b.bias))
            continue
        planted[b.ip] = PlantedEntry(b, b.klass())
        if isinstance(b, DataDependent) and b.gate_ip is not None:
            planted[b.gate_ip] = PlantedEntry(b, H2P, role="gate")
    meta = TraceMeta(
        format="IT1", instructions=len(out), records=len(out),
        cond_branches=cond_count, seed=seed,
    )
    return out, PlantedManifest(planted=planted, pools=tuple(pools), meta=meta)
