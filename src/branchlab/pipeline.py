"""Analytic pipeline model: mispredictions to IPC and opportunity.

The model is deliberately simple and closed-form: a machine that retires
W*s instructions per cycle when fetch is on the correct path and pays a
fixed D-cycle flush per misprediction,

    cycles = N / (W*s) + M * D
    IPC    = N / cycles

"Opportunity" is the relative IPC gain from making every misprediction
disappear: (IPC_perfect - IPC) / IPC = M * D * W * s / N. Prediction
oracles rewrite M to model perfect prediction of chosen branch subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .charax import IpStats, per_ip_totals
from .defaults import DEFAULT_PENALTY, DEFAULT_SCALES, DEFAULT_WIDTH
from .errors import ArgumentError, EmptyTargetError
from .records import BranchRecord


@dataclass(frozen=True)
class PipelineModelConfig:
    """Analytic machine: base retire width, flush penalty, scale factor.

    scaled_penalty makes the flush cost grow with scale as
    D * (1 + log2 s), a crude stand-in for deeper scaled pipelines."""

    width: int = DEFAULT_WIDTH
    penalty: int = DEFAULT_PENALTY
    scale: int = 1
    scaled_penalty: bool = False

    def __post_init__(self):
        if self.width <= 0 or self.penalty <= 0 or self.scale <= 0:
            raise ArgumentError("width, penalty, and scale must all be positive")

    def at_scale(self, scale: int) -> "PipelineModelConfig":
        return PipelineModelConfig(self.width, self.penalty, scale, self.scaled_penalty)

    @property
    def effective_width(self) -> float:
        return float(self.width * self.scale)

    @property
    def effective_penalty(self) -> float:
        if self.scaled_penalty and self.scale > 1:
            return self.penalty * (1.0 + math.log2(self.scale))
        return float(self.penalty)


@dataclass(frozen=True)
class PredictionOracle:
    """Which mispredictions count: all of them, none, all but a chosen ip
    set, or only those from ips at or below an execution-count cutoff."""

    kind: str                                  # as-simulated | perfect-all | perfect-set | perfect-min-execs
    ips: frozenset[int] = frozenset()
    cutoff: int = 0

    _KINDS = ("as-simulated", "perfect-all", "perfect-set", "perfect-min-execs")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ArgumentError(f"unknown oracle kind {self.kind!r}")
        if self.cutoff < 0:
            raise ArgumentError("execution cutoff must be >= 0")

    @property
    def label(self) -> str:
        if self.kind == "perfect-min-execs":
            return f"perfect-min-execs:{self.cutoff}"
        return self.kind

    @staticmethod
    def as_simulated() -> "PredictionOracle":
        return PredictionOracle("as-simulated")

    @staticmethod
    def perfect_all() -> "PredictionOracle":
        return PredictionOracle("perfect-all")

    @staticmethod
    def perfect_set(ips: Iterable[int]) -> "PredictionOracle":
        return PredictionOracle("perfect-set", ips=frozenset(ips))

    @staticmethod
    def perfect_min_execs(cutoff: int) -> "PredictionOracle":
        return PredictionOracle("perfect-min-execs", cutoff=cutoff)


def effective_mispredictions(stats: Mapping[int, IpStats], oracle: PredictionOracle) -> int:
    """Misprediction count that survives the oracle's rewriting."""
    if oracle.kind == "as-simulated":
        return sum(s.mispredictions for s in stats.values())
    if oracle.kind == "perfect-all":
        return 0
    if oracle.kind == "perfect-set":
        return sum(s.mispredictions for ip, s in stats.items() if ip not in oracle.ips)
    return sum(
        s.mispredictions for s in stats.values() if s.executions <= oracle.cutoff
    )


@dataclass(frozen=True)
class IpcResult:
    """One evaluation of the closed-form model."""

    instructions: int
    mispredictions: int
    cycles: float
    ipc: float
    opportunity: float      # (IPC_perfect - IPC) / IPC at this config


def ipc(config: PipelineModelConfig, instructions: int, mispredictions: int) -> IpcResult:
    if instructions < 1:
        raise ArgumentError("instruction count must be >= 1")
    if not 0 <= mispredictions <= instructions:
        raise ArgumentError("misprediction count must lie in [0, instructions]")
    ws = config.effective_width
    d = config.effective_penalty
    cycles = instructions / ws + mispredictions * d
    if mispredictions == 0:
        result_ipc = ws
    else:
        result_ipc = instructions / cycles
    opportunity = mispredictions * d * ws / instructions
    return IpcResult(instructions, mispredictions, cycles, result_ipc, opportunity)


@dataclass(frozen=True)
class OpportunityPoint:
    """One (scale, oracle) grid cell of a scaling sweep.

    share is the fraction of the as-simulated opportunity this oracle
    removes; under the linear model it equals the fraction of raw
    mispredictions the oracle erases."""

    scale: int
    oracle: str
    mispredictions: int
    ipc: float
    opportunity: float
    share: float


@dataclass(frozen=True)
class OpportunityCurve:
    instructions: int
    raw_mispredictions: int
    points: tuple[OpportunityPoint, ...]

    def __iter__(self):
        return iter(self.points)

    def at(self, scale: int, oracle_label: str) -> OpportunityPoint:
        for p in self.points:
            if p.scale == scale and p.oracle == oracle_label:
                return p
        raise KeyError((scale, oracle_label))


def at_scales(config: PipelineModelConfig, scales: Sequence[int]) -> list[PipelineModelConfig]:
    """``config`` at each of ``scales``, which must be a non-empty list."""
    if not scales:
        raise ArgumentError("scale list is empty")
    return [config.at_scale(s) for s in scales]


def scaling_sweep(
    config: PipelineModelConfig,
    scales: Sequence[int],
    instructions: int,
    stats: Mapping[int, IpStats],
    oracles: Sequence[PredictionOracle] = (),
) -> OpportunityCurve:
    """Evaluate IPC and opportunity for every (scale, oracle) pair.

    The as-simulated and perfect-all oracles are always included; extra
    oracles are appended in the order given."""
    machines = at_scales(config, scales)
    base = [PredictionOracle.as_simulated(), PredictionOracle.perfect_all()]
    labels = {o.label for o in base}
    ordered = base + [o for o in oracles if o.label not in labels]
    raw = effective_mispredictions(stats, PredictionOracle.as_simulated())
    points = []
    for s, cfg in zip(scales, machines):
        for oracle in ordered:
            m = effective_mispredictions(stats, oracle)
            r = ipc(cfg, instructions, m)
            share = 0.0 if raw == 0 else (raw - m) / raw
            points.append(
                OpportunityPoint(s, oracle.label, m, r.ipc, r.opportunity, share)
            )
    return OpportunityCurve(instructions, raw, tuple(points))


@dataclass(frozen=True)
class StoragePoint:
    """One (budget, scale) cell of a storage sweep: simulated accuracy and
    the fraction of the anchor-to-perfect IPC gap the budget captures."""

    budget_bytes: int
    scale: int
    mispredictions: int
    accuracy: float
    ipc: float
    captured_fraction: float


@dataclass(frozen=True)
class StorageSweepResult:
    instructions: int
    anchor_budget: int
    points: tuple[StoragePoint, ...]
    mispredictions_by_budget: dict[int, int] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.points)

    def accuracy_of(self, budget: int) -> float:
        for p in self.points:
            if p.budget_bytes == budget:
                return p.accuracy
        raise KeyError(budget)


def storage_sweep(
    records: Sequence[BranchRecord],
    budgets: Sequence[int] = (8192, 65536),
    scales: Sequence[int] = DEFAULT_SCALES,
    config: PipelineModelConfig | None = None,
    total_instructions: int | None = None,
    anchor_budget: int = 8192,
    seed: int = 0,
) -> StorageSweepResult:
    """Simulate the ensemble at each storage budget and score each budget's
    IPC against the gap between the anchor budget and perfect prediction."""
    from .predictors import TageSCL, ensemble_config, simulate

    if not budgets:
        raise ArgumentError("budget list is empty")
    machines = at_scales(PipelineModelConfig() if config is None else config, scales)
    records = list(records)
    if not records:
        raise EmptyTargetError("trace holds no branch records")
    if total_instructions is None:
        total_instructions = records[-1].seq + 1

    mis_by_budget: dict[int, int] = {}
    acc_by_budget: dict[int, float] = {}
    # every budget's geometry first, so an off-grid budget simulates none
    geometries = {b: ensemble_config(b) for b in sorted(set(budgets) | {anchor_budget})}
    for budget, geometry in geometries.items():
        stream = simulate(records, TageSCL(geometry, seed=seed))
        if not stream:
            raise EmptyTargetError("trace holds no COND branches")
        mis_by_budget[budget] = stream.mispredictions()
        acc_by_budget[budget] = stream.accuracy()

    points = []
    m_anchor = mis_by_budget[anchor_budget]
    for budget in budgets:
        m = mis_by_budget[budget]
        for s, cfg in zip(scales, machines):
            r = ipc(cfg, total_instructions, m)
            anchor_ipc = ipc(cfg, total_instructions, m_anchor).ipc
            perfect_ipc = cfg.effective_width
            gap = perfect_ipc - anchor_ipc
            captured = 0.0 if gap <= 0 else (r.ipc - anchor_ipc) / gap
            points.append(
                StoragePoint(budget, s, m, acc_by_budget[budget], r.ipc, captured)
            )
    return StorageSweepResult(
        total_instructions, anchor_budget, tuple(points), mis_by_budget
    )
