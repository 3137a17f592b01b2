"""Closed-form pipeline model: algebraic identities, oracles, sweeps."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from branchlab.charax import IpStats
from branchlab.errors import ArgumentError, EmptyTargetError
from branchlab.pipeline import (
    DEFAULT_SCALES,
    OpportunityCurve,
    PipelineModelConfig,
    PredictionOracle,
    effective_mispredictions,
    ipc,
    scaling_sweep,
    storage_sweep,
)
from branchlab.synth import Biased, Periodic, SyntheticProgramSpec, generate_trace

STATS = {
    0x10: IpStats(10_000, 900),
    0x20: IpStats(50, 25),
    0x30: IpStats(400, 80),
}
RAW = 900 + 25 + 80


class TestConfig:
    def test_effective_width_and_penalty(self):
        cfg = PipelineModelConfig(width=4, penalty=20, scale=8)
        assert cfg.effective_width == 32.0
        assert cfg.effective_penalty == 20.0
        deep = PipelineModelConfig(width=4, penalty=20, scale=8, scaled_penalty=True)
        assert deep.effective_penalty == 20 * (1 + 3)
        assert PipelineModelConfig(scaled_penalty=True).effective_penalty == 20.0

    def test_at_scale_preserves_shape(self):
        cfg = PipelineModelConfig(width=6, penalty=14, scaled_penalty=True)
        assert cfg.at_scale(4) == PipelineModelConfig(6, 14, 4, True)

    def test_validation(self):
        for bad in (dict(width=0), dict(penalty=0), dict(scale=0), dict(width=-2)):
            with pytest.raises(ArgumentError):
                PipelineModelConfig(**bad)


class TestIpcAlgebra:
    def test_zero_mispredictions_is_exactly_peak_width(self):
        for w, s in ((4, 1), (4, 8), (6, 32), (1, 1)):
            r = ipc(PipelineModelConfig(width=w, scale=s), 1_000_003, 0)
            assert r.ipc == float(w * s)
            assert r.opportunity == 0.0

    def test_closed_form_values(self):
        r = ipc(PipelineModelConfig(width=4, penalty=20), 1000, 5)
        assert r.cycles == 1000 / 4 + 5 * 20
        assert r.ipc == 1000 / 350.0
        assert r.opportunity == 5 * 20 * 4 / 1000

    @given(
        st.integers(1, 10**9),
        st.integers(0, 10**6),
        st.integers(1, 8),
        st.integers(1, 60),
        st.sampled_from(DEFAULT_SCALES),
    )
    def test_matches_exact_fraction_oracle(self, n, m, w, d, s):
        m = min(m, n)
        r = ipc(PipelineModelConfig(width=w, penalty=d, scale=s), n, m)
        cycles = Fraction(n, w * s) + m * d
        assert math.isclose(r.cycles, float(cycles), rel_tol=1e-12)
        want_ipc = Fraction(w * s) if m == 0 else n / cycles
        assert math.isclose(r.ipc, float(want_ipc), rel_tol=1e-12)
        assert math.isclose(r.opportunity, float(Fraction(m * d * w * s, n)), rel_tol=1e-12)

    @given(st.integers(1, 10**6), st.booleans())
    def test_opportunity_strictly_increases_with_scale(self, m, scaled_penalty):
        n = 10_000_000
        m = min(m, n)
        base = PipelineModelConfig(scaled_penalty=scaled_penalty)
        opps = [ipc(base.at_scale(s), n, m).opportunity for s in DEFAULT_SCALES]
        if m == 0:
            assert opps == [0.0] * len(DEFAULT_SCALES)
        else:
            assert all(b > a for a, b in zip(opps, opps[1:]))

    def test_opportunity_matches_its_definition(self):
        # (IPC_perfect - IPC) / IPC reproduces the closed form
        cfg = PipelineModelConfig(width=4, penalty=20, scale=4)
        r = ipc(cfg, 123_457, 391)
        perfect = ipc(cfg, 123_457, 0).ipc
        assert math.isclose((perfect - r.ipc) / r.ipc, r.opportunity, rel_tol=1e-12)

    def test_validation(self):
        cfg = PipelineModelConfig()
        with pytest.raises(ArgumentError):
            ipc(cfg, 0, 0)
        with pytest.raises(ArgumentError):
            ipc(cfg, 100, -1)
        with pytest.raises(ArgumentError):
            ipc(cfg, 100, 101)


class TestOracles:
    def test_effective_counts_per_kind(self):
        assert effective_mispredictions(STATS, PredictionOracle.as_simulated()) == RAW
        assert effective_mispredictions(STATS, PredictionOracle.perfect_all()) == 0
        assert effective_mispredictions(STATS, PredictionOracle.perfect_set({0x10})) == 105
        assert effective_mispredictions(STATS, PredictionOracle.perfect_set({0x99})) == RAW
        # rare branches keep their mispredictions; warm ones are perfected
        assert effective_mispredictions(STATS, PredictionOracle.perfect_min_execs(400)) == 105
        assert effective_mispredictions(STATS, PredictionOracle.perfect_min_execs(0)) == 0

    def test_labels(self):
        assert PredictionOracle.perfect_min_execs(64).label == "perfect-min-execs:64"
        assert PredictionOracle.perfect_set({1}).label == "perfect-set"

    def test_validation(self):
        with pytest.raises(ArgumentError):
            PredictionOracle("perfect-some")
        with pytest.raises(ArgumentError):
            PredictionOracle("perfect-min-execs", cutoff=-1)

    def test_set_decomposition_is_exact_on_counts(self):
        # perfecting each cell of a partition removes that cell's count;
        # the removals sum back to the raw total, exactly
        partition = [{0x10}, {0x20}, {0x30}]
        removed = [
            RAW - effective_mispredictions(STATS, PredictionOracle.perfect_set(a))
            for a in partition
        ]
        assert sum(removed) == RAW


class TestScalingSweep:
    def sweep(self, oracles=()):
        return scaling_sweep(
            PipelineModelConfig(), DEFAULT_SCALES, 1_000_000, STATS, oracles
        )

    def test_grid_shape_and_builtin_oracles(self):
        curve = self.sweep()
        assert isinstance(curve, OpportunityCurve)
        assert curve.raw_mispredictions == RAW
        assert len(curve.points) == len(DEFAULT_SCALES) * 2
        labels = {p.oracle for p in curve.points}
        assert labels == {"as-simulated", "perfect-all"}

    def test_builtin_oracles_not_duplicated(self):
        curve = self.sweep([PredictionOracle.as_simulated(), PredictionOracle.perfect_set({0x10})])
        per_scale = [p for p in curve.points if p.scale == 1]
        assert [p.oracle for p in per_scale] == ["as-simulated", "perfect-all", "perfect-set"]

    def test_share_is_erased_fraction(self):
        curve = self.sweep([PredictionOracle.perfect_set({0x10})])
        assert curve.at(4, "as-simulated").share == 0.0
        assert curve.at(4, "perfect-all").share == 1.0
        assert curve.at(4, "perfect-set").share == 900 / RAW
        assert curve.at(4, "perfect-set").mispredictions == 105

    def test_zero_raw_shares_are_zero(self):
        curve = scaling_sweep(
            PipelineModelConfig(), (1, 2), 1000, {0x10: IpStats(10, 0)}
        )
        assert all(p.share == 0.0 for p in curve.points)
        assert all(p.ipc == p.scale * 4.0 for p in curve.points)

    def test_perfect_rows_hit_peak_width(self):
        curve = self.sweep()
        for s in DEFAULT_SCALES:
            p = curve.at(s, "perfect-all")
            assert p.ipc == 4.0 * s
            assert p.opportunity == 0.0

    def test_lookup_miss_raises(self):
        with pytest.raises(KeyError):
            self.sweep().at(3, "as-simulated")

    def test_empty_scales_rejected(self):
        with pytest.raises(ArgumentError):
            scaling_sweep(PipelineModelConfig(), (), 1000, STATS)


@pytest.fixture(scope="module")
def branch_trace():
    spec = SyntheticProgramSpec(
        behaviors=(
            Periodic(ip=0x400100, pattern="TTNTNTT"),
            Biased(ip=0x400200, p_taken=0.85),
        ),
        filler_density=0.3,
    )
    records, _ = generate_trace(spec, seed=5, length=4000)
    return [r.to_branch() for r in records if r.is_branch]


class TestStorageSweep:
    def test_points_reproducible_from_exposed_counts(self, branch_trace):
        result = storage_sweep(branch_trace, budgets=(8192, 65536), scales=(1, 4))
        n = result.instructions
        assert n == branch_trace[-1].seq + 1
        m_anchor = result.mispredictions_by_budget[8192]
        cfg = PipelineModelConfig()
        for p in result.points:
            m = result.mispredictions_by_budget[p.budget_bytes]
            assert p.mispredictions == m
            r = ipc(cfg.at_scale(p.scale), n, m)
            assert p.ipc == r.ipc
            anchor_ipc = ipc(cfg.at_scale(p.scale), n, m_anchor).ipc
            gap = cfg.at_scale(p.scale).effective_width - anchor_ipc
            want = 0.0 if gap <= 0 else (p.ipc - anchor_ipc) / gap
            assert p.captured_fraction == want

    def test_anchor_budget_captures_nothing(self, branch_trace):
        result = storage_sweep(branch_trace, budgets=(8192,), scales=(2,))
        assert result.points[0].captured_fraction == 0.0

    def test_anchor_simulated_even_when_not_requested(self, branch_trace):
        result = storage_sweep(branch_trace, budgets=(65536,), scales=(1,))
        assert 8192 in result.mispredictions_by_budget
        assert result.anchor_budget == 8192

    def test_accuracy_lookup(self, branch_trace):
        result = storage_sweep(branch_trace, budgets=(8192,), scales=(1,))
        acc = result.accuracy_of(8192)
        assert 0.0 <= acc <= 1.0
        with pytest.raises(KeyError):
            result.accuracy_of(4096)

    def test_deterministic(self, branch_trace):
        a = storage_sweep(branch_trace, budgets=(8192,), scales=(1, 2), seed=3)
        b = storage_sweep(branch_trace, budgets=(8192,), scales=(1, 2), seed=3)
        assert a == b

    def test_validation(self, branch_trace):
        with pytest.raises(ArgumentError):
            storage_sweep(branch_trace, budgets=())
        with pytest.raises(ArgumentError):
            storage_sweep(branch_trace, scales=())
        with pytest.raises(EmptyTargetError):
            storage_sweep([])
