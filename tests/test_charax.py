"""Characterization statistics: slicing, screening, ranking, rare bins,
recurrence. Derived quantities are checked against independent oracles."""

import math

import pytest
from hypothesis import given, strategies as st

from branchlab.charax import (
    H2PCriteria,
    IpStats,
    accumulate_slice_stats,
    decade_bin,
    h2p_report,
    heavy_hitters,
    per_ip_totals,
    rare_bins,
    recurrence_intervals,
    screen_h2p,
)
from branchlab.errors import ArgumentError
from branchlab.predictors import MispredictionStream, SimRecord
from branchlab.records import BranchKind, BranchRecord


def sim_stream(rows):
    """rows: (seq, ip, predicted, actual)."""
    return MispredictionStream([SimRecord(s, ip, p, a, "x") for s, ip, p, a in rows])


stats_tables = st.dictionaries(
    st.integers(0, 1 << 20),
    st.builds(
        lambda e, m: IpStats(e, min(m, e)),
        st.integers(1, 40_000),
        st.integers(0, 40_000),
    ),
    max_size=60,
)


class TestIpStats:
    def test_accuracy(self):
        assert IpStats(100, 25).accuracy == 0.75
        assert IpStats(0, 0).accuracy == 1.0


class TestPerIpTotals:
    def test_counts_match_hand_tally(self):
        stream = sim_stream([
            (0, 0x10, True, True),
            (1, 0x10, True, False),
            (2, 0x20, False, False),
            (3, 0x10, False, False),
        ])
        totals = per_ip_totals(stream)
        assert totals[0x10] == IpStats(3, 1)
        assert totals[0x20] == IpStats(1, 0)


class TestSliceAccumulation:
    def test_record_lands_in_seq_slice(self):
        stream = sim_stream([(5, 0x10, True, False), (10, 0x10, True, True), (25, 0x20, True, False)])
        slices = accumulate_slice_stats(stream, total_instructions=30, slice_len=10)
        assert len(slices) == 3
        assert slices[0].stats(0x10) == IpStats(1, 1)
        assert slices[1].stats(0x10) == IpStats(1, 0)
        assert slices[2].stats(0x20) == IpStats(1, 1)

    def test_partial_final_slice_flagged(self):
        stream = sim_stream([(0, 0x10, True, True)])
        slices = accumulate_slice_stats(stream, total_instructions=25, slice_len=10)
        assert [s.partial for s in slices] == [False, False, True]
        exact = accumulate_slice_stats(stream, total_instructions=20, slice_len=10)
        assert [s.partial for s in exact] == [False, False]

    def test_short_total_rejected(self):
        stream = sim_stream([(100, 0x10, True, True)])
        with pytest.raises(ArgumentError):
            accumulate_slice_stats(stream, total_instructions=50, slice_len=10)

    @given(
        st.lists(
            st.tuples(st.integers(0, 999), st.sampled_from([0x10, 0x20, 0x30]),
                      st.booleans(), st.booleans()),
            max_size=200, unique_by=lambda r: r[0],
        ),
        st.integers(1, 400),
    )
    def test_conservation_across_slices(self, rows, slice_len):
        rows.sort()
        stream = sim_stream(rows)
        slices = accumulate_slice_stats(stream, total_instructions=1000, slice_len=slice_len)
        totals = per_ip_totals(stream)
        for ip, want in totals.items():
            execs = sum(s.executions.get(ip, 0) for s in slices)
            mis = sum(s.mispredictions.get(ip, 0) for s in slices)
            assert IpStats(execs, mis) == want


class TestH2PScreen:
    @given(stats_tables, st.floats(0.5, 1.0), st.integers(1, 30_000), st.integers(1, 5_000))
    def test_equals_brute_force_filter(self, table, max_acc, min_execs, min_mis):
        criteria = H2PCriteria(max_acc, min_execs, min_mis)
        want = {
            ip
            for ip, s in table.items()
            if s.executions >= min_execs and s.mispredictions >= min_mis and s.accuracy < max_acc
        }
        assert screen_h2p(table, criteria) == want

    @given(stats_tables)
    def test_relaxation_is_monotone(self, table):
        tight = H2PCriteria(0.95, 10_000, 800)
        for loose in (
            H2PCriteria(0.99, 10_000, 800),
            H2PCriteria(0.95, 2_000, 800),
            H2PCriteria(0.95, 10_000, 100),
        ):
            assert screen_h2p(table, tight) <= screen_h2p(table, loose)

    def test_boundary_semantics(self):
        # accuracy strictly below max; execution/misprediction floors inclusive
        table = {
            1: IpStats(1000, 11),
            2: IpStats(1000, 9),    # below misprediction floor
            3: IpStats(999, 11),    # below execution floor
            4: IpStats(1000, 10),   # accuracy exactly at the cap
        }
        got = screen_h2p(table, H2PCriteria(0.99, 1000, 10))
        assert got == {1}

    def test_criteria_validated(self):
        with pytest.raises(ArgumentError):
            screen_h2p({}, H2PCriteria(max_accuracy=0.0))
        with pytest.raises(ArgumentError):
            screen_h2p({}, H2PCriteria(min_executions=0))


class TestH2PReport:
    def test_union_and_occupancy(self):
        rows = []
        # ip 0x10 bad in both slices, 0x20 bad only in slice 1
        for s, bad20 in ((0, False), (1, True)):
            base = s * 100
            for i in range(40):
                actual = i % 2 == 0
                rows.append((base + 2 * i, 0x10, False, actual))
                rows.append((base + 2 * i + 1, 0x20, (not actual) if bad20 else actual, actual))
        stream = sim_stream(sorted(rows))
        slices = accumulate_slice_stats(stream, 200, slice_len=100)
        rep = h2p_report(slices, H2PCriteria(0.99, 10, 5))
        assert rep.union == {0x10, 0x20}
        assert rep.occupancy[0x10] == 2
        assert rep.occupancy[0x20] == 1
        assert all(0.0 <= f <= 1.0 for f in rep.mis_fraction_per_slice)

    def test_avg_excludes_partial_slice(self):
        stream = sim_stream([(0, 0x10, True, False), (150, 0x10, True, False)])
        slices = accumulate_slice_stats(stream, 160, slice_len=100)
        rep = h2p_report(slices, H2PCriteria(0.99, 1, 1))
        assert slices[1].partial
        assert rep.avg_mis_fraction == rep.mis_fraction_per_slice[0]


def mispredicted(counts):
    """IpStats per ip, with the given misprediction counts."""
    return {ip: IpStats(max(m, 0) + 100, m) for ip, m in counts.items()}


class TestHeavyHitters:
    def test_ranking_with_tie_break(self):
        rep = heavy_hitters(mispredicted({0x30: 5, 0x10: 9, 0x20: 5}))
        assert [(h.rank, h.ip, h.mispredictions) for h in rep.entries] == [
            (1, 0x10, 9), (2, 0x20, 5), (3, 0x30, 5),
        ]
        assert rep.entries[-1].cumulative_fraction == 1.0

    def test_accepts_ipstats_values(self):
        rep = heavy_hitters({0x10: IpStats(100, 7)})
        assert rep.entries[0].mispredictions == 7

    @given(st.dictionaries(st.integers(0, 1000), st.integers(0, 500), min_size=1, max_size=50))
    def test_cumulative_fraction_monotone_to_one(self, counts):
        rep = heavy_hitters(mispredicted(counts))
        if rep.empty:
            assert sum(counts.values()) == 0
            return
        fractions = [h.cumulative_fraction for h in rep.entries]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert math.isclose(fractions[-1], 1.0)
        assert [h.rank for h in rep.entries] == list(range(1, len(fractions) + 1))

    def test_zero_mispredictions_is_empty(self):
        rep = heavy_hitters(mispredicted({0x10: 0, 0x20: 0}))
        assert rep.empty and rep.entries == []

    def test_negative_rejected(self):
        with pytest.raises(ArgumentError):
            heavy_hitters(mispredicted({0x10: -1}))


class TestRareBins:
    @given(stats_tables, st.integers(1, 500))
    def test_matches_two_pass_oracle(self, table, bin_width):
        import numpy as np

        rep = rare_bins(table, bin_width)
        grouped = {}
        for s in table.values():
            grouped.setdefault(s.executions // bin_width, []).append(s.accuracy)
        assert len(rep.bins) == len(grouped)
        for b in rep.bins:
            accs = np.array(grouped[b.lo // bin_width])
            assert b.count == len(accs)
            assert math.isclose(b.mean_acc, accs.mean(), abs_tol=1e-12)
            assert math.isclose(b.std_acc, accs.std(), abs_tol=1e-12)

    def test_bin_for(self):
        rep = rare_bins({1: IpStats(50, 10), 2: IpStats(150, 10)}, bin_width=100)
        assert rep.bin_for(73).lo == 0
        assert rep.bin_for(150).lo == 100
        assert rep.bin_for(999) is None

    def test_bin_width_validated(self):
        with pytest.raises(ArgumentError):
            rare_bins({}, bin_width=0)


class TestRecurrence:
    def make_trace(self, seq_by_ip):
        records = []
        for ip, seqs in seq_by_ip.items():
            for s in seqs:
                records.append(
                    BranchRecord(seq=s, ip=ip, kind=BranchKind.COND, target=ip + 4, taken=True)
                )
        return sorted(records, key=lambda r: r.seq)

    def test_worked_example(self):
        rep = recurrence_intervals(self.make_trace({0x10: [100, 1100, 2100]}))
        assert rep.per_ip[0x10].median_interval == 1000
        assert rep.per_ip[0x10].executions == 3
        assert rep.per_ip[0x10].decade_histogram[3] == 2

    def test_singleton_has_no_median(self):
        rep = recurrence_intervals(self.make_trace({0x10: [5]}))
        assert rep.singletons == {0x10}
        assert rep.median_of(0x10) is None

    def test_lower_middle_median(self):
        rep = recurrence_intervals(self.make_trace({0x10: [0, 10, 30, 32, 33]}))
        # gaps 10, 20, 2, 1 -> sorted 1,2,10,20 -> lower middle 2
        assert rep.median_of(0x10) == 2

    def test_non_cond_ignored(self):
        records = [
            BranchRecord(seq=0, ip=0x10, kind=BranchKind.UNCOND, target=0x20),
            BranchRecord(seq=5, ip=0x20, kind=BranchKind.COND, target=0x30, taken=True),
        ]
        rep = recurrence_intervals(records)
        assert set(rep.per_ip) == {0x20}

    def test_decade_bins(self):
        assert decade_bin(1) == 0
        assert decade_bin(9) == 0
        assert decade_bin(10) == 1
        assert decade_bin(500_000) == 5
        assert decade_bin(10**8) == 8
        assert decade_bin(10**12) == 8
        with pytest.raises(ArgumentError):
            decade_bin(0)

    def test_planted_long_period_lands_in_decade(self):
        # executions every 500k instructions -> median in the [1e5, 1e6) bin
        rep = recurrence_intervals(self.make_trace({0x10: [0, 500_000, 1_000_000]}))
        assert decade_bin(rep.median_of(0x10)) == 5
