"""Report writers: pinned layouts, formatting, atomicity, determinism."""

from branchlab.charax import (
    H2PReport,
    HeavyHitter,
    HeavyHitterReport,
    IpStats,
    RareBin,
    RareBinReport,
    RecurrenceReport,
    RecurrenceStats,
    SliceStats,
)
from branchlab.depgraph import DependencyDistribution, RegValueHistogram
from branchlab.pipeline import (
    OpportunityCurve,
    OpportunityPoint,
    StoragePoint,
    StorageSweepResult,
)
from branchlab.reports import (
    atomic_write_text,
    fmt_ip,
    write_csv,
    write_deps_csv,
    write_deps_summary_csv,
    write_h2p_csv,
    write_heavy_hitters_csv,
    write_json,
    write_opportunity_csv,
    write_rare_bins_csv,
    write_recurrence_csv,
    write_regvals_csv,
    write_storage_sweep_csv,
)


def read(path):
    return path.read_text(encoding="utf-8")


def test_fmt_ip_is_lowercase_hex():
    assert fmt_ip(0x400ABC) == "0x400abc"
    assert fmt_ip(0) == "0x0"


def test_write_csv_cell_formatting(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b", "c", "d"), [(1, 0.5, True, None), ("x", 1.0 / 3, False, 7)])
    assert read(path) == (
        "a,b,c,d\n"
        "1,0.500000,1,\n"
        "x,0.333333,0,7\n"
    )


def test_write_csv_is_deterministic_and_atomic(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a",), [(1,), (2,)])
    first = path.read_bytes()
    write_csv(path, ("a",), [(1,), (2,)])
    assert path.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "file.txt"
    atomic_write_text(path, "old")
    atomic_write_text(path, "new")
    assert read(path) == "new"


def test_write_json_sorted_keys(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": 1, "a": {"z": 2, "y": 3}})
    assert read(path) == (
        '{\n  "a": {\n    "y": 3,\n    "z": 2\n  },\n  "b": 1\n}\n'
    )


def test_h2p_csv_layout(tmp_path):
    slices = [
        SliceStats(0, 100, False, {0x20: 50, 0x10: 40}, {0x20: 25, 0x10: 2}),
        SliceStats(1, 100, True, {0x20: 10}, {0x20: 5}),
    ]
    report = H2PReport(
        per_slice=[{0x20, 0x10}, {0x20}],
        union={0x10, 0x20},
        occupancy={0x10: 1, 0x20: 2},
        mis_fraction_per_slice=[1.0, 1.0],
        avg_mis_fraction=1.0,
    )
    path = tmp_path / "h2p.csv"
    write_h2p_csv(path, slices, report)
    assert read(path) == (
        "slice,ip,executions,mispredictions,accuracy\n"
        "0,0x10,40,2,0.950000\n"
        "0,0x20,50,25,0.500000\n"
        "1,0x20,10,5,0.500000\n"
    )


def test_heavy_hitters_csv_layout(tmp_path):
    report = HeavyHitterReport(
        entries=[HeavyHitter(1, 0x400100, 9, 0.75), HeavyHitter(2, 0x400200, 3, 1.0)],
        total_mispredictions=12,
        empty=False,
    )
    path = tmp_path / "hh.csv"
    write_heavy_hitters_csv(path, report)
    assert read(path) == (
        "rank,ip,mispredictions,cumulative_fraction\n"
        "1,0x400100,9,0.750000\n"
        "2,0x400200,3,1.000000\n"
    )


def test_rare_bins_csv_layout(tmp_path):
    report = RareBinReport(100, [RareBin(0, 100, 3, 0.5, 0.25)])
    path = tmp_path / "rare.csv"
    write_rare_bins_csv(path, report)
    assert read(path) == (
        "bin_lo,bin_hi,count,mean_acc,std_acc\n"
        "0,100,3,0.500000,0.250000\n"
    )


def test_recurrence_csv_blank_cells_for_singletons(tmp_path):
    report = RecurrenceReport(
        per_ip={
            0x20: RecurrenceStats(1, None, (0,) * 9),
            0x10: RecurrenceStats(3, 1000, (0, 0, 0, 2, 0, 0, 0, 0, 0)),
        },
        singletons={0x20},
    )
    path = tmp_path / "recur.csv"
    write_recurrence_csv(path, report)
    assert read(path) == (
        "ip,executions,median_interval,decade_bin\n"
        "0x10,3,1000,3\n"
        "0x20,1,,\n"
    )


def test_deps_csv_layouts(tmp_path):
    dist = DependencyDistribution(
        target_ip=0x400100, window=5000, executions=10,
        positions={0x400300: {2: 4}, 0x400200: {1: 7, 3: 1}},
    )
    deps = tmp_path / "deps.csv"
    write_deps_csv(deps, [dist])
    assert read(deps) == (
        "h2p_ip,dep_ip,position,count\n"
        "0x400100,0x400200,1,7\n"
        "0x400100,0x400200,3,1\n"
        "0x400100,0x400300,2,4\n"
    )
    summary = tmp_path / "deps_summary.csv"
    write_deps_summary_csv(summary, [dist])
    assert read(summary) == (
        "h2p_ip,n_dep_branches,min_pos,max_pos\n"
        "0x400100,2,1,3\n"
    )


def test_deps_summary_blank_for_no_dependencies(tmp_path):
    dist = DependencyDistribution(0x400100, 5000, 4, {})
    path = tmp_path / "summary.csv"
    write_deps_summary_csv(path, [dist])
    assert read(path).splitlines()[1] == "0x400100,0,,"


def test_regvals_csv_layout(tmp_path):
    hist = RegValueHistogram(
        target_ip=0x400100, tracked=(0,), mask=0xFFFFFFFF, executions=5,
        counts={(0, 0x80): 3, (0, 0x7F): 2},
    )
    path = tmp_path / "regvals.csv"
    write_regvals_csv(path, [hist])
    assert read(path) == (
        "h2p_ip,reg,value_hex,count\n"
        "0x400100,0,0x7f,2\n"
        "0x400100,0,0x80,3\n"
    )


def test_opportunity_csv_layout(tmp_path):
    curve = OpportunityCurve(
        instructions=1000, raw_mispredictions=10,
        points=(OpportunityPoint(1, "as-simulated", 10, 2.0, 0.8, 0.0),),
    )
    path = tmp_path / "opp.csv"
    write_opportunity_csv(path, curve)
    assert read(path) == (
        "scale,oracle,ipc,opportunity,share\n"
        "1,as-simulated,2.000000,0.800000,0.000000\n"
    )


def test_storage_sweep_csv_layout(tmp_path):
    sweep = StorageSweepResult(
        instructions=1000, anchor_budget=8192,
        points=(StoragePoint(8192, 1, 10, 0.9, 2.0, 0.0),),
        mispredictions_by_budget={8192: 10},
    )
    path = tmp_path / "storage.csv"
    write_storage_sweep_csv(path, sweep)
    assert read(path) == (
        "budget_bytes,scale,accuracy,captured_fraction\n"
        "8192,1,0.900000,0.000000\n"
    )
