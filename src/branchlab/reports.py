"""Report writers: CSV and JSON files with stable, pinned layouts.

Every writer is deterministic (sorted row order, fixed float formatting,
no timestamps) and atomic (temp file + rename), so identical inputs
always produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:   # a writer loads no analysis layer; its caller has
    from .charax import H2PReport, HeavyHitterReport, RareBinReport, RecurrenceReport, SliceStats
    from .depgraph import DependencyDistribution, RegValueHistogram
    from .pipeline import OpportunityCurve, StorageSweepResult

H2P_HEADER = ("slice", "ip", "executions", "mispredictions", "accuracy")
HH_HEADER = ("rank", "ip", "mispredictions", "cumulative_fraction")
RARE_HEADER = ("bin_lo", "bin_hi", "count", "mean_acc", "std_acc")
RECUR_HEADER = ("ip", "executions", "median_interval", "decade_bin")
DEPS_HEADER = ("h2p_ip", "dep_ip", "position", "count")
DEPS_SUMMARY_HEADER = ("h2p_ip", "n_dep_branches", "min_pos", "max_pos")
REGVALS_HEADER = ("h2p_ip", "reg", "value_hex", "count")
OPPORTUNITY_HEADER = ("scale", "oracle", "ipc", "opportunity", "share")
STORAGE_HEADER = ("budget_bytes", "scale", "accuracy", "captured_fraction")


def fmt_ip(ip: int) -> str:
    return f"0x{ip:x}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def atomic_write_text(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_h2p_csv(path, slices: Sequence[SliceStats], report: H2PReport) -> None:
    rows = []
    for sl, flagged in zip(slices, report.per_slice):
        for ip in sorted(flagged):
            st = sl.stats(ip)
            rows.append((sl.index, fmt_ip(ip), st.executions, st.mispredictions, st.accuracy))
    write_csv(path, H2P_HEADER, rows)


def write_heavy_hitters_csv(path, report: HeavyHitterReport) -> None:
    rows = [
        (h.rank, fmt_ip(h.ip), h.mispredictions, h.cumulative_fraction)
        for h in report.entries
    ]
    write_csv(path, HH_HEADER, rows)


def write_rare_bins_csv(path, report: RareBinReport) -> None:
    rows = [(b.lo, b.hi, b.count, b.mean_acc, b.std_acc) for b in report.bins]
    write_csv(path, RARE_HEADER, rows)


def write_recurrence_csv(path, report: RecurrenceReport) -> None:
    from .charax import decade_bin

    rows = []
    for ip in sorted(report.per_ip):
        st = report.per_ip[ip]
        if st.median_interval is None:
            rows.append((fmt_ip(ip), st.executions, None, None))
        else:
            rows.append(
                (fmt_ip(ip), st.executions, st.median_interval, decade_bin(st.median_interval))
            )
    write_csv(path, RECUR_HEADER, rows)


def write_deps_csv(path, dists: Sequence[DependencyDistribution]) -> None:
    rows = []
    for dist in dists:
        for dep_ip in sorted(dist.positions):
            hist = dist.positions[dep_ip]
            for pos in sorted(hist):
                rows.append((fmt_ip(dist.target_ip), fmt_ip(dep_ip), pos, hist[pos]))
    write_csv(path, DEPS_HEADER, rows)


def write_deps_summary_csv(path, dists: Sequence[DependencyDistribution]) -> None:
    rows = [
        (fmt_ip(d.target_ip), d.n_dep_branches, d.min_position, d.max_position)
        for d in dists
    ]
    write_csv(path, DEPS_SUMMARY_HEADER, rows)


def write_regvals_csv(path, hists: Sequence[RegValueHistogram]) -> None:
    rows = []
    for hist in hists:
        for (reg, value), count in sorted(hist.counts.items()):
            rows.append((fmt_ip(hist.target_ip), reg, fmt_ip(value), count))
    write_csv(path, REGVALS_HEADER, rows)


def write_opportunity_csv(path, curve: OpportunityCurve) -> None:
    rows = [
        (p.scale, p.oracle, p.ipc, p.opportunity, p.share) for p in curve.points
    ]
    write_csv(path, OPPORTUNITY_HEADER, rows)


def write_storage_sweep_csv(path, sweep: StorageSweepResult) -> None:
    rows = [
        (p.budget_bytes, p.scale, p.accuracy, p.captured_fraction) for p in sweep.points
    ]
    write_csv(path, STORAGE_HEADER, rows)
