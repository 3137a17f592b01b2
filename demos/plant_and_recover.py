#!/usr/bin/env python3
"""Plant a hard-to-predict branch in a synthetic trace, then recover it
with the analysis pipeline: screening, heavy-hitter attribution,
dependency analysis and register-value snapshots.

Run from the repository root:

    python3 demos/plant_and_recover.py
"""

from branchlab.charax import (
    H2PCriteria,
    accumulate_slice_stats,
    h2p_report,
    heavy_hitters,
    per_ip_totals,
)
from branchlab.depgraph import find_dependency_branches, regval_snapshots
from branchlab.predictors import make_predictor, simulate
from branchlab.synth import (
    Biased,
    DataDependent,
    LoopExit,
    RarePool,
    SyntheticProgramSpec,
    generate_trace,
)
from branchlab.traceio import project_branches

H2P = 0x400100
GATE = 0x400200
LENGTH = 60_000


def main() -> None:
    spec = SyntheticProgramSpec(
        behaviors=(
            DataDependent(ip=H2P, gate_ip=GATE),
            Biased(ip=0x400300, p_taken=0.999),
            LoopExit(ip=0x400400, trip=9),
            RarePool(count=800, exponent=1.1),
        ),
        weights=(6.0, 3.0, 3.0, 2.0),
        filler_density=0.2,
    )
    records, manifest = generate_trace(spec, seed=42, length=LENGTH)
    print(f"generated {LENGTH} instructions; planted classes:")
    for ip, entry in sorted(manifest.planted.items()):
        print(f"  {ip:#x}  {entry.klass:4s}  {entry.behavior.kind} ({entry.role})")

    stream = simulate(project_branches(records), make_predictor("tage-sc-l:8kb"))
    totals = per_ip_totals(stream)
    print(f"\nsimulated {len(stream)} conditional branches, "
          f"overall accuracy {stream.accuracy():.4f}")

    criteria = H2PCriteria(max_accuracy=0.99, min_executions=500, min_mispredictions=20)
    slices = accumulate_slice_stats(stream, LENGTH, slice_len=LENGTH // 6)
    report = h2p_report(slices, criteria)
    print(f"\nscreening: flagged {sorted(hex(i) for i in report.union)} "
          f"(planted H2P flagged in {report.occupancy.get(H2P, 0)}/{len(slices)} slices)")

    ranking = heavy_hitters(totals)
    print("\ntop misprediction sources:")
    for hit in ranking.top(3):
        stats = totals[hit.ip]
        print(f"  #{hit.rank} {hit.ip:#x}: {hit.mispredictions} mispredictions "
              f"({stats.executions} executions, cum {hit.cumulative_fraction:.2f})")

    (dist,) = find_dependency_branches(records, [H2P], window=5_000)
    print(f"\ndependency analysis over {dist.executions} executions of {H2P:#x}:")
    print(f"  top dependency {dist.top_dependency():#x} "
          f"(planted gate was {GATE:#x})")
    print(f"  mass by ip: {{{', '.join(f'{ip:#x}: {m}' for ip, m in sorted(dist.mass_by_ip().items()))}}}")

    hist = regval_snapshots(records, H2P, tracked=(0,), mask=0xFF)
    values = sorted(hist.values_of(0).items(), key=lambda kv: -kv[1])[:3]
    print(f"\nregister r0 before each execution (top masked values): "
          f"{[(hex(v), c) for v, c in values]}")


if __name__ == "__main__":
    main()
