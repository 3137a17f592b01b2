#!/usr/bin/env python3
"""The offline-train/online-infer helper loop: fit a per-branch pattern
table on two inputs, serialize it, apply it to a baseline ensemble's
simulated stream and measure the delta on a held-out third input.

Run from the repository root:

    python3 demos/helper_loop.py
"""

from branchlab.helper import (
    TrainingCorpus,
    deserialize_models,
    evaluate_generalization,
    serialize_models,
    train_helper,
)
from branchlab.predictors import make_predictor, simulate
from branchlab.synth import Biased, HistoryCorrelated, SyntheticProgramSpec, generate_trace
from branchlab.traceio import project_branches

TARGET = 0x400100

SPEC = SyntheticProgramSpec(
    behaviors=(
        # direction = XOR of global history positions 2 and 11: invisible
        # to a capacity-limited ensemble under coin-flip noise, trivial for
        # a pattern table keyed on 12 bits of the same history
        HistoryCorrelated(ip=TARGET, positions=(2, 11)),
        Biased(ip=0x400200, p_taken=0.5),
        Biased(ip=0x400300, p_taken=0.5),
    ),
    weights=(2.0, 1.5, 1.5),
    filler_density=0.1,
)


def branches(seed):
    records, _ = generate_trace(SPEC, seed=seed, length=50_000)
    return project_branches(records)


def main() -> None:
    corpus = TrainingCorpus()
    for seed in (1, 2):
        corpus.add(f"trace-{seed}", f"input-{seed}", branches(seed))
    model = train_helper(corpus, TARGET, kind="pattern-table", h=12)
    blob = serialize_models([model])
    print(f"trained pattern table: {len(model.params)} contexts, "
          f"{len(blob)} serialized bytes, provenance {model.provenance}")

    base_stream = simulate(branches(3), make_predictor("tage-sc-l:8kb"))
    report = evaluate_generalization(deserialize_models(blob), base_stream)
    row = report.row_for(TARGET)
    print(f"\nheld-out input (seed 3), {row.executions} target executions:")
    print(f"  baseline accuracy   {row.baseline_accuracy:.4f}")
    print(f"  with helper         {row.composite_accuracy:.4f}")
    print(f"  delta               {row.delta:+.4f}")
    print(f"  whole-trace         {report.overall_baseline:.4f} -> "
          f"{report.overall_composite:.4f}")


if __name__ == "__main__":
    main()
