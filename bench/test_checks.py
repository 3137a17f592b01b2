"""The benchmark's checks pass on the program's reports for two seeds, and
refuse reports that are deliberately wrong.

    python3 -m pytest -q bench/test_checks.py

Commands run in-process through ``branchlab.cli.main`` on the workloads'
own traces, so this takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from branchlab import cli  # noqa: E402


class Ran:
    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.traces = wl.generate(workload, seed, root)
        self.refs = {t.path: checks.Reference(t) for t in self.traces}
        self.outdir = root / "out"
        for op in wl.ops(workload, self.traces, self.outdir):
            assert cli.main(op.argv) == 0, op.name

    def problems(self, outdir: Path | None = None) -> dict:
        found = checks.check_round(self.workload, self.traces, outdir or self.outdir, self.refs)
        return {name: list(p) for name, p in found.items() if p}


@pytest.fixture(scope="session")
def ran(tmp_path_factory):
    """Runs of the workloads, made once per session and shared."""
    runs: dict = {}

    def get(workload: str, seed: int = 1) -> Ran:
        if (workload, seed) not in runs:
            runs[workload, seed] = Ran(workload, seed, tmp_path_factory.mktemp(workload))
        return runs[workload, seed]
    return get


@pytest.fixture
def mutated(ran, tmp_path):
    """A copy of a run's reports, for one test to spoil."""
    def copy(workload: str) -> tuple[Ran, Path]:
        run = ran(workload)
        shutil.copytree(run.outdir, tmp_path / "out")
        return run, tmp_path / "out"
    return copy


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_checks_pass_on_the_programs_reports(ran, workload, seed):
    assert ran(workload, seed).problems() == {}


def _edit(path: Path, fn) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(fn(lines)))


def test_flipped_actual_bit_is_refused(mutated):
    run, out = mutated("characterize")

    def flip(lines):
        cells = lines[100].split(",")
        cells[3] = "0" if cells[3] == "1" else "1"
        lines[100] = ",".join(cells)
        return lines

    _edit(out / "sim" / "mispredictions.csv", flip)
    assert "sim" in run.problems(out)


def test_dropped_heavy_hitter_row_is_refused(mutated):
    run, out = mutated("characterize")
    _edit(out / "hh" / "heavy_hitters.csv", lambda lines: lines[:5] + lines[6:])
    assert "hh" in run.problems(out)


def test_shifted_ipc_is_refused(mutated):
    run, out = mutated("characterize")

    def shift(lines):
        cells = lines[1].split(",")   # scale 1, as-simulated
        assert cells[:2] == ["1", "as-simulated"]
        cells[2] = f"{float(cells[2]) + 0.00001:.6f}"
        lines[1] = ",".join(cells)
        return lines

    _edit(out / "limit" / "opportunity.csv", shift)
    assert set(run.problems(out)) == {"limit"}


def test_wrong_top_dependency_is_refused(mutated):
    run, out = mutated("dataflow")
    path = out / "deps" / "deps_summary.json"
    doc = json.loads(path.read_text())
    doc["targets"][hex(wl.DATA_IP)]["top_dependency"] = hex(wl.BIASED_IP)
    path.write_text(json.dumps(doc))
    assert set(run.problems(out)) == {"deps"}


def test_walk_value_out_of_range_is_refused(mutated):
    run, out = mutated("dataflow")

    def move(lines):
        cells = lines[1].split(",")
        cells[2] = "0x1"
        lines[1] = ",".join(cells)
        return lines

    _edit(out / "regvals" / "regvals.csv", move)
    assert set(run.problems(out)) == {"regvals"}


def test_missing_report_is_refused(mutated):
    run, out = mutated("helpers")
    (out / "eval-8kb" / "eval_helper.json").unlink()
    assert set(run.problems(out)) == {"eval-8kb"}


def test_wrong_helper_execution_count_is_refused(mutated):
    run, out = mutated("helpers")
    path = out / "eval-64kb" / "eval_helper.json"
    doc = json.loads(path.read_text())
    doc["targets"][hex(wl.HISTORY_IP)]["executions"] += 1
    path.write_text(json.dumps(doc))
    assert set(run.problems(out)) == {"eval-64kb"}


def test_span_checks_refuse_wrong_counts():
    spans = [
        {"id": 0, "name": "traceio.load", "cmd": "sim", "parent": None, "path": "t.it1b",
         "start": 0.0, "end": 2.0},
        {"id": 1, "name": "traceio.decode", "cmd": "sim", "parent": 0, "records": 10,
         "start": 0.5, "end": 1.5},
        {"id": 2, "name": "predictors.simulate", "cmd": "sim", "parent": None, "cond": 4,
         "replay": True, "config": "TageSCL", "start": 2.0, "end": 3.0},
    ]
    assert tracing.check_spans(spans, {"t.it1b": 10}, {"sim": 4}) == {}
    assert tracing.check_spans(spans, {"t.it1b": 11}, {"sim": 4}).keys() == {"sim"}
    assert tracing.check_spans(spans, {"t.it1b": 10}, {"sim": 5}).keys() == {"sim"}
    metrics = tracing.layer_metrics([], spans, {"sim": "t.it1b"})
    assert metrics["traceio.decode_s"] == 1.0
    assert metrics["predictors.replay_cond_per_s"] == 4.0
    assert metrics["predictors.sims_per_config"] == 1.0
