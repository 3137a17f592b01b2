#!/usr/bin/env python3
"""branchlab's benchmark: one workload's CLI commands, timed end to end.

    python3 bench/run.py --workload characterize --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Set-up generates the workload's traces
from ``--seed`` with branchlab's own generator (``setup_s``, the CPU time
of this process from its start). The benchmark then runs rounds of the
workload's commands, one ``branchlab`` process per command, for about
``--seconds`` seconds, and checks every report of every round.

With ``--trace 0`` it prints the end-to-end metrics (median round). With
``--trace 1`` it alternates an untraced round with a traced one, whose
commands run under ``bench/tracing.py``, and prints the per-layer metrics
(each the median over the traced rounds) and the tracing overhead. The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, here and in every command: branchlab is single-threaded
# and calls no BLAS routine, but OpenBLAS starts a spinning worker thread
# at import that competes with the main thread for the host's two cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# A shell that execs python3 passes on the CPU time of the children it
# waited for; set-up counts only the children this process waits for.
_CHILDREN_AT_START = resource.getrusage(resource.RUSAGE_CHILDREN)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_branchlab():
    """Import branchlab from this checkout's src/, and nowhere else."""
    if not (SRC / "branchlab" / "cli.py").is_file():
        _die(f"no branchlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import branchlab

    if Path(branchlab.__file__).resolve().parent != SRC / "branchlab":
        _die(f"imported branchlab from {branchlab.__file__}, not from {SRC}")


def _run_round(ops, outdir: Path, env: dict, spans_dir: Path | None):
    """Run the round's commands in order; return (wall seconds, exit codes
    and stderr per command). With ``spans_dir`` each command runs traced."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    results = {}
    start = time.perf_counter()
    for op in ops:
        if spans_dir is None:
            argv = [sys.executable, "-m", "branchlab.cli", *op.argv]
        else:
            argv = [sys.executable, str(BENCH / "tracing.py"), "--spans",
                    str(spans_dir / f"{op.name}.json"), "--cmd", op.name, "--", *op.argv]
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        results[op.name] = (proc.returncode, proc.stderr.decode(errors="replace")[-400:])
    return time.perf_counter() - start, results


def main(argv=None) -> int:
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_branchlab()
    import checks
    import tracing

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_tracer = tracing.Tracer("setup")
    if args.trace:
        tracing.instrument_setup(setup_tracer)
    traces = wl.generate(args.workload, args.seed, workdir)
    # CPU time since this process started (interpreter start-up, imports,
    # generation, encoding), plus that of any process it waited for, so
    # that set-up work moved into a subprocess still counts. On a shared
    # host the wall time of this one cold second also counts waits for a
    # core or for evicted files, which come from other tenants.
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    setup_s = (time.process_time()
               + children.ru_utime - _CHILDREN_AT_START.ru_utime
               + children.ru_stime - _CHILDREN_AT_START.ru_stime)

    refs = {t.path: checks.Reference(t) for t in traces}
    outdir = workdir / "out"
    ops = wl.ops(args.workload, traces, outdir)
    cmd_trace = {op.name: str(op.traces[0].path) for op in ops}
    expected_records = {str(t.path): t.decoded_records for t in traces}
    expected_cond = {op.name: op.traces[0].cond_records for op in ops}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    walls, traced_walls, layer_rounds, all_spans = [], [], [], list(setup_tracer.spans)
    attempted = failed = 0
    correct = True
    begin = time.perf_counter()
    cycles = 0
    while True:
        # a traced run pairs each traced round with an untraced one, in
        # alternating order, for the tracing overhead
        kinds = ((False, True) if cycles % 2 == 0 else (True, False)) if args.trace else (False,)
        cycles += 1
        cycle_start = time.perf_counter()
        for traced in kinds:
            spans_dir = workdir / "spans" if traced else None
            if spans_dir is not None:
                shutil.rmtree(spans_dir, ignore_errors=True)
                spans_dir.mkdir()
            wall, results = _run_round(ops, outdir, env, spans_dir)
            problems = checks.check_round(args.workload, traces, outdir, refs)
            if traced:
                spans = []
                for op in ops:
                    path = spans_dir / f"{op.name}.json"
                    if path.is_file():
                        spans.extend(json.loads(path.read_text()))
                for cmd, found in tracing.check_spans(spans, expected_records,
                                                      expected_cond).items():
                    problems[cmd].extend(found)
                layer_rounds.append(tracing.layer_metrics(setup_tracer.spans, spans, cmd_trace))
                all_spans.extend(spans)
                traced_walls.append(wall)
            else:
                walls.append(wall)
            for op in ops:
                code, stderr = results[op.name]
                attempted += 1
                if code != 0 or problems[op.name]:
                    failed += 1
                    print(f"bench: {op.name} exit {code}: {problems[op.name][:3]} {stderr}",
                          file=sys.stderr)
                if code == 0 and problems[op.name]:
                    correct = False
        cycle = time.perf_counter() - cycle_start
        if time.perf_counter() - begin + cycle > args.seconds:
            break

    if args.trace:
        (workdir / "spans.json").write_text(json.dumps(all_spans))
        values = tracing.median_metrics(layer_rounds)
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        wall = statistics.median(walls)
        instructions = sum(op.instructions for op in ops)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "instr_per_s": {"value": instructions / wall, "unit": "instructions/s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(f"bench: {args.workload} seed {args.seed}: {len(walls)} untraced rounds "
          f"{[round(w, 3) for w in walls]}, {len(traced_walls)} traced", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
