"""The benchmark's workloads: the planted program, its traces, and the
branchlab commands each workload runs.

Every trace comes from one planted mix (``make_spec``), generated in-process
with ``branchlab.synth`` from a seed derived from the benchmark's
``--seed``; the commands see only the trace files. The in-memory records
stay with the benchmark as the reference its checks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Planted ips. The rare pool uses synth's default base 0x5000000.
DATA_IP = 0x400100
GATE_IP = 0x400200
BIASED_IP = 0x400300
HISTORY_IP = 0x400400
LOOP_IP = 0x400500
PERIODIC_IP = 0x400600

HISTORY_POSITIONS = (2, 8)
WALK_REG = 0            # DataDependent's walking register
WALK_THRESHOLD = 128
WALK_HALF_RANGE = 16

PREDICTOR = "tage-sc-l:8kb"
H2P_SLICE_LEN = 10_000
H2P_MAX_ACC = 0.99
H2P_MIN_EXECS = 200
H2P_MIN_MIS = 20
WIDTH = 4               # analytic machine given to `limit` and `sweep`
PENALTY = 20
SCALES = (1, 2, 4, 8, 16, 32)
CUTOFFS = (100, 1000)
PATTERN_HISTORY = 8     # >= max(HISTORY_POSITIONS)
PERCEPTRON_HISTORY = 16
HELPER_IPS = (DATA_IP, HISTORY_IP, PERIODIC_IP)

# Instructions per trace. Sized so one round of a workload's commands
# takes a few seconds on a 2-core host.
LENGTHS = {"characterize": 25_000, "dataflow": 35_000, "helpers": 35_000}


def make_spec():
    from branchlab import synth

    return synth.SyntheticProgramSpec(
        behaviors=(
            synth.DataDependent(ip=DATA_IP, reg=WALK_REG, threshold=WALK_THRESHOLD,
                                half_range=WALK_HALF_RANGE, gate_ip=GATE_IP),
            synth.Biased(ip=BIASED_IP, p_taken=0.999),
            synth.HistoryCorrelated(ip=HISTORY_IP, positions=HISTORY_POSITIONS),
            synth.LoopExit(ip=LOOP_IP, trip=23),
            synth.Periodic(ip=PERIODIC_IP, pattern="TTNTN"),
            synth.RarePool(count=500, exponent=1.1),
        ),
        weights=(4.0, 2.0, 2.0, 2.0, 1.0, 1.0),
        filler_density=0.2,
    )


@dataclass
class Trace:
    """One generated trace file and the generator's view of it."""

    path: Path
    records: list            # InstructionRecords, as generated
    manifest: object         # synth.PlantedManifest

    @property
    def instructions(self) -> int:
        return len(self.records)

    @property
    def branch_records(self) -> int:
        return sum(1 for r in self.records if r.is_branch)

    @property
    def cond_records(self) -> int:
        return self.manifest.meta.cond_branches

    @property
    def decoded_records(self) -> int:
        """Records a reader of this file returns."""
        return self.instructions if self.path.suffix.startswith(".it1") else self.branch_records


@dataclass
class Op:
    """One CLI command of a round: its name, argv and the traces it reads."""

    name: str
    argv: list
    traces: list

    @property
    def instructions(self) -> int:
        return sum(t.instructions for t in self.traces)


def _trace_files(workload: str, seed: int) -> list[tuple[str, int]]:
    if workload == "characterize":
        return [("trace.it1b", seed)]
    if workload == "dataflow":
        return [("trace.it1", seed)]
    if workload == "helpers":
        return [(f"input{k}.bt1b", 3 * seed + k) for k in range(3)]
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, workdir: Path) -> list[Trace]:
    """Generate and write the workload's input traces into ``workdir``."""
    from branchlab import synth, traceio

    spec = make_spec()
    traces = []
    for name, trace_seed in _trace_files(workload, seed):
        records, manifest = synth.generate_trace(spec, seed=trace_seed, length=LENGTHS[workload])
        path = workdir / name
        if path.suffix == ".bt1b":
            traceio.save_trace(path, traceio.project_branches(records))
        else:
            traceio.save_trace(path, records)
        traces.append(Trace(path, records, manifest))
    return traces


def ops(workload: str, traces: list[Trace], outdir: Path) -> list[Op]:
    """The round's commands, in order. Each writes into ``outdir/<name>``."""
    def out(name):
        return ["--out", str(outdir / name)]

    if workload == "characterize":
        (t,) = traces
        sim = ["--trace", str(t.path), "--predictor", PREDICTOR]
        machine = ["--width", str(WIDTH), "--penalty", str(PENALTY),
                   "--scales", ",".join(map(str, SCALES))]
        return [
            Op("sim", ["sim", *sim, *out("sim")], [t]),
            Op("hh", ["hh", *sim, *out("hh")], [t]),
            Op("h2p", ["h2p", *sim, "--slice-len", str(H2P_SLICE_LEN),
                       "--max-acc", str(H2P_MAX_ACC), "--min-execs", str(H2P_MIN_EXECS),
                       "--min-mis", str(H2P_MIN_MIS), *out("h2p")], [t]),
            Op("rare", ["rare", *sim, *out("rare")], [t]),
            Op("recur", ["recur", "--trace", str(t.path), *out("recur")], [t]),
            Op("limit", ["limit", *sim, *machine, "--cutoffs", ",".join(map(str, CUTOFFS)),
                         *out("limit")], [t]),
            Op("sweep", ["sweep", "--trace", str(t.path), "--budgets", "8192,65536",
                         *machine, *out("sweep")], [t]),
        ]
    if workload == "dataflow":
        (t,) = traces
        return [
            Op("deps", ["deps", "--trace", str(t.path), "--ip", hex(DATA_IP),
                        "--ip", hex(HISTORY_IP), *out("deps")], [t]),
            Op("regvals", ["regvals", "--trace", str(t.path), "--ip", hex(DATA_IP),
                           *out("regvals")], [t]),
        ]
    if workload == "helpers":
        train, held_out = traces[:2], traces[2]
        train_args = [a for t in train for a in ("--trace", str(t.path))]
        ips = [a for ip in HELPER_IPS for a in ("--ip", hex(ip))]
        pattern = outdir / "models" / "pattern.hm1"
        perceptron = outdir / "models" / "perceptron.hm1"
        return [
            Op("train-pattern", ["train-helper", *train_args, *ips, "--kind", "pattern-table",
                                 "--history", str(PATTERN_HISTORY), "--out", str(pattern)],
               train),
            Op("train-perceptron", ["train-helper", *train_args, *ips, "--kind", "perceptron",
                                    "--history", str(PERCEPTRON_HISTORY),
                                    "--out", str(perceptron)], train),
            Op("eval-8kb", ["eval-helper", "--models", str(pattern), "--trace",
                            str(held_out.path), "--baseline", "tage-sc-l:8kb",
                            *out("eval-8kb")], [held_out]),
            Op("eval-64kb", ["eval-helper", "--models", str(perceptron), "--trace",
                             str(held_out.path), "--baseline", "tage-sc-l:64kb",
                             *out("eval-64kb")], [held_out]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(LENGTHS)
