"""Correctness checks on the reports of one round.

Each check compares a command's report against a reference computed apart
from the program: the generator's in-memory records and manifest, a
closed form, or a property the method must have. No check compares
against a stored copy of earlier reports.

``check_round`` returns, per command name, the list of problems found
(empty when the command's reports pass).
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

import workloads as wl

RARE_BIN_WIDTH = 100   # `rare`'s default bin width
TOL = 1.000001e-6   # reports print floats with 6 decimals


class Problems(list):
    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


# ------------------------------------------------------------ reference

class Reference:
    """What the generator says about one trace, computed once per run."""

    def __init__(self, trace: wl.Trace):
        from branchlab.records import BranchKind

        self.instructions = trace.instructions
        self.cond = [(r.seq, r.ip, bool(r.taken)) for r in trace.records
                     if r.is_branch and r.kind is BranchKind.COND]
        self.executions = Counter(ip for _, ip, _ in self.cond)
        last: dict[int, int] = {}
        self.gaps: dict[int, list[int]] = defaultdict(list)
        for seq, ip, _ in self.cond:
            if ip in last:
                self.gaps[ip].append(seq - last[ip])
            last[ip] = seq
        # pre-execution values of the walk register at each DataDependent execution
        self.walk_values: Counter = Counter()
        value = None
        for r in trace.records:
            if r.is_branch and r.kind is BranchKind.COND and r.ip == wl.DATA_IP:
                if value is not None:
                    self.walk_values[value] += 1
            for reg, val in r.regs_written:
                if reg == wl.WALK_REG:
                    value = val


class Stream:
    """The misprediction stream as `sim` wrote it."""

    def __init__(self, rows: list[dict]):
        self.seq = [int(r["seq"]) for r in rows]
        self.ip = [int(r["ip_hex"], 16) for r in rows]
        self.predicted = [r["predicted"] == "1" for r in rows]
        self.actual = [r["actual"] == "1" for r in rows]
        self.executions: Counter = Counter(self.ip)
        self.mispredicted: Counter = Counter(
            ip for ip, p, a in zip(self.ip, self.predicted, self.actual) if p != a)
        self.total_mispredicted = sum(self.mispredicted.values())

    def accuracy(self) -> float:
        return 1.0 - self.total_mispredicted / len(self.seq)


def _ipc(n: int, m: int, scale: int) -> float:
    """The closed form IPC = N / (N / (W s) + M D)."""
    return n / (n / (wl.WIDTH * scale) + m * wl.PENALTY)


# ------------------------------------------------------------ characterize

def _check_sim(out: Path, ref: Reference, p: Problems) -> Stream | None:
    rows = _rows(out / "mispredictions.csv")
    stream = Stream(rows)
    gen_seq = [s for s, _, _ in ref.cond]
    gen_ip = [ip for _, ip, _ in ref.cond]
    gen_taken = [t for _, _, t in ref.cond]
    ok = p.expect(len(rows) == len(ref.cond),
                  f"mispredictions.csv has {len(rows)} rows, generator made {len(ref.cond)} COND")
    ok &= p.expect(stream.seq == gen_seq, "seq column differs from the generated COND records")
    ok &= p.expect(stream.ip == gen_ip, "ip column differs from the generated COND records")
    ok &= p.expect(stream.actual == gen_taken,
                   "actual column differs from the generated COND directions")
    summary = _json(out / "sim_summary.json")
    p.expect(summary["cond_executions"] == len(rows), "sim_summary cond_executions")
    p.expect(summary["mispredictions"] == stream.total_mispredicted, "sim_summary mispredictions")
    p.expect(summary["instructions"] == ref.instructions, "sim_summary instructions")
    if ok:
        p.expect(_close(summary["accuracy"], stream.accuracy()), "sim_summary accuracy")
    return stream if ok else None


def _check_hh(out: Path, stream: Stream, p: Problems) -> None:
    rows = _rows(out / "heavy_hitters.csv")
    ips = [int(r["ip"], 16) for r in rows]
    counts = [int(r["mispredictions"]) for r in rows]
    p.expect(set(ips) == set(stream.executions) and len(ips) == len(set(ips)),
             "heavy_hitters.csv does not list every executed ip exactly once")
    for ip, m in zip(ips, counts):
        if not p.expect(m == stream.mispredicted.get(ip, 0),
                        f"heavy hitter {ip:#x}: {m} mispredictions, stream has "
                        f"{stream.mispredicted.get(ip, 0)}"):
            break
    p.expect([int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1)), "ranks not 1..n")
    p.expect(sorted(zip(counts, ips), key=lambda t: (-t[0], t[1])) == list(zip(counts, ips)),
             "heavy hitters not ordered by count, then ip")
    total = stream.total_mispredicted
    running = 0
    for r, m in zip(rows, counts):
        running += m
        if not p.expect(_close(float(r["cumulative_fraction"]), running / total),
                        f"cumulative fraction at rank {r['rank']}"):
            break
    p.expect(bool(rows) and rows[-1]["cumulative_fraction"] == "1.000000",
             "cumulative fraction does not end at 1")
    p.expect(_json(out / "hh_summary.json")["total_mispredictions"] == total,
             "hh_summary total_mispredictions")


def _check_h2p(out: Path, stream: Stream, ref: Reference, p: Problems) -> None:
    execs: Counter = Counter()
    mis: Counter = Counter()
    for seq, ip, pr, ac in zip(stream.seq, stream.ip, stream.predicted, stream.actual):
        key = (seq // wl.H2P_SLICE_LEN, ip)
        execs[key] += 1
        mis[key] += pr != ac
    expected = {
        key for key, e in execs.items()
        if e >= wl.H2P_MIN_EXECS and mis[key] >= wl.H2P_MIN_MIS
        and 1 - mis[key] / e < wl.H2P_MAX_ACC
    }
    rows = _rows(out / "h2p.csv")
    flagged = set()
    for r in rows:
        key = (int(r["slice"]), int(r["ip"], 16))
        flagged.add(key)
        if not p.expect(int(r["executions"]) == execs[key]
                        and int(r["mispredictions"]) == mis[key],
                        f"h2p row {r} disagrees with the stream"):
            break
    p.expect(flagged == expected, f"h2p flags {len(flagged)} (slice, ip) pairs, "
             f"the stream gives {len(expected)}")
    full = ref.instructions // wl.H2P_SLICE_LEN
    data_slices = sum(1 for s, ip in flagged if ip == wl.DATA_IP and s < full)
    p.expect(data_slices >= math.ceil(0.9 * full),
             f"DataDependent ip flagged in {data_slices} of {full} full slices")
    p.expect(not any(ip == wl.BIASED_IP for _, ip in flagged), "Biased(0.999) ip flagged")


def _per_ip_accuracy(stream: Stream) -> dict[int, tuple[int, float]]:
    return {ip: (e, 1.0 - stream.mispredicted.get(ip, 0) / e)
            for ip, e in stream.executions.items()}


def _check_rare(out: Path, stream: Stream, p: Problems) -> None:
    grouped: dict[int, list[float]] = defaultdict(list)
    for e, acc in _per_ip_accuracy(stream).values():
        grouped[e // RARE_BIN_WIDTH].append(acc)
    rows = _rows(out / "rare_bins.csv")
    p.expect([int(r["bin_lo"]) // RARE_BIN_WIDTH for r in rows] == sorted(grouped),
             "rare bins differ from the bins of the stream")
    for r in rows:
        accs = grouped.get(int(r["bin_lo"]) // RARE_BIN_WIDTH, [])
        if not accs:
            continue
        mean = sum(accs) / len(accs)
        std = math.sqrt(sum((a - mean) ** 2 for a in accs) / len(accs))
        if not p.expect(int(r["count"]) == len(accs)
                        and _close(float(r["mean_acc"]), mean)
                        and _close(float(r["std_acc"]), std),
                        f"rare bin {r['bin_lo']}: {r} vs count {len(accs)}, "
                        f"mean {mean:.6f}, std {std:.6f}"):
            break


def _check_recur(out: Path, ref: Reference, p: Problems) -> None:
    rows = {int(r["ip"], 16): r for r in _rows(out / "recurrence.csv")}
    p.expect(set(rows) == set(ref.executions), "recurrence.csv ips differ from the COND ips")
    for ip, r in rows.items():
        gaps = sorted(ref.gaps.get(ip, []))
        ok = int(r["executions"]) == ref.executions.get(ip)
        if not gaps:
            ok &= r["median_interval"] == "" and r["decade_bin"] == ""
        else:
            median = gaps[(len(gaps) - 1) // 2]
            ok &= (r["median_interval"] == str(median)
                   and r["decade_bin"] == str(min(8, len(str(median)) - 1)))
        if not p.expect(ok, f"recurrence row {r} disagrees with the generated records"):
            break
    singletons = {ip for ip, n in ref.executions.items() if n == 1}
    summary = _json(out / "recur_summary.json")
    p.expect(summary["singletons"] == len(singletons), "recur_summary singletons")


def _check_limit(out: Path, stream: Stream, ref: Reference, p: Problems) -> None:
    n, m = ref.instructions, stream.total_mispredicted
    points = {(int(r["scale"]), r["oracle"]): r for r in _rows(out / "opportunity.csv")}
    oracles = ["as-simulated", "perfect-all"] + [f"perfect-min-execs:{c}" for c in wl.CUTOFFS]
    if not p.expect(set(points) == {(s, o) for s in wl.SCALES for o in oracles},
                    "opportunity.csv grid differs from scales x oracles"):
        return
    for s in wl.SCALES:
        p.expect(_close(float(points[s, "as-simulated"]["ipc"]), _ipc(n, m, s)),
                 f"as-simulated IPC at scale {s} is not N/(N/(W s) + M D)")
        p.expect(_close(float(points[s, "perfect-all"]["ipc"]), wl.WIDTH * s),
                 f"perfect-all IPC at scale {s} is not W s")
    opp = [float(points[s, "as-simulated"]["opportunity"]) for s in wl.SCALES]
    p.expect(all(a < b for a, b in zip(opp, opp[1:])), "opportunity does not rise with scale")
    per_ip = _per_ip_accuracy(stream)
    for c in wl.CUTOFFS:
        expected = sum(stream.mispredicted.get(ip, 0) for ip, (e, _) in per_ip.items() if e <= c)
        for s in wl.SCALES:
            r = points[s, f"perfect-min-execs:{c}"]
            recovered = round(float(r["opportunity"]) * n / (wl.PENALTY * wl.WIDTH * s))
            p.expect(recovered == expected and _close(float(r["ipc"]), _ipc(n, expected, s)),
                     f"perfect-min-execs:{c} at scale {s} keeps {recovered} "
                     f"mispredictions, the stream gives {expected}")
    summary = _json(out / "limit_summary.json")
    p.expect(summary["mispredictions"] == m and summary["instructions"] == n,
             "limit_summary counts")
    p.expect(_close(summary["base_ipc"], _ipc(n, m, 1)), "limit_summary base_ipc")


def _check_sweep(out: Path, stream: Stream, p: Problems) -> None:
    rows = _rows(out / "storage_sweep.csv")
    p.expect({(int(r["budget_bytes"]), int(r["scale"])) for r in rows}
             == {(b, s) for b in (8192, 65536) for s in wl.SCALES},
             "storage_sweep.csv grid differs from budgets x scales")
    acc = _json(out / "sweep_summary.json")["accuracy"]
    p.expect(_close(acc["8192"], stream.accuracy()),
             f"sweep 8kb accuracy {acc['8192']} differs from sim's {stream.accuracy():.6f}")
    for r in rows:
        if r["budget_bytes"] == "8192":
            p.expect(float(r["captured_fraction"]) == 0.0, "anchor budget captures a nonzero gap")


def check_characterize(traces, outdir: Path, refs) -> dict[str, Problems]:
    ref = refs[traces[0].path]
    probs = {name: Problems() for name in
             ("sim", "hh", "h2p", "rare", "recur", "limit", "sweep")}
    stream = _guard(probs["sim"], _check_sim, outdir / "sim", ref)
    _guard(probs["recur"], _check_recur, outdir / "recur", ref)
    for name, fn, args in (("hh", _check_hh, ()), ("h2p", _check_h2p, (ref,)),
                           ("rare", _check_rare, ()), ("limit", _check_limit, (ref,)),
                           ("sweep", _check_sweep, ())):
        if stream is None:
            probs[name].append("no verified misprediction stream to check against")
        else:
            _guard(probs[name], fn, outdir / name, stream, *args)
    return probs


# ------------------------------------------------------------ dataflow

def _check_deps(out: Path, ref: Reference, p: Problems) -> None:
    targets = _json(out / "deps_summary.json")["targets"]
    data, hist = targets[hex(wl.DATA_IP)], targets[hex(wl.HISTORY_IP)]
    p.expect(data["executions"] == ref.executions[wl.DATA_IP],
             "deps executions of the DataDependent ip")
    p.expect(hist["executions"] == ref.executions[wl.HISTORY_IP],
             "deps executions of the HistoryCorrelated ip")
    p.expect(data["top_dependency"] == hex(wl.GATE_IP),
             f"top dependency of the DataDependent ip is {data['top_dependency']}, "
             f"not its gate {wl.GATE_IP:#x}")
    p.expect(hist["n_dep_branches"] == 0 and hist["top_dependency"] is None,
             "HistoryCorrelated ip has a dependency branch")
    # Each execution reads the write its own gate read, and nothing else
    # shares that value: the gate's mass is the execution count.
    mass: Counter = Counter()
    for r in _rows(out / "deps.csv"):
        mass[int(r["h2p_ip"], 16), int(r["dep_ip"], 16)] += int(r["count"])
    p.expect(mass == Counter({(wl.DATA_IP, wl.GATE_IP): ref.executions[wl.DATA_IP]}),
             "deps.csv mass is not one gate occurrence per DataDependent execution")


def _check_regvals(out: Path, ref: Reference, p: Problems) -> None:
    counts: Counter = Counter()
    for r in _rows(out / "regvals.csv"):
        p.expect(int(r["h2p_ip"], 16) == wl.DATA_IP and int(r["reg"]) == wl.WALK_REG,
                 f"regvals row for an unwritten register: {r}")
        counts[int(r["value_hex"], 16)] += int(r["count"])
    lo, hi = wl.WALK_THRESHOLD - wl.WALK_HALF_RANGE, wl.WALK_THRESHOLD + wl.WALK_HALF_RANGE
    p.expect(all(lo <= v <= hi for v in counts), "walk register value outside its range")
    p.expect(sum(counts.values()) == ref.executions[wl.DATA_IP],
             "walk register counts do not sum to the executions")
    p.expect(counts == ref.walk_values, "walk register histogram differs from the generator's")


def check_dataflow(traces, outdir: Path, refs) -> dict[str, Problems]:
    ref = refs[traces[0].path]
    probs = {"deps": Problems(), "regvals": Problems()}
    _guard(probs["deps"], _check_deps, outdir / "deps", ref)
    _guard(probs["regvals"], _check_regvals, outdir / "regvals", ref)
    return probs


# ------------------------------------------------------------ helpers

def _check_models(path: Path, kind: str, h: int, train_refs, p: Problems) -> None:
    from branchlab import helper

    models = {m.ip: m for m in helper.load_models_file(path)}
    p.expect(sorted(models) == sorted(wl.HELPER_IPS), f"{path.name} holds ips {sorted(models)}")
    for ip, m in models.items():
        p.expect(m.kind == kind and m.h == h, f"{path.name}: model {ip:#x} is {m.kind}/h={m.h}")
        if kind != helper.PATTERN_TABLE:
            p.expect(len(m.params["weights"]) == h + 1, f"{path.name}: {ip:#x} weight count")
            continue
        seen = sum(t + n for t, n in m.params.values())
        execs = sum(r.executions[ip] for r in train_refs)
        p.expect(seen == execs, f"pattern table {ip:#x} counts {seen}, "
                 f"training traces execute it {execs} times")
    if kind == helper.PATTERN_TABLE and wl.HISTORY_IP in models:
        # the planted direction is the XOR of the history bits at the planted positions
        for key, (t, n) in models[wl.HISTORY_IP].params.items():
            taken = sum(key >> (q - 1) & 1 for q in wl.HISTORY_POSITIONS) & 1
            if not p.expect(n == 0 if taken else t == 0,
                            f"HistoryCorrelated pattern {key:#x} contradicts the planted XOR"):
                break


def _check_eval(out: Path, ref: Reference, min_history_acc: float | None, p: Problems) -> None:
    targets = _json(out / "eval_helper.json")["targets"]
    for ip in wl.HELPER_IPS:
        row = targets[hex(ip)]
        p.expect(row["executions"] == ref.executions[ip], f"eval executions of {ip:#x}")
    if min_history_acc is not None:
        acc = targets[hex(wl.HISTORY_IP)]["composite_accuracy"]
        p.expect(acc >= min_history_acc,
                 f"pattern-table helper scores {acc} on the HistoryCorrelated ip")


def check_helpers(traces, outdir: Path, refs) -> dict[str, Problems]:
    from branchlab import helper

    train_refs = [refs[t.path] for t in traces[:2]]
    held_out = refs[traces[2].path]
    probs = {name: Problems() for name in
             ("train-pattern", "train-perceptron", "eval-8kb", "eval-64kb")}
    _guard(probs["train-pattern"], _check_models, outdir / "models" / "pattern.hm1",
           helper.PATTERN_TABLE, wl.PATTERN_HISTORY, train_refs)
    _guard(probs["train-perceptron"], _check_models, outdir / "models" / "perceptron.hm1",
           helper.PERCEPTRON, wl.PERCEPTRON_HISTORY, train_refs)
    _guard(probs["eval-8kb"], _check_eval, outdir / "eval-8kb", held_out, 0.99)
    _guard(probs["eval-64kb"], _check_eval, outdir / "eval-64kb", held_out, None)
    return probs


# ------------------------------------------------------------ entry

def _guard(p: Problems, fn, *args):
    """Run ``fn(*args, p)``; a report that is missing or unreadable is a problem."""
    try:
        return fn(*args, p)
    except (OSError, LookupError, ValueError, TypeError, ArithmeticError, csv.Error) as exc:
        p.append(f"unreadable report: {exc!r}")
        return None


CHECKS = {
    "characterize": check_characterize,
    "dataflow": check_dataflow,
    "helpers": check_helpers,
}


def check_round(workload: str, traces, outdir: Path, refs) -> dict[str, Problems]:
    return CHECKS[workload](traces, outdir, refs)
