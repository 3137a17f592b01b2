"""Spans around the calls into branchlab's layers, recorded from outside.

``instrument_cli`` replaces the public functions the CLI calls, in the
module attributes their callers look them up through, with wrappers that
record a span per call: name, start, end, parent span and command, plus a
few counts. ``instrument_setup`` does the same for the benchmark's own
set-up. Spans stay in memory; ``Tracer.dump`` writes them out at the end.
No file of the program changes.

Run as a script, this file is the traced CLI: it instruments branchlab,
calls ``branchlab.cli.main`` in-process on the arguments after ``--``,
and writes the spans of that one command to ``--spans``::

    python3 bench/tracing.py --spans spans.json --cmd sim -- sim --trace t.it1b
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, command: str):
        self.command = command
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, attrs=None):
        """A wrapper of ``fn`` that records one span per call. ``attrs(args,
        kwargs, result)`` adds counts to the span after its end is taken."""
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "cmd": self.command,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _predictor_key(predictor) -> str:
    baseline = getattr(predictor, "baseline", None)
    if baseline is not None:   # a helper-attached composite
        return f"helpered({_predictor_key(baseline)}, {sorted(predictor.helpers)})"
    return f"{type(predictor).__name__}({getattr(predictor, 'config', None)!r})"


def _recurrence_attrs(args, kwargs, report):
    return {"hist_ok": all(sum(st.decade_histogram) == st.executions - 1
                           for st in report.per_ip.values())}


def _wrapper(tracer: Tracer):
    def wrap(module, attr, name, attrs=None, also=()):
        traced = tracer.span(name, getattr(module, attr), attrs)
        for owner in (module, *also):
            setattr(owner, attr, traced)
    return wrap


def instrument_setup(tracer: Tracer) -> None:
    """Wrap what the benchmark's set-up calls: generation and encoding."""
    from branchlab import synth, traceio

    wrap = _wrapper(tracer)
    wrap(synth, "generate_trace", "synth.generate")
    for attr in ("write_branch_trace", "write_instr_trace"):
        wrap(traceio, attr, "traceio.encode")


def instrument_cli(tracer: Tracer) -> None:
    """Wrap the layer entry points the CLI calls."""
    from branchlab import charax, cli, depgraph, helper, pipeline, predictors, reports, traceio

    wrap = _wrapper(tracer)
    count = lambda a, k, r: {"records": len(r)}                          # noqa: E731
    for attr in ("read_branch_trace", "read_instr_trace"):
        wrap(traceio, attr, "traceio.decode", count)
    for attr in ("load_branch_trace", "load_instr_trace"):
        wrap(traceio, attr, "traceio.load", lambda a, k, r: {"path": str(a[0])})
    wrap(traceio, "project_branches", "traceio.project", count)

    wrap(predictors, "simulate", "predictors.simulate",
         lambda a, k, r: {"cond": len(r),
                          "replay": hasattr(_arg(a, k, 1, "predictor"), "replay"),
                          "config": _predictor_key(_arg(a, k, 1, "predictor"))},
         also=(cli,))

    for attr in ("per_ip_totals", "accumulate_slice_stats", "h2p_report", "heavy_hitters",
                 "rare_bins"):
        wrap(charax, attr, f"charax.{attr}")
    wrap(charax, "recurrence_intervals", "charax.recurrence_intervals", _recurrence_attrs)
    wrap(depgraph, "find_dependency_branches", "depgraph.deps",
         lambda a, k, r: {"records": len(a[0])})
    wrap(depgraph, "regval_snapshots", "depgraph.regvals")
    for attr in ("scaling_sweep", "storage_sweep"):
        wrap(pipeline, attr, f"pipeline.{attr}")
    wrap(helper, "train_helper", "helper.train")
    wrap(helper, "evaluate_generalization", "helper.eval")
    for attr in ("save_models_file", "load_models_file"):
        wrap(helper, attr, "helper.model_io")

    for attr in dir(reports):
        if attr.startswith("write_"):
            wrap(reports, attr, "reports.write")
    wrap(reports, "atomic_write_text", "reports.write",
         lambda a, k, r: {"bytes": len(_arg(a, k, 1, "text").encode("utf-8"))})
    stream_cls = predictors.MispredictionStream
    stream_cls.to_csv = tracer.span("reports.to_csv", stream_cls.to_csv)


# ------------------------------------------------------------ metrics

PER_LAYER = (
    ("traceio.decode_s", "s"), ("traceio.decode_calls", "count"),
    ("traceio.decode_records_per_s", "records/s"), ("traceio.decodes_per_trace", "ratio"),
    ("traceio.project_s", "s"), ("synth.generate_s", "s"), ("traceio.encode_s", "s"),
    ("predictors.simulate_s", "s"), ("predictors.simulate_calls", "count"),
    ("predictors.replay_cond_per_s", "cond/s"), ("predictors.step_cond_per_s", "cond/s"),
    ("predictors.sims_per_config", "ratio"),
    ("charax.self_s", "s"),
    ("depgraph.deps_s", "s"), ("depgraph.deps_instr_per_s", "instructions/s"),
    ("depgraph.regvals_s", "s"),
    ("pipeline.self_s", "s"),
    ("helper.train_s", "s"), ("helper.eval_self_s", "s"), ("helper.model_io_s", "s"),
    ("reports.write_s", "s"), ("reports.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)


def _dur(span) -> float:
    return span["end"] - span["start"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup_spans: list[dict], command_spans: list[dict],
                  cmd_trace: dict[str, str]) -> dict[str, float]:
    """Per-layer figures of one traced round (its command spans) and of the
    set-up that made its inputs. ``cmd_trace`` names the trace each
    simulating command reads. Keys are PER_LAYER's names, without the
    trace.* pair, which needs the untraced rounds."""
    by_id = {(s["cmd"], s["id"]): s for s in command_spans}
    children = defaultdict(float)
    for s in command_spans:
        if s["parent"] is not None:
            children[s["cmd"], s["parent"]] += _dur(s)

    def spans(name, among=command_spans):
        return [s for s in among if s["name"] == name]

    def total(among):
        return sum(_dur(s) for s in among)

    def self_time(prefix):
        return sum(_dur(s) - children[s["cmd"], s["id"]]
                   for s in command_spans if s["name"].startswith(prefix))

    decodes = spans("traceio.decode")
    sims = spans("predictors.simulate")
    replays = [s for s in sims if s["replay"]]
    steps = [s for s in sims if not s["replay"]]
    deps = spans("depgraph.deps")
    configs = {(cmd_trace[s["cmd"]], s["config"]) for s in sims}
    # outermost report spans: a write_* that calls atomic_write_text counts once
    writes = [s for s in command_spans if s["name"].startswith("reports.")
              and (s["parent"] is None
                   or not by_id[s["cmd"], s["parent"]]["name"].startswith("reports."))]
    return {
        "traceio.decode_s": total(decodes),
        "traceio.decode_calls": len(decodes),
        "traceio.decode_records_per_s": _ratio(sum(s["records"] for s in decodes),
                                               total(decodes)),
        "traceio.decodes_per_trace": _ratio(len(decodes),
                                            len({s["path"] for s in spans("traceio.load")})),
        "traceio.project_s": total(spans("traceio.project")),
        "synth.generate_s": total(spans("synth.generate", setup_spans)),
        "traceio.encode_s": total(spans("traceio.encode", setup_spans)),
        "predictors.simulate_s": total(sims),
        "predictors.simulate_calls": len(sims),
        "predictors.replay_cond_per_s": _ratio(sum(s["cond"] for s in replays), total(replays)),
        "predictors.step_cond_per_s": _ratio(sum(s["cond"] for s in steps), total(steps)),
        "predictors.sims_per_config": _ratio(len(sims), len(configs)),
        "charax.self_s": self_time("charax."),
        "depgraph.deps_s": total(deps),
        "depgraph.deps_instr_per_s": _ratio(sum(s["records"] for s in deps), total(deps)),
        "depgraph.regvals_s": total(spans("depgraph.regvals")),
        "pipeline.self_s": self_time("pipeline."),
        "helper.train_s": total(spans("helper.train")),
        "helper.eval_self_s": self_time("helper.eval"),
        "helper.model_io_s": total(spans("helper.model_io")),
        "reports.write_s": total(writes),
        "reports.bytes": sum(s.get("bytes", 0) for s in command_spans),
        "cli.self_s": self_time("cli."),
    }


def check_spans(command_spans: list[dict], expected_records: dict[str, int],
                expected_cond: dict[str, int]) -> dict[str, list[str]]:
    """Problems per command: a decode whose record count differs from the
    generator's for its file, a simulate whose stream length differs from
    the generator's COND count for the command's trace, a recurrence
    histogram that does not sum to executions - 1."""
    by_id = {(s["cmd"], s["id"]): s for s in command_spans}
    problems = defaultdict(list)
    for s in command_spans:
        cmd = s["cmd"]
        if s["name"] == "traceio.decode":
            parent = by_id.get((cmd, s["parent"]))
            path = parent.get("path") if parent else None
            if path not in expected_records:
                problems[cmd].append("decode outside a load of a known trace")
            elif s["records"] != expected_records[path]:
                problems[cmd].append(f"decode of {path} returned {s['records']} records, "
                                     f"generator made {expected_records[path]}")
        elif s["name"] == "predictors.simulate" and s["cond"] != expected_cond.get(cmd):
            problems[cmd].append(f"simulate produced {s['cond']} records, generator made "
                                 f"{expected_cond.get(cmd)} COND")
        elif s["name"] == "charax.recurrence_intervals" and not s["hist_ok"]:
            problems[cmd].append("a decade histogram does not sum to executions - 1")
    return problems


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


# ------------------------------------------------------------ traced CLI

def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    tracer = Tracer(opts["--cmd"])
    start = perf_counter()
    from branchlab import cli

    instrument_cli(tracer)
    imported = perf_counter()
    code = tracer.span("cli.main", cli.main)(argv[sep + 1:])
    # the import of the CLI and its layers is the CLI's own time
    tracer.spans.append({"id": len(tracer.spans), "name": "cli.import", "cmd": tracer.command,
                         "parent": None, "start": start, "end": imported})
    tracer.dump(opts["--spans"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
