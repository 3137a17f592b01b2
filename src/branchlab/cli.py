"""Command-line front end.

Subcommands: gen, sim, h2p, hh, rare, recur, deps, regvals, limit, sweep,
train-helper, eval-helper. Exit codes: 0 success, 1 data error (missing or
corrupt inputs, empty targets), 2 usage error (bad flags or configuration).
Pass --json to print a machine-readable summary line to stdout.

Each handler ``_cmd_*`` loads its inputs, computes, writes its own report
files and returns its summary dict. ``main`` adds ``"command"`` to it,
writes it to the summary file the subparser names (``summary`` default;
gen and train-helper name none) and prints it as one line under --json.
The output directory is made only after the inputs have loaded.

Each command imports only the layers it runs, inside its handler: the
generator (and with it numpy) in ``gen``, the predictors where a
predictor is built, and each analysis layer (charax, depgraph, pipeline,
helper) in the handlers that call it. So ``sim`` loads no analysis layer,
``deps`` and ``regvals`` load only depgraph, and no command but ``gen``
imports numpy. The parser's defaults come from ``defaults``, which the
layers read too.

Every reading command recognizes a trace's format from its bytes, whatever
the file is named; only ``gen`` chooses one (``--format`` or the extension).

Every run is reproducible: identical argv and inputs produce byte-identical
report files. The default output directory is $BRANCHLAB_OUT or the current
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import defaults, reports, traceio
from .errors import ArgumentError, BranchLabError, ConfigError, EmptyTargetError
from .predictors import simulate
from .records import BranchKind

_USAGE_ERRORS = (ArgumentError, ConfigError)
DEFAULT_PREDICTOR = "tage-sc-l:8kb"


def _int_list(text: str) -> list[int]:
    try:
        return [int(part, 0) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ArgumentError(f"bad integer list {text!r}: {exc}") from None


def _reg_list(text: str) -> list[int]:
    regs: list[int] = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        lo, dash, hi = part.partition("-")
        try:
            regs.extend(range(int(lo), int(hi) + 1) if dash else [int(part, 0)])
        except ValueError:
            raise ArgumentError(f"bad register {'range' if dash else 'id'} {part!r}") from None
    bad = [r for r in regs if not 0 <= r <= 255]
    if bad:  # u8 ids, as InstructionRecord.validate requires
        raise ArgumentError(f"register ids must lie in [0, 255], got {bad[0]} in {text!r}")
    return regs


def _parse_ip(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ArgumentError(f"bad ip {text!r} (use hex like 0x400100)") from None


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("BRANCHLAB_OUT") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _out_file(path: str) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _load_branches(path: str, require_cond: bool = True):
    """(branch records, instruction count) of a trace in any format. A
    trace without branches is a data error, and so is one without COND
    branches unless ``require_cond`` is off (a training corpus may hold
    such a trace)."""
    records, instructions = traceio.load_branch_trace(path)
    if not records:
        raise EmptyTargetError(f"trace {path} holds no branch records")
    if require_cond and not any(r.kind is BranchKind.COND for r in records):
        raise EmptyTargetError(f"trace {path} holds no COND branches")
    return records, instructions


def _round(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


def _simulate_for(args):
    """(instruction count, predictor, stream) of the --trace under the
    predictor that --predictor or --config names. ``args.predictor``
    becomes the summary's label of it: the preset string, or the config's
    ``key=value`` pairs sorted by key and joined with ','."""
    from .predictors import load_predictor_config, make_predictor

    if args.config and args.predictor is not None:
        raise ArgumentError("--predictor and --config exclude each other")
    records, instructions = _load_branches(args.trace)
    if args.config:
        spec = load_predictor_config(args.config)
        args.predictor = ",".join(f"{k}={v}" for k, v in sorted(spec.items()))
    else:
        spec = args.predictor = DEFAULT_PREDICTOR if args.predictor is None else args.predictor
    predictor = make_predictor(spec, seed=args.seed)
    return instructions, predictor, simulate(records, predictor)


# --- subcommand handlers: each returns its summary ---------------------

def _cmd_gen(args) -> dict:
    from . import synth

    try:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArgumentError(f"spec {args.spec} is not JSON: {exc}") from None
    spec = synth.program_spec_from_json(doc)
    records, manifest = synth.generate_trace(spec, seed=args.seed, length=args.len)
    fmt = args.format or traceio.format_for_path(args.out)
    out = _out_file(args.out)
    traceio.save_trace(out, records, fmt)
    manifest_path = Path(args.manifest or f"{out}.manifest.json")
    doc = manifest.to_json_dict()
    doc["program_spec"] = synth.program_spec_to_json(spec)
    reports.write_json(manifest_path, doc)
    return {
        "out": str(out),
        "manifest": str(manifest_path),
        "format": fmt,
        "seed": args.seed,
        "instructions": manifest.meta.instructions,
        "cond_branches": manifest.meta.cond_branches,
        "planted": {
            klass: [f"{ip:#x}" for ip in manifest.ips_of_class(klass)]
            for klass in (synth.EASY, synth.H2P, synth.RARE)
        },
    }


def _cmd_sim(args) -> dict:
    total, predictor, stream = _simulate_for(args)
    reports.atomic_write_text(_out_dir(args) / "mispredictions.csv", stream.to_csv())
    return {
        "trace": args.trace,
        "predictor": args.predictor,
        "storage_bytes": predictor.storage_bytes(),
        "instructions": total,
        "cond_executions": len(stream),
        "mispredictions": stream.mispredictions(),
        "accuracy": round(stream.accuracy(), 6),
    }


def _cmd_h2p(args) -> dict:
    from . import charax

    charax.require_at_least_one(args.slice_len, "slice_len")
    criteria = charax.H2PCriteria(args.max_acc, args.min_execs, args.min_mis)
    criteria.validate()
    total, _predictor, stream = _simulate_for(args)
    slices = charax.accumulate_slice_stats(stream, total, args.slice_len)
    report = charax.h2p_report(slices, criteria)
    reports.write_h2p_csv(_out_dir(args) / "h2p.csv", slices, report)
    return {
        "trace": args.trace,
        "predictor": args.predictor,
        "slice_len": args.slice_len,
        "slices": len(slices),
        "h2p_ips": [f"{ip:#x}" for ip in sorted(report.union)],
        "occupancy": {f"{ip:#x}": n for ip, n in sorted(report.occupancy.items())},
        "avg_mis_fraction": _round(report.avg_mis_fraction),
    }


def _cmd_hh(args) -> dict:
    from . import charax

    _total, _predictor, stream = _simulate_for(args)
    report = charax.heavy_hitters(charax.per_ip_totals(stream))
    reports.write_heavy_hitters_csv(_out_dir(args) / "heavy_hitters.csv", report)
    top = report.top(5)
    return {
        "trace": args.trace,
        "predictor": args.predictor,
        "total_mispredictions": report.total_mispredictions,
        "top5_fraction": round(top[-1].cumulative_fraction, 6) if top else 0.0,
        "top5_ips": [f"{h.ip:#x}" for h in top],
    }


def _cmd_rare(args) -> dict:
    from . import charax

    charax.require_at_least_one(args.bin_width, "bin_width")
    _total, _predictor, stream = _simulate_for(args)
    report = charax.rare_bins(charax.per_ip_totals(stream), args.bin_width)
    reports.write_rare_bins_csv(_out_dir(args) / "rare_bins.csv", report)
    return {
        "trace": args.trace,
        "predictor": args.predictor,
        "bin_width": args.bin_width,
        "bins": len(report.bins),
        "static_branches": sum(b.count for b in report.bins),
    }


def _cmd_recur(args) -> dict:
    from . import charax

    records, _total = _load_branches(args.trace)
    report = charax.recurrence_intervals(records)
    reports.write_recurrence_csv(_out_dir(args) / "recurrence.csv", report)
    return {
        "trace": args.trace,
        "static_branches": len(report.per_ip),
        "singletons": len(report.singletons),
    }


def _cmd_deps(args) -> dict:
    from . import depgraph

    instrs = traceio.load_instr_trace(args.trace)
    dists = depgraph.find_dependency_branches(
        instrs,
        args.ip,
        window=args.window,
        direct_reads_only=args.direct_reads_only,
        include_memory=not args.no_memory,
    )
    out = _out_dir(args)
    reports.write_deps_csv(out / "deps.csv", dists)
    reports.write_deps_summary_csv(out / "deps_summary.csv", dists)
    return {
        "trace": args.trace,
        "window": args.window,
        "targets": {
            f"{d.target_ip:#x}": {
                "executions": d.executions,
                "n_dep_branches": d.n_dep_branches,
                "min_pos": d.min_position,
                "max_pos": d.max_position,
                "top_dependency": None
                if d.top_dependency() is None
                else f"{d.top_dependency():#x}",
            }
            for d in dists
        },
    }


def _cmd_regvals(args) -> dict:
    from . import depgraph

    instrs = traceio.load_instr_trace(args.trace)
    tracked = _reg_list(args.regs)
    hists = [depgraph.regval_snapshots(instrs, ip, tracked=tracked, mask=args.mask)
             for ip in args.ip]
    reports.write_regvals_csv(_out_dir(args) / "regvals.csv", hists)
    return {
        "trace": args.trace,
        "targets": {
            f"{h.target_ip:#x}": {
                "executions": h.executions,
                "distinct_values": len(h.counts),
            }
            for h in hists
        },
    }


def _model_config(args):
    """The analytic machine, checked at every --scales entry."""
    from . import pipeline

    config = pipeline.PipelineModelConfig(
        width=args.width, penalty=args.penalty, scaled_penalty=args.scaled_penalty
    )
    pipeline.at_scales(config, args.scales)
    return config


def _cmd_limit(args) -> dict:
    from . import charax, pipeline

    oracles = [pipeline.PredictionOracle.perfect_min_execs(c) for c in args.cutoffs]
    if args.perfect_ips:
        oracles.append(pipeline.PredictionOracle.perfect_set(args.perfect_ips))
    config = _model_config(args)
    total, _predictor, stream = _simulate_for(args)
    stats = charax.per_ip_totals(stream)
    curve = pipeline.scaling_sweep(config, args.scales, total, stats, oracles)
    reports.write_opportunity_csv(_out_dir(args) / "opportunity.csv", curve)
    base = curve.at(args.scales[0], "as-simulated")
    return {
        "trace": args.trace,
        "predictor": args.predictor,
        "instructions": total,
        "mispredictions": curve.raw_mispredictions,
        "scales": args.scales,
        "base_ipc": round(base.ipc, 6),
        "base_opportunity": round(base.opportunity, 6),
    }


def _cmd_sweep(args) -> dict:
    from . import pipeline

    records, total = _load_branches(args.trace)
    sweep = pipeline.storage_sweep(
        records,
        budgets=args.budgets,
        scales=args.scales,
        config=_model_config(args),
        total_instructions=total,
        seed=args.seed,
    )
    reports.write_storage_sweep_csv(_out_dir(args) / "storage_sweep.csv", sweep)
    return {
        "trace": args.trace,
        "budgets": args.budgets,
        "scales": args.scales,
        "accuracy": {str(b): round(sweep.accuracy_of(b), 6) for b in args.budgets},
    }


def _cmd_train_helper(args) -> dict:
    from . import helper

    corpus = helper.TrainingCorpus()
    for item in args.trace:
        path, _, input_id = item.partition("=")
        records, _ = _load_branches(path, require_cond=False)
        corpus.add(Path(path).name, input_id or Path(path).stem, records)
    models = helper.train_helpers(
        corpus, args.ip, kind=args.kind, h=args.history, tau=args.tau, epochs=args.epochs
    )
    out = _out_file(args.out)
    helper.save_models_file(out, models)
    return {
        "out": str(out),
        "bytes": out.stat().st_size,
        "kind": args.kind,
        "h": args.history,
        "tau": args.tau,
        "inputs": sorted(corpus.input_ids()),
        "ips": [f"{m.ip:#x}" for m in models],
    }


def _cmd_eval_helper(args) -> dict:
    from . import helper
    from .predictors import make_predictor

    if args.tau is not None:
        helper.require_tau(args.tau)
    models = helper.load_models_file(args.models)
    records, _total = _load_branches(args.trace)
    base_stream = simulate(records, make_predictor(args.baseline, seed=args.seed))
    report = helper.evaluate_generalization(models, base_stream, tau=args.tau)
    return {
        "trace": args.trace,
        "models": args.models,
        "baseline": args.baseline,
        "overall_baseline": round(report.overall_baseline, 6),
        "overall_composite": round(report.overall_composite, 6),
        "targets": {
            f"{row.ip:#x}": {
                "executions": row.executions,
                "baseline_accuracy": _round(row.baseline_accuracy),
                "composite_accuracy": _round(row.composite_accuracy),
                "delta": _round(row.delta),
                "queries": row.queries,
                "overrides": row.overrides,
                "override_correct": row.override_correct,
            }
            for row in report.rows
        },
    }


# --- parser -----------------------------------------------------------

def _flags(*specs) -> argparse.ArgumentParser:
    """A parent parser holding the given (option string, keywords) flags."""
    parent = argparse.ArgumentParser(add_help=False)
    for name, kwargs in specs:
        parent.add_argument(name, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description="Trace-driven branch prediction workbench: synthetic traces, "
        "predictor simulation, hard-branch analysis, and helper models.",
    )
    parser.add_argument("--json", action="store_true", help="print a JSON summary to stdout")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    trace = _flags(("--trace", dict(required=True, help="input trace file (any format)")))
    predictor = _flags(
        ("--predictor", dict(default=None, help=f"preset (default {DEFAULT_PREDICTOR})")),
        ("--config", dict(default=None, help="key=value predictor file (excludes --predictor)")))
    seed = _flags(("--seed", dict(type=int, default=0, help="RNG seed")))
    out = _flags(("--out", dict(default=None,
                                help="output directory (default $BRANCHLAB_OUT or .)")))
    machine = _flags(
        ("--scales", dict(type=_int_list, default=list(defaults.DEFAULT_SCALES))),
        ("--width", dict(type=int, default=defaults.DEFAULT_WIDTH)),
        ("--penalty", dict(type=int, default=defaults.DEFAULT_PENALTY)),
        ("--scaled-penalty", dict(action="store_true")))
    ip = _flags(("--ip", dict(required=True, type=_parse_ip, action="append",
                              help="target branch ip (repeatable)")))
    simulated = [trace, predictor, seed, out]

    def command(name, func, help, parents=(), summary=None):
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(func=func, summary=summary)
        return p

    p = command("gen", _cmd_gen, "generate a synthetic trace from a program spec", [seed])
    p.add_argument("--spec", required=True, help="program spec JSON file")
    p.add_argument("--len", type=int, required=True, help="instruction count")
    p.add_argument("--out", required=True, help="output trace path (.it1/.it1b/.bt1/.bt1b)")
    p.add_argument("--format", default=None, help="override format chosen from the extension")
    p.add_argument("--manifest", default=None, help="manifest path (default OUT.manifest.json)")

    command("sim", _cmd_sim, "simulate a predictor over a trace", simulated, "sim_summary.json")

    p = command("h2p", _cmd_h2p, "screen for hard-to-predict branches per slice", simulated,
                "h2p_summary.json")
    p.add_argument("--slice-len", type=int, default=defaults.DEFAULT_SLICE_LEN)
    p.add_argument("--max-acc", type=float, default=0.99)
    p.add_argument("--min-execs", type=int, default=15_000)
    p.add_argument("--min-mis", type=int, default=1_000)

    command("hh", _cmd_hh, "rank heavy-hitter branches by mispredictions", simulated,
            "hh_summary.json")

    p = command("rare", _cmd_rare, "accuracy spread across execution-count bins", simulated,
                "rare_summary.json")
    p.add_argument("--bin-width", type=int, default=100)

    command("recur", _cmd_recur, "recurrence intervals per static branch", [trace, out],
            "recur_summary.json")

    p = command("deps", _cmd_deps, "dependency branches of a target branch", [trace, ip, out],
                "deps_summary.json")
    p.add_argument("--window", type=int, default=defaults.DEFAULT_WINDOW)
    p.add_argument("--direct-reads-only", action="store_true",
                   help="share on direct reads only, not full slices")
    p.add_argument("--no-memory", action="store_true",
                   help="trace register dataflow only")

    p = command("regvals", _cmd_regvals, "pre-execution register values at a branch",
                [trace, ip, out], "regvals_summary.json")
    p.add_argument("--regs", default="0-17", help="tracked registers, e.g. 0-17 or 0,3,5")
    p.add_argument("--mask", type=lambda s: int(s, 0), default=defaults.DEFAULT_VALUE_MASK)

    p = command("limit", _cmd_limit, "IPC opportunity under prediction oracles",
                [*simulated, machine], "limit_summary.json")
    p.add_argument("--cutoffs", type=_int_list, default=[100, 1000],
                   help="execution cutoffs for perfect-min-execs oracles")
    p.add_argument("--perfect-ips", type=lambda s: [_parse_ip(x) for x in s.split(",")],
                   default=None, help="ips for a perfect-set oracle")

    p = command("sweep", _cmd_sweep, "accuracy and captured opportunity vs storage budget",
                [trace, seed, machine, out], "sweep_summary.json")
    p.add_argument("--budgets", type=_int_list, default=[8192, 65536])

    p = command("train-helper", _cmd_train_helper, "train per-branch helper models offline",
                [ip])
    p.add_argument("--trace", required=True, action="append",
                   help="training trace, PATH or PATH=INPUT_ID (repeatable)")
    p.add_argument("--kind", choices=(defaults.PATTERN_TABLE, defaults.PERCEPTRON),
                   default=defaults.PATTERN_TABLE)
    p.add_argument("--history", type=int, default=16, help="history length h")
    p.add_argument("--tau", type=float, default=defaults.DEFAULT_TAU)
    p.add_argument("--epochs", type=int, default=defaults.DEFAULT_EPOCHS)
    p.add_argument("--out", required=True, help="output model file (.hm1)")

    p = command("eval-helper", _cmd_eval_helper, "evaluate helper models on a held-out trace",
                [trace, seed, out], "eval_helper.json")
    p.add_argument("--models", required=True, help="HM1 model file")
    p.add_argument("--baseline", default=DEFAULT_PREDICTOR)
    p.add_argument("--tau", type=float, default=None, help="override every model's threshold")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        summary = {"command": args.command, **args.func(args)}
        if args.summary:
            reports.write_json(_out_dir(args) / args.summary, summary)
    except _USAGE_ERRORS as exc:
        print(f"branchlab: usage error: {exc}", file=sys.stderr)
        return 2
    except (BranchLabError, OSError) as exc:
        print(f"branchlab: error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
