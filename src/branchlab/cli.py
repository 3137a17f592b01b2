"""Command-line front end.

Subcommands: gen, sim, h2p, hh, rare, recur, deps, regvals, limit, sweep,
train-helper, eval-helper. Exit codes: 0 success, 1 data error (missing or
corrupt inputs, empty targets), 2 usage error (bad flags or configuration).
Pass --json to print a machine-readable summary line to stdout.

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

from . import charax, depgraph, helper, pipeline, reports, synth, traceio
from .errors import ArgumentError, BranchLabError, ConfigError, EmptyTargetError
from .predictors import estimate_storage, make_predictor, simulate
from .records import BranchKind

_USAGE_ERRORS = (ArgumentError, ConfigError)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part, 0) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ArgumentError(f"bad integer list {text!r}: {exc}") from None


def _reg_list(text: str) -> list[int]:
    regs: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, _, hi = part.partition("-")
            try:
                regs.extend(range(int(lo), int(hi) + 1))
            except ValueError:
                raise ArgumentError(f"bad register range {part!r}") from None
        else:
            try:
                regs.append(int(part, 0))
            except ValueError:
                raise ArgumentError(f"bad register id {part!r}") from None
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


def _load_branches(path: str, fmt: str | None, require_cond: bool = True):
    """(branch records, instruction count) of a trace; the format comes
    from the extension unless given. A trace without branches is a data
    error in every format, and so is one without COND branches unless
    ``require_cond`` is off (a training corpus may hold such a trace)."""
    records, instructions = traceio.load_branch_trace(path, fmt or traceio.format_for_path(path))
    if not records:
        raise EmptyTargetError(f"trace {path} holds no branch records")
    if require_cond and not any(r.kind is BranchKind.COND for r in records):
        raise EmptyTargetError(f"trace {path} holds no COND branches")
    return records, instructions


def _build_predictor(args):
    if getattr(args, "config", None):
        from .predictors import load_predictor_config

        return make_predictor(dict(load_predictor_config(args.config)), seed=args.seed)
    return make_predictor(args.predictor, seed=args.seed)


def _emit(args, summary: dict) -> None:
    if args.json:
        print(json.dumps(summary, sort_keys=True))


def _simulate_for(args):
    records, total = _load_branches(args.trace, args.format)
    predictor = _build_predictor(args)
    stream = simulate(records, predictor)
    return records, total, predictor, stream


# --- subcommand handlers ----------------------------------------------

def _cmd_gen(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = synth.program_spec_from_json(json.load(fh))
    records, manifest = synth.generate_trace(spec, seed=args.seed, length=args.len)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    fmt = args.format or traceio.format_for_path(out)
    if fmt in traceio.BRANCH_FORMATS:
        traceio.save_trace(out, traceio.project_branches(records), fmt)
    else:
        traceio.save_trace(out, records, fmt)
    manifest_path = Path(args.manifest) if args.manifest else Path(f"{out}.manifest.json")
    doc = manifest.to_json_dict()
    doc["program_spec"] = synth.program_spec_to_json(spec)
    reports.write_json(manifest_path, doc)
    _emit(
        args,
        {
            "command": "gen",
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
        },
    )
    return 0


def _cmd_sim(args) -> int:
    records, total, predictor, stream = _simulate_for(args)
    out = _out_dir(args)
    reports.atomic_write_text(out / "mispredictions.csv", stream.to_csv())
    mis = stream.mispredictions()
    summary = {
        "command": "sim",
        "trace": args.trace,
        "predictor": args.predictor,
        "storage_bytes": estimate_storage(predictor),
        "instructions": total,
        "cond_executions": len(stream),
        "mispredictions": mis,
        "accuracy": round(stream.accuracy(), 6),
    }
    reports.write_json(out / "sim_summary.json", summary)
    _emit(args, summary)
    return 0


def _h2p_criteria(args) -> charax.H2PCriteria:
    crit = charax.H2PCriteria(
        max_accuracy=args.max_acc,
        min_executions=args.min_execs,
        min_mispredictions=args.min_mis,
    )
    crit.validate()
    return crit


def _cmd_h2p(args) -> int:
    records, total, predictor, stream = _simulate_for(args)
    slices = charax.accumulate_slice_stats(stream, total, args.slice_len)
    report = charax.h2p_report(slices, _h2p_criteria(args))
    out = _out_dir(args)
    reports.write_h2p_csv(out / "h2p.csv", slices, report)
    summary = {
        "command": "h2p",
        "trace": args.trace,
        "predictor": args.predictor,
        "slice_len": args.slice_len,
        "slices": len(slices),
        "h2p_ips": [f"{ip:#x}" for ip in sorted(report.union)],
        "occupancy": {f"{ip:#x}": n for ip, n in sorted(report.occupancy.items())},
        "avg_mis_fraction": None
        if report.avg_mis_fraction is None
        else round(report.avg_mis_fraction, 6),
    }
    reports.write_json(out / "h2p_summary.json", summary)
    _emit(args, summary)
    return 0


def _cmd_hh(args) -> int:
    records, total, predictor, stream = _simulate_for(args)
    report = charax.heavy_hitters(charax.per_ip_totals(stream))
    out = _out_dir(args)
    reports.write_heavy_hitters_csv(out / "heavy_hitters.csv", report)
    top = report.top(5)
    summary = {
        "command": "hh",
        "trace": args.trace,
        "predictor": args.predictor,
        "total_mispredictions": report.total_mispredictions,
        "top5_fraction": round(top[-1].cumulative_fraction, 6) if top else 0.0,
        "top5_ips": [f"{h.ip:#x}" for h in top],
    }
    reports.write_json(out / "hh_summary.json", summary)
    _emit(args, summary)
    return 0


def _cmd_rare(args) -> int:
    records, total, predictor, stream = _simulate_for(args)
    report = charax.rare_bins(charax.per_ip_totals(stream), args.bin_width)
    out = _out_dir(args)
    reports.write_rare_bins_csv(out / "rare_bins.csv", report)
    summary = {
        "command": "rare",
        "trace": args.trace,
        "predictor": args.predictor,
        "bin_width": args.bin_width,
        "bins": len(report.bins),
        "static_branches": sum(b.count for b in report.bins),
    }
    reports.write_json(out / "rare_summary.json", summary)
    _emit(args, summary)
    return 0


def _cmd_recur(args) -> int:
    records, _total = _load_branches(args.trace, args.format)
    report = charax.recurrence_intervals(records)
    out = _out_dir(args)
    reports.write_recurrence_csv(out / "recurrence.csv", report)
    summary = {
        "command": "recur",
        "trace": args.trace,
        "static_branches": len(report.per_ip),
        "singletons": len(report.singletons),
    }
    reports.write_json(out / "recur_summary.json", summary)
    _emit(args, summary)
    return 0


def _cmd_deps(args) -> int:
    instrs = traceio.load_instr_trace(args.trace, args.format)
    dists = [
        depgraph.find_dependency_branches(
            instrs,
            ip,
            window=args.window,
            direct_reads_only=args.direct_reads_only,
            include_memory=not args.no_memory,
        )
        for ip in args.ip
    ]
    out = _out_dir(args)
    reports.write_deps_csv(out / "deps.csv", dists)
    reports.write_deps_summary_csv(out / "deps_summary.csv", dists)
    summary = {
        "command": "deps",
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
    reports.write_json(out / "deps_summary.json", summary)
    _emit(args, summary)
    return 0


def _cmd_regvals(args) -> int:
    instrs = traceio.load_instr_trace(args.trace, args.format)
    tracked = _reg_list(args.regs)
    hists = [
        depgraph.regval_snapshots(instrs, ip, tracked=tracked, mask=args.mask)
        for ip in args.ip
    ]
    out = _out_dir(args)
    reports.write_regvals_csv(out / "regvals.csv", hists)
    summary = {
        "command": "regvals",
        "trace": args.trace,
        "targets": {
            f"{h.target_ip:#x}": {
                "executions": h.executions,
                "distinct_values": len(h.counts),
            }
            for h in hists
        },
    }
    reports.write_json(out / "regvals_summary.json", summary)
    _emit(args, summary)
    return 0


def _model_config(args) -> pipeline.PipelineModelConfig:
    return pipeline.PipelineModelConfig(
        width=args.width, penalty=args.penalty, scaled_penalty=args.scaled_penalty
    )


def _cmd_limit(args) -> int:
    records, total, predictor, stream = _simulate_for(args)
    stats = charax.per_ip_totals(stream)
    oracles = [pipeline.PredictionOracle.perfect_min_execs(c) for c in args.cutoffs]
    if args.perfect_ips:
        oracles.append(pipeline.PredictionOracle.perfect_set(args.perfect_ips))
    curve = pipeline.scaling_sweep(_model_config(args), args.scales, total, stats, oracles)
    out = _out_dir(args)
    reports.write_opportunity_csv(out / "opportunity.csv", curve)
    base = curve.at(args.scales[0], "as-simulated")
    summary = {
        "command": "limit",
        "trace": args.trace,
        "predictor": args.predictor,
        "instructions": total,
        "mispredictions": curve.raw_mispredictions,
        "scales": args.scales,
        "base_ipc": round(base.ipc, 6),
        "base_opportunity": round(base.opportunity, 6),
    }
    reports.write_json(out / "limit_summary.json", summary)
    _emit(args, summary)
    return 0


def _cmd_sweep(args) -> int:
    records, total = _load_branches(args.trace, args.format)
    sweep = pipeline.storage_sweep(
        records,
        budgets=args.budgets,
        scales=args.scales,
        config=_model_config(args),
        total_instructions=total,
        seed=args.seed,
    )
    out = _out_dir(args)
    reports.write_storage_sweep_csv(out / "storage_sweep.csv", sweep)
    summary = {
        "command": "sweep",
        "trace": args.trace,
        "budgets": args.budgets,
        "scales": args.scales,
        "accuracy": {
            str(b): round(sweep.accuracy_of(b), 6) for b in args.budgets
        },
    }
    reports.write_json(out / "sweep_summary.json", summary)
    _emit(args, summary)
    return 0


def _corpus_from_args(args) -> helper.TrainingCorpus:
    corpus = helper.TrainingCorpus()
    for item in args.trace:
        path, _, input_id = item.partition("=")
        records, _ = _load_branches(path, args.format, require_cond=False)
        corpus.add(Path(path).name, input_id or Path(path).stem, records)
    return corpus


def _cmd_train_helper(args) -> int:
    corpus = _corpus_from_args(args)
    models = [
        helper.train_helper(
            corpus, ip, kind=args.kind, h=args.history, tau=args.tau, epochs=args.epochs
        )
        for ip in args.ip
    ]
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    helper.save_models_file(out, models)
    summary = {
        "command": "train-helper",
        "out": str(out),
        "bytes": out.stat().st_size,
        "kind": args.kind,
        "h": args.history,
        "tau": args.tau,
        "inputs": sorted(corpus.input_ids()),
        "ips": [f"{m.ip:#x}" for m in models],
    }
    _emit(args, summary)
    return 0


def _cmd_eval_helper(args) -> int:
    models = helper.load_models_file(args.models)
    records, _total = _load_branches(args.trace, args.format)
    report = helper.evaluate_generalization(
        models, records, baseline=args.baseline, seed=args.seed, tau=args.tau
    )
    out = _out_dir(args)
    summary = {
        "command": "eval-helper",
        "trace": args.trace,
        "models": args.models,
        "baseline": args.baseline,
        "overall_baseline": round(report.overall_baseline, 6),
        "overall_composite": round(report.overall_composite, 6),
        "targets": {
            f"{row.ip:#x}": {
                "executions": row.executions,
                "baseline_accuracy": None
                if row.baseline_accuracy is None
                else round(row.baseline_accuracy, 6),
                "composite_accuracy": None
                if row.composite_accuracy is None
                else round(row.composite_accuracy, 6),
                "delta": None if row.delta is None else round(row.delta, 6),
                "queries": row.queries,
                "overrides": row.overrides,
                "override_correct": row.override_correct,
            }
            for row in report.rows
        },
    }
    reports.write_json(out / "eval_helper.json", summary)
    _emit(args, summary)
    return 0


# --- parser -----------------------------------------------------------

def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True, help="input trace file")
    p.add_argument("--format", default=None, help="override format autodetection")
    p.add_argument("--predictor", default="tage-sc-l:8kb", help="predictor preset")
    p.add_argument("--config", default=None, help="key=value predictor config file")
    p.add_argument("--seed", type=int, default=0, help="predictor RNG seed")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output directory (default $BRANCHLAB_OUT or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description="Trace-driven branch prediction workbench: synthetic traces, "
        "predictor simulation, hard-branch analysis, and helper models.",
    )
    parser.add_argument("--json", action="store_true", help="print a JSON summary to stdout")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen", help="generate a synthetic trace from a program spec")
    p.add_argument("--spec", required=True, help="program spec JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--len", type=int, required=True, help="instruction count")
    p.add_argument("--out", required=True, help="output trace path (.it1/.it1b/.bt1/.bt1b)")
    p.add_argument("--format", default=None, help="override format chosen from the extension")
    p.add_argument("--manifest", default=None, help="manifest path (default OUT.manifest.json)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sim", help="simulate a predictor over a trace")
    _add_sim_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("h2p", help="screen for hard-to-predict branches per slice")
    _add_sim_flags(p)
    _add_out_flag(p)
    p.add_argument("--slice-len", type=int, default=charax.DEFAULT_SLICE_LEN)
    p.add_argument("--max-acc", type=float, default=0.99)
    p.add_argument("--min-execs", type=int, default=15_000)
    p.add_argument("--min-mis", type=int, default=1_000)
    p.set_defaults(func=_cmd_h2p)

    p = sub.add_parser("hh", help="rank heavy-hitter branches by mispredictions")
    _add_sim_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=_cmd_hh)

    p = sub.add_parser("rare", help="accuracy spread across execution-count bins")
    _add_sim_flags(p)
    _add_out_flag(p)
    p.add_argument("--bin-width", type=int, default=100)
    p.set_defaults(func=_cmd_rare)

    p = sub.add_parser("recur", help="recurrence intervals per static branch")
    p.add_argument("--trace", required=True)
    p.add_argument("--format", default=None)
    _add_out_flag(p)
    p.set_defaults(func=_cmd_recur)

    p = sub.add_parser("deps", help="dependency branches of a target branch")
    p.add_argument("--trace", required=True, help="instruction trace (.it1/.it1b)")
    p.add_argument("--format", default=None)
    p.add_argument("--ip", required=True, type=_parse_ip, action="append",
                   help="target branch ip (repeatable)")
    p.add_argument("--window", type=int, default=depgraph.DEFAULT_WINDOW)
    p.add_argument("--direct-reads-only", action="store_true",
                   help="share on direct reads only, not full slices")
    p.add_argument("--no-memory", action="store_true",
                   help="trace register dataflow only")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_deps)

    p = sub.add_parser("regvals", help="pre-execution register values at a branch")
    p.add_argument("--trace", required=True, help="instruction trace (.it1/.it1b)")
    p.add_argument("--format", default=None)
    p.add_argument("--ip", required=True, type=_parse_ip, action="append")
    p.add_argument("--regs", default="0-17", help="tracked registers, e.g. 0-17 or 0,3,5")
    p.add_argument("--mask", type=lambda s: int(s, 0), default=depgraph.DEFAULT_VALUE_MASK)
    _add_out_flag(p)
    p.set_defaults(func=_cmd_regvals)

    p = sub.add_parser("limit", help="IPC opportunity under prediction oracles")
    _add_sim_flags(p)
    _add_out_flag(p)
    p.add_argument("--scales", type=_int_list, default=list(pipeline.DEFAULT_SCALES))
    p.add_argument("--cutoffs", type=_int_list, default=[100, 1000],
                   help="execution cutoffs for perfect-min-execs oracles")
    p.add_argument("--perfect-ips", type=lambda s: [_parse_ip(x) for x in s.split(",")],
                   default=None, help="ips for a perfect-set oracle")
    p.add_argument("--width", type=int, default=pipeline.DEFAULT_WIDTH)
    p.add_argument("--penalty", type=int, default=pipeline.DEFAULT_PENALTY)
    p.add_argument("--scaled-penalty", action="store_true")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("sweep", help="accuracy and captured opportunity vs storage budget")
    p.add_argument("--trace", required=True)
    p.add_argument("--format", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budgets", type=_int_list, default=[8192, 65536])
    p.add_argument("--scales", type=_int_list, default=list(pipeline.DEFAULT_SCALES))
    p.add_argument("--width", type=int, default=pipeline.DEFAULT_WIDTH)
    p.add_argument("--penalty", type=int, default=pipeline.DEFAULT_PENALTY)
    p.add_argument("--scaled-penalty", action="store_true")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("train-helper", help="train per-branch helper models offline")
    p.add_argument("--trace", required=True, action="append",
                   help="training trace, PATH or PATH=INPUT_ID (repeatable)")
    p.add_argument("--format", default=None)
    p.add_argument("--ip", required=True, type=_parse_ip, action="append")
    p.add_argument("--kind", choices=(helper.PATTERN_TABLE, helper.PERCEPTRON),
                   default=helper.PATTERN_TABLE)
    p.add_argument("--history", type=int, default=16, help="history length h")
    p.add_argument("--tau", type=float, default=helper.DEFAULT_TAU)
    p.add_argument("--epochs", type=int, default=helper.DEFAULT_EPOCHS)
    p.add_argument("--out", required=True, help="output model file (.hm1)")
    p.set_defaults(func=_cmd_train_helper)

    p = sub.add_parser("eval-helper", help="evaluate helper models on a held-out trace")
    p.add_argument("--models", required=True, help="HM1 model file")
    p.add_argument("--trace", required=True)
    p.add_argument("--format", default=None)
    p.add_argument("--baseline", default="tage-sc-l:8kb")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=None, help="override every model's threshold")
    _add_out_flag(p)
    p.set_defaults(func=_cmd_eval_helper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"branchlab: usage error: {exc}", file=sys.stderr)
        return 2
    except BranchLabError as exc:
        print(f"branchlab: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"branchlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
