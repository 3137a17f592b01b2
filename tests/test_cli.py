"""End-to-end CLI tests: every subcommand, exit codes, --json, reruns."""

import argparse
import json
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from branchlab import synth, traceio
from branchlab.cli import build_parser, main
from branchlab.helper import deserialize_models, serialize_models
from branchlab.predictors import estimate_storage
from branchlab.records import BranchKind, BranchRecord

DD_IP = 0x400100
GATE_IP = 0x400200
NOISE_IP = 0x2000
HELPER_IP = 0x2100


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a spec file and generated traces."""
    root = tmp_path_factory.mktemp("cli")
    spec = synth.SyntheticProgramSpec(
        behaviors=(
            synth.DataDependent(ip=DD_IP, gate_ip=GATE_IP),
            synth.Biased(ip=0x400300, p_taken=0.98),
            synth.Periodic(ip=0x400400, pattern="TTNT"),
            synth.LoopExit(ip=0x400500, trip=5),
            synth.RarePool(count=20, exponent=1.2),
        ),
        weights=(4.0, 2.0, 2.0, 2.0, 1.0),
        filler_density=0.3,
    )
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(synth.program_spec_to_json(spec)))

    trace = root / "trace.it1b"
    code = main(["gen", "--spec", str(spec_path), "--seed", "9",
                 "--len", "8000", "--out", str(trace)])
    assert code == 0
    bt1 = root / "trace.bt1"
    assert main(["gen", "--spec", str(spec_path), "--seed", "9",
                 "--len", "8000", "--out", str(bt1)]) == 0
    return {"root": root, "spec": spec_path, "it1b": trace, "bt1": bt1,
            "manifest": root / "trace.it1b.manifest.json"}


def position_one_bt1b(path, seed, n):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        noise = rng.random() < 0.5
        records.append(BranchRecord(2 * i, NOISE_IP, BranchKind.COND, NOISE_IP + 64, noise))
        records.append(BranchRecord(2 * i + 1, HELPER_IP, BranchKind.COND, HELPER_IP + 64, noise))
    traceio.save_trace(path, records)
    return path


class TestGen:
    def test_outputs_and_manifest(self, ws):
        assert ws["it1b"].exists() and ws["manifest"].exists()
        doc = json.loads(ws["manifest"].read_text())
        assert "planted" in doc and "program_spec" in doc
        planted_ips = set(doc["planted"])
        assert f"{DD_IP:#x}" in planted_ips and f"{GATE_IP:#x}" in planted_ips

    def test_rerun_is_byte_identical(self, ws, tmp_path, capsys):
        for d in ("a", "b"):
            code, *_ = run(capsys, "gen", "--spec", str(ws["spec"]), "--seed", "9",
                           "--len", "8000", "--out", str(tmp_path / d / "t.it1b"))
            assert code == 0
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_seed_changes_trace(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "gen", "--spec", str(ws["spec"]), "--seed", "10",
                       "--len", "8000", "--out", str(tmp_path / "t.it1b"))
        assert code == 0
        assert (tmp_path / "t.it1b").read_bytes() != ws["it1b"].read_bytes()

    def test_json_summary(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "gen", "--spec", str(ws["spec"]),
                           "--seed", "1", "--len", "8000",
                           "--out", str(tmp_path / "t.bt1b"))
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "gen"
        assert doc["instructions"] == 8000
        assert f"{DD_IP:#x}" in doc["planted"]["H2P"]

    def test_missing_spec_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--spec", str(tmp_path / "nope.json"),
                           "--len", "100", "--out", str(tmp_path / "t.bt1"))
        assert code == 1 and "error" in err

    def test_unfittable_length_is_usage_error(self, ws, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--spec", str(ws["spec"]),
                           "--len", "3", "--out", str(tmp_path / "t.bt1"))
        assert code == 2 and "usage error" in err

    def test_unknown_extension_is_usage_error(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "gen", "--spec", str(ws["spec"]),
                       "--len", "8000", "--out", str(tmp_path / "t.dat"))
        assert code == 2

    def test_format_override_beats_extension(self, ws, tmp_path, capsys):
        out = tmp_path / "t.dat"
        code, *_ = run(capsys, "gen", "--spec", str(ws["spec"]), "--len", "8000",
                       "--out", str(out), "--format", "bt1-bin")
        assert code == 0
        records, instructions = traceio.load_branch_trace(out)
        assert records
        # a BT1 trace's instruction count is its last seq + 1
        assert instructions == records[-1].seq + 1 <= 8000


class TestSim:
    def test_reports_and_rerun(self, ws, tmp_path, capsys):
        for d in ("a", "b"):
            code, *_ = run(capsys, "sim", "--trace", str(ws["it1b"]),
                           "--predictor", "gshare:16k", "--out", str(tmp_path / d))
            assert code == 0
        files = read_all(tmp_path / "a")
        assert set(files) == {"mispredictions.csv", "sim_summary.json"}
        assert files == read_all(tmp_path / "b")
        summary = json.loads(files["sim_summary.json"])
        assert summary["instructions"] == 8000
        assert 0.0 <= summary["accuracy"] <= 1.0
        assert summary["mispredictions"] <= summary["cond_executions"]

    def test_json_stdout_matches_summary_file(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "sim", "--trace", str(ws["bt1"]),
                           "--predictor", "bimodal:4k", "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out) == json.loads((tmp_path / "sim_summary.json").read_text())

    def test_no_json_flag_prints_nothing(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "sim", "--trace", str(ws["bt1"]),
                           "--predictor", "bimodal:4k", "--out", str(tmp_path))
        assert code == 0 and out == ""

    def test_unknown_predictor_is_usage_error(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "sim", "--trace", str(ws["bt1"]),
                       "--predictor", "oracle:1", "--out", str(tmp_path))
        assert code == 2

    def test_corrupt_trace_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bt1b"
        bad.write_bytes(b"garbage bytes")
        code, *_ = run(capsys, "sim", "--trace", str(bad), "--out", str(tmp_path))
        assert code == 1

    def test_missing_trace_is_data_error(self, tmp_path, capsys):
        code, *_ = run(capsys, "sim", "--trace", str(tmp_path / "nope.bt1"),
                       "--out", str(tmp_path))
        assert code == 1

    def test_out_dir_from_environment(self, ws, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BRANCHLAB_OUT", str(tmp_path / "env_out"))
        code, *_ = run(capsys, "sim", "--trace", str(ws["bt1"]),
                       "--predictor", "bimodal:4k")
        assert code == 0
        assert (tmp_path / "env_out" / "sim_summary.json").exists()


class TestCharacterization:
    def test_h2p(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "h2p", "--trace", str(ws["it1b"]),
                           "--predictor", "gshare:16k", "--out", str(tmp_path),
                           "--slice-len", "4000", "--max-acc", "0.99",
                           "--min-execs", "50", "--min-mis", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["slices"] == 2
        assert (tmp_path / "h2p.csv").read_text().splitlines()[0] == \
            "slice,ip,executions,mispredictions,accuracy"
        assert f"{DD_IP:#x}" in doc["h2p_ips"]

    def test_h2p_bad_criteria_is_usage_error(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "h2p", "--trace", str(ws["bt1"]),
                       "--out", str(tmp_path), "--max-acc", "0")
        assert code == 2

    def test_hh(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "hh", "--trace", str(ws["it1b"]),
                           "--predictor", "gshare:16k", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["total_mispredictions"] > 0
        assert len(doc["top5_ips"]) == 5
        lines = (tmp_path / "heavy_hitters.csv").read_text().splitlines()
        assert lines[0] == "rank,ip,mispredictions,cumulative_fraction"
        assert lines[1].startswith("1,")

    def test_rare(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "rare", "--trace", str(ws["bt1"]),
                           "--predictor", "bimodal:4k", "--out", str(tmp_path),
                           "--bin-width", "50")
        assert code == 0
        doc = json.loads(out)
        assert doc["bins"] >= 1
        assert (tmp_path / "rare_bins.csv").exists()

    def test_rare_bad_bin_width(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "rare", "--trace", str(ws["bt1"]),
                       "--out", str(tmp_path), "--bin-width", "0")
        assert code == 2

    def test_recur(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "recur", "--trace", str(ws["bt1"]),
                           "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["static_branches"] > 0
        lines = (tmp_path / "recurrence.csv").read_text().splitlines()
        assert lines[0] == "ip,executions,median_interval,decade_bin"


class TestDepsAndRegvals:
    def test_deps_finds_planted_gate(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "deps", "--trace", str(ws["it1b"]),
                           "--ip", hex(DD_IP), "--window", "2000",
                           "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        target = doc["targets"][f"{DD_IP:#x}"]
        assert target["top_dependency"] == f"{GATE_IP:#x}"
        assert target["executions"] > 0
        assert (tmp_path / "deps.csv").exists()
        assert (tmp_path / "deps_summary.csv").exists()

    def test_deps_rerun_byte_identical(self, ws, tmp_path, capsys):
        for d in ("a", "b"):
            code, *_ = run(capsys, "deps", "--trace", str(ws["it1b"]),
                           "--ip", hex(DD_IP), "--window", "2000",
                           "--out", str(tmp_path / d))
            assert code == 0
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_deps_absent_target_is_data_error(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "deps", "--trace", str(ws["it1b"]),
                       "--ip", "0x99999", "--out", str(tmp_path))
        assert code == 1

    def test_deps_rejects_branch_only_trace(self, ws, tmp_path, capsys):
        # dependency analysis needs operand footprints; pointing it at a
        # branch-only trace is a usage error, not a corrupt input
        code, *_ = run(capsys, "deps", "--trace", str(ws["bt1"]),
                       "--ip", hex(DD_IP), "--out", str(tmp_path))
        assert code == 2

    def test_deps_bad_window(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "deps", "--trace", str(ws["it1b"]),
                       "--ip", hex(DD_IP), "--window", "0", "--out", str(tmp_path))
        assert code == 2

    def test_deps_bad_ip_text(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "deps", "--trace", str(ws["it1b"]),
                       "--ip", "not-an-ip", "--out", str(tmp_path))
        assert code == 2

    def test_regvals(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "regvals", "--trace", str(ws["it1b"]),
                           "--ip", hex(DD_IP), "--regs", "0-3", "--mask", "0xff",
                           "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        target = doc["targets"][f"{DD_IP:#x}"]
        assert target["executions"] > 0
        assert target["distinct_values"] > 0
        lines = (tmp_path / "regvals.csv").read_text().splitlines()
        assert lines[0] == "h2p_ip,reg,value_hex,count"

    def test_regvals_absent_target_is_data_error(self, ws, tmp_path, capsys):
        code, _, err = run(capsys, "regvals", "--trace", str(ws["it1b"]),
                           "--ip", "0x123", "--out", str(tmp_path))
        assert code == 1
        assert err == "branchlab: error: 0x123 never executes as a COND branch\n"
        assert not (tmp_path / "regvals.csv").exists()

    def test_regvals_bad_reg_list(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "regvals", "--trace", str(ws["it1b"]),
                       "--ip", hex(DD_IP), "--regs", "x-y", "--out", str(tmp_path))
        assert code == 2


class TestLimitAndSweep:
    def test_limit_grid(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "limit", "--trace", str(ws["it1b"]),
                           "--predictor", "gshare:16k", "--out", str(tmp_path),
                           "--scales", "1,4", "--cutoffs", "100",
                           "--perfect-ips", hex(DD_IP))
        assert code == 0
        doc = json.loads(out)
        assert doc["scales"] == [1, 4]
        lines = (tmp_path / "opportunity.csv").read_text().splitlines()
        assert lines[0] == "scale,oracle,ipc,opportunity,share"
        # 2 scales x (as-simulated, perfect-all, perfect-min-execs, perfect-set)
        assert len(lines) - 1 == 2 * 4

    def test_limit_bad_scale_list(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "limit", "--trace", str(ws["bt1"]),
                       "--scales", "1,two", "--out", str(tmp_path))
        assert code == 2

    def test_sweep(self, ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "sweep", "--trace", str(ws["bt1"]),
                           "--budgets", "8192", "--scales", "1,8",
                           "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert "8192" in doc["accuracy"]
        lines = (tmp_path / "storage_sweep.csv").read_text().splitlines()
        assert lines[0] == "budget_bytes,scale,accuracy,captured_fraction"
        assert len(lines) - 1 == 2

    def test_sweep_off_grid_budget_is_usage_error(self, ws, tmp_path, capsys):
        code, *_ = run(capsys, "sweep", "--trace", str(ws["bt1"]),
                       "--budgets", "5000", "--out", str(tmp_path))
        assert code == 2


@pytest.fixture(scope="module")
def helper_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("helper_cli")
    a = position_one_bt1b(root / "train_a.bt1b", seed=1, n=1200)
    b = position_one_bt1b(root / "train_b.bt1b", seed=2, n=1200)
    held = position_one_bt1b(root / "held.bt1b", seed=3, n=700)
    models = root / "models.hm1"
    code = main(["train-helper", "--trace", f"{a}=in-a", "--trace", f"{b}=in-b",
                 "--ip", hex(HELPER_IP), "--kind", "pattern-table",
                 "--history", "1", "--out", str(models)])
    assert code == 0
    return {"root": root, "models": models, "held": held, "a": a}


class TestHelperCommands:
    def test_train_writes_loadable_models(self, helper_ws, capsys):
        from branchlab.helper import load_models_file

        models = load_models_file(helper_ws["models"])
        assert [m.ip for m in models] == [HELPER_IP]
        assert models[0].provenance == (("train_a.bt1b", "in-a"), ("train_b.bt1b", "in-b"))

    def test_train_json_summary(self, helper_ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "train-helper",
                           "--trace", f"{helper_ws['a']}=in-a",
                           "--ip", hex(HELPER_IP), "--history", "2",
                           "--out", str(tmp_path / "m.hm1"))
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"] == ["in-a"]
        assert doc["ips"] == [f"{HELPER_IP:#x}"]

    def test_train_too_few_samples_is_data_error(self, tmp_path, capsys):
        short = position_one_bt1b(tmp_path / "short.bt1b", seed=4, n=100)
        code, *_ = run(capsys, "train-helper", "--trace", str(short),
                       "--ip", hex(HELPER_IP), "--out", str(tmp_path / "m.hm1"))
        assert code == 1

    def test_eval_helper(self, helper_ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "eval-helper",
                           "--models", str(helper_ws["models"]),
                           "--trace", str(helper_ws["held"]),
                           "--baseline", "bimodal:4k", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        target = doc["targets"][f"{HELPER_IP:#x}"]
        assert target["executions"] == 700
        assert target["composite_accuracy"] == 1.0
        # the h = 1 table is sure of both patterns: every query overrides, rightly
        assert (target["queries"], target["overrides"], target["override_correct"]) == (
            700, 700, 700)
        assert doc["overall_composite"] >= doc["overall_baseline"]
        assert json.loads((tmp_path / "eval_helper.json").read_text()) == doc

    def test_eval_corrupt_models_is_data_error(self, helper_ws, tmp_path, capsys):
        blob = bytearray(helper_ws["models"].read_bytes())
        blob[-1] ^= 0xFF
        bad = tmp_path / "bad.hm1"
        bad.write_bytes(bytes(blob))
        code, *_ = run(capsys, "eval-helper", "--models", str(bad),
                       "--trace", str(helper_ws["held"]), "--out", str(tmp_path))
        assert code == 1


@pytest.mark.parametrize("command", ["sim", "sweep", "eval-helper", "hh", "h2p", "rare",
                                     "recur", "limit"])
def test_trace_without_cond_branches_is_one_line_data_error(command, helper_ws, tmp_path):
    trace = tmp_path / "uncond.bt1b"
    traceio.save_trace(trace, [BranchRecord(i, 0x1000 + 4 * i, BranchKind.UNCOND, 0x2000)
                               for i in range(10)])
    extra = ["--models", str(helper_ws["models"])] if command == "eval-helper" else []
    proc = subprocess.run(
        [sys.executable, "-m", "branchlab.cli", command, "--trace", str(trace), *extra,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0] == f"branchlab: error: trace {trace} holds no COND branches"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sim", "sweep", "hh", "h2p", "rare", "recur", "limit",
                                     "train-helper", "eval-helper"])
def test_empty_branch_trace_is_one_line_data_error(command, helper_ws, tmp_path):
    # one rule for every format: a trace without branch records is a data error
    for ext in (".bt1b", ".it1b", ".it1"):
        trace = tmp_path / f"empty{ext}"
        traceio.save_trace(trace, [])
        if command == "train-helper":
            extra = ["--ip", hex(HELPER_IP), "--out", str(tmp_path / "m.hm1")]
        else:
            extra = ["--out", str(tmp_path / "out")]
        if command == "eval-helper":
            extra += ["--models", str(helper_ws["models"])]
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", command, "--trace", str(trace), *extra],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1, (ext, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"branchlab: error: trace {trace} holds no branch records"
        ], ext
        assert not (tmp_path / "out").exists() and not (tmp_path / "m.hm1").exists()


_TRAIN = ["train-helper", "--trace", "{a}", "--ip", hex(HELPER_IP), "--kind", "perceptron",
          "--out", "{tmp}/out/m.hm1"]
_GEN = ["gen", "--spec", "{tmp}/spec.json", "--len", "1000", "--out", "{tmp}/out/t.bt1b"]
_SIM = ["sim", "--trace", "{it1b}", "--config", "{tmp}/p.cfg", "--out", "{tmp}/out"]


def _biased_spec(ip, p_taken):
    return json.dumps({"behaviors": [{"kind": "biased", "ip": ip, "p_taken": p_taken}]}).encode()


# id: (files written into tmp_path, argv, the message after "branchlab: usage error: ")
USAGE_ERRORS = {
    "epochs-0": ({}, [*_TRAIN, "--epochs", "0"], "epochs must be at least 1, got 0"),
    "epochs--3": ({}, [*_TRAIN, "--epochs", "-3"], "epochs must be at least 1, got -3"),
    "tau-above-1": ({}, [*_TRAIN, "--tau", "1.5"],
                    "confidence threshold must lie in [0, 1], got 1.5"),
    "tau-below-0": ({}, [*_TRAIN, "--tau=-0.25"],
                    "confidence threshold must lie in [0, 1], got -0.25"),
    "spec-not-json": ({"spec.json": b"{not json"}, _GEN,
                      "spec {tmp}/spec.json is not JSON: Expecting property name enclosed in "
                      "double quotes: line 1 column 2 (char 1)"),
    "spec-bad-ip": ({"spec.json": _biased_spec("zz", 0.5)}, _GEN,
                    "bad ip 'zz' (use hex like '0x400100')"),
    "spec-bad-p-taken": ({"spec.json": _biased_spec("0x400100", "a")}, _GEN,
                         "bad biased behavior: p_taken must be a number, got 'a'"),
    "config-bad-history-length": ({"p.cfg": b"predictor = gshare\nhistory_length = x\n"},
                                  _SIM, "unparseable history_length 'x'"),
    "config-bad-min-hist": ({"p.cfg": b"predictor = tage\nmin_hist = x\n"}, _SIM,
                            "unparseable min_hist 'x'"),
    "config-not-utf8": ({"p.cfg": b"predictor = tage-sc-l\n# \xff\n"}, _SIM,
                        "{tmp}/p.cfg: not UTF-8 text (byte 24)"),
    "config-unknown-key": ({"p.cfg": b"predictor = tage-sc-l\nbudget = 64kb\nbogus = 3\n"},
                           _SIM, "unknown config key 'bogus' for tage-sc-l"),
    "config-with-predictor": ({"p.cfg": b"predictor = tage-sc-l\n"},
                              [*_SIM, "--predictor", "bimodal:4k"],
                              "--predictor and --config exclude each other"),
    "regs-out-of-range": ({}, ["regvals", "--trace", "{it1b}", "--ip", hex(DD_IP),
                               "--regs", "0,300", "--out", "{tmp}/out"],
                          "register ids must lie in [0, 255], got 300 in '0,300'"),
}
# flags of the simulating commands, each rejected before the simulation
_SIMULATED = ["--trace", "{it1b}", "--out", "{tmp}/out"]
BEFORE_SIMULATION = {
    "max-acc-0": (["h2p", *_SIMULATED, "--max-acc", "0"], "max_accuracy must be in (0,1], got 0.0"),
    "slice-len-0": (["h2p", *_SIMULATED, "--slice-len", "0"], "slice_len must be >= 1, got 0"),
    "bin-width-0": (["rare", *_SIMULATED, "--bin-width", "0"], "bin_width must be >= 1, got 0"),
    "width-0": (["limit", *_SIMULATED, "--width", "0"],
                "width, penalty, and scale must all be positive"),
    "cutoffs--5": (["limit", *_SIMULATED, "--cutoffs", "-5"], "execution cutoff must be >= 0"),
    "budgets-off-grid": (["sweep", *_SIMULATED, "--budgets", "8192,12288"],
                         "budget 12288 bytes is not on the supported 8KB*2^k grid"),
    "limit-scales-0": (["limit", *_SIMULATED, "--scales", "1,0"],
                       "width, penalty, and scale must all be positive"),
    "limit-scales-empty": (["limit", *_SIMULATED, "--scales", ","], "scale list is empty"),
    "sweep-scales-0": (["sweep", *_SIMULATED, "--scales", "0"],
                       "width, penalty, and scale must all be positive"),
    # the models file does not exist: the threshold is checked before any load
    "eval-tau-above-1": (["eval-helper", *_SIMULATED, "--models", "{tmp}/m.hm1", "--tau", "1.5"],
                         "confidence threshold must lie in [0, 1], got 1.5"),
    "eval-tau-below-0": (["eval-helper", *_SIMULATED, "--models", "{tmp}/m.hm1", "--tau=-3"],
                         "confidence threshold must lie in [0, 1], got -3.0"),
}
USAGE_ERRORS.update({case: ({}, *row) for case, row in BEFORE_SIMULATION.items()})


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_bad_value_is_one_line_usage_error(case, ws, helper_ws, tmp_path):
    files, argv, message = USAGE_ERRORS[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    paths = {"tmp": tmp_path, "a": helper_ws["a"], "it1b": ws["it1b"]}
    proc = subprocess.run(
        [sys.executable, "-m", "branchlab.cli", *(arg.format(**paths) for arg in argv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"branchlab: usage error: {message.format(**paths)}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", list(BEFORE_SIMULATION))
def test_usage_error_exits_before_simulating(case, ws, tmp_path, capsys, monkeypatch):
    """With simulation made to fail, each bad flag still exits 2 with its
    own message: it was rejected before any simulation started."""
    def simulate(*args, **kwargs):
        raise AssertionError("simulated before rejecting a bad flag")

    monkeypatch.setattr("branchlab.predictors.simulate", simulate)
    monkeypatch.setattr("branchlab.cli.simulate", simulate)
    argv, message = BEFORE_SIMULATION[case]
    paths = {"tmp": tmp_path, "it1b": ws["it1b"]}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out, err) == (2, "", f"branchlab: usage error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_reports_agree_across_it1_formats(ws, tmp_path, capsys):
    """The it1-jsonl twin is read whole and projected, the it1-bin trace is
    walked for its branches only: every report must be the same bytes, apart
    from the trace path that the summaries name."""
    twin = tmp_path / "trace.it1"
    assert main(["gen", "--spec", str(ws["spec"]), "--seed", "9", "--len", "8000",
                 "--out", str(twin)]) == 0
    commands = [
        ["sim", "--predictor", "gshare:16k"],
        ["hh", "--predictor", "gshare:16k"],
        ["h2p", "--predictor", "gshare:16k", "--slice-len", "4000", "--min-execs", "50",
         "--min-mis", "10"],
        ["rare", "--predictor", "bimodal:4k", "--bin-width", "50"],
        ["recur"],
        ["limit", "--predictor", "gshare:16k", "--scales", "1,4", "--perfect-ips", hex(DD_IP)],
        ["sweep", "--budgets", "8192", "--scales", "1,8"],
    ]
    for argv in commands:
        reports = {}
        for trace in (ws["it1b"], twin):
            out = tmp_path / trace.suffix.lstrip(".") / argv[0]
            code, *_ = run(capsys, argv[0], "--trace", str(trace), *argv[1:], "--out", str(out))
            assert code == 0, argv
            reports[trace.suffix] = {
                name: data.replace(str(trace).encode(), b"<trace>")
                for name, data in read_all(out).items()
            }
        assert reports[".it1b"] == reports[".it1"], argv[0]
        assert len(reports[".it1b"]) == 2, argv[0]


# command: (extra argv, summary file, report files beside it)
SUMMARY_FILES = {
    "sim": (["--predictor", "bimodal:4k"], "sim_summary.json", {"mispredictions.csv"}),
    "h2p": (["--predictor", "bimodal:4k", "--slice-len", "4000", "--min-execs", "50",
             "--min-mis", "10"], "h2p_summary.json", {"h2p.csv"}),
    "hh": (["--predictor", "bimodal:4k"], "hh_summary.json", {"heavy_hitters.csv"}),
    "rare": (["--predictor", "bimodal:4k"], "rare_summary.json", {"rare_bins.csv"}),
    "recur": ([], "recur_summary.json", {"recurrence.csv"}),
    "deps": (["--ip", hex(DD_IP), "--window", "2000"], "deps_summary.json",
             {"deps.csv", "deps_summary.csv"}),
    "regvals": (["--ip", hex(DD_IP)], "regvals_summary.json", {"regvals.csv"}),
    "limit": (["--predictor", "bimodal:4k", "--scales", "1,4"], "limit_summary.json",
              {"opportunity.csv"}),
    "sweep": (["--budgets", "8192", "--scales", "1,8"], "sweep_summary.json",
              {"storage_sweep.csv"}),
    "eval-helper": (["--baseline", "bimodal:4k"], "eval_helper.json", set()),
}


class TestSummaryPath:
    @pytest.mark.parametrize("command", list(SUMMARY_FILES))
    def test_json_line_is_the_summary_file(self, command, ws, helper_ws, tmp_path, capsys):
        extra, summary, others = SUMMARY_FILES[command]
        if command == "eval-helper":
            extra = [*extra, "--models", str(helper_ws["models"])]
        trace = helper_ws["held"] if command == "eval-helper" else ws["it1b"]
        code, out, err = run(capsys, "--json", command, "--trace", str(trace), *extra,
                             "--out", str(tmp_path / "out"))
        assert code == 0 and err == ""
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc["command"] == command
        assert json.loads((tmp_path / "out" / summary).read_text()) == doc
        assert set(read_all(tmp_path / "out")) == {summary, *others}

    def test_gen_and_train_helper_write_no_summary(self, ws, helper_ws, tmp_path, capsys):
        code, out, _ = run(capsys, "--json", "gen", "--spec", str(ws["spec"]), "--len", "2000",
                           "--out", str(tmp_path / "gen" / "t.bt1b"))
        assert code == 0 and json.loads(out)["command"] == "gen"
        assert set(read_all(tmp_path / "gen")) == {"t.bt1b", "t.bt1b.manifest.json"}
        code, out, _ = run(capsys, "--json", "train-helper", "--trace", str(helper_ws["a"]),
                           "--ip", hex(HELPER_IP), "--out", str(tmp_path / "train" / "m.hm1"))
        assert code == 0 and json.loads(out)["command"] == "train-helper"
        assert set(read_all(tmp_path / "train")) == {"m.hm1"}

    @pytest.mark.parametrize("command", ["sim", "hh", "h2p", "rare", "limit"])
    def test_config_summary_names_the_simulated_predictor(self, command, ws, tmp_path, capsys):
        config = tmp_path / "big.cfg"
        config.write_text("predictor = tage-sc-l\nbudget = 64kb  # the larger grid point\n")
        code, out, _ = run(capsys, "--json", command, "--trace", str(ws["bt1"]),
                           "--config", str(config), "--out", str(tmp_path / "out"))
        assert code == 0
        doc = json.loads(out)
        assert doc["predictor"] == "budget=64kb,predictor=tage-sc-l"
        if command == "sim":
            assert doc["storage_bytes"] == estimate_storage("tage-sc-l:64kb")
            preset = tmp_path / "preset"
            assert main(["sim", "--trace", str(ws["bt1"]), "--predictor", "tage-sc-l:64kb",
                         "--out", str(preset)]) == 0
            assert (preset / "mispredictions.csv").read_bytes() == \
                (tmp_path / "out" / "mispredictions.csv").read_bytes()


# every command that reads a trace, with the flags that keep its run short
READING_COMMANDS = {
    **{name: row[0] for name, row in SUMMARY_FILES.items()},
    "train-helper": ["--ip", hex(DD_IP), "--history", "4"],
}


def _reading_argv(command, trace, out, models):
    """argv of one reading command on ``trace``, its outputs under ``out``."""
    if command == "train-helper":   # the trace twice, as two inputs, for enough samples
        return [command, "--trace", f"{trace}=a", "--trace", f"{trace}=b",
                *READING_COMMANDS[command], "--out", str(out / "m.hm1")]
    argv = [command, "--trace", str(trace), *READING_COMMANDS[command], "--out", str(out)]
    return [*argv, "--models", str(models)] if command == "eval-helper" else argv


def _normalized_outputs(out, trace):
    """The files under ``out``, with the trace's path replaced by a
    placeholder and a model file's provenance, which names the trace, dropped."""
    files = {}
    for name, data in read_all(out).items():
        if name.endswith(".hm1"):
            models = deserialize_models(data)
            assert all(m.provenance == ((trace.name, "a"), (trace.name, "b")) for m in models)
            data = serialize_models([replace(m, provenance=()) for m in models])
        files[name] = data.replace(str(trace).encode(), b"<trace>")
    return files


@pytest.mark.parametrize("command", list(READING_COMMANDS))
def test_format_comes_from_the_bytes_not_the_name(command, ws, helper_ws, tmp_path, capsys):
    """An it1-bin trace named t.dat or t.bt1b reads as it does named t.it1b."""
    data = ws["it1b"].read_bytes()
    outputs = {}
    for name in ("t.it1b", "t.dat", "t.bt1b"):
        trace = tmp_path / name
        trace.write_bytes(data)
        out = tmp_path / f"out-{trace.suffix[1:]}"
        code, _, err = run(capsys, *_reading_argv(command, trace, out, helper_ws["models"]))
        assert (code, err) == (0, ""), name
        outputs[name] = _normalized_outputs(out, trace)
    assert outputs["t.dat"] == outputs["t.it1b"]
    assert outputs["t.bt1b"] == outputs["t.it1b"]


@pytest.mark.parametrize("command", list(READING_COMMANDS))
def test_unrecognized_stream_is_one_line_data_error(command, helper_ws, tmp_path, capsys):
    for name in ("t.dat", "t.bt1", "t.bt1b", "t.it1", "t.it1b"):
        trace = tmp_path / name
        trace.write_bytes(b"\x00\x01 not a trace stream")
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *_reading_argv(command, trace, out, helper_ws["models"]))
        assert (code, stdout) == (1, ""), name
        assert err == f"branchlab: error: {trace}: unrecognized trace stream\n", name
        assert not out.exists()


def _run_probe(argv, modules):
    """Run one command in a fresh interpreter; (exit code, stderr, the
    names of ``modules`` it loaded, space-separated, in that order)."""
    probe = ("import sys\n"
             "from branchlab.cli import main\n"
             "code = main(sys.argv[1:])\n"
             f"print(' '.join(m for m in {tuple(modules)!r} if m in sys.modules))\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    return proc.returncode, proc.stderr, proc.stdout.rstrip("\n")


# Case ids keep the names the cases had while the predictors imported
# numpy, so each case stays under one name; ``loaded`` is what is checked.
@pytest.mark.parametrize("command, loaded", [
    ("recur", ""), ("deps", ""), ("regvals", ""), ("train-helper", ""),
    ("sim", "branchlab.predictors.tage"),
], ids=["recur-", "deps-", "regvals-", "train-helper-",
        "sim-numpy branchlab.predictors.tage"])
def test_commands_load_only_the_layers_they_run(command, loaded, ws, tmp_path):
    """recur, deps, regvals and train-helper never import numpy, the
    generator or the predictors; sim, which builds a predictor, imports
    the predictors but neither numpy nor the generator."""
    argv = _reading_argv(command, ws["it1b"], tmp_path / "out", None)
    modules = ("numpy", "branchlab.synth", "branchlab.predictors.tage")
    assert _run_probe(argv, modules) == (0, "", loaded)


@pytest.mark.parametrize("command, loaded", [
    ("gen", "synth numpy"),
    ("sim", ""),
    ("h2p", "charax"),
    ("hh", "charax"),
    ("rare", "charax"),
    ("recur", "charax"),
    ("deps", "depgraph"),
    ("regvals", "depgraph"),
    ("limit", "charax pipeline"),
    ("sweep", "charax pipeline"),
    ("train-helper", "helper"),
    ("eval-helper", "charax helper"),
], ids=["gen-synth numpy", "sim-numpy", "h2p-charax numpy", "hh-charax numpy",
        "rare-charax numpy", "recur-charax", "deps-depgraph", "regvals-depgraph",
        "limit-charax pipeline numpy", "sweep-charax pipeline numpy",
        "train-helper-helper", "eval-helper-charax helper numpy"])
def test_each_command_loads_only_its_layers(command, loaded, ws, helper_ws, tmp_path):
    """Of the analysis layers, the generator and numpy, a command loads
    only those its handler runs: sim none of the four analysis layers,
    deps and regvals only depgraph, and no command but gen the generator
    or numpy, which only the generator imports."""
    if command == "gen":
        argv = ["gen", "--spec", str(ws["spec"]), "--len", "500",
                "--out", str(tmp_path / "t.it1b")]
    else:
        argv = _reading_argv(command, ws["it1b"], tmp_path / "out", helper_ws["models"])
    layers = [f"branchlab.{m}" for m in ("charax", "depgraph", "helper", "pipeline", "synth")]
    code, err, got = _run_probe(argv, [*layers, "numpy"])
    assert (code, err) == (0, "")
    assert got.replace("branchlab.", "") == loaded


def test_bad_trace_among_good_ones_is_named(helper_ws, tmp_path, capsys):
    """Of several training traces, the error names the one that is bad."""
    bad = tmp_path / "bad.dat"
    bad.write_bytes(b"\x00\x01\x02\x03")
    out = tmp_path / "m.hm1"
    code, stdout, err = run(capsys, "train-helper", "--trace", str(helper_ws["a"]),
                            "--trace", str(bad), "--ip", hex(HELPER_IP), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"branchlab: error: {bad}: unrecognized trace stream\n"
    assert not out.exists()


class TestParser:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_console_script_runs(self, ws, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "--json", "sim",
             "--trace", str(ws["bt1"]), "--predictor", "bimodal:4k",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "sim"

    def test_flag_surface(self):
        trace, predictor, seed, out = "--trace", "--predictor --config", "--seed", "--out"
        machine = "--scales --width --penalty --scaled-penalty"
        expected = {
            "gen": f"--spec {seed} --len --out --format --manifest",
            "sim": f"{trace} {predictor} {seed} {out}",
            "h2p": f"{trace} {predictor} {seed} {out} --slice-len --max-acc --min-execs --min-mis",
            "hh": f"{trace} {predictor} {seed} {out}",
            "rare": f"{trace} {predictor} {seed} {out} --bin-width",
            "recur": f"{trace} {out}",
            "deps": f"{trace} --ip --window --direct-reads-only --no-memory {out}",
            "regvals": f"{trace} --ip --regs --mask {out}",
            "limit": f"{trace} {predictor} {seed} {out} {machine} --cutoffs --perfect-ips",
            "sweep": f"{trace} {seed} --budgets {machine} {out}",
            "train-helper": "--trace --ip --kind --history --tau --epochs --out",
            "eval-helper": f"--models {trace} --baseline {seed} --tau {out}",
        }
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actual = {
            name: sorted(opt for action in sub._actions for opt in action.option_strings
                         if opt not in ("-h", "--help"))
            for name, sub in commands.choices.items()
        }
        assert actual == {name: sorted(flags.split()) for name, flags in expected.items()}
