"""End-to-end acceptance checks, one numbered criterion per test group.

The terminal summary prints one PASS/FAIL line per criterion (see
conftest). Heavy shared work, generating planted traces and simulating
the ensemble over them, sits in module-scoped fixtures so the criteria
that read the same traces pay for the simulation once.
"""

import json
import random
import struct
import time

import pytest

from test_depgraph import oracle_dependencies

from branchlab import synth, traceio
from branchlab.charax import (
    H2PCriteria,
    accumulate_slice_stats,
    h2p_report,
    heavy_hitters,
    per_ip_totals,
    rare_bins,
    screen_h2p,
)
from branchlab.cli import main as cli_main
from branchlab.depgraph import find_dependency_branches
from branchlab.errors import CorruptModel
from branchlab.helper import (
    TrainingCorpus,
    apply_helpers,
    deserialize_models,
    evaluate_generalization,
    serialize_models,
    train_helper,
)
from branchlab.pipeline import (
    PipelineModelConfig,
    PredictionOracle,
    effective_mispredictions,
    ipc,
    storage_sweep,
)
from branchlab.predictors import estimate_storage, make_predictor, simulate
from branchlab.records import BranchKind, BranchRecord, InstructionRecord
from branchlab.synth import (
    Biased,
    DataDependent,
    HistoryCorrelated,
    LoopExit,
    Periodic,
    RarePool,
    SyntheticProgramSpec,
    generate_trace,
)
from branchlab.traceio import project_branches


def cond(seq, ip, taken):
    return BranchRecord(seq, ip, BranchKind.COND, ip + 4, taken)


# --- 1: exact-match learning of a short periodic pattern --------------------

def test_criterion_01_periodic_pattern_learned_fast():
    pattern = [c == "T" for c in "TTNTNNT"]
    records = [cond(i, 0x100, pattern[i % 7]) for i in range(100_000)]
    started = time.perf_counter()
    stream = simulate(records, make_predictor("tage-sc-l:64kb"))
    elapsed = time.perf_counter() - started
    tail = stream.records[10_000:]
    accuracy = sum(r.predicted == r.actual for r in tail) / len(tail)
    assert accuracy >= 0.999
    assert elapsed < 5.0


# --- 2: linear vs nonlinear history rules ------------------------------------

def _single_position_probe(seed, iters=4000):
    """Coin-flip noise branch, then a target that repeats its outcome: the
    target direction equals global history position 1."""
    rng = random.Random(seed)
    rows = []
    for i in range(iters):
        noise = rng.random() < 0.5
        rows.append(cond(2 * i, 0x200, noise))
        rows.append(cond(2 * i + 1, 0x300, noise))
    return rows


def _xor_probe(seed, iters=6000):
    """Two coin-flip noise branches, then a target equal to the XOR of
    their outcomes: history positions 1 and 2."""
    rng = random.Random(seed)
    rows = []
    for i in range(iters):
        a = rng.random() < 0.5
        b = rng.random() < 0.5
        rows.append(cond(3 * i, 0x200, a))
        rows.append(cond(3 * i + 1, 0x210, b))
        rows.append(cond(3 * i + 2, 0x300, a ^ b))
    return rows


def _target_tail_accuracy(rows, predictor_name):
    stream = simulate(rows, make_predictor(predictor_name))
    target = [r for r in stream.records if r.ip == 0x300]
    tail = target[len(target) // 2:]
    return sum(r.predicted == r.actual for r in tail) / len(tail)


def test_criterion_02_single_position_rule_fits_perceptron():
    for seed in range(1, 6):
        acc = _target_tail_accuracy(_single_position_probe(seed), "perceptron:28")
        assert acc >= 0.99, f"seed {seed}: perceptron acc {acc:.4f}"


def test_criterion_02_xor_rule_splits_perceptron_from_tage():
    for seed in range(1, 6):
        rows = _xor_probe(seed)
        linear = _target_tail_accuracy(rows, "perceptron:28")
        tagged = _target_tail_accuracy(rows, "tage:64kb")
        assert linear <= 0.75, f"seed {seed}: perceptron acc {linear:.4f}"
        assert tagged >= 0.99, f"seed {seed}: tage acc {tagged:.4f}"


# --- 3: loop exit iterations --------------------------------------------------

def test_criterion_03_loop_exits_predicted_after_warmup():
    spec = SyntheticProgramSpec(
        behaviors=(LoopExit(ip=0x400, trip=37),),
        weights=(1.0,),
        filler_density=0.0,
    )
    instrs, _ = generate_trace(spec, seed=5, length=2 * 37 * 1000)
    stream = simulate(project_branches(instrs), make_predictor("tage-sc-l:64kb"))
    target = [r for r in stream.records if r.ip == 0x400]
    assert len(target) // 37 >= 999          # ~1000 complete loop instances
    exits = [r for i, r in enumerate(target) if (i + 1) % 37 == 0]
    late = exits[3:]
    accuracy = sum(r.predicted == r.actual for r in late) / len(late)
    assert accuracy >= 0.99


# --- 4 and 7: planted H2P in a mixed trace ------------------------------------

H2P_IP = 0x400100
EASY_IPS = tuple(0x410000 + 16 * i for i in range(50))
MIX_LEN = 120_000
MIX_SLICE = 12_000
# floors scaled to the slice size; the defaults assume full-length traces
MIX_CRITERIA = H2PCriteria(max_accuracy=0.99, min_executions=1000, min_mispredictions=30)


@pytest.fixture(scope="module")
def planted_mix():
    """Ten seeded traces mixing one data-dependent branch, 50 heavily
    biased branches and a 5000-ip rare pool, simulated once each."""
    behaviors = [DataDependent(ip=H2P_IP)]
    behaviors += [Biased(ip=ip, p_taken=0.999) for ip in EASY_IPS]
    behaviors.append(RarePool(count=5000, exponent=1.1))
    spec = SyntheticProgramSpec(
        behaviors=tuple(behaviors),
        weights=(10.0,) + (0.12,) * 50 + (4.0,),
        filler_density=0.1,
    )
    out = []
    for seed in range(1, 11):
        instrs, _ = generate_trace(spec, seed=seed, length=MIX_LEN)
        predictor = make_predictor("tage-sc-l:8kb")
        stream = simulate(project_branches(instrs), predictor)
        slices = accumulate_slice_stats(stream, MIX_LEN, slice_len=MIX_SLICE)
        report = h2p_report(slices, MIX_CRITERIA)
        ranking = heavy_hitters(per_ip_totals(stream))
        telemetry = predictor.allocation_telemetry()
        out.append(
            {
                "seed": seed,
                "n_slices": len(slices),
                "occupancy": report.occupancy.get(H2P_IP, 0),
                "easy_flagged": report.union & set(EASY_IPS),
                "top_ip": ranking.entries[0].ip,
                "telemetry": telemetry,
            }
        )
    return out


def test_criterion_04_planted_h2p_recovered(planted_mix):
    for row in planted_mix:
        seed = row["seed"]
        assert row["occupancy"] >= 0.9 * row["n_slices"], f"seed {seed}"
        assert not row["easy_flagged"], f"seed {seed}: {row['easy_flagged']}"
        assert row["top_ip"] == H2P_IP, f"seed {seed}: top {row['top_ip']:#x}"


def test_criterion_07_allocation_telemetry(planted_mix):
    for row in planted_mix:
        seed = row["seed"]
        telemetry = row["telemetry"]
        for ip, stats in telemetry.items():
            assert stats.unique_entries <= stats.total_allocations, \
                f"seed {seed} ip {ip:#x}"
        h2p = telemetry[H2P_IP]
        h2p_ratio = h2p.total_allocations / h2p.unique_entries
        for ip in EASY_IPS:
            stats = telemetry.get(ip)
            if stats is None:
                continue
            ratio = stats.total_allocations / stats.unique_entries
            assert h2p_ratio > ratio, f"seed {seed} ip {ip:#x}: {h2p_ratio} vs {ratio}"


# --- 5: screening equals brute force ------------------------------------------

def _brute_force_screen(table, criteria):
    return {
        ip
        for ip, s in table.items()
        if s.executions >= criteria.min_executions
        and s.mispredictions >= criteria.min_mispredictions
        and s.accuracy < criteria.max_accuracy
    }


def test_criterion_05_screening_matches_brute_force():
    from branchlab.charax import IpStats

    rng = random.Random(20240517)
    for _ in range(1000):
        table = {}
        for _ in range(rng.randint(0, 40)):
            ip = rng.randrange(1, 1 << 32)
            execs = rng.randint(0, 30_000)
            table[ip] = IpStats(execs, rng.randint(0, execs))
        criteria = H2PCriteria(
            max_accuracy=rng.randint(1, 100) / 100,
            min_executions=rng.randint(1, 20_000),
            min_mispredictions=rng.randint(1, 2_000),
        )
        flagged = screen_h2p(table, criteria)
        assert flagged == _brute_force_screen(table, criteria)

        relaxed = H2PCriteria(
            max_accuracy=min(1.0, criteria.max_accuracy + rng.randint(0, 5) / 100),
            min_executions=max(1, criteria.min_executions - rng.randint(0, 5_000)),
            min_mispredictions=max(1, criteria.min_mispredictions - rng.randint(0, 500)),
        )
        assert flagged <= screen_h2p(table, relaxed)


# --- 6: windowed dependency analysis vs whole-trace oracle ---------------------

DEP_COND_IPS = (0x7000, 0x7100, 0x7200, 0x7300, 0x7400, 0x7500)
DEP_TARGET = 0x7000


def _random_instr_trace(seed, n=50_000):
    rng = random.Random(seed)
    out = []
    for seq in range(n):
        if rng.random() < 0.02:
            ip = DEP_COND_IPS[rng.randrange(len(DEP_COND_IPS))]
            reads = frozenset(rng.sample(range(8), rng.randint(1, 2)))
            mem = frozenset([rng.randrange(4)]) if rng.random() < 0.2 else frozenset()
            out.append(
                InstructionRecord(
                    seq=seq, ip=ip, is_branch=True, kind=BranchKind.COND,
                    target=ip + 64, taken=rng.random() < 0.5,
                    regs_read=reads, mem_read=mem,
                )
            )
            continue
        writes = ()
        if rng.random() < 0.30:
            writes = ((rng.randrange(8), rng.randrange(512)),)
        out.append(
            InstructionRecord(
                seq=seq, ip=0x100000 + seq,
                regs_read=frozenset(rng.sample(range(8), rng.randint(0, 2))),
                regs_written=writes,
                mem_read=frozenset([rng.randrange(4)]) if rng.random() < 0.05 else frozenset(),
                mem_written=frozenset([rng.randrange(4)]) if rng.random() < 0.05 else frozenset(),
            )
        )
    return out


def test_criterion_06_windowed_dependencies_match_oracle():
    for seed in range(1, 101):
        records = _random_instr_trace(seed)
        (got,) = find_dependency_branches(records, [DEP_TARGET], window=5_000)
        want = oracle_dependencies(records, DEP_TARGET, window=5_000)
        assert got.executions == want.executions, f"seed {seed}"
        assert got.positions == want.positions, f"seed {seed}"


def test_criterion_06_planted_gate_is_top_dependency():
    spec = SyntheticProgramSpec(
        behaviors=(
            DataDependent(ip=0x400100, gate_ip=0x400200),
            Biased(ip=0x400300, p_taken=0.5),
            RarePool(count=200, exponent=1.2),
        ),
        weights=(2.0, 3.0, 2.0),
        filler_density=0.4,
    )
    hits = 0
    for seed in range(1, 21):
        records, _ = generate_trace(spec, seed=seed, length=20_000)
        (dist,) = find_dependency_branches(records, [0x400100], window=5_000)
        hits += dist.top_dependency() == 0x400200
    assert hits >= 19        # at least 95% of seeds


# --- 8: accuracy spread shrinks with execution count ---------------------------

def test_criterion_08_rare_branch_accuracy_spread():
    spec = SyntheticProgramSpec(
        behaviors=(RarePool(count=2000, exponent=1.1),),
        weights=(1.0,),
        filler_density=0.1,
    )
    wins = 0
    for seed in range(1, 11):
        instrs, _ = generate_trace(spec, seed=seed, length=70_000)
        stream = simulate(project_branches(instrs), make_predictor("gshare:16k"))
        report = rare_bins(per_ip_totals(stream), bin_width=100)
        coldest = next(b for b in report.bins if b.lo == 0)
        warmer = next(b for b in report.bins if b.lo == 100)
        assert coldest.count >= 2 and warmer.count >= 2, f"seed {seed}"
        wins += coldest.std_acc > warmer.std_acc
    assert wins >= 9


# --- 9: closed-form pipeline algebra -------------------------------------------

def test_criterion_09_ipc_peaks_without_mispredictions():
    for width, scale in ((1, 1), (4, 1), (4, 8), (6, 32)):
        config = PipelineModelConfig(width=width, scale=scale)
        result = ipc(config, instructions=1_000_000, mispredictions=0)
        assert result.ipc == width * scale


def test_criterion_09_opportunity_strictly_increasing_in_scale():
    for scaled in (False, True):
        base = PipelineModelConfig(width=4, scale=1, scaled_penalty=scaled)
        last = -1.0
        for scale in (1, 2, 4, 8, 16, 32):
            result = ipc(base.at_scale(scale), instructions=5_000_000, mispredictions=40_000)
            assert result.opportunity > last, f"scale {scale}"
            last = result.opportunity


def test_criterion_09_oracle_decomposition_exact():
    from branchlab.charax import IpStats

    rng = random.Random(99)
    for _ in range(200):
        table = {}
        for _ in range(rng.randint(1, 30)):
            execs = rng.randint(1, 5_000)
            table[rng.randrange(1, 1 << 20)] = IpStats(execs, rng.randint(0, execs))
        raw = effective_mispredictions(table, PredictionOracle.as_simulated())
        assert raw == sum(s.mispredictions for s in table.values())
        assert effective_mispredictions(table, PredictionOracle.perfect_all()) == 0

        # removing a set and its complement partitions the raw count
        chosen = frozenset(ip for ip in table if rng.random() < 0.5)
        rest = frozenset(table) - chosen
        removed_chosen = raw - effective_mispredictions(table, PredictionOracle.perfect_set(chosen))
        removed_rest = raw - effective_mispredictions(table, PredictionOracle.perfect_set(rest))
        assert removed_chosen + removed_rest == raw

        # the execution-count cutoff keeps exactly what perfecting the same
        # cold ips would remove
        cutoff = rng.randint(0, 5_000)
        cold = effective_mispredictions(table, PredictionOracle.perfect_min_execs(cutoff))
        cold_ips = frozenset(ip for ip, s in table.items() if s.executions <= cutoff)
        assert cold + effective_mispredictions(table, PredictionOracle.perfect_set(cold_ips)) == raw


# --- 10: storage gains taper off ------------------------------------------------

def test_criterion_10_storage_gain_plateaus():
    wins = 0
    for seed in range(1, 6):
        rng = random.Random(seed * 7919)
        while True:
            pattern = "".join(rng.choice("TN") for _ in range(2048))
            if "T" in pattern and "N" in pattern:
                break
        spec = SyntheticProgramSpec(
            behaviors=(Periodic(ip=0x600000, pattern=pattern),),
            weights=(1.0,),
            filler_density=0.0,
        )
        instrs, _ = generate_trace(spec, seed=seed, length=2 * 2048 * 8)
        result = storage_sweep(project_branches(instrs), budgets=(8192, 65536, 131072))
        acc8 = result.accuracy_of(8192)
        acc64 = result.accuracy_of(65536)
        acc128 = result.accuracy_of(131072)
        wins += (acc64 - acc8) > (acc128 - acc64)
    assert wins >= 4


# --- 11: helpers carry a rule across inputs --------------------------------------

HELPER_SPEC = SyntheticProgramSpec(
    behaviors=(
        HistoryCorrelated(ip=H2P_IP, positions=(2, 11)),
        Biased(ip=0x400200, p_taken=0.5),
        Biased(ip=0x400300, p_taken=0.5),
    ),
    weights=(2.0, 1.5, 1.5),
    filler_density=0.1,
)


def _helper_branches(seed):
    instrs, _ = generate_trace(HELPER_SPEC, seed=seed, length=50_000)
    return project_branches(instrs)


def test_criterion_11_helper_generalizes_to_held_out_input():
    corpus = TrainingCorpus()
    for seed in (1, 2):
        corpus.add(f"train-{seed}", f"input-{seed}", _helper_branches(seed))
    model = train_helper(corpus, H2P_IP, kind="pattern-table", h=12)
    base = simulate(_helper_branches(3), make_predictor("tage-sc-l:8kb"))
    report = evaluate_generalization([model], base)
    row = report.row_for(H2P_IP)
    assert row.executions > 1000
    assert row.delta >= 0.10, f"delta {row.delta:+.4f}"


def test_criterion_11_zero_helpers_change_nothing():
    records = _helper_branches(3)
    bare = simulate(records, make_predictor("tage-sc-l:8kb"))
    wrapped, _ = apply_helpers(bare, [])
    assert wrapped.to_csv() == bare.to_csv()


# --- 12: serialization formats ----------------------------------------------------

_KINDS = (BranchKind.COND, BranchKind.UNCOND, BranchKind.CALL, BranchKind.RET,
          BranchKind.INDIRECT)


def _fuzz_branch_records(rng):
    records = []
    seq = 0
    for _ in range(rng.randint(0, 40)):
        seq += rng.randint(1, 9)
        kind = _KINDS[rng.randrange(len(_KINDS))]
        taken = rng.random() < 0.5 if kind is BranchKind.COND else True
        records.append(BranchRecord(seq, rng.getrandbits(48), kind,
                                    rng.getrandbits(48), taken))
    return records


def _fuzz_instr_records(rng):
    records = []
    seq = 0
    for _ in range(rng.randint(0, 30)):
        seq += rng.randint(1, 9)
        if rng.random() < 0.4:
            kind = _KINDS[rng.randrange(len(_KINDS))]
            reads = frozenset(rng.sample(range(256), rng.randint(1, 3)))
            records.append(
                InstructionRecord(
                    seq=seq, ip=rng.getrandbits(48), is_branch=True, kind=kind,
                    target=rng.getrandbits(48),
                    taken=rng.random() < 0.5 if kind is BranchKind.COND else True,
                    regs_read=reads,
                    mem_read=frozenset(rng.getrandbits(64) for _ in range(rng.randint(0, 2))),
                )
            )
            continue
        records.append(
            InstructionRecord(
                seq=seq, ip=rng.getrandbits(48),
                regs_read=frozenset(rng.sample(range(256), rng.randint(0, 3))),
                regs_written=tuple(
                    (rng.randrange(256), rng.getrandbits(64))
                    for _ in range(rng.randint(0, 3))
                ),
                mem_read=frozenset(rng.getrandbits(64) for _ in range(rng.randint(0, 2))),
                mem_written=frozenset(rng.getrandbits(64) for _ in range(rng.randint(0, 2))),
            )
        )
    return records


_NAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789.-_"


def _fuzz_models(rng):
    from branchlab.helper import HelperModel

    models = []
    for ip in rng.sample(range(1, 1 << 40), rng.randint(0, 4)):
        h = rng.randint(1, 16)
        provenance = tuple(
            (
                "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(1, 12))),
                "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(1, 12))),
            )
            for _ in range(rng.randint(0, 3))
        )
        tau = rng.randint(0, 64) / 64          # exactly representable in f32
        if rng.random() < 0.5:
            params = {
                rng.getrandbits(h): (rng.getrandbits(32), rng.getrandbits(32))
                for _ in range(rng.randint(0, 8))
            }
            models.append(HelperModel(ip, "pattern-table", h, tau, params, provenance))
        else:
            params = {
                "theta": rng.getrandbits(31),
                "weights": tuple(rng.randint(-32768, 32767) for _ in range(h + 1)),
            }
            models.append(HelperModel(ip, "perceptron", h, tau, params, provenance))
    return models


def test_criterion_12_roundtrips_byte_exact():
    cases = 0
    rng = random.Random(1234)
    for fmt in ("bt1-text", "bt1-bin"):
        for _ in range(250):
            records = _fuzz_branch_records(rng)
            data = traceio.write_branch_trace(records, fmt)
            back = traceio.read_branch_trace(data)
            assert back == records
            assert traceio.write_branch_trace(back, fmt) == data
            cases += 1
    for fmt in ("it1-jsonl", "it1-bin"):
        for _ in range(150):
            records = _fuzz_instr_records(rng)
            data = traceio.write_instr_trace(records, fmt)
            back = traceio.read_instr_trace(data)
            assert back == records
            assert traceio.write_instr_trace(back, fmt) == data
            cases += 1
    for _ in range(200):
        models = _fuzz_models(rng)
        data = serialize_models(models)
        back = deserialize_models(data)
        assert back == models
        assert serialize_models(back) == data
        cases += 1
    assert cases == 1000


def test_criterion_12_corrupt_model_checksum_rejected():
    rng = random.Random(4321)
    # every possible single-byte corruption of one stored blob
    blob = serialize_models(_fuzz_models(random.Random(7)))
    for index in range(4, len(blob)):
        mutated = bytearray(blob)
        mutated[index] ^= rng.randint(1, 255)
        with pytest.raises(CorruptModel):
            deserialize_models(bytes(mutated))
    # and a random single-byte corruption of many fresh blobs
    for _ in range(200):
        data = bytearray(serialize_models(_fuzz_models(rng)))
        data[rng.randrange(4, len(data))] ^= rng.randint(1, 255)
        with pytest.raises(CorruptModel):
            deserialize_models(bytes(data))


# --- 13: every subcommand is deterministic ------------------------------------------

@pytest.fixture(scope="module")
def cli_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_cli")
    spec = SyntheticProgramSpec(
        behaviors=(
            DataDependent(ip=0x400100, gate_ip=0x400200),
            Biased(ip=0x400300, p_taken=0.98),
            Periodic(ip=0x400400, pattern="TTNT"),
            LoopExit(ip=0x400500, trip=5),
            RarePool(count=20, exponent=1.2),
        ),
        weights=(4.0, 2.0, 2.0, 2.0, 1.0),
        filler_density=0.3,
    )
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(synth.program_spec_to_json(spec)))
    it1b = root / "trace.it1b"
    bt1 = root / "trace.bt1"
    assert cli_main(["gen", "--spec", str(spec_path), "--seed", "9",
                     "--len", "8000", "--out", str(it1b)]) == 0
    assert cli_main(["gen", "--spec", str(spec_path), "--seed", "9",
                     "--len", "8000", "--out", str(bt1)]) == 0

    # two single-ip training traces and one held-out trace for the helpers
    helper_ip = 0x9100
    noise_ip = 0x9000
    def helper_trace(path, seed, n):
        rng = random.Random(seed)
        rows = []
        for i in range(n):
            noise = rng.random() < 0.5
            rows.append(cond(2 * i, noise_ip, noise))
            rows.append(cond(2 * i + 1, helper_ip, noise))
        traceio.save_trace(path, rows)
        return path

    train_a = helper_trace(root / "train_a.bt1b", 1, 1200)
    train_b = helper_trace(root / "train_b.bt1b", 2, 1200)
    held = helper_trace(root / "held.bt1b", 3, 700)
    return {
        "root": root, "spec": spec_path, "it1b": it1b, "bt1": bt1,
        "train_a": train_a, "train_b": train_b, "held": held,
        "helper_ip": helper_ip,
    }


def _dir_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_criterion_13_subcommand_reports_deterministic(cli_ws, tmp_path):
    ip = "0x400100"
    commands = {
        "gen": lambda out: ["gen", "--spec", str(cli_ws["spec"]), "--seed", "9",
                            "--len", "8000", "--out", str(out / "t.it1b")],
        "sim": lambda out: ["sim", "--trace", str(cli_ws["it1b"]),
                            "--predictor", "gshare:16k", "--out", str(out)],
        "h2p": lambda out: ["h2p", "--trace", str(cli_ws["it1b"]),
                            "--predictor", "gshare:16k", "--slice-len", "4000",
                            "--max-acc", "0.99", "--min-execs", "50",
                            "--min-mis", "10", "--out", str(out)],
        "hh": lambda out: ["hh", "--trace", str(cli_ws["it1b"]),
                           "--predictor", "gshare:16k", "--out", str(out)],
        "rare": lambda out: ["rare", "--trace", str(cli_ws["bt1"]),
                             "--predictor", "bimodal:4k", "--bin-width", "50",
                             "--out", str(out)],
        "recur": lambda out: ["recur", "--trace", str(cli_ws["bt1"]), "--out", str(out)],
        "deps": lambda out: ["deps", "--trace", str(cli_ws["it1b"]), "--ip", ip,
                             "--window", "2000", "--out", str(out)],
        "regvals": lambda out: ["regvals", "--trace", str(cli_ws["it1b"]), "--ip", ip,
                                "--regs", "0-3", "--mask", "0xff", "--out", str(out)],
        "limit": lambda out: ["limit", "--trace", str(cli_ws["it1b"]),
                              "--predictor", "gshare:16k", "--scales", "1,4",
                              "--cutoffs", "100", "--perfect-ips", ip,
                              "--out", str(out)],
        "sweep": lambda out: ["sweep", "--trace", str(cli_ws["bt1"]),
                              "--budgets", "8192", "--scales", "1,8",
                              "--out", str(out)],
        "train-helper": lambda out: ["train-helper",
                                     "--trace", f"{cli_ws['train_a']}=in-a",
                                     "--trace", f"{cli_ws['train_b']}=in-b",
                                     "--ip", hex(cli_ws["helper_ip"]),
                                     "--kind", "pattern-table", "--history", "1",
                                     "--out", str(out / "models.hm1")],
    }
    models = None
    for name, argv in commands.items():
        runs = []
        for attempt in ("a", "b"):
            out = tmp_path / name / attempt
            out.mkdir(parents=True)
            assert cli_main(argv(out)) == 0, f"{name} run {attempt}"
            runs.append(_dir_bytes(out))
        assert runs[0] == runs[1], f"{name} reports differ between identical runs"
        if name == "train-helper":
            models = tmp_path / name / "a" / "models.hm1"

    runs = []
    for attempt in ("a", "b"):
        out = tmp_path / "eval-helper" / attempt
        out.mkdir(parents=True)
        argv = ["eval-helper", "--models", str(models),
                "--trace", str(cli_ws["held"]), "--baseline", "bimodal:4k",
                "--out", str(out)]
        assert cli_main(argv) == 0, f"eval-helper run {attempt}"
        runs.append(_dir_bytes(out))
    assert runs[0] == runs[1], "eval-helper reports differ between identical runs"


# --- 14: preset storage estimates ---------------------------------------------------

def test_criterion_14_preset_storage_estimates():
    for name, target in (("tage-sc-l:8kb", 8192), ("tage-sc-l:64kb", 65536)):
        estimate = estimate_storage(name)
        assert abs(estimate - target) / target <= 0.10, f"{name}: {estimate}"
