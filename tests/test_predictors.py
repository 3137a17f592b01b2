"""Predictor unit behavior: counters, history reach, loop termination,
TAGE allocation, corrector arbitration, presets and budgets."""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from branchlab.errors import ConfigError
from branchlab.records import BranchKind, BranchRecord
from branchlab.predictors import (
    AlwaysTaken,
    Bimodal,
    Gshare,
    LoopPredictor,
    MispredictionStream,
    Perceptron,
    PRESET_NAMES,
    StatisticalCorrector,
    Tage,
    TageConfig,
    TageSCL,
    ensemble_config,
    estimate_storage,
    load_predictor_config,
    make_predictor,
    SimRecord,
    simulate,
)
from branchlab.predictors.base import counter_confidence
from branchlab.predictors.ensemble import resolve_budget
from branchlab.predictors.packed import FieldLayout
from branchlab.predictors.sc import LAYOUT, THETA_MAX, THETA_MIN, WEIGHT_BITS, WINDOWS, mirror
from branchlab.synth import Biased, DataDependent, RarePool, SyntheticProgramSpec, generate_trace
from branchlab.traceio import project_branches


def cond(seq, ip, taken):
    return BranchRecord(seq=seq, ip=ip, kind=BranchKind.COND, target=ip + 0x40, taken=taken)


def cond_stream(directions, ip=0x1000):
    return [cond(i, ip, t) for i, t in enumerate(directions)]


def rotation_stream(n, ips_and_rules, seed=0):
    """Rotate over (ip, rule) branches; rule(history_newest_first, rng) -> taken."""
    rng = random.Random(seed)
    history = []
    out = []
    for i in range(n):
        ip, rule = ips_and_rules[i % len(ips_and_rules)]
        taken = rule(history, rng)
        out.append(cond(i, ip, taken))
        history.insert(0, taken)
    return out


def accuracy_of(stream, ip=None, skip=0):
    recs = [r for r in stream.records[skip:] if ip is None or r.ip == ip]
    return sum(1 for r in recs if r.predicted == r.actual) / len(recs)


def tail_accuracy(stream, ip, frac=0.5):
    """Accuracy over the trailing fraction of one ip's executions."""
    recs = [r for r in stream.records if r.ip == ip]
    tail = recs[int(len(recs) * (1 - frac)):]
    return sum(1 for r in tail if r.predicted == r.actual) / len(tail)


class TestBimodal:
    def test_learns_constant_direction(self):
        p = Bimodal(64)
        st_ = simulate(cond_stream([True] * 50), p)
        assert accuracy_of(st_, skip=2) == 1.0

    def test_two_strikes_to_flip(self):
        p = Bimodal(64)
        ip = 0x40
        for i, t in enumerate((True, True)):   # counter 1 -> 3
            p.step(cond(i, ip, t))
        # step returns the prediction made before its own update
        assert p.step(cond(2, ip, False)) == (True, "bimodal")
        assert p.step(cond(3, ip, False)) == (True, "bimodal")   # still saturated-ish at 2
        assert p.step(cond(4, ip, False)) == (False, "bimodal")

    def test_confidence_is_3_only_when_saturated(self):
        p = Bimodal(64)
        i = (0x40 >> 2) & 63
        assert counter_confidence(p.table[i], 3) == 0
        for seq in range(4):
            p.step(cond(seq, 0x40, True))
        assert p.table[i] == 3 and counter_confidence(p.table[i], 3) == 3
        assert p.step(cond(4, 0x40, True)) == (True, "bimodal")
        assert [counter_confidence(c, 3) for c in range(4)] == [3, 0, 0, 3]

    def test_non_cond_ignored(self):
        p = Bimodal(64)
        before = list(p.table)
        assert p.step(BranchRecord(seq=0, ip=0x40, kind=BranchKind.UNCOND, target=0x80)) is None
        assert p.table == before

    def test_entries_must_be_pow2(self):
        with pytest.raises(ConfigError):
            Bimodal(100)

    def test_storage(self):
        assert Bimodal(4096).storage_bytes() == 1024


class TestGshare:
    def test_learns_alternation_bimodal_cannot(self):
        directions = [i % 2 == 0 for i in range(400)]
        g = simulate(cond_stream(directions), Gshare(1024))
        b = simulate(cond_stream(directions), Bimodal(1024))
        assert accuracy_of(g, skip=50) == 1.0
        assert accuracy_of(b, skip=50) < 0.7

    def test_history_length_validated(self):
        with pytest.raises(ConfigError):
            Gshare(1024, history_length=0)

    def test_storage(self):
        assert Gshare(16384).storage_bytes() == 4096


class TestAlwaysTaken:
    def test_fixed_output(self):
        p = AlwaysTaken()
        assert p.step(cond(0, 0x1234, False)) == (True, "always-taken")
        assert p.step(cond(1, 0x1234, True)) == (True, "always-taken")
        assert p.step(BranchRecord(seq=2, ip=0x1234, kind=BranchKind.RET, target=0x40)) is None
        assert p.storage_bytes() == 0


class TestPerceptron:
    def test_theta_formula(self):
        assert Perceptron(history_length=28).theta == int(1.93 * 28 + 14)

    @given(st.integers(1, 20), st.integers(0, 1000))
    @settings(max_examples=10)
    def test_learns_single_position_correlation(self, pos, seed):
        def noise(h, rng):
            return rng.random() < 0.5

        def follows(h, rng):
            return h[pos - 1] if pos - 1 < len(h) else False

        # the target must own its weight row: a coin-flip branch sharing it
        # keeps retraining the target's weights, which is not what this
        # test checks
        target = 0x904
        plan = [(0x100 + 16 * k, noise) for k in range(pos)] + [(target, follows)]
        perceptron = Perceptron(history_length=24)
        noise_rows = {perceptron._row(ip) for ip, _ in plan[:-1]}
        assert perceptron._row(target) not in noise_rows
        records = rotation_stream((pos + 1) * 600, plan, seed=seed)
        st_ = simulate(records, perceptron)
        assert tail_accuracy(st_, ip=target) >= 0.985

    def test_xor_is_not_linearly_separable(self):
        def noise(h, rng):
            return rng.random() < 0.5

        def xor12(h, rng):
            a = h[0] if len(h) > 0 else False
            b = h[1] if len(h) > 1 else False
            return a ^ b

        plan = [(0x100, noise), (0x110, noise), (0x900, xor12)]
        records = rotation_stream(9000, plan, seed=3)
        perc = simulate(records, Perceptron(history_length=24))
        tage = simulate(records, Tage(seed=0))
        assert accuracy_of(perc, ip=0x900, skip=3000) <= 0.80
        assert accuracy_of(tage, ip=0x900, skip=3000) >= 0.95

    def test_storage_example(self):
        assert Perceptron(history_length=28, rows=256, weight_bits=8).storage_bytes() == 7424

    def test_weights_stay_in_range(self):
        p = Perceptron(history_length=4, rows=2, weight_bits=4)
        for i in range(500):
            p.step(cond(i, 0x10, True))
        flat = [w for row in p.weights for w in p.layout.unpack(row)]
        assert all(-8 <= w <= 7 for w in flat)

    def test_rows_must_be_pow2(self):
        with pytest.raises(ConfigError):
            Perceptron(rows=100)


class TestLoopPredictor:
    def run_instances(self, lp, trip, instances, ip=0x600):
        """Feed full loop instances; returns per-instance exit verdicts
        (was the not-taken retirement predicted by a confident entry)."""
        verdicts = []
        seq = 0
        for _ in range(instances):
            for it in range(trip):
                taken = it < trip - 1
                predicted = lp.retire(ip, taken)
                if not taken:
                    verdicts.append(predicted is False)
                seq += 1
        return verdicts

    def test_predicts_exit_from_fourth_instance(self):
        verdicts = self.run_instances(LoopPredictor(), trip=37, instances=10)
        assert verdicts[:3] == [False, False, False]
        assert all(verdicts[3:])

    def test_mid_body_iterations_predicted_taken(self):
        lp = LoopPredictor()
        self.run_instances(lp, trip=5, instances=4)
        lp.retire(0x600, True)   # first retirement of instance 5
        assert lp.retire(0x600, True) is True

    def test_trip_change_resets_confidence(self):
        lp = LoopPredictor()
        self.run_instances(lp, trip=5, instances=4)
        self.run_instances(lp, trip=7, instances=1)
        assert lp.retire(0x600, True) is None

    def test_occupied_slot_ages_before_takeover(self):
        lp = LoopPredictor(entries=1)
        self.run_instances(lp, trip=4, instances=4, ip=0x600)
        assert lp.retire(0x600, True) is not None
        other = 0x600 + (1 << 2)   # one slot holds every ip; the tag differs
        assert lp.retire(other, True) is None
        assert lp.retire(0x600, True) is not None   # survived one contender touch

    def test_storage(self):
        assert LoopPredictor(64).storage_bytes() == 64 * 39 // 8


class TestTage:
    def test_history_schedule_geometric(self):
        cfg = TageConfig()
        lengths = cfg.history_lengths()
        assert lengths == (4, 7, 11, 18, 30, 49, 81, 134, 222, 366, 605, 1000)

    def test_schedule_endpoints_pinned(self):
        cfg = TageConfig(num_tagged_tables=5, min_hist=8, max_hist=300)
        lengths = cfg.history_lengths()
        assert lengths[0] == 8 and lengths[-1] == 300
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_unsatisfiable_schedule_rejected(self):
        with pytest.raises(ConfigError):
            TageConfig(num_tagged_tables=12, min_hist=4, max_hist=10).history_lengths()

    def test_exact_pattern_learned_perfectly(self):
        pattern = [c == "T" for c in "TTTNTNN"]
        records = cond_stream([pattern[i % 7] for i in range(8000)])
        st_ = simulate(records, Tage(seed=0))
        assert accuracy_of(st_, skip=4000) == 1.0

    def test_indices_and_tags_in_range(self):
        t = Tage(seed=0)
        rng = random.Random(1)
        for i in range(300):
            t.step(cond(i, rng.randrange(1 << 30) << 2, rng.random() < 0.5))
            indices, tags = t._indices_tags(rng.randrange(1 << 48))
            for j, (idx, tag) in enumerate(zip(indices, tags)):
                assert 0 <= idx < t.config.entries_per_table
                assert 0 <= tag < (1 << t.tag_widths[j])

    def test_allocation_telemetry_invariant(self):
        t = Tage(seed=0)
        rng = random.Random(7)
        for i in range(4000):
            t.step(cond(i, 0x100 + 16 * rng.randrange(8), rng.random() < 0.5))
        telem = t.allocation_telemetry()
        assert telem
        for stats in telem.values():
            assert 0 < stats.unique_entries <= stats.total_allocations

    def test_same_seed_same_behavior(self):
        rng = random.Random(3)
        records = [cond(i, 0x100 + 16 * rng.randrange(4), rng.random() < 0.5) for i in range(2000)]
        a = simulate(records, Tage(seed=5))
        b = simulate(records, Tage(seed=5))
        assert a.records == b.records

    def test_non_cond_only_shifts_path(self):
        t = Tage(seed=0)
        before_path = t.history.path
        before_dir = t.history.window(32)
        assert t.step(BranchRecord(seq=0, ip=0xABCD0, kind=BranchKind.CALL, target=0x10)) is None
        assert t.history.path != before_path
        assert t.history.window(32) == before_dir

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TageConfig(entries_per_table=100).validate()


class TestStatisticalCorrector:
    def test_fresh_corrector_never_overrides(self):
        sc = StatisticalCorrector()
        rng = random.Random(0)
        for _ in range(200):
            _, overrode = sc.decide(rng.randrange(1 << 20), rng.random() < 0.5,
                                    rng.randrange(4), mirror(rng.randrange(1 << 32)))
            assert overrode is False

    def test_decide_is_pure(self):
        sc = StatisticalCorrector()
        sc.train(0x40, True, mirror(0b1010), *sc.decide(0x40, True, 1, mirror(0b1010)), False)
        snapshot = (list(sc.bias), [list(bank) for bank in sc.banks], sc.theta)
        for _ in range(50):
            sc.decide(0x40, True, 2, mirror(0b1100))
        assert snapshot == (list(sc.bias), [list(bank) for bank in sc.banks], sc.theta)

    def test_training_moves_bias_toward_outcome(self):
        sc = StatisticalCorrector()
        for _ in range(10):
            sc.train(0x40, True, mirror(0), *sc.decide(0x40, True, 0, mirror(0)), False)
        assert sc.bias[(0x40 >> 2) & (sc.config.bias_entries - 1)] < 0

    def test_theta_stays_in_bounds(self):
        sc = StatisticalCorrector()
        rng = random.Random(1)
        for i in range(3000):
            ip = rng.randrange(1 << 16)
            hist = mirror(rng.randrange(1 << 32))
            total, overrode = sc.decide(ip, rng.random() < 0.5, rng.randrange(4), hist)
            sc.train(ip, rng.random() < 0.5, hist, total, overrode, rng.random() < 0.5)
            assert THETA_MIN <= sc.theta <= THETA_MAX

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            from branchlab.predictors import CorrectorConfig

            CorrectorConfig(bias_entries=100).validate()


class TestEnsemble:
    def test_budget_grid(self):
        assert ensemble_config(8192).budget_bytes == 8192
        assert ensemble_config(resolve_budget("64kb")).tage.num_tagged_tables == 15
        assert ensemble_config(resolve_budget("8kb")).tage.max_hist == 1000
        assert ensemble_config(resolve_budget("64kb")).tage.max_hist == 3000
        assert resolve_budget(" 8192B ") == resolve_budget("8192") == 8192
        for budget in (16384, 32768, 131072):
            cfg = ensemble_config(budget)
            assert 0.9 * budget <= cfg.storage_bytes() <= 1.1 * budget

    def test_off_grid_budgets_rejected(self):
        for bad in (4096, 12288, 8192 * 3, resolve_budget("5kb")):
            with pytest.raises(ConfigError):
                ensemble_config(bad)
        with pytest.raises(ConfigError, match="unparseable storage budget"):
            resolve_budget("8.5kb")

    def test_provider_labels(self):
        p = TageSCL(seed=0)
        rng = random.Random(2)
        labels = set()
        for i in range(3000):
            out = p.step(cond(i, 0x100 + 16 * rng.randrange(6), rng.random() < 0.5))
            labels.add(out[1])
        assert "base" in labels
        assert labels <= {"base", "alt", "sc", "loop"} | {f"tage{i}" for i in range(12)}

    def test_loop_component_overrides_on_regular_loop(self):
        trip = 9
        records = cond_stream([(i % trip) != trip - 1 for i in range(trip * 30)], ip=0x600)
        st_ = simulate(records, TageSCL(seed=0))
        providers = {r.provider for r in st_.records[trip * 5 :]}
        assert "loop" in providers
        assert accuracy_of(st_, skip=trip * 5) == 1.0


class TestPresetsAndConfig:
    def test_all_presets_constructible(self):
        for name in PRESET_NAMES:
            p = make_predictor(name, seed=0)
            assert p.storage_bytes() >= 0

    def test_budget_presets_inside_band(self):
        assert abs(estimate_storage("tage-sc-l:8kb") - 8192) <= 0.1 * 8192
        assert abs(estimate_storage("tage-sc-l:64kb") - 65536) <= 0.1 * 65536

    def test_preset_arguments(self):
        assert make_predictor("bimodal:4k").entries == 4096
        assert make_predictor("gshare:16k").entries == 16384
        assert make_predictor("perceptron:28").history_length == 28

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            make_predictor("oracle:1kb")
        with pytest.raises(ConfigError):
            make_predictor("always-taken:4")

    def test_dict_config(self):
        p = make_predictor({"predictor": "gshare", "entries": "2k", "history_length": 10})
        assert p.entries == 2048 and p.history_length == 10

    def test_config_file(self, tmp_path):
        f = tmp_path / "p.conf"
        f.write_text("# ensemble under test\npredictor = tage-sc-l\nbudget = 64kb\n")
        mapping = load_predictor_config(f)
        p = make_predictor(mapping)
        assert isinstance(p, TageSCL)
        assert p.config.budget_bytes == 65536

    def test_config_file_errors(self, tmp_path):
        f = tmp_path / "bad.conf"
        f.write_text("predictor tage\n")
        with pytest.raises(ConfigError):
            load_predictor_config(f)
        f.write_text("budget = 8kb\n")
        with pytest.raises(ConfigError):
            load_predictor_config(f)
        f.write_bytes(b"predictor = tage\n# \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_predictor_config(f)

    @pytest.mark.parametrize("mapping, match", [
        ({"predictor": "tage-sc-l", "bogus": "3"}, "unknown config key 'bogus'"),
        ({"predictor": "bimodal", "budget": "8kb"}, "unknown config key 'budget'"),
        ({"predictor": "gshare", "history_length": "x"}, "unparseable history_length"),
        ({"predictor": "perceptron", "weight_bits": "8.5"}, "unparseable weight_bits"),
        ({"predictor": "tage", "min_hist": "x"}, "unparseable min_hist"),
        ({"predictor": "tage", "entries_per_table": "1q"}, "unparseable entries_per_table"),
        ({"predictor": "tage", "entries_per_table": "1"}, "entries_per_table must be >= 2, got 1"),
    ])
    def test_config_value_errors(self, mapping, match):
        with pytest.raises(ConfigError, match=match):
            make_predictor(mapping)

    def test_estimate_storage_inputs(self):
        assert estimate_storage("tage-sc-l:8kb") == ensemble_config(8192).storage_bytes()
        assert estimate_storage({"predictor": "bimodal", "entries": 4096}) == 1024
        with pytest.raises(ConfigError):
            estimate_storage("oracle:1")


class TestSimulate:
    def test_one_record_per_cond(self):
        records = [
            cond(0, 0x10, True),
            BranchRecord(seq=1, ip=0x20, kind=BranchKind.UNCOND, target=0x30),
            cond(2, 0x10, False),
        ]
        st_ = simulate(records, Bimodal(64))
        assert [r.seq for r in st_.records] == [0, 2]
        assert st_.records[0].actual is True

    def test_accuracy_and_mispredictions(self):
        st_ = simulate(cond_stream([True] * 10), AlwaysTaken())
        assert st_.mispredictions() == 0
        assert st_.accuracy() == 1.0
        assert simulate([], AlwaysTaken()).accuracy() is None

    def test_csv_shape(self):
        st_ = simulate(cond_stream([True, False]), AlwaysTaken())
        lines = st_.to_csv().splitlines()
        assert lines[0] == "seq,ip_hex,predicted,actual,provider"
        assert lines[1] == "0,0x1000,1,1,always-taken"


def test_package_names():
    """The package's ``simulate`` is the function, also once its module is
    imported; every name in ``__all__`` resolves to the object its module
    defines; an unknown name is an AttributeError."""
    import branchlab.predictors as package

    module = importlib.import_module("branchlab.predictors.simulate")
    assert package.simulate is module.simulate
    for name in package.__all__:
        value = getattr(package, name)
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("branchlab.predictors."):
            assert getattr(importlib.import_module(home), name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    with pytest.raises(ImportError):
        from branchlab.predictors import no_such_name  # noqa: F401


# --- packed weights against a per-weight loop ---------------------------------

def inputs_of(history, n):
    """The +-1 input of each of the newest n history bits, bit 0 first."""
    return [1 if history >> j & 1 else -1 for j in range(n)]


def loop_dot(weights, inputs):
    return sum(w * x for w, x in zip(weights, inputs))


def loop_skip(weights, inputs, up, bits):
    """The corrector's update: a weight moves by +x (up) or -x unless it
    would leave the signed range of ``bits`` bits."""
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    out = []
    for w, x in zip(weights, inputs):
        moved = w + (x if up else -x)
        out.append(moved if lo <= moved <= hi else w)
    return out


def loop_clamp(weights, inputs, up, bits):
    """The perceptron's update: every weight moves, then is clamped."""
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return [min(hi, max(lo, w + (x if up else -x))) for w, x in zip(weights, inputs)]


def weights_near_bounds(bits, n):
    """n signed weights of ``bits`` bits, three in four at or next to a
    bound."""
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    near = st.sampled_from((lo, lo + 1, hi - 1, hi))
    return st.lists(st.one_of(near, near, near, st.integers(lo, hi)), min_size=n, max_size=n)


@st.composite
def packed_cases(draw):
    """(layout, weights, +-1 inputs, the mirror of those inputs, weight
    bits): one corrector window, the corrector's three windows as one
    row, or a perceptron row whose field 0 is the bias."""
    shape = draw(st.sampled_from(("window", "corrector", "perceptron")))
    history = draw(st.integers(0, (1 << 64) - 1))
    if shape == "window":
        n = draw(st.sampled_from(WINDOWS))
        layout = FieldLayout(WEIGHT_BITS, n)
        inputs, mirrored = inputs_of(history, n), layout.mirror(history, n)
    elif shape == "corrector":
        layout = LAYOUT
        inputs = [x for n in WINDOWS for x in inputs_of(history, n)]
        mirrored = mirror(history & 0xFFFFFFFF)
    else:
        bits, n = draw(st.sampled_from((2, 8))), draw(st.integers(1, 64))
        layout = FieldLayout(bits, n + 1)
        inputs = [1] + inputs_of(history, n)
        mirrored = layout.mirror(history, n) << layout.width
    bits = layout.weight_bits
    weights = draw(weights_near_bounds(bits, len(inputs)))
    return layout, weights, inputs, mirrored, bits


@given(packed_cases(), st.booleans())
@settings(max_examples=300)
def test_packed_arithmetic_matches_per_weight_loop(case, up):
    """The packed dot product and saturating +-1 step equal a loop over
    the weights, and for +-1 steps skipping a weight that would leave its
    range is clamping it."""
    layout, weights, inputs, mirrored, bits = case
    packed = layout.pack(weights)
    assert layout.unpack(packed) == weights
    assert layout.dot(packed, mirrored) == loop_dot(weights, inputs)
    want = loop_skip(weights, inputs, up, bits)
    assert want == loop_clamp(weights, inputs, up, bits)
    assert layout.unpack(layout.step(packed, mirrored, up)) == want


# --- whole-trace replay against the per-record reference ----------------------

TAGE_PRESETS = ("tage:8kb", "tage:64kb", "tage-sc-l:8kb", "tage-sc-l:64kb")


def _shootout():
    path = Path(__file__).resolve().parent.parent / "demos" / "predictor_shootout.py"
    spec = importlib.util.spec_from_file_location("predictor_shootout", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _readme_mix():
    """The README quick-start spec: a data-dependent branch behind a gate,
    a biased branch and a Zipf pool of rare branches."""
    spec = SyntheticProgramSpec(
        behaviors=(
            DataDependent(ip=0x400100, gate_ip=0x400200),
            Biased(ip=0x400300, p_taken=0.999),
            RarePool(count=500, exponent=1.1),
        ),
        weights=(4.0, 2.0, 1.0),
        filler_density=0.2,
    )
    records, _ = generate_trace(spec, seed=42, length=12_000)
    return project_branches(records)


PROBE_NAMES = ("readme-mix", "periodic-7", "xor-2bit", "loop-37")


@pytest.fixture(scope="module")
def probes():
    """The README mix and the three shootout probe streams, shortened."""
    demo = _shootout()
    return dict(zip(PROBE_NAMES, (
        _readme_mix(),
        demo.periodic_stream(4_000),
        demo.xor_stream(1_500),
        demo.loop_stream(instances=110),
    )))


def stepped(records, predictor):
    """The per-record reference: step() on every record."""
    out = []
    for rec in records:
        result = predictor.step(rec)
        if result is not None:
            out.append(SimRecord(rec.seq, rec.ip, result[0], rec.taken, result[1]))
    return MispredictionStream(out)


def predictor_state(p):
    """Every piece of state step() touches, as comparable values."""
    if isinstance(p, TageSCL):
        return (predictor_state(p.tage), p.sc.bias, p.sc.banks, p.sc.theta, p.loop.table)
    h = p.history
    return (
        p.tags, p.ctrs, p.useful, p.fresh, p.base,
        [reg.comp for regs in p.folds for reg in regs],
        h.bits, h.path,
        p.alloc_total, p.alloc_sites, p.rng.getstate(),
    )


@st.composite
def mixed_streams(draw):
    """A branch stream of every kind over a few hot ips and arbitrary
    64-bit ones, and a split point: records before it warm the
    predictor up one at a time."""
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(list(BranchKind)),
            st.one_of(st.sampled_from([0x100, 0x104, 0x900, 0x4000]), st.integers(0, (1 << 64) - 1)),
            st.booleans(),
        ),
        max_size=300,
    ))
    records = [
        BranchRecord(seq, ip, kind, ip + 4, taken or kind is not BranchKind.COND)
        for seq, (kind, ip, taken) in enumerate(rows)
    ]
    return records, draw(st.integers(0, len(records)))


class TestReplay:
    @pytest.mark.parametrize("probe", PROBE_NAMES)
    @pytest.mark.parametrize("preset", TAGE_PRESETS)
    def test_probe_streams_match_step(self, probes, preset, probe):
        records = probes[probe]
        fast = make_predictor(preset, seed=3)
        reference = make_predictor(preset, seed=3)
        got = simulate(records, fast)
        want = stepped(records, reference)
        assert got.records == want.records
        assert predictor_state(fast) == predictor_state(reference)

    @pytest.mark.parametrize("preset", TAGE_PRESETS)
    def test_probe_stream_from_a_warm_state(self, probes, preset):
        """The second half of the README mix, replayed from the history
        that stepping through its first half left: every live direction
        bit, oldest to newest, reaches the replay's folds."""
        records = probes["readme-mix"]
        half = len(records) // 2
        fast = make_predictor(preset, seed=3)
        reference = make_predictor(preset, seed=3)
        for rec in records[:half]:
            fast.step(rec)
            reference.step(rec)
        got = simulate(records[half:], fast)
        want = stepped(records[half:], reference)
        assert got.records == want.records
        assert predictor_state(fast) == predictor_state(reference)

    @given(st.sampled_from(TAGE_PRESETS), mixed_streams())
    @settings(max_examples=40)
    def test_mixed_kinds_from_a_warm_state(self, preset, stream):
        """Non-COND branches shift only path history; replay starts from
        whatever history the predictor already holds."""
        records, split = stream
        fast = make_predictor(preset, seed=1)
        reference = make_predictor(preset, seed=1)
        for rec in records[:split]:
            fast.step(rec)
            reference.step(rec)
        got = simulate(iter(records[split:]), fast)
        want = stepped(records[split:], reference)
        assert got.records == want.records
        assert predictor_state(fast) == predictor_state(reference)

    @given(st.sampled_from(TAGE_PRESETS), mixed_streams())
    @settings(max_examples=40)
    def test_trace_hashes_equal_per_record_hashes(self, preset, stream):
        """retire_trace yields, per COND record, the indices, tags and
        corrector window that the rolling history gives at that record."""
        records, split = stream
        ahead = make_predictor(preset, seed=1)
        reference = make_predictor(preset, seed=1)
        for rec in records[:split]:
            ahead.step(rec)
            reference.step(rec)
        ahead = ahead.tage if isinstance(ahead, TageSCL) else ahead
        ref_tage = reference.tage if isinstance(reference, TageSCL) else reference
        got = [(i, t, w) for _, i, t, w in ahead.retire_trace(records[split:], 32)]
        want = []
        for rec in records[split:]:
            if rec.kind is BranchKind.COND:
                want.append((*ref_tage._indices_tags(rec.ip), ref_tage.history.window(32)))
            reference.step(rec)
        assert got == want

    @pytest.mark.parametrize("preset", TAGE_PRESETS)
    def test_trace_blocks_join_seamlessly(self, preset, monkeypatch):
        """With blocks of a few dozen COND records, retire_trace from a
        warm state yields the per-record indices, tags and corrector
        window at every record, across every block boundary, and leaves
        the history and folds as stepping would."""
        monkeypatch.setattr("branchlab.predictors.tage.TRACE_BLOCK", 61)
        records = mixed_kind_stream(n=2_000)
        split = 700
        ahead = make_predictor(preset, seed=1)
        reference = make_predictor(preset, seed=1)
        for rec in records[:split]:
            ahead.step(rec)
            reference.step(rec)
        ahead = ahead.tage if isinstance(ahead, TageSCL) else ahead
        ref_tage = reference.tage if isinstance(reference, TageSCL) else reference
        got = [(i, t, w) for _, i, t, w in ahead.retire_trace(records[split:], 32)]
        want = []
        for rec in records[split:]:
            if rec.kind is BranchKind.COND:
                want.append((*ref_tage._indices_tags(rec.ip), ref_tage.history.window(32)))
            reference.step(rec)
        assert len(want) > 10 * 61
        assert got == want
        assert (ahead.history.bits, ahead.history.path) == (ref_tage.history.bits,
                                                           ref_tage.history.path)
        assert ([r.comp for r in ahead._registers()]
                == [r.comp for r in ref_tage._registers()])

    def test_index_reading_pc_bits_above_a_lane(self):
        """With 2**16 entries per table, table 0's index reads pc bits 17
        to 32, above a 32-bit lane, and table 1's reach bit 31 exactly:
        both still equal the per-record hashes on 64-bit ips."""
        config = TageConfig(num_tagged_tables=2, entries_per_table=1 << 16,
                            min_hist=4, max_hist=20)
        records = mixed_kind_stream(n=600)
        ahead, reference = Tage(config, seed=1), Tage(config, seed=1)
        got = [(i, t) for _, i, t, _ in ahead.retire_trace(records)]
        want = []
        for rec in records:
            if rec.kind is BranchKind.COND:
                want.append(reference._indices_tags(rec.ip))
            reference.step(rec)
        assert [s + ahead.index_bits for s in ahead._pc_shifts] == [33, 32]
        assert got == want

    def test_probes_reach_every_provider(self, probes):
        """The probe streams drive every arbitration arm of the ensemble,
        so the equality above covers each of them."""
        providers = set()
        for records in probes.values():
            providers |= {r.provider for r in simulate(records, make_predictor("tage-sc-l:8kb"))}
        assert {"base", "alt", "loop", "sc"} <= providers
        assert any(p.startswith("tage") for p in providers)


# --- streams and storage pinned across versions -------------------------------

def mixed_kind_stream(n=3_000, seed=11):
    """Every branch kind over hot and arbitrary 64-bit ips, drawn with
    Python's random so that the stream does not move with numpy."""
    rng = random.Random(seed)
    kinds = [BranchKind.COND] * 4 + [k for k in BranchKind if k is not BranchKind.COND]
    hot = [0x100, 0x104, 0x900, 0x4000, 0x400100]
    records = []
    for seq in range(n):
        kind = rng.choice(kinds)
        ip = rng.choice(hot) if rng.random() < 0.8 else rng.getrandbits(64)
        taken = kind is not BranchKind.COND or rng.random() < (0.9 if ip in hot[:2] else 0.5)
        records.append(BranchRecord(seq, ip, kind, ip + 4, taken))
    return records


# preset: (estimate_storage, {stream: SHA-256 of simulate(...).to_csv() at seed 0})
PINNED = {
    "always-taken": (0, {
        "periodic-7": "19842a6e623f7b7eb12431dd828dd5de619635a1290671212082a76fbf8ff61c",
        "xor-2bit": "cc75cd2fa850fb069cb109c01ab4f1178026c7235413e1096c0c012a51683ae8",
        "loop-37": "6b0e3981a1cdef3d7fee6fb7f67828fd5452189ce6eb15ee2bf3e790183f97b8",
        "mixed-kinds": "6f506183857bb87bb04f207160020b63f648dfb78fdd42659bc5294d14b7131e",
    }),
    "bimodal:4k": (1024, {
        "periodic-7": "76230f4b76e56e72b5beee352a27500f8e50f7ec262dc7a56543f3538f8e57f0",
        "xor-2bit": "2be9f16691cfef16017ce0a2410510099d3bc1ae71ccb77788cfddcfbe6b28dd",
        "loop-37": "9096e886c8c5298c052cb1fc9377cafe5f42774d5fd813358c629ab400ec31d1",
        "mixed-kinds": "7947f65afdde8f4fb57f37c51dc28ddf5bee89ae14577a826f86f2353a75269b",
    }),
    "gshare:16k": (4096, {
        "periodic-7": "201e849e781c5adb7f31fbbdc39650a570fedc822496d0343f94f1dcbde21225",
        "xor-2bit": "f379a8d35b3c79481ab38487e7a4ebdfb76ca0ff82c74625a4b0c589e7a59262",
        "loop-37": "d60ba298eada36f5734de92adcb489ead541d96aa1c94209db0a767a3ef7c3f5",
        "mixed-kinds": "2c8876d347fdd0f8bba3ff9e89165ccd3f569b9b51bb296726f4625b7f0f38c2",
    }),
    "perceptron:28": (7424, {
        "periodic-7": "1a9de71efd0181f86ab1076c9d92efa6c47eede50a7e2da33f697c85cd318072",
        "xor-2bit": "82cf7fae566a10964903d1ad63b85890944f295a9bd7b359f032749f0384f259",
        "loop-37": "ea7a2b628a828577cd09cd7c0ab09ed5e7a758c34a1f0e62699fa460dcdd2a2b",
        "mixed-kinds": "edc8ddebde5bed81be5360237d0132b3aa8e76a565bc0a5d45afc24fa8874f07",
    }),
    "tage-sc-l:8kb": (8664, {
        "periodic-7": "15406f58a662f37ea09026cc0c7581d28e4b5311c91ab322366aa8f3fae2ac24",
        "xor-2bit": "f86e5e1cae381fa4c5b8534259e77ece182b1c910683138f3d832466388f516c",
        "loop-37": "c9ef18d80a5879bdd6ca465abb4db8a95e840d34d37008e6c9a2637bd3e6f801",
        "mixed-kinds": "3406b2f35a91ad01cc40e012e22382ac781c01a1e24bf0d131cb47c69a1d8436",
    }),
    "tage-sc-l:64kb": (69728, {
        "periodic-7": "2c7fa96769b44e826385c32021a3cfeb539c45512abab1a355c280faa4e6ce67",
        "xor-2bit": "482bd057a16f9c315dc4e12e03530398c7f7d31033c503777a15ac01b4a9de54",
        "loop-37": "5203f39e2385971159f70038e20ddadb7fe61d0c32abd5f549f3b306ee84d7ae",
        "mixed-kinds": "9152f13f824f94e551a142084778b4958ede0906094bc8cafa3a6f5b7f421504",
    }),
    "tage:8kb": (6912, {
        "periodic-7": "7815b52f39573e38ff638cc93ff0dec688491fbcc4910214cb2fa54438933752",
        "xor-2bit": "58f3caffb64866ed7ba5becfe1b315f94c31fb3ef8b3b645b6785892f3ac78a8",
        "loop-37": "d4c6a46787d6d6a0b38f93a40961492496ae6d29a12a9174574e0bc7663c3b5c",
        "mixed-kinds": "87c3be287af33f237b66328994badeb5c53eecf2f53ad808d5360cedce0816c0",
    }),
    "tage:64kb": (64256, {
        "periodic-7": "cccad9606113c6610c77b721eed5e765f6ec81028ba8c05fbf0e85af6a42c8b5",
        "xor-2bit": "967861b13dbf7283456e677a5501988504b3386ec45a4571844907840deb344b",
        "loop-37": "dfa7822c8b9bfa481b42bd68b2d070821d3d8103b42fe378bd339f1dd2fb97d7",
        "mixed-kinds": "4dec3a68e892bf3f28aaeae02f013539ea24374adaaa3903764c0a462117171d",
    }),
}


@pytest.fixture(scope="module")
def pinned_inputs():
    demo = _shootout()
    return {
        "periodic-7": demo.periodic_stream(4_000),
        "xor-2bit": demo.xor_stream(1_500),
        "loop-37": demo.loop_stream(instances=110),
        "mixed-kinds": mixed_kind_stream(),
    }


@pytest.mark.parametrize("preset", [*PRESET_NAMES, "tage:8kb", "tage:64kb"])
def test_streams_and_storage_are_pinned(pinned_inputs, preset):
    """A refactor of the predictors must leave every misprediction stream
    and every storage figure as it was."""
    storage, digests = PINNED[preset]
    assert estimate_storage(preset) == storage
    got = {
        name: hashlib.sha256(simulate(records, make_predictor(preset)).to_csv().encode()).hexdigest()
        for name, records in pinned_inputs.items()
    }
    assert got == digests
