"""Offline helper models: training, HM1 serialization, applying helpers to a
baseline's stream."""

import random
import struct
import zlib
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from branchlab import helper
from branchlab.errors import (
    ArgumentError,
    ConfigError,
    CorruptModel,
    EmptyTargetError,
    FormatError,
    TrainingError,
)
from branchlab.helper import (
    HM1_MAGIC,
    MIN_TRAINING_SAMPLES,
    PATTERN_TABLE,
    PERCEPTRON,
    HelperModel,
    TrainingCorpus,
    apply_helpers,
    deserialize_models,
    evaluate_generalization,
    load_model,
    load_models_file,
    save_model,
    save_models_file,
    serialize_models,
    train_helper,
    train_helpers,
)
from branchlab.predictors import MispredictionStream, SimRecord, make_predictor, simulate
from branchlab.records import BranchKind, BranchRecord

A_IP = 0x1000
T_IP = 0x2000


def conds(directions):
    """[(ip, taken), ...] -> BranchRecord list."""
    return [
        BranchRecord(seq=i, ip=ip, kind=BranchKind.COND, target=ip + 64, taken=taken)
        for i, (ip, taken) in enumerate(directions)
    ]


def position_one_trace(seed, n):
    """Noise branch with random outcomes; the target immediately repeats
    the noise outcome, so its direction equals history position 1."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        noise = rng.random() < 0.5
        rows.append((A_IP, noise))
        rows.append((T_IP, noise))
    return conds(rows)


class TestCorpusSamples:
    def test_worked_example(self):
        corpus = TrainingCorpus()
        corpus.add("t0", "i0", conds([
            (A_IP, True), (T_IP, False), (A_IP, True), (T_IP, True), (A_IP, False),
        ]))
        # pre-execution history, bit 0 = most recent COND outcome: the
        # second target execution sees A(T), T(F) behind it -> 0b01
        assert corpus.samples([T_IP], h=2) == {T_IP: [(0b01, False), (0b01, True)]}
        # one walk serves every target: A's first execution sees no history
        assert corpus.samples([A_IP, T_IP], h=2) == {
            A_IP: [(0b00, True), (0b10, True), (0b11, False)],
            T_IP: [(0b01, False), (0b01, True)],
        }

    def test_history_resets_between_traces(self):
        corpus = TrainingCorpus()
        corpus.add("t0", "i0", conds([(A_IP, True), (T_IP, True)]))
        corpus.add("t1", "i1", conds([(T_IP, True)]))
        assert corpus.samples([T_IP], h=4) == {T_IP: [(1, True), (0, True)]}
        assert corpus.provenance() == (("t0", "i0"), ("t1", "i1"))
        assert corpus.input_ids() == {"i0", "i1"}

    def test_non_cond_records_ignored(self):
        rows = conds([(A_IP, True), (T_IP, True)])
        jump = BranchRecord(seq=99, ip=0x30, kind=BranchKind.UNCOND, target=0x40)
        corpus = TrainingCorpus()
        corpus.add("t0", "i0", [rows[0], jump, rows[1]])
        assert corpus.samples([T_IP], h=4) == {T_IP: [(1, True)]}


class TestTraining:
    def make_corpus(self, seed=1, n=1200):
        corpus = TrainingCorpus()
        corpus.add("t0", "in-a", position_one_trace(seed, n))
        return corpus

    def test_pattern_table_counts_are_exact(self):
        corpus = self.make_corpus()
        model = train_helper(corpus, T_IP, kind=PATTERN_TABLE, h=3)
        # independent extraction: replay the trace by hand
        want = Counter()
        hist = 0
        for rec in corpus.traces[0].records:
            if rec.kind is not BranchKind.COND:
                continue
            if rec.ip == T_IP:
                want[(hist & 0b111, rec.taken)] += 1
            hist = (hist << 1) | int(rec.taken)
        assert model.kind == PATTERN_TABLE and model.h == 3
        assert model.params == {
            p: (want[(p, True)], want[(p, False)])
            for p in {p for p, _ in want}
        }
        assert model.provenance == (("t0", "in-a"),)

    def test_pattern_table_predicts_position_one_rule(self):
        model = train_helper(self.make_corpus(), T_IP, kind=PATTERN_TABLE, h=1)
        assert model.predict(0b0) == (False, 1.0)
        assert model.predict(0b1) == (True, 1.0)

    def test_perceptron_fits_separable_rule(self):
        model = train_helper(self.make_corpus(), T_IP, kind=PERCEPTRON, h=4)
        assert model.params["theta"] == int(1.93 * 4 + 14)
        samples = self.make_corpus().samples([T_IP], 4)[T_IP]
        hits = sum(model.predict(hist)[0] == taken for hist, taken in samples)
        assert hits / len(samples) >= 0.99

    @pytest.mark.parametrize("kind", [PATTERN_TABLE, PERCEPTRON])
    def test_one_walk_serves_every_target(self, kind, monkeypatch):
        corpus = self.make_corpus()
        corpus.add("t1", "in-b", position_one_trace(2, 1200))
        alone = [train_helper(corpus, ip, kind=kind, h=5) for ip in (T_IP, A_IP)]
        walks = []
        samples = TrainingCorpus.samples

        def counted(self, target_ips, h):
            walks.append(list(target_ips))
            return samples(self, target_ips, h)

        monkeypatch.setattr(TrainingCorpus, "samples", counted)
        assert train_helpers(corpus, [T_IP, A_IP], kind=kind, h=5) == alone
        assert walks == [[T_IP, A_IP]]

    def test_deterministic(self):
        a = train_helper(self.make_corpus(), T_IP, kind=PERCEPTRON, h=6)
        b = train_helper(self.make_corpus(), T_IP, kind=PERCEPTRON, h=6)
        assert a == b

    def test_too_few_samples(self):
        corpus = self.make_corpus(n=MIN_TRAINING_SAMPLES - 1)
        with pytest.raises(TrainingError):
            train_helper(corpus, T_IP)

    def test_argument_validation(self, monkeypatch):
        corpus = self.make_corpus(n=10)

        def no_walk(*args):
            raise AssertionError("arguments are checked before any sample walk")

        monkeypatch.setattr(TrainingCorpus, "samples", no_walk)
        with pytest.raises(ArgumentError):
            train_helper(corpus, T_IP, kind="nearest-neighbor")
        with pytest.raises(ArgumentError):
            train_helper(corpus, T_IP, h=0)
        with pytest.raises(ArgumentError):
            train_helper(corpus, T_IP, h=65)
        with pytest.raises(ArgumentError):
            train_helpers(corpus, [T_IP, A_IP], h=0)
        for epochs in (0, -3):
            for kind in (PERCEPTRON, PATTERN_TABLE):
                with pytest.raises(ArgumentError, match="epochs"):
                    train_helper(corpus, T_IP, kind=kind, epochs=epochs)
        for tau in (-0.25, 1.5, float("nan")):
            for kind in (PERCEPTRON, PATTERN_TABLE):
                with pytest.raises(ArgumentError, match="confidence threshold"):
                    train_helper(corpus, T_IP, kind=kind, tau=tau)


def perceptron_oracle(samples, h, theta, epochs, lo, hi):
    """The per-bit online perceptron loop: recompute y from every weight for
    each sample and clamp every weight on each step."""
    weights = [0] * (h + 1)
    for _ in range(epochs):
        changed = False
        for hist, taken in samples:
            y = weights[0]
            for i in range(1, h + 1):
                y += weights[i] if (hist >> (i - 1)) & 1 else -weights[i]
            if (y >= 0) != taken or abs(y) <= theta:
                step = 1 if taken else -1
                weights[0] = min(hi, max(lo, weights[0] + step))
                for i in range(1, h + 1):
                    delta = step if (hist >> (i - 1)) & 1 else -step
                    weights[i] = min(hi, max(lo, weights[i] + delta))
                changed = True
        if not changed:
            break
    return tuple(weights)


def rule_trace(seed, targets, rule, position):
    """A noise branch and the target in random order. The target is taken when
    history bit ``position - 1`` is set ("bit": separable, so training stops
    after a few passes), when that bit and bit 0 differ ("xor") or at random
    ("random"); the last two seldom reach a pass without a step."""
    rng = random.Random(seed)
    rows, hist = [], 0
    while targets:
        if rng.random() < 0.5:
            taken = rng.random() < 0.5
            rows.append((A_IP, taken))
        else:
            bit = hist >> (position - 1) & 1
            taken = {"bit": bit, "xor": bit ^ hist & 1, "random": rng.random() < 0.5}[rule]
            rows.append((T_IP, bool(taken)))
            targets -= 1
        hist = hist << 1 | taken
    return conds(rows)


def fit_both(records, h, epochs, bound):
    """(train_helper's weights, the oracle's) on one trace, with the weight
    bounds shrunk to +-bound unless bound is None."""
    corpus = TrainingCorpus()
    corpus.add("t0", "in-a", records)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(helper, "MIN_TRAINING_SAMPLES", 1)
        if bound is not None:
            m.setattr(helper, "_WEIGHT_MIN", -bound)
            m.setattr(helper, "_WEIGHT_MAX", bound)
        model = train_helper(corpus, T_IP, kind=PERCEPTRON, h=h, epochs=epochs)
        lo, hi = helper._WEIGHT_MIN, helper._WEIGHT_MAX
    theta = int(1.93 * h + 14)
    assert model.params["theta"] == theta
    want = perceptron_oracle(corpus.samples([T_IP], h)[T_IP], h, theta, epochs, lo, hi)
    return model.params["weights"], want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.integers(1, 200), st.sampled_from(("bit", "xor", "random")), st.data(),
       st.one_of(st.none(), st.integers(1, 6)))
@example(h=1, epochs=30, seed=7, targets=200, rule="random", data=None, bound=5)
@example(h=64, epochs=30, seed=8, targets=200, rule="xor", data=None, bound=3)
def test_perceptron_training_matches_per_bit_oracle(h, epochs, seed, targets, rule, data, bound):
    position = 1 if data is None else data.draw(st.integers(1, h))
    records = rule_trace(seed, targets, rule, position)
    got, want = fit_both(records, h, epochs, bound)
    assert got == want


def test_perceptron_saturation_matches_oracle():
    # the target is always taken after a not-taken noise branch: the bias and
    # position 1 would grow without end, so both sit at the bound for most steps
    records = conds([(A_IP, False), (T_IP, True)] * 300)
    got, want = fit_both(records, 2, 20, 5)
    assert got == want
    assert got[0] == 5 and got[1] == -5


class TestHelperModelPredict:
    def test_pattern_table_majority_and_confidence(self):
        model = HelperModel(T_IP, PATTERN_TABLE, 2, 0.5, {0b10: (3, 1), 0b01: (2, 2)})
        assert model.predict(0b10) == (True, 0.5)
        assert model.predict(0b01) == (True, 0.0)   # tie -> taken, no confidence
        assert model.predict(0b11) == (True, 0.0)   # unseen pattern
        # only h low bits participate
        assert model.predict(0b110) == (True, 0.5)

    def test_perceptron_sum_and_confidence(self):
        model = HelperModel(
            T_IP, PERCEPTRON, 2, 0.5, {"theta": 10, "weights": (1, 4, -2)}
        )
        # history 0b01: y = 1 + 4 - (-2)... bit0 set adds w1, bit1 clear subtracts w2
        assert model.predict(0b01) == (True, min(1.0, 7 / 20))
        assert model.predict(0b10) == (False, min(1.0, 5 / 20))

    def test_validation(self):
        with pytest.raises(ArgumentError):
            HelperModel(T_IP, "other", 4, 0.5, {})
        with pytest.raises(ArgumentError):
            HelperModel(T_IP, PATTERN_TABLE, 0, 0.5, {})
        with pytest.raises(ArgumentError):
            HelperModel(T_IP, PATTERN_TABLE, 4, 1.5, {})


# --- HM1 serialization ------------------------------------------------------

short_text = st.text(
    alphabet=st.characters(max_codepoint=0x2FFF, exclude_categories=("Cs",)),
    max_size=8,
)


@st.composite
def helper_models(draw, ip=None):
    if ip is None:
        ip = draw(st.integers(0, 2**64 - 1))
    h = draw(st.integers(1, 16))
    tau = draw(st.integers(0, 64)) / 64   # exactly representable as f32
    prov = tuple(draw(st.lists(st.tuples(short_text, short_text), max_size=2)))
    if draw(st.booleans()):
        keys = draw(st.lists(st.integers(0, (1 << h) - 1), max_size=6, unique=True))
        params = {
            k: (draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1)))
            for k in keys
        }
        return HelperModel(ip, PATTERN_TABLE, h, tau, params, prov)
    weights = tuple(draw(st.integers(-32768, 32767)) for _ in range(h + 1))
    params = {"theta": draw(st.integers(0, 2**32 - 1)), "weights": weights}
    return HelperModel(ip, PERCEPTRON, h, tau, params, prov)


@st.composite
def model_lists(draw):
    ips = draw(st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=4, unique=True))
    return [draw(helper_models(ip=ip)) for ip in ips]


class TestHM1:
    @given(model_lists())
    def test_roundtrip_and_canonical_bytes(self, models):
        data = serialize_models(models)
        assert data[:4] == HM1_MAGIC
        back = deserialize_models(data)
        assert back == models
        assert serialize_models(back) == data

    @given(model_lists(), st.data())
    def test_any_corrupted_byte_rejected(self, models, data):
        blob = bytearray(serialize_models(models))
        idx = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        blob[idx] ^= flip
        with pytest.raises((CorruptModel, FormatError)):
            deserialize_models(bytes(blob))

    @given(model_lists())
    def test_checksum_byte_flip_is_corrupt_model(self, models):
        blob = bytearray(serialize_models(models))
        blob[-1] ^= 0xFF
        with pytest.raises(CorruptModel):
            deserialize_models(bytes(blob))

    def model(self, **kw):
        args = dict(ip=T_IP, kind=PATTERN_TABLE, h=2, tau=0.5, params={1: (2, 3)})
        args.update(kw)
        return HelperModel(**args)

    def test_truncation_rejected(self):
        data = serialize_models([self.model()])
        for cut in (3, 8, len(data) - 1):
            with pytest.raises((CorruptModel, FormatError)):
                deserialize_models(data[:cut])

    def test_bad_magic(self):
        data = serialize_models([])
        with pytest.raises(FormatError):
            deserialize_models(b"XX" + data[2:])

    def test_unsupported_version(self):
        blob = struct.pack("<II", 9, 0)
        data = HM1_MAGIC + blob + struct.pack("<I", zlib.crc32(blob))
        with pytest.raises(FormatError):
            deserialize_models(data)

    def test_trailing_bytes_inside_checksummed_blob(self):
        good = serialize_models([])
        blob = good[4:-4] + b"\x00"
        with pytest.raises(FormatError):
            deserialize_models(HM1_MAGIC + blob + struct.pack("<I", zlib.crc32(blob)))

    def test_unknown_kind_code(self):
        blob = bytearray(serialize_models([self.model()])[4:-4])
        blob[8 + 8] = 7   # kind byte of the first model record
        with pytest.raises(FormatError):
            deserialize_models(HM1_MAGIC + bytes(blob) + struct.pack("<I", zlib.crc32(bytes(blob))))

    def test_duplicate_ips_rejected(self):
        with pytest.raises(ConfigError):
            serialize_models([self.model(), self.model(kind=PERCEPTRON,
                                                       params={"theta": 4, "weights": (0, 1, 2)})])

    def test_single_model_file_helpers(self):
        m = self.model()
        assert load_model(save_model(m)) == m
        two = serialize_models([m, self.model(ip=T_IP + 8)])
        with pytest.raises(FormatError):
            load_model(two)

    def test_file_roundtrip_is_atomic(self, tmp_path):
        path = tmp_path / "helpers.hm1"
        models = [self.model()]
        save_models_file(path, models)
        assert load_models_file(path) == models
        assert list(tmp_path.iterdir()) == [path]


# --- helpers over a baseline's stream ------------------------------------------

def overlay(records, baseline, models, tau=None):
    return apply_helpers(simulate(records, make_predictor(baseline)), models, tau)


class TestApplyHelpers:
    def test_zero_helpers_stream_is_byte_identical(self):
        records = position_one_trace(seed=7, n=800)
        bare = simulate(records, make_predictor("gshare:16k"))
        wrapped, telemetry = apply_helpers(bare, [])
        assert wrapped.to_csv() == bare.to_csv()
        assert telemetry == {}

    def test_online_history_matches_corpus_convention(self):
        # train on one input, evaluate on another; the position-1 rule is
        # exact, so a pattern-table helper must be perfect on the target
        corpus = TrainingCorpus()
        corpus.add("t0", "in-a", position_one_trace(seed=1, n=1200))
        model = train_helper(corpus, T_IP, kind=PATTERN_TABLE, h=1)
        held_out = position_one_trace(seed=2, n=600)
        stream, telemetry = overlay(held_out, "bimodal:4k", [model])
        wrong = [r for r in stream.records if r.ip == T_IP and r.predicted != r.actual]
        assert wrong == []
        t = telemetry[T_IP]
        assert t.queries == 600
        assert t.overrides == 600
        assert t.override_correct == 600

    def test_low_confidence_helper_defers_to_baseline(self):
        # tie counts give confidence 0, below any positive tau
        model = HelperModel(T_IP, PATTERN_TABLE, 1, 0.5, {0: (5, 5), 1: (5, 5)})
        records = conds([(T_IP, True)] * 50)
        stream, telemetry = overlay(records, "bimodal:4k", [model])
        assert all(r.provider != "helper" for r in stream.records)
        t = telemetry[T_IP]
        assert t.queries == 50 and t.overrides == 0

    def test_tau_override_forces_or_suppresses(self):
        model = HelperModel(T_IP, PATTERN_TABLE, 1, 0.9, {0: (6, 4), 1: (6, 4)})
        records = conds([(T_IP, True)] * 20)
        stream, _ = overlay(records, "bimodal:4k", [model], tau=0.1)
        assert all(r.provider == "helper" for r in stream.records)
        stream, _ = overlay(records, "bimodal:4k", [model])  # model tau 0.9
        assert all(r.provider != "helper" for r in stream.records)

    def test_duplicate_helper_ips_rejected(self):
        model = HelperModel(T_IP, PATTERN_TABLE, 1, 0.5, {0: (1, 0)})
        with pytest.raises(ConfigError):
            overlay(conds([(T_IP, True)]), "bimodal:4k", [model, model])


OVERLAY_IPS = (A_IP, T_IP, 0x3000)
_NON_COND = (BranchKind.UNCOND, BranchKind.CALL, BranchKind.RET, BranchKind.INDIRECT)


@st.composite
def overlay_traces(draw):
    row = st.tuples(st.sampled_from(OVERLAY_IPS + (0x4000,)),
                    st.sampled_from((BranchKind.COND,) * 4 + _NON_COND),
                    st.booleans())
    # long traces carry more than 64 outcomes of history
    rows = draw(st.one_of(st.lists(row, max_size=300), st.lists(row, min_size=100, max_size=300)))
    return [
        BranchRecord(seq, ip, kind, ip + 64, taken or kind is not BranchKind.COND)
        for seq, (ip, kind, taken) in enumerate(rows)
    ]


@st.composite
def overlay_models(draw):
    ips = draw(st.lists(st.sampled_from(OVERLAY_IPS), max_size=3, unique=True))
    models = []
    for ip in ips:
        # short histories match pattern keys; long ones reach past 32 bits
        h = draw(st.one_of(st.integers(1, 4), st.integers(33, 64), st.integers(1, 64)))
        tau = draw(st.integers(0, 8)) / 8
        if draw(st.booleans()):
            keys = draw(st.lists(st.integers(0, min(1 << h, 16) - 1), max_size=16, unique=True))
            params = {k: (draw(st.integers(0, 9)), draw(st.integers(0, 9))) for k in keys}
            models.append(HelperModel(ip, PATTERN_TABLE, h, tau, params))
        else:
            weights = tuple(draw(st.integers(-40, 40)) for _ in range(h + 1))
            params = {"theta": draw(st.integers(1, 60)), "weights": weights}
            models.append(HelperModel(ip, PERCEPTRON, h, tau, params))
    return models


def overlay_oracle(records, base, models, tau):
    """Brute force: before each COND, rebuild the history integer from the
    list of every earlier actual COND outcome (bit 0 the newest)."""
    by_ip = {m.ip: m for m in models}
    telemetry = {m.ip: [0, 0, 0] for m in models}
    cond_records = [r for r in records if r.kind is BranchKind.COND]
    assert [(r.seq, r.ip, r.taken) for r in cond_records] == [
        (r.seq, r.ip, r.actual) for r in base
    ]
    outcomes = []
    want = []
    for rec, b in zip(cond_records, base):
        history = sum(1 << i for i, taken in enumerate(reversed(outcomes)) if taken)
        model = by_ip.get(rec.ip)
        if model is None:
            want.append(b)
        else:
            telemetry[rec.ip][0] += 1
            taken, conf = model.predict(history)
            if conf >= (model.tau if tau is None else tau):
                telemetry[rec.ip][1] += 1
                telemetry[rec.ip][2] += taken == rec.taken
                want.append(SimRecord(rec.seq, rec.ip, taken, rec.taken, "helper"))
            else:
                want.append(b)
        outcomes.append(rec.taken)
    return want, {ip: tuple(t) for ip, t in telemetry.items()}


@settings(max_examples=150, deadline=None)
@given(overlay_traces(), overlay_models(),
       st.one_of(st.none(), st.integers(0, 8).map(lambda k: k / 8)),
       st.sampled_from(("bimodal:4k", "gshare:16k")))
def test_apply_helpers_matches_brute_force_history(records, models, tau, baseline):
    base = simulate(records, make_predictor(baseline))
    stream, telemetry = apply_helpers(base, models, tau)
    want, want_telemetry = overlay_oracle(records, base, models, tau)
    assert stream.records == want
    assert {
        ip: (t.queries, t.overrides, t.override_correct) for ip, t in telemetry.items()
    } == want_telemetry


@settings(max_examples=60, deadline=None)
@given(overlay_traces(), overlay_models(),
       st.one_of(st.none(), st.integers(0, 8).map(lambda k: k / 8)),
       st.sampled_from(("bimodal:4k", "gshare:16k")))
def test_generalization_telemetry_matches_brute_force(records, models, tau, baseline):
    assume(any(r.kind is BranchKind.COND for r in records))
    base = simulate(records, make_predictor(baseline))
    report = evaluate_generalization(models, base, tau=tau)
    _, want = overlay_oracle(records, base, models, tau)
    assert {
        row.ip: (row.queries, row.overrides, row.override_correct) for row in report.rows
    } == want


class TestGeneralization:
    def test_rows_and_overall(self):
        records = position_one_trace(seed=3, n=1500)
        corpus = TrainingCorpus()
        corpus.add("t0", "in-a", records)
        model = train_helper(corpus, T_IP, kind=PATTERN_TABLE, h=1)
        ghost = HelperModel(0x9999, PATTERN_TABLE, 1, 0.5, {0: (1, 0)})
        held = position_one_trace(seed=4, n=700)
        report = evaluate_generalization(
            [model, ghost], simulate(held, make_predictor("bimodal:4k"))
        )
        row = report.row_for(T_IP)
        assert row.executions == 700
        assert row.composite_accuracy == 1.0
        assert row.delta == pytest.approx(row.composite_accuracy - row.baseline_accuracy)
        ghost_row = report.row_for(0x9999)
        assert ghost_row.executions == 0
        assert ghost_row.baseline_accuracy is None and ghost_row.delta is None
        assert 0.0 <= report.overall_baseline <= 1.0
        assert report.overall_composite >= report.overall_baseline
        with pytest.raises(KeyError):
            report.row_for(0x1234)

    def test_no_models_change_nothing(self):
        base = simulate(position_one_trace(seed=5, n=400), make_predictor("bimodal:4k"))
        report = evaluate_generalization([], base)
        assert report.rows == ()
        assert report.overall_baseline == report.overall_composite == base.accuracy()

    def test_empty_stream_is_empty_target(self):
        with pytest.raises(EmptyTargetError):
            evaluate_generalization([], MispredictionStream([]))


@pytest.mark.parametrize("tau", [-3, -0.25, 1.5, float("nan")])
def test_one_threshold_rule(tau):
    message = f"confidence threshold must lie in [0, 1], got {tau}"
    with pytest.raises(ArgumentError) as info:
        helper.require_tau(tau)
    assert str(info.value) == message
    with pytest.raises(ArgumentError) as info:
        HelperModel(A_IP, PATTERN_TABLE, 1, tau, {})
    assert str(info.value) == message
    base = MispredictionStream([SimRecord(0, A_IP, True, True, "base")])
    with pytest.raises(ArgumentError) as info:
        apply_helpers(base, [], tau)
    assert str(info.value) == message
    for ok in (0, 0.5, 1):
        helper.require_tau(ok)
