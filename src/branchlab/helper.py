"""Offline-trained per-branch helper predictors.

A helper is a small model specialized to one static branch, trained
offline from traces of the same program over several inputs, serialized
to a sidecar file, and applied to a baseline predictor's simulated
misprediction stream. A helper overrides the baseline's prediction only
at its own ip and only when its confidence clears the model's threshold;
its parameters never change online, and it never changes the baseline.

Two kinds:
  pattern-table  exact h-bit global-history pattern -> direction counts
  perceptron     integer weights over h history positions plus bias

Perceptron training is the deterministic online rule: the samples in
corpus order, up to ``epochs`` passes, a +-1 step of every weight whenever
the prediction is wrong or |y| <= theta, each weight saturating at the i16
bound, and a stop after the first pass without a step. A fixed corpus gives
the same weights, and so the same HM1 bytes, in every version.

History convention matches the online predictors: bit 0 of the history
integer is the most recent COND outcome.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ArgumentError,
    ConfigError,
    CorruptModel,
    EmptyTargetError,
    FormatError,
    TrainingError,
)
from .predictors.simulate import MispredictionStream, SimRecord
from .records import BranchKind, BranchRecord

HM1_MAGIC = b"HM01"
HM1_VERSION = 1

PATTERN_TABLE = "pattern-table"
PERCEPTRON = "perceptron"
_KIND_CODES = {PATTERN_TABLE: 0, PERCEPTRON: 1}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}

MAX_HISTORY = 64
MIN_TRAINING_SAMPLES = 1000
DEFAULT_TAU = 0.7
DEFAULT_EPOCHS = 20
_WEIGHT_MIN, _WEIGHT_MAX = -32768, 32767   # i16 storage bound


@dataclass(frozen=True)
class HelperModel:
    """Frozen per-branch model. params:
    pattern-table -> {pattern int: (taken count, not-taken count)}
    perceptron    -> {"theta": int, "weights": (bias, w1..wh)}"""

    ip: int
    kind: str
    h: int
    tau: float
    params: dict
    provenance: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ArgumentError(f"unknown helper kind {self.kind!r}")
        if not 1 <= self.h <= MAX_HISTORY:
            raise ArgumentError(f"history length must be in [1, {MAX_HISTORY}]")
        if not 0.0 <= self.tau <= 1.0:
            raise ArgumentError("confidence threshold must lie in [0, 1]")

    def predict(self, history: int) -> tuple[bool, float]:
        """(direction, confidence in [0, 1]) for an h-bit history."""
        key = history & ((1 << self.h) - 1)
        if self.kind == PATTERN_TABLE:
            entry = self.params.get(key)
            if entry is None:
                return True, 0.0
            t, n = entry
            total = t + n
            return t >= n, abs(t - n) / total if total else 0.0
        theta = self.params["theta"]
        weights = self.params["weights"]
        y = weights[0]
        for i in range(1, self.h + 1):
            if (key >> (i - 1)) & 1:
                y += weights[i]
            else:
                y -= weights[i]
        return y >= 0, min(1.0, abs(y) / (2 * theta))


@dataclass(frozen=True)
class CorpusTrace:
    trace_id: str
    input_id: str
    records: tuple[BranchRecord, ...]


class TrainingCorpus:
    """Labeled traces plus (history, outcome) sample extraction."""

    def __init__(self, traces: Iterable[CorpusTrace] = ()):
        self.traces: list[CorpusTrace] = list(traces)

    def add(self, trace_id: str, input_id: str, records: Sequence[BranchRecord]) -> None:
        self.traces.append(CorpusTrace(trace_id, input_id, tuple(records)))

    def provenance(self) -> tuple[tuple[str, str], ...]:
        return tuple((t.trace_id, t.input_id) for t in self.traces)

    def input_ids(self) -> set[str]:
        return {t.input_id for t in self.traces}

    def samples(self, target_ip: int, h: int) -> list[tuple[int, bool]]:
        """All (h-bit global history, outcome) pairs at the target ip's COND
        executions, in trace order. History resets between traces."""
        mask = (1 << h) - 1
        out: list[tuple[int, bool]] = []
        for trace in self.traces:
            hist = 0
            for rec in trace.records:
                if rec.kind is not BranchKind.COND:
                    continue
                if rec.ip == target_ip:
                    out.append((hist & mask, rec.taken))
                hist = ((hist << 1) | int(rec.taken)) & mask
        return out


def train_helper(
    corpus: TrainingCorpus,
    target_ip: int,
    kind: str = PATTERN_TABLE,
    h: int = 16,
    tau: float = DEFAULT_TAU,
    epochs: int = DEFAULT_EPOCHS,
) -> HelperModel:
    """Fit one helper from the corpus. Deterministic for a fixed corpus
    order; requires at least MIN_TRAINING_SAMPLES target executions."""
    if kind not in _KIND_CODES:
        raise ArgumentError(f"unknown helper kind {kind!r}")
    if not 1 <= h <= MAX_HISTORY:
        raise ArgumentError(f"history length must be in [1, {MAX_HISTORY}]")
    if epochs < 1:
        raise ArgumentError(f"epochs must be at least 1, got {epochs}")
    samples = corpus.samples(target_ip, h)
    if len(samples) < MIN_TRAINING_SAMPLES:
        raise TrainingError(
            f"{len(samples)} samples of {target_ip:#x}, need {MIN_TRAINING_SAMPLES}"
        )
    if kind == PATTERN_TABLE:
        table: dict[int, tuple[int, int]] = {}
        for hist, taken in samples:
            t, n = table.get(hist, (0, 0))
            table[hist] = (t + 1, n) if taken else (t, n + 1)
        params: dict = table
    else:
        theta = int(1.93 * h + 14)
        weights = _fit_perceptron(samples, h, theta, epochs)
        params = {"theta": theta, "weights": weights}
    return HelperModel(target_ip, kind, h, tau, params, corpus.provenance())


# Packed perceptron weights: weight i (the bias is weight 0) lives in bits
# [24 i, 24 i + 24) of one int, stored plus _FIELD_BIAS so that every field
# of an i16 weight is non-negative, and a sum of MAX_HISTORY + 1 fields
# (each below 2**17) still fits in one field.
_FIELD_BITS = 24
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_FIELD_BIAS = 1 << 16


def _fit_perceptron(
    samples: Sequence[tuple[int, bool]], h: int, theta: int, epochs: int
) -> tuple[int, ...]:
    """Weights (bias, w1..wh) of the online perceptron rule in the module
    docstring, equal to those of a loop that updates and clamps one weight
    at a time.

    With ``mask`` the fields of the bias and of the set history bits, one
    multiply by ``ones`` sums those fields into field h, and y = 2 * (that
    sum, biases removed) - (sum of all weights). A step adds one packed +-1
    delta and changes the running sum. ``room`` counts the steps that cannot
    reach a bound; when it runs out it is recomputed from the unpacked
    weights, and only a weight at a bound makes a step take the per-weight
    clamped path."""
    lo, hi = _WEIGHT_MIN, _WEIGHT_MAX
    top = _FIELD_BITS * h
    field = _FIELD_MASK
    shifts = [_FIELD_BITS * i for i in range(h + 1)]
    ones = sum(1 << s for s in shifts)

    # per (history, outcome): mask, signed delta, change of the weight sum,
    # sign of the outcome, and the bound on sign * (2 * masked sum - weight
    # sum) under which the sample steps
    prepared: dict[tuple[int, bool], tuple] = {}
    order = []
    for hist, taken in samples:
        entry = prepared.get((hist, taken))
        if entry is None:
            set_ones = 1 | sum(1 << shifts[i] for i in range(1, h + 1) if hist >> (i - 1) & 1)
            fields = hist.bit_count() + 1
            sign = 1 if taken else -1
            entry = prepared[hist, taken] = (
                set_ones * field,
                sign * (2 * set_ones - ones),
                sign * (2 * fields - h - 1),
                sign,
                theta + sign * 2 * fields * _FIELD_BIAS,
                hist,
            )
        order.append(entry)

    def unpack(packed: int) -> list[int]:
        return [(packed >> s & field) - _FIELD_BIAS for s in shifts]

    def headroom(weights: list[int]) -> int:
        return min(min(weights) - lo, hi - max(weights))

    packed = _FIELD_BIAS * ones
    total = 0
    room = headroom([0] * (h + 1))
    for _ in range(epochs):
        changed = False
        for mask, delta, dsum, sign, bound, hist in order:
            if sign * (2 * ((packed & mask) * ones >> top & field) - total) > bound:
                continue
            changed = True
            if not room:
                weights = unpack(packed)
                room = headroom(weights)
            if room:
                packed += delta
                total += dsum
                room -= 1
                continue
            weights = [min(hi, max(lo, weights[0] + sign))] + [
                min(hi, max(lo, w + (sign if hist >> (i - 1) & 1 else -sign)))
                for i, w in enumerate(weights[1:], 1)
            ]
            packed = sum((w + _FIELD_BIAS) << s for s, w in zip(shifts, weights))
            total = sum(weights)
        if not changed:
            break
    return tuple(unpack(packed))


# --- HM1 serialization ------------------------------------------------

def _encode_params(model: HelperModel) -> bytes:
    if model.kind == PATTERN_TABLE:
        parts = [struct.pack("<I", len(model.params))]
        for pattern in sorted(model.params):
            t, n = model.params[pattern]
            parts.append(struct.pack("<QII", pattern, t, n))
        return b"".join(parts)
    theta = model.params["theta"]
    weights = model.params["weights"]
    return struct.pack("<IH", theta, len(weights)) + struct.pack(
        f"<{len(weights)}h", *weights
    )


def _decode_params(kind: str, h: int, payload: bytes) -> dict:
    try:
        if kind == PATTERN_TABLE:
            (count,) = struct.unpack_from("<I", payload, 0)
            table = {}
            off = 4
            for _ in range(count):
                pattern, t, n = struct.unpack_from("<QII", payload, off)
                off += 16
                table[pattern] = (t, n)
            if off != len(payload):
                raise FormatError("pattern-table payload has trailing bytes")
            return table
        theta, n_weights = struct.unpack_from("<IH", payload, 0)
        if n_weights != h + 1:
            raise FormatError(f"perceptron payload expects {h + 1} weights, has {n_weights}")
        weights = struct.unpack_from(f"<{n_weights}h", payload, 6)
        if 6 + 2 * n_weights != len(payload):
            raise FormatError("perceptron payload has trailing bytes")
        return {"theta": theta, "weights": tuple(weights)}
    except struct.error as exc:
        raise FormatError(f"truncated helper parameter payload: {exc}") from exc


def _encode_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ArgumentError("provenance string too long")
    return struct.pack("<H", len(raw)) + raw


def serialize_models(models: Sequence[HelperModel]) -> bytes:
    """HM1 byte stream: magic, version, count, per-model body, CRC-32 of
    everything after the magic."""
    ips = [m.ip for m in models]
    if len(set(ips)) != len(ips):
        raise ConfigError("duplicate target ips in model list")
    body = [struct.pack("<II", HM1_VERSION, len(models))]
    for m in models:
        payload = _encode_params(m)
        body.append(struct.pack("<QBH", m.ip, _KIND_CODES[m.kind], m.h))
        body.append(struct.pack("<I", len(payload)))
        body.append(payload)
        body.append(struct.pack("<f", m.tau))
        body.append(struct.pack("<H", len(m.provenance)))
        for trace_id, input_id in m.provenance:
            body.append(_encode_str(trace_id))
            body.append(_encode_str(input_id))
    blob = b"".join(body)
    return HM1_MAGIC + blob + struct.pack("<I", zlib.crc32(blob))


def deserialize_models(data: bytes) -> list[HelperModel]:
    if len(data) < 4 or data[:4] != HM1_MAGIC:
        raise FormatError("not an HM1 model file (bad magic)")
    if len(data) < 12:
        raise CorruptModel("HM1 file truncated")
    blob, (crc,) = data[4:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(blob) != crc:
        raise CorruptModel("HM1 checksum mismatch")
    try:
        version, count = struct.unpack_from("<II", blob, 0)
    except struct.error as exc:
        raise CorruptModel(f"HM1 header truncated: {exc}") from exc
    if version != HM1_VERSION:
        raise FormatError(f"unsupported HM1 version {version}")
    models = []
    off = 8
    try:
        for _ in range(count):
            ip, kind_code, h = struct.unpack_from("<QBH", blob, off)
            off += 11
            if kind_code not in _CODE_KINDS:
                raise FormatError(f"unknown helper kind code {kind_code}")
            (plen,) = struct.unpack_from("<I", blob, off)
            off += 4
            payload = blob[off : off + plen]
            if len(payload) != plen:
                raise CorruptModel("HM1 parameter payload truncated")
            off += plen
            (tau,) = struct.unpack_from("<f", blob, off)
            off += 4
            (n_prov,) = struct.unpack_from("<H", blob, off)
            off += 2
            prov = []
            for _ in range(n_prov):
                pair = []
                for _ in range(2):
                    (slen,) = struct.unpack_from("<H", blob, off)
                    off += 2
                    pair.append(blob[off : off + slen].decode("utf-8"))
                    off += slen
                prov.append((pair[0], pair[1]))
            kind = _CODE_KINDS[kind_code]
            models.append(
                HelperModel(ip, kind, h, tau, _decode_params(kind, h, payload), tuple(prov))
            )
    except struct.error as exc:
        raise CorruptModel(f"HM1 model body truncated: {exc}") from exc
    if off != len(blob):
        raise FormatError("HM1 file has trailing bytes")
    return models


def save_model(model: HelperModel) -> bytes:
    return serialize_models([model])


def load_model(data: bytes) -> HelperModel:
    models = deserialize_models(data)
    if len(models) != 1:
        raise FormatError(f"expected exactly one model, file holds {len(models)}")
    return models[0]


def save_models_file(path, models: Sequence[HelperModel]) -> None:
    import os

    data = serialize_models(models)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def load_models_file(path) -> list[HelperModel]:
    with open(path, "rb") as fh:
        return deserialize_models(fh.read())


# --- helpers over a baseline's stream ---------------------------------

@dataclass
class HelperTelemetry:
    queries: int = 0
    overrides: int = 0
    override_correct: int = 0


def apply_helpers(
    stream: MispredictionStream, models: Sequence[HelperModel], tau: float | None = None
) -> tuple[MispredictionStream, dict[int, HelperTelemetry]]:
    """The baseline's stream with frozen per-ip helpers applied, and each
    helper's telemetry.

    At a helper's ip the prediction becomes the helper's when its
    confidence is >= tau (the model's own unless ``tau`` overrides it). A
    frozen helper never changes the baseline, which trains on every
    branch, and its history is the actual outcomes of the earlier COND
    branches, so both follow from the baseline's stream alone; with zero
    helpers the stream comes back unchanged."""
    helpers = {m.ip: m for m in models}
    if len(helpers) != len(models):
        raise ConfigError("duplicate helper ips")
    telemetry = {ip: HelperTelemetry() for ip in helpers}
    out: list[SimRecord] = []
    history = 0
    mask = (1 << MAX_HISTORY) - 1
    for rec in stream:
        model = helpers.get(rec.ip)
        if model is not None:
            t = telemetry[rec.ip]
            t.queries += 1
            taken, conf = model.predict(history)
            if conf >= (model.tau if tau is None else tau):
                t.overrides += 1
                t.override_correct += taken == rec.actual
                rec = SimRecord(rec.seq, rec.ip, taken, rec.actual, "helper")
        out.append(rec)
        history = ((history << 1) | rec.actual) & mask
    return MispredictionStream(out), telemetry


# --- generalization evaluation ----------------------------------------

@dataclass(frozen=True)
class GeneralizationRow:
    ip: int
    executions: int
    baseline_accuracy: float | None
    composite_accuracy: float | None
    delta: float | None
    queries: int
    overrides: int
    override_correct: int


@dataclass(frozen=True)
class GeneralizationReport:
    rows: tuple[GeneralizationRow, ...]
    overall_baseline: float
    overall_composite: float

    def row_for(self, ip: int) -> GeneralizationRow:
        for row in self.rows:
            if row.ip == ip:
                return row
        raise KeyError(ip)


def evaluate_generalization(
    models: Sequence[HelperModel],
    records: Sequence[BranchRecord],
    baseline="tage-sc-l:8kb",
    seed: int = 0,
    tau: float | None = None,
) -> GeneralizationReport:
    """Simulate the baseline once on a held-out trace, apply the helpers to
    its stream, and report per-target and overall accuracy deltas with each
    helper's telemetry. A model ip that never executes is reported with zero
    executions, not an error."""
    from .charax import per_ip_totals
    from .predictors import make_predictor, simulate

    if isinstance(baseline, (str, dict)):
        predictor = make_predictor(baseline, seed=seed)
    else:
        predictor = baseline()   # factory for pre-built configs
    base_stream = simulate(records, predictor)
    if not base_stream:
        raise EmptyTargetError("trace holds no COND branches")
    comp_stream, telemetry = apply_helpers(base_stream, models, tau)
    base_stats = per_ip_totals(base_stream)
    comp_stats = per_ip_totals(comp_stream)
    rows = []
    for model in models:
        b = base_stats.get(model.ip)
        c = comp_stats.get(model.ip)
        t = telemetry[model.ip]
        counts = (t.queries, t.overrides, t.override_correct)
        if b is None or b.executions == 0:
            rows.append(GeneralizationRow(model.ip, 0, None, None, None, *counts))
            continue
        acc_b = b.accuracy
        acc_c = c.accuracy
        rows.append(
            GeneralizationRow(model.ip, b.executions, acc_b, acc_c, acc_c - acc_b, *counts)
        )
    return GeneralizationReport(tuple(rows), base_stream.accuracy(), comp_stream.accuracy())
