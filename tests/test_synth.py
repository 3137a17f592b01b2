"""Generator ground truth: planted behaviors must be recoverable from the
emitted record stream itself, independent of any predictor."""

import pytest
from hypothesis import given, settings, strategies as st

from branchlab.errors import ArgumentError
from branchlab.records import BranchKind
from branchlab.synth import (
    EASY,
    H2P,
    RARE,
    Biased,
    DataDependent,
    HistoryCorrelated,
    LoopExit,
    Periodic,
    RarePool,
    SyntheticProgramSpec,
    behavior_from_json,
    generate_trace,
    program_spec_from_json,
    program_spec_to_json,
)

BASE_SPEC = SyntheticProgramSpec(
    behaviors=(
        Periodic(0x400100, "TTNT"),
        Biased(0x400200, 0.97),
        HistoryCorrelated(0x400300, (1, 3)),
        DataDependent(0x400400, gate_ip=0x400500),
        LoopExit(0x400600, 5),
        RarePool(count=40, exponent=1.2),
    ),
)


def directions_of(records, ip):
    return [r.taken for r in records if r.ip == ip and r.is_branch]


class TestGeneratorContract:
    def test_deterministic_for_fixed_seed(self):
        a, ma = generate_trace(BASE_SPEC, seed=11, length=8000)
        b, mb = generate_trace(BASE_SPEC, seed=11, length=8000)
        assert a == b
        assert ma == mb

    def test_seed_changes_stream(self):
        a, _ = generate_trace(BASE_SPEC, seed=1, length=8000)
        b, _ = generate_trace(BASE_SPEC, seed=2, length=8000)
        assert a != b

    def test_exact_length_and_meta_counts(self):
        records, manifest = generate_trace(BASE_SPEC, seed=3, length=5000)
        assert len(records) == 5000
        assert manifest.meta.instructions == 5000
        conds = sum(1 for r in records if r.is_branch and r.kind is BranchKind.COND)
        assert manifest.meta.cond_branches == conds
        assert manifest.meta.seed == 3

    def test_all_records_valid_and_ordered(self):
        records, _ = generate_trace(BASE_SPEC, seed=4, length=6000)
        for i, r in enumerate(records):
            assert r.seq == i
            r.validate()

    def test_every_planted_ip_executes(self):
        records, manifest = generate_trace(BASE_SPEC, seed=5, length=2000)
        seen = {r.ip for r in records if r.is_branch}
        for ip in manifest.planted:
            assert ip in seen

    def test_too_short_length_rejected(self):
        with pytest.raises(ArgumentError):
            generate_trace(BASE_SPEC, seed=0, length=10)

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=15)
    def test_any_seed_accepted(self, seed):
        records, _ = generate_trace(
            SyntheticProgramSpec(behaviors=(Biased(0x10, 0.5),)), seed=seed, length=60
        )
        assert len(records) == 60


@pytest.fixture(scope="module")
def trace():
    return generate_trace(BASE_SPEC, seed=9, length=20000)


class TestPlantedSemantics:
    def test_periodic_follows_pattern(self, trace):
        records, _ = trace
        got = directions_of(records, 0x400100)
        pattern = [c == "T" for c in "TTNT"]
        assert got == [pattern[i % 4] for i in range(len(got))]

    def test_biased_rate_near_p(self, trace):
        records, _ = trace
        got = directions_of(records, 0x400200)
        assert len(got) > 100
        rate = sum(got) / len(got)
        assert 0.90 <= rate <= 1.0

    def test_history_correlated_is_xor_of_prior_conds(self, trace):
        records, _ = trace
        cond_dirs = []  # most recent first
        for r in records:
            if r.is_branch and r.kind is BranchKind.COND:
                if r.ip == 0x400300:
                    expect = False
                    for p in (1, 3):
                        if p - 1 < len(cond_dirs):
                            expect ^= cond_dirs[p - 1]
                    assert r.taken == expect
                cond_dirs.insert(0, r.taken)

    def test_loop_exit_cycles(self, trace):
        records, _ = trace
        got = directions_of(records, 0x400600)
        for i, taken in enumerate(got):
            assert taken == (i % 5 != 4)

    def test_data_dependent_direction_determined_by_register_value(self, trace):
        records, _ = trace
        last_r0 = None
        for r in records:
            for reg, val in r.regs_written:
                if reg == 0:
                    last_r0 = val
                    assert 128 - 16 <= val <= 128 + 16
            if r.is_branch and r.ip in (0x400400, 0x400500):
                assert last_r0 is not None
                assert r.taken == (last_r0 >= 128)
                assert 0 in r.regs_read

    def test_rare_pool_ips_inside_declared_range(self, trace):
        records, manifest = trace
        pool = manifest.pools[0]
        planted = set(manifest.planted)
        for r in records:
            if r.is_branch and r.kind is BranchKind.COND and r.ip not in planted:
                assert r.ip in pool

    def test_rare_pool_is_head_heavy(self, trace):
        records, manifest = trace
        pool = manifest.pools[0]
        counts = {}
        for r in records:
            if r.is_branch and r.ip in pool:
                counts[r.ip] = counts.get(r.ip, 0) + 1
        head = counts.get(pool.base_ip + pool.stride, 0)
        tail = counts.get(pool.base_ip + pool.count * pool.stride - pool.stride, 0)
        assert len(counts) > 10
        assert head > tail

    def test_every_cond_reads_an_operand(self, trace):
        records, _ = trace
        for r in records:
            if r.is_branch and r.kind is BranchKind.COND:
                assert r.regs_read or r.mem_read


class TestManifest:
    def test_difficulty_classes(self):
        _, manifest = generate_trace(BASE_SPEC, seed=2, length=4000)
        assert manifest.expected_class(0x400100) == EASY
        assert manifest.expected_class(0x400200) == H2P      # 0.97 is not near-certain
        assert manifest.expected_class(0x400300) == EASY     # positions reach 3
        assert manifest.expected_class(0x400400) == H2P
        assert manifest.expected_class(0x400500) == H2P      # the gate
        assert manifest.expected_class(0x400600) == EASY
        assert manifest.expected_class(0x5000000 + 16) == RARE
        assert manifest.expected_class(0x999999) is None

    def test_gate_has_gate_role(self):
        _, manifest = generate_trace(BASE_SPEC, seed=2, length=4000)
        assert manifest.planted[0x400500].role == "gate"
        assert 0x400500 not in manifest.ips_of_class(H2P)
        assert 0x400500 in manifest.ips_of_class(H2P, role="gate")

    def test_distant_history_positions_are_h2p(self):
        assert HistoryCorrelated(0x10, (2, 11)).klass() == H2P

    def test_json_dict_is_jsonable(self):
        import json

        _, manifest = generate_trace(BASE_SPEC, seed=2, length=4000)
        doc = manifest.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["planted"]["0x400400"]["class"] == H2P


class TestSpecValidation:
    def test_duplicate_ip_rejected(self):
        spec = SyntheticProgramSpec(behaviors=(Biased(0x10, 0.5), Periodic(0x10, "T")))
        with pytest.raises(ArgumentError):
            spec.validate()

    def test_planted_ip_inside_pool_rejected(self):
        spec = SyntheticProgramSpec(
            behaviors=(Biased(0x5000000 + 32, 0.5), RarePool(count=10, exponent=1.0))
        )
        with pytest.raises(ArgumentError):
            spec.validate()

    def test_weight_count_must_match(self):
        spec = SyntheticProgramSpec(behaviors=(Biased(0x10, 0.5),), weights=(1.0, 2.0))
        with pytest.raises(ArgumentError):
            spec.validate()

    def test_bad_behavior_params_rejected(self):
        for bad in (
            Periodic(0x10, "TX"),
            Biased(0x10, 1.5),
            HistoryCorrelated(0x10, ()),
            HistoryCorrelated(0x10, (0,)),
            LoopExit(0x10, 1),
            RarePool(count=0, exponent=1.0),
            DataDependent(0x10, threshold=4, half_range=16),
        ):
            with pytest.raises(ArgumentError):
                bad.validate()

    def test_filler_density_shrinks_branch_share(self):
        spec_dense = SyntheticProgramSpec(behaviors=(Biased(0x10, 0.5),), filler_density=0.1)
        spec_sparse = SyntheticProgramSpec(behaviors=(Biased(0x10, 0.5),), filler_density=0.85)
        a, ma = generate_trace(spec_dense, seed=6, length=10000)
        b, mb = generate_trace(spec_sparse, seed=6, length=10000)
        assert ma.meta.cond_branches > 2 * mb.meta.cond_branches


class TestSpecJson:
    def test_roundtrip(self):
        doc = program_spec_to_json(BASE_SPEC)
        assert program_spec_from_json(doc) == BASE_SPEC

    def test_ip_fields_accept_hex_strings(self):
        b = behavior_from_json({"kind": "data", "ip": "0x400400", "gate_ip": "0x400500"})
        assert b == DataDependent(0x400400, gate_ip=0x400500)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ArgumentError):
            behavior_from_json({"kind": "mystery", "ip": 1})

    def test_missing_behaviors_key_rejected(self):
        with pytest.raises(ArgumentError):
            program_spec_from_json({})

    @pytest.mark.parametrize("doc", [
        {"kind": "biased", "ip": "zz", "p_taken": 0.5},
        {"kind": "biased", "ip": None, "p_taken": 0.5},
        {"kind": "biased", "ip": 1, "p_taken": "a"},
        {"kind": "loop", "ip": 1, "trip": [5]},
        {"kind": "periodic", "ip": 1, "pattern": 5},
        {"kind": "history", "ip": 1, "positions": ["x"]},
        {"kind": ["biased"]},
        "biased",
    ])
    def test_malformed_values_are_argument_errors(self, doc):
        with pytest.raises(ArgumentError):
            program_spec_from_json({"behaviors": [doc]})

    @pytest.mark.parametrize("doc", [
        {"behaviors": "biased"},
        {"behaviors": [{"kind": "loop", "ip": 1, "trip": 3}], "weights": ["a"]},
        {"behaviors": [{"kind": "loop", "ip": 1, "trip": 3}], "filler_density": None},
    ])
    def test_malformed_spec_fields_are_argument_errors(self, doc):
        with pytest.raises(ArgumentError):
            program_spec_from_json(doc)
