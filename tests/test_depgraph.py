"""Dataflow slicing and dependency attribution, checked against an
independent whole-trace oracle.

The oracle builds the direct producer graph in one global pass (no sliding
window, no eviction) and computes arrival slices by the documented rule:
an edge into a producer is followed iff the producer lies inside the
*reader's* own trailing window, and every retained instance is relabeled
against the query cut, older producers collapsing to SOURCE."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from branchlab import depgraph
from branchlab.depgraph import (
    SOURCE,
    DefUseWindow,
    DependencyDistribution,
    find_dependency_branches,
    regval_snapshots,
)
from branchlab.errors import ArgumentError, EmptyTargetError
from branchlab.records import BranchKind, InstructionRecord
from branchlab.synth import Biased, DataDependent, SyntheticProgramSpec, generate_trace

T_IP = 0xB00


def instr(seq, reads=(), writes=(), mem_read=(), mem_written=()):
    return InstructionRecord(
        seq=seq, ip=0x2000 + seq, regs_read=frozenset(reads),
        regs_written=tuple(writes), mem_read=frozenset(mem_read),
        mem_written=frozenset(mem_written),
    )


def cond(seq, ip, reads=(), mem_read=(), writes=()):
    return InstructionRecord(
        seq=seq, ip=ip, is_branch=True, kind=BranchKind.COND, target=ip + 64,
        taken=True, regs_read=frozenset(reads), mem_read=frozenset(mem_read),
        regs_written=tuple(writes),
    )


# --- independent oracle ----------------------------------------------------

def _rebase(instances, cut):
    return frozenset((p, loc) if p >= cut else (SOURCE, loc) for p, loc in instances)


def oracle_slices(records, window, include_memory=True):
    """(direct, full) arrival slices per seq from the whole-trace producer
    graph."""
    last = {}
    reads = {}
    for rec in records:
        locs = [("r", r) for r in rec.regs_read]
        if include_memory:
            locs.extend(("m", a) for a in rec.mem_read)
        reads[rec.seq] = [(loc, last.get(loc)) for loc in locs]
        for reg, _v in rec.regs_written:
            last[("r", reg)] = rec.seq
        if include_memory:
            for a in rec.mem_written:
                last[("m", a)] = rec.seq
    direct, full = {}, {}
    for rec in records:
        cut = rec.seq - window
        d, f = set(), set()
        for loc, w in reads[rec.seq]:
            if w is None or w < cut:
                d.add((SOURCE, loc))
                f.add((SOURCE, loc))
            else:
                d.add((w, loc))
                f.add((w, loc))
                f |= _rebase(full[w], cut)
        direct[rec.seq] = frozenset(d)
        full[rec.seq] = frozenset(f)
    return direct, full


def oracle_dependencies(records, h2p_ip, window, direct_reads_only=False,
                        include_memory=True):
    direct, full = oracle_slices(records, window, include_memory)
    table = direct if direct_reads_only else full
    conds = [(r.seq, r.ip) for r in records
             if r.is_branch and r.kind is BranchKind.COND]
    positions = {}
    executions = 0
    for i, (t_seq, t_ip) in enumerate(conds):
        if t_ip != h2p_ip:
            continue
        executions += 1
        cut = t_seq - window
        target_set = table[t_seq]
        if not target_set:
            continue
        for pos, (b_seq, b_ip) in enumerate(reversed(conds[:i]), start=1):
            if b_seq < cut:
                break
            if any(v in target_set for v in _rebase(table[b_seq], cut)):
                hist = positions.setdefault(b_ip, {})
                hist[pos] = hist.get(pos, 0) + 1
    if executions == 0:
        raise EmptyTargetError(h2p_ip)
    return DependencyDistribution(h2p_ip, window, executions, positions)


# --- worked examples --------------------------------------------------------

class TestWorkedExamples:
    def test_transitive_chain(self):
        records = [
            instr(0, writes=[(1, 5)]),
            cond(1, 0xA00, reads=[1]),
            instr(2, reads=[1], writes=[(2, 7)]),
            cond(3, T_IP, reads=[2]),
        ]
        (dist,) = find_dependency_branches(records, [T_IP], window=10)
        assert dist.positions == {0xA00: {1: 1}}
        assert dist.executions == 1
        assert dist.top_dependency() == 0xA00
        assert dist.min_position == 1 and dist.max_position == 1

    def test_direct_reads_only_drops_transitive_link(self):
        records = [
            instr(0, writes=[(1, 5)]),
            cond(1, 0xA00, reads=[1]),
            instr(2, reads=[1], writes=[(2, 7)]),
            cond(3, T_IP, reads=[2]),
        ]
        (dist,) = find_dependency_branches(records, [T_IP], window=10,
                                            direct_reads_only=True)
        assert dist.positions == {}
        assert dist.n_dep_branches == 0
        assert dist.top_dependency() is None
        assert dist.min_position is None and dist.max_position is None

    def test_position_counts_every_intervening_cond(self):
        records = [
            instr(0, writes=[(1, 5)]),
            cond(1, 0xA00, reads=[1]),
            cond(2, 0xC00, reads=[9]),   # unrelated; still occupies a slot
            cond(3, T_IP, reads=[1]),
        ]
        (dist,) = find_dependency_branches(records, [T_IP], window=10)
        assert dist.positions == {0xA00: {2: 1}}

    def test_shared_out_of_window_state_matches_via_source(self):
        # Both branches read a register nothing in the trace ever writes:
        # they share the instance (SOURCE, ("r", 5)).
        records = [cond(0, 0xA00, reads=[5]), cond(1, T_IP, reads=[5])]
        (dist,) = find_dependency_branches(records, [T_IP], window=10)
        assert dist.positions == {0xA00: {1: 1}}

    def test_traversal_governed_by_reader_window(self):
        # The write at seq 1 is older than the target's window, but the
        # producer at seq 3 saw it inside its own window, so the collapsed
        # instance (SOURCE, r1) survives into the target's slice and the
        # branch at seq 2 still matches through it.
        records = [
            instr(0),
            instr(1, writes=[(1, 5)]),
            cond(2, 0xA00, reads=[1]),
            instr(3, reads=[1], writes=[(2, 7)]),
            cond(4, T_IP, reads=[2]),
        ]
        (dist,) = find_dependency_branches(records, [T_IP], window=2)
        assert dist.positions == {0xA00: {1: 1}}

    def test_candidate_producer_older_than_target_cut_matches_source(self):
        # The branch at seq 1 holds (0, r1): seq 0 lies inside its own
        # window. The target's window starts at seq 1, so it reads r1 as
        # (SOURCE, r1), and the candidate's instance re-bases to the same.
        records = [
            instr(0, writes=[(1, 5)]),
            cond(1, 0xA00, reads=[1]),
            instr(2),
            instr(3),
            cond(4, T_IP, reads=[1]),
        ]
        for direct_only in (False, True):
            (dist,) = find_dependency_branches(records, [T_IP], window=3,
                                                direct_reads_only=direct_only)
            assert dist.positions == {0xA00: {1: 1}}

    def test_rewrite_inside_target_window_breaks_the_match(self):
        # Same shape, but r1 is written again at seq 2, inside the target's
        # window: the target reads (2, r1), which the candidate's (0, r1)
        # does not re-base to.
        records = [
            instr(0, writes=[(1, 5)]),
            cond(1, 0xA00, reads=[1]),
            instr(2, writes=[(1, 6)]),
            instr(3),
            cond(4, T_IP, reads=[1]),
        ]
        (dist,) = find_dependency_branches(records, [T_IP], window=3)
        assert dist.positions == {}

    def test_memory_chain(self):
        records = [
            instr(0, mem_written=[100]),
            cond(1, 0xA00, mem_read=[100]),
            instr(2, mem_read=[100], writes=[(1, 3)]),
            cond(3, T_IP, reads=[1]),
        ]
        (dist,) = find_dependency_branches(records, [T_IP], window=10)
        assert dist.positions == {0xA00: {1: 1}}
        (blind,) = find_dependency_branches(records, [T_IP], window=10,
                                             include_memory=False)
        assert blind.positions == {}

    def test_top_dependency_tie_breaks_to_lower_ip(self):
        records = [
            instr(0, writes=[(1, 5)]),
            cond(1, 0xB10, reads=[1]),
            cond(2, 0xA10, reads=[1]),
            cond(3, T_IP, reads=[1]),
        ]
        (dist,) = find_dependency_branches(records, [T_IP], window=10)
        assert dist.mass_by_ip() == {0xA10: 1, 0xB10: 1}
        assert dist.top_dependency() == 0xA10
        assert dist.total_mass() == 2

    def test_target_can_depend_on_its_own_prior_execution(self):
        records = [
            instr(0, writes=[(1, 5)]),
            cond(1, T_IP, reads=[1]),
            cond(2, T_IP, reads=[1]),
        ]
        (dist,) = find_dependency_branches(records, [T_IP], window=10)
        assert dist.executions == 2
        assert dist.positions == {T_IP: {1: 1}}

    def test_never_executing_target_raises(self):
        with pytest.raises(EmptyTargetError):
            find_dependency_branches([cond(0, 0xA00, reads=[1])], [T_IP], window=10)


class TestDefUseWindow:
    def test_slice_retention_and_eviction(self):
        win = DefUseWindow(length=2)
        records = [instr(0, writes=[(1, 5)]), instr(1, reads=[1]), instr(2, reads=[1])]
        for r in records:
            win.push(r)
        assert win.slice_at(2) == frozenset({(0, ("r", 1))})
        # cut at seq 2 is 0, so seq 0 is still retained; the next push evicts it
        win.push(instr(3))
        with pytest.raises(ArgumentError):
            win.slice_at(0)
        assert win.slice_at(2) == frozenset({(0, ("r", 1))})

    def test_out_of_order_push_rejected(self):
        win = DefUseWindow(length=4)
        win.push(instr(5))
        with pytest.raises(ArgumentError):
            win.push(instr(5))

    def test_bad_length_rejected(self):
        with pytest.raises(ArgumentError):
            DefUseWindow(length=0)


# --- property tests against the oracle ---------------------------------------

COND_IPS = (0xA00, 0xA10, 0xA20, T_IP)


@st.composite
def dep_traces(draw):
    n = draw(st.integers(3, 40))
    records = []
    for seq in range(n):
        regs_read = draw(st.frozensets(st.integers(0, 4), max_size=2))
        mem_read = draw(st.frozensets(st.integers(0, 2), max_size=1))
        writes = tuple(
            (draw(st.integers(0, 4)), draw(st.integers(0, 9)))
            for _ in range(draw(st.integers(0, 2)))
        )
        mem_written = draw(st.frozensets(st.integers(0, 2), max_size=1))
        if draw(st.booleans()):
            ip = draw(st.sampled_from(COND_IPS))
            if not regs_read and not mem_read:
                regs_read = frozenset({draw(st.integers(0, 4))})
            records.append(InstructionRecord(
                seq=seq, ip=ip, is_branch=True, kind=BranchKind.COND,
                target=ip + 64, taken=draw(st.booleans()),
                regs_read=regs_read, regs_written=writes,
                mem_read=mem_read, mem_written=mem_written,
            ))
        else:
            records.append(InstructionRecord(
                seq=seq, ip=0x2000 + seq, regs_read=regs_read,
                regs_written=writes, mem_read=mem_read,
                mem_written=mem_written,
            ))
    records.append(cond(n, T_IP, reads=[draw(st.integers(0, 4))]))
    return records


@given(dep_traces(), st.sampled_from([1, 2, 3, 5, 9, 100]),
       st.booleans(), st.booleans())
@settings(max_examples=150)
def test_dependencies_match_whole_trace_oracle(records, window, direct_only, memory):
    (got,) = find_dependency_branches(records, [T_IP], window=window,
                                       direct_reads_only=direct_only,
                                       include_memory=memory)
    want = oracle_dependencies(records, T_IP, window=window,
                               direct_reads_only=direct_only,
                               include_memory=memory)
    assert got == want


@given(dep_traces(), st.data(), st.sampled_from([1, 2, 3, 9, 100]),
       st.booleans(), st.booleans())
@settings(max_examples=100)
def test_one_walk_equals_a_walk_per_ip(records, data, window, direct_only, memory):
    """Every ip's distribution from one walk over several targets, duplicates
    included, equals that of a walk for the ip alone; a target that never
    executes fails the walk, the first such ip in argument order named."""
    executed = sorted({r.ip for r in records if r.is_branch and r.kind is BranchKind.COND})
    ips = data.draw(st.lists(st.sampled_from(executed), min_size=1, max_size=6))
    kw = dict(window=window, direct_reads_only=direct_only, include_memory=memory)
    got = find_dependency_branches(records, ips, **kw)
    assert [d.target_ip for d in got] == ips
    assert got == [find_dependency_branches(records, [ip], **kw)[0] for ip in ips]
    missing = data.draw(st.lists(st.sampled_from([0xD00, 0xE00]), min_size=1, max_size=2))
    mixed = data.draw(st.permutations(ips + missing))
    first = next(ip for ip in mixed if ip in missing)
    with pytest.raises(EmptyTargetError, match=f"^{first:#x} never executes"):
        find_dependency_branches(records, mixed, **kw)


@given(dep_traces(), st.sampled_from([1, 2, 4, 7, 100]), st.booleans())
@settings(max_examples=100)
def test_arrival_slices_match_oracle(records, window, memory):
    _, want_full = oracle_slices(records, window, include_memory=memory)
    win = DefUseWindow(length=window, include_memory=memory)
    for rec in records:
        win.push(rec)
        assert win.slice_at(rec.seq) == want_full[rec.seq]


@st.composite
def long_dep_traces(draw):
    """100-400 records over few locations, so slices share data often,
    with at least four target executions, the last one ending the trace."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(100, 400))
    p_cond = draw(st.sampled_from([0.2, 0.4, 0.6]))
    targets = set(rng.sample(range(n), 3))
    records = []
    for seq in range(n):
        regs_read = frozenset(rng.sample(range(6), rng.randint(0, 2)))
        mem_read = frozenset(rng.sample(range(3), rng.randint(0, 1)))
        writes = tuple((rng.randrange(6), rng.randrange(10))
                       for _ in range(rng.randint(0, 2)))
        mem_written = frozenset(rng.sample(range(3), rng.randint(0, 1)))
        if seq in targets or rng.random() < p_cond:
            ip = T_IP if seq in targets or rng.random() < 0.3 else rng.choice(COND_IPS[:-1])
            records.append(InstructionRecord(
                seq=seq, ip=ip, is_branch=True, kind=BranchKind.COND,
                target=ip + 64, taken=rng.random() < 0.5,
                regs_read=regs_read, regs_written=writes,
                mem_read=mem_read, mem_written=mem_written,
            ))
        else:
            records.append(InstructionRecord(
                seq=seq, ip=0x2000 + seq, regs_read=regs_read,
                regs_written=writes, mem_read=mem_read,
                mem_written=mem_written,
            ))
    records.append(cond(n, T_IP, reads=[rng.randrange(6)]))
    return records


def scan_keeping_index(records, window, direct_only, memory):
    """find_dependency_branches, also returning the index it built."""
    built = []

    class Recorded(depgraph.CondSliceIndex):
        def __init__(self):
            super().__init__()
            built.append(self)

    with mock.patch.object(depgraph, "CondSliceIndex", Recorded):
        (dist,) = find_dependency_branches(records, [T_IP], window=window,
                                            direct_reads_only=direct_only,
                                            include_memory=memory)
    (index,) = built
    return dist, index


@given(long_dep_traces(), st.integers(1, 50), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_long_traces_match_oracle_and_index_keeps_only_last_window(
    records, window, direct_only, memory
):
    dist, index = scan_keeping_index(records, window, direct_only, memory)
    assert dist == oracle_dependencies(records, T_IP, window=window,
                                       direct_reads_only=direct_only,
                                       include_memory=memory)
    assert dist.executions >= 4
    # The index holds the slices of the CONDs in the last record's window,
    # as retired, and nothing else: no older COND, no key without holders.
    direct, full = oracle_slices(records, window, include_memory=memory)
    table = direct if direct_only else full
    last = records[-1].seq
    want = {r.seq: table[r.seq] for r in records
            if r.is_branch and r.kind is BranchKind.COND
            and r.seq >= last - window and table[r.seq]}
    assert index.entries() == want
    assert all(by_producer and all(by_producer.values())
               for by_producer in index._holders.values())


# --- register-value snapshots -------------------------------------------------

class TestRegvalSnapshots:
    def test_worked_example_with_mask(self):
        records = [
            instr(0, writes=[(0, 0x1_0000_0005)]),
            cond(1, T_IP, reads=[0]),
            instr(2, writes=[(0, 7), (3, 2)]),
            cond(3, T_IP, reads=[0]),
        ]
        hist = regval_snapshots(records, T_IP, tracked=(0, 1, 3))
        assert hist.executions == 2
        assert hist.values_of(0) == {0x5: 1, 0x7: 1}
        assert hist.values_of(3) == {2: 1}
        assert hist.values_of(1) == {}   # never written
        narrow = regval_snapshots(records, T_IP, tracked=(0,), mask=0x3)
        assert narrow.values_of(0) == {0x1: 1, 0x3: 1}

    def test_own_write_not_visible_to_own_snapshot(self):
        records = [
            cond(0, T_IP, reads=[0], writes=[(0, 9)]),
            cond(1, T_IP, reads=[0]),
        ]
        hist = regval_snapshots(records, T_IP, tracked=(0,))
        assert hist.values_of(0) == {9: 1}   # only the second execution sees it

    def test_untracked_registers_ignored(self):
        records = [instr(0, writes=[(5, 1)]), cond(1, T_IP, reads=[5])]
        hist = regval_snapshots(records, T_IP, tracked=(0, 1))
        assert hist.counts == {}
        assert hist.executions == 1

    def test_never_executing_target_raises(self):
        with pytest.raises(EmptyTargetError, match="0xb00 never executes as a COND branch"):
            regval_snapshots([cond(0, 0xA00, reads=[1]), instr(1, writes=[(0, 1)])], T_IP)

    def test_empty_tracked_rejected(self):
        with pytest.raises(ArgumentError):
            regval_snapshots([cond(0, T_IP, reads=[0])], T_IP, tracked=())

    @given(dep_traces())
    @settings(max_examples=60)
    def test_matches_backward_scan_oracle(self, records):
        tracked = (0, 1, 2, 3, 4)
        hist = regval_snapshots(records, T_IP, tracked=tracked)
        want = {}
        execs = 0
        for i, rec in enumerate(records):
            if not (rec.is_branch and rec.kind is BranchKind.COND and rec.ip == T_IP):
                continue
            execs += 1
            for r in tracked:
                for prior in reversed(records[:i]):
                    vals = [v for reg, v in prior.regs_written if reg == r]
                    if vals:
                        key = (r, vals[-1] & 0xFFFFFFFF)
                        want[key] = want.get(key, 0) + 1
                        break
        assert hist.executions == execs
        assert hist.counts == want


# --- planted synthetic trace ----------------------------------------------

def test_planted_gate_is_sole_dependency():
    spec = SyntheticProgramSpec(
        behaviors=(
            DataDependent(ip=0x400100, gate_ip=0x400200),
            Biased(ip=0x400300, p_taken=0.5),
        ),
        weights=(1.0, 3.0),
        filler_density=0.5,
    )
    records, manifest = generate_trace(spec, seed=11, length=4000)
    (dist,) = find_dependency_branches(records, [0x400100], window=2000)
    assert set(dist.positions) == {0x400200}
    assert dist.mass_by_ip()[0x400200] == dist.executions
    assert dist.top_dependency() == 0x400200
    assert dist.min_position >= 1
