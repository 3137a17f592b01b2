"""Serialization roundtrips and stream validation for the trace formats."""

import json
import struct

import pytest
from hypothesis import given, strategies as st

from branchlab.errors import ArgumentError, BranchLabError, CorruptTrace, FormatError
from branchlab.records import EMPTY_INT_SET, BranchKind, BranchRecord, InstructionRecord
from branchlab.traceio import (
    _read_it1_bin,
    _read_it1_bin_branches,
    detect_format,
    format_for_path,
    load_branch_trace,
    load_instr_trace,
    project_branches,
    read_branch_trace,
    read_instr_trace,
    save_trace,
    write_branch_trace,
    write_instr_trace,
)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
KINDS = st.sampled_from(list(BranchKind))


@st.composite
def branch_traces(draw, max_size=30):
    seqs = sorted(draw(st.sets(st.integers(0, 1 << 40), max_size=max_size)))
    out = []
    for seq in seqs:
        kind = draw(KINDS)
        taken = draw(st.booleans()) if kind is BranchKind.COND else True
        out.append(BranchRecord(seq=seq, ip=draw(U64), kind=kind, target=draw(U64), taken=taken))
    return out


@st.composite
def instr_traces(draw, max_size=30):
    seqs = sorted(draw(st.sets(st.integers(0, 1 << 40), max_size=max_size)))
    regs = st.integers(0, 255)
    out = []
    for seq in seqs:
        is_branch = draw(st.booleans())
        kind = target = taken = None
        regs_read = frozenset(draw(st.sets(regs, max_size=4)))
        mem_read = frozenset(draw(st.sets(U64, max_size=3)))
        if is_branch:
            kind = draw(KINDS)
            target = draw(U64)
            taken = draw(st.booleans()) if kind is BranchKind.COND else True
            if kind is BranchKind.COND and not regs_read and not mem_read:
                regs_read = frozenset((draw(regs),))
        out.append(
            InstructionRecord(
                seq=seq, ip=draw(U64), is_branch=is_branch, kind=kind,
                target=target, taken=taken,
                regs_read=regs_read,
                regs_written=tuple(draw(st.lists(st.tuples(regs, U64), max_size=4))),
                mem_read=mem_read,
                mem_written=frozenset(draw(st.sets(U64, max_size=3))),
            )
        )
    return out


class TestBranchRoundtrip:
    @given(branch_traces(), st.sampled_from(["bt1-text", "bt1-bin"]))
    def test_roundtrip(self, records, fmt):
        data = write_branch_trace(records, fmt)
        assert read_branch_trace(data) == records

    @given(branch_traces(), st.sampled_from(["bt1-text", "bt1-bin"]))
    def test_writer_is_canonical(self, records, fmt):
        # write(read(write(x))) == write(x), byte for byte
        data = write_branch_trace(records, fmt)
        assert write_branch_trace(read_branch_trace(data), fmt) == data

    @given(branch_traces())
    def test_detect_format(self, records):
        assert detect_format(write_branch_trace(records, "bt1-text")) == "bt1-text"
        assert detect_format(write_branch_trace(records, "bt1-bin")) == "bt1-bin"

    def test_text_example_layout(self):
        r = BranchRecord(seq=12, ip=0x400A10, kind=BranchKind.COND, target=0x400A40, taken=True)
        assert write_branch_trace([r]) == b"BT1\n12,0x400a10,COND,0x400a40,1\n"

    def test_bin_record_is_26_bytes(self):
        r = BranchRecord(seq=0, ip=0x10, kind=BranchKind.COND, target=0x20, taken=False)
        data = write_branch_trace([r], "bt1-bin")
        assert len(data) == 4 + 8 + 26


class TestInstrRoundtrip:
    @given(instr_traces(), st.sampled_from(["it1-jsonl", "it1-bin"]))
    def test_roundtrip(self, records, fmt):
        data = write_instr_trace(records, fmt)
        assert read_instr_trace(data) == records

    @given(instr_traces(), st.sampled_from(["it1-jsonl", "it1-bin"]))
    def test_writer_is_canonical(self, records, fmt):
        data = write_instr_trace(records, fmt)
        assert write_instr_trace(read_instr_trace(data), fmt) == data

    @given(instr_traces())
    def test_projection_matches_record_filter(self, records):
        assert project_branches(records) == [r.to_branch() for r in records if r.is_branch]

    def test_cardinality_over_255_rejected(self):
        r = InstructionRecord(seq=0, ip=0x10, mem_written=frozenset(range(256)))
        with pytest.raises(ArgumentError):
            write_instr_trace([r], "it1-bin")


def _outcome(read, data):
    """What ``read(data)`` returns, or the class and message it raises."""
    try:
        return read(data)
    except BranchLabError as e:
        return type(e), str(e)


def _full_read(data):
    """The oracle for the branch-only reader: decode every instruction,
    then project."""
    instrs = _read_it1_bin(data)
    return project_branches(instrs), len(instrs)


@st.composite
def mutated_it1_bins(draw):
    data = bytearray(write_instr_trace(draw(instr_traces(max_size=12)), "it1-bin"))
    how = draw(st.sampled_from(["set", "truncate", "append", "count"]))
    if how == "set":
        for _ in range(draw(st.integers(1, 3))):
            pos = draw(st.integers(4, len(data) - 1))   # past the magic
            data[pos] = draw(st.one_of(st.sampled_from([0, 1, 2, 4, 5, 9, 255]),
                                       st.integers(0, 255)))
    elif how == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif how == "append":
        data += draw(st.binary(min_size=1, max_size=20))
    else:
        (count,) = struct.unpack_from("<Q", data, 4)
        struct.pack_into("<Q", data, 4, max(0, count + draw(st.integers(-3, 3))))
    return bytes(data)


class TestBranchOnlyReader:
    @given(instr_traces())
    def test_valid_stream_matches_full_decode(self, records):
        data = write_instr_trace(records, "it1-bin")
        assert _read_it1_bin_branches(data) == _full_read(data)

    @given(mutated_it1_bins())
    def test_mutated_stream_fails_like_full_decode(self, data):
        assert _outcome(_read_it1_bin_branches, data) == _outcome(_full_read, data)

    def test_every_truncation_fails_like_full_decode(self):
        records = [
            InstructionRecord(seq=0, ip=0x10, regs_read=frozenset((1, 2)),
                              regs_written=((3, 7), (4, 8)), mem_read=frozenset((0x100,)),
                              mem_written=frozenset((0x200, 0x208))),
            InstructionRecord(seq=1, ip=0x14, is_branch=True, kind=BranchKind.COND,
                              target=0x40, taken=False, mem_read=frozenset((0x100,))),
            InstructionRecord(seq=2, ip=0x18, is_branch=True, kind=BranchKind.CALL,
                              target=0x80, taken=True),
        ]
        data = write_instr_trace(records, "it1-bin")
        assert _read_it1_bin_branches(data) == _full_read(data)
        for cut in range(len(data)):
            outcome = _outcome(_read_it1_bin_branches, data[:cut])
            assert outcome == _outcome(_full_read, data[:cut])
            assert outcome[0] in (FormatError, CorruptTrace)

    @pytest.mark.parametrize("branch", [
        InstructionRecord(seq=1, ip=0x10, is_branch=True, kind=BranchKind.COND,
                          target=0x20, taken=True, regs_written=((1, 2),),
                          mem_written=frozenset((0x30,))),
        InstructionRecord(seq=1, ip=0x10, is_branch=True, kind=BranchKind.RET,
                          target=0x20, taken=False, regs_read=frozenset((1,))),
    ], ids=["cond-reads-nothing", "non-cond-not-taken"])
    def test_invalid_branch_fails_like_full_decode(self, branch):
        data = write_instr_trace([InstructionRecord(seq=0, ip=0x8), branch], "it1-bin")
        outcome = _outcome(_read_it1_bin_branches, data)
        assert outcome[0] is CorruptTrace
        assert outcome == _outcome(_full_read, data)

    @pytest.mark.parametrize("pos, value", [(28, 2), (29, 9), (38, 2)],
                             ids=["is-branch-byte", "kind-code", "taken-byte"])
    def test_bad_branch_byte_fails_like_full_decode(self, pos, value):
        data = bytearray(write_instr_trace([InstructionRecord(
            seq=0, ip=0x8, is_branch=True, kind=BranchKind.CALL, target=0x20, taken=True,
        )], "it1-bin"))
        # magic 4 + count 8, then seq 8 + ip 8: is_branch at 28, kind at 29, taken at 38
        data[pos] = value
        outcome = _outcome(_read_it1_bin_branches, bytes(data))
        assert outcome[0] is CorruptTrace
        assert outcome == _outcome(_full_read, bytes(data))

    @pytest.mark.parametrize("seq", [0, 3])
    def test_seq_not_increasing_fails_like_full_decode(self, seq):
        data = bytearray(write_instr_trace([
            InstructionRecord(seq=3, ip=0x8),
            InstructionRecord(seq=7, ip=0x10, is_branch=True, kind=BranchKind.UNCOND,
                              target=0x20, taken=True),
        ], "it1-bin"))
        # record 0 is 17 bytes of seq, ip and is_branch plus 4 count bytes
        struct.pack_into("<Q", data, 12 + 21, seq)
        outcome = _outcome(_read_it1_bin_branches, bytes(data))
        assert outcome[0] is CorruptTrace
        assert outcome == _outcome(_full_read, bytes(data))


class TestStreamValidation:
    def test_unordered_records_rejected_at_write(self):
        records = [
            BranchRecord(seq=5, ip=0x10, kind=BranchKind.UNCOND, target=0x20),
            BranchRecord(seq=5, ip=0x10, kind=BranchKind.UNCOND, target=0x20),
        ]
        with pytest.raises(ArgumentError):
            write_branch_trace(records)

    def test_bad_magic_is_format_error(self):
        with pytest.raises(FormatError):
            read_branch_trace(b"XXXX" + b"\0" * 16)
        with pytest.raises(FormatError):
            read_instr_trace(b"XXXX" + b"\0" * 16)
        with pytest.raises(FormatError):
            _read_it1_bin_branches(b"XXXX" + b"\0" * 16)

    def test_truncated_bin_is_corrupt(self):
        data = write_branch_trace(
            [BranchRecord(seq=0, ip=0x10, kind=BranchKind.COND, target=0x20, taken=True)],
            "bt1-bin",
        )
        with pytest.raises(CorruptTrace):
            read_branch_trace(data[:-3])

    def test_trailing_bytes_rejected(self):
        data = write_instr_trace([InstructionRecord(seq=0, ip=0x10)], "it1-bin")
        with pytest.raises(CorruptTrace):
            read_instr_trace(data + b"\0")

    def test_bad_kind_code_rejected(self):
        data = bytearray(
            write_branch_trace(
                [BranchRecord(seq=0, ip=0x10, kind=BranchKind.RET, target=0x20)], "bt1-bin"
            )
        )
        data[4 + 8 + 24] = 99  # kind byte of record 0
        with pytest.raises(CorruptTrace):
            read_branch_trace(bytes(data))

    def test_non_monotone_seq_rejected(self):
        text = b"BT1\n5,0x10,COND,0x20,1\n5,0x10,COND,0x20,0\n"
        with pytest.raises(CorruptTrace):
            read_branch_trace(text)

    def test_text_field_count_enforced(self):
        with pytest.raises(CorruptTrace):
            read_branch_trace(b"BT1\n1,0x10,COND,0x20\n")

    def test_jsonl_header_count_mismatch_rejected(self):
        data = write_instr_trace([InstructionRecord(seq=0, ip=0x10)], "it1-jsonl")
        head, body, _ = data.split(b"\n")
        with pytest.raises(CorruptTrace):
            read_instr_trace(head + b"\n")

    def test_jsonl_missing_header_rejected(self):
        with pytest.raises(FormatError):
            read_instr_trace(b'{"seq":0,"ip":"0x10","is_branch":false}\n')

    def test_unknown_stream_rejected(self):
        with pytest.raises(FormatError):
            detect_format(b"\x01\x02\x03\x04")


class TestPaths:
    def test_format_for_path(self):
        assert format_for_path("x/t.bt1") == "bt1-text"
        assert format_for_path("t.BT1B") == "bt1-bin"
        assert format_for_path("t.it1") == "it1-jsonl"
        assert format_for_path("t.it1b") == "it1-bin"
        with pytest.raises(ArgumentError):
            format_for_path("t.csv")

    def test_save_load_by_extension(self, tmp_path):
        records = [BranchRecord(seq=3, ip=0x30, kind=BranchKind.COND, target=0x40, taken=False)]
        p = tmp_path / "t.bt1b"
        save_trace(p, records)
        # a BT1 trace's instruction count is its last seq + 1
        assert load_branch_trace(p) == (records, 4)

    def test_load_branches_from_instruction_trace(self, tmp_path):
        records = [
            InstructionRecord(seq=0, ip=0x10, regs_written=((1, 5),)),
            InstructionRecord(
                seq=1, ip=0x14, is_branch=True, kind=BranchKind.COND,
                target=0x40, taken=True, regs_read=frozenset((1,)),
            ),
        ]
        for name in ("t.it1b", "t.it1"):
            p = tmp_path / name
            save_trace(p, records)
            assert load_branch_trace(p) == ([records[1].to_branch()], 2)

    def test_load_instrs_from_branch_trace_rejected(self, tmp_path):
        p = tmp_path / "t.bt1"
        save_trace(p, [BranchRecord(seq=0, ip=0x10, kind=BranchKind.UNCOND, target=0x20)])
        with pytest.raises(ArgumentError):
            load_instr_trace(p)

    def test_instruction_records_to_bt1_are_projected(self, tmp_path):
        records = [
            InstructionRecord(seq=0, ip=0x10, regs_written=((1, 5),)),
            InstructionRecord(seq=1, ip=0x14, is_branch=True, kind=BranchKind.COND,
                              target=0x40, taken=True, regs_read=frozenset((1,))),
            InstructionRecord(seq=2, ip=0x18, is_branch=True, kind=BranchKind.CALL,
                              target=0x80, taken=True),
        ]
        for ext in (".bt1", ".bt1b"):
            got, want = tmp_path / f"got{ext}", tmp_path / f"want{ext}"
            save_trace(got, records)
            save_trace(want, project_branches(records))
            assert got.read_bytes() == want.read_bytes()
            assert load_branch_trace(got) == (project_branches(records), 3)

    @pytest.mark.parametrize("name", ["t.it1", "t.it1b"])
    def test_branch_records_to_it1_rejected(self, tmp_path, name):
        records = [BranchRecord(seq=0, ip=0x10, kind=BranchKind.UNCOND, target=0x20)]
        with pytest.raises(ArgumentError) as info:
            save_trace(tmp_path / name, records)
        assert "\n" not in str(info.value) and "branch records" in str(info.value)
        assert not (tmp_path / name).exists()

    def test_readers_take_the_format_from_the_stream(self, tmp_path):
        records = [
            InstructionRecord(seq=0, ip=0x10, regs_written=((1, 5),)),
            InstructionRecord(seq=1, ip=0x14, is_branch=True, kind=BranchKind.COND,
                              target=0x40, taken=False, regs_read=frozenset((1,))),
        ]
        data = write_instr_trace(records, "it1-bin")
        for name in ("t.dat", "t.bt1b", "t.bt1", "t.it1"):
            (tmp_path / name).write_bytes(data)
            assert load_branch_trace(tmp_path / name) == ([records[1].to_branch()], 2)
            assert load_instr_trace(tmp_path / name) == records

    def test_reader_of_the_other_level_rejected(self):
        branches = write_branch_trace(
            [BranchRecord(seq=0, ip=0x10, kind=BranchKind.UNCOND, target=0x20)], "bt1-bin")
        with pytest.raises(ArgumentError):
            read_instr_trace(branches)
        with pytest.raises(ArgumentError):
            read_branch_trace(write_instr_trace([InstructionRecord(seq=0, ip=0x10)], "it1-bin"))

    @pytest.mark.parametrize("name", ["t.dat", "t.bt1", "t.bt1b", "t.it1", "t.it1b"])
    def test_unrecognized_stream_is_format_error(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\x01\x02\x03\x04 not a trace")
        for read in (read_branch_trace, read_instr_trace):
            with pytest.raises(FormatError):
                read(path.read_bytes())
        for load in (load_branch_trace, load_instr_trace):
            with pytest.raises(FormatError) as raised:
                load(path)
            assert str(raised.value) == f"{path}: unrecognized trace stream"

    @pytest.mark.parametrize("name, cut", [("t.it1", -9), ("t.it1b", -3), ("t.bt1b", -3)])
    def test_corrupt_trace_error_names_the_file(self, tmp_path, name, cut):
        records = [InstructionRecord(seq=0, ip=0x10, regs_written=((1, 5),)),
                   InstructionRecord(seq=1, ip=0x14, is_branch=True, kind=BranchKind.COND,
                                     target=0x40, taken=False, regs_read=frozenset((1,)))]
        path = tmp_path / name
        save_trace(path, records)
        path.write_bytes(path.read_bytes()[:cut])
        loads = [load_branch_trace] if name.endswith(".bt1b") else [load_branch_trace,
                                                                     load_instr_trace]
        for load in loads:
            with pytest.raises(CorruptTrace) as raised:
                load(path)
            assert str(raised.value).startswith(f"{path}: ")


# --- the IT1 readers against a reference parser -------------------------------

_KIND_OF_CODE = {0: BranchKind.COND, 1: BranchKind.UNCOND, 2: BranchKind.CALL,
                 3: BranchKind.RET, 4: BranchKind.INDIRECT}
_CODE_OF_KIND = {kind: code for code, kind in _KIND_OF_CODE.items()}


@st.composite
def hand_encoded_it1(draw):
    """(records, bytes) of random instruction records, encoded here by hand
    in one of the IT1 formats. The JSON lines spell some empty fields as []
    and some ips and targets as plain integers."""
    records = draw(instr_traces())
    if draw(st.booleans()):
        out = bytearray(b"IT01" + struct.pack("<Q", len(records)))
        for r in records:
            out += struct.pack("<QQB", r.seq, r.ip, r.is_branch)
            if r.is_branch:
                out += struct.pack("<BQB", _CODE_OF_KIND[r.kind], r.target, r.taken)
            out += bytes([len(r.regs_read), *r.regs_read, len(r.regs_written)])
            for reg, value in r.regs_written:
                out += struct.pack("<BQ", reg, value)
            for values in (r.mem_read, r.mem_written):
                out += bytes([len(values)]) + b"".join(struct.pack("<Q", v) for v in values)
        return records, bytes(out)
    number = st.sampled_from([hex, int])
    lines = [json.dumps({"format": "IT1", "instructions": len(records)})]
    for r in records:
        obj = {"seq": r.seq, "ip": draw(number)(r.ip), "is_branch": r.is_branch}
        if r.is_branch:
            obj.update(kind=r.kind.value, target=draw(number)(r.target), taken=r.taken)
        for name in ("regs_read", "regs_written", "mem_read", "mem_written"):
            values = [list(pair) for pair in getattr(r, name)] if name == "regs_written" \
                else list(getattr(r, name))
            if values or draw(st.booleans()):
                obj[name] = values
        lines.append(json.dumps(obj))
    return records, ("\n".join(lines) + "\n").encode("ascii")


def reference_it1(data: bytes) -> list[InstructionRecord]:
    """Decode an IT1 stream the plain way: json.loads per line, or one
    struct.unpack per binary field, and keyword construction."""
    records = []
    if data.startswith(b"IT01"):
        off = 12

        def field(fmt):
            nonlocal off
            (value,) = struct.unpack_from(fmt, data, off)
            off += struct.calcsize(fmt)
            return value

        for _ in range(struct.unpack_from("<Q", data, 4)[0]):
            seq, ip, is_branch = field("<Q"), field("<Q"), field("<B") == 1
            kind = target = taken = None
            if is_branch:
                kind, target, taken = _KIND_OF_CODE[field("<B")], field("<Q"), field("<B") == 1
            regs_read = frozenset(field("<B") for _ in range(field("<B")))
            regs_written = tuple((field("<B"), field("<Q")) for _ in range(field("<B")))
            mem_read = frozenset(field("<Q") for _ in range(field("<B")))
            mem_written = frozenset(field("<Q") for _ in range(field("<B")))
            records.append(InstructionRecord(
                seq=seq, ip=ip, is_branch=is_branch, kind=kind, target=target, taken=taken,
                regs_read=regs_read, regs_written=regs_written, mem_read=mem_read,
                mem_written=mem_written))
        assert off == len(data)
        return records

    def number(value):
        return int(value, 16) if isinstance(value, str) else value

    lines = data.decode("ascii").splitlines()
    for line in lines[1:]:
        obj = json.loads(line)
        branch = obj["is_branch"]
        records.append(InstructionRecord(
            seq=obj["seq"], ip=number(obj["ip"]), is_branch=branch,
            kind=BranchKind(obj["kind"]) if branch else None,
            target=number(obj["target"]) if branch else None,
            taken=obj["taken"] if branch else None,
            regs_read=frozenset(obj.get("regs_read", [])),
            regs_written=tuple(tuple(pair) for pair in obj.get("regs_written", [])),
            mem_read=frozenset(obj.get("mem_read", [])),
            mem_written=frozenset(obj.get("mem_written", []))))
    assert json.loads(lines[0]) == {"format": "IT1", "instructions": len(records)}
    return records


@given(hand_encoded_it1())
def test_it1_readers_match_reference_parser(encoded):
    records, data = encoded
    got = read_instr_trace(data)
    want = reference_it1(data)
    assert want == records
    assert got == want
    for g, w in zip(got, want):
        assert (type(g.is_branch), type(g.taken)) == (type(w.is_branch), type(w.taken))
        assert all(type(pair) is tuple for pair in g.regs_written)
        for name in ("regs_read", "mem_read", "mem_written"):
            if not getattr(g, name):
                assert getattr(g, name) is EMPTY_INT_SET, name
