"""Trace serialization.

Four on-disk formats, two per trace level:

* ``bt1-text``: header line ``BT1`` then one CSV-ish line per branch,
  ``seq,ip_hex,kind,target_hex,taken`` (e.g. ``12,0x400a10,COND,0x400a40,1``).
* ``bt1-bin``: magic ``BT01``, u64 record count, then 26-byte little-endian
  records: u64 ip, u64 target, u64 seq, u8 kind code, u8 taken.
* ``it1-jsonl``: header object ``{"format":"IT1","instructions":N}`` then one
  JSON object per instruction. Empty operand collections are omitted; sets
  are sorted ascending so writer output is canonical.
* ``it1-bin``: magic ``IT01``, u64 record count, then per record
  u64 seq, u64 ip, u8 is_branch, [u8 kind, u64 target, u8 taken if branch],
  u8 count + count*u8 regs read, u8 count + count*(u8, u64) regs written,
  u8 count + count*u64 mem read, u8 count + count*u64 mem written.
  Set cardinalities above 255 are unrepresentable and rejected at write time.

Readers recognize the format from the stream (``detect_format``): each
format's magic or header names it, so a file's name matters only to
writers (``save_trace``), which choose the format from the extension.
Readers verify magic/header (FormatError), strictly increasing seq, declared
counts, and per-record invariants (CorruptTrace).

Branch-level analyses load through ``load_branch_trace``, which returns the
branch records and the trace's instruction count. On it1-bin it does not
decode instructions: ``_read_it1_bin_branches`` steps over each record's
operand payloads by their count bytes and builds a ``BranchRecord`` for the
branch records alone, with every check of the full reader and the same
errors. Both binary IT1 readers unpack a record a few fields at a time; a
record with a bad byte or a cut is read again field by field
(``_raise_it1_bin_record``), so the error names its first bad byte or the
offset of the field the stream ends in.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable

from .errors import ArgumentError, CorruptTrace, FormatError
from .records import (
    CODE_TO_KIND,
    EMPTY_INT_SET,
    KIND_TO_CODE,
    BranchKind,
    BranchRecord,
    InstructionRecord,
)

BT1_MAGIC = b"BT01"
IT1_MAGIC = b"IT01"
_BT1_REC = struct.Struct("<QQQBB")
_U64 = struct.Struct("<Q")
_IT1_HEAD = struct.Struct("<QQB")     # seq, ip, is_branch
_IT1_BRANCH = struct.Struct("<BQB")   # kind code, target, taken
_IT1_PAIR = struct.Struct("<BQ")      # register written, value

BRANCH_FORMATS = ("bt1-text", "bt1-bin")
INSTR_FORMATS = ("it1-jsonl", "it1-bin")

_EXT_FORMAT = {
    ".bt1": "bt1-text",
    ".bt1b": "bt1-bin",
    ".it1": "it1-jsonl",
    ".it1b": "it1-bin",
}


def format_for_path(path: str | Path) -> str:
    """The format a writer gives a file named ``path``."""
    ext = Path(path).suffix.lower()
    try:
        return _EXT_FORMAT[ext]
    except KeyError:
        raise ArgumentError(
            f"cannot infer trace format from extension {ext!r}; "
            f"expected one of {sorted(_EXT_FORMAT)}"
        ) from None


def detect_format(data: bytes) -> str:
    """Sniff the serialization format from a stream prefix."""
    if data.startswith(BT1_MAGIC):
        return "bt1-bin"
    if data.startswith(IT1_MAGIC):
        return "it1-bin"
    if data.startswith(b"BT1\n") or data == b"BT1":
        return "bt1-text"
    if data.lstrip()[:1] == b"{":
        return "it1-jsonl"
    raise FormatError("unrecognized trace stream")


# ---------------------------------------------------------------- BT1

def write_branch_trace(records: Iterable[BranchRecord], fmt: str = "bt1-text") -> bytes:
    records = list(records)
    _check_order(records)
    if fmt == "bt1-text":
        lines = ["BT1"]
        for r in records:
            lines.append(
                f"{r.seq},{r.ip:#x},{r.kind.value},{r.target:#x},{1 if r.taken else 0}"
            )
        lines.append("")
        return "\n".join(lines).encode("ascii")
    if fmt == "bt1-bin":
        out = bytearray(BT1_MAGIC)
        out += _U64.pack(len(records))
        for r in records:
            out += _BT1_REC.pack(r.ip, r.target, r.seq, KIND_TO_CODE[r.kind], 1 if r.taken else 0)
        return bytes(out)
    raise ArgumentError(f"unknown branch trace format {fmt!r}")


def read_branch_trace(data: bytes) -> list[BranchRecord]:
    fmt = detect_format(data)
    if fmt == "bt1-text":
        return _read_bt1_text(data)
    if fmt == "bt1-bin":
        return _read_bt1_bin(data)
    raise ArgumentError(f"{fmt} holds instructions; load_branch_trace projects their branches")


def _read_bt1_text(data: bytes) -> list[BranchRecord]:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        raise FormatError(f"bt1-text is not ascii: {e}") from None
    lines = text.split("\n")
    if not lines or lines[0] != "BT1":
        raise FormatError("missing BT1 header line")
    records: list[BranchRecord] = []
    last_seq = -1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise CorruptTrace(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            seq = int(parts[0])
            ip = int(parts[1], 16)
            kind = BranchKind(parts[2])
            target = int(parts[3], 16)
        except ValueError as e:
            raise CorruptTrace(f"line {lineno}: {e}") from None
        if parts[4] not in ("0", "1"):
            raise CorruptTrace(f"line {lineno}: taken must be 0 or 1, got {parts[4]!r}")
        rec = BranchRecord(seq=seq, ip=ip, kind=kind, target=target, taken=parts[4] == "1")
        _validate_rec(rec, f"line {lineno}", last_seq)
        last_seq = seq
        records.append(rec)
    return records


def _read_bt1_bin(data: bytes) -> list[BranchRecord]:
    if not data.startswith(BT1_MAGIC):
        raise FormatError("missing BT01 magic")
    if len(data) < len(BT1_MAGIC) + 8:
        raise CorruptTrace("truncated header")
    (count,) = _U64.unpack_from(data, len(BT1_MAGIC))
    off = len(BT1_MAGIC) + 8
    expected = off + count * _BT1_REC.size
    if len(data) != expected:
        raise CorruptTrace(f"payload is {len(data)} bytes, header implies {expected}")
    records: list[BranchRecord] = []
    last_seq = -1
    for i in range(count):
        ip, target, seq, kind_code, taken = _BT1_REC.unpack_from(data, off)
        off += _BT1_REC.size
        if kind_code not in CODE_TO_KIND:
            raise CorruptTrace(f"record {i}: unknown kind code {kind_code}")
        if taken not in (0, 1):
            raise CorruptTrace(f"record {i}: taken byte {taken} not 0/1")
        rec = BranchRecord(seq=seq, ip=ip, kind=CODE_TO_KIND[kind_code], target=target, taken=bool(taken))
        _validate_rec(rec, f"record {i}", last_seq)
        last_seq = seq
        records.append(rec)
    return records


# ---------------------------------------------------------------- IT1

def write_instr_trace(records: Iterable[InstructionRecord], fmt: str = "it1-jsonl") -> bytes:
    records = list(records)
    _check_order(records)
    if fmt == "it1-jsonl":
        lines = [json.dumps({"format": "IT1", "instructions": len(records)}, separators=(",", ":"))]
        for r in records:
            lines.append(json.dumps(_instr_to_obj(r), separators=(",", ":")))
        lines.append("")
        return "\n".join(lines).encode("ascii")
    if fmt == "it1-bin":
        out = bytearray(IT1_MAGIC)
        out += _U64.pack(len(records))
        for r in records:
            _pack_instr(out, r)
        return bytes(out)
    raise ArgumentError(f"unknown instruction trace format {fmt!r}")


def read_instr_trace(data: bytes) -> list[InstructionRecord]:
    fmt = detect_format(data)
    if fmt == "it1-jsonl":
        return _read_it1_jsonl(data)
    if fmt == "it1-bin":
        return _read_it1_bin(data)
    raise ArgumentError(f"{fmt} is a branch-level trace; instruction records unavailable")


def _instr_to_obj(r: InstructionRecord) -> dict:
    obj: dict = {"seq": r.seq, "ip": f"{r.ip:#x}", "is_branch": r.is_branch}
    if r.is_branch:
        assert r.kind is not None and r.target is not None
        obj["kind"] = r.kind.value
        obj["target"] = f"{r.target:#x}"
        obj["taken"] = bool(r.taken)
    if r.regs_read:
        obj["regs_read"] = sorted(r.regs_read)
    if r.regs_written:
        obj["regs_written"] = [[reg, val] for reg, val in r.regs_written]
    if r.mem_read:
        obj["mem_read"] = sorted(r.mem_read)
    if r.mem_written:
        obj["mem_written"] = sorted(r.mem_written)
    return obj


def _instr_from_obj(obj: dict, where: str) -> InstructionRecord:
    # fields are read in InstructionRecord's order, so the first bad one
    # names the error; an empty operand set is the shared EMPTY_INT_SET
    try:
        is_branch = bool(obj["is_branch"])
        seq = int(obj["seq"])
        ip = obj["ip"]
        ip = int(ip, 16) if isinstance(ip, str) else int(ip)
        kind = target = taken = None
        if is_branch:
            kind = BranchKind(obj["kind"])
            target = obj["target"]
            target = int(target, 16) if isinstance(target, str) else int(target)
            taken = bool(obj["taken"])
        get = obj.get
        return InstructionRecord(
            seq, ip, is_branch, kind, target, taken,
            frozenset(map(int, get("regs_read", ()))) or EMPTY_INT_SET,
            tuple([(int(reg), int(val)) for reg, val in get("regs_written", ())]),
            frozenset(map(int, get("mem_read", ()))) or EMPTY_INT_SET,
            frozenset(map(int, get("mem_written", ()))) or EMPTY_INT_SET,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptTrace(f"{where}: {e!r}") from None


_scan_json = json.JSONDecoder().scan_once


def _json_line(line: str):
    """``json.loads(line)``. A line that is one JSON value and nothing else
    is scanned directly, without the whitespace matches around it; any
    other line goes to ``json.loads``, which accepts or rejects it."""
    try:
        obj, end = _scan_json(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError):
        pass
    return json.loads(line)


def _read_it1_jsonl(data: bytes) -> list[InstructionRecord]:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        raise FormatError(f"it1-jsonl is not ascii: {e}") from None
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise FormatError("empty stream")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise FormatError(f"bad header line: {e}") from None
    if not isinstance(header, dict) or header.get("format") != "IT1":
        raise FormatError("header does not declare IT1")
    declared = header.get("instructions")
    records: list[InstructionRecord] = []
    last_seq = -1
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            obj = _json_line(line)
        except json.JSONDecodeError as e:
            raise CorruptTrace(f"line {lineno}: {e}") from None
        rec = _instr_from_obj(obj, f"line {lineno}")
        _validate_rec(rec, f"line {lineno}", last_seq)
        last_seq = rec.seq
        records.append(rec)
    if declared != len(records):
        raise CorruptTrace(f"header declares {declared} instructions, stream has {len(records)}")
    return records


def _pack_instr(out: bytearray, r: InstructionRecord) -> None:
    out += _U64.pack(r.seq)
    out += _U64.pack(r.ip)
    out.append(1 if r.is_branch else 0)
    if r.is_branch:
        assert r.kind is not None and r.target is not None
        out.append(KIND_TO_CODE[r.kind])
        out += _U64.pack(r.target)
        out.append(1 if r.taken else 0)
    for name, vals in (("regs_read", sorted(r.regs_read)), ("regs_written", r.regs_written),
                       ("mem_read", sorted(r.mem_read)), ("mem_written", sorted(r.mem_written))):
        if len(vals) > 255:
            raise ArgumentError(f"{name} cardinality {len(vals)} exceeds u8 at seq {r.seq}")
        out.append(len(vals))
        if name == "regs_read":
            out += bytes(vals)
        elif name == "regs_written":
            for reg, val in vals:
                out.append(reg)
                out += _U64.pack(val)
        else:
            for v in vals:
                out += _U64.pack(v)


def _read_it1_bin(data: bytes) -> list[InstructionRecord]:
    if not data.startswith(IT1_MAGIC):
        raise FormatError("missing IT01 magic")
    end = len(data)
    off = len(IT1_MAGIC) + 8
    if off > end:
        raise CorruptTrace(f"truncated stream at offset {len(IT1_MAGIC)}")
    (count,) = _U64.unpack_from(data, len(IT1_MAGIC))
    head = _IT1_HEAD.unpack_from
    tail = _IT1_BRANCH.unpack_from
    pair = _IT1_PAIR.unpack_from
    u64s = struct.unpack_from
    kinds = CODE_TO_KIND.get
    cond = BranchKind.COND
    empty = EMPTY_INT_SET
    records: list[InstructionRecord] = []
    last_seq = -1
    for i in range(count):
        start = off
        try:
            seq, ip, is_branch = head(data, off)
            off += _IT1_HEAD.size
            kind = target = taken = None
            if is_branch:
                kind_code, target, taken = tail(data, off)
                off += _IT1_BRANCH.size
                kind = kinds(kind_code)
            n = data[off]
            regs_read = frozenset(data[off + 1:off + 1 + n]) if n else empty
            off += 1 + n
            n = data[off]
            regs_written = tuple([pair(data, off + 1 + 9 * k) for k in range(n)])
            off += 1 + 9 * n
            n = data[off]
            mem_read = frozenset(u64s(f"<{n}Q", data, off + 1)) if n else empty
            off += 1 + 8 * n
            n = data[off]
            mem_written = frozenset(u64s(f"<{n}Q", data, off + 1)) if n else empty
            off += 1 + 8 * n
        except (IndexError, struct.error):
            off = end + 1
        if off > end or is_branch > 1 or (is_branch and (kind is None or taken > 1)):
            _raise_it1_bin_record(data, start, i)
        if seq <= last_seq:
            raise CorruptTrace(f"record {i}: seq {seq} not greater than previous {last_seq}")
        last_seq = seq
        if is_branch:
            taken = taken == 1
            if kind is cond:
                if not (regs_read or mem_read):
                    raise CorruptTrace(f"record {i}: COND branch at seq {seq} reads nothing")
            elif not taken:
                raise CorruptTrace(f"record {i}: non-COND branch at seq {seq} marked not taken")
        records.append(InstructionRecord(seq, ip, is_branch == 1, kind, target, taken,
                                         regs_read, regs_written, mem_read, mem_written))
    if off != end:
        raise CorruptTrace(f"{end - off} trailing bytes after {count} records")
    return records


def _read_it1_bin_branches(data: bytes) -> tuple[list[BranchRecord], int]:
    """(branch records, instruction count) of an it1-bin stream, with every
    check of ``_read_it1_bin`` and the same errors. Operand payloads are
    stepped over by their count bytes; only branch records are built."""
    if not data.startswith(IT1_MAGIC):
        raise FormatError("missing IT01 magic")
    end = len(data)
    off = len(IT1_MAGIC) + 8
    if off > end:
        raise CorruptTrace(f"truncated stream at offset {len(IT1_MAGIC)}")
    (count,) = _U64.unpack_from(data, len(IT1_MAGIC))
    head = _IT1_HEAD.unpack_from
    tail = _IT1_BRANCH.unpack_from
    kinds = CODE_TO_KIND.get
    cond = BranchKind.COND
    branches: list[BranchRecord] = []
    last_seq = -1
    for i in range(count):
        start = off
        try:
            seq, ip, is_branch = head(data, off)
            off += _IT1_HEAD.size
            if is_branch:
                kind_code, target, taken = tail(data, off)
                off += _IT1_BRANCH.size
                kind = kinds(kind_code)
            n_regs = data[off]
            off += 1 + n_regs
            off += 1 + 9 * data[off]
            n_mem = data[off]
            off += 1 + 8 * n_mem
            off += 1 + 8 * data[off]
        except (IndexError, struct.error):
            off = end + 1
        if off > end or is_branch > 1 or (is_branch and (kind is None or taken > 1)):
            _raise_it1_bin_record(data, start, i)
        if seq <= last_seq:
            raise CorruptTrace(f"record {i}: seq {seq} not greater than previous {last_seq}")
        last_seq = seq
        if is_branch:
            if kind is cond:
                if not (n_regs or n_mem):
                    raise CorruptTrace(f"record {i}: COND branch at seq {seq} reads nothing")
            elif not taken:
                raise CorruptTrace(f"record {i}: non-COND branch at seq {seq} marked not taken")
            branches.append(BranchRecord(seq, ip, kind, target, taken == 1))
    if off != end:
        raise CorruptTrace(f"{end - off} trailing bytes after {count} records")
    return branches, count


def _raise_it1_bin_record(data: bytes, off: int, i: int) -> None:
    """Raise the error of it1-bin record ``i``, which starts at ``off`` and
    holds a bad byte or overruns the stream. The record is read field by
    field, as the format lays it out, so the error is its first bad byte
    ahead of any cut, or else the cut, named by the offset of the field the
    stream ends in."""
    end = len(data)

    def field(width: int) -> int:
        nonlocal off
        if off + width > end:
            raise CorruptTrace(f"truncated stream at offset {off}")
        off += width
        return data[off - width] if width else 0

    field(8)                                # seq
    field(8)                                # ip
    is_branch = field(1)
    if is_branch > 1:
        raise CorruptTrace(f"record {i}: is_branch byte {is_branch}")
    if is_branch:
        kind_code = field(1)
        if kind_code not in CODE_TO_KIND:
            raise CorruptTrace(f"record {i}: unknown kind code {kind_code}")
        field(8)                            # target
        taken = field(1)
        if taken > 1:
            raise CorruptTrace(f"record {i}: taken byte {taken}")
    field(field(1))                         # regs read
    for _ in range(field(1)):               # regs written
        field(1)
        field(8)
    for _ in range(2):                      # mem read, mem written
        for _ in range(field(1)):
            field(8)
    raise AssertionError(f"it1-bin record {i} at offset {off} is well formed")


# ---------------------------------------------------------------- shared

def _check_order(records: list) -> None:
    last = -1
    for r in records:
        if r.seq <= last:
            raise ArgumentError(f"records not strictly increasing in seq at {r.seq}")
        last = r.seq


def _validate_rec(rec, where: str, last_seq: int) -> None:
    if rec.seq <= last_seq:
        raise CorruptTrace(f"{where}: seq {rec.seq} not greater than previous {last_seq}")
    try:
        rec.validate()
    except ValueError as e:
        raise CorruptTrace(f"{where}: {e}") from None


def project_branches(instrs: Iterable[InstructionRecord]) -> list[BranchRecord]:
    """Project an instruction trace down to its branch trace."""
    return [r.to_branch() for r in instrs if r.is_branch]


# ---------------------------------------------------------------- paths

def save_trace(path: str | Path, records: list, fmt: str | None = None) -> None:
    """Write a trace in ``fmt``, by default the one the extension names.
    Instruction records written to a BT1 format are projected to their
    branches; branch records cannot make an IT1 trace."""
    path = Path(path)
    fmt = fmt or format_for_path(path)
    instrs = bool(records) and isinstance(records[0], InstructionRecord)
    if fmt in BRANCH_FORMATS:
        data = write_branch_trace(project_branches(records) if instrs else records, fmt)
    elif fmt in INSTR_FORMATS:
        if records and not instrs:
            raise ArgumentError(f"{fmt} holds instruction records; got branch records for {path}")
        data = write_instr_trace(records, fmt)
    else:
        raise ArgumentError(f"unknown trace format {fmt!r}")
    path.write_bytes(data)


def load_branch_trace(path: str | Path) -> tuple[list[BranchRecord], int]:
    """(branch records, instruction count) of any trace file.

    A BT1 trace does not record its instruction count, so it is the last
    seq + 1 (0 when empty). An it1-jsonl trace is read whole and projected;
    an it1-bin trace is walked for its branches only. A format or
    corruption error names the file."""
    data = Path(path).read_bytes()
    try:
        fmt = detect_format(data)
        if fmt == "it1-bin":
            return _read_it1_bin_branches(data)
        if fmt == "it1-jsonl":
            instrs = read_instr_trace(data)
            return project_branches(instrs), len(instrs)
        records = read_branch_trace(data)
    except (FormatError, CorruptTrace) as e:
        raise type(e)(f"{path}: {e}") from None
    return records, (records[-1].seq + 1 if records else 0)


def load_instr_trace(path: str | Path) -> list[InstructionRecord]:
    """The instruction records of an IT1 file. A format or corruption error
    names the file."""
    data = Path(path).read_bytes()
    try:
        if detect_format(data) in BRANCH_FORMATS:
            raise ArgumentError(f"{path} is a branch-level trace; instruction records unavailable")
        return read_instr_trace(data)
    except (FormatError, CorruptTrace) as e:
        raise type(e)(f"{path}: {e}") from None
