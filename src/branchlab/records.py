"""Trace record types.

Two trace levels exist. A branch trace (BT1) carries only retired branch
events; an instruction trace (IT1) carries every retired instruction with
operand information, and projects down to a branch trace losslessly.

``seq`` is the retirement index of the instruction within the whole run, so
branch records in a BT1 stream are sparse but strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class BranchKind(Enum):
    COND = "COND"
    UNCOND = "UNCOND"
    CALL = "CALL"
    RET = "RET"
    INDIRECT = "INDIRECT"


# stable one-byte codes for the binary formats
KIND_TO_CODE = {
    BranchKind.COND: 0,
    BranchKind.UNCOND: 1,
    BranchKind.CALL: 2,
    BranchKind.RET: 3,
    BranchKind.INDIRECT: 4,
}
CODE_TO_KIND = {v: k for k, v in KIND_TO_CODE.items()}

_U64_MASK = (1 << 64) - 1

EMPTY_INT_SET: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class BranchRecord:
    """One retired branch. ``taken`` is meaningful only for COND and is
    fixed True for every other kind."""

    seq: int
    ip: int
    kind: BranchKind
    target: int
    taken: bool = True

    def validate(self) -> None:
        if self.seq < 0:
            raise ValueError(f"negative seq {self.seq}")
        if not (0 <= self.ip <= _U64_MASK) or not (0 <= self.target <= _U64_MASK):
            raise ValueError("ip/target out of u64 range")
        if self.kind is not BranchKind.COND and not self.taken:
            raise ValueError(f"non-COND branch at seq {self.seq} marked not taken")


@dataclass(frozen=True, slots=True)
class InstructionRecord:
    """One retired instruction with its operand footprint.

    ``regs_written`` is an ordered sequence of (register id, value written)
    pairs; the read/address fields are sets. Branch fields (kind, target,
    taken) are present only when ``is_branch`` is true.
    """

    seq: int
    ip: int
    is_branch: bool = False
    kind: BranchKind | None = None
    target: int | None = None
    taken: bool | None = None
    regs_read: frozenset[int] = EMPTY_INT_SET
    regs_written: tuple[tuple[int, int], ...] = ()
    mem_read: frozenset[int] = EMPTY_INT_SET
    mem_written: frozenset[int] = EMPTY_INT_SET

    def validate(self) -> None:
        if self.seq < 0:
            raise ValueError(f"negative seq {self.seq}")
        if self.is_branch:
            if self.kind is None or self.target is None or self.taken is None:
                raise ValueError(f"branch record at seq {self.seq} missing branch fields")
            if self.kind is BranchKind.COND and not self.regs_read and not self.mem_read:
                raise ValueError(f"COND branch at seq {self.seq} reads nothing")
            if self.kind is not BranchKind.COND and self.taken is False:
                raise ValueError(f"non-COND branch at seq {self.seq} marked not taken")
        for r in self.regs_read:
            if not (0 <= r < 256):
                raise ValueError(f"register id {r} out of range at seq {self.seq}")
        for r, _ in self.regs_written:
            if not (0 <= r < 256):
                raise ValueError(f"register id {r} out of range at seq {self.seq}")

    def to_branch(self) -> BranchRecord:
        if not self.is_branch:
            raise ValueError(f"instruction at seq {self.seq} is not a branch")
        assert self.kind is not None and self.target is not None
        return BranchRecord(
            seq=self.seq,
            ip=self.ip,
            kind=self.kind,
            target=self.target,
            taken=bool(self.taken),
        )


@dataclass(frozen=True, slots=True)
class TraceMeta:
    """Counts carried (or implied) by a trace stream. Generator provenance
    fields are populated only on freshly generated traces; the file formats
    do not persist them (the manifest does)."""

    format: str
    instructions: int
    records: int
    cond_branches: int
    seed: int | None = None
    program_spec_id: str | None = None

