"""Record-type validation rules and branch projection."""

import pytest

from branchlab.records import BranchKind, BranchRecord, InstructionRecord


def cond(seq, ip=0x1000, taken=True):
    return BranchRecord(seq=seq, ip=ip, kind=BranchKind.COND, target=ip + 0x40, taken=taken)


class TestBranchRecord:
    def test_valid_cond_passes(self):
        cond(0, taken=False).validate()

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            cond(-1).validate()

    def test_ip_out_of_u64_rejected(self):
        r = BranchRecord(seq=0, ip=1 << 64, kind=BranchKind.COND, target=0, taken=True)
        with pytest.raises(ValueError):
            r.validate()

    def test_non_cond_not_taken_rejected(self):
        r = BranchRecord(seq=0, ip=0x10, kind=BranchKind.UNCOND, target=0x20, taken=False)
        with pytest.raises(ValueError):
            r.validate()

    @pytest.mark.parametrize("kind", [BranchKind.UNCOND, BranchKind.CALL, BranchKind.RET, BranchKind.INDIRECT])
    def test_non_cond_taken_ok(self, kind):
        BranchRecord(seq=3, ip=0x10, kind=kind, target=0x20, taken=True).validate()


class TestInstructionRecord:
    def test_plain_instruction_ok(self):
        InstructionRecord(seq=0, ip=0x100, regs_written=((3, 7),)).validate()

    def test_branch_missing_fields_rejected(self):
        r = InstructionRecord(seq=0, ip=0x100, is_branch=True)
        with pytest.raises(ValueError):
            r.validate()

    def test_cond_reading_nothing_rejected(self):
        r = InstructionRecord(
            seq=0, ip=0x100, is_branch=True, kind=BranchKind.COND,
            target=0x140, taken=True,
        )
        with pytest.raises(ValueError):
            r.validate()

    def test_cond_with_memory_read_only_ok(self):
        InstructionRecord(
            seq=0, ip=0x100, is_branch=True, kind=BranchKind.COND,
            target=0x140, taken=False, mem_read=frozenset((0xdead,)),
        ).validate()

    def test_register_id_range_enforced(self):
        r = InstructionRecord(seq=0, ip=0x100, regs_written=((256, 1),))
        with pytest.raises(ValueError):
            r.validate()

    def test_to_branch_projects_fields(self):
        r = InstructionRecord(
            seq=9, ip=0x200, is_branch=True, kind=BranchKind.COND,
            target=0x240, taken=False, regs_read=frozenset((1,)),
        )
        b = r.to_branch()
        assert b == BranchRecord(seq=9, ip=0x200, kind=BranchKind.COND, target=0x240, taken=False)

    def test_to_branch_on_non_branch_rejected(self):
        with pytest.raises(ValueError):
            InstructionRecord(seq=0, ip=0x100).to_branch()
