"""Tests for the verifier's pointer table and HQ-CFI policy."""

from hypothesis import given, settings, strategies as st

from repro.cfi.hq_cfi import HQCFIPolicy
from repro.cfi.pointer_table import PointerTable
from repro.core import messages as msg
from repro.core.policy import Violation


class TestPointerTable:
    def test_define_then_check_passes(self):
        table = PointerTable()
        table.define(0x100, 0x4000)
        assert table.check(0x100, 0x4000) is None

    def test_check_wrong_value_fails(self):
        table = PointerTable()
        table.define(0x100, 0x4000)
        error = table.check(0x100, 0x5000)
        assert error is not None and "mismatch" in error

    def test_check_undefined_is_uaf_class(self):
        table = PointerTable()
        assert "use-after-free" in table.check(0x100, 0x4000)

    def test_redefine_overwrites(self):
        table = PointerTable()
        table.define(0x100, 1)
        table.define(0x100, 2)
        assert table.check(0x100, 2) is None

    def test_invalidate_removes(self):
        table = PointerTable()
        table.define(0x100, 1)
        table.invalidate(0x100)
        assert table.check(0x100, 1) is not None

    def test_invalidate_absent_is_noop(self):
        PointerTable().invalidate(0x100)  # must not raise

    def test_check_invalidate_consumes_on_success(self):
        table = PointerTable()
        table.define(0x100, 1)
        assert table.check_invalidate(0x100, 1) is None
        assert 0x100 not in table

    def test_check_invalidate_keeps_on_failure(self):
        table = PointerTable()
        table.define(0x100, 1)
        assert table.check_invalidate(0x100, 2) is not None
        assert 0x100 in table

    def test_block_copy_moves_entries(self):
        table = PointerTable()
        table.define(0x100, 0xA)
        table.define(0x108, 0xB)
        moved = table.block_copy(0x100, 0x200, 16)
        assert moved == 2
        assert table.get(0x200) == 0xA
        assert table.get(0x208) == 0xB
        assert table.get(0x100) == 0xA  # copy keeps the source

    def test_block_copy_invalidates_preexisting_destination(self):
        table = PointerTable()
        table.define(0x200, 0xDEAD)  # stale pointer at destination
        table.define(0x208, 0xBEEF)
        table.block_copy(0x100, 0x200, 16)  # source range is empty
        assert 0x200 not in table
        assert 0x208 not in table

    def test_block_copy_overlapping_ranges(self):
        table = PointerTable()
        table.define(0x100, 0xA)
        table.define(0x108, 0xB)
        table.block_copy(0x100, 0x108, 16)
        assert table.get(0x108) == 0xA
        assert table.get(0x110) == 0xB

    def test_block_move_removes_source(self):
        table = PointerTable()
        table.define(0x100, 0xA)
        table.block_move(0x100, 0x300, 8)
        assert 0x100 not in table
        assert table.get(0x300) == 0xA

    def test_block_move_intersecting_falls_back_to_copy(self):
        table = PointerTable()
        table.define(0x100, 0xA)
        table.block_move(0x100, 0x104, 16)
        assert table.get(0x104) == 0xA

    def test_block_invalidate_range(self):
        table = PointerTable()
        table.define(0x100, 1)
        table.define(0x108, 2)
        table.define(0x120, 3)  # outside
        doomed = table.block_invalidate(0x100, 16)
        assert doomed == 2
        assert 0x120 in table and 0x100 not in table

    def test_copy_is_independent(self):
        table = PointerTable()
        table.define(0x100, 1)
        clone = table.copy()
        clone.define(0x200, 2)
        assert 0x200 not in table
        assert len(clone) == 2


class TestHQCFIPolicy:
    def test_define_check_flow(self):
        policy = HQCFIPolicy()
        assert policy.handle(msg.pointer_define(0x10, 0x20)) is None
        assert policy.handle(msg.pointer_check(0x10, 0x20)) is None

    def test_corruption_detected(self):
        policy = HQCFIPolicy()
        policy.handle(msg.pointer_define(0x10, 0x20))
        check = msg.pointer_check(0x10, 0x666).with_transport(42, 7)
        violation = policy.handle(check)
        assert isinstance(violation, Violation)
        assert violation.kind == "cfi-pointer-integrity"
        # handle() stamps the evidence as the verifier does.
        assert violation.pid == 42
        assert violation.message is check

    def test_use_after_free_detected_and_counted(self):
        policy = HQCFIPolicy()
        policy.handle(msg.pointer_define(0x10, 0x20))
        policy.handle(msg.pointer_block_invalidate(0x10, 8))  # free
        violation = policy.handle(msg.pointer_check(0x10, 0x20))
        assert violation is not None
        assert policy.use_after_free_hits == 1

    def test_block_copy_preserves_checkability(self):
        policy = HQCFIPolicy()
        policy.handle(msg.pointer_define(0x100, 0xAA))
        policy.handle(msg.pointer_block_copy(0x100, 0x200, 8))
        assert policy.handle(msg.pointer_check(0x200, 0xAA)) is None

    def test_check_invalidate_epilogue_flow(self):
        policy = HQCFIPolicy()
        policy.handle(msg.pointer_define(0x7FF0, 0x400040))
        assert policy.handle(
            msg.pointer_check_invalidate(0x7FF0, 0x400040)) is None
        # Second use of the same slot without a define: gone.
        assert policy.handle(
            msg.pointer_check_invalidate(0x7FF0, 0x400040)) is not None

    def test_unrelated_ops_ignored(self):
        policy = HQCFIPolicy()
        assert policy.handle(msg.event(1, 1)) is None
        assert policy.handle(msg.allocation_check(0x10)) is None

    def test_clone_deep_copies_table(self):
        policy = HQCFIPolicy()
        policy.handle(msg.pointer_define(0x10, 0x20))
        child = policy.clone()
        child.handle(msg.pointer_invalidate(0x10))
        assert policy.handle(msg.pointer_check(0x10, 0x20)) is None

    def test_entry_count_tracks_table(self):
        policy = HQCFIPolicy()
        assert policy.entry_count() == 0
        policy.handle(msg.pointer_define(0x10, 0x20))
        assert policy.entry_count() == 1


@settings(max_examples=60)
@given(st.lists(st.tuples(
    st.sampled_from(["define", "invalidate", "block_invalidate"]),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=2**32)), max_size=50))
def test_pointer_table_matches_reference_model(operations):
    """The table agrees with a plain-dict reference for scalar ops."""
    table = PointerTable()
    model = {}
    for op, slot_index, value in operations:
        address = 0x1000 + slot_index * 8
        if op == "define":
            table.define(address, value)
            model[address] = value
        elif op == "invalidate":
            table.invalidate(address)
            model.pop(address, None)
        else:
            table.block_invalidate(address, 16)
            model.pop(address, None)
            model.pop(address + 8, None)
    assert dict(table.items()) == model


@settings(max_examples=60)
@given(entries=st.dictionaries(st.integers(min_value=0, max_value=30),
                               st.integers(min_value=1, max_value=2**32),
                               max_size=16),
       src=st.integers(min_value=0, max_value=20),
       dst=st.integers(min_value=0, max_value=20),
       size_words=st.integers(min_value=1, max_value=10))
def test_block_copy_semantics_property(entries, src, dst, size_words):
    """After block-copy: dst range mirrors the src range's old entries,
    and entries outside both ranges are untouched."""
    table = PointerTable()
    for slot, value in entries.items():
        table.define(0x1000 + slot * 8, value)
    src_addr, dst_addr = 0x1000 + src * 8, 0x1000 + dst * 8
    size = size_words * 8
    before = dict(table.items())
    table.block_copy(src_addr, dst_addr, size)
    after = dict(table.items())
    for address, value in before.items():
        in_src = src_addr <= address < src_addr + size
        in_dst = dst_addr <= address < dst_addr + size
        if in_src:
            assert after.get(dst_addr + (address - src_addr)) == value
        if not in_dst and not in_src:
            assert after.get(address) == value
    for address in after:
        if dst_addr <= address < dst_addr + size:
            source = src_addr + (address - dst_addr)
            assert before.get(source) == after[address]
