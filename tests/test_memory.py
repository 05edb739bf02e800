"""Tests for the simulated paged memory (repro.sim.memory)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.memory import (
    AMRWriteFault,
    Mapping,
    Memory,
    PAGE_SIZE,
    PROT_AMR,
    PROT_EXEC,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    SegmentationFault,
    WORD_SIZE,
    align_up,
    align_word,
    page_of,
)
from repro.sim.process import HEAP_BASE, Process

RW = PROT_READ | PROT_WRITE
BASE = 0x10000


@pytest.fixture
def memory():
    mem = Memory()
    mem.map_region(BASE, PAGE_SIZE * 4, RW, "test")
    return mem


class TestMapping:
    def test_map_and_classify(self, memory):
        mapping = memory.mapping_at(BASE + 100)
        assert mapping is not None and mapping.name == "test"

    def test_unmapped_address_has_no_mapping(self, memory):
        assert memory.mapping_at(0x9999_0000) is None

    def test_map_requires_page_alignment(self):
        with pytest.raises(ValueError):
            Memory().map_region(BASE + 1, PAGE_SIZE, RW)

    def test_map_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Memory().map_region(BASE, 0, RW)

    def test_map_rejects_overlap(self, memory):
        with pytest.raises(ValueError):
            memory.map_region(BASE + PAGE_SIZE, PAGE_SIZE, RW, "overlap")

    def test_size_rounds_up_to_pages(self):
        mem = Memory()
        mapping = mem.map_region(BASE, 100, RW)
        assert mapping.size == PAGE_SIZE

    def test_unmap_clears_pages_and_contents(self, memory):
        memory.store(BASE, 42)
        memory.unmap_region(BASE)
        with pytest.raises(SegmentationFault):
            memory.load(BASE)

    def test_unmap_unknown_start_raises(self, memory):
        with pytest.raises(ValueError):
            memory.unmap_region(BASE + PAGE_SIZE)

    def test_protect_region_changes_permissions(self, memory):
        memory.protect_region(BASE, PAGE_SIZE, PROT_READ)
        assert memory.load(BASE) == 0
        with pytest.raises(SegmentationFault):
            memory.store(BASE, 1)

    def test_protect_unmapped_raises(self, memory):
        with pytest.raises(SegmentationFault):
            memory.protect_region(0x900_0000, PAGE_SIZE, RW)

    def test_protect_partly_unmapped_changes_nothing(self):
        # mprotect is atomic: the unmapped second page faults before the
        # mapped first page changes, and the epoch does not move.
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_READ | PROT_AMR, "amr")
        epoch = mem.prot_epoch
        with pytest.raises(SegmentationFault) as fault:
            mem.protect_region(BASE, 2 * PAGE_SIZE, RW)
        assert fault.value.address == BASE + PAGE_SIZE
        assert mem.prot_of(BASE) == PROT_READ | PROT_AMR
        assert mem.prot_epoch == epoch
        with pytest.raises(AMRWriteFault):
            mem.store(BASE, 1)

    def test_overlap_reports_bisect_neighbour(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, RW, "low")
        mem.map_region(BASE + 4 * PAGE_SIZE, PAGE_SIZE, RW, "high")
        with pytest.raises(ValueError, match="overlaps 'low'"):
            mem.map_region(BASE, PAGE_SIZE, RW, "again")
        with pytest.raises(ValueError, match="overlaps 'high'"):
            mem.map_region(BASE + 2 * PAGE_SIZE, 3 * PAGE_SIZE, RW, "mid")
        assert mem.mapping_at(BASE + 4 * PAGE_SIZE).name == "high"
        assert mem.mapping_at(BASE + 2 * PAGE_SIZE) is None
        assert [m.name for m in mem.mappings()] == ["low", "high"]


class TestFootprint:
    """Mapping costs no per-page state: protections resolve lazily."""

    def test_fresh_process_has_no_page_entries(self):
        assert len(Process().memory._page_prot) == 0

    def test_touched_pages_are_the_only_entries(self):
        process = Process()
        process.memory.store(HEAP_BASE + 8, 1)
        process.memory.load(HEAP_BASE + 3 * PAGE_SIZE)
        assert sorted(process.memory._page_prot) == [
            page_of(HEAP_BASE), page_of(HEAP_BASE) + 3]

    def test_unmapped_lookups_are_not_memoised(self, memory):
        with pytest.raises(SegmentationFault):
            memory.load(0x5000_0000)
        assert memory.prot_of(0x5000_0000) == PROT_NONE
        assert len(memory._page_prot) == 0

    def test_gigabyte_mapping_adds_no_page_state(self, memory):
        before = len(memory._page_prot)
        memory.map_region(0x1_0000_0000, 1 << 30, RW, "huge")
        assert len(memory._page_prot) == before
        memory.store(0x1_0000_0000 + (1 << 29), 5)
        assert memory.load(0x1_0000_0000 + (1 << 29)) == 5
        assert len(memory._page_prot) == before + 1


class TestAccess:
    def test_store_load_roundtrip(self, memory):
        memory.store(BASE + 8, 0xDEAD)
        assert memory.load(BASE + 8) == 0xDEAD

    def test_fresh_memory_reads_zero(self, memory):
        assert memory.load(BASE + 64) == 0

    def test_unaligned_access_uses_containing_word(self, memory):
        memory.store(BASE + 3, 7)
        assert memory.load(BASE) == 7

    def test_read_requires_read_permission(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_NONE)
        with pytest.raises(SegmentationFault):
            mem.load(BASE)

    def test_write_requires_write_permission(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_READ)
        with pytest.raises(SegmentationFault):
            mem.store(BASE, 1)

    def test_unmapped_read_faults(self, memory):
        with pytest.raises(SegmentationFault):
            memory.load(0x5000_0000)

    def test_fetch_requires_exec(self, memory):
        with pytest.raises(SegmentationFault):
            memory.fetch(BASE)

    def test_fetch_from_exec_page(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_READ | PROT_EXEC)
        assert mem.fetch(BASE) == 0

    def test_physical_access_bypasses_protections(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_NONE)
        mem.store_physical(BASE, 99)
        assert mem.load_physical(BASE) == 99


class TestAMR:
    """The appendable-memory-region protection (section 2.3.2)."""

    @pytest.fixture
    def amr(self):
        mem = Memory()
        mem.map_region(BASE, PAGE_SIZE, PROT_READ | PROT_AMR, "amr")
        return mem

    def test_ordinary_store_to_amr_rejected_by_mmu(self, amr):
        with pytest.raises(AMRWriteFault):
            amr.store(BASE, 1)

    def test_append_store_allowed_on_amr(self, amr):
        amr.append_store(BASE, 1234)
        assert amr.load(BASE) == 1234

    def test_append_store_rejected_on_ordinary_pages(self, memory):
        with pytest.raises(SegmentationFault):
            memory.append_store(BASE, 1)

    def test_amr_pages_remain_readable(self, amr):
        amr.append_store(BASE + 8, 5)
        assert amr.load(BASE + 8) == 5


class TestBlockOps:
    def test_store_load_block(self, memory):
        memory.store_block(BASE, [1, 2, 3])
        assert memory.load_block(BASE, 3) == [1, 2, 3]

    def test_copy_block_disjoint(self, memory):
        memory.store_block(BASE, [10, 20, 30])
        memory.copy_block(BASE, BASE + 64, 3)
        assert memory.load_block(BASE + 64, 3) == [10, 20, 30]

    def test_copy_block_overlapping_memmove_semantics(self, memory):
        memory.store_block(BASE, [1, 2, 3, 4])
        memory.copy_block(BASE, BASE + WORD_SIZE, 4)
        assert memory.load_block(BASE + WORD_SIZE, 4) == [1, 2, 3, 4]

    def test_zero_block(self, memory):
        memory.store_block(BASE, [9, 9, 9])
        memory.zero_block(BASE, 3)
        assert memory.load_block(BASE, 3) == [0, 0, 0]


class TestHelpers:
    def test_page_of(self):
        assert page_of(0) == 0
        assert page_of(PAGE_SIZE) == 1
        assert page_of(PAGE_SIZE - 1) == 0

    def test_align_up(self):
        assert align_up(1) == PAGE_SIZE
        assert align_up(PAGE_SIZE) == PAGE_SIZE
        assert align_up(0) == 0
        assert align_up(13, 8) == 16

    def test_align_word(self):
        assert align_word(13) == 8
        assert align_word(8) == 8


@settings(max_examples=60)
@given(values=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                       min_size=1, max_size=32),
       shift=st.integers(min_value=-16, max_value=16))
def test_copy_block_matches_python_semantics(values, shift):
    """memmove semantics hold for any overlap direction and distance."""
    mem = Memory()
    mem.map_region(0x20000, PAGE_SIZE * 2, RW)
    src = 0x20000 + 64 * WORD_SIZE
    dst = src + shift * WORD_SIZE
    mem.store_block(src, values)
    expected_src_view = list(values)
    mem.copy_block(src, dst, len(values))
    assert mem.load_block(dst, len(values)) == expected_src_view


@settings(max_examples=60)
@given(words=st.dictionaries(st.integers(min_value=0, max_value=255),
                             st.integers(min_value=0, max_value=2**64 - 1),
                             max_size=24))
def test_independent_words_do_not_interfere(words):
    mem = Memory()
    mem.map_region(0x30000, PAGE_SIZE, RW)
    for offset, value in words.items():
        mem.store(0x30000 + offset * WORD_SIZE, value)
    for offset, value in words.items():
        assert mem.load(0x30000 + offset * WORD_SIZE) == value


# -- differential test against a per-page reference model ---------------------

#: The window the differential test works in: small, so ops collide.
WINDOW_PAGES = 8
PROTS = (PROT_NONE, PROT_READ, RW, RW, PROT_READ | PROT_EXEC,
         PROT_READ | PROT_AMR, PROT_READ | PROT_AMR, RW | PROT_AMR)


class PageModel:
    """Reference: one protection entry per mapped page, filled eagerly."""

    def __init__(self):
        self.prot = {}
        self.words = {}
        self.mappings = {}  # start -> (end, name)
        self.prot_epoch = 0

    def map_region(self, start, size, prot, name=""):
        if start % PAGE_SIZE or size <= 0:
            raise ValueError(name)
        end = start + align_up(size)
        for other, (other_end, _) in self.mappings.items():
            if start < other_end and other < end:
                raise ValueError(name)
        self.mappings[start] = (end, name)
        for page in range(page_of(start), page_of(end)):
            self.prot[page] = prot
        self.prot_epoch += 1
        return Mapping(start, end - start, prot, name)

    def unmap_region(self, start):
        if start not in self.mappings:
            raise ValueError(start)
        end, _ = self.mappings.pop(start)
        for page in range(page_of(start), page_of(end)):
            del self.prot[page]
        self.words = {a: v for a, v in self.words.items()
                      if not start <= a < end}
        self.prot_epoch += 1

    def protect_region(self, start, size, prot):
        pages = range(page_of(start), page_of(start + size - 1) + 1)
        for page in pages:
            if page not in self.prot:
                raise SegmentationFault(page * PAGE_SIZE, "mprotect")
        for page in pages:
            self.prot[page] = prot
        self.prot_epoch += 1

    def _check(self, address, access, store):
        prot = self.prot.get(page_of(address), PROT_NONE)
        if access == "append":
            if not prot & PROT_AMR:
                raise SegmentationFault(address, "append")
        elif access == "write" and prot & PROT_AMR:
            raise AMRWriteFault(address)
        elif not prot & {"read": PROT_READ, "write": PROT_WRITE,
                         "exec": PROT_EXEC}[access]:
            raise SegmentationFault(address, access)
        if store is not None:
            self.words[align_word(address)] = store
        return self.words.get(align_word(address), 0)

    def load(self, address):
        return self._check(address, "read", None)

    def fetch(self, address):
        return self._check(address, "exec", None)

    def store(self, address, value):
        self._check(address, "write", value)

    def append_store(self, address, value):
        self._check(address, "append", value)

    def _bulk(self, address, values, access):
        address = align_word(address)
        pages = range(page_of(address),
                      page_of(address + len(values) * WORD_SIZE - 1) + 1)
        for page in pages:
            self._check(page * PAGE_SIZE, access, None)
        for i, value in enumerate(values):
            self.words[address + i * WORD_SIZE] = value

    def store_words(self, address, values):
        self._bulk(address, values, "write")

    def append_store_words(self, address, values):
        self._bulk(address, values, "append")

    def span_is_amr(self, start, end):
        return all(self.prot.get(page, PROT_NONE) & PROT_AMR
                   for page in range(page_of(start), page_of(end - 1) + 1))


def _outcome(call):
    try:
        return ("ok", call())
    except SegmentationFault as fault:
        return (type(fault), fault.address, fault.access)
    except ValueError:
        return (ValueError,)


_page = st.integers(min_value=0, max_value=WINDOW_PAGES - 1)
_page_start = _page.map(lambda page: page * PAGE_SIZE)
_address = st.builds(
    lambda base, offset: base + offset, _page_start,
    st.sampled_from((0, WORD_SIZE, PAGE_SIZE - WORD_SIZE))
    | st.integers(min_value=0, max_value=PAGE_SIZE - 1))
_start = _page_start | _address
_prot = st.sampled_from(PROTS)
_value = st.integers(min_value=0, max_value=2**64 - 1)
_values = st.integers(min_value=1, max_value=2 * PAGE_SIZE // WORD_SIZE).map(
    lambda n: list(range(1, n + 1)))

_map_args = st.tuples(_start, st.integers(min_value=-1,
                                          max_value=4 * PAGE_SIZE),
                      _prot, st.sampled_from("abc"))
_OPS = {
    "map_region": _map_args,
    # The flag picks an existing mapping's start instead (see below).
    "unmap_region": st.tuples(_start, st.booleans()),
    "protect_region": st.tuples(_start, st.integers(min_value=1,
                                                    max_value=4 * PAGE_SIZE),
                                _prot),
    "load": st.tuples(_address),
    "fetch": st.tuples(_address),
    "store": st.tuples(_address, _value),
    "append_store": st.tuples(_address, _value),
    "store_words": st.tuples(_address, _values),
    "append_store_words": st.tuples(_address, _values),
    "span_is_amr": st.tuples(_address, _address).map(sorted).map(
        lambda pair: (pair[0], pair[1] + 1)),
}
_op = st.one_of([args.map(lambda a, name=name: (name, a))
                 for name, args in _OPS.items()])


@settings(max_examples=150, deadline=None)
@given(maps=st.lists(_map_args.map(lambda a: ("map_region", a)),
                     min_size=1, max_size=6),
       ops=st.lists(_op, min_size=5, max_size=40))
def test_interval_protections_match_per_page_model(maps, ops):
    """Random op sequences: same values, faults and prot_epoch deltas."""
    mem, model = Memory(), PageModel()
    for name, args in maps + ops:
        if name == "unmap_region":
            start, existing = args
            if existing and model.mappings:
                starts = sorted(model.mappings)
                start = starts[start // PAGE_SIZE % len(starts)]
            args = (start,)
        epochs = (mem.prot_epoch, model.prot_epoch)
        got = _outcome(lambda: getattr(mem, name)(*args))
        want = _outcome(lambda: getattr(model, name)(*args))
        assert got == want, (name, args)
        assert (mem.prot_epoch - epochs[0]
                == model.prot_epoch - epochs[1]), (name, args)
        # Only mapped pages are ever memoised.
        assert all(page in model.prot for page in mem._page_prot)
    for page in range(WINDOW_PAGES + 4):
        assert mem.prot_of(page * PAGE_SIZE) == model.prot.get(page, PROT_NONE)
        mapping = mem.mapping_at(page * PAGE_SIZE)
        names = [name for start, (end, name) in model.mappings.items()
                 if start <= page * PAGE_SIZE < end]
        assert ([mapping.name] if mapping else []) == names
    n_words = (WINDOW_PAGES + 4) * PAGE_SIZE // WORD_SIZE
    assert list(mem.load_words(0, n_words)) == [
        model.words.get(i * WORD_SIZE, 0) for i in range(n_words)]
