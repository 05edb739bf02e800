"""Simulated process memory with page-granularity protections.

The paper's target machine is an x86_64 host whose MMU enforces
inter-process isolation and, under AppendWrite-uarch, rejects ordinary
writes to *appendable memory region* (AMR) pages (section 2.3.2).  This
module provides the equivalent functional model: a sparse, word-granular
memory with page protections, used by every simulated process.

Addresses are byte addresses, but storage is word-granular (8-byte words,
matching the paper's 8-byte operation arguments).  This is sufficient for
every policy in the paper, all of which reason about pointer-sized values.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

PAGE_SIZE = 4096
WORD_SIZE = 8

#: Page protection bits.
PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4
#: AMR pages may only be written via the AppendWrite instruction
#: (kernel/AppendWrite hardware bypass normal protection checks).
PROT_AMR = 8


class MemoryError_(Exception):
    """Base class for simulated memory faults."""


class SegmentationFault(MemoryError_):
    """Access to unmapped memory or a protection violation.

    Equivalent to SIGSEGV delivered by the host MMU.
    """

    def __init__(self, address: int, access: str, reason: str = "") -> None:
        self.address = address
        self.access = access
        self.reason = reason
        detail = f" ({reason})" if reason else ""
        super().__init__(f"segfault: {access} at {address:#x}{detail}")


class AMRWriteFault(SegmentationFault):
    """Ordinary (non-AppendWrite) store targeting an AMR page.

    Under AppendWrite-uarch, "other unprivileged writes to AMR memory
    pages must be rejected by the MMU" (section 2.3.2).
    """

    def __init__(self, address: int) -> None:
        super().__init__(address, "write", "ordinary store to AMR page")


def page_of(address: int) -> int:
    """Return the page number containing ``address``."""
    return address // PAGE_SIZE


def align_up(address: int, alignment: int = PAGE_SIZE) -> int:
    """Round ``address`` up to the next multiple of ``alignment``."""
    return (address + alignment - 1) // alignment * alignment


def align_word(address: int) -> int:
    """Round ``address`` down to word granularity."""
    return address - (address % WORD_SIZE)


@dataclass
class Mapping:
    """A contiguous virtual mapping, as created by ``mmap``/``brk``."""

    start: int
    size: int
    prot: int
    name: str = ""

    @property
    def end(self) -> int:
        return self.start + self.size


def _drop_keys(table: Dict[int, int], lo: int, hi: int) -> None:
    """Delete every key of ``table`` in ``[lo, hi)``."""
    for key in [key for key in table if lo <= key < hi]:
        del table[key]


class _PageTable(dict):
    """Page number -> protection bits, memoised lazily from the mappings.

    The mappings (sorted by start) are the authority; entries are pages
    already resolved or changed by ``mprotect``.  Only a miss bisects,
    and only mapped pages are memoised.
    """

    __slots__ = ("starts", "mappings")

    def __init__(self) -> None:
        super().__init__()
        self.starts: List[int] = []
        self.mappings: List[Mapping] = []

    def mapping_at(self, address: int) -> Optional[Mapping]:
        i = bisect_right(self.starts, address) - 1
        if i >= 0 and address < self.mappings[i].end:
            return self.mappings[i]
        return None

    def __missing__(self, page: int) -> int:
        mapping = self.mapping_at(page * PAGE_SIZE)
        if mapping is None:
            return PROT_NONE
        prot = self[page] = mapping.prot
        return prot


class Memory:
    """Sparse word-granular memory with page protections.

    Words default to zero, like freshly mapped anonymous pages.  All
    reads/writes check page protections; the ``physical`` accessors
    bypass them and model DMA (FPGA writes to pinned host memory) or
    privileged kernel access.
    """

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}
        self._page_prot = _PageTable()
        #: Bumped on every protection change (map/unmap/mprotect) so
        #: callers that pre-validated a page range — the AppendWrite
        #: datapath — know when their validation went stale.
        self.prot_epoch = 0

    # -- mapping management -------------------------------------------------

    def map_region(self, start: int, size: int, prot: int, name: str = "") -> Mapping:
        """Map ``[start, start + size)`` with protection ``prot``.

        ``start`` must be page-aligned; ``size`` is rounded up to a whole
        number of pages.  Overlapping an existing mapping is an error,
        mirroring ``MAP_FIXED_NOREPLACE`` semantics.
        """
        if start % PAGE_SIZE != 0:
            raise ValueError(f"mapping start {start:#x} is not page-aligned")
        if size <= 0:
            raise ValueError("mapping size must be positive")
        new = Mapping(start, align_up(size), prot, name)
        table = self._page_prot
        i = bisect_right(table.starts, start)
        # Sorted and disjoint: only the bisect neighbours can overlap.
        for existing in table.mappings[max(i - 1, 0):i + 1]:
            if new.start < existing.end and existing.start < new.end:
                raise ValueError(
                    f"mapping {name!r} at {start:#x} overlaps {existing.name!r}"
                )
        table.starts.insert(i, start)
        table.mappings.insert(i, new)
        self.prot_epoch += 1
        return new

    def unmap_region(self, start: int) -> None:
        """Remove the mapping that begins at ``start`` and clear its pages."""
        table = self._page_prot
        i = bisect_left(table.starts, start)
        if i == len(table.starts) or table.starts[i] != start:
            raise ValueError(f"no mapping starts at {start:#x}")
        end = table.mappings[i].end
        del table.starts[i], table.mappings[i]
        _drop_keys(table, page_of(start), page_of(end))
        _drop_keys(self._words, start, end)
        self.prot_epoch += 1

    def protect_region(self, start: int, size: int, prot: int) -> None:
        """Change protections on pages covering ``[start, start + size)``.

        Atomic: an unmapped page in the range faults before any changes.
        """
        table = self._page_prot
        pages = range(page_of(start), page_of(start + size - 1) + 1)
        for page in pages:
            if page not in table and table.mapping_at(page * PAGE_SIZE) is None:
                raise SegmentationFault(page * PAGE_SIZE, "mprotect", "unmapped")
        table.update(dict.fromkeys(pages, prot))
        self.prot_epoch += 1

    def mapping_at(self, address: int) -> Optional[Mapping]:
        """Return the mapping containing ``address``, if any."""
        return self._page_prot.mapping_at(address)

    def mappings(self) -> Iterator[Mapping]:
        """The mappings in address order."""
        return iter(self._page_prot.mappings)

    def prot_of(self, address: int) -> int:
        """Return protection bits of the page containing ``address``."""
        return self._page_prot[address // PAGE_SIZE]

    def span_is_amr(self, start: int, end: int) -> bool:
        """True iff every page of ``[start, end)`` is ``PROT_AMR``.

        Lets the AppendWrite datapath validate its whole region once per
        :attr:`prot_epoch` instead of re-checking pages on every store.
        """
        page_prot = self._page_prot
        return all(page_prot[page] & PROT_AMR
                   for page in range(page_of(start), page_of(end - 1) + 1))

    # -- protected accessors (what program instructions use) ----------------

    def load(self, address: int) -> int:
        """Read the word at ``address`` subject to page protections."""
        if not self._page_prot[address // PAGE_SIZE] & PROT_READ:
            raise SegmentationFault(address, "read", "page not readable")
        return self._words.get(align_word(address), 0)

    def store(self, address: int, value: int) -> None:
        """Write the word at ``address`` subject to page protections.

        AMR pages reject ordinary stores — only :meth:`append_store`
        (the AppendWrite datapath) may write them.
        """
        prot = self._page_prot[address // PAGE_SIZE]
        if prot & PROT_AMR:
            raise AMRWriteFault(address)
        if not prot & PROT_WRITE:
            raise SegmentationFault(address, "write", "page not writable")
        self._words[align_word(address)] = value

    def append_store(self, address: int, value: int) -> None:
        """AppendWrite datapath store: allowed on AMR pages.

        The hardware "bypass[es] the TLB check for writable memory pages
        in the AMR" (section 3.1.2); any non-AMR target is rejected so a
        misconfigured AppendAddr cannot scribble on ordinary memory.
        """
        if not self._page_prot[address // PAGE_SIZE] & PROT_AMR:
            raise SegmentationFault(address, "append", "target is not an AMR page")
        self._words[align_word(address)] = value

    def fetch(self, address: int) -> int:
        """Instruction fetch: requires an executable page."""
        if not self._page_prot[address // PAGE_SIZE] & PROT_EXEC:
            raise SegmentationFault(address, "exec", "page not executable")
        return self._words.get(align_word(address), 0)

    # -- privileged accessors (kernel / DMA) ---------------------------------

    def load_physical(self, address: int) -> int:
        """Privileged read bypassing protections (kernel or device DMA)."""
        return self._words.get(align_word(address), 0)

    def store_physical(self, address: int, value: int) -> None:
        """Privileged write bypassing protections (kernel or device DMA)."""
        self._words[align_word(address)] = value

    # -- bulk word accessors (message-stream fast paths) ----------------------

    def load_words(self, address: int, n_words: int) -> "array":
        """Privileged bulk read of ``n_words`` consecutive words.

        The verifier's AMR drain: one ranged read replaces a
        :meth:`load_physical` call per word.  Returns a packed
        ``array('Q')``.
        """
        address = align_word(address)
        words = self._words
        span = range(address, address + n_words * WORD_SIZE, WORD_SIZE)
        try:
            # Fast path: every word present (always true for a region the
            # append datapath filled) — C-level map, no per-word bytecode.
            return array("Q", map(words.__getitem__, span))
        except KeyError:
            return array("Q", [words.get(a, 0) for a in span])

    def store_words(self, address: int, values: Sequence[int]) -> None:
        """Protection-checked bulk write of consecutive words.

        Checks each page boundary once instead of re-deriving the
        protection per word; AMR pages reject the whole write, like
        :meth:`store`.
        """
        if not values:
            return
        address = align_word(address)
        end = address + len(values) * WORD_SIZE
        for page in range(page_of(address), page_of(end - 1) + 1):
            prot = self._page_prot[page]
            if prot & PROT_AMR:
                raise AMRWriteFault(page * PAGE_SIZE)
            if not prot & PROT_WRITE:
                raise SegmentationFault(page * PAGE_SIZE, "write",
                                        "page not writable")
        words = self._words
        for i, value in enumerate(values):
            words[address + i * WORD_SIZE] = value

    def append_store_words(self, address: int, values: Sequence[int]) -> None:
        """AppendWrite datapath bulk store: one message (or more) of
        consecutive words onto AMR pages.

        Page protections are checked per page touched rather than per
        word; any non-AMR page in the range rejects the whole store,
        mirroring :meth:`append_store`.
        """
        if not values:
            return
        address = align_word(address)
        end = address + len(values) * WORD_SIZE
        page_prot = self._page_prot
        for page in range(page_of(address), page_of(end - 1) + 1):
            if not page_prot[page] & PROT_AMR:
                raise SegmentationFault(page * PAGE_SIZE, "append",
                                        "target is not an AMR page")
        words = self._words
        for i, value in enumerate(values):
            words[address + i * WORD_SIZE] = value

    # -- block helpers --------------------------------------------------------

    def load_block(self, address: int, n_words: int) -> List[int]:
        """Read ``n_words`` consecutive words starting at ``address``."""
        return [self.load(address + i * WORD_SIZE) for i in range(n_words)]

    def store_block(self, address: int, values: List[int]) -> None:
        """Write consecutive words starting at ``address``."""
        for i, value in enumerate(values):
            self.store(address + i * WORD_SIZE, value)

    def copy_block(self, src: int, dst: int, n_words: int) -> None:
        """memmove semantics: correct even for overlapping ranges."""
        values = [self.load(src + i * WORD_SIZE) for i in range(n_words)]
        for i, value in enumerate(values):
            self.store(dst + i * WORD_SIZE, value)

    def zero_block(self, address: int, n_words: int) -> None:
        """memset(0) over ``n_words`` words."""
        for i in range(n_words):
            self.store(address + i * WORD_SIZE, 0)
