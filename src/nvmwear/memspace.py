"""Physical memory model: page table, wear ground truth, frame pool.

The physical space mirrors the layout's virtual span one-to-one at start
(identity mapping), plus one dedicated buffer frame past the highest
segment.  When the layout has a stack segment, the virtual range one
stack-size below it is installed as a shadow alias: shadow page k maps to
the frame of real stack page k, so circular stack addressing needs no
extra page-table state.

Wear counts are the simulation's ground truth.  Every line write from any
source (application replay, remap copies, relocation copies) increments
exactly one per-line counter here.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .errors import LayoutError, SimulationError, UnmappedPageError
from .trace import MemoryLayout


class MemorySpace:
    def __init__(self, layout: MemoryLayout):
        self.layout = layout
        ps = layout.page_size
        ls = layout.line_size
        self.page_size = ps
        self.line_size = ls
        self.lines_per_page = ps // ls
        self.page_shift = ps.bit_length() - 1
        self.line_shift = ls.bit_length() - 1

        stack = layout.segment("stack")
        lo = layout.segments[0].start
        hi = layout.segments[-1].end
        if stack is not None:
            if stack.start - stack.size < 1 << 32:
                raise LayoutError("no room for a shadow region below the stack")
            lo = min(lo, stack.start - stack.size)
        self.base = lo
        self.buffer_page_addr = hi
        self.n_pages = (hi + ps - lo) // ps
        self.n_lines = self.n_pages * self.lines_per_page

        # frames[p] is the physical frame backing virtual page p, -1 if
        # unmapped; page_of_frame[f] is the canonical (non-shadow) page.
        self.frames = np.full(self.n_pages, -1, dtype=np.int64)
        self.page_of_frame = np.full(self.n_pages, -1, dtype=np.int64)
        pool: List[int] = []
        for seg in layout.segments:
            for p in range((seg.start - lo) // ps, (seg.end - lo) // ps):
                self.frames[p] = p
                self.page_of_frame[p] = p
                pool.append(p)
        self.pool_frames = np.array(pool, dtype=np.int64)
        self.buffer_frame = (hi - lo) // ps

        self.shadow_lo = self.shadow_hi = None
        if stack is not None:
            self.shadow_lo = stack.start - stack.size
            self.shadow_hi = stack.start
            self._shadow_page0 = (self.shadow_lo - lo) // ps
            self._stack_page0 = (stack.start - lo) // ps
            self._stack_pages = stack.size // ps
            for k in range(self._stack_pages):
                self.frames[self._shadow_page0 + k] = \
                    self.frames[self._stack_page0 + k]

        self.wear = np.zeros(self.n_lines, dtype=np.int64)
        self.image: Dict[int, int] = {}
        self.has_word = np.zeros(self.n_lines, dtype=bool)

    # ------------------------------------------------------------------
    # translation

    def vpage(self, vaddr: int) -> int:
        return (vaddr - self.base) >> self.page_shift

    def translate(self, vaddr: int) -> int:
        """Virtual address -> physical byte address."""
        p = (vaddr - self.base) >> self.page_shift
        if p < 0 or p >= self.n_pages:
            raise UnmappedPageError("address 0x%x outside the mapped span"
                                    % vaddr)
        f = self.frames[p]
        if f < 0:
            raise UnmappedPageError("address 0x%x hits an unmapped page"
                                    % vaddr)
        return self.base + (int(f) << self.page_shift) \
            + ((vaddr - self.base) & (self.page_size - 1))

    def line_index(self, vaddr: int) -> int:
        """Virtual address -> dense physical line index."""
        p = (vaddr - self.base) >> self.page_shift
        if p < 0 or p >= self.n_pages:
            raise UnmappedPageError("address 0x%x outside the mapped span"
                                    % vaddr)
        f = int(self.frames[p])
        if f < 0:
            raise UnmappedPageError("address 0x%x hits an unmapped page"
                                    % vaddr)
        return f * self.lines_per_page \
            + (((vaddr - self.base) >> self.line_shift)
               & (self.lines_per_page - 1))

    def phys_line(self, paddr: int) -> int:
        return (paddr - self.base) >> self.line_shift

    def is_shadow_page(self, vaddr: int) -> bool:
        return (self.shadow_lo is not None
                and self.shadow_lo <= vaddr < self.shadow_hi)

    # ------------------------------------------------------------------
    # materialized words; at most one 8-byte word per line, at the base

    def word(self, dense_line: int) -> Optional[int]:
        return self.image.get(dense_line)

    def set_word(self, dense_line: int, value: int):
        self.image[dense_line] = value
        self.has_word[dense_line] = True

    def clear_word(self, dense_line: int):
        if self.has_word[dense_line]:
            del self.image[dense_line]
            self.has_word[dense_line] = False

    # ------------------------------------------------------------------
    # write accounting

    def record_write(self, phys_addr: int, value: Optional[int] = None):
        """Charge one line write at a physical address, storing the payload.

        A write with no payload leaves the whole line as zero bytes, so
        any previously materialized word on that line is dropped.
        """
        line = (phys_addr - self.base) >> self.line_shift
        self.wear[line] += 1
        if value is not None:
            self.set_word(line, value)
        else:
            self.clear_word(line)

    def copy_frame(self, src_frame: int, dst_frame: int) -> int:
        """Copy one frame's content onto another, charging the destination.

        Returns the number of line writes charged (lines per page).
        """
        lpp = self.lines_per_page
        s0 = src_frame * lpp
        d0 = dst_frame * lpp
        self.wear[d0:d0 + lpp] += 1
        for i in range(lpp):
            w = self.image.get(s0 + i)
            if w is None:
                self.clear_word(d0 + i)
            else:
                self.set_word(d0 + i, w)
        return lpp

    def charge_page_copy(self, src_page_addr: int, dst_page_addr: int) -> int:
        """Copy between two mapped virtual pages; returns lines charged."""
        src = self._mapped_frame(src_page_addr)
        dst = self._mapped_frame(dst_page_addr)
        return self.copy_frame(src, dst)

    # ------------------------------------------------------------------
    # remapping

    def _mapped_frame(self, page_addr: int) -> int:
        p = (page_addr - self.base) >> self.page_shift
        if p < 0 or p >= self.n_pages or self.frames[p] < 0:
            raise UnmappedPageError("page 0x%x is not mapped" % page_addr)
        return int(self.frames[p])

    def swap_frames(self, page_a_addr: int, page_b_addr: int):
        """Exchange the frames of two non-shadow pages.

        Shadow aliases of real stack pages follow the swap, so a shadow
        address keeps resolving to the same physical content as its real
        counterpart.
        """
        for page_addr in (page_a_addr, page_b_addr):
            if self.is_shadow_page(page_addr):
                raise SimulationError(
                    "cannot swap shadow page 0x%x directly" % page_addr)
        pa = (page_a_addr - self.base) >> self.page_shift
        pb = (page_b_addr - self.base) >> self.page_shift
        fa = self._mapped_frame(page_a_addr)
        fb = self._mapped_frame(page_b_addr)
        if self.buffer_frame in (fa, fb):
            raise SimulationError("the buffer frame cannot be remapped")
        self.frames[pa] = fb
        self.frames[pb] = fa
        self.page_of_frame[fb] = pa
        self.page_of_frame[fa] = pb
        self._fix_shadow(pa)
        self._fix_shadow(pb)

    def _fix_shadow(self, page: int):
        if self.shadow_lo is None:
            return
        k = page - self._stack_page0
        if 0 <= k < self._stack_pages:
            self.frames[self._shadow_page0 + k] = self.frames[page]

    def page_addr_of_frame(self, frame: int) -> int:
        p = int(self.page_of_frame[frame])
        if p < 0:
            raise SimulationError("frame %d has no canonical page" % frame)
        return self.base + (p << self.page_shift)

    # ------------------------------------------------------------------
    # reporting

    def total_wear(self) -> int:
        return int(self.wear.sum())

    def wear_csv_bytes(self) -> bytes:
        """CSV rows line_index,physical_address_hex,count with a sum trailer."""
        out = ["line_index,physical_address_hex,count"]
        base_line = self.base >> self.line_shift
        for i in np.flatnonzero(self.wear):
            idx = base_line + int(i)
            out.append("%d,0x%x,%d" % (idx, idx * self.line_size,
                                       int(self.wear[i])))
        out.append("#total,%d" % self.total_wear())
        out.append("")
        return "\n".join(out).encode("utf-8")

    def region_lines(self, segment: Optional[str] = None,
                     include_buffer: bool = True) -> np.ndarray:
        """Dense line indices of a reporting region.

        Default region: every segment plus the buffer frame.  With a
        segment name, just that segment's physical lines under the
        identity placement (regions are fixed physical extents).
        """
        lpp = self.lines_per_page
        parts = []
        if segment is None:
            for seg in self.layout.segments:
                p0 = (seg.start - self.base) >> self.page_shift
                n = seg.size >> self.page_shift
                parts.append(np.arange(p0 * lpp, (p0 + n) * lpp))
            if include_buffer:
                b0 = self.buffer_frame * lpp
                parts.append(np.arange(b0, b0 + lpp))
        else:
            seg = self.layout.segment(segment)
            if seg is None:
                raise SimulationError("no segment named %r" % segment)
            p0 = (seg.start - self.base) >> self.page_shift
            n = seg.size >> self.page_shift
            parts.append(np.arange(p0 * lpp, (p0 + n) * lpp))
        return np.concatenate(parts)
