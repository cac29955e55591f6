"""Physical memory model: page table, wear ground truth, frame pool.

The physical space mirrors the layout's virtual span one-to-one at start
(identity mapping), plus one dedicated buffer frame past the highest
segment.  Physical memory is named only by dense indices: frame f holds
lines f * lines_per_page up to the next frame, and `line_index` is the
one virtual-to-physical translation.  When the layout has a stack
segment, the virtual range one stack-size below it is installed as a
shadow alias: shadow page k maps to the frame of real stack page k, so
circular stack addressing needs no extra page-table state.

Wear counts are the simulation's ground truth: every line write (an
application write at its `line_index`, `copy_frame`, `charge_lines`)
increments exactly one per-line counter.  Copies charge wear alone; the
content of lines is modelled by `nvmwear.spec`.
"""

from __future__ import annotations

import re
from typing import List, Optional

import numpy as np

from .errors import SimulationError, UnmappedPageError
from .metrics import table_csv
from .trace import MemoryLayout

_WEAR_HEADER = "line_index,physical_address_hex,count"
# counts stay below 2^63 so they fit the int64 wear map
_WEAR_ROW = re.compile(r"(\d{1,18}),0x([0-9a-f]{1,16}),(\d{1,18})")


class MemorySpace:
    def __init__(self, layout: MemoryLayout):
        self.layout = layout
        self.page_size = ps = layout.page_size
        self.line_size = ls = layout.line_size
        self.lines_per_page = ps // ls
        self.page_shift = ps.bit_length() - 1
        self.line_shift = ls.bit_length() - 1

        stack = layout.segment("stack")
        lo = layout.segments[0].start
        hi = layout.segments[-1].end
        if stack is not None:
            lo = min(lo, stack.start - stack.size)
        self.base = lo
        # absolute numbers of dense frame 0 and line 0, as files print them
        self.base_frame = lo // ps
        self.base_line = lo // ls
        self.n_pages = (hi + ps - lo) // ps
        self.n_lines = self.n_pages * self.lines_per_page

        # frames[p] is the physical frame backing virtual page p, -1 if
        # unmapped; page_of_frame[f] is the canonical (non-shadow) page.
        self.pool_frames = np.concatenate([self._pages(s)
                                           for s in layout.segments])
        self.frames = np.full(self.n_pages, -1, dtype=np.int64)
        self.frames[self.pool_frames] = self.pool_frames
        self.page_of_frame = self.frames.copy()
        self.buffer_frame = (hi - lo) // ps

        # without a stack the alias range is empty
        self._stack_page0 = self._stack_pages = 0
        if stack is not None:
            pages = self._pages(stack)
            self._stack_page0, self._stack_pages = int(pages[0]), len(pages)
            self.frames[pages - len(pages)] = pages

        self.wear = np.zeros(self.n_lines, dtype=np.int64)

    def _pages(self, seg) -> np.ndarray:
        """Dense page numbers of a segment: its frames under identity."""
        return np.arange((seg.start - self.base) >> self.page_shift,
                         (seg.end - self.base) >> self.page_shift)

    # ------------------------------------------------------------------
    # translation

    def line_index(self, vaddr):
        """Virtual address -> dense physical line index.

        Takes an int or an int64 array and returns the same shape.  An
        array is checked as a whole, span first: if any address is
        outside the mapped span, the error names the first such address,
        even when an earlier one hits an unmapped page; otherwise it
        names the first address on an unmapped page.
        """
        off = np.asarray(vaddr, dtype=np.int64) - self.base
        p = off >> self.page_shift
        outside = (p < 0) | (p >= self.n_pages)
        if outside.any():
            raise UnmappedPageError("address 0x%x outside the mapped span"
                                    % (int(off[outside][0]) + self.base))
        f = self.frames[p]
        unmapped = f < 0
        if unmapped.any():
            raise UnmappedPageError("address 0x%x hits an unmapped page"
                                    % (int(off[unmapped][0]) + self.base))
        lines = f * self.lines_per_page \
            + ((off >> self.line_shift) & (self.lines_per_page - 1))
        return int(lines) if lines.ndim == 0 else lines

    # ------------------------------------------------------------------
    # remapping

    def swap_frames(self, frame_a: int, frame_b: int):
        """Exchange the pages backed by two pool frames.

        Shadow aliases of real stack pages follow the swap, so a shadow
        address keeps resolving to the same physical content as its real
        counterpart.  The buffer frame and frames outside the pool have
        no canonical page and are rejected.
        """
        for f in (frame_a, frame_b):
            if not (0 <= f < self.n_pages and self.page_of_frame[f] >= 0):
                raise SimulationError("frame %d is not a pool frame" % f)
        pa = int(self.page_of_frame[frame_a])
        pb = int(self.page_of_frame[frame_b])
        self.frames[pa] = frame_b
        self.frames[pb] = frame_a
        self.page_of_frame[frame_b] = pa
        self.page_of_frame[frame_a] = pb
        for page in (pa, pb):
            if 0 <= page - self._stack_page0 < self._stack_pages:
                self.frames[page - self._stack_pages] = self.frames[page]

    def copy_frame(self, src_frame: int, dst_frame: int) -> int:
        """Charge a frame copy to the destination's lines, one write each.

        Returns the lines charged; `nvmwear.spec.ContentSpace` also moves
        the content.
        """
        lpp = self.lines_per_page
        self.wear[dst_frame * lpp:(dst_frame + 1) * lpp] += 1
        return lpp

    def charge_lines(self, vaddr: int, n: int) -> int:
        """Charge one write to each of n consecutive lines from vaddr.

        One slice per virtual page the lines touch, through the page
        table unchecked: every line must be mapped.  Returns n.
        """
        lpp = self.lines_per_page
        line = (vaddr - self.base) >> self.line_shift
        end = line + n
        while line < end:
            p, off = divmod(line, lpp)
            k = min(end - line, lpp - off)
            a = int(self.frames[p]) * lpp + off
            self.wear[a:a + k] += 1
            line += k
        return n

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
        lines = np.flatnonzero(self.wear)
        idx = self.base_line + lines
        return table_csv(_WEAR_HEADER,
                         (idx, idx * self.line_size, self.wear[lines]),
                         "#total,%d" % self.total_wear())

    def load_wear_csv(self, path):
        """Replace the wear map with one `wear_csv_bytes` wrote to path.

        A malformed row, a line outside this space or not above the row
        before it, or a wrong #total trailer raises SimulationError
        naming the file.
        """
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8", "replace")
        # only "\n" ends a row, as in trace files; CRLF rows still load
        rows = text.replace("\r\n", "\n").split("\n")
        if rows[-1] == "":  # the newline that ends the last row
            rows.pop()
        wear = np.zeros(self.n_lines, dtype=np.int64)
        prev = -1  # rows come in line order, as `wear_csv_bytes` writes them
        for line_no, row in enumerate(rows[1:-1], start=2):
            m = _WEAR_ROW.fullmatch(row)
            i = int(m[1]) - self.base_line if m else -1
            if not (prev < i < self.n_lines
                    and int(m[2], 16) == int(m[1]) * self.line_size):
                raise SimulationError("%s line %d: not a wear row of this "
                                      "layout: %r" % (path, line_no, row))
            wear[i], prev = int(m[3]), i
        if rows[:1] != [_WEAR_HEADER] \
                or rows[1:][-1:] != ["#total,%d" % wear.sum()]:
            raise SimulationError("%s: wear map header or #total trailer "
                                  "missing or wrong" % path)
        self.wear[:] = wear

    def region_slices(self, segment: Optional[str] = None) -> List[slice]:
        """A reporting region as dense line slices, one per segment.

        Default region: every segment plus the buffer frame.  With a
        segment name, just that segment's physical lines under the
        identity placement (regions are fixed physical extents).
        """
        if segment is None:
            segs = self.layout.segments
        else:
            seg = self.layout.segment(segment)
            if seg is None:
                raise SimulationError("no segment named %r" % segment)
            segs = (seg,)
        sh = self.line_shift
        out = [slice((s.start - self.base) >> sh, (s.end - self.base) >> sh)
               for s in segs]
        if segment is None:
            lo = self.buffer_frame * self.lines_per_page
            out.append(slice(lo, lo + self.lines_per_page))
        return out
