"""Physical memory model: page table, wear ground truth, frame pool.

Physical memory is numbered over the mapped pages only: frame f is the
f-th page of the segments in address order, and one dedicated buffer
frame comes last.  `pages[f]` is frame f's absolute page number, and
every number a file prints goes through it, so gaps between segments
cost nothing.  Frame f holds lines f * lines_per_page up to the next
frame.  Mapped page k starts on frame k, and `frames[k]` is the frame
backing it.  `page_index` translates a virtual address by one
`searchsorted` over a table of ranges, the segments plus, with a stack,
the stack's shadow: the stack-sized range below the stack, whose page k
is stack page k.  So circular stack addressing needs no extra
page-table state.

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
        self.page_shift = sh = ps.bit_length() - 1
        self.line_shift = ls.bit_length() - 1

        # the translation ranges (start, end, offset): an address's mapped
        # page is its page number minus its range's offset
        ranges, k = [], 0
        for seg in layout.segments:
            n = seg.size >> sh
            ranges.append((seg.start, seg.end, (seg.start >> sh) - k))
            if seg.name == "stack":
                ranges.append((seg.start - seg.size, seg.start,
                               ranges[-1][2] - n))
                self._stack = seg.start, k, n
            k += n
        ranges.sort()
        self._bounds = np.array([r[:2] for r in ranges], np.int64).ravel()
        self._offsets = np.array([r[2] for r in ranges], np.int64)

        self.pages = np.concatenate(
            [np.arange(s.start >> sh, s.end >> sh) for s in layout.segments]
            + [[layout.segments[-1].end >> sh]])
        self.n_pages = len(self.pages)
        self.n_lines = self.n_pages * self.lines_per_page
        self.buffer_frame = self.n_pages - 1
        self.pool_frames = np.arange(self.buffer_frame)
        # frames[k] backs mapped page k; page_of_frame[f] is the page on
        # frame f, -1 on the buffer frame
        self.frames = self.pool_frames.copy()
        self.page_of_frame = np.append(self.pool_frames, -1)
        self.wear = np.zeros(self.n_lines, dtype=np.int64)

    # ------------------------------------------------------------------
    # translation

    def page_index(self, vaddr):
        """Virtual address -> mapped page, which `frames` maps to a frame.

        Takes an int or an int64 array and returns the same shape.  A
        bound index found by the search is odd exactly inside a range.
        An address on no mapped page raises UnmappedPageError naming the
        first such address.
        """
        a = np.asarray(vaddr, dtype=np.int64)
        r = np.searchsorted(self._bounds, a, side="right")
        unmapped = (r & 1) == 0
        if unmapped.any():
            raise UnmappedPageError("address 0x%x hits an unmapped page"
                                    % int(a[unmapped][0]))
        return (a >> self.page_shift) - self._offsets[r >> 1]

    def line_index(self, vaddr):
        """Virtual address -> physical line index, by `page_index`."""
        a = np.asarray(vaddr, dtype=np.int64)
        lines = self.frames[self.page_index(a)] * self.lines_per_page \
            + ((a >> self.line_shift) & (self.lines_per_page - 1))
        return int(lines) if lines.ndim == 0 else lines

    def line_numbers(self, lines: np.ndarray) -> np.ndarray:
        """Absolute line numbers, as files print them, of physical lines."""
        lpp = self.lines_per_page
        return self.pages[lines // lpp] * lpp + lines % lpp

    # ------------------------------------------------------------------
    # remapping

    def swap_frames(self, frame_a: int, frame_b: int):
        """Exchange the pages backed by two pool frames.

        The buffer frame and numbers outside the pool are rejected.
        """
        for f in (frame_a, frame_b):
            if not 0 <= f < self.buffer_frame:
                raise SimulationError("frame %d is not a pool frame" % f)
        pa = int(self.page_of_frame[frame_a])
        pb = int(self.page_of_frame[frame_b])
        self.frames[pa] = frame_b
        self.frames[pb] = frame_a
        self.page_of_frame[frame_b] = pa
        self.page_of_frame[frame_a] = pb

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

        The lines are the stack's, walked over its pages modulo the
        stack size, so a shadow line is its stack line: one slice per
        page, through the page table.  Returns n.
        """
        start, first, n_stack = self._stack
        lpp = self.lines_per_page
        line = (vaddr - start) >> self.line_shift
        end = line + n
        while line < end:
            p, off = divmod(line, lpp)
            k = min(end - line, lpp - off)
            a = int(self.frames[first + p % n_stack]) * lpp + off
            self.wear[a:a + k] += 1
            line += k
        return n

    def page_addr_of_frame(self, frame: int) -> int:
        p = int(self.page_of_frame[frame])
        if p < 0:
            raise SimulationError("frame %d has no canonical page" % frame)
        return int(self.pages[p]) << self.page_shift

    # ------------------------------------------------------------------
    # reporting

    def total_wear(self) -> int:
        return int(self.wear.sum())

    def wear_csv_bytes(self) -> bytes:
        """CSV rows line_index,physical_address_hex,count with a sum trailer."""
        lines = np.flatnonzero(self.wear)
        idx = self.line_numbers(lines)
        return table_csv(_WEAR_HEADER,
                         (idx, idx * self.line_size, self.wear[lines]),
                         "#total,%d" % self.total_wear())

    def load_wear_csv(self, path):
        """Replace the wear map with one `wear_csv_bytes` wrote to path.

        A malformed row, a line on no frame of this space or not above
        the row before it, or a wrong #total trailer raises
        SimulationError naming the file.
        """
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8", "replace")
        # only "\n" ends a row, as in trace files; CRLF rows still load
        rows = text.replace("\r\n", "\n").split("\n")
        if rows[-1] == "":  # the newline that ends the last row
            rows.pop()
        body = rows[1:-1]
        # each row's absolute line and count; line -1 for a malformed row
        line, count = np.full((2, len(body)), -1, np.int64)
        for j, row in enumerate(body):
            m = _WEAR_ROW.fullmatch(row)
            if m and int(m[2], 16) == int(m[1]) * self.line_size:
                line[j], count[j] = int(m[1]), int(m[3])
        lpp = self.lines_per_page
        f = np.minimum(np.searchsorted(self.pages, line // lpp),
                       self.buffer_frame)
        i = np.where(self.pages[f] == line // lpp, f * lpp + line % lpp, -1)
        # rows come in line order, as `wear_csv_bytes` writes them
        bad = i <= np.append(-1, i[:-1])
        if bad.any():
            j = int(np.argmax(bad))
            raise SimulationError("%s line %d: not a wear row of this "
                                  "layout: %r" % (path, j + 2, body[j]))
        wear = np.zeros(self.n_lines, dtype=np.int64)
        wear[i] = count
        if rows[:1] != [_WEAR_HEADER] \
                or rows[1:][-1:] != ["#total,%d" % wear.sum()]:
            raise SimulationError("%s: wear map header or #total trailer "
                                  "missing or wrong" % path)
        self.wear[:] = wear

    def region_slices(self, segment: Optional[str] = None) -> List[slice]:
        """A reporting region as physical line slices.

        Default region: the whole wear map, every segment plus the
        buffer frame.  With a segment name, just that segment's lines
        under the identity placement (regions are fixed physical
        extents).
        """
        if segment is None:
            return [slice(0, self.n_lines)]
        seg = self.layout.segment(segment)
        if seg is None:
            raise SimulationError("no segment named %r" % segment)
        lo = int(self.page_index(seg.start)) * self.lines_per_page
        return [slice(lo, lo + (seg.size >> self.line_shift))]
