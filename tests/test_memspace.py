"""Page table, shadow aliasing, wear recording, and frame exchange."""

import numpy as np
import pytest

from nvmwear import MemoryLayout, Segment, SimulationError, make_layout
from nvmwear.errors import UnmappedPageError
from nvmwear.memspace import MemorySpace
from nvmwear.spec import ContentSpace


@pytest.fixture
def space(layout):
    return MemorySpace(layout)


def dense_line(space, addr):
    """Dense line index of an address under the identity placement."""
    return (addr - space.base) // space.line_size


def frame_of(space, addr):
    """Frame backing the page that holds a virtual address."""
    return space.line_index(addr) // space.lines_per_page


def test_identity_translation():
    lay = MemoryLayout((Segment("stack", 0x100010000, 0x100020000),))
    sp = MemorySpace(lay)
    assert sp.line_index(0x100011040) == dense_line(sp, 0x100011040)


def test_identity_translation_default_layout(space, layout):
    addr = layout.segment("data").start + 0x1040
    assert space.line_index(addr) == dense_line(space, addr)


def test_translation_after_swap(space, layout):
    data = layout.segment("data")
    p0, p1 = data.start, data.start + 4096
    f0, f1 = frame_of(space, p0), frame_of(space, p1)
    space.swap_frames(f0, f1)
    # an address in P0 now resolves into P1's old frame
    got = space.line_index(p0 + 0x1C0)
    assert got // 64 == f1
    assert got % 64 == 0x1C0 // 64


def test_unmapped_page_rejected(space, layout):
    stack = layout.segment("stack")
    with pytest.raises(UnmappedPageError):
        space.line_index(stack.end + 4096 + 64)  # past the buffer frame
    with pytest.raises(UnmappedPageError):
        space.line_index(0x80000000)
    # a page between two segments is inside the span but backs nothing
    base = 1 << 32
    gap = MemorySpace(MemoryLayout((Segment("data", base, base + 4096),
                                    Segment("bss", base + 8192,
                                            base + 12288))))
    with pytest.raises(UnmappedPageError, match="hits an unmapped page"):
        gap.line_index(base + 4096 + 64)


def test_line_index_reports_the_span_before_unmapped_pages():
    base = 1 << 32
    gap = MemorySpace(MemoryLayout((Segment("data", base, base + 4096),
                                    Segment("bss", base + 8192,
                                            base + 12288))))
    end = gap.base + gap.n_pages * 4096
    with pytest.raises(UnmappedPageError,
                       match="^address 0x%x outside the mapped span$" % end):
        gap.line_index(np.array([base + 4096, base + 4096 + 64, end]))


def test_charge_lines_adds_one_write_at_each_line_index(space, layout):
    stack, data = layout.segment("stack"), layout.segment("data")
    space.swap_frames(frame_of(space, stack.start + 4096),
                      frame_of(space, data.start))
    shadow = stack.start - stack.size
    for vaddr, n in ((data.start + 4096 - 3 * 64, 7),  # a page boundary
                     (stack.start - 2 * 64 - 8, 70),   # shadow into real
                     (shadow + 4096 - 64, 66),         # a swapped shadow page
                     (data.start + 40, 1), (data.start, 0)):
        want = space.wear.copy()
        np.add.at(want, space.line_index(vaddr + 64 * np.arange(n)), 1)
        assert space.charge_lines(vaddr, n) == n
        assert np.array_equal(space.wear, want)


def test_shadow_alias_full_page(space, layout):
    stack = layout.segment("stack")
    shadow_base = stack.start - stack.size
    for k in range(0, 4096, 64):
        assert (space.line_index(shadow_base + k)
                == space.line_index(stack.start + k))


def test_record_write_counts_and_payload(layout):
    space = ContentSpace(layout)
    data = layout.segment("data")
    line = space.line_index(data.start)
    assert not space.words.any()  # every line starts zeroed
    space.record_write(line, 0xAB)
    assert space.wear[line] == 1
    assert space.words[line] == 0xAB
    space.record_write(line)  # payload-less write zeroes the line
    assert space.wear[line] == 2
    assert space.words[line] == 0


def test_shadow_and_real_hit_one_line(layout):
    space = ContentSpace(layout)
    stack = layout.segment("stack")
    off = 0x1040
    space.record_write(space.line_index(stack.start + off))
    space.record_write(space.line_index(stack.start - stack.size + off))
    line = space.line_index(stack.start + off)
    assert space.wear[line] == 2
    assert space.total_wear() == 2


def test_swap_self_is_identity(space, layout):
    data = layout.segment("data")
    before = space.frames.copy()
    f = frame_of(space, data.start)
    space.swap_frames(f, f)
    assert np.array_equal(space.frames, before)


def test_swap_twice_restores(space, layout):
    data = layout.segment("data")
    before = space.frames.copy()
    fa, fb = frame_of(space, data.start), frame_of(space, data.start + 4096)
    space.swap_frames(fa, fb)
    space.swap_frames(fa, fb)
    assert np.array_equal(space.frames, before)


def test_swap_stack_page_updates_alias(space, layout):
    stack = layout.segment("stack")
    data = layout.segment("data")
    cold_frame = frame_of(space, data.start)
    space.swap_frames(frame_of(space, stack.start), cold_frame)
    shadow = stack.start - stack.size
    assert frame_of(space, shadow) == cold_frame
    assert frame_of(space, stack.start) == cold_frame


def test_swap_rejects_shadow_and_buffer(space, layout):
    stack = layout.segment("stack")
    data = layout.segment("data")
    before = space.frames.copy()
    f = frame_of(space, data.start)
    # the frame at the shadow range's physical position backs no page
    shadow_frame = dense_line(space, stack.start - stack.size) // 64
    # the buffer frame has no canonical page, so it can never be swapped
    for bad in (shadow_frame, space.buffer_frame, -1, space.n_pages):
        with pytest.raises(SimulationError, match="not a pool frame"):
            space.swap_frames(bad, f)
        with pytest.raises(SimulationError, match="not a pool frame"):
            space.swap_frames(f, bad)
    assert np.array_equal(space.frames, before)
    with pytest.raises(SimulationError, match="no canonical page"):
        space.page_addr_of_frame(space.buffer_frame)


def test_copy_arithmetic(space, layout):
    data = layout.segment("data")
    src = frame_of(space, data.start)
    f = frame_of(space, data.start + 4096)
    assert space.copy_frame(src, f) == 64
    assert space.wear[f * 64:(f + 1) * 64].sum() == 64
    space.copy_frame(src, f)
    assert (space.wear[f * 64:(f + 1) * 64] == 2).all()
    assert space.total_wear() == 128


def test_copy_without_an_image_charges_the_same_wear(layout):
    plain, imaged = MemorySpace(layout), ContentSpace(layout)
    imaged.words[:] = np.arange(imaged.n_lines)
    rng = np.random.default_rng(3)
    for a, b in rng.choice(plain.pool_frames, (20, 2)).tolist():
        assert plain.copy_frame(a, b) == imaged.copy_frame(a, b)
    assert np.array_equal(plain.wear, imaged.wear)
    assert not hasattr(plain, "words")


def test_three_way_swap_charges_192(space, layout):
    data = layout.segment("data")
    fa = frame_of(space, data.start)
    fb = frame_of(space, data.start + 4096)
    buf = space.buffer_frame
    n = 0
    n += space.copy_frame(fa, buf)
    n += space.copy_frame(fb, fa)
    n += space.copy_frame(buf, fb)
    assert n == 192
    assert space.total_wear() == 192
    assert space.wear[buf * 64:(buf + 1) * 64].sum() == 64


def test_copy_moves_materialized_words(layout):
    space = ContentSpace(layout)
    data = layout.segment("data")
    space.record_write(space.line_index(data.start + 128), 0x77)
    fa = frame_of(space, data.start)
    fb = frame_of(space, data.start + 4096)
    space.copy_frame(fa, fb)
    assert space.words[fb * 64 + 2] == 0x77


def test_swap_permutation_property():
    """The page table stays a bijection, with shadows on stack frames."""
    rng = np.random.default_rng(0)
    for pages in ((2, 8, 4, 4), (4, 40, 8, 12), (2, 8, 4, 0), (0, 0, 0, 4)):
        layout = make_layout(*pages)
        space = MemorySpace(layout)
        pool = space.pool_frames
        canonical = np.concatenate([
            np.arange((s.start - space.base) // 4096,
                      (s.end - space.base) // 4096)
            for s in layout.segments])
        for _ in range(200):
            a, b = rng.choice(pool, 2)
            space.swap_frames(int(a), int(b))
        # frames restricted to canonical pages is a bijection onto the pool
        assert sorted(space.frames[canonical].tolist()) == pool.tolist()
        assert np.array_equal(space.page_of_frame[space.frames[canonical]],
                              canonical)
        # every other frame backs no canonical page
        others = np.setdiff1d(np.arange(space.n_pages), pool)
        assert (space.page_of_frame[others] == -1).all()
        # every shadow page maps to its stack page's frame
        stack = layout.segment("stack")
        if stack is not None:
            n = stack.size // 4096
            shadow0 = (stack.start - stack.size - space.base) // 4096
            stack0 = (stack.start - space.base) // 4096
            assert np.array_equal(space.frames[shadow0:shadow0 + n],
                                  space.frames[stack0:stack0 + n])


def test_alias_equivalence_random_offsets(layout):
    stack = layout.segment("stack")
    rng = np.random.default_rng(1)
    offs = (rng.integers(0, stack.size // 64, 2000) * 64).tolist()
    via_real = ContentSpace(layout)
    via_shadow = ContentSpace(layout)
    for off in offs:
        via_real.record_write(via_real.line_index(stack.start + off))
        via_shadow.record_write(
            via_shadow.line_index(stack.start - stack.size + off))
    assert np.array_equal(via_real.wear, via_shadow.wear)


def test_wear_csv_format(layout):
    space = ContentSpace(layout)
    data = layout.segment("data")
    line = space.line_index(data.start)
    space.record_write(line)
    space.record_write(line)
    space.record_write(line + 1)
    lines = space.wear_csv_bytes().decode().splitlines()
    assert lines[0] == "line_index,physical_address_hex,count"
    idx = data.start // 64
    assert lines[1] == "%d,0x%x,2" % (idx, idx * 64)
    assert lines[2] == "%d,0x%x,1" % (idx + 1, (idx + 1) * 64)
    assert lines[3] == "#total,3"


def test_region_lines_default_covers_segments_and_buffer(space, layout):
    region = space.region_slices()
    total = sum(s.size for s in layout.segments) // 64 + 64
    assert sum(s.stop - s.start for s in region) == total
    buf0 = space.buffer_frame * 64
    assert region[-1] == slice(buf0, buf0 + 64)


def test_region_lines_named_segment(space, layout):
    stack = layout.segment("stack")
    (region,) = space.region_slices("stack")
    assert region.stop - region.start == stack.size // 64
    with pytest.raises(SimulationError):
        space.region_slices("heap")


def test_layout_without_stack_has_no_shadow():
    lay = make_layout(stack_pages=0)
    sp = MemorySpace(lay)
    # every mapped page is a canonical one: no alias entries
    assert sp.frames.tolist() == sp.page_of_frame.tolist()
    assert sp.base == lay.segments[0].start


@pytest.mark.parametrize("pages", [(2, 8, 4, 4), (4, 40, 8, 12), (2, 8, 4, 0),
                                   (0, 0, 0, 4), (0, 2, 0, 0)])
def test_page_table_and_regions_match_per_page_construction(pages):
    layout = make_layout(*pages)
    space = MemorySpace(layout)
    frames = np.full(space.n_pages, -1)
    regions = {}
    for seg in layout.segments:
        p0 = (seg.start - space.base) // 4096
        p1 = (seg.end - space.base) // 4096
        frames[p0:p1] = np.arange(p0, p1)
        regions[seg.name] = slice(p0 * 64, p1 * 64)
    pool = np.flatnonzero(frames >= 0)
    assert np.array_equal(space.page_of_frame, frames)
    stack = layout.segment("stack")
    if stack is not None:
        k0, n = (stack.start - space.base) // 4096, stack.size // 4096
        frames[k0 - n:k0] = frames[k0:k0 + n]
    assert np.array_equal(space.frames, frames)
    assert np.array_equal(space.pool_frames, pool)
    buf = space.buffer_frame * 64
    assert space.region_slices() == [*regions.values(), slice(buf, buf + 64)]
    for name, lines in regions.items():
        assert space.region_slices(name) == [lines]


def test_wear_csv_round_trip(layout, tmp_path):
    rng = np.random.default_rng(5)
    src = MemorySpace(layout)
    src.wear[rng.integers(0, src.n_lines, 300)] = rng.integers(1, 1 << 40, 300)
    path = tmp_path / "wear.csv"
    path.write_bytes(src.wear_csv_bytes())
    dst = MemorySpace(layout)
    dst.load_wear_csv(path)
    assert np.array_equal(dst.wear, src.wear)
    path.write_bytes(src.wear_csv_bytes().replace(b"\n", b"\r\n"))
    dst.wear[:] = 0
    dst.load_wear_csv(path)
    assert np.array_equal(dst.wear, src.wear)
    # header and trailer alone: an all-zero map
    path.write_bytes(MemorySpace(layout).wear_csv_bytes())
    dst.load_wear_csv(path)
    assert dst.total_wear() == 0


def test_wear_csv_reader_rejects_other_layouts_and_bad_rows(layout, tmp_path):
    path = tmp_path / "wear.csv"
    space = MemorySpace(layout)
    bigger = MemorySpace(make_layout(data_pages=64))
    bigger.wear[-1] = 3  # the buffer frame, past this layout's span
    base = space.base_line
    header = "line_index,physical_address_hex,count\n"
    for text in (bigger.wear_csv_bytes().decode(),
                 header + "%d,0x%x,1\n#total,1\n" % (base - 1, (base - 1) * 64),
                 header + "%d,0x%x,1\n#total,1\n" % (base, base * 64 + 64),
                 header + "%d,0x%x,zz\n#total,1\n" % (base, base * 64),
                 header + "%d,0x%x,-1\n#total,-1\n" % (base, base * 64),
                 # only "\n" ends a row, so NEL cannot split this one
                 header + "%d,0x%x,1\x85\n#total,1\n" % (base, base * 64)):
        path.write_text(text)
        with pytest.raises(SimulationError, match="line 2: not a wear row"):
            space.load_wear_csv(path)
    for text in ("", header, header + "#total,2\n",
                 header + "%d,0x%x,1\n" % (base, base * 64),
                 "line,count\n#total,0\n"):
        path.write_text(text)
        with pytest.raises(SimulationError, match="header or #total"):
            space.load_wear_csv(path)
    assert space.total_wear() == 0
