"""Circular stack relocation, shadow wraparound, and pointer adjustment."""

import numpy as np
import pytest

from nvmwear import (MemoryLayout, Segment, SimConfig, SimulationError,
                     SpUpdateEvent, Trace, WriteEvent, make_layout)
from nvmwear.errors import ConfigError, StackOverflowError
from nvmwear.memspace import MemorySpace
from nvmwear.spec import (ContentSpace, adjust_inmemory_pointers,
                          reference_replay, relocate_content, translate_stack)
from nvmwear.stack import (StackState, relocate_step, translate_after,
                           wraparound_reset)

BASE = 0x100010000
S = 0x10000


def st_at(sp, shift=0, step=64):
    return StackState(region_base=BASE, region_size=S, sp=sp, step=step,
                      shift=shift)


def stack_space(space_type=MemorySpace):
    lay = MemoryLayout((Segment("stack", BASE, BASE + S),))
    return space_type(lay)


def test_translate_identity_at_zero_shift():
    st = st_at(sp=BASE + S)
    assert translate_stack(BASE + 0x1234, st) == BASE + 0x1234


def test_translate_near_full_shift():
    st = st_at(sp=BASE + S, shift=0xFFC0)
    assert translate_stack(0x10001FFC0, st) == 0x100010000
    assert translate_stack(0x100011000, st) == 0x100001040


def test_translated_shadow_address_aliases_real_frame():
    st = st_at(sp=BASE + S, shift=0xFFC0)
    space = stack_space()
    v = translate_stack(0x100011000, st)
    assert space.line_index(v) == space.line_index(BASE + 0x1040)


def test_translate_rejects_out_of_region():
    st = st_at(sp=BASE + S)
    with pytest.raises(SimulationError):
        translate_stack(BASE - 64, st)
    with pytest.raises(SimulationError):
        translate_stack(BASE + S, st)


def test_state_geometry_validated():
    with pytest.raises(ConfigError):
        StackState(region_base=BASE, region_size=S, sp=BASE + S, step=6144)


def test_relocate_charges_by_valid_size():
    space = stack_space()
    st = st_at(sp=BASE + S - 1024)
    copied = relocate_step(st, space)
    assert copied == 16
    assert st.shift == 64
    assert space.total_wear() == 16


def test_relocate_empty_stack_charges_nothing():
    space = stack_space()
    st = st_at(sp=BASE + S)
    assert relocate_step(st, space) == 0
    assert st.shift == 64
    assert space.total_wear() == 0


def test_relocate_overflow_guard():
    space = stack_space()
    st = st_at(sp=BASE + 32)  # u = S - 32 > S - step
    with pytest.raises(StackOverflowError):
        relocate_step(st, space)


def test_wraparound_fires_at_full_shift():
    st = st_at(sp=BASE + S - 512, shift=S)
    assert wraparound_reset(st)
    assert st.shift == 0
    assert st.wraps == 1


def test_wraparound_holds_while_window_straddles_base():
    st = st_at(sp=BASE + S - 512, shift=S - 64)  # u = 512 > step
    assert not wraparound_reset(st)
    assert st.shift == S - 64


def test_wraparound_empty_stack_boundary():
    # u == 0: reset fires as soon as the translated top reaches the base
    st = st_at(sp=BASE + S, shift=S)
    assert wraparound_reset(st)
    assert st.shift == 0


def shadow_window_predicate(st):
    """The wrap rule as first stated: the translated valid window
    [sp - shift, top - shift) lies inside the shadow range
    [region_base - S, region_base)."""
    upper = st.top - st.shift
    return (upper <= st.region_base
            and upper - st.valid_bytes >= st.region_base - st.region_size)


@pytest.mark.parametrize("step", [64, 512])
def test_wraparound_reset_equals_the_shadow_window_predicate(step):
    # every legal state after a shift advance on a 4-page region: a
    # window that leaves room for a step, sp 8-byte aligned on a grid
    # that crosses line offsets, and a shift in (0, S]
    size = 4 * 4096
    st = StackState(region_base=BASE, region_size=size, sp=BASE + size,
                    step=step)
    fired = 0
    for sp in range(BASE + step, BASE + size + 1, 40):
        for shift in range(step, size + 1, step):
            st.sp, st.shift, st.wraps = sp, shift, 0
            want = shadow_window_predicate(st)
            assert wraparound_reset(st) == want, (hex(sp), shift)
            assert (st.shift, st.wraps) == ((0, 1) if want else (shift, 0))
            fired += want
    assert fired == len(range(BASE + step, BASE + size + 1, 40))


@pytest.mark.parametrize("line_size,step", [(64, 64), (64, 1024), (128, 64),
                                            (256, 128), (256, 512)])
def test_shift_and_translation_are_closed_form(line_size, step):
    # k relocations from shift 0 leave a shift of k * step mod S and
    # k * step // S wraps, whatever sp does between them
    base = 1 << 32
    stack = Segment("stack", base + 8 * 4096, base + 12 * 4096)
    size = stack.size
    space = MemorySpace(MemoryLayout(
        (Segment("data", base, base + 4 * 4096), stack), line_size=line_size))
    st = StackState(region_base=stack.start, region_size=size,
                    sp=stack.end - 512, step=step)
    rng = np.random.default_rng(line_size + step)
    # stack addresses, and the data, shadow and first address above the
    # stack, which pass through unchanged
    others = [base, base + 4 * 4096 - 8, stack.start - size, stack.start - 8,
              stack.end]
    addrs, steps, want = [], [], []
    for k in range(1, 5 * size // (2 * step)):
        if rng.random() < 0.2:  # sp moves, up to the largest legal window
            st.sp = stack.end - 8 * int(rng.integers((size - step) // 8 + 1))
        relocate_step(st, space)
        assert (st.shift, st.wraps) == (k * step % size, k * step // size)
        inside = [stack.start, stack.end - 8] + [
            int(a) for a in rng.integers(stack.start, stack.end, 2)]
        got = translate_after(np.array(inside + others), k, st)
        assert got.tolist() == [translate_stack(a, st) for a in inside] \
            + others
        addrs += inside
        steps += [k] * len(inside)
        want += [translate_stack(a, st) for a in inside]
    assert st.wraps == 2
    # per-address step counts, as replay passes them
    assert translate_after(np.array(addrs), np.array(steps), st).tolist() \
        == want


def test_relocation_sequence_wraps_without_copying_at_reset():
    space = stack_space()
    st = st_at(sp=BASE + S - 256)
    per_step = 4  # u/64
    for k in range(S // 64):
        copied = relocate_step(st, space)
        assert copied == per_step
    assert st.wraps == 1
    assert st.shift == 0
    assert space.total_wear() == per_step * (S // 64)


def test_adjust_word_examples():
    st = st_at(sp=0x100011000)
    words = np.array([
        0x100011F80,         # in window: adjusted
        0x0000000000000042,  # 32-bit data: untouched
        0x200000000,         # outside the window: untouched
        BASE + S - 8,        # top word of the window: adjusted
        0x100010FF8,         # below sp: untouched
    ], dtype=np.uint64)
    out = adjust_inmemory_pointers(words, st)
    assert out[0] == 0x100011F40
    assert out[1] == 0x42
    assert out[2] == 0x200000000
    assert out[3] == BASE + S - 8 - 64
    assert out[4] == 0x100010FF8


def test_adjust_uses_translated_window():
    st = st_at(sp=BASE + S - 1024, shift=0x2000)
    lo = st.sp - st.shift
    hi = BASE + S - st.shift
    words = np.array([lo, hi - 8, hi, lo - 8], dtype=np.uint64)
    out = adjust_inmemory_pointers(words, st)
    assert out[0] == lo - 64 and out[1] == hi - 8 - 64
    assert out[2] == hi and out[3] == lo - 8


def test_adjust_exactly_in_window_words(seed=5):
    rng = np.random.default_rng(seed)
    st = st_at(sp=BASE + S - 4096)
    lo, hi = st.sp, BASE + S
    kinds = rng.integers(0, 3, 200)
    words = np.zeros(len(kinds), dtype=np.uint64)
    for slot, k in enumerate(kinds):
        if k == 0:
            words[slot] = int(lo + 8 * rng.integers(0, (hi - lo) // 8))
        elif k == 1:
            words[slot] = int(rng.integers(0, 1 << 32))
        else:
            words[slot] = int(rng.integers(1 << 33, 1 << 40)) & ~0x7
    out = adjust_inmemory_pointers(words, st)
    for slot, k in enumerate(kinds):
        if k == 0 and lo <= words[slot] < hi:
            assert out[slot] == words[slot] - 64
        else:
            assert out[slot] == words[slot]


def test_content_preserved_across_relocations_and_wraps():
    space = stack_space(ContentSpace)
    sp = BASE + S - 2048
    st = st_at(sp=sp)
    rng = np.random.default_rng(8)
    stored = {}
    for addr in range(sp, BASE + S, 64):
        val = int(rng.integers(1, 1 << 32))
        space.record_write(space.line_index(translate_stack(addr, st)), val)
        stored[addr] = val
    relocs = 2 * (S // 64) + 17  # two wraps and a bit more
    for _ in range(relocs):
        relocate_content(st, space)
        for addr, val in stored.items():
            line = space.line_index(translate_stack(addr, st))
            assert space.words[line] == val
    assert st.wraps == 2


def test_pointer_words_stay_consistent_through_relocation():
    """A stored stack pointer keeps naming the same content after moves."""
    space = stack_space(ContentSpace)
    sp = BASE + S - 1024
    st = st_at(sp=sp)
    target = sp + 256
    holder = sp + 512
    space.record_write(space.line_index(target), 0xFEED)
    space.record_write(space.line_index(holder), target)
    for _ in range(5):
        relocate_content(st, space)
    holder_line = space.line_index(translate_stack(holder, st))
    stored_ptr = int(space.words[holder_line])
    assert stored_ptr == target - 5 * 64  # rewritten once per step
    # the rewritten pointer dereferences to the moved target content
    assert space.words[space.line_index(stored_ptr)] == 0xFEED


def test_pointer_word_stays_consistent_through_three_wraps():
    # a pointer stored at shift 0 leaves the next window at each reset
    # unless the reset moves it back up by S
    space = stack_space(ContentSpace)
    sp = BASE + S - 1024
    st = st_at(sp=sp)
    target, holder = sp + 256, sp + 512
    space.record_write(space.line_index(target), 0xFEED)
    space.record_write(space.line_index(holder), target)
    while st.wraps < 3:
        relocate_content(st, space)
        ptr = int(space.words[space.line_index(translate_stack(holder, st))])
        assert ptr == translate_stack(target, st), (st.relocations, hex(ptr))
        assert space.words[space.line_index(ptr)] == 0xFEED
    assert st.relocations == 3 * (S // 64)


def test_wrap_moves_exactly_the_words_left_in_the_shadow_window():
    space = stack_space(ContentSpace)
    st = st_at(sp=BASE + S - 1024, shift=S - 64)  # one step before a reset
    # after the step the window is [lo, hi), all shadow; the step itself
    # moves in-window words by -64 first
    lo, hi = BASE - 1024, BASE
    moves = {lo - 8: lo - 8, lo + 64: lo + S, hi + 56: hi - 8 + S, 0x42: 0x42}
    src = space.line_index(st.sp - st.shift)
    for i, word in enumerate(moves):
        space.record_write(src + i, word)
    relocate_content(st, space)
    assert st.wraps == 1 and st.shift == 0
    lines = space.line_index(np.arange(st.sp, st.top, 64))
    assert sorted(space.words[lines].tolist()) \
        == sorted([*moves.values()] + [0] * (len(lines) - len(moves)))


def hand_relocate(words, st, ls):
    """One step's word moves, before `st` advances, by virtual address.

    `words` maps each line's base address to its word, a shadow address
    standing for the stack line S above it; all sources are read first.
    """
    S, rb = st.region_size, st.region_base
    key = lambda a: a - a % ls + (S if rb - S <= a < rb else 0)
    lo, hi = st.sp - st.shift, st.top - st.shift
    old = dict(words)
    # each line holding a destination byte takes the word of the line
    # holding the byte `step` above its base
    dst = lo - st.step
    for a in range(dst - dst % ls, hi - st.step, ls) if lo < hi else ():
        w = old[key(a + st.step)]
        words[key(a)] = w - st.step if lo <= w < hi else w
    if st.shift + st.step == S:  # the wrap: shadow pointers move up by S
        for a in range(st.sp - st.sp % ls, st.top, ls):
            words[a] += S if st.sp - S <= words[a] < rb else 0


@pytest.mark.parametrize("line_size", [64, 128, 256])
def test_relocation_wear_lies_only_on_stack_frames(line_size):
    # the data segment ends at the shadow base, and sp walks the deepest
    # legal windows through two wraps: the lines holding the destination
    # bytes are stack frames or their shadow aliases, for the engine's
    # step and the spec's alike (the line-rounded source window moved
    # down one step would reach the last data line with 256-byte lines)
    base = 1 << 32
    stack = Segment("stack", base + 8 * 4096, base + 12 * 4096)
    lay = MemoryLayout((Segment("data", base, base + 4 * 4096), stack),
                       line_size=line_size)
    frames = MemorySpace(lay).region_slices("stack")[0]
    for relocate, space_type in ((relocate_step, MemorySpace),
                                 (relocate_content, ContentSpace)):
        for step in (64, 128):
            space = space_type(lay)
            st = StackState(region_base=stack.start,
                            region_size=stack.size, sp=stack.end, step=step)
            copied = 0
            for i in range(2 * stack.size // step):
                st.sp = stack.start + step + 8 * (i % 3)
                copied += relocate(st, space)
            assert st.wraps == 2
            assert space.wear[frames].sum() == space.total_wear() == copied


@pytest.mark.parametrize("image", [True, False])
@pytest.mark.parametrize("line_size,step", [(64, 64), (64, 256), (128, 64),
                                            (256, 64), (256, 128)])
def test_relocate_step_matches_the_per_line_spec(line_size, step, image):
    # the engine's step charges a run of lines per page, the spec's line
    # by line; with a content image, the spec's words also follow a model
    # keyed by virtual address, which page exchanges leave as it is
    base = 1 << 32
    data = Segment("data", base, base + 4 * 4096)
    stack = Segment("stack", base + 8 * 4096, base + 12 * 4096)
    lay = MemoryLayout((data, stack), line_size=line_size)
    rng = np.random.default_rng(line_size + step + image)
    got, want = MemorySpace(lay), ContentSpace(lay)
    lines = np.r_[np.arange(data.start, data.end, line_size),
                  np.arange(stack.start, stack.end, line_size)]
    if image:  # data words and pointers into the stack and its shadow
        want.words[:] = np.where(
            rng.random(want.n_lines) < 0.5, rng.integers(0, 1 << 32),
            rng.integers(stack.start - stack.size, stack.end, want.n_lines))
    model = dict(zip(lines.tolist(),
                     want.words[want.line_index(lines)].tolist()))
    st_got, st_want = (StackState(region_base=stack.start,
                                  region_size=stack.size, sp=stack.end - 512,
                                  step=step) for _ in range(2))
    pool = got.pool_frames
    straddles = 0
    while st_want.wraps < 2 or straddles == 0:
        if rng.random() < 0.05:  # the coarse leveler's page exchanges
            a, b = (int(f) for f in rng.choice(pool, 2))
            for space in (got, want):
                buf = space.buffer_frame
                for src, dst in ((a, buf), (b, a), (buf, b)):
                    space.copy_frame(src, dst)
                space.swap_frames(a, b)
        if rng.random() < 0.1:  # sp moves, up to the largest legal window
            sp = int(rng.choice([stack.start + step, stack.start + step + 8,
                                 stack.end - 8 * int(rng.integers(
                                     (stack.size - step) // 8 + 1))]))
            st_got.sp = st_want.sp = sp
        straddles += st_want.sp - st_want.shift < stack.start \
            < stack.end - st_want.shift
        before = got.total_wear()
        if image:
            hand_relocate(model, st_want, line_size)
        copied = relocate_step(st_got, got)
        assert copied == relocate_content(st_want, want)
        assert got.total_wear() - before == copied
        assert st_got == st_want
        assert np.array_equal(got.wear, want.wear)
        assert want.words[want.line_index(lines)].tolist() \
            == list(model.values())


def test_pointer_stored_after_relocations_follows_its_target():
    # the reference replay stores a payload that points into the stack
    # as its translated address, which later relocations adjust
    lay = MemoryLayout((Segment("stack", BASE, BASE + S),))
    sp = BASE + S - 1024
    target, holder = sp + 256, sp + 512
    pair = [WriteEvent(sp)] * 2  # n=1: one relocation per two writes
    events = [SpUpdateEvent(sp), *pair * 5, WriteEvent(target, 0xFEED),
              WriteEvent(holder, target), *pair * 4]
    cfg = SimConfig(sample_interval_n=1, enable_coarse=False)
    space, *_, totals = reference_replay(Trace.from_events(lay, events), cfg)
    assert (totals["relocations"], totals["wraps"]) == (10, 0)
    shift = 10 * 64
    ptr = int(space.words[space.line_index(holder - shift)])
    assert ptr == target - shift
    assert space.words[space.line_index(ptr)] == 0xFEED


def test_captured_address_identity_and_full_cycle():
    # a captured logical address resolves through the live shift
    space = stack_space(ContentSpace)
    sp = BASE + S - 4096
    st = st_at(sp=sp)
    ptr = sp + 128
    space.record_write(space.line_index(translate_stack(ptr, st)), 0xBEEF)
    line0 = space.line_index(translate_stack(ptr, st))
    for _ in range(S // 64):  # one full cycle, ends with a wrap
        relocate_content(st, space)
    assert st.shift == 0 and st.wraps == 1
    assert space.line_index(translate_stack(ptr, st)) == line0
    assert space.words[space.line_index(translate_stack(ptr, st))] == 0xBEEF


def test_captured_address_follows_content_between_wraps():
    space = stack_space(ContentSpace)
    sp = BASE + S - 512
    st = st_at(sp=sp)
    ptr = sp + 64
    space.record_write(space.line_index(translate_stack(ptr, st)), 0xCAFE)
    for k in range(25):
        relocate_content(st, space)
        line = space.line_index(translate_stack(ptr, st))
        assert space.words[line] == 0xCAFE


def test_circular_copy_wear_is_uniform_over_full_cycles():
    lay = make_layout()
    space = MemorySpace(lay)
    stack = lay.segment("stack")
    sp = stack.end - 4096
    st = StackState(region_base=stack.start, region_size=stack.size, sp=sp)
    cycle = stack.size // st.step
    for _ in range(3 * cycle):
        relocate_step(st, space)
    stack_wear = space.wear[space.region_slices("stack")[0]]
    assert st.wraps == 3
    # every line is a copy destination exactly u/64 times per cycle
    assert stack_wear.min() == stack_wear.max() == 3 * (4096 // 64)
