"""Circular stack relocation, shadow wraparound, and pointer adjustment."""

import numpy as np
import pytest

from nvmwear import (
    MemoryLayout,
    MemorySpace,
    Segment,
    SimulationError,
    SmartPointer,
    StackOverflowError,
    StackState,
    adjust_inmemory_pointers,
    make_layout,
    relocate_step,
    translate_stack,
    wraparound_reset,
)
from nvmwear.errors import ConfigError

BASE = 0x100010000
S = 0x10000


def st_at(sp, shift=0, step=64):
    return StackState(region_base=BASE, region_size=S, sp=sp, step=step,
                      shift=shift)


def stack_space():
    lay = MemoryLayout((Segment("stack", BASE, BASE + S),))
    return MemorySpace(lay)


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
        StackState(region_base=0x100000000, region_size=0x100010000, sp=0)
    with pytest.raises(ConfigError):
        st_at(sp=BASE + S, step=60)
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
    words = {
        0: 0x100011F80,        # in window: adjusted
        1: 0x0000000000000042,  # 32-bit data: untouched
        2: 0x200000000,        # outside the window: untouched
        3: BASE + S - 8,       # top word of the window: adjusted
        4: 0x100010FF8,        # below sp: untouched
    }
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
    words = {0: lo, 1: hi - 8, 2: hi, 3: lo - 8}
    out = adjust_inmemory_pointers(words, st)
    assert out[0] == lo - 64 and out[1] == hi - 8 - 64
    assert out[2] == hi and out[3] == lo - 8


def test_adjust_exactly_in_window_words(seed=5):
    rng = np.random.default_rng(seed)
    st = st_at(sp=BASE + S - 4096)
    lo, hi = st.sp, BASE + S
    slots = list(range(200))
    kinds = rng.integers(0, 3, len(slots))
    words = {}
    for slot, k in zip(slots, kinds):
        if k == 0:
            words[slot] = int(lo + 8 * rng.integers(0, (hi - lo) // 8))
        elif k == 1:
            words[slot] = int(rng.integers(0, 1 << 32))
        else:
            words[slot] = int(rng.integers(1 << 33, 1 << 40)) & ~0x7
    out = adjust_inmemory_pointers(words, st)
    for slot, k in zip(slots, kinds):
        if k == 0 and lo <= words[slot] < hi:
            assert out[slot] == words[slot] - 64
        else:
            assert out[slot] == words[slot]


def test_content_preserved_across_relocations_and_wraps():
    space = stack_space()
    sp = BASE + S - 2048
    st = st_at(sp=sp)
    rng = np.random.default_rng(8)
    stored = {}
    for addr in range(sp, BASE + S, 64):
        val = int(rng.integers(1, 1 << 32))
        space.record_write(space.translate(translate_stack(addr, st)), val)
        stored[addr] = val
    relocs = 2 * (S // 64) + 17  # two wraps and a bit more
    for _ in range(relocs):
        relocate_step(st, space)
        for addr, val in stored.items():
            line = space.line_index(translate_stack(addr, st))
            assert space.word(line) == val
    assert st.wraps == 2


def test_pointer_words_stay_consistent_through_relocation():
    """A stored stack pointer keeps naming the same content after moves."""
    space = stack_space()
    sp = BASE + S - 1024
    st = st_at(sp=sp)
    target = sp + 256
    holder = sp + 512
    space.record_write(space.translate(target), 0xFEED)
    space.record_write(space.translate(holder), target)
    for _ in range(5):
        relocate_step(st, space)
    holder_line = space.line_index(translate_stack(holder, st))
    stored_ptr = space.word(holder_line)
    assert stored_ptr == target - 5 * 64  # rewritten once per step
    # the rewritten pointer dereferences to the moved target content
    assert space.word(space.line_index(stored_ptr)) == 0xFEED


def test_smart_pointer_identity_and_full_cycle():
    space = stack_space()
    sp = BASE + S - 4096
    st = st_at(sp=sp)
    ptr = SmartPointer(sp + 128)
    space.record_write(space.translate(ptr.deref(st)), 0xBEEF)
    line0 = space.line_index(ptr.deref(st))
    for _ in range(S // 64):  # one full cycle, ends with a wrap
        relocate_step(st, space)
    assert st.shift == 0 and st.wraps == 1
    assert space.line_index(ptr.deref(st)) == line0
    assert space.word(space.line_index(ptr.deref(st))) == 0xBEEF


def test_smart_pointer_follows_content_between_wraps():
    space = stack_space()
    sp = BASE + S - 512
    st = st_at(sp=sp)
    ptr = SmartPointer(sp + 64)
    space.record_write(space.translate(ptr.deref(st)), 0xCAFE)
    for k in range(25):
        relocate_step(st, space)
        line = space.line_index(ptr.deref(st))
        assert space.word(line) == 0xCAFE


def test_circular_copy_wear_is_uniform_over_full_cycles():
    lay = make_layout()
    space = MemorySpace(lay)
    stack = lay.segment("stack")
    sp = stack.end - 4096
    st = StackState(region_base=stack.start, region_size=stack.size, sp=sp)
    cycle = stack.size // st.step
    for _ in range(3 * cycle):
        relocate_step(st, space)
    stack_wear = space.wear[space.region_lines("stack")]
    assert st.wraps == 3
    # every line is a copy destination exactly u/64 times per cycle
    assert stack_wear.min() == stack_wear.max() == 3 * (4096 // 64)
