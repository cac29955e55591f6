"""Age-ordered frame bookkeeping and hot/cold page exchange."""

import random

import pytest

from nvmwear import MemorySpace, make_layout
from nvmwear.coarse import AgeTree, CoarseWearLeveler


# ----------------------------------------------------------------------
# age bookkeeping

def test_agetree_one_entry_per_frame():
    at = AgeTree([4, 7, 9])
    assert len(at) == 3
    assert at.frames.tolist() == [4, 7, 9]
    assert at.age_bounds() == (0, 0)


def test_agetree_min_tie_break_is_lowest_frame():
    at = AgeTree([9, 4, 7])
    assert at.min_frame() == 4
    assert at.min_frame(exclude=4) == 7


def test_agetree_fold_reorders():
    at = AgeTree([1, 2, 3])
    at.fold(1, 5)
    assert at.age_of(1) == 5
    assert at.min_frame() == 2
    assert at.age_bounds() == (0, 5)
    at.fold(2, 5)
    at.fold(3, 7)
    assert at.min_frame() == 1  # ties at 5 break to the lower frame


def test_agetree_against_sorted_list():
    rng = random.Random(13)
    frames = rng.sample(range(1000), 60)
    at = AgeTree(frames)
    ages = dict.fromkeys(frames, 0)
    assert AgeTree([5]).min_frame(exclude=5) is None
    for _ in range(2000):
        frame = rng.choice(frames)
        amount = rng.choice([1, 1, 2, 4])  # small steps keep ages tied
        at.fold(frame, amount)
        ages[frame] += amount
        model = sorted((age, f) for f, age in ages.items())
        assert at.age_of(frame) == ages[frame]
        assert at.min_frame() == model[0][1]
        assert at.min_frame(exclude=model[0][1]) == model[1][1]
        probe = rng.choice(frames)
        expected = next(f for _, f in model if f != probe)
        assert at.min_frame(exclude=probe) == expected
        assert at.age_bounds() == (model[0][0], model[-1][0])


# ----------------------------------------------------------------------
# trigger rule

def make_space(**kw):
    return MemorySpace(make_layout(**kw))


def test_on_sample_threshold_four():
    lev = CoarseWearLeveler(make_space(), 4)
    f = 2
    assert lev.on_sample(f) is None
    assert lev.on_sample(f) is None
    assert lev.on_sample(f) is None
    req = lev.on_sample(f)
    assert req == f
    assert lev.tree.age_of(f) == 4
    assert lev.pending[f] == 0


def test_on_sample_threshold_one():
    lev = CoarseWearLeveler(make_space(), 1)
    for _ in range(3):
        assert lev.on_sample(5) is not None


def test_on_sample_counts_frames_independently():
    lev = CoarseWearLeveler(make_space(), 4)
    fired = []
    for f in [2, 3, 2, 3, 2, 3, 2, 3]:
        req = lev.on_sample(f)
        if req is not None:
            fired.append(req)
    assert fired == [2, 3]


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        CoarseWearLeveler(make_space(), 0)


# ----------------------------------------------------------------------
# the exchange

def test_remap_forced_minimum_two_frame_pool():
    space = make_space(text_pages=0, data_pages=2, bss_pages=0, stack_pages=0)
    lev = CoarseWearLeveler(space, 5)
    assert len(space.pool_frames) == 2
    f0, f1 = space.pool_frames.tolist()
    req = None
    for _ in range(5):
        fired = lev.on_sample(f0)
        if fired is not None:
            req = fired
    assert lev.tree.age_of(f0) == 5 and lev.tree.age_of(f1) == 0
    result = lev.perform_remap(req)
    hot_page, cold_page, hot_frame, cold_frame = result
    assert (hot_frame, cold_frame) == (f0, f1)
    assert space.total_wear() == 192
    assert lev.copy_lines == 192
    # the mapping really moved
    assert space._mapped_frame(hot_page) == f1
    assert space._mapped_frame(cold_page) == f0


def test_remap_hot_is_minimum_picks_next():
    space = make_space(text_pages=0, data_pages=3, bss_pages=0, stack_pages=0)
    lev = CoarseWearLeveler(space, 1)
    f0, f1, f2 = space.pool_frames.tolist()
    req = lev.on_sample(f0)
    # ages now: f0=1, f1=0, f2=0, so f1 is the minimum; but force the
    # hot==minimum tie by sampling the current minimum itself
    req = lev.on_sample(f1)
    lev.tree.fold(f0, 10)
    lev.tree.fold(f2, 10)
    # ages now f0=11, f1=1, f2=10: the hot frame is the unique minimum
    result = lev.perform_remap(req)
    assert result[2] == f1
    assert result[3] == f2                   # next minimum, not f1 itself


def test_remap_single_frame_pool_skipped():
    space = make_space(text_pages=1, data_pages=0, bss_pages=0, stack_pages=0)
    lev = CoarseWearLeveler(space, 1)
    req = lev.on_sample(int(space.pool_frames[0]))
    assert lev.perform_remap(req) is None
    assert lev.skipped == 1
    assert space.total_wear() == 0


def test_remap_bumps_cold_age():
    space = make_space(text_pages=0, data_pages=4, bss_pages=0, stack_pages=0)
    lev = CoarseWearLeveler(space, 3)
    f0 = space.pool_frames[0]
    req = None
    for _ in range(3):
        fired = lev.on_sample(int(f0))
        if fired is not None:
            req = fired
    result = lev.perform_remap(req)
    cold = result[3]
    assert lev.tree.age_of(cold) == 3
    assert lev.tree.min_frame() not in (int(f0), cold)


def test_copy_wear_equals_192_per_remap():
    space = make_space()
    lev = CoarseWearLeveler(space, 2)
    fired = 0
    for f in space.pool_frames.tolist() * 4:
        req = lev.on_sample(f)
        if req is not None:
            assert lev.perform_remap(req) is not None
            fired += 1
    assert fired == lev.remaps
    assert lev.copy_lines == 192 * lev.remaps
    assert space.total_wear() == lev.copy_lines


def test_rebalance_trivials():
    lev = CoarseWearLeveler(make_space(), 4)
    assert lev.rebalance_check() == (0, 0)
    for _ in range(4):
        lev.on_sample(3)
    assert lev.rebalance_check() == (0, 4)


def test_minima_rotate_under_single_hot_frame():
    """A lone hot page must visit every pool frame, not ping-pong."""
    space = make_space(text_pages=0, data_pages=8, bss_pages=0, stack_pages=0)
    lev = CoarseWearLeveler(space, 2)
    hot_page = space.layout.segment("data").start
    hosts = set()
    for _ in range(40):
        frame = space._mapped_frame(hot_page)
        req = lev.on_sample(frame)
        if req is None:
            continue
        result = lev.perform_remap(req)
        hosts.add(result[3])
    assert hosts == set(space.pool_frames.tolist()) - {
        space._mapped_frame(hot_page)} or len(hosts) >= 7
    lo, hi = lev.rebalance_check()
    assert hi - lo <= 2 * lev.threshold


def test_tree_pool_bijection_after_remaps():
    space = make_space()
    lev = CoarseWearLeveler(space, 1)
    for f in space.pool_frames.tolist()[:10] * 3:
        req = lev.on_sample(f)
        if req is not None:
            lev.perform_remap(req)
    assert lev.tree.frames.tolist() == sorted(space.pool_frames.tolist())
    assert lev.tree.ages.sum() == 30 + lev.threshold * lev.remaps
