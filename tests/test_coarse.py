"""Age-ordered frame bookkeeping and hot/cold page exchange."""

import random

import numpy as np

from nvmwear import make_layout
from nvmwear.coarse import CoarseWearLeveler
from nvmwear.memspace import MemorySpace


def make_space(**kw):
    return MemorySpace(make_layout(**kw))


def frame_of(space, addr):
    """Frame backing the page that holds a virtual address."""
    return space.line_index(addr) // space.lines_per_page


def data_only(pages):
    return make_space(text_pages=0, data_pages=pages, bss_pages=0,
                      stack_pages=0)


# ----------------------------------------------------------------------
# age bookkeeping

def test_ages_one_entry_per_frame():
    space = make_space()
    lev = CoarseWearLeveler(space, 4)
    assert lev.ages.shape == (space.n_pages,)
    assert lev.ages.dtype == np.int64
    for f in space.pool_frames.tolist() * 4:
        lev.on_sample(f)
    # frames outside the pool (shadow, buffer) stay at age 0 and never
    # enter the bounds
    assert lev.rebalance_check() == (4, 4)
    assert lev.ages.sum() == 4 * len(space.pool_frames)


def test_cold_frame_tie_break_is_lowest_frame():
    space = data_only(3)
    lev = CoarseWearLeveler(space, 1)
    f0, f1, f2 = space.pool_frames.tolist()
    # all ages tie at 0 apart from the hot frame's own fold
    assert lev.perform_remap(lev.on_sample(f2))[3] == f0
    # f0 was bumped by one quantum; f1 is now the lone minimum
    assert lev.perform_remap(lev.on_sample(f0))[3] == f1


def test_fold_moves_frame_off_the_minimum():
    space = data_only(3)
    lev = CoarseWearLeveler(space, 5)
    f0, f1, f2 = space.pool_frames.tolist()
    for _ in range(5):
        fired = lev.on_sample(f0)
    assert fired == f0 and lev.ages[f0] == 5
    assert lev.rebalance_check() == (0, 5)
    lev.ages[f1] += 5
    lev.ages[f2] += 7
    # f0 and f1 tie at 5 below f2: the lower frame f0 is the minimum,
    # so a remap of the hot f2 picks it
    assert lev.perform_remap(f2)[3] == f0


def test_remaps_against_sorted_age_model():
    """Fold and remap against a sorted (age, frame) list with tied ages."""
    rng = random.Random(13)
    # five pool frames with the stack's shadow frames in between
    space = make_space(text_pages=1, data_pages=2, bss_pages=0,
                       stack_pages=2)
    pool = space.pool_frames.tolist()
    lev = CoarseWearLeveler(space, 2)
    ages = dict.fromkeys(pool, 0)
    pending = dict.fromkeys(pool, 0)
    hot_was_minimum = tied = 0
    for _ in range(3000):
        if rng.random() < 0.5:
            # age some frame directly: spreads the ages so that a folded
            # minimum can stay the minimum; even steps keep ages tied
            f = rng.choice(pool)
            amount = rng.choice([2, 4, 8, 16])
            lev.ages[f] += amount
            ages[f] += amount
        if rng.random() < 0.5:
            # fold the current minimum, which often stays the minimum
            frame = min((age, f) for f, age in ages.items())[1]
            n_samples = lev.threshold - pending[frame]
        else:
            frame, n_samples = rng.choice(pool), 1
        for _ in range(n_samples):
            fired = lev.on_sample(frame)
            pending[frame] += 1
        if pending[frame] < lev.threshold:
            assert fired is None
            continue
        assert fired == frame
        ages[frame] += pending[frame]
        pending[frame] = 0
        model = sorted((age, f) for f, age in ages.items())
        hot_was_minimum += model[0][1] == frame
        rest = [m for m in model if m[1] != frame]
        tied += rest[0][0] == rest[1][0]
        expected = rest[0][1]
        pages = (space.page_addr_of_frame(frame),
                 space.page_addr_of_frame(expected))
        assert lev.perform_remap(frame) == pages + (frame, expected)
        ages[expected] += lev.threshold
        assert lev.ages[pool].tolist() == [ages[f] for f in pool]
        assert lev.rebalance_check() == (min(ages.values()),
                                         max(ages.values()))
    assert lev.remaps > 1000 and hot_was_minimum > 100 and tied > 100
    assert not lev.ages[np.setdiff1d(np.arange(space.n_pages), pool)].any()


# ----------------------------------------------------------------------
# trigger rule

def test_on_sample_threshold_four():
    lev = CoarseWearLeveler(make_space(), 4)
    f = 2
    assert lev.on_sample(f) is None
    assert lev.on_sample(f) is None
    assert lev.on_sample(f) is None
    req = lev.on_sample(f)
    assert req == f
    assert lev.ages[f] == 4
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
    assert lev.ages[f0] == 5 and lev.ages[f1] == 0
    result = lev.perform_remap(req)
    hot_page, cold_page, hot_frame, cold_frame = result
    assert (hot_frame, cold_frame) == (f0, f1)
    assert space.total_wear() == 192
    assert lev.copy_lines == 192
    # the mapping really moved
    assert frame_of(space, hot_page) == f1
    assert frame_of(space, cold_page) == f0


def test_remap_hot_is_minimum_picks_next():
    space = make_space(text_pages=0, data_pages=3, bss_pages=0, stack_pages=0)
    lev = CoarseWearLeveler(space, 1)
    f0, f1, f2 = space.pool_frames.tolist()
    req = lev.on_sample(f0)
    # ages now: f0=1, f1=0, f2=0, so f1 is the minimum; but force the
    # hot==minimum tie by sampling the current minimum itself
    req = lev.on_sample(f1)
    lev.ages[f0] += 10
    lev.ages[f2] += 10
    # ages now f0=11, f1=1, f2=10: the hot frame is the unique minimum
    result = lev.perform_remap(req)
    assert result[2] == f1
    assert result[3] == f2                   # next minimum, not f1 itself


def test_remap_single_frame_pool_skipped():
    space = make_space(text_pages=1, data_pages=0, bss_pages=0, stack_pages=0)
    lev = CoarseWearLeveler(space, 1)
    req = lev.on_sample(int(space.pool_frames[0]))
    assert lev.perform_remap(req) is None
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
    assert lev.ages[cold] == 3
    pool = space.pool_frames
    assert pool[np.argmin(lev.ages[pool])] not in (int(f0), cold)


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
        frame = frame_of(space, hot_page)
        req = lev.on_sample(frame)
        if req is None:
            continue
        result = lev.perform_remap(req)
        hosts.add(result[3])
    assert hosts == set(space.pool_frames.tolist()) - {
        frame_of(space, hot_page)} or len(hosts) >= 7
    lo, hi = lev.rebalance_check()
    assert hi - lo <= 2 * lev.threshold


def test_tree_pool_bijection_after_remaps():
    space = make_space()
    lev = CoarseWearLeveler(space, 1)
    for f in space.pool_frames.tolist()[:10] * 3:
        req = lev.on_sample(f)
        if req is not None:
            lev.perform_remap(req)
    pool = space.pool_frames
    assert sorted(space.frames[pool].tolist()) == pool.tolist()
    assert lev.ages[pool].sum() == 30 + lev.threshold * lev.remaps
    assert lev.ages.sum() == lev.ages[pool].sum()
