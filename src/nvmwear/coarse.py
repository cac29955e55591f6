"""Coarse-grained wear leveling: per-frame ages and page remapping.

Every sampled write adds to a per-frame pending tally.  When a frame's
pending count reaches the threshold it is folded into that frame's
estimated age and the frame's current page is exchanged with the page on
the least-aged frame, via a three-copy pass through the buffer frame.
Copy traffic is charged to the wear map but never to the ages, which only
track application writes as seen by the sampler.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .memspace import MemorySpace

_AGE_MAX = np.iinfo(np.int64).max


class CoarseWearLeveler:
    """Per-frame pending tallies and estimated ages, indexed by frame.

    Only pool frames ever gain age.  The least-aged frame is looked up
    once per remap by a linear scan over the pool, so a remap costs
    O(pool) (ROADMAP item 4); the pool is sorted and `np.argmin` returns
    the first minimum, so age ties go to the lowest frame.
    """

    def __init__(self, space: MemorySpace, threshold_t: int):
        self.space = space
        self.threshold = threshold_t
        self.pending = np.zeros(space.n_pages, dtype=np.int64)
        self.ages = np.zeros(space.n_pages, dtype=np.int64)
        self.remaps = 0
        self.copy_lines = 0

    def on_sample(self, frame: int) -> Optional[int]:
        """Register one sampled write; returns the frame when it folds."""
        self.pending[frame] += 1
        if self.pending[frame] >= self.threshold:
            self.ages[frame] += self.pending[frame]
            self.pending[frame] = 0
            return frame
        return None

    def perform_remap(self, hot_frame: int) -> Optional[Tuple[int, int, int, int]]:
        """Exchange the hot frame's page with the coldest frame's page.

        Returns (hot_page_addr, cold_page_addr, hot_frame, cold_frame), or
        None when the remap is skipped (pool smaller than two frames).
        """
        space = self.space
        pool = space.pool_frames
        if len(pool) < 2:
            return None
        cold_frame = int(pool[np.argmin(
            np.where(pool == hot_frame, _AGE_MAX, self.ages[pool]))])
        hot_page = space.page_addr_of_frame(hot_frame)
        cold_page = space.page_addr_of_frame(cold_frame)
        buf = space.buffer_frame
        self.copy_lines += space.copy_frame(hot_frame, buf)
        self.copy_lines += space.copy_frame(cold_frame, hot_frame)
        self.copy_lines += space.copy_frame(buf, cold_frame)
        space.swap_frames(hot_frame, cold_frame)
        # The extracted minimum is charged one trigger quantum up front:
        # it is about to absorb the hot page's writes, and bumping it now
        # moves it off the minimum so successive remaps rotate through the
        # whole pool instead of ping-ponging between two frames whose
        # below-threshold sample counts the ages cannot see yet.
        self.ages[cold_frame] += self.threshold
        self.remaps += 1
        return hot_page, cold_page, hot_frame, cold_frame

    def rebalance_check(self) -> Tuple[int, int]:
        ages = self.ages[self.space.pool_frames]
        return int(ages.min()), int(ages.max())
