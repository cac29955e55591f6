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


class AgeTree:
    """Pool frames and their estimated ages, as two parallel numpy arrays.

    `frames` is sorted ascending and `ages[i]` is the age of `frames[i]`.
    A pool holds a few thousand frames at most and the least-aged frame
    is looked up once per remap, so a linear scan is cheap.  `np.argmin`
    returns the first minimum, which breaks age ties toward the lowest
    frame.
    """

    def __init__(self, frames):
        self.frames = np.sort(np.asarray(frames, dtype=np.int64))
        self.ages = np.zeros(len(self.frames), dtype=np.int64)

    def __len__(self):
        return len(self.frames)

    def _index(self, frame: int) -> int:
        i = int(np.searchsorted(self.frames, frame))
        if i == len(self.frames) or self.frames[i] != frame:
            raise KeyError("frame %r not in pool" % (frame,))
        return i

    def age_of(self, frame: int) -> int:
        return int(self.ages[self._index(frame)])

    def fold(self, frame: int, amount: int):
        self.ages[self._index(frame)] += amount

    def min_frame(self, exclude: Optional[int] = None) -> Optional[int]:
        """Least-aged frame other than `exclude`; None if there is none."""
        ages = np.where(self.frames == exclude, _AGE_MAX, self.ages)
        frame = int(self.frames[np.argmin(ages)])
        return None if frame == exclude else frame

    def age_bounds(self) -> Tuple[int, int]:
        return int(self.ages.min()), int(self.ages.max())


class CoarseWearLeveler:
    def __init__(self, space: MemorySpace, threshold_t: int):
        if threshold_t < 1:
            raise ValueError("remap threshold must be >= 1")
        self.space = space
        self.threshold = threshold_t
        self.pending = np.zeros(space.n_pages, dtype=np.int64)
        self.tree = AgeTree(space.pool_frames.tolist())
        self.remaps = 0
        self.skipped = 0
        self.copy_lines = 0

    def on_sample(self, frame: int) -> Optional[int]:
        """Register one sampled write; returns the frame when it folds."""
        self.pending[frame] += 1
        if self.pending[frame] >= self.threshold:
            self.tree.fold(frame, int(self.pending[frame]))
            self.pending[frame] = 0
            return frame
        return None

    def perform_remap(self, hot_frame: int) -> Optional[Tuple[int, int, int, int]]:
        """Exchange the hot frame's page with the coldest frame's page.

        Returns (hot_page_addr, cold_page_addr, hot_frame, cold_frame), or
        None when the remap is skipped (pool smaller than two frames).
        """
        space = self.space
        if len(space.pool_frames) < 2:
            self.skipped += 1
            return None
        cold_frame = self.tree.min_frame(exclude=hot_frame)
        hot_page = space.page_addr_of_frame(hot_frame)
        cold_page = space.page_addr_of_frame(cold_frame)
        buf = space.buffer_frame
        self.copy_lines += space.copy_frame(hot_frame, buf)
        self.copy_lines += space.copy_frame(cold_frame, hot_frame)
        self.copy_lines += space.copy_frame(buf, cold_frame)
        space.swap_frames(hot_page, cold_page)
        # The extracted minimum is charged one trigger quantum up front:
        # it is about to absorb the hot page's writes, and bumping it now
        # moves it off the minimum so successive remaps rotate through the
        # whole pool instead of ping-ponging between two frames whose
        # below-threshold sample counts the ages cannot see yet.
        self.tree.fold(cold_frame, self.threshold)
        self.remaps += 1
        return hot_page, cold_page, hot_frame, cold_frame

    def rebalance_check(self) -> Tuple[int, int]:
        return self.tree.age_bounds()
