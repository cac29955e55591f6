"""Trace-driven simulator for software-only NVM wear-leveling.

The package replays memory write traces through a modeled virtual-memory
layer and measures how leveling policies spread per-line wear: sampled
write counting, age-ordered coarse page remapping, and fine-grained
circular relocation of the stack through a shadow region.
"""

from .engine import SimConfig, paired_run, replay
from .errors import SimulationError
from .metrics import achieved_endurance
from .sampler import WriteSampler
from .trace import MemoryLayout, Segment, SpUpdateEvent, Trace, WriteEvent
from .tracefile import load_trace, save_trace
from .workloads import gen_workload, make_layout

__version__ = "0.1.0"

__all__ = [
    "SimConfig", "paired_run", "replay", "SimulationError",
    "achieved_endurance", "WriteSampler", "MemoryLayout", "Segment",
    "SpUpdateEvent", "Trace", "WriteEvent", "gen_workload", "load_trace",
    "make_layout", "save_trace",
]
