"""Trace-driven simulator for software-only NVM wear-leveling.

The package replays memory write traces through a modeled virtual-memory
layer and measures how leveling policies spread per-line wear: sampled
write counting, age-ordered coarse page remapping, and fine-grained
circular relocation of the stack through a shadow region.
"""

from .coarse import AgeTree, CoarseWearLeveler
from .engine import (RunResult, SimConfig, paired_run, replay, report_dict)
from .errors import (ConfigError, GeneratorError, LayoutError, MetricsError,
                     SimulationError, StackOverflowError, TraceFormatError,
                     UnmappedPageError)
from .memspace import MemorySpace
from .metrics import (MetricsReport, achieved_endurance,
                      endurance_improvement, export_histogram,
                      lifetime_improvement, log2_bins, normalized_endurance,
                      parse_histogram_csv, write_overhead)
from .sampler import WriteSampler
from .stack import (SmartPointer, StackState, adjust_inmemory_pointers,
                    relocate_step, translate_stack, wraparound_reset)
from .trace import (MemoryLayout, Segment, SpUpdateEvent, Trace, WriteEvent,
                    aggregate_linecounts, emit_trace, gen_workload,
                    load_trace, make_layout, parse_trace, save_trace)

__version__ = "0.1.0"

__all__ = [
    "AgeTree", "CoarseWearLeveler",
    "RunResult", "SimConfig", "paired_run", "replay", "report_dict",
    "ConfigError", "GeneratorError", "LayoutError", "MetricsError",
    "SimulationError", "StackOverflowError", "TraceFormatError",
    "UnmappedPageError", "MemorySpace", "MetricsReport",
    "achieved_endurance", "endurance_improvement", "export_histogram",
    "lifetime_improvement", "log2_bins", "normalized_endurance",
    "parse_histogram_csv", "write_overhead", "WriteSampler", "SmartPointer",
    "StackState", "adjust_inmemory_pointers", "relocate_step",
    "translate_stack", "wraparound_reset", "MemoryLayout", "Segment",
    "SpUpdateEvent", "Trace", "WriteEvent", "aggregate_linecounts",
    "emit_trace", "gen_workload", "load_trace", "make_layout", "parse_trace",
    "save_trace",
]
