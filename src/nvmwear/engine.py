"""Deterministic trace replay driving both wear-leveling mechanisms.

Event order per write: stack translation (fine leveling on), page-table
translation, wear recording, sampling.  When a write is sampled the
coarse leveler sees the sampled frame first, then the fine leveler runs
one relocation step.  Leveler copy traffic goes straight to the wear map
and is never sampled.  Remaps and relocations only happen between
events, so within one sampling period the page table and the stack
shift are constant.

Replay walks the trace once, `_CHARGE_BATCH` events at a time, through
`trace.chunks`, so a `Trace` in memory and one spilled to temporary
files (`nvmwear.trace.spill`) replay alike.  For each chunk it finds the
chunk's ticks, each tick's sampled write and the sp in force there (the
last update before that write), carrying the write count and the sp
from chunk to chunk.  A write in period k sees the stack shift of k
relocations, which `translate_after` computes in closed form, and
`MemorySpace.page_index` takes the chunk's translated writes to their
mapped pages in one search.  The per-tick loop then does the control
work alone: it looks up the sampled write's frame in the live page
table and drives the sampler and both levelers.  Frames are numbered
over the mapped pages only, so a gap between segments costs nothing.
The chunk's application writes are charged up to each remap,
before it changes the page table, and the rest at the chunk's end.
Charging late is exact because wear is only ever added to and nothing
in the loop reads it.  A chunk costs what its length does, not what the
memory's size does, and no array of the trace's length is made: besides
the per-tick logs, replay holds O(chunk) temporaries.  The loop keeps
each tick's sampled frame and relocation line count, and the sp in force,
a chunk at a time; the int64 logs are built from those pieces at the
end, and their event indices, shifts and wrap flags follow from the
tick numbers as vectors.

A replay models wear, sampling and the leveler logs only: it reads no
write payloads (see `nvmwear.spec`), and its copies charge wear alone.
It is a pure function of (trace, config): identical inputs give
identical wear maps, logs, and reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Optional, Tuple, Union, get_type_hints

import numpy as np

from .coarse import CoarseWearLeveler
from .errors import ConfigError, SimulationError, StackOverflowError
from .memspace import MemorySpace
from .metrics import (MetricsReport, achieved_endurance,
                      endurance_improvement, lifetime_improvement,
                      normalized_endurance, table_csv, write_overhead)
from .sampler import WriteSampler
from .stack import StackState, relocate_step, translate_after
from .trace import (KIND_SP, KIND_WRITE, MemoryLayout, Segment, SpilledTrace,
                    Trace)

# events replayed at a time, their ticks found and their writes charged;
# translating a chunk makes several temporaries of its length, so a
# shorter one keeps them small
_CHARGE_BATCH = 1 << 13


@dataclass(frozen=True)
class SimConfig:
    """Replay settings, checked when built; raises ConfigError."""

    sample_interval_n: int = 1000
    remap_threshold_t: int = 64
    stack_step: int = 64
    enable_coarse: bool = True
    enable_fine: bool = True
    pool_pages: Optional[int] = None
    fixed_valid_stack: int = 4096
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            kind, value = _FIELD_TYPES[f.name], getattr(self, f.name)
            if isinstance(value, bool) != (kind is bool) or not (
                    isinstance(value, int) or value is None and kind != int):
                raise ConfigError("%s must be %s, not %r"
                                  % (f.name, f.type, value))
        if self.sample_interval_n < 1:
            raise ConfigError("sample_interval_n must be >= 1")
        if self.remap_threshold_t < 1:
            raise ConfigError("remap_threshold_t must be >= 1")
        if self.stack_step <= 0 or self.stack_step % 64:
            raise ConfigError("stack_step must be a positive multiple of 64")
        if self.fixed_valid_stack < 0:
            raise ConfigError("fixed_valid_stack must be >= 0")
        if self.pool_pages is not None and self.pool_pages < 1:
            raise ConfigError("pool_pages must be >= 1")

    def to_dict(self) -> Dict:
        return asdict(self)

    def leveling_off(self) -> "SimConfig":
        """This config with both levelers disabled: the baseline pipeline."""
        return replace(self, enable_coarse=False, enable_fine=False)

    @classmethod
    def from_dict(cls, d: Dict) -> "SimConfig":
        extra = set(d) - set(_FIELD_TYPES)
        if extra:
            raise ConfigError("unknown config keys: %s" % ", ".join(sorted(extra)))
        return cls(**d)


_FIELD_TYPES = get_type_hints(SimConfig)


def _rows(width: int, rows=()) -> np.ndarray:
    """A log of int64 rows of `width` columns, none by default."""
    return np.array(rows, np.int64).reshape(-1, width)


@dataclass
class RunResult:
    """A replay's wear map (in `space`), totals and logs; no content image."""

    space: MemorySpace
    config: SimConfig
    totals: Dict[str, int]
    # int64 rows with the columns of the log CSVs, frames as numbered
    # over the mapped pages (the CSVs print `space.pages` of them):
    # (event_index, frame); (event_index, hot_page, cold_page, hot_frame,
    # cold_frame); and (event_index, shift, valid_bytes, copied_lines,
    # wrapped)
    sample_log: np.ndarray = field(default_factory=lambda: _rows(2))
    remap_log: np.ndarray = field(default_factory=lambda: _rows(5))
    reloc_log: np.ndarray = field(default_factory=lambda: _rows(5))
    sampler: Optional[WriteSampler] = None
    stack_state: Optional[StackState] = None
    coarse_leveler: Optional[CoarseWearLeveler] = None

    @property
    def wear(self) -> np.ndarray:
        return self.space.wear


def replay(trace: Union[Trace, SpilledTrace], config: SimConfig
           ) -> RunResult:
    """Replay a trace under a config: its wear map, totals and logs.

    The trace is read once, `_CHARGE_BATCH` events at a time, through
    `trace.chunks`: a `Trace`'s columns or a spilled trace's files give
    the same result.  Each write is charged with the other writes of its
    event range, at the frame that `space.frames` gives its mapped page
    then.  A stack overflow names the stack-pointer update in force at
    its tick.
    """
    layout = trace.layout
    if config.pool_pages is not None and layout.total_pages > config.pool_pages:
        raise ConfigError("layout needs %d pages but the pool allows %d"
                          % (layout.total_pages, config.pool_pages))
    space = MemorySpace(layout)
    stack_seg = layout.segment("stack")
    fine = config.enable_fine and stack_seg is not None
    coarse = config.enable_coarse
    sampling = coarse or fine
    period = config.sample_interval_n + 1

    sampler = WriteSampler(config.sample_interval_n, space.n_pages) \
        if sampling else None
    leveler = CoarseWearLeveler(space, config.remap_threshold_t) \
        if coarse else None
    st = None
    sp, sp_event = 0, None  # the sp in force, and the event that set it
    if fine:
        sp = stack_seg.end if trace.has_sp_updates else stack_seg.end - min(
            config.fixed_valid_stack, stack_seg.size - config.stack_step)
        st = StackState(region_base=stack_seg.start,
                        region_size=stack_seg.size, sp=sp,
                        step=config.stack_step)

    lpp = space.lines_per_page

    def charge(pages: np.ndarray, lines: np.ndarray):
        """Charge writes, given their mapped pages and their lines within
        the page, under the current page table."""
        np.add.at(space.wear, space.frames[pages] * lpp + lines, 1)

    # what only the tick loop knows, each tick's sampled frame and the lines
    # its relocation copied, and the sp in force at each tick, kept a chunk
    # at a time; the logs' other columns follow from the tick's number
    frame_cols, copied_cols, sp_cols = ([np.zeros(0, np.int64)]
                                        for _ in range(3))
    remaps = []
    lo = written = n_ticks = 0  # events, writes and ticks before the chunk
    for kinds, addrs in trace.chunks(_CHARGE_BATCH):
        is_write = kinds == KIND_WRITE
        writes = addrs[is_write]
        if fine:  # a write in period k sees the shift of k relocations
            writes = translate_after(writes, np.arange(
                written, written + len(writes)) // period, st)
        pages = space.page_index(writes)
        lines = (writes >> space.line_shift) & (lpp - 1)
        done = 0  # the chunk's writes charged
        if sampling:
            # the chunk's ticks: each sampled write, and with fine leveling
            # the sp in force there, the last update before that write
            first = (-written - 1) % period
            sampled = pages[first::period].tolist()
            if fine:
                upd = np.flatnonzero(kinds == KIND_SP)
                at = np.searchsorted(
                    upd, np.flatnonzero(is_write)[first::period])
                sp_cols.append(np.append(sp, addrs[upd])[at])
                tick_sp = sp_cols[-1].tolist()
            frames, copied = [], []
            try:
                for i, page in enumerate(sampled):
                    frame = int(space.frames[page])
                    sampler.record_tick(frame)
                    frames.append(frame)
                    if coarse and leveler.on_sample(frame) is not None:
                        upto = first + i * period + 1
                        charge(pages[done:upto], lines[done:upto])
                        done = upto
                        result = leveler.perform_remap(frame)
                        if result is not None:
                            remaps.append(((n_ticks + i + 1) * period,)
                                          + result)
                    if fine:
                        st.sp = tick_sp[i]
                        copied.append(relocate_step(st, space))
            except StackOverflowError as exc:
                j = int(at[i])
                raise StackOverflowError(
                    str(exc), lo + int(upd[j - 1]) if j else sp_event
                ) from None
            frame_cols.append(np.array(frames, np.int64))
            copied_cols.append(np.array(copied, np.int64))
            n_ticks += len(sampled)
            if fine and len(upd):
                sp, sp_event = addrs[upd[-1]], lo + int(upd[-1])
        charge(pages[done:], lines[done:])
        written += len(writes)
        lo += len(kinds)
    if sampling:  # the writes after the last tick, as observe_write counts
        sampler.write_counter = written - n_ticks * period
        sampler.armed = sampler.write_counter == config.sample_interval_n

    sample_log = np.empty((n_ticks, 2), np.int64)
    ticks = np.arange(1, n_ticks + 1)
    np.multiply(ticks, period, out=sample_log[:, 0])
    np.concatenate(frame_cols, out=sample_log[:, 1])
    del frame_cols
    reloc_log = np.empty((n_ticks if fine else 0, 5), np.int64)
    if fine:  # tick k leaves the shift of k + 1 steps
        steps = np.remainder(ticks, st.region_size // st.step, out=ticks)
        reloc_log[:, 0] = sample_log[:, 0]
        np.multiply(steps, st.step, out=reloc_log[:, 1])
        np.concatenate(sp_cols, out=reloc_log[:, 2])
        np.subtract(st.top, reloc_log[:, 2], out=reloc_log[:, 2])
        np.concatenate(copied_cols, out=reloc_log[:, 3])
        np.equal(steps, 0, out=reloc_log[:, 4])
    remap_log = _rows(5, remaps)
    coarse_lines = leveler.copy_lines if coarse else 0
    stack_copy_lines = int(reloc_log[:, 3].sum())
    totals = {
        "app_writes": written,
        "coarse_copy_lines": coarse_lines,
        "stack_copy_lines": stack_copy_lines,
        "total_writes": written + coarse_lines + stack_copy_lines,
        "samples": len(sample_log),
        "remaps": len(remap_log),
        "relocations": len(reloc_log),
        "wraps": st.wraps if fine else 0,
    }
    return RunResult(space=space, config=config, totals=totals,
                     sample_log=sample_log, remap_log=remap_log,
                     reloc_log=reloc_log, sampler=sampler, stack_state=st,
                     coarse_leveler=leveler)


def paired_run(trace: Trace, config: SimConfig
               ) -> Tuple[RunResult, RunResult, MetricsReport]:
    """Replay a trace twice, leveling off then on, and compare.

    The baseline run uses the identity pipeline (no sampling, no copies),
    so its wear map is exactly the trace's per-line aggregation.
    """
    baseline = replay(trace, config.leveling_off())
    leveled = replay(trace, config)
    return baseline, leveled, compare_runs(baseline, leveled)


def compare_runs(baseline: RunResult, leveled: RunResult) -> MetricsReport:
    """Metrics of a leveled replay against the baseline of the same trace."""
    ae_base = achieved_endurance(baseline.wear)
    ae_lev = achieved_endurance(leveled.wear)
    wo = write_overhead(baseline.totals["total_writes"],
                        leveled.totals["total_writes"])
    ei = endurance_improvement(ae_lev, ae_base)
    return MetricsReport(ae=ae_lev, wo=wo, ne=normalized_endurance(ae_lev, wo),
                         ei=ei, li=lifetime_improvement(ei, wo))


# ----------------------------------------------------------------------
# report document and log serialization

def report_dict(baseline: RunResult, leveled: RunResult,
                paired: MetricsReport, trace_desc: Optional[Dict] = None
                ) -> Dict:
    """Build the run report document written as report.json, with the
    leveled run's layout and config; reads no event of the trace."""
    layout = leveled.space.layout
    per_segment = {}
    for seg in layout.segments:
        counts = leveled.wear[leveled.space.region_slices(seg.name)[0]]
        peak = int(counts.max())
        per_segment[seg.name] = {
            "AE": None if peak == 0 else achieved_endurance(counts),
            "max": peak,
            "mean": float(counts.mean()),
        }
    return {
        "config": {
            "trace": trace_desc or {},
            "layout": {
                "segments": [[s.name, "0x%x" % s.start, "0x%x" % s.end]
                             for s in layout.segments],
                "page_size": layout.page_size,
                "line_size": layout.line_size,
            },
            "sim": leveled.config.to_dict(),
        },
        "totals": {
            "baseline": baseline.totals["total_writes"],
            "leveled": leveled.totals["total_writes"],
            "copies": (leveled.totals["coarse_copy_lines"]
                       + leveled.totals["stack_copy_lines"]),
            "remaps": leveled.totals["remaps"],
            "relocations": leveled.totals["relocations"],
            "samples": leveled.totals["samples"],
        },
        "metrics": {
            "AE": paired.ae, "WO": paired.wo, "EI": paired.ei,
            "NE": paired.ne, "LI": paired.li,
        },
        "per_segment": per_segment,
    }


def report_layout(path) -> MemoryLayout:
    """The checked memory layout of a report.json that `report_dict` built."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lay = json.load(fh)["config"]["layout"]
        return MemoryLayout([Segment(name, int(start, 16), int(end, 16))
                             for name, start, end in lay["segments"]],
                            lay["page_size"], lay["line_size"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError("%s: bad layout: %r" % (path, exc)) from None


def sample_log_csv(result: RunResult) -> bytes:
    log = result.sample_log
    return table_csv("event_index,frame",
                     (log[:, 0], result.space.pages[log[:, 1]]))


def remap_log_csv(result: RunResult) -> bytes:
    idx, hp, cp, hf, cf = result.remap_log.T
    pages = result.space.pages
    return table_csv(
        "event_index,hot_page_hex,cold_page_hex,hot_frame,cold_frame",
        (idx, hp, cp, pages[hf], pages[cf]))


def relocation_log_csv(result: RunResult) -> bytes:
    return table_csv(
        "event_index,shift_delta,valid_bytes,copied_lines,wrapped",
        result.reloc_log.T)


def estimates_csv(result: RunResult) -> bytes:
    """Sampled per-frame estimates of a leveled run, with a sample trailer."""
    est = result.sampler.estimates
    frames = np.flatnonzero(est)
    return table_csv("frame,estimate",
                     (result.space.pages[frames], est[frames]),
                     "#samples,%d" % result.sampler.samples_taken)
