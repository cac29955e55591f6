"""Deterministic trace replay driving both wear-leveling mechanisms.

Event order per write: stack translation (fine leveling on), page-table
translation, wear recording, sampling.  When a write is sampled the
coarse leveler sees the sampled frame first, then the fine leveler runs
one relocation step.  Leveler copy traffic goes straight to the wear map
and is never sampled.  Remaps and relocations only happen between
events, so writes are processed in whole sampling periods: within one
period the page table and the stack shift are constant, which lets the
period be translated and charged as an array batch.

A replay is a pure function of (trace, config): identical inputs give
identical wear maps, logs, and reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple, get_type_hints

import numpy as np

from .coarse import CoarseWearLeveler
from .errors import ConfigError, SimulationError
from .memspace import MemorySpace
from .metrics import (MetricsReport, achieved_endurance, endurance_improvement,
                      lifetime_improvement, normalized_endurance,
                      write_overhead)
from .sampler import WriteSampler
from .stack import StackState, relocate_step
from .trace import MemoryLayout, Segment, Trace

_BASELINE_CHUNK = 1 << 20


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


@dataclass
class RunResult:
    space: MemorySpace
    config: SimConfig
    totals: Dict[str, int]
    sample_log: List[Tuple[int, int]] = field(default_factory=list)
    remap_log: List[Tuple[int, int, int, int, int]] = field(default_factory=list)
    reloc_log: List[Tuple[int, int, int, int, int]] = field(default_factory=list)
    sampler: Optional[WriteSampler] = None
    stack_state: Optional[StackState] = None
    coarse_leveler: Optional[CoarseWearLeveler] = None

    @property
    def wear(self) -> np.ndarray:
        return self.space.wear


def replay(trace: Trace, config: SimConfig) -> RunResult:
    layout = trace.layout
    if config.pool_pages is not None and layout.total_pages > config.pool_pages:
        raise ConfigError("layout needs %d pages but the pool allows %d"
                          % (layout.total_pages, config.pool_pages))
    space = MemorySpace(layout)
    stack_seg = layout.segment("stack")
    fine = config.enable_fine and stack_seg is not None
    coarse = config.enable_coarse
    sampling = coarse or fine
    chunk = (config.sample_interval_n + 1) if sampling else _BASELINE_CHUNK

    is_write = trace.kinds == 0
    sampler = WriteSampler(config.sample_interval_n, space.n_pages) \
        if sampling else None
    leveler = CoarseWearLeveler(space, config.remap_threshold_t) \
        if coarse else None
    st = None
    if fine:
        sp_pos = np.flatnonzero(~is_write)
        sp0 = stack_seg.end if len(sp_pos) else stack_seg.end - min(
            config.fixed_valid_stack, stack_seg.size - config.stack_step)
        st = StackState(region_base=stack_seg.start,
                        region_size=stack_seg.size, sp=sp0,
                        step=config.stack_step)
        # the sp in force at each tick: the last update before its write
        tick_sp = np.concatenate(([sp0], trace.addrs[sp_pos]))[np.searchsorted(
            sp_pos, np.flatnonzero(is_write)[chunk - 1::chunk])]

    addrs_w = trace.addrs[is_write]
    values_w = trace.values[is_write]
    has_value_w = trace.has_value[is_write]
    n_writes = len(addrs_w)
    wear = space.wear
    words = space.words
    has_word = space.has_word

    sample_log: List[Tuple[int, int]] = []
    remap_log: List[Tuple[int, int, int, int, int]] = []
    reloc_log: List[Tuple[int, int, int, int, int]] = []
    for start in range(0, n_writes, chunk):
        end = min(start + chunk, n_writes)
        a = addrs_w[start:end]
        if fine:
            a = a - st.shift * ((a >= stack_seg.start) & (a < stack_seg.end))
        lines = space.line_index(a)
        wear += np.bincount(lines, minlength=space.n_lines)

        # the last write to a line in the period decides its word
        hv = has_value_w[start:end]
        if hv.any() or has_word[lines].any():
            uniq, first = np.unique(lines[::-1], return_index=True)
            last = len(lines) - 1 - first
            carries = hv[last]
            has_word[uniq] = carries
            words[uniq[carries]] = values_w[start:end][last[carries]]

        if not sampling or end - start < chunk:
            continue
        frame = int(lines[-1]) // space.lines_per_page
        sampler.record_tick(frame)
        sample_log.append((end, frame))
        if coarse and leveler.on_sample(frame) is not None:
            result = leveler.perform_remap(frame)
            if result is not None:
                remap_log.append((end,) + result)
        if fine:
            st.sp = int(tick_sp[start // chunk])
            wraps = st.wraps
            copied = relocate_step(st, space)
            reloc_log.append((end, st.shift, st.valid_bytes, copied,
                              st.wraps - wraps))

    coarse_lines = leveler.copy_lines if coarse else 0
    stack_copy_lines = sum(row[3] for row in reloc_log)
    totals = {
        "app_writes": n_writes,
        "coarse_copy_lines": coarse_lines,
        "stack_copy_lines": stack_copy_lines,
        "total_writes": n_writes + coarse_lines + stack_copy_lines,
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
    region = leveled.space.region_lines()
    ae_base = achieved_endurance(baseline.wear[region])
    ae_lev = achieved_endurance(leveled.wear[region])
    wo = write_overhead(baseline.totals["total_writes"],
                        leveled.totals["total_writes"])
    ei = endurance_improvement(ae_lev, ae_base)
    return MetricsReport(ae=ae_lev, wo=wo, ne=normalized_endurance(ae_lev, wo),
                         ei=ei, li=lifetime_improvement(ei, wo))


# ----------------------------------------------------------------------
# report document and log serialization

def report_dict(trace: Trace, config: SimConfig, baseline: RunResult,
                leveled: RunResult, paired: MetricsReport,
                trace_desc: Optional[Dict] = None) -> Dict:
    """Build the run report document written as report.json."""
    layout = trace.layout
    per_segment = {}
    for seg in layout.segments:
        counts = leveled.wear[leveled.space.region_lines(seg.name)]
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
            "sim": config.to_dict(),
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


def _csv(header: str, rows) -> bytes:
    """A header line and one line per row, each ending in a newline."""
    return "\n".join([header, *rows, ""]).encode("utf-8")


def sample_log_csv(result: RunResult) -> bytes:
    fbase = result.space.base_frame
    return _csv("event_index,frame",
                ("%d,%d" % (idx, fbase + f) for idx, f in result.sample_log))


def remap_log_csv(result: RunResult) -> bytes:
    fbase = result.space.base_frame
    return _csv("event_index,hot_page_hex,cold_page_hex,hot_frame,cold_frame",
                ("%d,0x%x,0x%x,%d,%d" % (idx, hp, cp, fbase + hf, fbase + cf)
                 for idx, hp, cp, hf, cf in result.remap_log))


def relocation_log_csv(result: RunResult) -> bytes:
    return _csv("event_index,shift_delta,valid_bytes,copied_lines,wrapped",
                ("%d,%d,%d,%d,%d" % row for row in result.reloc_log))


def estimates_csv(result: RunResult) -> bytes:
    """Sampled per-frame estimates of a leveled run, with a sample trailer."""
    est, fbase = result.sampler.estimates, result.space.base_frame
    rows = ["%d,%d" % (fbase + f, est[f]) for f in np.flatnonzero(est)]
    rows.append("#samples,%d" % result.sampler.samples_taken)
    return _csv("frame,estimate", rows)
