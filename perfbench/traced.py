"""Run one nvmwear CLI step in-process with timing spans on every layer.

Usage (from the repository root):

    python3 perfbench/traced.py SPANS_JSON <nvmwear CLI arguments...>

The step runs through `nvmwear.cli.main`, exactly as `python -m nvmwear`
would run it, after wrapping the public functions each layer calls into.
Each wrapper records a span (name, start, end, parent) in memory; the
spans and a few counters are written to SPANS_JSON when the step ends.
The exit code is the CLI's.

Wrappers go on the names the callers look up.  `cli` and `engine` bind
their helpers with `from ... import`, so a wrapper on, say,
`nvmwear.stack.relocate_step` would never be called; it has to go on
`nvmwear.engine.relocate_step`.  Per-line helpers such as
`MemorySpace.line_index` run millions of times per operation and are not
wrapped; line counts come from return values and from report totals.

`layer_metrics` turns the spans of one operation into the benchmark's
per-layer metrics.  It imports nothing from nvmwear, so the benchmark
driver can use it without loading the simulator.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

# Every span name `Tracer.install` records.
SPAN_NAMES = {
    "cli.main", "trace.gen_workload", "trace.emit_trace", "trace.parse_trace",
    "trace.validate", "engine.replay_baseline", "engine.replay_leveled",
    "engine.report_dict", "engine.logs_csv", "stack.relocate_step",
    "coarse.on_sample", "coarse.perform_remap", "sampler.record_tick",
    "memspace.copy_frame", "memspace.wear_csv_bytes",
    "metrics.achieved_endurance", "cli.write_atomic",
}

# Counters that hold a size rather than a count of events: both steps of
# a round trip see the same trace file, so steps are merged by max.
_GAUGES = {"trace.file_bytes", "memspace.n_lines", "stack.wraps"}

# Per-layer metric name -> unit, in report order.
LAYER_METRICS = {
    "trace.gen_workload.s": "s",
    "trace.emit_trace.s": "s",
    "trace.parse_trace.s": "s",
    "trace.file_bytes": "bytes",
    "trace.validate.s": "s",
    "engine.replay_baseline.s": "s",
    "engine.replay_leveled.s": "s",
    "engine.replay.self_s": "s",
    "engine.ticks": "count",
    "engine.host_us_per_tick": "us",
    "engine.report_dict.s": "s",
    "engine.logs_csv.s": "s",
    "stack.relocate_step.calls": "count",
    "stack.relocate_step.s": "s",
    "stack.copy_lines": "lines",
    "stack.lines_per_relocation": "lines/call",
    "stack.wraps": "count",
    "coarse.on_sample.calls": "count",
    "coarse.on_sample.s": "s",
    "coarse.perform_remap.calls": "count",
    "coarse.perform_remap.s": "s",
    "coarse.remaps_per_sample": "ratio",
    "coarse.copy_lines": "lines",
    "sampler.record_tick.calls": "count",
    "sampler.record_tick.s": "s",
    "memspace.n_lines": "lines",
    "memspace.copy_frame.calls": "count",
    "memspace.copy_frame.s": "s",
    "memspace.wear_csv_bytes.s": "s",
    "memspace.wear_csv_lines": "lines",
    "metrics.achieved_endurance.s": "s",
    "cli.main.s": "s",
    "cli.write_atomic.s": "s",
    "cli.bytes_written": "bytes",
    "cli.uncovered_s": "s",
    "tracing_overhead_s": "s",
}


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans: List[list] = []   # [name, start, end, parent index]
        self.open: List[int] = []
        self.counts: Dict[str, int] = {}

    def add(self, key: str, amount: int):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, owner, attr: str, name, after: Optional[Callable] = None):
        """Replace owner.attr by a wrapper that records one span per call.

        `name` is a span name or a function of the call's arguments that
        returns one; `after(args, result)` updates counters.
        """
        fn = getattr(owner, attr)
        spans, open_ = self.spans, self.open

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append([label, 0.0, 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                spans[idx][1] = t0
                open_.pop()
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every layer boundary of the nvmwear package."""
        from nvmwear import cli, engine
        from nvmwear.coarse import CoarseWearLeveler
        from nvmwear.memspace import MemorySpace
        from nvmwear.sampler import WriteSampler
        from nvmwear.trace import Trace

        def file_size(args, _out):
            # save_trace(trace, path) and load_trace(path)
            self.counts["trace.file_bytes"] = os.path.getsize(args[-1])

        def replay_name(args, kwargs):
            config = args[1] if len(args) > 1 else kwargs["config"]
            leveled = config.enable_coarse or config.enable_fine
            return "engine.replay_leveled" if leveled else "engine.replay_baseline"

        def relocated(args, copied):
            self.add("stack.copy_lines", copied)
            self.counts["stack.wraps"] = args[0].wraps

        def remapped(_args, result):
            self.add("coarse.remaps", result is not None)

        def frame_copied(_args, lines):
            self.add("coarse.copy_lines", lines)

        def wear_csv(args, data):
            self.counts["memspace.n_lines"] = args[0].n_lines
            # header row and "#total" trailer are not wear rows
            self.add("memspace.wear_csv_lines", data.count(b"\n") - 2)

        def written(args, _out):
            self.add("cli.bytes_written", len(args[1]))

        self.wrap(cli, "gen_workload", "trace.gen_workload")
        self.wrap(cli, "save_trace", "trace.emit_trace", file_size)
        self.wrap(cli, "load_trace", "trace.parse_trace", file_size)
        self.wrap(cli, "write_atomic", "cli.write_atomic", written)
        self.wrap(engine, "replay", replay_name)
        self.wrap(engine, "relocate_step", "stack.relocate_step", relocated)
        self.wrap(engine, "report_dict", "engine.report_dict")
        for attr in ("sample_log_csv", "remap_log_csv", "relocation_log_csv"):
            self.wrap(engine, attr, "engine.logs_csv")
        self.wrap(engine, "achieved_endurance", "metrics.achieved_endurance")
        self.wrap(Trace, "validate", "trace.validate")
        self.wrap(WriteSampler, "record_tick", "sampler.record_tick")
        self.wrap(CoarseWearLeveler, "on_sample", "coarse.on_sample")
        self.wrap(CoarseWearLeveler, "perform_remap", "coarse.perform_remap",
                  remapped)
        self.wrap(MemorySpace, "copy_frame", "memspace.copy_frame",
                  frame_copied)
        self.wrap(MemorySpace, "wear_csv_bytes", "memspace.wear_csv_bytes",
                  wear_csv)
        self.wrap(cli, "main", "cli.main")
        return cli.main


def span_totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds, and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it.
    """
    child = [0.0] * len(spans)
    for _name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, t0, t1, _parent) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += t1 - t0
        agg["self_s"] += t1 - t0 - child[i]
    return out


def layer_metrics(step_docs: List[Dict], traced_wall_s: float,
                  untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced operation.

    `step_docs` are the SPANS_JSON documents of the operation's steps;
    `traced_wall_s` is the operation's wall time measured around the
    traced processes, and `untraced_wall_s` the median wall time of the
    same operation without tracing.
    """
    spans: List[list] = []
    counts: Dict[str, int] = {}
    for doc in step_docs:
        offset = len(spans)
        spans.extend([name, t0, t1, parent + offset if parent >= 0 else -1]
                     for name, t0, t1, parent in doc["spans"])
        for key, val in doc["counts"].items():
            prev = counts.get(key, 0)
            counts[key] = max(prev, val) if key in _GAUGES else prev + val
    tot = span_totals(spans)

    def get(name, field="s"):
        return tot.get(name, {}).get(field, 0)

    ticks = get("sampler.record_tick", "calls")
    relocs = get("stack.relocate_step", "calls")
    samples = get("coarse.on_sample", "calls")
    m = {
        "trace.gen_workload.s": get("trace.gen_workload"),
        "trace.emit_trace.s": get("trace.emit_trace"),
        "trace.parse_trace.s": get("trace.parse_trace"),
        "trace.file_bytes": counts.get("trace.file_bytes", 0),
        "trace.validate.s": get("trace.validate"),
        "engine.replay_baseline.s": get("engine.replay_baseline"),
        "engine.replay_leveled.s": get("engine.replay_leveled"),
        "engine.replay.self_s": get("engine.replay_leveled", "self_s"),
        "engine.ticks": ticks,
        "engine.host_us_per_tick":
            get("engine.replay_leveled") / ticks * 1e6 if ticks else 0.0,
        "engine.report_dict.s": get("engine.report_dict"),
        "engine.logs_csv.s": get("engine.logs_csv"),
        "stack.relocate_step.calls": relocs,
        "stack.relocate_step.s": get("stack.relocate_step"),
        "stack.copy_lines": counts.get("stack.copy_lines", 0),
        "stack.lines_per_relocation":
            counts.get("stack.copy_lines", 0) / relocs if relocs else 0.0,
        "stack.wraps": counts.get("stack.wraps", 0),
        "coarse.on_sample.calls": samples,
        "coarse.on_sample.s": get("coarse.on_sample"),
        "coarse.perform_remap.calls": get("coarse.perform_remap", "calls"),
        "coarse.perform_remap.s": get("coarse.perform_remap"),
        "coarse.remaps_per_sample":
            counts.get("coarse.remaps", 0) / samples if samples else 0.0,
        "coarse.copy_lines": counts.get("coarse.copy_lines", 0),
        "sampler.record_tick.calls": ticks,
        "sampler.record_tick.s": get("sampler.record_tick"),
        "memspace.n_lines": counts.get("memspace.n_lines", 0),
        "memspace.copy_frame.calls": get("memspace.copy_frame", "calls"),
        "memspace.copy_frame.s": get("memspace.copy_frame"),
        "memspace.wear_csv_bytes.s": get("memspace.wear_csv_bytes"),
        "memspace.wear_csv_lines": counts.get("memspace.wear_csv_lines", 0),
        "metrics.achieved_endurance.s": get("metrics.achieved_endurance"),
        "cli.main.s": get("cli.main"),
        "cli.write_atomic.s": get("cli.write_atomic"),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "cli.uncovered_s": traced_wall_s - get("cli.main"),
        "tracing_overhead_s": traced_wall_s - untraced_wall_s,
    }
    return m


def main(argv: List[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    cli_main = tracer.install()
    rc = cli_main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
