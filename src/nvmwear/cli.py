"""Command-line front end: generate traces, run simulations, shape reports.

Exit codes: 0 on success, 1 on runtime errors (missing files, simulation
errors), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, get_type_hints

from . import engine, metrics
from .errors import ConfigError, SimulationError
from .memspace import MemorySpace
from .trace import (WORKLOADS, Trace, gen_workload, load_trace, make_layout,
                    save_trace)


def write_atomic(path: Path, data: bytes):
    """Write via a temp file plus rename; readers never see partial files."""
    path = Path(path)
    tmp = path.parent / (path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def parse_config_file(path) -> Dict:
    """Flat `key = value` file with SimConfig field names and types."""
    types = get_type_hints(engine.SimConfig)
    out: Dict = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            # an undecodable byte is a lone surrogate, which "replace" drops
            if raw.encode("utf-8", "replace").decode("utf-8") != raw:
                raise ConfigError("%s line %d: not UTF-8" % (path, line_no))
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError("%s line %d: expected key = value"
                                  % (path, line_no))
            key, _, value = map(str.strip, line.partition("="))
            if key not in types:
                raise ConfigError("%s line %d: unknown key %r"
                                  % (path, line_no, key))
            if types[key] is bool:
                if value.lower() in ("true", "1", "yes", "on"):
                    out[key] = True
                elif value.lower() in ("false", "0", "no", "off"):
                    out[key] = False
                else:
                    raise ConfigError("%s line %d: bad boolean %r"
                                      % (path, line_no, value))
            elif types[key] == Optional[int] and value.lower() == "none":
                out[key] = None
            else:
                try:
                    out[key] = int(value)
                except ValueError:
                    raise ConfigError("%s line %d: bad integer %r"
                                      % (path, line_no, value)) from None
    return out


def _layout_from_args(args):
    return make_layout(text_pages=args.text_pages, data_pages=args.data_pages,
                       bss_pages=args.bss_pages, stack_pages=args.stack_pages)


def _add_layout_flags(p):
    p.add_argument("--text-pages", type=int, default=2)
    p.add_argument("--data-pages", type=int, default=8)
    p.add_argument("--bss-pages", type=int, default=4)
    p.add_argument("--stack-pages", type=int, default=4)


def _resolve_trace(args) -> tuple[Trace, Dict]:
    if args.trace is not None:
        return load_trace(args.trace), {"path": str(args.trace)}
    layout = _layout_from_args(args)
    trace = gen_workload(args.kind, args.writes, layout, args.seed)
    desc = {"kind": args.kind, "writes": args.writes, "seed": args.seed,
            "text_pages": args.text_pages, "data_pages": args.data_pages,
            "bss_pages": args.bss_pages, "stack_pages": args.stack_pages}
    return trace, desc


def _build_config(args, n: Optional[int], t: Optional[int]
                  ) -> engine.SimConfig:
    values = engine.SimConfig().to_dict()
    if args.config is not None:
        values.update(parse_config_file(args.config))
    overrides = {
        "sample_interval_n": n,
        "remap_threshold_t": t,
        "stack_step": args.step,
        "enable_coarse": args.coarse,
        "enable_fine": args.fine,
        "pool_pages": args.pool_pages,
        "fixed_valid_stack": args.fixed_valid_stack,
        "seed": args.seed if args.trace is None else args.sim_seed,
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return engine.SimConfig.from_dict(values)


def _report_csv_bytes(doc: Dict) -> bytes:
    rows = ["section,key,value"]

    def flatten(section, obj):
        for key, val in obj.items():
            if isinstance(val, dict):
                flatten("%s.%s" % (section, key), val)
            else:
                rows.append("%s,%s,%s" % (section, key, json.dumps(val)))

    for section in ("config", "totals", "metrics", "per_segment"):
        flatten(section, doc[section])
    return "\n".join([*rows, ""]).encode("utf-8")


def _run_one(trace: Trace, config: engine.SimConfig,
             baseline: engine.RunResult, out_dir: Path, fmt: str,
             trace_desc: Dict) -> Dict:
    leveled = engine.replay(trace, config)
    paired = engine.compare_runs(baseline, leveled)
    doc = engine.report_dict(trace, config, baseline, leveled, paired,
                             trace_desc=trace_desc)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        write_atomic(out_dir / "report.csv", _report_csv_bytes(doc))
    write_atomic(out_dir / "report.json",
                 (json.dumps(doc, indent=1) + "\n").encode("utf-8"))
    write_atomic(out_dir / "baseline_wear.csv",
                 baseline.space.wear_csv_bytes())
    write_atomic(out_dir / "leveled_wear.csv", leveled.space.wear_csv_bytes())
    write_atomic(out_dir / "sample_log.csv", engine.sample_log_csv(leveled))
    write_atomic(out_dir / "remap_log.csv", engine.remap_log_csv(leveled))
    write_atomic(out_dir / "relocation_log.csv",
                 engine.relocation_log_csv(leveled))
    if leveled.sampler is not None:
        write_atomic(out_dir / "estimates.csv", engine.estimates_csv(leveled))
    m = doc["metrics"]
    print("AE=%.4f WO=%.4f EI=%.4f NE=%.4f LI=%.4f"
          % (m["AE"], m["WO"], m["EI"], m["NE"], m["LI"]))
    return doc


def cmd_gen(args) -> int:
    layout = _layout_from_args(args)
    trace = gen_workload(args.kind, args.writes, layout, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_trace(trace, out)
    print("wrote %s: %d events (%d writes), %d segments"
          % (out, trace.n_events, trace.n_writes, len(layout.segments)))
    return 0


def _int_list(text: str) -> List[int]:
    """argparse type for --n/--t: a comma list of integers."""
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            "expected a comma list of integers, got %r" % text)
    return values


def cmd_run(args) -> int:
    trace, trace_desc = _resolve_trace(args)
    out_dir = Path(args.out)
    baseline = None
    # an omitted flag leaves the config file's value in force
    for n_val, t_val in itertools.product(args.n or [None], args.t or [None]):
        config = _build_config(args, n_val, t_val)
        run_dir = out_dir
        if args.sweep:
            n, t = config.sample_interval_n, config.remap_threshold_t
            print("config n=%d t=%d:" % (n, t), end=" ")
            run_dir = out_dir / ("n%d_t%d" % (n, t))
        if baseline is None:
            # the levelers-off replay reads neither n nor t
            baseline = engine.replay(trace, config.leveling_off())
        _run_one(trace, config, baseline, run_dir, args.format, trace_desc)
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    space = MemorySpace(engine.report_layout(run_dir / "report.json"))
    space.load_wear_csv(run_dir / "leveled_wear.csv")
    names = [args.segment] if args.segment is not None \
        else [seg.name for seg in space.layout.segments]
    regions = [(name, space.region_lines(name)) for name in names]
    out_dir = Path(args.out) if args.out else run_dir / "report"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in regions:
        counts = space.wear[lines]
        if args.bins == "log2":
            rows = ["bin,lines"] + ["%d,%d" % bin_lines for bin_lines
                                    in metrics.log2_bins(counts).items()]
            payload = "\n".join([*rows, ""]).encode("utf-8")
            path = out_dir / ("%s_log2.csv" % name)
        else:
            payload = metrics.export_histogram(space.base_line + lines,
                                               counts)
            path = out_dir / ("%s.csv" % name)
        write_atomic(path, payload)
        print("wrote %s" % path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvmwear",
        description="Trace-driven simulator for software-only NVM "
                    "wear-leveling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic write trace")
    p_gen.add_argument("--kind", required=True, choices=WORKLOADS)
    p_gen.add_argument("--writes", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    _add_layout_flags(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="replay a trace and report metrics")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="trace file to replay")
    src.add_argument("--kind", choices=WORKLOADS,
                     help="generate this workload instead of reading a file")
    p_run.add_argument("--writes", type=int, default=100000)
    p_run.add_argument("--seed", type=int, default=0,
                       help="generator seed (also the config seed)")
    p_run.add_argument("--sim-seed", type=int, default=None)
    p_run.add_argument("--config", help="flat key = value config file")
    p_run.add_argument("--n", type=_int_list, default=None,
                       help="sampling interval (comma list with --sweep)")
    p_run.add_argument("--t", type=_int_list, default=None,
                       help="remap threshold (comma list with --sweep)")
    p_run.add_argument("--step", type=int, default=None,
                       help="stack relocation step in bytes")
    p_run.add_argument("--coarse", action=argparse.BooleanOptionalAction,
                       default=None, help="toggle coarse page remapping")
    p_run.add_argument("--fine", action=argparse.BooleanOptionalAction,
                       default=None, help="toggle fine stack relocation")
    p_run.add_argument("--pool-pages", type=int, default=None)
    p_run.add_argument("--fixed-valid-stack", type=int, default=None)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--sweep", action="store_true",
                       help="run every n x t combination into subdirectories")
    _add_layout_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="per-segment histograms for a run")
    p_rep.add_argument("--run", required=True, help="finished run directory")
    p_rep.add_argument("--segment", default=None)
    p_rep.add_argument("--bins", choices=("log2",), default=None)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and not args.sweep:
        for flag in ("n", "t"):
            if len(getattr(args, flag) or ()) > 1:
                parser.error("--%s takes one value without --sweep" % flag)
    try:
        return args.func(args)
    except (SimulationError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
