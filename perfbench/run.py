"""End-to-end replay benchmark for the nvmwear CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the CLI in a closed loop: an operation (all CLI steps of
the workload, each a `python -m nvmwear` child process) starts only after
the previous one ended.  Operations are timed until the next one would
overrun `--seconds`.  Every operation's outputs are checked; the last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates an
untraced operation with a traced one (`traced.py`, the same CLI steps run
in-process with spans on each layer) and reports the per-layer metrics.

See README.md in this directory for the workloads and how to read the
numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import traced

ROOT = Path(__file__).resolve().parent.parent
# Children run with the repository root as working directory.  The paths
# handed to the CLI stay relative and fixed, because report.json records
# the --trace path verbatim and its digest is compared across runs.
WORK = ".perfbench_work"
TRACE_PATH = WORK + "/hotspot.trace"
OUT_DIR = WORK + "/out"
DIGESTED = ("report.json", "baseline_wear.csv", "leveled_wear.csv",
            "sample_log.csv", "remap_log.csv", "relocation_log.csv")
SETUP_REPEATS = 3
# Every child is killed this long after the benchmark started, so a hung
# simulator cannot keep the benchmark from exiting within 180 s.
HARD_LIMIT_S = 170.0
BIG_LAYOUT = ["--text-pages", "64", "--data-pages", "4096",
              "--bss-pages", "1024", "--stack-pages", "64"]


def _roundtrip_hotspot(seed: int, writes: int) -> List[List[str]]:
    return [["gen", "--kind", "hotspot", "--writes", str(writes),
             "--seed", str(seed), "--out", TRACE_PATH],
            ["run", "--trace", TRACE_PATH, "--out", OUT_DIR]]


def _deepstack_n10(seed: int, writes: int) -> List[List[str]]:
    return [["run", "--kind", "deepstack", "--writes", str(writes),
             "--seed", str(seed), "--n", "10", "--out", OUT_DIR]]


def _bigmem_hotspot(seed: int, writes: int) -> List[List[str]]:
    return [["run", "--kind", "hotspot", "--writes", str(writes),
             "--seed", str(seed), "--n", "100", *BIG_LAYOUT,
             "--out", OUT_DIR]]


# name -> (CLI steps for (seed, writes), timed writes, warm-up writes).
# Each workload loads one layer and spares the others; README.md gives the
# reasons and the layer each end-to-end metric should follow.
WORKLOADS = {
    "roundtrip_hotspot": (_roundtrip_hotspot, 600_000, 60_000),
    "deepstack_n10": (_deepstack_n10, 100_000, 10_000),
    "bigmem_hotspot": (_bigmem_hotspot, 200_000, 20_000),
}

END_TO_END = {
    "wall_s": "s", "writes_per_s": "writes/s", "peak_rss_mb": "MB",
    "setup_s": "s", "ae": "ratio", "wo": "ratio", "li": "ratio",
    "ok_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


class Runner:
    """Runs CLI steps as child processes and measures each one."""

    def __init__(self, deadline: float):
        self.deadline = deadline          # perf_counter value
        self.env = child_env()
        self.err_path = ROOT / WORK / "stderr.txt"

    def step(self, argv: List[str]) -> Tuple[float, int, float]:
        """Run one child; returns (wall s, exit code, peak RSS in MB).

        Peak RSS comes from the child's own rusage (`os.wait4`), not
        RUSAGE_CHILDREN, which keeps the maximum over every child reaped.
        """
        with open(self.err_path, "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def operation(self, steps: List[List[str]], trace: bool) -> Dict:
        """Run all steps of one operation from a clean output directory."""
        shutil.rmtree(ROOT / OUT_DIR, ignore_errors=True)
        op = {"wall_s": 0.0, "peak_rss_mb": 0.0, "returncodes": [],
              "span_docs": []}
        for i, args in enumerate(steps):
            if trace:
                spans = "%s/spans%d.json" % (WORK, i)
                argv = [sys.executable, "perfbench/traced.py", spans, *args]
            else:
                argv = [sys.executable, "-m", "nvmwear", *args]
            wall, rc, rss = self.step(argv)
            op["wall_s"] += wall
            op["peak_rss_mb"] = max(op["peak_rss_mb"], rss)
            op["returncodes"].append(rc)
            if rc != 0:
                break
            if trace:
                with open(ROOT / spans, "r", encoding="utf-8") as fh:
                    op["span_docs"].append(json.load(fh))
        return op


def wear_total(path: Path) -> int:
    """The `#total,N` trailer of a wear CSV."""
    lines = path.read_bytes().decode("utf-8").splitlines()
    if not lines or not lines[-1].startswith("#total,"):
        raise ValueError("%s has no #total trailer" % path.name)
    return int(lines[-1].split(",", 1)[1])


def check_outputs(out_dir: Path, writes: int, returncodes: List[int],
                  expected_digest: Optional[str]
                  ) -> Tuple[List[str], Optional[str], Optional[Dict]]:
    """Check one operation; returns (problems, digest, report.json).

    An operation passes when every step exited 0, the baseline wear total
    equals the trace's write count, the leveled wear total equals
    `totals.leveled` of report.json, and the digest of report.json, the
    wear CSVs and the logs equals `expected_digest` (when given).
    """
    if any(rc != 0 for rc in returncodes):
        return ["exit codes %s" % returncodes], None, None
    problems: List[str] = []
    try:
        report = json.loads((out_dir / "report.json").read_text("utf-8"))
        base_total = wear_total(out_dir / "baseline_wear.csv")
        lev_total = wear_total(out_dir / "leveled_wear.csv")
        leveled = report["totals"]["leveled"]
        h = hashlib.sha256()
        for name in DIGESTED:
            h.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    except (OSError, ValueError, KeyError) as exc:
        return ["unreadable outputs: %s" % exc], None, None
    digest = h.hexdigest()
    if base_total != writes:
        problems.append("baseline wear total %d != %d trace writes"
                        % (base_total, writes))
    if lev_total != leveled:
        problems.append("leveled wear total %d != totals.leveled %d"
                        % (lev_total, leveled))
    if expected_digest is not None and digest != expected_digest:
        problems.append("digest %s != %s" % (digest[:16], expected_digest[:16]))
    return problems, digest, report


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.steps, self.writes, self.warmup_writes = WORKLOADS[workload]
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.runner = Runner(time.perf_counter() + HARD_LIMIT_S)
        self.digest: Optional[str] = None
        self.report: Optional[Dict] = None
        self.attempted = 0
        self.failed = 0

    def setup_once(self, warm_digest: Optional[str]) -> Tuple[float, str]:
        """Fresh work directory plus one checked warm-up operation."""
        t0 = time.perf_counter()
        shutil.rmtree(ROOT / WORK, ignore_errors=True)
        (ROOT / WORK).mkdir()
        op = self.runner.operation(self.steps(self.seed, self.warmup_writes),
                                   trace=False)
        problems, digest, _ = check_outputs(ROOT / OUT_DIR, self.warmup_writes,
                                            op["returncodes"], warm_digest)
        if problems:
            raise BenchError("warm-up failed: %s\n%s" % (
                "; ".join(problems), self.stderr_tail()))
        return time.perf_counter() - t0, digest

    def stderr_tail(self) -> str:
        try:
            return self.runner.err_path.read_text("utf-8", "replace")[-2000:]
        except OSError:
            return ""

    def timed(self, trace: bool) -> Dict:
        op = self.runner.operation(self.steps(self.seed, self.writes), trace)
        problems, digest, report = check_outputs(
            ROOT / OUT_DIR, self.writes, op["returncodes"], self.digest)
        self.attempted += 1
        if problems:
            self.failed += 1
            print("operation failed: %s" % "; ".join(problems), file=sys.stderr)
            print(self.stderr_tail(), file=sys.stderr)
        elif self.digest is None:
            self.digest, self.report = digest, report
        return op

    def run(self) -> Dict:
        if not (ROOT / "src" / "nvmwear" / "__main__.py").is_file():
            raise BenchError("no nvmwear package under %s" % (ROOT / "src"))
        setups, warm = [], None
        for _ in range(SETUP_REPEATS):
            dt, warm = self.setup_once(warm)
            setups.append(dt)

        plain: List[Dict] = []
        traced_ops: List[Dict] = []
        rounds: List[float] = []
        t_start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            plain.append(self.timed(trace=False))
            if self.trace:
                traced_ops.append(self.timed(trace=True))
            rounds.append(time.perf_counter() - t_round)
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(rounds) > self.seconds:
                break

        walls = [op["wall_s"] for op in plain]
        q1, wall, q3 = quartiles(walls)
        print("%s seed=%d digest=%s" % (self.workload, self.seed, self.digest))
        print("wall_s median=%.4f q1=%.4f q3=%.4f n=%d setup_s=%s"
              % (wall, q1, q3, len(walls),
                 ",".join("%.4f" % s for s in setups)))
        if self.trace:
            metrics = self.layer_metrics(traced_ops, wall)
        else:
            m = self.report["metrics"] if self.report else {}
            values = {
                "wall_s": wall,
                "writes_per_s": self.writes / wall,
                "peak_rss_mb": statistics.median(
                    op["peak_rss_mb"] for op in plain),
                "setup_s": statistics.median(setups),
                "ae": m.get("AE", 0.0),
                "wo": m.get("WO", 0.0),
                "li": m.get("LI", 0.0),
                "ok_frac": (self.attempted - self.failed) / self.attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in values.items()}
        return {"correct": self.failed == 0 and self.report is not None,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}

    def layer_metrics(self, ops: List[Dict], untraced_wall: float) -> Dict:
        per_op = [traced.layer_metrics(op["span_docs"], op["wall_s"],
                                       untraced_wall)
                  for op in ops if len(op["span_docs"]) == len(op["returncodes"])
                  and all(rc == 0 for rc in op["returncodes"])]
        out = {}
        for name, unit in traced.LAYER_METRICS.items():
            vals = [m[name] for m in per_op]
            out[name] = {"value": statistics.median(vals) if vals else 0.0,
                         "unit": unit}
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    # and reaped by Runner.step before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
