"""Tests for the benchmark's own output check and tracing.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys

import pytest

import run
import traced


def cli(*args, spans=None):
    """Run one CLI step, traced into `spans` when given; returns its exit code."""
    if spans is None:
        argv = [sys.executable, "-m", "nvmwear", *args]
    else:
        argv = [sys.executable, "perfbench/traced.py", str(spans), *args]
    return subprocess.run(argv, cwd=run.ROOT, env=run.child_env(),
                          capture_output=True, timeout=120).returncode


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "out"
    rc = cli("run", "--kind", "deepstack", "--writes", "3000",
             "--n", "10", "--out", str(out))
    assert rc == 0
    return out


def test_check_accepts_good_outputs(tiny_run):
    problems, digest, report = run.check_outputs(tiny_run, 3000, [0], None)
    assert problems == []
    assert report["totals"]["baseline"] == 3000
    again, same, _ = run.check_outputs(tiny_run, 3000, [0], digest)
    assert again == [] and same == digest


def test_check_flags_nonzero_exit(tiny_run):
    problems, _, _ = run.check_outputs(tiny_run, 3000, [0, 1], None)
    assert problems and "exit codes" in problems[0]


def test_check_flags_changed_digest(tiny_run):
    problems, _, _ = run.check_outputs(tiny_run, 3000, [0], "0" * 64)
    assert len(problems) == 1 and problems[0].startswith("digest")


def test_check_flags_write_count_mismatch(tiny_run):
    problems, _, _ = run.check_outputs(tiny_run, 2999, [0], None)
    assert len(problems) == 1 and "baseline wear total" in problems[0]


@pytest.mark.parametrize("name", ["baseline_wear.csv", "leveled_wear.csv"])
def test_check_flags_corrupted_trailer(tmp_path, tiny_run, name):
    for src in tiny_run.iterdir():
        (tmp_path / src.name).write_bytes(src.read_bytes())
    path = tmp_path / name
    text = path.read_text()
    head, _, total = text.rstrip("\n").rpartition("#total,")
    path.write_text("%s#total,%d\n" % (head, int(total) + 1))
    problems, _, _ = run.check_outputs(tmp_path, 3000, [0], None)
    assert len(problems) == 1 and "wear total" in problems[0]

    path.write_text(head)
    problems, _, _ = run.check_outputs(tmp_path, 3000, [0], None)
    assert len(problems) == 1 and "no #total trailer" in problems[0]


def test_traced_tiny_roundtrip_records_every_layer(tmp_path):
    steps = run.WORKLOADS["roundtrip_hotspot"][0](0, 200_000)
    trace_path, out_dir = str(tmp_path / "t.trace"), str(tmp_path / "out")
    docs = []
    for i, args in enumerate(steps):
        args = [trace_path if a == run.TRACE_PATH else
                out_dir if a == run.OUT_DIR else a for a in args]
        spans = tmp_path / ("spans%d.json" % i)
        assert cli(*args, spans=spans) == 0
        docs.append(json.loads(spans.read_text()))

    names = {s[0] for doc in docs for s in doc["spans"]}
    assert names == traced.SPAN_NAMES
    m = traced.layer_metrics(docs, traced_wall_s=10.0, untraced_wall_s=9.0)
    assert list(m) == list(traced.LAYER_METRICS)
    calls = [k for k in m if k.endswith(".calls")]
    assert all(m[k] > 0 for k in calls)
    assert m["trace.file_bytes"] == (tmp_path / "t.trace").stat().st_size
    assert m["stack.copy_lines"] > 0
    # the outputs of a traced step are those of the untraced CLI
    problems, _, report = run.check_outputs(tmp_path / "out", 200_000, [0, 0],
                                            None)
    assert problems == []
    assert m["engine.ticks"] == report["totals"]["samples"] > 0
    assert m["coarse.copy_lines"] + m["stack.copy_lines"] \
        == report["totals"]["copies"]
    assert m["cli.uncovered_s"] == pytest.approx(10.0 - m["cli.main.s"])


def test_span_totals_self_time():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    tot = traced.span_totals(spans)
    assert tot["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert tot["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
