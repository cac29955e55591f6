"""End-to-end command-line checks driving main() in process."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

import nvmwear.cli as cli_module
import nvmwear.workloads as workloads_module
from nvmwear import (Trace, engine, gen_workload, load_trace, make_layout,
                     save_trace)
from nvmwear.cli import main, parse_config_file
from nvmwear.tracefile import emit_trace
from nvmwear.workloads import WORKLOADS


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_gen_writes_parseable_trace(tmp_path, capsys):
    out = tmp_path / "t.trace"
    assert run_cli("gen", "--kind", "hotspot", "--writes", 500,
                   "--seed", 3, "--out", out) == 0
    line = capsys.readouterr().out
    assert "500 writes" in line and str(out) in line
    trace = load_trace(out)
    assert trace.n_writes == 500


def test_gen_is_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    run_cli("gen", "--kind", "deepstack", "--writes", 400, "--seed", 1,
            "--out", a)
    run_cli("gen", "--kind", "deepstack", "--writes", 400, "--seed", 1,
            "--out", b)
    run_cli("gen", "--kind", "deepstack", "--writes", 400, "--seed", 2,
            "--out", c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_requires_kind(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--writes", 10, "--out", tmp_path / "x")
    assert exc.value.code == 2


@pytest.mark.parametrize("size", [1, 7, None])
@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_gen_file_does_not_depend_on_the_chunk(tmp_path, monkeypatch, capsys,
                                               kind, size):
    """`gen` writes a generator's chunks as they are drawn; at any chunk
    size, for lengths that are not chunk multiples and for no writes, the
    file is the trace `gen_workload` joins at the default chunk."""
    layout = make_layout()
    lengths = (0, 300) if size else (0, 2 * workloads_module._GEN_CHUNK + 5)
    want = [emit_trace(gen_workload(kind, n, layout, 3)) for n in lengths]
    if size:
        monkeypatch.setattr(workloads_module, "_GEN_CHUNK", size)
    for n, text in zip(lengths, want):
        out = tmp_path / ("%d.trace" % n)
        assert run_cli("gen", "--kind", kind, "--writes", n, "--seed", 3,
                       "--out", out) == 0
        assert out.read_bytes() == text
    # no writes: the header, and the hotspot trace's one sp update
    events = want[0].decode().splitlines()[len(layout.segments):]
    assert [e.split()[0] for e in events] == (["S"] if kind == "hotspot"
                                              else [])


def test_gen_error_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "t.trace"
    assert run_cli("gen", "--kind", "hotspot", "--writes", 100,
                   "--data-pages", 0, "--out", out) == 1
    assert "hotspot workload needs a data segment" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
@pytest.mark.parametrize("command", ("gen", "run"))
def test_negative_seed_is_an_error_not_a_traceback(tmp_path, capsys, command,
                                                   kind):
    out = tmp_path / "out"
    assert run_cli(command, "--kind", kind, "--writes", 100, "--seed", -1,
                   "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed -1 ") and "Traceback" not in err
    assert not out.exists()


def test_run_reports_missing_trace_file(tmp_path, capsys):
    missing = tmp_path / "nope.trace"
    assert run_cli("run", "--trace", missing, "--out", tmp_path / "out") == 1
    assert str(missing) in capsys.readouterr().err


def test_run_levelers_off_is_identity(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--kind", "stream", "--writes", 2000,
                   "--no-coarse", "--no-fine", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "WO=0.0000" in printed and "EI=1.0000" in printed
    doc = json.loads((out / "report.json").read_text())
    assert doc["metrics"]["WO"] == 0.0
    assert doc["totals"]["baseline"] == doc["totals"]["leveled"]


def test_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--kind", "hotspot", "--writes", 5000,
                   "--n", 100, "--t", 8, "--out", out) == 0
    for name in ("report.json", "baseline_wear.csv", "leveled_wear.csv",
                 "sample_log.csv", "remap_log.csv", "relocation_log.csv",
                 "estimates.csv"):
        assert (out / name).exists(), name
    assert (out / "sample_log.csv").read_text().startswith(
        "event_index,frame\n")
    assert (out / "remap_log.csv").read_text().startswith(
        "event_index,hot_page_hex,cold_page_hex,hot_frame,cold_frame\n")
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["trace"]["kind"] == "hotspot"
    assert doc["config"]["sim"]["sample_interval_n"] == 100


def test_run_csv_format_adds_flat_report(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--kind", "stream", "--writes", 1000,
                   "--format", "csv", "--out", out) == 0
    flat = (out / "report.csv").read_text()
    assert flat.startswith("section,key,value\n")
    assert "metrics,AE," in flat
    assert (out / "report.json").exists()


def test_run_is_reproducible_byte_for_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("run", "--kind", "queue", "--writes", 3000,
                "--n", 50, "--t", 4, "--out", out)
    for name in ("report.json", "leveled_wear.csv", "sample_log.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_config_file_round_trip(tmp_path):
    trace_path = tmp_path / "t.trace"
    run_cli("gen", "--kind", "hotspot", "--writes", 4000, "--seed", 5,
            "--out", trace_path)
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text("# tuned run\n"
                        "sample_interval_n = 37\n"
                        "remap_threshold_t = 5\n"
                        "enable_fine = off\n"
                        "pool_pages = none\n")
    out1 = tmp_path / "r1"
    assert run_cli("run", "--trace", trace_path, "--config", cfg_path,
                   "--out", out1) == 0
    doc = json.loads((out1 / "report.json").read_text())
    sim = doc["config"]["sim"]
    assert sim["sample_interval_n"] == 37
    assert sim["remap_threshold_t"] == 5
    assert sim["enable_fine"] is False and sim["pool_pages"] is None

    # the resolved config written back as key = value reproduces the run
    def fmt(v):
        if v is None:
            return "none"
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    cfg2 = tmp_path / "sim2.cfg"
    cfg2.write_text("".join("%s = %s\n" % (k, fmt(v))
                            for k, v in sim.items()))
    assert parse_config_file(cfg2) == sim
    out2 = tmp_path / "r2"
    assert run_cli("run", "--trace", trace_path, "--config", cfg2,
                   "--out", out2) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()


def test_config_lines_end_at_newline_only(tmp_path):
    # a lone "\r" does not end a comment, as in trace files; CRLF still works
    cfg = tmp_path / "sim.cfg"
    cfg.write_bytes(b"# note\rsample_interval_n = 7\n")
    assert parse_config_file(cfg) == {}
    cfg.write_bytes(b"# note\r\nsample_interval_n = 7\r\n"
                    b"enable_fine = off\r\n")
    assert parse_config_file(cfg) == {"sample_interval_n": 7,
                                      "enable_fine": False}


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("interval = 5\n")
    assert run_cli("run", "--kind", "stream", "--writes", 100,
                   "--config", cfg, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "unknown key" in err and "line 1" in err


def test_run_rejects_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sample_interval_n = 10\nenable_fine maybe\n")
    assert run_cli("run", "--kind", "stream", "--writes", 100,
                   "--config", cfg, "--out", tmp_path / "out") == 1
    assert "line 2" in capsys.readouterr().err
    for line, why in (("enable_fine = maybe", "bad boolean"),
                      ("sample_interval_n = 1.5", "bad integer")):
        cfg.write_text("# c\n" + line + "\n")
        assert run_cli("run", "--kind", "stream", "--writes", 100,
                       "--config", cfg, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 2: " + why in err


@pytest.mark.parametrize("option", ["--trace", "--config"])
def test_run_rejects_files_that_are_not_utf8(tmp_path, capsys, option):
    bad = tmp_path / "bad"
    if option == "--trace":
        bad.write_bytes(b"@segment data 0x100000000 0x100001000\n"
                        b"W 0x100000000\nW 0x1000000\xff0\n")
        argv = ("--trace", bad)
    else:
        bad.write_bytes(b"remap_threshold_t = 4\n"
                        b"# line 2\nsample_interval_n = \xff\n")
        argv = ("--kind", "stream", "--writes", 100, "--config", bad)
    assert run_cli("run", *argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s" % bad) and "line 3:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [("--n", "20,50"), ("--t", "4,8"),
                                   ("--sweep", "--n", "20,x"),
                                   ("--sweep", "--t", "")])
def test_run_rejects_bad_n_and_t_lists(tmp_path, capsys, flags):
    # a list without --sweep, or a token that is not an integer
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--kind", "stream", "--writes", 100, *flags,
                "--out", tmp_path / "x")
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_runs_each_combination(tmp_path, capsys, monkeypatch):
    replayed = []

    def counting_replay(trace, config):
        replayed.append(config)
        return real_replay(trace, config)

    real_replay = engine.replay
    monkeypatch.setattr(engine, "replay", counting_replay)
    out = tmp_path / "sweep"
    assert run_cli("run", "--kind", "hotspot", "--writes", 3000,
                   "--sweep", "--n", "20,50", "--t", "4",
                   "--out", out) == 0
    # one levelers-off baseline shared by both leveled replays
    assert len(replayed) == 3
    assert sum(c == c.leveling_off() for c in replayed) == 1
    printed = capsys.readouterr().out
    assert "config n=20 t=4:" in printed and "config n=50 t=4:" in printed
    for sub in ("n20_t4", "n50_t4"):
        assert (out / sub / "report.json").exists()
    a = json.loads((out / "n20_t4" / "report.json").read_text())
    b = json.loads((out / "n50_t4" / "report.json").read_text())
    assert a["config"]["sim"]["sample_interval_n"] == 20
    assert b["config"]["sim"]["sample_interval_n"] == 50


def test_sweep_keeps_config_file_values(tmp_path, capsys):
    # an omitted --n takes the config file's value, as it does without
    # --sweep, and names the subdirectory
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("sample_interval_n = 37\n")
    out = tmp_path / "sweep"
    assert run_cli("run", "--kind", "stream", "--writes", 2000,
                   "--config", cfg, "--sweep", "--t", "4", "--out", out) == 0
    assert "config n=37 t=4:" in capsys.readouterr().out
    assert [p.name for p in out.iterdir()] == ["n37_t4"]
    sim = json.loads((out / "n37_t4" / "report.json").read_text())[
        "config"]["sim"]
    assert sim["sample_interval_n"] == 37 and sim["remap_threshold_t"] == 4


def counting(monkeypatch, module, name):
    """Replace `module.name` with a wrapper; returns the list of its calls."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("source", ["trace", "kind"])
def test_run_checks_the_whole_grid_before_it_reads_the_trace(
        tmp_path, capsys, monkeypatch, source):
    path = tmp_path / "t.trace"
    run_cli("gen", "--kind", "stream", "--writes", 1000, "--out", path)
    calls = [counting(monkeypatch, module, name) for module, name in (
        (engine, "replay"), (cli_module, "gen_workload"),
        (cli_module, "load_trace"))]
    argv = ["--trace", path] if source == "trace" \
        else ["--kind", "stream", "--writes", 1000]
    out = tmp_path / "x"
    assert run_cli("run", *argv, "--sweep", "--n", "10,0",
                   "--out", out) == 1
    assert capsys.readouterr().err == \
        "error: sample_interval_n must be >= 1\n"
    assert not out.exists()
    assert calls == [[], [], []]


def test_sweep_parses_the_config_file_once(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("enable_fine = false\n")
    parsed = counting(monkeypatch, cli_module, "parse_config_file")
    out = tmp_path / "sweep"
    assert run_cli("run", "--kind", "stream", "--writes", 2000,
                   "--config", cfg, "--sweep", "--n", "10,20",
                   "--t", "4,8", "--out", out) == 0
    assert len(parsed) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "n10_t4", "n10_t8", "n20_t4", "n20_t8"]


def test_sweep_runs_a_repeated_point_once(tmp_path, capsys, monkeypatch):
    replayed = counting(monkeypatch, engine, "replay")
    out = tmp_path / "sweep"
    assert run_cli("run", "--kind", "stream", "--writes", 2000, "--sweep",
                   "--n", "10,10", "--t", "64", "--out", out) == 0
    # one baseline and one leveled replay
    assert [cfg.enable_coarse for _, cfg in replayed] == [False, True]
    assert capsys.readouterr().out.count("config n=10 t=64:") == 1
    assert [p.name for p in out.iterdir()] == ["n10_t64"]


def test_config_file_rejects_a_key_set_twice(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("sample_interval_n = 10\n# c\nsample_interval_n = 100\n")
    out = tmp_path / "out"
    assert run_cli("run", "--kind", "stream", "--writes", 100,
                   "--config", cfg, "--out", out) == 1
    assert capsys.readouterr().err == (
        "error: %s line 3: key 'sample_interval_n' already set on line 1\n"
        % cfg)
    assert not out.exists()


def test_run_validates_the_trace_once(tmp_path, monkeypatch):
    trace_path = tmp_path / "t.trace"
    run_cli("gen", "--kind", "hotspot", "--writes", 2000, "--out",
            trace_path)
    validated = []

    def counting_validate(self):
        validated.append(self)
        return real_validate(self)

    real_validate = Trace.validate
    monkeypatch.setattr(Trace, "validate", counting_validate)
    assert run_cli("run", "--trace", trace_path, "--out",
                   tmp_path / "a") == 0
    assert len(validated) == 1
    validated.clear()
    assert run_cli("run", "--kind", "hotspot", "--writes", 2000, "--sweep",
                   "--n", "20,50", "--out", tmp_path / "b") == 0
    assert len(validated) == 1


def test_a_trace_and_its_stripped_copy_run_alike(tmp_path):
    # random payloads on every write, and the same events with none:
    # every artifact is the same bytes but for the trace path
    trace = gen_workload("deepstack", 5000, make_layout(), 3)
    rng = np.random.default_rng(7)
    values = np.where(trace.kinds == 0, rng.integers(
        0, 1 << 64, trace.n_events, dtype=np.uint64), 0)
    full = Trace(trace.layout, trace.kinds, trace.addrs, values)
    bare = Trace(full.layout, full.kinds, full.addrs)
    outs = {}
    for name, tr in (("full", full), ("bare", bare)):
        path = tmp_path / (name + ".trace")
        save_trace(tr, path)
        outs[name] = tmp_path / name, json.dumps(str(path)).encode()
        assert run_cli("run", "--trace", path, "--n", 10, "--t", 2,
                       "--format", "csv", "--out", outs[name][0]) == 0
    records = [ln.split() for ln in
               (tmp_path / "full.trace").read_bytes().splitlines()]
    assert [len(r) for r in records if r[0] == b"W"] == [3] * trace.n_writes
    names = sorted(p.name for p in outs["full"][0].iterdir())
    assert names == sorted(p.name for p in outs["bare"][0].iterdir())
    assert "report.csv" in names and "estimates.csv" in names
    for name in names:
        got = [(out / name).read_bytes().replace(quoted, b'"T"')
               for out, quoted in outs.values()]
        assert got[0] == got[1], name


@pytest.mark.parametrize("source", ["trace", "kind"])
def test_run_replays_one_payload_free_spill_closed_when_run_ends(
        tmp_path, monkeypatch, source):
    # both replays read one spilled trace, which holds no event column,
    # and the spill is closed once main returns
    path = tmp_path / "t.trace"
    run_cli("gen", "--kind", "deepstack", "--writes", 3000, "--out", path)
    replayed, written = [], []

    def recording_replay(trace, config):
        assert not any(isinstance(v, (np.ndarray, Trace))
                       for v in vars(trace).values())
        assert not any(fh.closed for fh in trace.files)
        replayed.append(trace)
        return real_replay(trace, config)

    def checking_write(out, data):
        written.append(out)
        real_write(out, data)

    real_replay, real_write = engine.replay, cli_module.write_atomic
    monkeypatch.setattr(engine, "replay", recording_replay)
    monkeypatch.setattr(cli_module, "write_atomic", checking_write)
    argv = ["--trace", path] if source == "trace" \
        else ["--kind", "deepstack", "--writes", 3000]
    assert run_cli("run", *argv, "--n", 10, "--out", tmp_path / "o") == 0
    assert len(replayed) == 2 and replayed[0] is replayed[1]
    assert all(fh.closed for fh in replayed[0].files)
    assert len(written) == 7


def test_run_names_the_sp_update_of_a_stack_overflow(tmp_path, capsys):
    # the S record on line 8 puts sp at the stack base: a relocation has
    # no room for its step, and the error names that event
    layout = make_layout()
    data, stack = layout.segment("data").start, layout.segment("stack")
    path = tmp_path / "t.trace"
    path.write_bytes(emit_trace(Trace(layout, [0] * 3 + [1] + [0] * 30,
                                      [data] * 3 + [stack.start]
                                      + [data] * 30)))
    assert run_cli("run", "--trace", path, "--n", 10,
                   "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == (
        "error: stack pointer of event 3: valid stack of %d bytes leaves no "
        "room for a 64-byte step\n" % stack.size)


@pytest.mark.parametrize("source", ["trace", "kind"])
def test_run_peak_does_not_grow_with_the_trace(tmp_path, capsys, source):
    """A run holds no column of the trace: from 50k to 200k writes its
    peak grows by far less than the 1.35 MB the 150k more events would
    take at 9 bytes each."""
    peaks = []
    for writes in (50_000, 200_000):
        argv = ["--kind", "hotspot", "--writes", writes]
        if source == "trace":
            path = tmp_path / ("%d.trace" % writes)
            assert run_cli("gen", *argv, "--out", path) == 0
            argv = ["--trace", path]
        tracemalloc.start()
        try:
            assert run_cli("run", *argv, "--out", tmp_path / "o") == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.3 * peaks[0], peaks


def test_report_emits_per_segment_histograms(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_cli("run", "--kind", "hotspot", "--writes", 4000, "--out", run_dir)
    capsys.readouterr()
    assert run_cli("report", "--run", run_dir) == 0
    rep = run_dir / "report"
    for name in ("text", "data", "bss", "stack"):
        assert (rep / ("%s.csv" % name)).exists()
    body = (rep / "data.csv").read_text()
    assert body.startswith("line_index,count\n")
    assert body.rstrip().splitlines()[-1].startswith("#total,")


def test_report_single_segment_and_bins(tmp_path):
    run_dir = tmp_path / "run"
    run_cli("run", "--kind", "hotspot", "--writes", 4000, "--out", run_dir)
    out = tmp_path / "hist"
    assert run_cli("report", "--run", run_dir, "--segment", "data",
                   "--bins", "log2", "--out", out) == 0
    assert (out / "data_log2.csv").read_text().startswith("bin,lines\n")
    assert not (out / "stack_log2.csv").exists()


def test_report_unknown_segment(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_cli("run", "--kind", "stream", "--writes", 500, "--out", run_dir)
    assert run_cli("report", "--run", run_dir, "--segment", "heap") == 1
    assert "heap" in capsys.readouterr().err


def test_report_missing_run_dir(tmp_path, capsys):
    assert run_cli("report", "--run", tmp_path / "void") == 1
    assert "report.json" in capsys.readouterr().err


def test_kind_choices_come_from_the_generator_table(tmp_path, capsys,
                                                    monkeypatch):
    # both --kind options accept exactly the kinds trace.WORKLOADS lists
    monkeypatch.setitem(WORKLOADS, "stream2", WORKLOADS["stream"])
    assert run_cli("gen", "--kind", "stream2", "--writes", 100,
                   "--out", tmp_path / "t.trace") == 0
    assert run_cli("run", "--kind", "stream2", "--writes", 100,
                   "--out", tmp_path / "run") == 0
    monkeypatch.delitem(WORKLOADS, "queue")
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--kind", "queue", "--out", tmp_path / "x")
    assert exc.value.code == 2


# one 2^62-byte segment: a valid layout whose line map cannot be allocated
HUGE_SEGMENT = ["data", "0x100000000", "0x4000000000000000"]


def _assert_clean_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_run_reports_a_layout_too_large_to_allocate(tmp_path, capsys):
    path = tmp_path / "huge.trace"
    path.write_text("@segment %s %s %s\nW 0x100000000\n" % tuple(HUGE_SEGMENT))
    assert run_cli("run", "--trace", path, "--out", tmp_path / "out") == 1
    _assert_clean_error(capsys)


def _finished_run(tmp_path):
    run_dir = tmp_path / "run"
    assert run_cli("run", "--kind", "stream", "--writes", 500,
                   "--out", run_dir) == 0
    return run_dir


@pytest.mark.parametrize("row, why", [
    ("12,0x300,zz", "not a wear row"),        # non-integer count
    ("12,0x300,1", "not a wear row"),         # line below the layout
    ("%d,0x%x,1" % (1 << 40, 64 << 40), "not a wear row"),  # above it
    # the last line of the stack's shadow, between the segments: no run
    # charges it, as no frame holds it
    ("67110015,0x100011fc0,5", "not a wear row"),
])
def test_report_rejects_bad_wear_rows(tmp_path, capsys, row, why):
    run_dir = _finished_run(tmp_path)
    wear = run_dir / "leveled_wear.csv"
    head, rest = wear.read_text().split("\n", 1)
    wear.write_text("%s\n%s\n%s" % (head, row, rest))
    capsys.readouterr()
    assert run_cli("report", "--run", run_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(wear) in err and "line 2" in err and why in err


def test_report_rejects_wrong_wear_total(tmp_path, capsys):
    run_dir = _finished_run(tmp_path)
    wear = run_dir / "leveled_wear.csv"
    wear.write_text(wear.read_text().replace("#total,", "#total,1"))
    capsys.readouterr()
    assert run_cli("report", "--run", run_dir) == 1
    assert "#total" in capsys.readouterr().err


def test_report_of_an_empty_wear_map_is_all_zero(tmp_path, capsys):
    run_dir = _finished_run(tmp_path)
    (run_dir / "leveled_wear.csv").write_text(
        "line_index,physical_address_hex,count\n#total,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("report", "--run", run_dir) == 0
        assert run_cli("report", "--run", run_dir, "--bins", "log2") == 0
    rows = (run_dir / "report" / "data.csv").read_text().splitlines()
    assert rows[-1] == "#total,0"
    assert len(rows) == 2 + 8 * 64 and all(r.endswith(",0") for r in rows[1:])
    assert (run_dir / "report" / "data_log2.csv").read_text() == \
        "bin,lines\n0,%d\n" % (8 * 64)


@pytest.mark.parametrize("tamper, why", [
    # a text segment at 0x10: the hand-built extents of an older report
    # built a 67M-entry dict here and died with MemoryError
    (lambda doc: doc["config"]["layout"]["segments"][0].__setitem__(1, "0x10"),
     "page-aligned"),
    (lambda doc: doc["config"]["layout"]["segments"][0].__setitem__(
        1, "0x1000"), "below 2^32"),
    (lambda doc: doc["config"]["layout"].__setitem__("page_size", 0),
     "powers of two"),
    (lambda doc: doc["config"]["layout"]["segments"][0].__setitem__(1, "x"),
     "bad layout"),
    (lambda doc: doc["config"].pop("layout"), "bad layout"),
])
def test_report_rejects_invalid_layouts(tmp_path, capsys, tamper, why):
    run_dir = _finished_run(tmp_path)
    path = run_dir / "report.json"
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("report", "--run", run_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and why in err
    assert not (run_dir / "report").exists()


def test_report_of_a_layout_too_large_to_allocate(tmp_path, capsys):
    run_dir = _finished_run(tmp_path)
    path = run_dir / "report.json"
    doc = json.loads(path.read_text())
    doc["config"]["layout"]["segments"] = [HUGE_SEGMENT]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("report", "--run", run_dir) == 1
    _assert_clean_error(capsys)
