"""Replay engine cross-checked against a one-event-at-a-time reference.

The engine charges application writes in batches between remaps and
runs a control loop per sampler tick; `nvmwear.spec.reference_replay`
feeds the per-write model, content included, one event at a time.
Both must produce identical wear maps, logs, totals, and sampler state.
"""

import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nvmwear import (
    MemoryLayout,
    Segment,
    SimConfig,
    SpUpdateEvent,
    Trace,
    WriteEvent,
    achieved_endurance,
    gen_workload,
    make_layout,
    paired_run,
    replay,
)
import nvmwear
from nvmwear import engine
import nvmwear.workloads as workloads_module
from nvmwear.engine import report_dict
from nvmwear.errors import ConfigError, StackOverflowError
from nvmwear.memspace import MemorySpace
from nvmwear.metrics import endurance_improvement
from nvmwear.spec import aggregate_linecounts, reference_replay
from nvmwear.trace import spill


def assert_matches_reference(trace, config):
    got = replay(trace, config)
    space, sampler, samples, remaps, relocs, totals = \
        reference_replay(trace, config)
    assert np.array_equal(got.wear, space.wear)
    assert np.array_equal(got.space.frames, space.frames)
    # the remap log alone rebuilds the final page table: it records
    # every page exchange the coarse leveler made
    rebuilt = MemorySpace(trace.layout)
    for _, _, _, hot_frame, cold_frame in got.remap_log:
        rebuilt.swap_frames(hot_frame, cold_frame)
    assert np.array_equal(rebuilt.frames, got.space.frames)
    # the logs are int64 rows; the reference keeps them as lists of tuples
    for log, ref, width in ((got.sample_log, samples, 2),
                            (got.remap_log, remaps, 5),
                            (got.reloc_log, relocs, 5)):
        assert log.dtype == np.int64
        assert np.array_equal(log, np.array(ref, np.int64).reshape(-1, width))
    assert got.totals == totals
    if sampler is not None:
        assert np.array_equal(got.sampler.estimates, sampler.estimates)
        assert (got.sampler.write_counter, got.sampler.armed,
                got.sampler.samples_taken) == (sampler.write_counter,
                                               sampler.armed,
                                               sampler.samples_taken)
    return got


KINDS = ("hotspot", "stream", "queue", "deepstack")


@pytest.mark.parametrize("writes, counter, armed",
                         [(105, 6, False), (109, 10, True)])
def test_sampler_phase_counts_the_writes_after_the_last_tick(
        layout, writes, counter, armed):
    trace = gen_workload("stream", writes, layout, seed=0)
    got = assert_matches_reference(trace, SimConfig(sample_interval_n=10))
    assert (got.sampler.write_counter, got.sampler.armed) == (counter, armed)


@pytest.mark.parametrize("kind", KINDS)
def test_engine_matches_reference_both_levelers(kind, layout):
    trace = gen_workload(kind, 20000, layout, seed=7)
    cfg = SimConfig(sample_interval_n=50, remap_threshold_t=4)
    assert_matches_reference(trace, cfg)


def test_engine_matches_reference_coarse_only(layout):
    trace = gen_workload("hotspot", 15000, layout, seed=3)
    cfg = SimConfig(sample_interval_n=20, remap_threshold_t=3,
                    enable_fine=False)
    got = assert_matches_reference(trace, cfg)
    assert got.totals["remaps"] > 0
    assert got.totals["stack_copy_lines"] == 0


def test_engine_matches_reference_fine_only(layout):
    trace = gen_workload("deepstack", 15000, layout, seed=5)
    cfg = SimConfig(sample_interval_n=30, enable_coarse=False)
    got = assert_matches_reference(trace, cfg)
    assert got.totals["relocations"] > 0
    assert got.totals["coarse_copy_lines"] == 0


def test_engine_matches_reference_interval_one(layout):
    # every second write is sampled: maximum tick density
    trace = gen_workload("deepstack", 2000, layout, seed=1)
    cfg = SimConfig(sample_interval_n=1, remap_threshold_t=2)
    assert_matches_reference(trace, cfg)


@pytest.mark.parametrize("step", [128, 4096])
def test_engine_matches_reference_wide_steps(layout, step):
    trace = gen_workload("deepstack", 6000, layout, seed=11)
    cfg = SimConfig(sample_interval_n=10, remap_threshold_t=4,
                    stack_step=step)
    got = assert_matches_reference(trace, cfg)
    assert got.totals["wraps"] >= 1


@pytest.mark.parametrize("n", [1, 10])
@pytest.mark.parametrize("step", [64, 128, 256])
@pytest.mark.parametrize("line_size", [128, 256])
def test_engine_matches_reference_with_lines_wider_than_the_step(
        line_size, step, n):
    # every other test uses 64-byte lines; with wider ones a relocation's
    # destination `src - step` is not line-aligned
    base = 1 << 32
    stack = Segment("stack", base + 8 * 4096, base + 12 * 4096)
    lay = MemoryLayout((Segment("data", base, base + 4 * 4096), stack),
                       line_size=line_size)
    lines = [a for seg in lay.segments
             for a in range(seg.start, seg.end, line_size)]
    rng = np.random.default_rng(line_size + step + n)
    events = []
    for i, a in enumerate(rng.choice(lines, 3000).tolist()):
        if i % 97 == 0:  # sp stays in the top half of the stack
            events.append(SpUpdateEvent(
                stack.end - 8 * int(rng.integers(stack.size // 16))))
        events.append(WriteEvent(a))
    trace = Trace.from_events(lay, events)
    got = assert_matches_reference(trace, SimConfig(
        sample_interval_n=n, remap_threshold_t=2, stack_step=step))
    assert got.totals["remaps"] > 0 and got.totals["relocations"] > 0


@pytest.mark.parametrize("kind", KINDS)
def test_payloads_change_no_run_output(kind, layout):
    # the generator's payloads, none at all, and a pointer to its own
    # line on every write all give the same wear, logs and totals
    trace = gen_workload(kind, 5000, layout, seed=4)
    writes = trace.kinds == 0
    cfg = SimConfig(sample_interval_n=10, remap_threshold_t=2)
    runs = [replay(Trace(layout, trace.kinds, trace.addrs, values), cfg)
            for values in (trace.values, np.zeros_like(trace.values),
                           np.where(writes, trace.addrs, 0))]
    base = runs[0]
    assert base.totals["remaps"] > 0 and base.totals["relocations"] > 0
    for got in runs[1:]:
        assert np.array_equal(got.wear, base.wear)
        assert np.array_equal(got.sample_log, base.sample_log)
        assert np.array_equal(got.remap_log, base.remap_log)
        assert np.array_equal(got.reloc_log, base.reloc_log)
        assert got.totals == base.totals


def test_leveled_replay_builds_no_content_image(tmp_path):
    # a fresh interpreter; the content image exists only in nvmwear.spec
    code = textwrap.dedent("""
        import json, pathlib, sys
        from nvmwear import SimConfig, gen_workload, make_layout, replay
        from nvmwear.cli import main
        from nvmwear.memspace import MemorySpace
        trace = gen_workload("deepstack", 5000, make_layout(), seed=2)
        result = replay(trace, SimConfig(sample_interval_n=10,
                                         remap_threshold_t=2))
        assert type(result.space) is MemorySpace
        assert not hasattr(result.space, "words")
        out = sys.argv[1]
        assert main(["gen", "--kind", "deepstack", "--writes", "5000",
                     "--seed", "2", "--out", out + "/t"]) == 0
        assert main(["run", "--trace", out + "/t", "--n", "10", "--t", "2",
                     "--out", out + "/run"]) == 0
        assert main(["report", "--run", out + "/run"]) == 0
        report = pathlib.Path(out, "run", "report.json").read_text()
        totals = json.loads(report)["totals"]
        assert totals["remaps"] > 0 and totals["relocations"] > 0
        assert "nvmwear.spec" not in sys.modules
    """)
    src = Path(nvmwear.__file__).parents[1]
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], check=True,
                   env=dict(os.environ, PYTHONPATH=str(src)))


def assert_same_run(got, want):
    """Two replays with the same wear, page table, logs, totals and
    estimates."""
    assert np.array_equal(got.wear, want.wear)
    assert np.array_equal(got.space.frames, want.space.frames)
    for log in ("sample_log", "remap_log", "reloc_log"):
        assert np.array_equal(getattr(got, log), getattr(want, log)), log
    assert got.totals == want.totals
    if want.sampler is not None:
        assert np.array_equal(got.sampler.estimates, want.sampler.estimates)


@pytest.mark.parametrize("chunk", [1, 7, 101, 4096])
@pytest.mark.parametrize("coarse,fine", [(True, True), (True, False),
                                         (False, True), (False, False)])
@pytest.mark.parametrize("kind", KINDS)
def test_wear_is_exact_across_flush_boundaries(kind, coarse, fine, chunk,
                                               layout, big_layout,
                                               monkeypatch):
    # writes are charged before each remap and at the end, `_CHARGE_BATCH`
    # at a time; at 4096, more than the trace holds, each charge is one
    # batch, as at the default
    monkeypatch.setattr(engine, "_CHARGE_BATCH", chunk)
    trace = gen_workload(kind, 2000, layout, seed=8)
    cfg = SimConfig(sample_interval_n=10, remap_threshold_t=2,
                    enable_coarse=coarse, enable_fine=fine)
    assert_matches_reference(trace, cfg)
    # a spill of the generator's chunks, which end where no batch does,
    # replays as the joined trace does, on either layout and at n = 1
    monkeypatch.setattr(workloads_module, "_GEN_CHUNK", 150)
    for lay in (layout, big_layout):
        for n in (1, 10):
            cfg = replace(cfg, sample_interval_n=n)
            want = replay(gen_workload(kind, 500, lay, seed=8), cfg)
            with spill(gen_workload(kind, 500, lay, seed=8,
                                    chunked=True)) as spilled:
                assert_same_run(replay(spilled, cfg), want)


def test_stack_overflow_names_the_sp_update_in_force(layout, monkeypatch):
    """A relocation without room for its step names the S record that set
    the stack, whether it is in the tick's batch or an earlier one, and
    whether the trace is held or spilled."""
    stack = layout.segment("stack")
    data = layout.segment("data").start
    events = [WriteEvent(data)] * 5 + [SpUpdateEvent(stack.start)] \
        + [WriteEvent(data)] * 30
    trace = Trace.from_events(layout, events)
    cfg = SimConfig(sample_interval_n=10)
    for chunk in (3, 7, 4096):  # the first tick is event 11
        monkeypatch.setattr(engine, "_CHARGE_BATCH", chunk)
        for source in ("trace", "spill"):
            with spill([trace]) as spilled, \
                    pytest.raises(StackOverflowError) as exc:
                replay(trace if source == "trace" else spilled, cfg)
            assert exc.value.event_index == 5
            assert str(exc.value).startswith(
                "stack pointer of event 5: valid stack of %d bytes"
                % stack.size)
    # a later update that leaves room is not blamed for an earlier one
    events[20] = SpUpdateEvent(stack.end - 64)
    with pytest.raises(StackOverflowError, match="^stack pointer of event 5:"):
        replay(Trace.from_events(layout, events), cfg)


def test_replay_time_does_not_grow_with_memory_size():
    # the same hotspot writes on 18 pages and on 5,248: each batch is
    # charged in place, so cost follows writes and ticks, not memory size
    cfg = SimConfig(sample_interval_n=10)
    traces = [gen_workload("hotspot", 20000, lay, seed=1)
              for lay in (make_layout(), make_layout(64, 4096, 1024, 64))]
    best = [float("inf")] * 2
    for _ in range(3):
        for i, trace in enumerate(traces):
            t0 = time.perf_counter()
            replay(trace, cfg)
            best[i] = min(best[i], time.perf_counter() - t0)
    assert best[1] / best[0] < 2.5, best


def test_replay_holds_no_copy_of_the_translated_trace(layout):
    # translated lines are charged in batches of `_CHARGE_BATCH` writes
    # plus at most one period, never gathered up
    trace = gen_workload("stream", 300000, layout, seed=3)
    cfg = SimConfig(sample_interval_n=1000, enable_fine=False)
    tracemalloc.start()
    try:
        replay(trace, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # nor of the payload column, which replay never reads
    assert peak < 1.5 * trace.addrs.nbytes, peak


@pytest.mark.parametrize("coarse,fine", [(True, True), (True, False),
                                         (False, True), (False, False)])
@pytest.mark.parametrize("kind", ["hotspot", "deepstack"])
def test_replay_makes_no_whole_trace_copy(kind, coarse, fine, layout):
    # the tick scan and the charge walk take the columns a batch of events
    # at a time: a write mask, the writes' addresses or the sp positions
    # of the whole trace would each take 1/8 to 1x the address column
    trace = gen_workload(kind, 300000, layout, seed=3)
    cfg = SimConfig(sample_interval_n=1000, enable_coarse=coarse,
                    enable_fine=fine)
    tracemalloc.start()
    try:
        replay(trace, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.35 * trace.addrs.nbytes, peak


def test_replay_logs_keep_few_bytes_per_write(layout):
    # at n=1 every second write is a tick with a sample row (2 columns)
    # and a relocation row (5 columns): 28 bytes a write as int64 columns,
    # where a tuple per row kept 123.  The logs are filled in place and
    # the tick side is freed before their last columns are, so the peak
    # is 56 bytes a write here, where whole-tick temporaries took 74
    trace = gen_workload("hotspot", 20000, layout, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = replay(trace, SimConfig(sample_interval_n=1))
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert result.totals["relocations"] == trace.n_writes // 2
    assert kept < 32 * trace.n_writes, kept / trace.n_writes
    assert peak < 60 * trace.n_writes, peak / trace.n_writes


def test_levelers_off_wear_equals_trace_aggregation(layout):
    trace = gen_workload("hotspot", 30000, layout, seed=2)
    cfg = SimConfig(enable_coarse=False, enable_fine=False)
    result = replay(trace, cfg)
    agg = aggregate_linecounts(trace)  # keyed by absolute line index
    expected = np.zeros_like(result.wear)
    # each physical line's absolute number, from the layout alone: the
    # segments' lines in address order, then the buffer frame
    ls, end = layout.line_size, layout.segments[-1].end
    index = {line: i for i, line in enumerate(
        [n for s in layout.segments for n in range(s.start // ls, s.end // ls)]
        + list(range(end // ls, (end + layout.page_size) // ls)))}
    for line, c in agg.items():
        expected[index[line]] = c
    assert np.array_equal(result.wear, expected)
    assert result.totals["total_writes"] == trace.n_writes
    assert np.array_equal(result.sample_log, np.zeros((0, 2)))
    assert np.array_equal(result.remap_log, np.zeros((0, 5)))


def test_replay_is_deterministic(layout):
    trace = gen_workload("queue", 12000, layout, seed=9)
    cfg = SimConfig(sample_interval_n=40, remap_threshold_t=4)
    a = replay(trace, cfg)
    b = replay(trace, cfg)
    assert np.array_equal(a.wear, b.wear)
    assert np.array_equal(a.sample_log, b.sample_log)
    assert np.array_equal(a.remap_log, b.remap_log)
    assert np.array_equal(a.reloc_log, b.reloc_log)
    assert a.totals == b.totals


def test_write_conservation(layout):
    trace = gen_workload("hotspot", 40000, layout, seed=4)
    cfg = SimConfig(sample_interval_n=50, remap_threshold_t=4)
    result = replay(trace, cfg)
    copied = sum(row[3] for row in result.reloc_log)
    lpp = result.space.lines_per_page
    assert result.totals["remaps"] > 0 and result.totals["relocations"] > 0
    assert int(result.wear.sum()) == (trace.n_writes
                                      + 3 * lpp * result.totals["remaps"]
                                      + copied)


@pytest.mark.parametrize("line_size", [128, 256])
def test_write_conservation_with_the_deepest_stack(line_size):
    # sp one step above the region base: rounded to wide lines, the
    # window can cover S plus a line and meet its first line twice
    base = 1 << 32
    stack = Segment("stack", base + 8 * 4096, base + 12 * 4096)
    lay = MemoryLayout((Segment("data", base, base + 4 * 4096), stack),
                       line_size=line_size)
    events = [SpUpdateEvent(stack.start + 64)]
    events += [WriteEvent(base + line_size * (i % 50)) for i in range(20000)]
    result = replay(Trace.from_events(lay, events),
                    SimConfig(sample_interval_n=10, enable_coarse=False))
    assert result.totals["wraps"] > 0
    assert int(result.wear.sum()) == result.totals["total_writes"]


def test_sample_positions_follow_interval(layout):
    trace = gen_workload("stream", 5000, layout, seed=0)
    for n in (1, 3, 100):
        result = replay(trace, SimConfig(sample_interval_n=n,
                                         enable_fine=False))
        positions = [idx for idx, _ in result.sample_log]
        assert positions == [k * (n + 1)
                             for k in range(1, 5000 // (n + 1) + 1)]


def test_sp_updates_apply_up_to_the_sampled_write(layout):
    stack = layout.segment("stack")
    data = layout.segment("data")
    w = WriteEvent(data.start)
    # period is n+1 = 4 writes; S events land inside and between periods
    ev = [w, w, SpUpdateEvent(stack.end - 1024), w, w,   # tick 1
          SpUpdateEvent(stack.end - 2048), w, w, w, w,   # tick 2
          w, w, w, w,                                    # tick 3
          SpUpdateEvent(stack.end - 512)]                # after the last tick
    trace = Trace.from_events(layout, ev)
    cfg = SimConfig(sample_interval_n=3, enable_coarse=False)
    result = replay(trace, cfg)
    valid = [row[2] for row in result.reloc_log]
    # tick 1 sees the S before it, tick 2 the second one, tick 3 no new S
    assert valid == [1024, 2048, 2048]
    assert_matches_reference(trace, cfg)


def test_fixed_valid_stack_without_sp_events(layout):
    data = layout.segment("data")
    ev = [WriteEvent(data.start + 64 * (i % 8)) for i in range(50)]
    trace = Trace.from_events(layout, ev)
    result = replay(trace, SimConfig(sample_interval_n=4,
                                     enable_coarse=False))
    assert all(row[2] == 4096 for row in result.reloc_log)
    assert result.totals["relocations"] == 10


def test_paired_run_with_levelers_off_is_identity(layout):
    trace = gen_workload("hotspot", 8000, layout, seed=6)
    cfg = SimConfig(enable_coarse=False, enable_fine=False)
    baseline, leveled, rep = paired_run(trace, cfg)
    assert np.array_equal(baseline.wear, leveled.wear)
    assert rep.wo == 0.0
    assert rep.ei == pytest.approx(1.0)
    assert rep.li == pytest.approx(1.0)
    assert rep.ne == pytest.approx(rep.ae)


def test_uniform_trace_has_perfect_baseline_ae(layout):
    # stream covers the data segment round-robin: 5120 writes over 512
    # lines puts exactly 10 on each
    trace = gen_workload("stream", 5120, layout, seed=0)
    cfg = SimConfig(enable_coarse=False, enable_fine=False)
    result = replay(trace, cfg)
    data_wear = result.wear[result.space.region_slices("data")[0]]
    assert data_wear.min() == data_wear.max() == 10


def test_paired_run_improves_hotspot_lifetime(layout):
    trace = gen_workload("hotspot", 100000, layout, seed=1)
    cfg = SimConfig(sample_interval_n=100, remap_threshold_t=8)
    baseline, leveled, rep = paired_run(trace, cfg)
    assert rep.ei > 1.0
    assert rep.li > 1.0
    assert rep.wo > 0.0
    assert leveled.totals["total_writes"] > baseline.totals["total_writes"]


def test_pool_cap_rejects_small_pool(layout):
    trace = gen_workload("stream", 100, layout, seed=0)
    with pytest.raises(ConfigError):
        replay(trace, SimConfig(pool_pages=layout.total_pages - 1))
    # exactly enough pages is fine
    replay(trace, SimConfig(pool_pages=layout.total_pages))


def test_config_round_trip_and_unknown_key():
    cfg = SimConfig(sample_interval_n=17, enable_fine=False, pool_pages=99)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        SimConfig.from_dict({"sample_interval": 5})


def test_config_validation():
    # every way of building a SimConfig runs the same checks, types first:
    # a str would fail the range check with a bare TypeError, "no" would
    # turn fine leveling on, 2.5 would fail in replay and np.int64 in
    # json.dumps of the report
    for bad in ({"sample_interval_n": 0}, {"remap_threshold_t": 0},
                {"stack_step": 65}, {"fixed_valid_stack": -1},
                {"sample_interval_n": "5"}, {"enable_fine": "no"},
                {"sample_interval_n": 2.5},
                {"sample_interval_n": np.int64(50)},
                {"seed": True}, {"enable_coarse": 1}, {"pool_pages": 4.0},
                {"fixed_valid_stack": None}, {"pool_pages": 0},
                {"pool_pages": -1}):
        with pytest.raises(ConfigError):
            SimConfig(**bad)
        with pytest.raises(ConfigError):
            SimConfig.from_dict(dict(SimConfig().to_dict(), **bad))
        with pytest.raises(ConfigError):
            replace(SimConfig(), **bad)
    assert SimConfig(pool_pages=None) == SimConfig()
    assert SimConfig(pool_pages=64, enable_fine=False).pool_pages == 64


def test_report_document_shape(layout):
    trace = gen_workload("hotspot", 10000, layout, seed=2)
    # fine-only so text frames stay untouched and report AE as absent
    cfg = SimConfig(sample_interval_n=100, enable_coarse=False)
    baseline, leveled, rep = paired_run(trace, cfg)
    doc = report_dict(baseline, leveled, rep, trace_desc={"kind": "hotspot"})
    assert set(doc) == {"config", "totals", "metrics", "per_segment"}
    assert doc["config"]["trace"] == {"kind": "hotspot"}
    assert doc["config"]["sim"]["sample_interval_n"] == 100
    names = [row[0] for row in doc["config"]["layout"]["segments"]]
    assert names == ["text", "data", "bss", "stack"]
    assert all(row[1].startswith("0x") for row in
               doc["config"]["layout"]["segments"])
    assert set(doc["metrics"]) == {"AE", "WO", "EI", "NE", "LI"}
    assert doc["metrics"]["LI"] == rep.li
    assert doc["per_segment"]["text"]["AE"] is None  # never written
    assert doc["per_segment"]["data"]["max"] > 0
    assert doc["totals"]["copies"] == (
        leveled.totals["coarse_copy_lines"]
        + leveled.totals["stack_copy_lines"])


def test_run_without_stack_segment_skips_fine_leveling():
    lay = MemoryLayout((Segment("data", 1 << 32, (1 << 32) + 4 * 4096),))
    ev = [WriteEvent((1 << 32) + 64 * (i % 11)) for i in range(300)]
    trace = Trace.from_events(lay, ev)
    result = replay(trace, SimConfig(sample_interval_n=10,
                                     remap_threshold_t=2))
    assert result.stack_state is None
    assert result.totals["stack_copy_lines"] == 0
    assert result.totals["samples"] == 300 // 11
    assert_matches_reference(trace, SimConfig(sample_interval_n=10,
                                              remap_threshold_t=2))


@st.composite
def replay_cases(draw):
    """A random layout, a trace of up to 300 events on it, and a config."""
    layout = make_layout(draw(st.integers(0, 3)), draw(st.integers(1, 4)),
                         draw(st.integers(0, 3)),
                         draw(st.sampled_from([0, 4, 8])))
    stack = layout.segment("stack")
    lines = [a for seg in layout.segments
             for a in range(seg.start, seg.end, 64)]
    # sp stays in the top half of the stack, so a relocation has room
    sps = [] if stack is None else list(
        range(stack.end - stack.size // 2, stack.end + 1, 8))

    def event(kind, line, word):
        """A write without (0) or with (1) a payload, a write of a pointer
        into the stack (2), or an sp update (3)."""
        if kind >= 2 and sps:
            sp = sps[word % len(sps)]
            return SpUpdateEvent(sp) if kind == 3 else WriteEvent(line, sp)
        return WriteEvent(line, word if kind else None)

    n_events = draw(st.integers(0, 300))
    events = st.builds(event, st.integers(0, 3), st.sampled_from(lines),
                       st.integers(0, (1 << 64) - 1))
    trace = Trace.from_events(layout, draw(
        st.lists(events, min_size=n_events, max_size=n_events)))
    config = SimConfig(
        sample_interval_n=draw(st.integers(1, 20)),
        remap_threshold_t=draw(st.integers(1, 4)),
        stack_step=draw(st.sampled_from([64, 128, 4096])),
        enable_coarse=draw(st.booleans()), enable_fine=draw(st.booleans()),
        fixed_valid_stack=draw(st.sampled_from([0, 64, 4096, 1 << 20])))
    return trace, config


# no shrink phase: shrinking a failing 300-event case took minutes
@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(replay_cases())
def test_engine_matches_reference_on_random_inputs(case):
    assert_matches_reference(*case)


@st.composite
def gap_cases(draw):
    """A small layout with a stack, a trace of one generator on it, a
    config, and a page-aligned gap of up to 2^46 bytes."""
    layout = make_layout(draw(st.integers(0, 2)), draw(st.integers(1, 4)),
                         draw(st.integers(1, 3)), draw(st.sampled_from([4, 8])))
    kind = draw(st.sampled_from(sorted(workloads_module.WORKLOADS)))
    trace = gen_workload(kind, draw(st.integers(200, 3000)), layout,
                         seed=draw(st.integers(0, 9)))
    config = SimConfig(sample_interval_n=draw(st.integers(1, 20)),
                       remap_threshold_t=draw(st.integers(1, 4)),
                       stack_step=draw(st.sampled_from([64, 128, 4096])))
    gap = draw(st.integers(0, 1 << 34)) << 12
    return trace, config, gap


def moved_stack(trace, gap):
    """The trace on its layout with `gap` bytes inserted below the stack
    and its shadow room: every stack address and pointer moves up."""
    layout = trace.layout
    stack = layout.segment("stack")

    def move(a):
        return a + (a >= stack.start) * gap

    lay = MemoryLayout(tuple(replace(s, start=move(s.start), end=move(s.end))
                             for s in layout.segments))
    values = np.where(trace.values >= stack.start, trace.values + gap,
                      trace.values)
    return Trace(lay, trace.kinds, move(trace.addrs), values)


# no shrink phase, as above
@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate])
@given(gap_cases())
def test_a_gap_below_the_stack_changes_no_result(case):
    """Frames number the mapped pages only, so a gap of any size leaves
    the wear map, totals, logs and metrics as they were; the remap log's
    page addresses are the only numbers that move."""
    trace, config, gap = case
    runs = [paired_run(t, config) for t in (trace, moved_stack(trace, gap))]
    (base0, lev0, rep0), (base1, lev1, rep1) = runs
    assert rep1 == rep0
    for a, b in ((base0, base1), (lev0, lev1)):
        assert len(b.wear) == len(a.wear) and np.array_equal(b.wear, a.wear)
        assert b.totals == a.totals
        for log in ("sample_log", "reloc_log"):
            assert np.array_equal(getattr(b, log), getattr(a, log))
        assert np.array_equal(b.remap_log[:, [0, 3, 4]],
                              a.remap_log[:, [0, 3, 4]])


@pytest.mark.parametrize("pages", [(2, 8, 4, 4), (64, 256, 64, 8),
                                   (0, 2, 0, 0), (0, 0, 0, 4)])
def test_region_metrics_equal_the_gathered_ones(pages):
    """`compare_runs` and `report_dict` sum and take the max over wear
    slices; their metrics are those of the gathered region, bit for bit."""
    layout = make_layout(*pages)
    kind = "stream" if layout.segment("stack") is None else "hotspot"
    if layout.segment("data") is None:
        trace = Trace.from_events(layout, [
            WriteEvent(layout.segment("stack").start + 64 * (i % 5))
            for i in range(3000)])
    else:
        trace = gen_workload(kind, 30000, layout, seed=4)
    cfg = SimConfig(sample_interval_n=20, remap_threshold_t=2)
    baseline, leveled, rep = paired_run(trace, cfg)
    region = np.r_[tuple(leveled.space.region_slices())]  # gathered lines
    ae_base = achieved_endurance(baseline.wear[region])
    assert rep.ae == achieved_endurance(leveled.wear[region])
    assert rep.ei == endurance_improvement(rep.ae, ae_base)
    doc = report_dict(baseline, leveled, rep)
    for seg in layout.segments:
        counts = leveled.wear[leveled.space.region_slices(seg.name)[0]]
        peak = int(counts.max())
        assert doc["per_segment"][seg.name] == {
            "AE": None if peak == 0 else achieved_endurance(counts),
            "max": peak, "mean": float(counts.mean())}
