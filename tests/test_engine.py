"""Replay engine cross-checked against a one-event-at-a-time reference.

The engine batches writes into whole sampling periods for speed; the
reference below feeds the same primitives one event at a time.  Both
must produce identical wear maps, logs, totals, and sampler state.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmwear import (
    SimConfig,
    SpUpdateEvent,
    Trace,
    WriteEvent,
    WriteSampler,
    gen_workload,
    make_layout,
    paired_run,
    replay,
)
from nvmwear.coarse import CoarseWearLeveler
from nvmwear.engine import report_dict
from nvmwear.errors import ConfigError
from nvmwear.memspace import MemorySpace
from nvmwear.stack import StackState, relocate_step, translate_stack
from nvmwear.trace import aggregate_linecounts


def reference_replay(trace, config):
    """Feed events one by one through the same primitives the engine uses."""
    layout = trace.layout
    space = MemorySpace(layout)
    stack_seg = layout.segment("stack")
    fine = config.enable_fine and stack_seg is not None
    coarse = config.enable_coarse
    sampling = coarse or fine
    sampler = WriteSampler(config.sample_interval_n, space.n_pages) \
        if sampling else None
    leveler = CoarseWearLeveler(space, config.remap_threshold_t) \
        if coarse else None
    st = None
    if fine:
        if np.any(trace.kinds == 1):
            sp0 = stack_seg.end
        else:
            sp0 = stack_seg.end - min(config.fixed_valid_stack,
                                      stack_seg.size - config.stack_step)
        st = StackState(region_base=stack_seg.start,
                        region_size=stack_seg.size, sp=sp0,
                        step=config.stack_step)
    cur_sp = st.sp if fine else 0
    sample_log, remap_log, reloc_log = [], [], []
    stack_copy = 0
    w_count = 0
    for kind, addr, value, hasv in zip(trace.kinds.tolist(),
                                       trace.addrs.tolist(),
                                       trace.values.tolist(),
                                       trace.has_value.tolist()):
        if kind == 1:
            cur_sp = addr
            continue
        w_count += 1
        if fine and stack_seg.start <= addr < stack_seg.end:
            v = translate_stack(addr, st)
        else:
            v = addr
        line = space.line_index(v)
        space.record_write(line, value if hasv else None)
        if not sampling:
            continue
        frame = line // space.lines_per_page
        got = sampler.observe_write(frame)
        if got is None:
            continue
        sample_log.append((w_count, got))
        if coarse:
            request = leveler.on_sample(got)
            if request is not None:
                result = leveler.perform_remap(request)
                if result is not None:
                    remap_log.append((w_count,) + result)
        if fine:
            st.sp = cur_sp
            wraps_before = st.wraps
            copied = relocate_step(st, space)
            stack_copy += copied
            reloc_log.append((w_count, st.shift, st.valid_bytes, copied,
                              1 if st.wraps > wraps_before else 0))
    coarse_lines = leveler.copy_lines if coarse else 0
    totals = {
        "app_writes": w_count,
        "coarse_copy_lines": coarse_lines,
        "stack_copy_lines": stack_copy,
        "total_writes": w_count + coarse_lines + stack_copy,
        "samples": sampler.samples_taken if sampling else 0,
        "remaps": leveler.remaps if coarse else 0,
        "relocations": st.relocations if fine else 0,
        "wraps": st.wraps if fine else 0,
    }
    return space, sampler, sample_log, remap_log, reloc_log, totals


def assert_matches_reference(trace, config):
    got = replay(trace, config)
    space, sampler, samples, remaps, relocs, totals = \
        reference_replay(trace, config)
    assert np.array_equal(got.wear, space.wear)
    assert np.array_equal(got.space.frames, space.frames)
    assert np.array_equal(got.space.has_word, space.has_word)
    assert np.array_equal(got.space.words[space.has_word],
                          space.words[space.has_word])
    assert got.sample_log == samples
    assert got.remap_log == remaps
    assert got.reloc_log == relocs
    assert got.totals == totals
    if sampler is not None:
        assert np.array_equal(got.sampler.estimates, sampler.estimates)
    return got


KINDS = ("hotspot", "stream", "queue", "deepstack")


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


@pytest.mark.parametrize("payloads", [(0x11, None, 0x12),
                                      (None, 0x13, None)])
def test_last_write_in_a_period_decides_the_word(layout, payloads):
    data = layout.segment("data")
    stack = layout.segment("stack")
    hot, top = data.start, stack.end - 64
    period = []  # one sampling period of 8 writes
    for val in payloads:
        period += [WriteEvent(hot, val), WriteEvent(top, val)]
    period += [WriteEvent(data.start + 64), WriteEvent(data.start + 128)]
    trace = Trace.from_events(layout, period * 3)
    cfg = SimConfig(sample_interval_n=7, remap_threshold_t=1)
    got = assert_matches_reference(trace, cfg)
    assert got.totals["remaps"] > 0 and got.totals["relocations"] == 3
    assert got.space.word(got.space.line_index(hot)) == payloads[-1]


def test_masked_values_never_reach_words(layout):
    # hotspot stack writes carry payloads; its data and bss writes do
    # not, and here their masked value slots hold junk
    trace = gen_workload("hotspot", 5000, layout, seed=4)
    junk = np.where(trace.has_value, trace.values, np.uint64(0xDEAD0000))
    masked = Trace(layout, trace.kinds, trace.addrs, junk, trace.has_value)
    got = assert_matches_reference(masked, SimConfig(sample_interval_n=10,
                                                     remap_threshold_t=2))
    assert got.totals["remaps"] > 0
    space = got.space
    for name in ("data", "bss"):
        seg = layout.segment(name)
        lines = space.line_index(np.arange(seg.start, seg.end, 64))
        assert not space.has_word[lines].any()
        assert not space.words[lines].any()


def test_levelers_off_wear_equals_trace_aggregation(layout):
    trace = gen_workload("hotspot", 30000, layout, seed=2)
    cfg = SimConfig(enable_coarse=False, enable_fine=False)
    result = replay(trace, cfg)
    agg = aggregate_linecounts(trace)  # keyed by absolute line index
    expected = np.zeros_like(result.wear)
    for line, c in agg.items():
        expected[line - result.space.base // result.space.line_size] = c
    assert np.array_equal(result.wear, expected)
    assert result.totals["total_writes"] == trace.n_writes
    assert result.sample_log == [] and result.remap_log == []


def test_replay_is_deterministic(layout):
    trace = gen_workload("queue", 12000, layout, seed=9)
    cfg = SimConfig(sample_interval_n=40, remap_threshold_t=4)
    a = replay(trace, cfg)
    b = replay(trace, cfg)
    assert np.array_equal(a.wear, b.wear)
    assert a.sample_log == b.sample_log
    assert a.remap_log == b.remap_log
    assert a.reloc_log == b.reloc_log
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
    data_wear = result.wear[result.space.region_lines("data")]
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
                {"fixed_valid_stack": None}):
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
    doc = report_dict(trace, cfg, baseline, leveled, rep,
                      trace_desc={"kind": "hotspot"})
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
    from nvmwear import MemoryLayout, Segment
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


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(replay_cases())
def test_engine_matches_reference_on_random_inputs(case):
    assert_matches_reference(*case)
