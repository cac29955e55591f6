"""Acceptance gate: one test per release criterion.

Each test records a single PASS/FAIL line (printed in the terminal
summary) before asserting, so a red criterion still reports itself
alongside the green ones.
"""

import random
import time

import numpy as np

from nvmwear import (
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
from nvmwear.cli import main as cli_main
from nvmwear.metrics import normalized_endurance
from nvmwear.spec import (ContentSpace, adjust_inmemory_pointers,
                          aggregate_linecounts, relocate_content,
                          translate_stack)
from nvmwear.stack import StackState

from conftest import record_acceptance

# ----------------------------------------------------------------------
# Reference result tables for the two mechanisms, frozen from the
# hardware-calibrated trace experiments this simulator models.  Columns:
# mechanism, parameter, workload, AE, WO (fraction), NE, LI.  The fine
# t=64 bitcount row reproduces the abstract's figures, NE 78.43 % and a
# lifetime gain of more than 900x (LI 953.52): the evidence that
# NE = AE / (1 + WO) is the paper's definition of normalized endurance.

REFERENCE_ROWS = [
    ("coarse", "n=5000", "bitcount", 0.016, 0.0510, 0.015, 18.90),
    ("coarse", "n=5000", "pfor", 0.043, 0.0510, 0.041, 40.01),
    ("coarse", "n=5000", "sha", 0.022, 0.0505, 0.021, 11.20),
    ("coarse", "n=5000", "dijkstra", 0.022, 0.0510, 0.021, 28.65),
    ("coarse", "n=20000", "bitcount", 0.016, 0.0511, 0.015, 18.93),
    ("coarse", "n=20000", "pfor", 0.044, 0.0512, 0.042, 40.06),
    ("coarse", "n=20000", "sha", 0.019, 0.0510, 0.018, 9.72),
    ("coarse", "n=20000", "dijkstra", 0.022, 0.0511, 0.021, 28.26),
    ("fine", "t=64", "bitcount", 0.788, 0.0047, 0.784, 953.52),
    ("fine", "t=64", "pfor", 0.698, 0.0917, 0.639, 614.45),
    ("fine", "t=64", "sha", 0.746, 1.1159, 0.353, 187.55),
    ("fine", "t=64", "dijkstra", 0.018, 0.0290, 0.017, 23.64),
    ("fine", "t=32", "bitcount", 0.592, 0.0079, 0.587, 713.98),
    ("fine", "t=32", "pfor", 0.462, 0.1078, 0.417, 400.96),
    ("fine", "t=32", "sha", 0.693, 1.1291, 0.328, 173.09),
    ("fine", "t=32", "dijkstra", 0.020, 0.0450, 0.019, 25.87),
]

# Misprinted NE cells of the table, keyed by (mechanism, parameter,
# workload).  No corrected value is carried here: the expected NE of an
# erratum row is derived from the table's own LI column
# (see _li_derived_ne).
REFERENCE_ERRATA = [("fine", "t=32", "sha")]


def _li_derived_ne(mech, param, bench, li):
    """NE of a reference row from its LI cell instead of its NE cell.

    LI = EI / (1 + WO) = NE / AE_baseline, and both parameter settings of
    a workload share one baseline, so the sibling row gives
    AE_baseline = AE_s / (LI_s * (1 + WO_s)) and NE = LI * AE_baseline.
    """
    ((ae_s, wo_s, li_s),) = [
        (ae, wo, li_) for m, p, b, ae, wo, _ne, li_ in REFERENCE_ROWS
        if m == mech and b == bench and p != param]
    return li * ae_s / (li_s * (1.0 + wo_s))


def test_criterion_01_reference_table_consistency():
    start = time.perf_counter()
    keys = [row[:3] for row in REFERENCE_ROWS]
    bad = ["erratum %s %s %s names no reference row" % (bench, mech, param)
           for mech, param, bench in REFERENCE_ERRATA
           if (mech, param, bench) not in keys]
    errata = []
    reproduced = 0
    for mech, param, bench, ae, wo, ne, li in REFERENCE_ROWS:
        computed = normalized_endurance(ae, wo)
        if (mech, param, bench) not in REFERENCE_ERRATA:
            if abs(computed - ne) <= 0.001:
                reproduced += 1
            else:
                bad.append("%s %s %s: table NE %.3f vs %.4f from its own "
                           "AE/WO" % (bench, mech, param, ne, computed))
            continue
        derived = _li_derived_ne(mech, param, bench, li)
        errata.append("erratum %s %s %s: printed %.3f, LI-derived %.4f, "
                      "computed %.4f" % (bench, mech, param, ne, derived,
                                         computed))
        if abs(computed - derived) > 0.001:
            bad.append("%s %s %s: computed NE %.4f vs %.4f from its LI"
                       % (bench, mech, param, computed, derived))
        # an erratum must name a real misprint, never a consistent cell;
        # the computed check is needed too because three-digit AE leaves
        # LI-derived NE about 0.001 loose on the coarse rows
        if abs(ne - derived) <= 0.001 or abs(ne - computed) <= 0.001:
            bad.append("%s %s %s: printed NE %.3f is no misprint"
                       % (bench, mech, param, ne))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    record_acceptance(
        "criterion  1 %s metrics-table consistency: %d/%d rows reproduce "
        "printed NE within 0.001 (%.2fs)%s"
        % ("PASS" if ok else "FAIL", reproduced, len(REFERENCE_ROWS),
           elapsed, "".join("; " + line for line in errata + bad)))
    assert ok, "inconsistent rows: %s" % "; ".join(bad)


def test_reference_table_cross_check_pinpoints_the_ne_cell():
    """The one inconsistent cell is the NE entry, not its AE or WO.

    LI = (AE / AE_baseline) / (WO + 1) shares the same baseline for both
    parameter settings of a workload, so the baseline implied by
    AE / (LI * (WO + 1)) must agree across rows.  It does for all four
    fine-leveling workloads, sha included, which clears sha's AE, WO,
    and LI columns and leaves its t=32 NE entry as the lone misprint.
    """
    implied = {}
    for mech, param, bench, ae, wo, _ne, li in REFERENCE_ROWS:
        if mech != "fine":
            continue
        implied.setdefault(bench, []).append(ae / (li * (wo + 1.0)))
    for bench, (a, b) in implied.items():
        assert abs(a - b) / a < 1e-3, bench
    # and the erratum rows alone disagree with their printed NE
    offenders = [(mech, param, bench)
                 for mech, param, bench, ae, wo, ne, _li in REFERENCE_ROWS
                 if abs(normalized_endurance(ae, wo) - ne) > 0.001]
    assert sorted(offenders) == sorted(REFERENCE_ERRATA)


def test_criterion_02_write_conservation():
    rng = random.Random(2024)
    lay = make_layout()
    kinds = ("hotspot", "stream", "queue", "deepstack")
    start = time.perf_counter()
    checked = 0
    for _ in range(50):
        kind = rng.choice(kinds)
        trace = gen_workload(kind, 10**5, lay, rng.randrange(1 << 20))
        cfg = SimConfig(
            sample_interval_n=rng.choice((50, 101, 333, 1000, 5000)),
            remap_threshold_t=rng.choice((1, 2, 8, 64)),
            stack_step=rng.choice((64, 128)),
            enable_coarse=rng.random() < 0.8,
            enable_fine=rng.random() < 0.8)
        result = replay(trace, cfg)
        copied = sum(row[3] for row in result.reloc_log)
        expected = (trace.n_writes
                    + 3 * result.space.lines_per_page
                    * result.totals["remaps"] + copied)
        assert int(result.wear.sum()) == expected, (kind, cfg)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 50 and elapsed < 30.0
    record_acceptance(
        "criterion  2 %s conservation: %d randomized runs conserve writes "
        "exactly (%.1fs)" % ("PASS" if ok else "FAIL", checked, elapsed))
    assert ok


def test_criterion_03_oracle_equivalence():
    lay = make_layout()
    cfg = SimConfig(enable_coarse=False, enable_fine=False)
    ok_kinds = []
    for kind in ("hotspot", "stream", "queue", "deepstack"):
        trace = gen_workload(kind, 30000, lay, 11)
        result = replay(trace, cfg)
        expected = np.zeros_like(result.wear)
        for line, c in aggregate_linecounts(trace).items():
            expected[line - result.space.base // result.space.line_size] = c
        assert np.array_equal(result.wear, expected), kind
        ok_kinds.append(kind)
    record_acceptance(
        "criterion  3 PASS oracle equivalence: leveling-off replay matches "
        "exact per-line aggregation for %s" % ", ".join(ok_kinds))


def test_criterion_04_sampler_equidistance():
    lay = make_layout()
    trace = gen_workload("stream", 20004, lay, 0)
    for n in (1, 3, 100, 5000):
        result = replay(trace, SimConfig(sample_interval_n=n,
                                         enable_fine=False))
        positions = [idx for idx, _ in result.sample_log]
        expected = [k * (n + 1) for k in range(1, 20004 // (n + 1) + 1)]
        assert positions == expected, n
        assert positions, n
    record_acceptance(
        "criterion  4 PASS sampler equidistance: sample positions are "
        "exactly k*(n+1) for n in {1, 3, 100, 5000}")


def test_criterion_05_coarse_improvement(big_layout):
    start = time.perf_counter()
    trace = gen_workload("hotspot", 10**6, big_layout, 0)
    cfg = SimConfig(sample_interval_n=100, remap_threshold_t=4,
                    pool_pages=64)
    _, leveled, rep = paired_run(trace, cfg)
    lo, hi = leveled.coarse_leveler.rebalance_check()
    elapsed = time.perf_counter() - start
    spread = hi - lo
    ok = rep.ei >= 5.0 and spread <= 2 * cfg.remap_threshold_t \
        and elapsed < 5.0
    record_acceptance(
        "criterion  5 %s coarse improvement: AE ratio %.1f >= 5, age spread "
        "%d <= %d over a 64-page pool (%.1fs)"
        % ("PASS" if ok else "FAIL", rep.ei, spread,
           2 * cfg.remap_threshold_t, elapsed))
    assert ok, (rep.ei, spread, elapsed)


def test_criterion_06_fine_uniformity_and_combined_gain():
    start = time.perf_counter()
    lay = make_layout()
    stack = lay.segment("stack")
    sp0 = stack.end - 4096  # constant valid stack
    # call-frame churn concentrates on the lines nearest the stack pointer
    events = [SpUpdateEvent(sp0)]
    events.extend(WriteEvent(sp0 + 64 * (i % 8)) for i in range(800000))
    trace = Trace.from_events(lay, events)
    both = replay(trace, SimConfig(sample_interval_n=999,
                                   remap_threshold_t=64))
    coarse_only = replay(trace, SimConfig(sample_interval_n=999,
                                          remap_threshold_t=64,
                                          enable_fine=False))
    cycle = stack.size // both.stack_state.step
    stack_wear = both.wear[both.space.region_slices("stack")[0]]
    ratio = float(stack_wear.max() / stack_wear.mean())
    region = both.space.region_slices()
    ae_both = achieved_endurance(*(both.wear[s] for s in region))
    ae_coarse = achieved_endurance(*(coarse_only.wear[s] for s in region))
    elapsed = time.perf_counter() - start
    ok = (both.totals["relocations"] >= 3 * cycle
          and ratio <= 1.5 and ae_both > ae_coarse and elapsed < 10.0)
    record_acceptance(
        "criterion  6 %s fine uniformity: stack max/mean %.3f <= 1.5 over "
        "%d relocations (>= 3 cycles), combined AE %.3f > coarse-only %.3f "
        "(%.1fs)" % ("PASS" if ok else "FAIL", ratio,
                     both.totals["relocations"], ae_both, ae_coarse, elapsed))
    assert ok, (ratio, ae_both, ae_coarse, elapsed)


def test_criterion_07_shadow_alias_and_wraparound():
    lay = make_layout()
    stack = lay.segment("stack")
    space = ContentSpace(lay)
    sp = stack.end - 2048
    st = StackState(region_base=stack.start, region_size=stack.size, sp=sp)
    rng = np.random.default_rng(17)
    expected = {}
    for addr in range(sp, stack.end, 64):
        val = int(rng.integers(1, 1 << 32))
        space.record_write(space.line_index(translate_stack(addr, st)), val)
        expected[addr] = val
    addr_pool = np.array(sorted(expected))

    def read_back(k):
        picks = rng.choice(addr_pool, size=k)
        for a in picks.tolist():
            line = space.line_index(translate_stack(a, st))
            assert space.words[line] == expected[a], hex(a)
        return k

    ptr = sp + 320  # a captured logical address
    creation_line = space.line_index(translate_stack(ptr, st))
    cycle = stack.size // st.step
    rounds = 2 * cycle + 16
    per_round = -(-10**5 // (2 * rounds))  # ceil: >= 1e5 reads total
    reads = 0
    cycle_checks = 0
    for _ in range(rounds):
        reads += read_back(per_round)
        relocate_content(st, space)
        reads += read_back(per_round)
        if st.relocations % cycle == 0:
            # a whole cycle later the pointer is back on its creation line
            assert space.line_index(translate_stack(ptr, st)) == creation_line
            assert space.words[creation_line] == expected[sp + 320]
            cycle_checks += 1
    assert st.wraps >= 2 and cycle_checks >= 2
    record_acceptance(
        "criterion  7 PASS shadow alias: %d reads stayed content-identical "
        "across %d relocations and %d wraps; the captured address returned "
        "to its creation line after each full cycle"
        % (reads, rounds, st.wraps))
    assert reads >= 10**5


def test_criterion_08_pointer_adjustment_safety():
    lay = make_layout()
    stack = lay.segment("stack")
    checked = 0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        sp = stack.end - 64 * int(rng.integers(4, 60))
        st = StackState(region_base=stack.start, region_size=stack.size,
                        sp=sp)
        words = np.zeros(400, dtype=np.uint64)
        in_window = set()
        for slot in range(len(words)):
            c = rng.integers(0, 4)
            if c == 0:
                words[slot] = int(sp + 8 * rng.integers(
                    0, (stack.end - sp) // 8))
                in_window.add(slot)
            elif c == 1:
                words[slot] = int(rng.integers(0, 1 << 32))
            elif c == 2:
                # a stack address below the live window
                words[slot] = int(stack.start
                                  + 8 * rng.integers(0, (sp - stack.start) // 8))
            else:
                words[slot] = int(rng.integers(1 << 33, 1 << 40))
        out = adjust_inmemory_pointers(words, st)
        changed = set(np.flatnonzero(out != words).tolist())
        assert changed == in_window, seed
        assert all(out[s] == words[s] - st.step for s in in_window), seed
        checked += len(words)
    record_acceptance(
        "criterion  8 PASS pointer adjustment: over %d randomized words "
        "exactly the in-window ones moved, each by -step" % checked)


def test_criterion_09_deterministic_artifacts(tmp_path):
    trace_path = tmp_path / "t.trace"
    assert cli_main(["gen", "--kind", "hotspot", "--writes", "20000",
                     "--seed", "9", "--out", str(trace_path)]) == 0
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert cli_main(["run", "--trace", str(trace_path), "--n", "200",
                         "--t", "8", "--out", str(out)]) == 0
    same = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
               for name in ("report.json", "baseline_wear.csv",
                            "leveled_wear.csv"))
    record_acceptance(
        "criterion  9 %s determinism: repeated runs produce byte-identical "
        "report JSON and wear CSVs" % ("PASS" if same else "FAIL"))
    assert same


def test_criterion_10_throughput():
    lay = make_layout()
    trace = gen_workload("hotspot", 10**7, lay, 0)
    assert trace.n_writes >= 10**7
    cfg = SimConfig()  # both levelers on
    start = time.perf_counter()
    result = replay(trace, cfg)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and result.totals["remaps"] > 0 \
        and result.totals["relocations"] > 0
    record_acceptance(
        "criterion 10 %s throughput: %d write events replayed in %.1fs "
        "with both levelers active"
        % ("PASS" if ok else "FAIL", trace.n_writes, elapsed))
    assert ok, elapsed
