"""Endurance metrics, CSV export, and wear binning."""

import numpy as np
import pytest

from nvmwear import SimConfig, achieved_endurance, gen_workload, replay
from nvmwear import engine, metrics
from nvmwear.errors import MetricsError
from nvmwear.metrics import (csv_bytes, endurance_improvement,
                             export_histogram, lifetime_improvement,
                             log2_bins, normalized_endurance, table_csv,
                             write_overhead)


def test_ae_uniform_is_one():
    assert achieved_endurance([4, 4, 4, 4]) == 1.0


def test_ae_single_hot_line():
    assert achieved_endurance([0, 0, 0, 8]) == 0.25


def test_ae_scale_invariant():
    rng = np.random.default_rng(11)
    counts = rng.integers(1, 1000, 256)
    assert achieved_endurance(counts) == pytest.approx(
        achieved_endurance(counts * 7))


def test_ae_empty_and_all_zero_rejected():
    with pytest.raises(MetricsError):
        achieved_endurance([])
    with pytest.raises(MetricsError):
        achieved_endurance([0, 0, 0])


def test_ae_improves_as_peak_spreads():
    # moving writes off the hottest line onto a cold one raises AE
    assert achieved_endurance([10, 2, 0, 0]) < achieved_endurance([8, 2, 2, 0])


def test_write_overhead_example():
    assert write_overhead(1000, 1051) == pytest.approx(0.051)


def test_write_overhead_zero_when_equal():
    assert write_overhead(500, 500) == 0.0


def test_write_overhead_rejects_bad_inputs():
    with pytest.raises(MetricsError):
        write_overhead(0, 10)
    with pytest.raises(MetricsError):
        write_overhead(100, 99)


def test_endurance_improvement_doubles():
    assert endurance_improvement(0.2, 0.1) == pytest.approx(2.0)
    assert endurance_improvement(0.4, 0.4) == pytest.approx(1.0)
    with pytest.raises(MetricsError):
        endurance_improvement(0.5, 0.0)


def test_normalized_endurance_examples():
    assert normalized_endurance(0.788, 0.0047) == pytest.approx(0.78432, abs=1e-4)
    assert normalized_endurance(0.746, 1.1159) == pytest.approx(0.35256, abs=1e-4)


def test_lifetime_improvement_discounts_overhead():
    assert lifetime_improvement(2.0, 1.0) == pytest.approx(1.0)
    assert lifetime_improvement(3.0, 0.5) == pytest.approx(2.0)
    # overhead-free leveling passes improvement straight through
    assert lifetime_improvement(5.0, 0.0) == pytest.approx(5.0)


def test_histogram_csv_round_trip():
    blob = export_histogram(np.array([0, 3, 4]), np.array([3, 7, 1]))
    assert blob.decode().splitlines() == [
        "line_index,count", "0,3", "3,7", "4,1", "#total,11"]


def test_log2_bins_places_counts():
    # zero counts get their own bin; otherwise bin = bit_length(count)
    bins = log2_bins([0, 1, 2, 3, 4, 1000])
    assert bins[0] == 1          # the single zero
    assert bins[1] == 1          # count 1
    assert bins[2] == 2          # counts 2 and 3
    assert bins[3] == 1          # count 4
    assert bins[10] == 1         # 512 <= 1000 < 1024
    assert sum(bins.values()) == 6


def test_log2_bins_total_preserved():
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 10**6, 500)
    bins = log2_bins(counts)
    assert sum(bins.values()) == 500


def test_ae_of_parts_equals_ae_of_their_concatenation():
    # a region given as slices of a wear map, as the engine passes it
    rng = np.random.default_rng(5)
    wear = rng.integers(0, 1 << 40, 4096)
    cuts = [slice(0, 64), slice(64, 64), slice(1000, 3000), slice(4032, 4096)]
    parts = [wear[c] for c in cuts]
    assert achieved_endurance(*parts) \
        == achieved_endurance(np.concatenate(parts))
    assert achieved_endurance(wear[:0], [0, 3], [1]) \
        == achieved_endurance([0, 3, 1])
    with pytest.raises(MetricsError, match="empty"):
        achieved_endurance(wear[:0], [])
    with pytest.raises(MetricsError, match="all-zero"):
        achieved_endurance([0], wear[:0], [0, 0])


# ----------------------------------------------------------------------
# the CSV writers against per-row `%` loops

def spec_writers(result) -> list:
    """The per-row loops that every numeric CSV writer must equal byte for
    byte: the wear map's rows, the three logs, the estimates' rows, and
    the data segment's histogram.  Frame f prints as its absolute page,
    `pages[f]`, and line i as that page's line i % 64."""
    space = result.space
    page = space.pages.tolist()
    rows = []
    for i in np.flatnonzero(space.wear).tolist():
        idx = page[i // 64] * 64 + i % 64
        rows.append("%d,0x%x,%d" % (idx, idx * space.line_size,
                                    int(space.wear[i])))
    rows.append("#total,%d" % space.total_wear())
    out = [csv_bytes("line_index,physical_address_hex,count", rows)]
    out.append(csv_bytes("event_index,frame", (
        "%d,%d" % (idx, page[f]) for idx, f in result.sample_log.tolist())))
    out.append(csv_bytes(
        "event_index,hot_page_hex,cold_page_hex,hot_frame,cold_frame",
        ("%d,0x%x,0x%x,%d,%d" % (idx, hp, cp, page[hf], page[cf])
         for idx, hp, cp, hf, cf in result.remap_log.tolist())))
    out.append(csv_bytes(
        "event_index,shift_delta,valid_bytes,copied_lines,wrapped",
        ("%d,%d,%d,%d,%d" % tuple(row) for row in result.reloc_log.tolist())))
    if result.sampler is not None:
        est = result.sampler.estimates
        rows = ["%d,%d" % (page[f], est[f]) for f in np.flatnonzero(est)]
        rows.append("#samples,%d" % result.sampler.samples_taken)
        out.append(csv_bytes("frame,estimate", rows))
    region = space.region_slices("data")[0]
    lines = [page[i // 64] * 64 + i % 64
             for i in range(region.start, region.stop)]
    counts = space.wear[region]
    rows = ["%d,%d" % row for row in zip(lines, counts.tolist())]
    rows.append("#total,%d" % counts.sum())
    out.append(csv_bytes("line_index,count", rows))
    return out


def writers(result) -> list:
    out = [result.space.wear_csv_bytes(), engine.sample_log_csv(result),
           engine.remap_log_csv(result), engine.relocation_log_csv(result)]
    if result.sampler is not None:
        out.append(engine.estimates_csv(result))
    space = result.space
    region = space.region_slices("data")[0]
    out.append(export_histogram(
        space.line_numbers(np.arange(region.start, region.stop)),
        space.wear[region]))
    return out


# the widths at which a decimal or a hex digit count changes, and the
# largest int64
EDGES = [0, 9, 10, 15, 16, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 63 - 1]


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_table_csv_matches_the_spec_on_edge_values(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(metrics, "_CSV_CHUNK", chunk)
    # each edge value in each field, next to each other edge value
    cols = np.array([np.roll(EDGES, k) for k in range(3)], np.int64)
    spec = csv_bytes("a_hex,b,c_hex", ["0x%x,%d,0x%x" % tuple(row)
                                       for row in cols.T.tolist()] + ["#x,1"])
    assert table_csv("a_hex,b,c_hex", cols, "#x,1") == spec
    assert table_csv("a,b_hex", cols[:2, :0]) == b"a,b_hex\n"


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_writers_match_the_spec(monkeypatch, layout, chunk):
    """Runs with logs of every kind, runs with empty logs, and logs that
    hold the edge values, at three chunk sizes."""
    if chunk is not None:
        monkeypatch.setattr(metrics, "_CSV_CHUNK", chunk)
    runs = []
    for kind in ("hotspot", "deepstack"):
        trace = gen_workload(kind, 600, layout, seed=1)
        runs += [replay(trace, SimConfig(sample_interval_n=n,
                                         remap_threshold_t=2, **levelers))
                 for n, levelers in (
                     (1, {}), (10, {"enable_fine": False}),
                     (10, {"enable_coarse": False}),
                     (1, {"enable_fine": False, "enable_coarse": False}))]
    assert any(len(r.remap_log) for r in runs)
    assert any(len(r.reloc_log) == 0 for r in runs)
    edge = runs[0]
    col = np.array(EDGES, np.int64)
    # a frame field prints the frame's absolute page, so frames 0 to 8
    # take the edges that leave room for the page's line addresses
    edge.space.pages[:len(col)] = np.minimum(col, (2 ** 63 - 1) >> 12)
    frames = np.arange(len(col))
    edge.sample_log = np.column_stack((col, frames))
    edge.remap_log = np.column_stack((col, col[::-1], col, frames, frames))
    edge.reloc_log = np.column_stack([np.roll(col, k) for k in range(5)])
    edge.space.wear[:len(col) - 1] = col[:-1]  # its #total fits int64
    edge.sampler.estimates[:len(col)] = col
    for result in runs:
        assert writers(result) == spec_writers(result)
