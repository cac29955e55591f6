"""Endurance metrics, histogram export, and wear binning."""

import numpy as np
import pytest

from nvmwear import achieved_endurance
from nvmwear.errors import MetricsError
from nvmwear.metrics import (endurance_improvement, export_histogram,
                             lifetime_improvement, log2_bins,
                             normalized_endurance, write_overhead)


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
