"""Endurance and lifetime metrics over per-line wear counts.

Definitions over a reporting region (zero-count lines included):

    AE  achieved endurance      mean(counts) / max(counts)
    WO  write overhead          (leveled_total - baseline_total) / baseline_total
    EI  endurance improvement   AE_analyzed / AE_baseline
    LI  lifetime improvement    EI / (WO + 1)
    NE  normalized endurance    AE / (WO + 1)

AE is 1.0 for perfectly uniform wear; NE folds the extra copy traffic a
leveler spends back into its endurance gain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np

from .errors import MetricsError


def achieved_endurance(*parts) -> float:
    """AE of a region given as one array of counts, or as several parts
    (such as slices of a wear map) that together make up the region."""
    arrs = [np.asarray(p, dtype=np.int64) for p in parts]
    size = sum(a.size for a in arrs)
    if size == 0:
        raise MetricsError("empty region")
    peak = max(int(a.max()) for a in arrs if a.size)
    if peak == 0:
        raise MetricsError("all-zero region has no achieved endurance")
    # single division keeps AE exactly scale-invariant
    return sum(int(a.sum()) for a in arrs) / (size * peak)


def write_overhead(baseline_total: int, leveled_total: int) -> float:
    if baseline_total <= 0:
        raise MetricsError("baseline write total must be positive")
    if leveled_total < baseline_total:
        raise MetricsError("leveled total below baseline total")
    return (leveled_total - baseline_total) / baseline_total


def endurance_improvement(ae_analyzed: float, ae_baseline: float) -> float:
    if ae_baseline <= 0:
        raise MetricsError("baseline AE must be positive")
    return ae_analyzed / ae_baseline


def lifetime_improvement(ei: float, wo: float) -> float:
    return ei / (wo + 1.0)


def normalized_endurance(ae: float, wo: float) -> float:
    return ae / (wo + 1.0)


@dataclass
class MetricsReport:
    ae: float
    wo: float
    ne: float
    ei: float
    li: float


# ----------------------------------------------------------------------
# CSV export

def csv_bytes(header: str, rows: Iterable[str]) -> bytes:
    """A header line and one line per row, each ending in a newline."""
    return "\n".join([header, *rows, ""]).encode("utf-8")


def export_histogram(lines: np.ndarray, counts: np.ndarray) -> bytes:
    """Serialize per-line counts as CSV: one row per line index, in order.

    Header, a row per (line, count) pair, '#total' trailer.
    """
    rows = ["%d,%d" % row for row in zip(lines.tolist(), counts.tolist())]
    rows.append("#total,%d" % counts.sum())
    return csv_bytes("line_index,count", rows)


def log2_bins(counts) -> Dict[int, int]:
    """Bin counts as floor(log2(count) + 1), with bin 0 for zero counts."""
    return dict(sorted(Counter(int(c).bit_length() for c in counts).items()))
