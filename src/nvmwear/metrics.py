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
from typing import Dict, Iterable, Sequence

import numpy as np

from .errors import MetricsError
from .trace import _HEX_POWERS, _hex_columns


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


# rows formatted at once: a chunk's temporaries are several times its
# output, and at 1 << 11 they stay small beside a wear CSV of 10k rows
# and more, for about 15% more time than at 1 << 13
_CSV_CHUNK = 1 << 11
# 10 ** 1 .. 10 ** 18; a number's decimal digit count is 1 + how many it
# reaches
_DEC_POWERS = np.int64(10) ** np.arange(1, 19, dtype=np.int64)


def _dec_columns(col: np.ndarray, width: int) -> np.ndarray:
    """(width, n) ASCII decimal of the low `width` digits of each
    non-negative int64, most significant digit first."""
    out = np.empty((width, len(col)), np.uint8)
    for i in range(width - 1, -1, -1):
        q = col // 10
        out[i] = col - q * 10 + ord("0")
        col = q
    return out


def table_csv(header: str, columns: Sequence, trailer: str = "") -> bytes:
    """A header line, a line per row of `columns` (one sequence of
    non-negative int64 per header field), then the trailer line if any.

    A field named `*_hex` is written in 0x-prefixed lowercase hex, any
    other in decimal.  As in `trace._emit_records`, a chunk's rows are the
    rows of an (n, w) uint8 matrix stored column-major, each number
    written at the chunk's widest digit count, and one keep mask drops
    the leading zeros."""
    hexes = [name.endswith("_hex") for name in header.split(",")]
    cols = [np.asarray(c, np.int64) for c in columns]
    parts = [header.encode() + b"\n"]
    for lo in range(0, len(cols[0]), _CSV_CHUNK):
        out, keep = [], []
        for hexa, col in zip(hexes, cols):
            col = col[lo:lo + _CSV_CHUNK].view(np.uint64 if hexa else np.int64)
            digits = np.searchsorted(_HEX_POWERS if hexa else _DEC_POWERS,
                                     col, "right") + 1
            w, head = int(digits.max()), b"0x" if hexa else b""
            out += [np.frombuffer(head, np.uint8)[:, None].repeat(len(col), 1),
                    (_hex_columns if hexa else _dec_columns)(col, w),
                    np.full((1, len(col)), ord(","), np.uint8)]
            # the prefix and the comma are kept, and each number's digits
            # from its first one on
            rank = np.array([w] * len(head) + list(range(w + 1)))
            keep.append(rank[:, None] >= w - digits)
        out = np.concatenate(out)
        out[-1] = ord("\n")
        parts.append(out.T[np.concatenate(keep).T].tobytes())
    if trailer:
        parts.append(trailer.encode() + b"\n")
    return b"".join(parts)


def export_histogram(lines: np.ndarray, counts: np.ndarray) -> bytes:
    """Serialize per-line counts as CSV: one row per line index, in order.

    Header, a row per (line, count) pair, '#total' trailer.
    """
    return table_csv("line_index,count", (lines, counts),
                     "#total,%d" % counts.sum())


def log2_bins(counts) -> Dict[int, int]:
    """Bin counts as floor(log2(count) + 1), with bin 0 for zero counts."""
    return dict(sorted(Counter(int(c).bit_length() for c in counts).items()))
