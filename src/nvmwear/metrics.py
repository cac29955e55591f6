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
# text rows: CSV export and trace records

def csv_bytes(header: str, rows: Iterable[str]) -> bytes:
    """A header line and one line per row, each ending in a newline."""
    return "\n".join([header, *rows, ""]).encode("utf-8")


def _hex_digits(col: np.ndarray, width: int) -> np.ndarray:
    """(width, n) values of the low `width` hex digits of each uint64,
    most significant first."""
    octets = np.ascontiguousarray(  # the low (width + 1) // 2 bytes
        col.astype(">u8").view(np.uint8).reshape(-1, 8).T[8 - (width + 1) // 2:])
    nibbles = np.empty((2 * len(octets), len(col)), np.uint8)
    np.right_shift(octets, 4, out=nibbles[0::2])
    np.bitwise_and(octets, 15, out=nibbles[1::2])
    return nibbles[len(nibbles) - width:]


def _dec_digits(col: np.ndarray, width: int) -> np.ndarray:
    """(width, n) values of the low `width` decimal digits of each uint64,
    most significant first."""
    out = np.empty((width, len(col)), np.uint8)
    for i in range(width - 1, -1, -1):
        q = col // 10
        out[i] = col - q * 10
        col = q
    return out


def format_rows(fields: Sequence, n: int) -> bytes:
    """n lines of text, each its `fields` in order: `bytes`, the same on
    every line; a uint8 array of one byte a line; or a number field
    `(col, base)`, each uint64 of `col` in lowercase base 10 or 16 without
    leading zeros.  In a field `(col, base, lead)` a 0 is written as
    nothing, and any other number after `lead`.

    The lines are the rows of an (n, w) uint8 matrix, stored column-major
    so that each numpy pass runs along the lines.  A field's numbers are
    written at the widest one's digit count, and a keep mask drops the
    zeros that lead each."""
    blocks = []  # text rows, the lines they fill, and which of them to keep
    for f in fields:
        if not isinstance(f, tuple):
            blocks.append((np.frombuffer(f, np.uint8)[:, None]
                           if isinstance(f, bytes) else f[None],
                           slice(None), True))
            continue
        col, base, *lead = f
        # a field with a lead is written only at its nonzero lines
        lines = np.flatnonzero(col) if lead else slice(None)
        col = col[lines]
        top = int(col.max(initial=0))
        digits = (_hex_digits if base == 16 else _dec_digits)(
            col, len(("%x" if base == 16 else "%d") % top))
        # a number's digits from its first nonzero one, and its last
        kept = digits != 0
        for i in range(1, len(kept)):
            kept[i] |= kept[i - 1]
        kept[-1] = True
        if lead:
            blocks.append((np.frombuffer(lead[0], np.uint8)[:, None],
                           lines, True))
        # "0"-"9" are 48-57 and "a"-"f" 97-102
        blocks.append((digits + np.uint8(48) + (digits > 9) * np.uint8(39),
                       lines, kept))
    out = np.empty((sum(len(text) for text, _, _ in blocks), n), np.uint8)
    keep = np.zeros(out.shape, bool)
    row = 0
    for text, lines, kept in blocks:
        out[row:row + len(text), lines] = text
        keep[row:row + len(text), lines] = kept
        row += len(text)
    return out.T[keep.T].tobytes()


# rows formatted at once: a chunk's temporaries are several times its
# output, and at 1 << 11 they stay small beside a wear CSV of 10k rows
# and more, for about 15% more time than at 1 << 13
_CSV_CHUNK = 1 << 11


def table_csv(header: str, columns: Sequence, trailer: str = "") -> bytes:
    """A header line, a line per row of `columns` (one sequence of
    non-negative int64 per header field), then the trailer line if any.
    A field named `*_hex` is written in 0x-prefixed lowercase hex, any
    other in decimal."""
    hexes = [name.endswith("_hex") for name in header.split(",")]
    cols = [np.asarray(c, np.int64).view(np.uint64) for c in columns]
    parts = [header.encode() + b"\n"]
    for lo in range(0, len(cols[0]), _CSV_CHUNK):
        fields = []
        for hexa, col in zip(hexes, cols):
            col = col[lo:lo + _CSV_CHUNK]
            fields += [b"0x", (col, 16), b","] if hexa else [(col, 10), b","]
        fields[-1] = b"\n"
        parts.append(format_rows(fields, len(col)))
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
