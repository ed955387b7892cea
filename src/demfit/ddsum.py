"""Compensated (double-double) accumulation for subset statistics.

Subset-level sufficient statistics are sums of per-sample contributions.
A distributed run groups those sums by subset before combining them, while
the single-process baseline accumulates them in one pass.  Plain float64
accumulation makes the two groupings differ at the ulp level, which is
enough to break exact trajectory equivalence between the two code paths.
Accumulating in an unevaluated hi/lo pair keeps ~32 significant digits, so
the rounded-to-double result is independent of how the sum was grouped.

Rows are summed in one pairwise tree, `DDArray.sum_segments`, which reduces
any number of segments of rows together: an E-step batch sums every
shard's rows in one pass, and each shard's words are bitwise those of the
tree of its rows alone.  `DDArray.sum_rows` is its one-segment case.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def _two_sum(a, b):
    # Knuth TwoSum: s + e == a + b exactly.
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _renorm(s, e):
    # Fast renormalization so that |lo| <= ulp(hi)/2.
    hi = s + e
    lo = e - (hi - s)
    return hi, lo


class DDArray:
    """A float64 array accumulated with a hi/lo compensation term."""

    __slots__ = ("hi", "lo")

    def __init__(self, n: int):
        self.hi = np.zeros(n)
        self.lo = np.zeros(n)

    @classmethod
    def _wrap(cls, hi: np.ndarray, lo: np.ndarray) -> "DDArray":
        # adopts the arrays as they are, without copying
        out = cls.__new__(cls)
        out.hi, out.lo = hi, lo
        return out

    @classmethod
    def sum_rows(cls, rows: np.ndarray, lo: np.ndarray | None = None) -> "DDArray":
        """Compensated sum of the rows of a 2-D array: `sum_segments` with
        one segment.  The result may share memory with rows."""
        acc = cls.sum_segments(rows, [len(rows)], lo)
        return cls._wrap(acc.hi[0], acc.lo[0])

    @classmethod
    def sum_segments(cls, rows: np.ndarray, lengths: Sequence[int],
                     lo: np.ndarray | None = None) -> "DDArray":
        """Compensated sums of consecutive segments of the rows of a 2-D
        array: one row of hi and lo words per segment, (B, width) each.

        rows are hi words and lo, when given, the matching lo words, so the
        rows may themselves be double-double values (the parts of a merge);
        lo words must be normalised, as `merge` leaves them.  Each segment
        is copied into a zero-padded buffer of S rows, S the power of two
        of the longest segment, and all segments are merged pairwise
        together, row i with row i + size/2, one vectorized level at a
        time.  Two rows are merged exactly as `merge` merges them, and
        without lo words the first level adds none.  A segment padded past
        its own power of two meets only zero rows until its own tree
        starts, and adding an exact zero changes at most the sign of a
        zero, which no later level can see, so each segment's words are
        bitwise those of its tree alone.  A one-row segment is returned as
        its row, untouched (a -0.0 stays -0.0), and an empty one as zeros.
        When every segment has S rows the buffer is a view of rows, and
        the result may share memory with them.
        """
        width, n_seg = rows.shape[1], len(lengths)
        size = 1 << max(max(lengths, default=0) - 1, 0).bit_length()
        lo_in, ones = lo, []
        if len(rows) == n_seg * size:
            hi = rows.reshape(n_seg, size, width).swapaxes(0, 1)
            lo = None if lo is None else lo.reshape(n_seg, size, width).swapaxes(0, 1)
        else:
            # one slice copy per segment; a one-row segment stays zero in
            # the tree and gets its row back at the end
            hi = np.zeros((size, n_seg, width))
            lo = None if lo is None else np.zeros((size, n_seg, width))
            end = 0
            for k, n in enumerate(lengths):
                start, end = end, end + n
                if n == 1:
                    ones.append((k, start))
                elif n:
                    hi[:n, k] = rows[start:end]
                    if lo is not None:
                        lo[:n, k] = lo_in[start:end]
        if lo is None:
            if size == 1:
                lo = np.zeros_like(hi)
            else:
                size //= 2
                hi, lo = _renorm(*_two_sum(hi[:size], hi[size:]))
        while size > 1:
            size //= 2
            s, e = _two_sum(hi[:size], hi[size:])
            hi, lo = _renorm(s, e + (lo[:size] + lo[size:]))
        hi, lo = hi[0], lo[0]
        if ones:
            k, start = map(list, zip(*ones))
            hi[k] = rows[start]
            if lo_in is not None:
                lo[k] = lo_in[start]
        return cls._wrap(hi, lo)

    def add(self, x: np.ndarray) -> None:
        s, e = _two_sum(self.hi, x)
        self.hi, self.lo = _renorm(s, self.lo + e)

    def merge(self, other: "DDArray") -> None:
        s, e = _two_sum(self.hi, other.hi)
        self.hi, self.lo = _renorm(s, e + (self.lo + other.lo))

    def value(self) -> np.ndarray:
        # hi + lo rounds the accumulated value to the nearest double.
        return self.hi + self.lo
