"""Compensated (double-double) accumulation for subset statistics.

Subset-level sufficient statistics are sums of per-sample contributions.
A distributed run groups those sums by subset before combining them, while
the single-process baseline accumulates them in one pass.  Plain float64
accumulation makes the two groupings differ at the ulp level, which is
enough to break exact trajectory equivalence between the two code paths.
Accumulating in an unevaluated hi/lo pair keeps ~32 significant digits, so
the rounded-to-double result is independent of how the sum was grouped.
"""
from __future__ import annotations

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


def _padded(rows, size):
    out = np.zeros((size, rows.shape[1]))
    out[: len(rows)] = rows
    return out


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
    def from_parts(cls, hi: np.ndarray, lo: np.ndarray) -> "DDArray":
        return cls._wrap(np.array(hi, dtype=float), np.array(lo, dtype=float))

    @classmethod
    def sum_rows(cls, rows: np.ndarray, lo: np.ndarray | None = None) -> "DDArray":
        """Compensated sum of the rows of a 2-D array.

        rows are hi words and lo, when given, the matching lo words, so the
        rows may themselves be double-double values (the parts of a merge).
        The rows are zero-padded to a power of two and merged pairwise, one
        vectorized level at a time; adding a zero row is exact, so the
        padding does not change the sum.  Two rows are merged exactly as
        `merge` merges them.  A power-of-two row count is merged without
        the padded copy, and without lo words the first level adds none;
        the result may then share memory with rows.
        """
        n, width = rows.shape
        size = 1 << max(n - 1, 0).bit_length()
        if size != n:
            rows = _padded(rows, size)
            lo = None if lo is None else _padded(lo, size)
        hi = rows
        if lo is None:
            if size == 1:
                return cls._wrap(hi[0], np.zeros(width))
            size //= 2
            hi, lo = _renorm(*_two_sum(hi[:size], hi[size:]))
        while size > 1:
            size //= 2
            s, e = _two_sum(hi[:size], hi[size:])
            hi, lo = _renorm(s, e + (lo[:size] + lo[size:]))
        return cls._wrap(hi[0], lo[0])

    def add(self, x: np.ndarray) -> None:
        s, e = _two_sum(self.hi, x)
        self.hi, self.lo = _renorm(s, self.lo + e)

    def merge(self, other: "DDArray") -> None:
        s, e = _two_sum(self.hi, other.hi)
        self.hi, self.lo = _renorm(s, e + (self.lo + other.lo))

    def value(self) -> np.ndarray:
        # hi + lo rounds the accumulated value to the nearest double.
        return self.hi + self.lo
