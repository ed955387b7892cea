"""Compensated (double-double) accumulation for subset statistics.

Subset-level sufficient statistics are sums of per-sample contributions.
A distributed run groups those sums by subset before combining them, while
the single-process baseline accumulates them in one pass.  Plain float64
accumulation makes the two groupings differ at the ulp level, which is
enough to break exact trajectory equivalence between the two code paths.
Accumulating in an unevaluated hi/lo pair keeps ~32 significant digits, so
the rounded-to-double result is independent of how the sum was grouped.

Two passes sum the two kinds of input.  A worker's rows of per-sample
values are summed in one pairwise tree, `DDArray.sum_segments`, which
reduces any number of segments of rows together: an E-step batch sums
every shard's rows in one pass, and each shard's words are bitwise those
of the tree of its rows alone.  `DDArray.sum_rows` is its one-segment
case.  Segments whose lengths repeat from call to call (a worker's whole
set of shards) give their lengths as a `Segments`, which places every
row in the padded tree once, so a call fills it with one scatter.  The
manager's K double-double parts, one per subset, are summed in one
compensated pass, Sum2 of Ogita, Rump & Oishi (2005, "Accurate sum
and dot product", SIAM J. Sci. Comput. 26:1955), over their hi and then
their lo words: a dozen array operations for any K.  `DDArray.sum_words`
runs it over a ready (2K, width) block of those words, which a caller
holding its parts as rows of one array gathers in one copy;
`DDArray.sum_parts` gathers the words of K separate parts first.
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


def padded(n: int) -> int:
    """The rows `DDArray.sum_segments` pads a segment of n rows to: the
    least power of two at or above n, and 1 for an empty segment."""
    return 1 << max(n - 1, 0).bit_length()


class Segments(tuple):
    """Segment lengths, with their place in `DDArray.sum_segments`' padded
    buffer computed once: `index` is each row's position in the buffer's
    (size * segments) rows, and `ones` the (segments, first rows) of the
    one-row segments.  It is the tuple of its lengths, and it pays for
    itself when one set of lengths is summed again and again."""

    def __new__(cls, lengths):
        self = super().__new__(cls, lengths)
        n_seg = len(self)
        sizes = np.array(self, dtype=np.intp)
        starts = np.cumsum(sizes) - sizes
        self.index = ((np.arange(sizes.sum()) - np.repeat(starts, sizes)) * n_seg
                      + np.repeat(np.arange(n_seg), sizes))
        ones = np.flatnonzero(sizes == 1)
        self.ones = (ones.tolist(), starts[ones].tolist())
        return self


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
    def sum_rows(cls, rows: np.ndarray) -> "DDArray":
        """Compensated sum of the rows of a 2-D array: `sum_segments` with
        one segment.  The result may share memory with rows."""
        acc = cls.sum_segments(rows, [len(rows)])
        return cls._wrap(acc.hi[0], acc.lo[0])

    @classmethod
    def sum_segments(cls, rows: np.ndarray, lengths: Sequence[int]) -> "DDArray":
        """Compensated sums of consecutive segments of the rows of a 2-D
        array: one row of hi and lo words per segment, (B, width) each.

        Each segment is copied into a zero-padded buffer of S rows, S the
        power of two of the longest segment, and all segments are merged
        pairwise together, row i with row i + size/2, one vectorized level
        at a time: the first level's TwoSum errors are the first lo words,
        and each later level merges two rows exactly as `merge` merges
        them.  A segment padded past its own power of two meets only zero
        rows until its own tree starts, and adding an exact zero changes at
        most the sign of a zero, which no later level can see, so each
        segment's words are bitwise those of its tree alone.  A one-row
        segment is returned as its row, untouched (a -0.0 stays -0.0), and
        an empty one as zeros.  When every segment has S rows the buffer is
        a view of rows, and the result may share memory with them.  Lengths
        given as `Segments` fill the buffer with one scatter of every row,
        a one-row segment's too, whose words are then set as above.
        """
        width, n_seg = rows.shape[1], len(lengths)
        size = padded(max(lengths, default=0))
        ones = ([], [])  # the (segments, first rows) of the one-row segments
        if len(rows) == n_seg * size:
            hi = rows.reshape(n_seg, size, width).swapaxes(0, 1)
        elif isinstance(lengths, Segments):
            hi = np.zeros((size, n_seg, width))
            hi.reshape(size * n_seg, width)[lengths.index] = rows
            ones = lengths.ones
        else:
            # one slice copy per segment; a one-row segment stays zero in
            # the tree and gets its row back at the end
            hi = np.zeros((size, n_seg, width))
            end = 0
            for k, n in enumerate(lengths):
                start, end = end, end + n
                if n == 1:
                    ones[0].append(k)
                    ones[1].append(start)
                elif n:
                    hi[:n, k] = rows[start:end]
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
        k, start = ones
        if k:
            hi[k] = rows[start]
            lo[k] = 0.0
        return cls._wrap(hi, lo)

    @classmethod
    def sum_parts(cls, parts: Sequence["DDArray"]) -> "DDArray":
        """Compensated sum of double-double parts of one width, in one Sum2
        pass over their hi words, then their lo words, in part order.

        The running sums of all 2K words come from one accumulate, the
        TwoSum error of each of those additions from a few array
        operations, and the errors are added in one reduce; a closing
        TwoSum of the last running sum and the summed errors gives the hi
        and lo words, so value() is Sum2's result.  Its error is at most
        u|s| + gamma_{2K}^2 sum|p| (Ogita, Rump & Oishi 2005), which rounds
        as the exact sum does for K in the hundreds unless the sum is
        nearly a tie.  One part gives hi + lo rounded once, as value() of
        that part does.
        """
        return cls.sum_words(np.array([*(a.hi for a in parts), *(a.lo for a in parts)]))

    @classmethod
    def sum_words(cls, words: np.ndarray) -> "DDArray":
        """`sum_parts` over a ready (2K, width) block of words: the K parts'
        hi words, then their lo words, in part order.  A caller whose parts
        are rows of one array gathers them into such a block in one copy."""
        run = np.add.accumulate(words)
        prev, cur = run[:-1], run[1:]
        # TwoSum errors of cur = prev + words[1:], row by row
        bb = cur - prev
        err = cur - bb
        np.subtract(prev, err, out=err)
        np.subtract(words[1:], bb, out=bb)
        err += bb
        return cls._wrap(*_two_sum(run[-1], np.add.reduce(err)))

    def add(self, x: np.ndarray) -> None:
        s, e = _two_sum(self.hi, x)
        self.hi, self.lo = _renorm(s, self.lo + e)

    def merge(self, other: "DDArray") -> None:
        s, e = _two_sum(self.hi, other.hi)
        self.hi, self.lo = _renorm(s, e + (self.lo + other.lo))

    def value(self) -> np.ndarray:
        # hi + lo rounds the accumulated value to the nearest double.
        return self.hi + self.lo
