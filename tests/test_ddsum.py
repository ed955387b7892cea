import math
from fractions import Fraction

import numpy as np
import pytest

from demfit.ddsum import DDArray, Segments, _two_sum


def test_two_sum_exact_residual():
    s, e = _two_sum(np.array([1e16]), np.array([1.0]))
    assert s[0] == 1e16
    assert e[0] == 1.0  # regression: the error term must survive the rounding


def test_two_sum_is_exact_decomposition():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 9))
        b = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 9))
        s, e = _two_sum(a, b)
        # s + e == a + b exactly, by construction
        assert s == a + b
        assert math.fsum([a, b, -s]) == e


def test_sum_rows_matches_fsum():
    rng = np.random.default_rng(4)
    for m in (0, 1, 2, 7, 64, 201):
        rows = rng.standard_normal((m, 3)) * 10.0 ** rng.integers(-8, 9, size=(m, 3))
        acc = DDArray.sum_rows(rows)
        for j in range(3):
            assert acc.value()[j] == math.fsum(rows[:, j])


def test_sum_parts_matches_merge_fold():
    # double-double parts sum to the value merging them one by one gives
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 20):
        parts = [
            DDArray.sum_rows(rng.standard_normal((5, 4)) * 10.0 ** rng.integers(-8, 9, size=(5, 4)))
            for _ in range(n)
        ]
        folded = DDArray._wrap(parts[0].hi.copy(), parts[0].lo.copy())
        for part in parts[1:]:
            folded.merge(part)
        total = DDArray.sum_parts(parts)
        assert total.hi.shape == total.lo.shape == (4,)
        np.testing.assert_array_equal(total.value(), folded.value())


def dd_parts(rng, K, width, cancel):
    """K normalised double-double parts of one width at exponents from 1e-6
    to 1e6, as a renormalisation leaves them.  Same-sign parts unless
    cancel, whose last part takes back all but about 1e-9 of the others'
    sum, column by column."""
    hi = rng.random((K, width)) * 10.0 ** rng.integers(-6, 7, size=(K, width))
    if cancel:
        hi *= rng.choice([-1.0, 1.0], size=(K, width))
        rest = np.array([[math.fsum(col) for col in hi[:-1].T]])
        hi[-1] = -rest * (1.0 + 1e-9 * rng.standard_normal(width))
    s, e = _two_sum(hi, hi * 2.0 ** -60 * rng.standard_normal(hi.shape))
    return [DDArray._wrap(a, b) for a, b in zip(s, e)]


@pytest.mark.parametrize("cancel", [False, True], ids=["same_sign", "cancelling"])
@pytest.mark.parametrize("K", [1, 2, 20, 100])
def test_sum_parts_is_correctly_rounded(K, cancel):
    """Every column of the sum of K parts is the exact sum of their hi and
    lo words, as fractions, rounded once to the nearest double."""
    rng = np.random.default_rng(1000 * K + cancel)
    width = 16
    for _ in range(20):
        parts = dd_parts(rng, K, width, cancel and K > 1)
        got = DDArray.sum_parts(parts).value()
        for j in range(width):
            exact = sum(Fraction(float(a.hi[j])) + Fraction(float(a.lo[j])) for a in parts)
            assert got[j] == float(exact), (K, j)


def test_sum_parts_of_one_part_is_its_value():
    """One part sums to its hi + lo rounded once, the value it reads alone."""
    rng = np.random.default_rng(6)
    for part in dd_parts(rng, 50, 8, cancel=False):
        total = DDArray.sum_parts([part])
        assert as_bytes(total.value()) == as_bytes(part.value())
        assert as_bytes(total.hi) == as_bytes(part.hi + part.lo)


def test_matches_fsum():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(5000) * 1e6
    acc = DDArray(1)
    for v in vals:
        acc.add(np.array([v]))
    assert acc.value()[0] == math.fsum(vals)


def test_grouping_independence():
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((97, 5)) * 1e4
    single = DDArray(5)
    for x in xs:
        single.add(x)
    for trial in range(5):
        perm = np.random.default_rng(trial).permutation(len(xs))
        cuts = sorted(np.random.default_rng(100 + trial).choice(
            np.arange(1, len(xs)), size=6, replace=False))
        parts = np.split(perm, cuts)
        accs = []
        for part in parts:
            a = DDArray(5)
            for i in part:
                a.add(xs[i])
            accs.append(a)
        total = accs[0]
        for a in accs[1:]:
            total.merge(a)
        assert np.array_equal(total.value(), single.value())




def oracle_tree(rows, width):
    """The documented tree of one segment in plain Python floats.  A single
    row is returned as it is, with zero lo words, and no rows sum to zero;
    otherwise the rows are zero-padded to a power of two and row i is
    merged with row i + size/2 by TwoSum then renormalisation, one level at
    a time, the first level's errors becoming the first lo words."""
    if len(rows) == 1:
        return list(rows[0]), [0.0] * width
    if not rows:
        return [0.0] * width, [0.0] * width
    size = 1
    while size < len(rows):
        size *= 2
    hi, lo = rows + [[0.0] * width] * (size - len(rows)), None
    while size > 1:
        size //= 2
        new_hi, new_lo = [], []
        for i in range(size):
            new_hi.append([])
            new_lo.append([])
            for j in range(width):
                a, b = hi[i][j], hi[i + size][j]
                s = a + b
                bb = s - a
                e = (a - (s - bb)) + (b - bb)
                if lo is not None:
                    e = e + (lo[i][j] + lo[i + size][j])
                h = s + e
                new_hi[i].append(h)
                new_lo[i].append(e - (h - s))
        hi, lo = new_hi, new_lo
    return hi[0], lo[0]


def random_rows(rng, n, width):
    """n rows at exponents from 1e-12 to 1e12, with +0.0 and -0.0 entries."""
    rows = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-12, 13, size=(n, width))
    zeros = rng.random((n, width)) < 0.15
    rows[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    return rows


def as_bytes(x):
    return np.asarray(x, dtype=float).tobytes()


def test_sum_segments_match_the_oracle_tree():
    """Every segment of a batch comes back bitwise its own tree, however far
    past its own power of two the batch pads it: batches of 1-24 segments
    of 0-33 rows, each edge length (0, 1, 2^k, 2^k + 1) in some batch."""
    rng = np.random.default_rng(11)
    width = 3
    edges = [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33]
    for trial in range(60):
        lengths = [int(n) for n in rng.integers(0, 34, size=int(rng.integers(1, 25)))]
        lengths[int(rng.integers(len(lengths)))] = edges[trial % len(edges)]
        if trial % 3 == 0:
            lengths[0] = 1  # one-row segments beside longer ones
        rows = random_rows(rng, sum(lengths), width)
        got = DDArray.sum_segments(rows, lengths)
        assert got.hi.shape == got.lo.shape == (len(lengths), width)
        start = 0
        for k, n in enumerate(lengths):
            want = oracle_tree(rows[start : start + n].tolist(), width)
            start += n
            assert as_bytes(got.hi[k]) == as_bytes(want[0]), (trial, k, n)
            assert as_bytes(got.lo[k]) == as_bytes(want[1]), (trial, k, n)
        # sum_rows is the one-segment case of the same tree
        if lengths[-1]:
            one = DDArray.sum_rows(rows[-lengths[-1]:])
            assert as_bytes(one.hi) == as_bytes(got.hi[-1])
            assert as_bytes(one.lo) == as_bytes(got.lo[-1])


def test_laid_out_segments_give_the_slice_copies_bitwise():
    """Lengths laid out once as Segments, reused on fresh rows, give every
    segment bitwise the words its lengths give, a one-row segment's -0.0
    and zero lo words included, with the one-row segments now inside the
    scattered tree."""
    rng = np.random.default_rng(12)
    for trial in range(40):
        lengths = [int(n) for n in rng.integers(0, 20, size=int(rng.integers(1, 25)))]
        lengths[trial % len(lengths)] = 1
        if trial % 4 == 0:
            lengths[0] = 0
        segments = Segments(lengths)
        assert segments == tuple(lengths)
        for _ in range(2):
            rows = random_rows(rng, sum(lengths), 3)
            got = DDArray.sum_segments(rows, segments)
            want = DDArray.sum_segments(rows, lengths)
            assert as_bytes(got.hi) == as_bytes(want.hi), trial
            assert as_bytes(got.lo) == as_bytes(want.lo), trial


def test_one_row_segment_is_its_row():
    """A one-row segment keeps its -0.0 entries; merging it with a padding
    row, as a batch whose longest segment has 4 rows would, loses them."""
    row = [-0.0, 1.5, -0.0]
    rows = np.array([row] + [[1.0, 2.0, 3.0]] * 4)
    for lengths in ([1, 4], Segments([1, 4])):
        got = DDArray.sum_segments(rows, lengths)
        assert as_bytes(got.hi[0]) == as_bytes(row)
        assert as_bytes(got.lo[0]) == as_bytes([0.0] * 3)
    padded = oracle_tree([row, [0.0] * 3], 3)
    assert padded[0] == row and as_bytes(padded[0]) != as_bytes(row)
