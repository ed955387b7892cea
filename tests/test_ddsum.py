import math

import numpy as np

from demfit.ddsum import DDArray, _two_sum


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


def test_sum_rows_of_dd_parts_matches_merge_fold():
    # rows given as hi and lo words sum to what merging them one by one gives
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 20):
        parts = [
            DDArray.sum_rows(rng.standard_normal((5, 4)) * 10.0 ** rng.integers(-8, 9, size=(5, 4)))
            for _ in range(n)
        ]
        folded = DDArray.from_parts(parts[0].hi, parts[0].lo)
        for part in parts[1:]:
            folded.merge(part)
        total = DDArray.sum_rows(np.array([a.hi for a in parts]), np.array([a.lo for a in parts]))
        np.testing.assert_array_equal(total.value(), folded.value())
        if n <= 2:
            np.testing.assert_array_equal(total.hi, folded.hi)
            np.testing.assert_array_equal(total.lo, folded.lo)


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

