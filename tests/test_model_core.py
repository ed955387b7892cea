import math
import tracemalloc

import numpy as np
import pytest

from demfit import (
    ConvergenceMonitor,
    LmmModel,
    NumericalDomainError,
    ProtocolError,
    RunConfig,
    Sample,
    Theta,
    Trace,
    aggregate_stats,
    check_monotone_F,
    evaluate_F,
    partition,
    run_dem,
)
from demfit import lmm
from conftest import local_kl, random_sample, random_theta


def _cache(model, theta, subsets):
    return {k: model.local_estep(theta, sub, k, 0) for k, sub in enumerate(subsets)}


def test_aggregate_requires_all_subsets():
    rng = np.random.default_rng(0)
    model = LmmModel(2, 2)
    theta = random_theta(rng, 2, 2)
    subsets = [[random_sample(rng, 2, 2)] for _ in range(3)]
    cache = _cache(model, theta, subsets)
    del cache[1]
    with pytest.raises(ProtocolError, match=r"\[1\]"):
        aggregate_stats(cache, 3)
    with pytest.raises(ProtocolError):
        aggregate_stats({}, 0)


def test_aggregate_matches_single_pass():
    # K=20 subsets of uneven size, one of them empty: the one-pass combine
    # equals the fold of binary combines and the single-pass E step
    rng = np.random.default_rng(1)
    model = LmmModel(2, 2)
    theta = random_theta(rng, 2, 2)
    sizes = rng.integers(1, 9, size=20)
    sizes[7] = 0
    subsets = [[random_sample(rng, 2, 2) for _ in range(n)] for n in sizes]
    cache = _cache(model, theta, subsets)
    agg = aggregate_stats(cache, 20)
    parts = [cache[k].payload for k in range(20)]
    folded = parts[0]
    for part in parts[1:]:
        folded = folded.combine(part)
    full = model.local_estep(theta, [s for sub in subsets for s in sub])
    assert agg.payload.n == full.payload.n
    assert agg.payload.loglik == full.payload.loglik
    for stats in (parts[0].combine(*parts[1:]), folded, full.payload):
        assert (stats.m, stats.n) == (agg.payload.m, agg.payload.n)
        for got, want in zip(agg.payload.values(), stats.values()):
            np.testing.assert_array_equal(got, want)
    assert agg.anchor_tags == [0] * 20


def test_convergence_monitor():
    mon = ConvergenceMonitor(tol=1e-3)
    assert not mon.update(0, -100.0)
    assert not mon.update(1, -99.0)
    assert mon.update(2, -99.0 + 1e-4)
    assert len(mon.history) == 3


def test_evaluate_F_collapses_to_loglik_at_anchor():
    rng = np.random.default_rng(2)
    model = LmmModel(2, 2)
    theta = random_theta(rng, 2, 2)
    subsets = [[random_sample(rng, 2, 2) for _ in range(3)] for _ in range(2)]
    total_ll = math.fsum(model.local_loglik(theta, s) for s in subsets)
    F = evaluate_F(theta, [theta, theta], model, subsets)
    assert F == pytest.approx(total_ll, rel=1e-12)


def test_evaluate_F_is_lower_bound():
    # F(anchor, theta) <= L(theta) with equality only at the anchor
    rng = np.random.default_rng(3)
    model = LmmModel(2, 2)
    subsets = [[random_sample(rng, 2, 2) for _ in range(3)] for _ in range(2)]
    for _ in range(10):
        theta = random_theta(rng, 2, 2)
        anchor = random_theta(rng, 2, 2)
        F = evaluate_F(theta, [anchor, anchor], model, subsets)
        L = math.fsum(model.local_loglik(theta, s) for s in subsets)
        assert F <= L + 1e-9


def test_evaluate_F_anchor_count_mismatch():
    model = LmmModel(2, 2)
    rng = np.random.default_rng(4)
    theta = random_theta(rng, 2, 2)
    with pytest.raises(ValueError, match="one anchor per subset"):
        evaluate_F(theta, [theta], model, [[], []])


def _fractional_run(samples):
    subsets = partition(samples, 5, seed=0)
    model = LmmModel(4, 3)
    _, tr = run_dem(RunConfig(K=5, gamma=0.3, seed=2), model, subsets,
                    Theta.default_start(4, 3))
    return model, subsets, tr


def _finish_run(samples):
    """A "finish" trace over 8 subsets, which delivers stale E steps, and
    its tags for those subsets and an empty ninth one anchored at row 0."""
    subsets = partition(samples, 8, seed=0)
    model = LmmModel(4, 3)
    _, tr = run_dem(RunConfig(K=8, gamma=0.25, seed=3, completion="finish"), model,
                    subsets, Theta.default_start(4, 3))
    assert tr.max_staleness >= 2
    return model, subsets + [[]], tr, [list(row) + [0] for row in tr.anchor_tags]


def test_evaluate_F_matches_subset_definition(small_dataset):
    # the batched pass over all subsets gives exactly the per-subset sum, at
    # every iteration whose anchors differ across subsets
    model, subsets, tr = _fractional_run(small_dataset[0])
    subsets = subsets + [[]]
    mixed = [t for t, tags in enumerate(tr.anchor_tags) if len(set(tags)) > 2]
    assert mixed
    for t in mixed:
        theta = tr.thetas[t]
        anchors = [tr.thetas[tag] for tag in tr.anchor_tags[t]] + [tr.thetas[0]]
        expected = 0.0
        for anchor, subset in zip(anchors, subsets):
            expected += -local_kl(model, theta, anchor, subset) + model.local_loglik(theta, subset)
        assert evaluate_F(theta, anchors, model, subsets) == expected


def test_evaluate_F_non_finite_subset():
    rng = np.random.default_rng(5)
    model = LmmModel(2, 2)
    theta = random_theta(rng, 2, 2)
    subsets = [[random_sample(rng, 2, 2) for _ in range(3)] for _ in range(3)]
    bad = subsets[1][2]
    subsets[1][2] = Sample(y=np.append(bad.y[:-1], np.nan), X=bad.X, Z=bad.Z)
    with pytest.raises(NumericalDomainError):
        evaluate_F(theta, [theta] * 3, model, subsets)


def test_free_energy_tests_only_the_total(monkeypatch):
    """A row's free energy is its terms summed left to right, bitwise.  Only
    a total that is not finite has its terms scanned: a term that is not
    finite is a NumericalDomainError naming its subset, while finite terms
    whose sum overflows give an infinite total without raising."""
    from demfit import model as model_mod

    checked = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def isfinite(self, x):
            checked.append(x)
            return math.isfinite(x)

    monkeypatch.setattr(model_mod, "math", CountingMath())
    terms = [0.1, 0.2, 0.3, -1e-17, 7.0]
    total = 0.0
    for term in terms:
        total += term
    assert model_mod._free_energy(terms).hex() == total.hex()
    assert len(checked) == 1
    assert model_mod._free_energy([1e308, 1e308, -1.0]) == math.inf
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericalDomainError, match="^non-finite free-energy term for subset 2$"):
            model_mod._free_energy([1.0, 2.0, bad, math.inf])

    class RowsModel:
        """Hands check_monotone_F fixed rows of terms."""

        def __init__(self, rows):
            self.rows = rows

        def free_energy_path(self, thetas, anchor_tags, subsets):
            return self.rows

    trace = Trace(thetas=[None] * 3, anchor_tags=[[0, 0]] * 3)
    checked.clear()
    rows = [[-2.0, -1.0], [-1.5, -1.0], [-3.0, -1.0]]
    assert check_monotone_F(trace, RowsModel(rows), [[], []]) == [(2, -2.5, -4.0)]
    assert len(checked) == len(rows)
    with pytest.raises(NumericalDomainError, match="for subset 1$"):
        check_monotone_F(trace, RowsModel([[-2.0, -1.0], [-1.5, math.nan], [0.0, 0.0]]),
                         [[], []])
    assert check_monotone_F(trace, RowsModel([[-2.0, -1.0], [1e308, 1e308], [1e308, 1e308]]),
                            [[], []]) == []


def test_audit_one_model_call_per_audit(small_dataset):
    class CountingModel(LmmModel):
        def __init__(self, p, q):
            super().__init__(p, q)
            self.calls = {}

        def _count(self, name):
            self.calls[name] = self.calls.get(name, 0) + 1

        def free_energy_path(self, thetas, anchor_tags, subsets):
            self._count("free_energy_path")
            return super().free_energy_path(thetas, anchor_tags, subsets)

    _, subsets, tr = _fractional_run(small_dataset[0])
    model = CountingModel(4, 3)
    assert check_monotone_F(tr, model, subsets) == []
    assert model.calls == {"free_energy_path": 1}


def test_path_matches_evaluate_F_bitwise(small_dataset):
    # completion "finish" delivers stale E steps, so subsets take tags that
    # no subset held at the row before
    model, subsets, tr, tags = _finish_run(small_dataset[0])
    rows = model.free_energy_path(tr.thetas, tags, subsets)
    assert len(rows) == len(tr.thetas)
    expected = [evaluate_F(tr.thetas[j], [tr.thetas[t] for t in row], model, subsets)
                for j, row in enumerate(tags)]
    assert [sum(terms) for terms in rows] == expected
    with pytest.raises(ValueError, match="one anchor tag per subset"):
        model.free_energy_path(tr.thetas, tr.anchor_tags, subsets)


def test_trace_properties():
    tr = Trace()
    tr.thetas = [None, None, None, None]
    tr.anchor_tags = [[0, 0], [0, 1], [1, 0], [2, 0]]
    tr.wall_times = [0.5, 0.25, 0.125, 0.125]
    assert tr.n_iterations == 3
    assert tr.staleness == [[0, 0], [1, 0], [1, 2], [1, 3]]
    assert tr.max_staleness == 3
    assert tr.total_wall_time == pytest.approx(1.0)


@pytest.mark.parametrize("completion", ["restart", "finish"])
def test_audit_reports_a_decrease(small_dataset, completion):
    # ending a fractional run back at its start undoes the ascent: the
    # audit reports the last row, and only it
    subsets = partition(small_dataset[0], 8, seed=0)
    model = LmmModel(4, 3)
    _, tr = run_dem(RunConfig(K=8, gamma=0.25, seed=3, completion=completion), model,
                    subsets, Theta.default_start(4, 3))
    assert check_monotone_F(tr, model, subsets) == []
    tr.thetas[-1] = tr.thetas[0]
    violations = check_monotone_F(tr, model, subsets)
    assert [t for t, _, _ in violations] == [len(tr.thetas) - 1]
    (_, before, after), = violations
    assert after < before


class PosteriorCallsModel(LmmModel):
    """Counts its posterior calls."""

    def __init__(self, p, q):
        super().__init__(p, q)
        self.posteriors = 0

    def _posterior(self, theta, shard):
        self.posteriors += 1
        return super()._posterior(theta, shard)


def test_path_rejects_tags_it_cannot_serve(small_dataset):
    # a tag must be at most its row, also where thetas has a point past it;
    # the whole plan is checked before the first block's posterior
    _, subsets, tr = _fractional_run(small_dataset[0])
    model = PosteriorCallsModel(4, 3)
    thetas = tr.thetas + [tr.thetas[1]]
    last = len(tr.thetas) - 1
    for row, tag in [(0, -1), (2, 3), (3, len(thetas)), (0, len(tr.thetas)), (last, last + 1)]:
        tags = [list(r) for r in tr.anchor_tags]
        tags[row][1] = tag
        with pytest.raises(ValueError, match=rf"row {row}: anchor tag {tag} "):
            model.free_energy_path(thetas, tags, subsets)
    tags = [list(r) for r in tr.anchor_tags]
    tags[last].append(0)
    with pytest.raises(ValueError, match=rf"^row {last}: need one anchor tag per subset"):
        model.free_energy_path(tr.thetas, tags, subsets)
    assert model.posteriors == 0


def test_path_names_the_first_row_without_a_point(small_dataset):
    # a trace's anchor tags with one point fewer than its rows
    _, subsets, tr = _fractional_run(small_dataset[0])
    model = PosteriorCallsModel(4, 3)
    last = len(tr.thetas) - 1
    with pytest.raises(ValueError, match=rf"^row {last}: no point in thetas"):
        model.free_energy_path(tr.thetas[:-1], tr.anchor_tags, subsets)
    assert model.posteriors == 0


def test_path_blocks_match_subset_definition(small_dataset, monkeypatch):
    """Blocks of 1, 2 and 3 rows, and the default, give every row and
    subset bitwise its per-subset definition, on a trace and on the rows
    of evaluate_F, whose last row takes the subsets back to earlier
    points."""
    samples = small_dataset[0]
    model, subsets, tr, tags = _finish_run(samples)
    mixed = [t for t, row in enumerate(tr.anchor_tags) if len(set(row)) > 2]
    assert mixed
    for per_block in (1, 2, 3, None):
        if per_block:
            monkeypatch.setattr(lmm, "BLOCK", per_block * len(samples))
        else:
            monkeypatch.undo()
        rows = model.free_energy_path(tr.thetas, tags, subsets)
        assert len(rows) == len(tr.thetas)
        for theta, row, terms in zip(tr.thetas, tags, rows):
            assert terms == [model.local_loglik(theta, subset)
                             - local_kl(model, theta, tr.thetas[t], subset)
                             for t, subset in zip(row, subsets)]
        for t in mixed:
            theta = tr.thetas[t]
            anchors = [tr.thetas[tag] for tag in tags[t]]
            expected = 0.0
            for anchor, subset in zip(anchors, subsets):
                expected += -local_kl(model, theta, anchor, subset) + model.local_loglik(
                    theta, subset)
            assert evaluate_F(theta, anchors, model, subsets) == expected


def test_path_memory_does_not_grow_with_rows(small_dataset):
    """The audit keeps no anchors per row: on a trace's rows repeated 4x
    over the same data its tracemalloc peak is within one block's array of
    its peak on the trace."""
    samples = small_dataset[0]
    model, subsets, tr, tags = _finish_run(samples)
    R = len(tags)
    thetas4 = tr.thetas * 4
    tags4 = [[t + c * R for t in row] for c in range(4) for row in tags]

    def peak(thetas, tags):
        tracemalloc.start()
        try:
            model.free_energy_path(thetas, tags, subsets)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one (rows, m, q, q) float array of a block, such as the posterior's A
    m, q = len(samples), model.q
    block = max(1, lmm.BLOCK // m) * m * q * q * 8
    assert R > lmm.BLOCK // m
    once, four = peak(tr.thetas, tags), peak(thetas4, tags4)
    assert abs(four - once) < block


def test_path_names_the_first_non_finite_term(monkeypatch):
    """A term that is not finite is named by its row and subset, the first
    in row order, whatever rows a block holds."""
    rng = np.random.default_rng(5)
    model = LmmModel(2, 2)
    theta = random_theta(rng, 2, 2)
    subsets = [[random_sample(rng, 2, 2) for _ in range(3)] for _ in range(3)]
    bad = subsets[1][2]
    nan_subsets = [subsets[0], subsets[1][:2] + [Sample(y=np.append(bad.y[:-1], np.nan),
                                                         X=bad.X, Z=bad.Z)], subsets[2]]
    # an error variance so small that the marginal density's quadratic
    # form overflows, at row 3 of 5 only; the first subset is empty
    tiny = Theta(theta.beta, theta.L, 1e-320)
    thetas = [random_theta(rng, 2, 2) for _ in range(3)] + [tiny, theta]
    rows = [[0, j, max(0, j - 1), j] for j in range(5)]
    m = sum(map(len, subsets))
    for per_block in (1, 2, 3, None):
        if per_block:
            monkeypatch.setattr(lmm, "BLOCK", per_block * m)
        else:
            monkeypatch.undo()
        with pytest.raises(NumericalDomainError, match=r"^row 0, subset 1: non-finite"):
            evaluate_F(theta, [theta] * 3, model, nan_subsets)
        with np.errstate(over="ignore"), pytest.raises(
                NumericalDomainError, match=r"^row 3, subset 1: non-finite"):
            model.free_energy_path(thetas, rows, [[]] + subsets)
