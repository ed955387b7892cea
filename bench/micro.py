"""Layer microbenchmarks on fixed inputs built from the workload seed.

Each returns microseconds per call: the median over repetitions of a
timed loop, so one slow repetition does not move the figure.
"""
from __future__ import annotations

import socket
import statistics
from time import perf_counter

import numpy as np

from demfit import LmmModel, Theta, aggregate_stats, partition
from demfit.ddsum import DDArray
from demfit.transport import KIND_ESTEP_REP, read_frame, write_frame

REPEATS = 5


def per_call_us(fn, calls):
    """Median over REPEATS of the mean time of `calls` back-to-back calls."""
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return 1e6 * statistics.median(times)


def run_all(samples, seed):
    """All layer microbenchmarks on one dataset; aggregation runs over the
    cache of a K=20 partition of it."""
    rng = np.random.default_rng(seed)
    p, q = samples[0].X.shape[1], samples[0].Z.shape[1]
    model = LmmModel(p, q)
    theta = Theta.default_start(p, q)
    subsets = partition(samples, 20, seed=seed)
    cache = {k: model.local_estep(theta, s, subset_id=k) for k, s in enumerate(subsets)}
    agg = aggregate_stats(cache, len(cache))
    size = agg.payload.pack().size  # stats-sized vector and wire payload
    n_acc = (size - 2) // 2
    x = rng.standard_normal(n_acc)
    acc, other = DDArray(n_acc), DDArray(n_acc)
    other.add(rng.standard_normal(n_acc))
    sample = samples[int(rng.integers(len(samples)))]
    payload = rng.standard_normal(size)
    a, b = socket.socketpair()
    try:
        def roundtrip():
            write_frame(a, KIND_ESTEP_REP, 0, 0, payload)
            read_frame(b)

        frame_us = per_call_us(roundtrip, 400)
    finally:
        a.close()
        b.close()
    return {
        "ddsum.add_us": per_call_us(lambda: acc.add(x), 4000),
        "ddsum.merge_us": per_call_us(lambda: acc.merge(other), 4000),
        "lmm.posterior_moments_us": per_call_us(
            lambda: model.posterior_moments(theta, sample), 400),
        "lmm.cm_steps_micro_us": per_call_us(lambda: model.cm_steps(agg, theta), 400),
        "model.aggregate_k20_us": per_call_us(
            lambda: aggregate_stats(cache, len(cache)), 200),
        "transport.frame_roundtrip_us": frame_us,
    }
