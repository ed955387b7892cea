"""In-memory span tracing around demfit's public layer boundaries.

Spans are recorded from the benchmark's side only: a ``LmmModel``
subclass times the model-contract methods, and ``instrumented`` swaps the
module-level names that ``runtime``, ``model`` and ``transport`` look up
at call time (``make_pool``, ``aggregate_stats``, ``evaluate_F``,
``write_frame``) for timing wrappers, restoring them afterwards.

The benchmark is a closed loop with one call in flight, so spans nest
strictly even when a ``SocketPool`` serving thread runs the model: the
manager thread is blocked inside the pool call while the worker thread
records its spans.  One stack of open spans therefore serves every thread;
a span that closes out of order marks the trace inconsistent.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import demfit.model as model_mod
import demfit.runtime as runtime_mod
import demfit.transport as transport_mod
from demfit.lmm import LmmModel

# u32 body length + u8 kind + u32 subset id + u64 iteration (see transport)
FRAME_HEADER_BYTES = 17

NAME, START, END, PARENT, OP, N = range(6)


class Tracer:
    """Spans as lists [name, start, end, parent index, op id, samples]."""

    def __init__(self):
        self.spans = []
        self.frames = []  # (op id, kind, bytes) for every frame written
        self.op = -1
        self.consistent = True
        self._open = []

    @contextmanager
    def span(self, name, n=0):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op, n]
        self.spans.append(rec)
        self._open.append(idx)
        rec[START] = perf_counter()
        try:
            yield
        finally:
            rec[END] = perf_counter()
            if not self._open or self._open.pop() != idx:
                self.consistent = False


class TracedLmmModel(LmmModel):
    """LmmModel whose contract and wire methods each record a span."""

    def __init__(self, p, q, tracer):
        super().__init__(p, q)
        self.tracer = tracer

    def local_estep(self, theta, subset, subset_id=0, anchor_tag=0):
        with self.tracer.span("lmm.estep", len(subset)):
            return super().local_estep(theta, subset, subset_id, anchor_tag)

    def local_loglik(self, theta, subset):
        with self.tracer.span("lmm.loglik", len(subset)):
            return super().local_loglik(theta, subset)

    def local_kl(self, theta_eval, theta_anchor, subset):
        with self.tracer.span("lmm.kl", len(subset)):
            return super().local_kl(theta_eval, theta_anchor, subset)

    def cm_steps(self, agg, theta_current):
        with self.tracer.span("lmm.cm_steps"):
            return super().cm_steps(agg, theta_current)

    def pack_theta(self, theta):
        with self.tracer.span("lmm.pack_theta"):
            return super().pack_theta(theta)

    def unpack_theta(self, arr):
        with self.tracer.span("lmm.unpack_theta"):
            return super().unpack_theta(arr)

    def pack_stats(self, stats):
        with self.tracer.span("lmm.pack_stats"):
            return super().pack_stats(stats)

    def unpack_stats(self, arr, subset_id, anchor_tag):
        with self.tracer.span("lmm.unpack_stats"):
            return super().unpack_stats(arr, subset_id, anchor_tag)


class TracedPool:
    """Times each worker RPC the manager issues through a transport pool."""

    def __init__(self, pool, tracer):
        self._pool = pool
        self._tracer = tracer

    @property
    def messages_sent(self):
        return self._pool.messages_sent

    def estep(self, k, theta, anchor_tag):
        with self._tracer.span("pool.estep"):
            return self._pool.estep(k, theta, anchor_tag)

    def loglik(self, k, theta):
        with self._tracer.span("pool.loglik"):
            return self._pool.loglik(k, theta)

    def close(self):
        with self._tracer.span("transport.pool_close"):
            self._pool.close()


@contextmanager
def instrumented(tracer):
    """Route the runtime's, model's and transport's global lookups through
    timing wrappers for the duration of the block."""
    make_pool = runtime_mod.make_pool
    aggregate_stats = runtime_mod.aggregate_stats
    evaluate_F = model_mod.evaluate_F
    write_frame = transport_mod.write_frame

    def traced_make_pool(transport, model, subsets):
        with tracer.span("transport.pool_setup"):
            return TracedPool(make_pool(transport, model, subsets), tracer)

    def traced_aggregate(cache, K=None):
        with tracer.span("model.aggregate"):
            return aggregate_stats(cache, K)

    def traced_evaluate_F(theta, anchors, model, subsets):
        with tracer.span("model.evaluate_F"):
            return evaluate_F(theta, anchors, model, subsets)

    def counted_write_frame(sock, kind, subset_id, iteration, payload):
        tracer.frames.append(
            (tracer.op, kind, FRAME_HEADER_BYTES + 8 * len(payload))
        )
        write_frame(sock, kind, subset_id, iteration, payload)

    runtime_mod.make_pool = traced_make_pool
    runtime_mod.aggregate_stats = traced_aggregate
    model_mod.evaluate_F = traced_evaluate_F
    transport_mod.write_frame = counted_write_frame
    try:
        yield
    finally:
        runtime_mod.make_pool = make_pool
        runtime_mod.aggregate_stats = aggregate_stats
        model_mod.evaluate_F = evaluate_F
        transport_mod.write_frame = write_frame


def self_times(spans):
    """Duration of each span minus the time its direct children cover.

    Children of one parent never overlap (one call in flight), so the
    covered time is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
