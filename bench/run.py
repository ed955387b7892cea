#!/usr/bin/env python3
"""demfit benchmark: closed-loop fit and audit workloads.

    python3 bench/run.py --workload fit_async --seed 0 --seconds 15 --trace 0

One caller in one process runs one operation at a time and waits for it
(a closed loop with a single client).  An operation is one ``run_dem`` fit
from ``theta0`` to convergence on a fresh ``LmmModel``, then the
``check_monotone_F`` audit of its trace, then the correctness checks.

The seed generates several datasets; each goes through ``save_dataset`` to
a temporary ``.npz``/``.json`` pair, and the program sees only what
``load_dataset`` and ``partition`` give back.  Rounds over all datasets
repeat until ``--seconds`` have passed, and at least twice, so every
dataset is fitted at least twice and every operation has a same-seed
partner to compare its final theta with.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds on the same datasets and reports the per-layer
metrics, the tracing overhead and the layer microbenchmarks.  The last
line of standard output is the JSON result; a fuller record, with the
spans of a traced run, goes to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import faulthandler
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

P, Q = 10, 3
OBS_PER_SAMPLE = 8  # n = 8 m, the canonical design's ratio
SETUP_REPEATS = 25
WATCHDOG_S = 170  # a hung socket RPC ends the run instead of blocking it


@dataclass(frozen=True)
class Workload:
    m: int
    K: int
    gamma: float
    transport: str
    exact_loglik_check: bool
    datasets: int
    # One RPC is ever in flight on the socket workload, so one CPU loses no
    # parallelism; on two shared cores the cross-CPU wake-ups of the serving
    # threads made its fit times swing by 1.5x within a run.
    one_cpu: bool = False


WORKLOADS = {
    "fit_async": Workload(
        m=100, K=10, gamma=0.5, transport="in_process", exact_loglik_check=False,
        datasets=8),
    "sync_socket": Workload(
        m=100, K=20, gamma=1.0, transport="socket", exact_loglik_check=True,
        datasets=8, one_cpu=True),
    "audit_fractional": Workload(
        m=50, K=20, gamma=0.3, transport="in_process", exact_loglik_check=False,
        datasets=12),
}


@dataclass
class Dataset:
    seed: int
    samples: list
    subsets: list
    roundtrip_ok: bool
    load_s: list
    partition_s: list
    ref_trace: object = None
    ecme0_s: float = math.nan


@dataclass
class Op:
    op_id: int
    dataset: int
    traced: bool
    fit_s: float = math.nan  # wall seconds
    audit_s: float = math.nan
    fit_factor: float = math.nan  # wall -> reference-host seconds
    audit_factor: float = math.nan
    iterations: int = 0
    wall_ms: list = field(default_factory=list)
    samples_estepped: int = 0
    useful_esteps: int = 0
    messages_sent: int = 0
    theta_key: bytes = b""
    checks: dict = field(default_factory=dict)
    error: str = ""

    @property
    def failed(self):
        return bool(self.error) or not all(self.checks.values())


def theta_key(theta):
    return theta.beta.tobytes() + theta.L.tobytes() + repr(theta.tau2).encode()


def make_datasets(wl, seed, workdir):
    from demfit import SimDesign, partition, simulate
    from demfit.datagen import load_dataset, save_dataset

    out = []
    for j in range(wl.datasets):
        ds_seed = 1000 * seed + j
        generated, truth = simulate(
            SimDesign(m=wl.m, n=OBS_PER_SAMPLE * wl.m, p=P, q=Q, seed=ds_seed))
        prefix = Path(workdir) / f"data{j}"
        save_dataset(prefix, generated, meta={"seed": ds_seed}, truth=truth)
        load_s, partition_s = [], []
        c0 = hostspeed.kernel()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            samples, _ = load_dataset(prefix)
            t1 = perf_counter()
            subsets = partition(samples, wl.K, seed=ds_seed)
            t2 = perf_counter()
            load_s.append(t1 - t0)
            partition_s.append(t2 - t1)
        f = hostspeed.factor(c0, hostspeed.kernel())
        load_s = [f * t for t in load_s]
        partition_s = [f * t for t in partition_s]
        roundtrip_ok = len(samples) == len(generated) and all(
            (a.y == b.y).all() and (a.X == b.X).all() and (a.Z == b.Z).all()
            for a, b in zip(samples, generated))
        out.append(Dataset(ds_seed, samples, subsets, roundtrip_ok, load_s, partition_s))
    return out


def fit_reference(ds):
    """Single-process ecme0 on the same samples: the correctness reference
    and the runtime.ecme0_fit_s baseline."""
    from demfit import LmmModel, RunConfig, Theta, run_ecme0

    t0 = perf_counter()
    _, ds.ref_trace = run_ecme0(
        RunConfig(K=1), LmmModel(P, Q), ds.samples, Theta.default_start(P, Q))
    ds.ecme0_s = perf_counter() - t0


def run_op(op, wl, ds, tracer):
    from demfit import LmmModel, RunConfig, Theta, check_monotone_F, run_dem

    from tracing import TracedLmmModel

    # a fresh model per operation: its moment cache is keyed on id(subset)
    # and theta, so a reused model would turn later audits into cache hits
    model = TracedLmmModel(P, Q, tracer) if tracer else LmmModel(P, Q)
    config = RunConfig(K=wl.K, gamma=wl.gamma, seed=ds.seed, transport=wl.transport,
                       exact_loglik_check=wl.exact_loglik_check)
    theta0 = Theta.default_start(P, Q)
    if tracer:
        tracer.op = op.op_id
    span = tracer.span if tracer else (lambda name: nullcontext())
    c0 = hostspeed.kernel()
    t0 = perf_counter()
    with span("fit"):
        theta, trace = run_dem(config, model, ds.subsets, theta0)
    t1 = perf_counter()
    c1 = hostspeed.kernel()
    t2 = perf_counter()
    with span("audit"):
        violations = check_monotone_F(trace, model, ds.subsets)
    t3 = perf_counter()
    c2 = hostspeed.kernel()

    op.fit_s, op.audit_s = t1 - t0, t3 - t2
    op.fit_factor, op.audit_factor = hostspeed.factor(c0, c1), hostspeed.factor(c1, c2)
    op.iterations = trace.n_iterations
    op.wall_ms = [1e3 * w for w in trace.wall_times[1:]]
    sizes = [len(s) for s in ds.subsets]
    # the seeding round E-steps every subset; iteration 1 reuses it, and
    # every later accept set is one fresh E step per accepted worker
    fresh = sum(sizes[k] for acc in trace.accept_sets[1:] for k in acc)
    op.samples_estepped = sum(sizes) + fresh
    op.useful_esteps = len(sizes) + sum(len(acc) for acc in trace.accept_sets[1:])
    op.messages_sent = trace.messages_sent
    op.theta_key = theta_key(theta)

    op.checks["converged"] = bool(trace.converged)
    if wl.gamma == 1.0:
        # ecme0 tests the stopping rule one iteration later than the exact
        # loglik check does, so the run is a bitwise prefix of the reference
        ref = ds.ref_trace.thetas
        op.checks["reference"] = len(ref) - 1 <= len(trace.thetas) <= len(ref) and all(
            theta_key(a) == theta_key(b) for a, b in zip(trace.thetas, ref))
    else:
        op.checks["reference"] = abs(trace.final_loglik / ds.ref_trace.final_loglik - 1) < 1e-4
    op.checks["monotone_F"] = not violations
    op.checks["dataset_roundtrip"] = ds.roundtrip_ok
    if tracer:
        op.checks["trace_consistent"] = tracer.consistent


def run_loop(wl, datasets, seconds, trace_mode):
    from tracing import Tracer, instrumented

    tracer = Tracer() if trace_mode else None
    ops = []
    start = perf_counter()
    # round-robin over the datasets, stopping at any operation boundary once
    # the time is up and every dataset has been fitted twice
    while len(ops) < 2 * len(datasets) or perf_counter() - start < seconds:
        j = len(ops) % len(datasets)
        traced = trace_mode and len(ops) // len(datasets) % 2 == 1
        op = Op(op_id=len(ops), dataset=j, traced=traced)
        ops.append(op)
        try:
            if traced:
                with instrumented(tracer):
                    run_op(op, wl, datasets[j], tracer)
            else:
                run_op(op, wl, datasets[j], None)
        except Exception as exc:  # an op that raises is a counted failure
            op.error = f"{type(exc).__name__}: {exc}"
    # every op is compared with the first op on the same dataset
    for j in range(len(datasets)):
        same = [op for op in ops if op.dataset == j and not op.error]
        first = same[0].theta_key if same else None
        for op in same:
            op.checks["same_seed_theta"] = len(same) >= 2 and op.theta_key == first
    if tracer:
        check_counts(tracer, ops)
    return ops, tracer, perf_counter() - start


def check_counts(tracer, ops):
    """Traced operations: the samples the model E-stepped must equal the
    count derived from the trace, and on sockets the frames written must
    equal the RPC messages the pool reports."""
    from demfit.transport import KIND_SHUTDOWN

    from tracing import NAME, N, OP

    estepped, rpc_frames = defaultdict(int), defaultdict(int)
    for s in tracer.spans:
        if s[NAME] == "lmm.estep":
            estepped[s[OP]] += s[N]
    for op_id, kind, _ in tracer.frames:
        if kind != KIND_SHUTDOWN:
            rpc_frames[op_id] += 1
    for op in ops:
        if op.traced and not op.error:
            op.checks["estep_count"] = estepped[op.op_id] == op.samples_estepped
            if tracer.frames:
                op.checks["frames_match_messages"] = rpc_frames[op.op_id] == op.messages_sent


# -- metrics -------------------------------------------------------------------


def fit_ref_s_by_dataset(ops):
    """Mean reference-host fit seconds of each dataset's operations."""
    by = defaultdict(list)
    for op in ops:
        by[op.dataset].append(op.fit_s * op.fit_factor)
    return {j: statistics.mean(v) for j, v in by.items()}


def end_to_end(ops, datasets):
    good = [op for op in ops if not op.error]
    fit = [op.fit_s * op.fit_factor for op in good]
    wall = [w * op.fit_factor for op in good for w in op.wall_ms]
    setup = [a + b for ds in datasets for a, b in zip(ds.load_s, ds.partition_s)]
    return {
        "fit_s": (statistics.median(fit), "s", len(good)),
        "iter_ms.p50": (statistics.median(wall), "ms", len(wall)),
        "iter_ms.p90": (statistics.quantiles(wall, n=10)[8], "ms", len(wall)),
        "samples_per_s": (sum(op.samples_estepped for op in good) / sum(fit), "1/s",
                          len(good)),
        "audit_s": (statistics.median(op.audit_s * op.audit_factor for op in good), "s",
                    len(good)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1),
    }


def per_layer(tracer, ops, datasets, micro):
    from tracing import END, NAME, N, OP, PARENT, START, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    traced = [op for op in ops if op.traced and not op.error]
    plain = [op for op in ops if not op.traced and not op.error]
    traced_ids = {op.op_id for op in traced}
    fits = len(traced)
    iters = sum(op.iterations for op in traced)

    root = []
    for i, s in enumerate(spans):
        root.append(i if s[PARENT] < 0 else root[s[PARENT]])
    by = defaultdict(list)  # (phase, name) -> span indices
    for i, s in enumerate(spans):
        if s[OP] in traced_ids:
            by[spans[root[i]][NAME], s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(phase, name):
        return sum(dur(i) for i in by[phase, name])

    def per_call_us(phase, name):
        idx = by[phase, name]
        return 1e6 * total(phase, name) / len(idx) if idx else 0.0

    def per_sample_us(phase, name):
        n = sum(spans[i][N] for i in by[phase, name])
        return 1e6 * total(phase, name) / n if n else 0.0

    def self_total(phase, *names):
        return sum(selfs[i] for name in names for i in by[phase, name])

    rpc = by["fit", "pool.estep"] + by["fit", "pool.loglik"]
    model_in_rpc = defaultdict(float)
    for name in ("lmm.estep", "lmm.loglik"):
        for i in by["fit", name]:
            model_in_rpc[spans[i][PARENT]] += dur(i)
    frames = [f for f in tracer.frames if f[0] in traced_ids]
    fit_total = total("fit", "fit")
    audit_total = total("audit", "audit")
    # tracing overhead on the same datasets, traced minus untraced
    plain_fit, traced_fit = fit_ref_s_by_dataset(plain), fit_ref_s_by_dataset(traced)
    both = [j for j in traced_fit if j in plain_fit]
    overhead = statistics.median(traced_fit[j] - plain_fit[j] for j in both)
    plain_fit = statistics.median(plain_fit[j] for j in both)
    pack_names = ("lmm.pack_theta", "lmm.unpack_theta", "lmm.pack_stats", "lmm.unpack_stats")
    transport_names = ("pool.estep", "pool.loglik", "transport.pool_setup",
                       "transport.pool_close")

    values = {
        "lmm.estep_us_per_sample": (per_sample_us("fit", "lmm.estep"), "us"),
        "lmm.estep_calls": (len(by["fit", "lmm.estep"]) / fits, "count"),
        "lmm.loglik_us_per_sample": (per_sample_us("fit", "lmm.loglik"), "us"),
        "lmm.kl_us_per_sample": (per_sample_us("audit", "lmm.kl"), "us"),
        "lmm.cm_steps_us": (per_call_us("fit", "lmm.cm_steps"), "us"),
        **{f"{name}_us": (per_call_us("fit", name), "us") for name in pack_names},
        "model.aggregate_us": (per_call_us("fit", "model.aggregate"), "us"),
        "model.aggregate_calls": (len(by["fit", "model.aggregate"]) / fits, "count"),
        "model.evaluate_F_ms": (1e-3 * per_call_us("audit", "model.evaluate_F"), "ms"),
        "runtime.iterations": (iters / fits, "count"),
        "runtime.manager_self_ms_per_iter": (1e3 * self_total("fit", "fit") / iters, "ms"),
        "runtime.estep_useful_ratio": (
            sum(op.useful_esteps for op in traced) / len(by["fit", "lmm.estep"]), "ratio"),
        "runtime.ecme0_fit_s": (statistics.median(ds.ecme0_s for ds in datasets), "s"),
        "transport.messages_per_iter": (len(frames) / iters, "count"),
        "transport.bytes_per_iter": (sum(f[2] for f in frames) / iters, "B"),
        "transport.rpc_overhead_us": (
            1e6 * sum(dur(i) - model_in_rpc[i] for i in rpc) / len(rpc), "us"),
        "transport.pool_setup_ms": (1e-3 * per_call_us("fit", "transport.pool_setup"), "ms"),
        "datagen.load_s": (statistics.median(t for ds in datasets for t in ds.load_s), "s"),
        "datagen.partition_s": (
            statistics.median(t for ds in datasets for t in ds.partition_s), "s"),
        "fit_share.lmm.estep": (self_total("fit", "lmm.estep") / fit_total, "ratio"),
        "fit_share.lmm.loglik": (self_total("fit", "lmm.loglik") / fit_total, "ratio"),
        "fit_share.lmm.cm_steps": (self_total("fit", "lmm.cm_steps") / fit_total, "ratio"),
        "fit_share.lmm.pack": (self_total("fit", *pack_names) / fit_total, "ratio"),
        "fit_share.model.aggregate": (self_total("fit", "model.aggregate") / fit_total, "ratio"),
        "fit_share.runtime.manager": (self_total("fit", "fit") / fit_total, "ratio"),
        "fit_share.transport": (self_total("fit", *transport_names) / fit_total, "ratio"),
        "audit_share.lmm.kl": (self_total("audit", "lmm.kl") / audit_total, "ratio"),
        "audit_share.lmm.loglik": (self_total("audit", "lmm.loglik") / audit_total, "ratio"),
        "audit_share.model.evaluate_F": (
            self_total("audit", "model.evaluate_F") / audit_total, "ratio"),
        "audit_share.model.check_monotone_F": (
            self_total("audit", "audit") / audit_total, "ratio"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / plain_fit, "ratio"),
        "trace.spans_per_op": (sum(len(v) for v in by.values()) / fits, "count"),
        **{name: (value, "us") for name, value in micro.items()},
    }
    return values


# -- run metadata ----------------------------------------------------------------


def git_sha():
    """HEAD of the checkout's own repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# -- entry point -------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import demfit
    except ImportError as exc:
        print(f"error: cannot import demfit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT not in Path(demfit.__file__).resolve().parents:
        print(f"error: demfit was imported from {demfit.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    if wl.one_cpu:  # before any thread starts, so every thread inherits it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="data-") as workdir:
        t0 = perf_counter()
        datasets = make_datasets(wl, args.seed, workdir)
        for ds in datasets:
            fit_reference(ds)
        prep_s = perf_counter() - t0
    ops, tracer, loop_s = run_loop(wl, datasets, args.seconds, bool(args.trace))

    failed = sum(op.failed for op in ops)
    if all(op.error for op in ops):
        print(f"error: every operation raised, e.g. {ops[0].error}", file=sys.stderr)
        return 1
    e2e = end_to_end([op for op in ops if not op.traced], datasets)
    if args.trace:
        import micro

        layer = per_layer(tracer, ops, datasets, micro.run_all(datasets[0].samples,
                                                               datasets[0].seed))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}

    print(f"workload {args.workload}: {wl}")
    print(f"closed loop, 1 client: {len(ops)} operations on {len(datasets)} datasets "
          f"in {loop_s:.1f} s (+{prep_s:.1f} s data and ecme0 references)")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<40} {value:12.6g} {unit:<6} n={n}")
    print(f"  {'error_rate':<40} {failed / len(ops):12.6g} ratio  "
          f"({failed} of {len(ops)} operations)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:12.6g} {m['unit']}")
        print("  (transport.* message and byte counts are computed from frame "
              "lengths, not captured on the wire)")
    for op in ops:
        if op.failed:
            bad = [k for k, ok in op.checks.items() if not ok]
            print(f"  FAILED op {op.op_id} dataset {op.dataset}: {op.error or bad}")

    record = {
        "workload": args.workload,
        "params": {**wl.__dict__, "n": OBS_PER_SAMPLE * wl.m, "p": P, "q": Q},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": {name: n for name, (_, _, n) in e2e.items()},
        "end_to_end": {name: v for name, (v, _, _) in e2e.items()},
        "error_rate": failed / len(ops),
        "metrics": metrics,
        "ops": [{"op": op.op_id, "dataset": op.dataset, "traced": op.traced,
                 "fit_s": op.fit_s, "audit_s": op.audit_s, "fit_factor": op.fit_factor,
                 "audit_factor": op.audit_factor, "iterations": op.iterations,
                 "wall_ms": op.wall_ms, "samples": op.samples_estepped,
                 "checks": op.checks, "error": op.error} for op in ops],
    }
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["tracing_overhead_s"] = metrics["trace.overhead_s"]["value"]
        stem.with_suffix(".spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "samples"],
             "spans": tracer.spans}))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
