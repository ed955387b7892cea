"""Command-line entry point: simulate, fit, compare, diagnose, ingest.

A JSON config file (--config) may supply any flag by its destination name;
flags given on the command line win over the config file.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import datagen, diagnostics, movielens
from .lmm import LmmModel, Theta, information_matrices, speed_matrices
from .model import ProtocolError
from .runtime import (
    COMPLETION_POLICIES,
    ECME0_SETTINGS,
    TRANSPORTS,
    RunConfig,
    run_dem,
    run_ecme0,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dem", description="Distributed EM fitting for linear mixed models"
    )
    parser.add_argument("--config", help="JSON file of flag defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a simulated dataset")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--m", type=int, required=True, help="number of samples")
    p.add_argument("--n", type=int, required=True, help="total observations")
    p.add_argument("--p", type=int, default=10, help="fixed-effect columns")
    p.add_argument("--q", type=int, default=3, choices=(3, 6),
                   help="random-effect columns")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset path prefix")

    p = sub.add_parser("fit", help="fit the mixed model")
    p.set_defaults(run=cmd_fit)
    p.add_argument("--data", required=True, help="dataset path prefix")
    p.add_argument("--algo", choices=("ecme0", "iem", "dem"), default="dem")
    p.add_argument("--gamma", type=float, default=None,
                   help="fresh fraction gating each M step (dem only; default 1)")
    p.add_argument("--K", type=int, default=1, help="number of worker subsets")
    p.add_argument("--tol", type=float, default=RunConfig.tol)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transport", choices=TRANSPORTS, default="in_process")
    p.add_argument("--completion", choices=COMPLETION_POLICIES, default="restart")
    p.add_argument("--exact-loglik-check", action="store_true")
    p.add_argument("--forced-split", action="store_true")
    p.add_argument("--allow-maxiter", action="store_true",
                   help="exit 0 even if max_iter was hit")
    p.add_argument("--out", required=True, help="output path prefix")

    p = sub.add_parser("compare", help="compare fit outputs against the first")
    p.set_defaults(run=cmd_compare)
    p.add_argument("runs", nargs="+", help="fit output prefixes; first is reference")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("diagnose", help="information/speed-matrix report")
    p.set_defaults(run=cmd_diagnose)
    p.add_argument("--data", required=True, help="dataset path prefix")
    p.add_argument("--theta", required=True, help="fit output .theta.json")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="partition seed")
    p.add_argument("--split", required=True,
                   help="comma-separated subset ids of the fresh block")
    p.add_argument("--out", required=True, help="JSON report path")

    p = sub.add_parser("ingest", help="build per-user samples from ratings")
    p.set_defaults(run=cmd_ingest)
    p.add_argument("--ratings", help="delimited ratings file")
    p.add_argument("--ratings-dat", help='"::"-separated ratings file')
    p.add_argument("--movies-dat", help='"::"-separated movies file')
    p.add_argument("--out", required=True, help="dataset path prefix")

    return parser, sub


def cmd_simulate(args) -> int:
    design = datagen.SimDesign(m=args.m, n=args.n, p=args.p, q=args.q, seed=args.seed)
    samples, truth = datagen.simulate(design)
    datagen.save_dataset(args.out, samples, meta={"seed": args.seed}, truth=truth)
    print(f"wrote {len(samples)} samples / {sum(s.n_obs for s in samples)} "
          f"observations to {args.out}.npz")
    return 0


def cmd_fit(args) -> int:
    samples, meta = datagen.load_dataset(args.data)
    p = int(meta.get("p", samples[0].X.shape[1]))
    q = int(meta.get("q", samples[0].Z.shape[1]))
    model = LmmModel(p, q)
    theta0 = Theta.default_start(p, q)

    if args.algo == "ecme0":
        # ecme0 reads none of these flags: --gamma, which has no default,
        # must not be given, and every other must keep the value ecme0 runs with
        bad = ["gamma"] if args.gamma is not None else []
        bad += [dest for dest, value in ECME0_SETTINGS.items()
                if dest != "gamma" and getattr(args, dest) != value]
        if bad:
            flags = ", ".join("--" + dest.replace("_", "-") for dest in bad)
            raise SystemExit(f"--algo ecme0 is incompatible with {flags}")
        config = RunConfig(K=1, tol=args.tol, max_iter=args.max_iter)
        theta, trace = run_ecme0(config, model, samples, theta0)
    else:
        gamma = args.gamma
        if args.algo == "iem":
            if gamma is not None:
                raise SystemExit("--gamma is incompatible with --algo iem "
                                 "(it is fixed at 1/K)")
            gamma = 1.0 / args.K
        elif gamma is None:
            gamma = 1.0
        config = RunConfig(
            K=args.K,
            gamma=gamma,
            tol=args.tol,
            max_iter=args.max_iter,
            seed=args.seed,
            transport=args.transport,
            completion=args.completion,
            exact_loglik_check=args.exact_loglik_check,
            forced_split=args.forced_split,
        )
        subsets = datagen.partition(samples, args.K, seed=args.seed)
        theta, trace = run_dem(config, model, subsets, theta0)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{out}.theta.json", "w") as fh:
        json.dump(diagnostics.theta_to_json(theta), fh, indent=1)
    diagnostics.write_trace_json(f"{out}.trace.json", trace)
    status = "converged" if trace.converged else "hit max_iter"
    print(f"{args.algo}: {status} after {trace.n_iterations} iterations, "
          f"log likelihood {trace.final_loglik:.6f}")
    if trace.hit_max_iter and not args.allow_maxiter:
        return 1
    return 0


def cmd_compare(args) -> int:
    if len(args.runs) < 2:
        raise SystemExit("compare needs at least two run prefixes")

    def load_run(prefix):
        with open(f"{prefix}.theta.json") as fh:
            theta = diagnostics.theta_from_json(json.load(fh))
        raw = diagnostics.load_trace_json(f"{prefix}.trace.json")
        return theta, raw

    theta_ref, trace_ref = load_run(args.runs[0])
    rows = []
    for prefix in args.runs[1:]:
        theta, trace = load_run(prefix)
        err = diagnostics.compute_err(theta, theta_ref, reference=args.runs[0])
        row = {"run": prefix, **err.as_dict()}
        row["loglik_ratio"] = trace["final_loglik"] / trace_ref["final_loglik"]
        row["iter_ratio"] = trace["n_iterations"] / max(trace_ref["n_iterations"], 1)
        row["time_ratio"] = (
            sum(trace["wall_times"]) / max(sum(trace_ref["wall_times"]), 1e-12)
        )
        row["hit_max_iter"] = trace["hit_max_iter"]
        rows.append(row)
    diagnostics.write_metrics_csv(args.out, rows)
    print(f"wrote {len(rows)} comparison rows to {args.out}")
    return 0


def cmd_diagnose(args) -> int:
    samples, meta = datagen.load_dataset(args.data)
    with open(args.theta) as fh:
        theta = diagnostics.theta_from_json(json.load(fh))
    model = LmmModel(theta.p, theta.q)
    subsets = datagen.partition(samples, args.K, seed=args.seed)
    split = [int(tok) for tok in args.split.split(",") if tok.strip()]
    info = information_matrices(model, theta, subsets, split)
    speed = speed_matrices(info)
    report = {
        "grad_norm": info.grad_norm,
        "newton_decrement": info.newton_decrement,
        "warnings": info.warnings + speed.warnings,
        "identity_residual": speed.identity_residual,
        "lam_min_S_EM": speed.lam_min_S_EM,
        "lower_bound": speed.lower_bound,
        "upper_bound": speed.upper_bound,
        "eigen_bounds_ok": speed.eigen_bounds_ok,
        "pencil_lam_min_S_EM": speed.pencil_lam_min_S_EM,
        "pencil_lower_bound": speed.pencil_lower_bound,
        "pencil_upper_bound": speed.pencil_upper_bound,
        "pencil_bounds_ok": speed.pencil_bounds_ok,
        "S_EM": speed.S_EM.tolist(),
        "S_DEM": speed.S_DEM.tolist(),
        "C": speed.C.tolist(),
        "O": speed.O.tolist(),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    verdict = {True: "ok", False: "FAILED"}
    # nan bounds: the eigenvalue form does not apply, and a warning says why
    pencil = ("not applicable" if np.isnan(speed.pencil_lower_bound)
              else verdict[speed.pencil_bounds_ok])
    print(f"identity residual {speed.identity_residual:.3e}, "
          f"singular-value bounds {verdict[speed.eigen_bounds_ok]}: "
          f"{speed.lower_bound:.4f} <= {speed.lam_min_S_EM:.4f} <= {speed.upper_bound:.4f}, "
          f"eigenvalue bounds {pencil}: "
          f"{speed.pencil_lower_bound:.4f} <= {speed.pencil_lam_min_S_EM:.4f} "
          f"<= {speed.pencil_upper_bound:.4f}")
    for note in info.warnings + speed.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return 0


def cmd_ingest(args) -> int:
    if args.ratings_dat:
        if not args.movies_dat:
            raise SystemExit("--ratings-dat requires --movies-dat")
        records = list(movielens.read_dat(args.ratings_dat, args.movies_dat))
    elif args.ratings:
        records = movielens.read_ratings_file(args.ratings)
    else:
        raise SystemExit("ingest needs --ratings or --ratings-dat/--movies-dat")
    if not records:
        raise ValueError(f"{args.ratings_dat or args.ratings}: no ratings")
    by_user = movielens.build_movielens_features(records)
    samples = [by_user[uid] for uid in sorted(by_user)]
    datagen.save_dataset(args.out, samples, meta={"source": "ratings"})
    print(f"wrote {len(samples)} user samples / {len(records)} ratings to "
          f"{args.out}.npz")
    return 0


def _set_config_defaults(sub, command: str, path) -> None:
    """Make the JSON object in the file at path the defaults of sub, each
    value read as the same flag on the command line would be."""
    with open(path) as fh:
        try:
            defaults = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(defaults, dict):
        raise ValueError(f"config {path} is not a JSON object")
    actions = {a.dest: a for a in sub._actions}
    bad = set(defaults) - set(actions)
    if bad:
        raise SystemExit(f"config keys not recognized for {command}: {sorted(bad)}")
    for key, value in defaults.items():
        action = actions[key]
        try:
            if action.nargs != 0:
                value = (action.type or str)(str(value))
            elif not isinstance(value, bool):
                raise ValueError("a switch takes true or false")
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"choose from {list(action.choices)}")
        except ValueError as exc:
            raise ValueError(f"config {path}: {key}={defaults[key]!r}: {exc}") from exc
        defaults[key] = value
    sub.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _set_config_defaults(sub.choices[args.command], args.command, args.config)
            args = parser.parse_args(argv)  # explicit flags override config defaults
        return args.run(args)
    except (ValueError, OSError, np.linalg.LinAlgError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
