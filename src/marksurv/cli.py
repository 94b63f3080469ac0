"""Command-line front end.

Four subcommands: ``simulate`` writes a trajectory CSV, ``fit`` estimates
(rho, nu) on a dataset, ``predict`` emits survivor curves for plotting, and
``blocks`` tabulates Monte Carlo and exact block-count statistics.  Every
stochastic command requires an explicit seed so runs are reproducible; all
numeric output is printed with six significant digits.  Exit codes: 0
success, 2 usage, 3 data (including unreadable input and unwritable
output), 4 numeric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import ranking
from .datasets import DataError, load_dataset
from .index import (FAMILIES, NumericError, ParameterError, ResourceError,
                    index_from_spec)
from .inference import (FITTED_FAMILIES, empirical_bayes_curve,
                        fit_exponential, fit_mle, fit_moment, kaplan_meier,
                        profile_interval)
from .process import simulate, trajectory_to_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

OUTDIR_ENV = "MARKSURV_OUTDIR"


def _fmt(x) -> str:
    return f"{x:.6g}"


# Index parameters simulate and blocks take as options, with their defaults;
# a family is offered where they cover all of its parameters.
_INDEX_OPTIONS = {"rho": 1.0, "nu": 1.0, "alpha": 0.5, "beta": 0.5}


def _index_from_args(args) -> object:
    return index_from_spec(args.family, **{
        f.name: getattr(args, f.name) for f in fields(FAMILIES[args.family])})


def _write(path: str, text: str) -> str:
    """Write the text to the path, taken under $MARKSURV_OUTDIR when that is
    set and the path is relative; return the path written."""
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return seed


# Most points a prediction grid may have.
_MAX_GRID_POINTS = 1_000_000


def _parse_grid(spec: str) -> np.ndarray:
    try:
        a, b, step = (float(p) for p in spec.split(":"))
    except ValueError as exc:
        raise ParameterError(f"grid must be a:b:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
        raise ParameterError(f"grid needs finite a <= b, step > 0: {spec!r}")
    stop = b + 0.5 * step
    # np.arange(a, stop, step) has ceil((stop - a) / step) points.
    if not (stop - a) / step <= _MAX_GRID_POINTS:
        raise ParameterError(f"grid {spec!r} exceeds {_MAX_GRID_POINTS} "
                             "points or the float range")
    return np.arange(a, stop, step)


def cmd_simulate(args) -> int:
    index = _index_from_args(args)
    rng = np.random.default_rng(args.seed)
    traj = simulate(args.n, index, rng=rng)
    path = _write(args.out, trajectory_to_csv(traj))
    print(f"n={traj.n_initial} events={len(traj.events)} "
          f"distinct_failure_times={traj.num_failure_times}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    data = load_dataset(args.data)
    if args.family == "exponential":
        base = fit_exponential(data)
        payload = {"family": "exponential", "rate": base.rate,
                   "mean": base.mean, "loglik": base.loglik}
    else:
        payload = {}
        methods = ("mle", "moment") if args.method == "both" else (args.method,)
        for method in methods:
            if method == "mle":
                fit = fit_mle(data, args.family, fix_rho=args.fix_rho)
                lo, hi = (math.nan, math.nan) if fit.fixed_rho else \
                    profile_interval(fit, 0.95)
                entry = fit.to_dict()
                entry["ci_log_rho_95"] = [lo, hi]
            else:
                fit = fit_moment(data, args.family)
                entry = fit.to_dict()
            payload[method] = entry
    path = _write(args.out, json.dumps(_round_floats(payload), indent=2) + "\n")
    _print_fit_summary(payload)
    print(f"wrote {path}")
    return EXIT_OK


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _print_fit_summary(payload: dict) -> None:
    if "rate" in payload:
        print(f"exponential rate={_fmt(payload['rate'])} "
              f"mean={_fmt(payload['mean'])}")
        return
    for method, entry in payload.items():
        print(f"{method}: rho={_fmt(entry['rho'])} nu={_fmt(entry['nu'])} "
              f"loglik={_fmt(entry['loglik'])}")


def cmd_predict(args) -> int:
    data = load_dataset(args.data)
    grid = _parse_grid(args.grid)
    km = kaplan_meier(data)
    expo = fit_exponential(data)
    curves = {}
    for family in ("harmonic", "gamma"):
        fit = fit_mle(data, family, fix_rho=args.fix_rho)
        curve = empirical_bayes_curve(data, fit, grid)
        curves[family] = curve.survival
    lines = ["t,S_harmonic,S_gamma,S_KM,S_exponential"]
    km_vals = km(grid)
    for i, t in enumerate(grid):
        lines.append(",".join([
            _fmt(t),
            _fmt(curves["harmonic"][i]),
            _fmt(curves["gamma"][i]),
            _fmt(km_vals[i]),
            _fmt(math.exp(-expo.rate * t)),
        ]))
    path = _write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_blocks(args) -> int:
    index = _index_from_args(args)
    rng = np.random.default_rng(args.seed)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok]
    except ValueError as exc:
        raise ParameterError(
            f"n list must be integers, got {args.n_list!r}") from exc
    if not n_list:
        raise ParameterError("empty n list")
    rows = ranking.block_growth_probe(index, n_list, args.reps, rng)
    path = _write(args.out, ranking.block_growth_csv(rows, index))
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marksurv",
        description="Exchangeable Markov survival processes: simulate, fit, "
                    "predict, and probe block statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", default="harmonic", choices=[
            name for name, cls in FAMILIES.items()
            if all(f.name in _INDEX_OPTIONS for f in fields(cls))])
        for name, default in _INDEX_OPTIONS.items():
            p.add_argument(f"--{name}", type=float, default=default)

    p = sub.add_parser("simulate", help="simulate one trajectory")
    add_family(p)
    p.add_argument("-n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate (rho, nu) from data")
    p.add_argument("--family", default="harmonic",
                   choices=[*FITTED_FAMILIES, "exponential"])
    p.add_argument("--data", required=True,
                   help="CSV/token file path or builtin:gehan")
    p.add_argument("--method", default="mle",
                   choices=["mle", "moment", "both"])
    p.add_argument("--fix-rho", type=float, default=None, dest="fix_rho")
    p.add_argument("--out", default="fit.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="survivor curves on a grid")
    p.add_argument("--data", required=True)
    p.add_argument("--grid", default="0:35:0.5", help="a:b:step")
    p.add_argument("--fix-rho", type=float, default=None, dest="fix_rho")
    p.add_argument("--out", default="curves.csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("blocks", help="block-count statistics")
    add_family(p)
    p.add_argument("--n-list", required=True, dest="n_list",
                   help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", default="blocks.csv")
    p.set_defaults(func=cmd_blocks)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ResourceError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
