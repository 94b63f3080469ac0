#!/usr/bin/env python3
"""marksurv benchmark.

    python3 bench/run.py --workload {exact,montecarlo,cli} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports marksurv from its
``src/`` directory.  Whole rounds of the workload's operations run until
``--seconds`` have passed; each operation's output is checked against the
benchmark's own reference computations (bench/reference.py).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end figures (per class of
operations, the sum of each operation's median time over the run's rounds;
for ``setup_s``, the median of several fresh set-ups); with
``--trace 1`` the calls into each marksurv module are wrapped and the
metrics are per-layer figures per round.  See bench/README.md.
"""

from __future__ import annotations

import os

# One process, no worker threads: keep numerical libraries single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import CATEGORIES, Round  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3

WORKLOADS = ("exact", "montecarlo", "cli")


class Context:
    """What a workload needs to know about the run."""

    def __init__(self, seed: int, traced: bool, tmpdir: Path):
        self.seed = seed
        self.traced = traced
        self.tmpdir = tmpdir
        self.env = child_env(tmpdir)


def child_env(tmpdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["MARKSURV_OUTDIR"] = str(tmpdir)
    return env


def load_workload(name: str):
    import importlib
    return importlib.import_module(f"workload_{name}")


def timed_children(argv, count: int, env) -> list:
    """Wall time of ``count`` fresh interpreters running argv, one at a time."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=str(ROOT),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def class_medians(rounds) -> dict:
    """Per class, the sum over its operations of each operation's median
    time over the rounds.  Every round runs the same operations in the same
    order; a median per operation drops a slow spell that hits different
    operations in different rounds, which a median of round sums keeps."""
    out = dict.fromkeys(CATEGORIES, 0.0)
    for ops in zip(*(r.op_times for r in rounds)):
        out[ops[0][0]] += statistics.median(t for _, t in ops)
    return out


def summary_line(name, values, unit):
    """Median with sample count; the highest percentile with at least ten
    samples beyond it is added once there are 40 samples or more."""
    med = statistics.median(values)
    lo, hi = quartiles(values)
    line = (f"# {name}: median {med:.6g} {unit} over {len(values)} "
            f"(quartiles {lo:.6g} .. {hi:.6g}; all: "
            + " ".join(f"{v:.4g}" for v in values) + ")")
    if len(values) >= 40:
        pct = 100.0 * (1.0 - 10.0 / len(values))
        cut = statistics.quantiles(values, n=1000)[int(pct * 10) - 1]
        line += f", p{pct:.1f} {cut:.6g}"
    print(line)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "marksurv" / "__init__.py").is_file():
        print(f"error: no marksurv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run(args, tmpdir: Path) -> int:
    ctx = Context(args.seed, bool(args.trace), tmpdir)
    workload = load_workload(args.workload)
    if args.setup_only:
        workload.setup(ctx)
        return 0

    import marksurv
    if Path(marksurv.__file__).resolve().parent != (SRC / "marksurv").resolve():
        print(f"error: marksurv imported from {marksurv.__file__}",
              file=sys.stderr)
        return 2

    py = sys.executable
    setup_samples = []
    import_s = 0.0
    if args.trace:
        import_s = statistics.median(timed_children(
            [py, "-c", "import marksurv"], IMPORT_SAMPLES, ctx.env))
    else:
        setup_samples = timed_children(
            [py, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            SETUP_SAMPLES, ctx.env)

    state = workload.setup(ctx)
    workload.prepare(state)

    tracer = Tracer()
    if args.trace:
        tracer.install()

    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        rec = Round()
        workload.run_round(state, len(rounds), rec)
        rounds.append(rec)
        if time.perf_counter() >= deadline:
            break

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for c in CATEGORIES:
        summary_line(f"{c}_s per round", [r.total(c) for r in rounds], "s")
    summary_line("round total", [sum(r.total(c) for c in CATEGORIES)
                                 for r in rounds], "s")

    if args.trace:
        layer = per_layer_metrics(tracer, len(rounds), import_s)
        metrics = {k: {"value": float(v), "unit": u}
                   for k, (v, u) in layer.items()}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "rounds": len(rounds),
             "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                       for k, v in sorted(tracer.stats.items())},
             "rate_calls_by_parent": {str(k): v for k, v in
                                      tracer.rate_parents.items()}},
            indent=1) + "\n")
    else:
        summary_line("setup_s", setup_samples, "s")
        if args.workload == "cli":
            rss_kb = max(r.child_rss_kb for r in rounds)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        for c, v in class_medians(rounds).items():
            metrics[f"{c}_s"] = {"value": v, "unit": "s"}
    print(f"# rounds {len(rounds)}, operations {attempted}, failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
