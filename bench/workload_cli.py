"""``cli``: the user's path through the command-line front end.

Each round runs the README's five commands twice (one run of each is a
few seconds, and its timing alone drifts too much) and the three data
commands once, one at a time, each as a fresh
``python -m marksurv`` process (in the traced run, through
``marksurv.cli.main`` in process so the spans see the calls).  Every
``--out`` lands in the run's temporary directory through MARKSURV_OUTDIR.

small  : the README's simulate, two fits and predict on builtin:gehan
         (tiny inputs, so the time is mostly interpreter start and import);
closed : the README's ``blocks`` command (harmonic, n up to 2048) and
         ``fit --family harmonic --method both`` on the generated data;
quad   : ``fit --family gamma --method both`` and ``predict`` (which fits
         harmonic and gamma again) on the generated data.

The generated data: 1500 records, 1000 failures on exactly 120 distinct
failure times (ties everywhere), 500 censorings on the same time grid.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import inputs
import reference as ref

N_RECORDS, N_FAILURES, N_DISTINCT = 1500, 1000, 120
DATA_GRID = "0:60:0.5"

# The five commands of the README's CLI section, as printed there.
README = [
    ("small", "simulate", ["simulate", "--family", "power", "--alpha", "0.9",
                           "-n", "200", "--seed", "7", "--out", "traj.csv"]),
    ("small", "fit", ["fit", "--data", "builtin:gehan", "--family",
                      "harmonic", "--method", "both", "--out", "fit.json"]),
    ("small", "baseline", ["fit", "--data", "builtin:gehan", "--family",
                           "exponential", "--out", "baseline.json"]),
    ("small", "predict", ["predict", "--data", "builtin:gehan", "--grid",
                          "0:35:0.5", "--out", "curves.csv"]),
    ("closed", "blocks", ["blocks", "--family", "harmonic", "--rho", "1",
                          "--nu", "1", "--n-list", "512,1024,2048", "--reps",
                          "500", "--seed", "7", "--out", "blocks.csv"]),
]

# The 6-MP arm of Gehan (1965), as published: weeks of remission, 0 marks
# a censored time.  The benchmark's own copy, for its reference values.
GEHAN = ([6, 6, 6, 6, 7, 9, 10, 10, 11, 13, 16, 17, 19, 20, 22, 23, 25, 32,
          32, 34, 35],
         [1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0])

# The CLI prints six significant digits; one unit in the sixth digit is
# 1e-5 relative at worst.
TOL_PRINTED = 2e-5


class State:
    pass


def setup(ctx):
    import marksurv  # noqa: F401  (import is part of the set-up cost)
    st = State()
    st.ctx = ctx
    times, status = inputs.censored_tied_records(
        inputs.rng_for(ctx.seed, inputs.STREAM_DATA), N_RECORDS, N_FAILURES,
        N_DISTINCT)
    st.data = (times, [bool(s) for s in status])
    st.data_path = str(ctx.tmpdir / "data.csv")
    with open(st.data_path, "w", encoding="utf-8") as fh:
        fh.write(inputs.records_csv(times, status))
    st.gehan = (GEHAN[0], [bool(s) for s in GEHAN[1]])
    st.commands = README + README + [
        ("closed", "data fit harmonic",
         ["fit", "--data", st.data_path, "--family", "harmonic", "--method",
          "both", "--out", "data_fit_harmonic.json"]),
        ("quad", "data fit gamma",
         ["fit", "--data", st.data_path, "--family", "gamma", "--method",
          "both", "--out", "data_fit_gamma.json"]),
        ("quad", "data predict",
         ["predict", "--data", st.data_path, "--grid", DATA_GRID, "--out",
          "data_curves.csv"]),
    ]
    if ctx.traced:
        os.environ["MARKSURV_OUTDIR"] = str(ctx.tmpdir)
    return st


def prepare(st):
    """References that do not depend on the program's answers."""
    st.power_ref = ref.exact_triangle("power", {"alpha": 0.9}, 200)
    st.power_mu, m2 = ref.block_count_moments(st.power_ref, 200)
    st.power_var = m2 - st.power_mu ** 2
    harm = ref.closed_rates("harmonic", {"rho": 1.0}, 2048)
    st.blocks_mu, m2 = ref.block_count_moments(harm, 2048)
    st.blocks_var = m2 - st.blocks_mu ** 2


# ---------------------------------------------------------------------------
# Running one command


class Result:
    def __init__(self, code, stdout, stderr, rss_kb):
        self.code, self.stdout, self.stderr, self.rss_kb = \
            code, stdout, stderr, rss_kb


def _run_child(st, argv) -> Result:
    ctx = st.ctx
    out_path = ctx.tmpdir / "stdout.txt"
    err_path = ctx.tmpdir / "stderr.txt"
    with open(out_path, "w") as so, open(err_path, "w") as se:
        proc = subprocess.Popen([sys.executable, "-m", "marksurv", *argv],
                                cwd=str(ctx.tmpdir), env=ctx.env,
                                stdout=so, stderr=se)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out_path.read_text(), err_path.read_text(),
                  usage.ru_maxrss)


def _run_inline(argv) -> Result:
    import marksurv.cli
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        code = marksurv.cli.main(list(argv))
    return Result(code, so.getvalue(), se.getvalue(), 0)


# ---------------------------------------------------------------------------
# Checks of the written files


def _read(st, name):
    with open(st.ctx.tmpdir / name, encoding="utf-8") as fh:
        return fh.read()


def _check_fit(chk, entry, family, data, method):
    times, status = data
    rho, nu = entry["rho"], entry["nu"]
    own = ref.censored_loglik(times, status, family, rho, nu)
    chk.close(entry["loglik"], own, TOL_PRINTED, f"{method} loglik")
    if method == "mle":
        best = max(ll for _, ll in entry["profile"])
        chk.true(entry["loglik"] >= best - TOL_PRINTED * abs(best),
                 f"mle loglik {entry['loglik']} below profile max {best}")
        lo, hi = entry["ci_log_rho_95"]
        log_rho = math.log(rho)
        chk.true(lo - 1e-5 <= log_rho <= hi + 1e-5,
                 f"95% interval [{lo}, {hi}] misses log rho {log_rho}")
    else:
        deaths = sum(1 for s in status if s)
        target = deaths / math.fsum(times)
        chk.close(nu * ref.unit_psi(family, rho, 1), target, TOL_PRINTED,
                  "moment equation nu psi(1) = deaths / risk time")


def _check_fit_file(st, name, family, data):
    def check(res, chk):
        chk.true(res.code == 0, f"exit {res.code}: {res.stderr[-300:]}")
        payload = json.loads(_read(st, name))
        for method in ("mle", "moment"):
            _check_fit(chk, payload[method], family, data, method)
        st.fits[name] = payload
    return check


def _check_baseline(st):
    def check(res, chk):
        chk.true(res.code == 0, f"exit {res.code}: {res.stderr[-300:]}")
        payload = json.loads(_read(st, "baseline.json"))
        rate, ll = ref.exponential_fit(*st.gehan)
        chk.close(payload["rate"], rate, TOL_PRINTED, "exponential rate")
        chk.close(payload["mean"], 1.0 / rate, TOL_PRINTED, "mean")
        chk.close(payload["loglik"], ll, TOL_PRINTED, "exponential loglik")
    return check


def _check_trajectory(st):
    def check(res, chk):
        chk.true(res.code == 0, f"exit {res.code}: {res.stderr[-300:]}")
        lines = _read(st, "traj.csv").strip().splitlines()
        chk.true(lines[0] == "time,n_failures,n_censored", "header")
        last, fails, events, k = 0.0, 0, 0, 0
        for ln in lines[1:]:
            t, d, c = ln.split(",")
            t, d, c = float(t), int(d), int(c)
            chk.true(t > last and d >= 1 and c == 0, f"bad row {ln!r}")
            last, fails, events, k = t, fails + d, events + 1, k + 1
        chk.true(fails == 200, f"{fails} failures out of 200")
        chk.true(f"n=200 events={events} distinct_failure_times={k}"
                 in res.stdout, "summary line disagrees with the file")
        chk.z(k, st.power_mu[200], st.power_var[200],
              "distinct failure times, power(0.9) n=200")
    return check


def _check_blocks(st):
    def check(res, chk):
        chk.true(res.code == 0, f"exit {res.code}: {res.stderr[-300:]}")
        lines = _read(st, "blocks.csv").strip().splitlines()
        chk.true(lines[0] == "n,mean_k,se,reps,expected_k,family,params",
                 "header")
        ns = []
        for ln in lines[1:]:
            n, mean_k, _se, reps, expected, family = ln.split(",")[:6]
            n, reps = int(n), int(reps)
            ns.append(n)
            chk.true(family == "harmonic" and reps == 500, f"row {ln!r}")
            chk.close(float(expected), st.blocks_mu[n], TOL_PRINTED,
                      f"expected_k at n={n}")
            chk.z(float(mean_k) * reps, st.blocks_mu[n] * reps,
                  st.blocks_var[n] * reps, f"mean_k at n={n}")
        chk.true(ns == [512, 1024, 2048], f"rows for n = {ns}")
    return check


def _close_curve(chk, got, own, what):
    """Compare a printed curve with a reference at fitted parameters that
    were themselves printed with six digits."""
    tol = 1e-4 * (1.0 + np.abs(np.log(own)))
    gap = np.abs(got - own) / own
    bad = np.flatnonzero(gap > tol)
    chk.true(bad.size == 0, f"{what} off by {gap.max():.3g}"
             + (f" at t index {bad[0]}" if bad.size else ""))


def _check_curves(st, name, data, harmonic_fit, gamma_fit):
    def check(res, chk):
        chk.true(res.code == 0, f"exit {res.code}: {res.stderr[-300:]}")
        lines = _read(st, name).strip().splitlines()
        chk.true(lines[0] == "t,S_harmonic,S_gamma,S_KM,S_exponential",
                 "header")
        cols = np.array([[float(x) for x in ln.split(",")]
                         for ln in lines[1:]])
        grid = cols[:, 0]
        times, status = data
        for j, label in enumerate(("harmonic", "gamma", "KM", "exponential"),
                                  start=1):
            curve = cols[:, j]
            chk.true(curve[0] == 1.0 and np.all(np.diff(curve) <= 0.0)
                     and np.all(curve >= 0.0),
                     f"S_{label} does not start at 1 and fall")
        km = ref.kaplan_meier(times, status, grid)
        gap = float(np.max(np.abs(cols[:, 3] - km)))
        chk.true(gap <= 5e-6, f"KM column off by {gap:.3g}")
        rate, _ = ref.exponential_fit(times, status)
        _close_curve(chk, cols[:, 4], np.exp(-rate * grid), "exponential")
        fit = st.fits.get(harmonic_fit)
        chk.true(fit is not None, f"no {harmonic_fit} to compare with")
        if fit is not None:
            mle = fit["mle"]
            _close_curve(chk, cols[:, 1], ref.harmonic_predictive(
                times, status, mle["rho"], mle["nu"], grid),
                "harmonic column vs the product formula")
        if gamma_fit is not None:
            fit = st.fits.get(gamma_fit)
            chk.true(fit is not None, f"no {gamma_fit} to compare with")
            if fit is not None:
                mle = fit["mle"]
                _close_curve(chk, cols[:, 2], ref.gamma_predictive(
                    times, status, mle["rho"], mle["nu"], grid),
                    "gamma column")
    return check


def _checks(st):
    return {
        "simulate": _check_trajectory(st),
        "fit": _check_fit_file(st, "fit.json", "harmonic", st.gehan),
        "baseline": _check_baseline(st),
        "predict": _check_curves(st, "curves.csv", st.gehan, "fit.json",
                                 None),
        "blocks": _check_blocks(st),
        "data fit harmonic": _check_fit_file(
            st, "data_fit_harmonic.json", "harmonic", st.data),
        "data fit gamma": _check_fit_file(st, "data_fit_gamma.json", "gamma",
                                          st.data),
        "data predict": _check_curves(st, "data_curves.csv", st.data,
                                      "data_fit_harmonic.json",
                                      "data_fit_gamma.json"),
    }


def run_round(st, k, rec):
    st.fits = {}
    checks = _checks(st)
    for cat, label, argv in st.commands:
        if st.ctx.traced:
            rec.op(cat, label, lambda: _run_inline(argv), checks[label])
        else:
            res = rec.op(cat, label, lambda: _run_child(st, argv),
                         checks[label])
            if res is not None:
                rec.child_rss_kb = max(rec.child_rss_kb, res.rss_kb)
