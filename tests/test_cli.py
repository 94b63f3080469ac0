import json
import os
import subprocess
import sys

import numpy as np
import pytest

import marksurv

from marksurv.cli import main
from marksurv.datasets import GEHAN_6MP, load_dataset, parse_dataset_text
from marksurv.process import trajectory_from_csv


def run(args):
    return main([str(a) for a in args])


def test_simulate_writes_trajectory_and_summary(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--family", "harmonic", "--rho", 1, "--nu", 1,
                "-n", 10, "--seed", 1, "--out", out])
    assert code == 0
    captured = capsys.readouterr().out
    assert "n=10" in captured
    traj = trajectory_from_csv(out.read_text())
    assert traj.n_initial == 10
    assert traj.n_deaths == 10


def test_simulate_single_particle(tmp_path, capsys):
    out = tmp_path / "one.csv"
    assert run(["simulate", "--family", "gamma", "-n", 1, "--seed", 2,
                "--out", out]) == 0
    traj = trajectory_from_csv(out.read_text())
    assert len(traj.events) == 1
    assert traj.events[0].n_failures == 1


def test_simulate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(["simulate", "--family", "power", "--alpha", 0.9,
                    "-n", 50, "--seed", 11, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_power_distinct_band(tmp_path, capsys):
    # The band holds with probability about 0.87 under the exact law (mean
    # 129.2 distinct times), so this seed only checks the command end to
    # end; test_process checks the law itself over many reps.
    out = tmp_path / "p.csv"
    assert run(["simulate", "--family", "power", "--alpha", 0.9,
                "-n", 200, "--seed", 4, "--out", out]) == 0
    traj = trajectory_from_csv(out.read_text())
    assert 90 <= traj.num_failure_times <= 200


def test_fit_gehan_builtin(tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert run(["fit", "--data", "builtin:gehan", "--family", "harmonic",
                "--method", "both", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["mle"]["rho"] == pytest.approx(21.45, abs=1.0)
    assert payload["mle"]["nu"] == pytest.approx(0.53, abs=0.02)
    assert payload["moment"]["rho"] == pytest.approx(19.73, abs=0.3)
    lo, hi = payload["mle"]["ci_log_rho_95"]
    assert lo == pytest.approx(1.3, abs=0.3)
    assert hi == pytest.approx(5.1, abs=0.3)


def test_fit_exponential_baseline(tmp_path, capsys):
    out = tmp_path / "exp.json"
    assert run(["fit", "--data", "builtin:gehan", "--family", "exponential",
                "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["rate"] == pytest.approx(9.0 / 359.0, rel=1e-4)


def test_fit_empty_dataset_exits_with_data_code(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("time,status\n")
    code = run(["fit", "--data", src, "--family", "harmonic",
                "--out", tmp_path / "x.json"])
    assert code == 3


def test_fit_missing_file_exits_with_data_code(tmp_path, capsys):
    code = run(["fit", "--data", tmp_path / "nope.csv",
                "--family", "harmonic", "--out", tmp_path / "x.json"])
    assert code == 3


@pytest.mark.parametrize("row", ["six,1", "inf,1", "1.0,2", "1.0,-1"],
                         ids=["non-numeric time", "infinite time",
                              "status 2", "status -1"])
def test_fit_bad_time_exits_with_data_code(tmp_path, capsys, row):
    src = tmp_path / "bad.csv"
    src.write_text(f"time,status\n1.0,1\n{row}\n")
    code = run(["fit", "--data", src, "--family", "harmonic",
                "--out", tmp_path / "x.json"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["fit", "predict"])
def test_overflowing_time_exits_with_data_code(tmp_path, capsys, command):
    src = tmp_path / "big.csv"
    src.write_text("time,status\n1.0,1\n2.0,0\n1e308,1\n")
    code = run([command, "--data", src, "--out", tmp_path / "x.out"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["moment", "both"])
def test_moment_fit_at_huge_times_exits_ok(tmp_path, capsys, method):
    # Rates and the moment target near 1e-300: the closed-form root reads
    # only their ratio, which the time scale does not move.
    src = tmp_path / "huge.csv"
    src.write_text("time,status\n1e300,1\n1e300,1\n2e300,1\n")
    for family in ("harmonic", "gamma"):
        code = run(["fit", "--data", src, "--family", family,
                    "--method", method, "--out", tmp_path / "fit.json"])
        assert code == 0
        assert "moment" in json.loads((tmp_path / "fit.json").read_text())


def test_fit_both_builds_the_trajectory_once(tmp_path, capsys, monkeypatch):
    from marksurv import inference
    builds = []
    build = inference.risk_trajectory

    def counted(data):
        builds.append(data)
        return build(data)

    monkeypatch.setattr(inference, "risk_trajectory", counted)
    src = tmp_path / "gehan.csv"
    src.write_text("time,status\n" + "".join(
        f"{t},{int(f)}\n" for t, f in zip(GEHAN_6MP.times, GEHAN_6MP.failed)))
    assert run(["fit", "--data", src, "--family", "gamma", "--method",
                "both", "--out", tmp_path / "fit.json"]) == 0
    assert len(builds) == 1


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "-n", 3, "--seed", -1, "--out", tmp_path / "t.csv"])
    assert exc.value.code == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--rho", "--nu"])
def test_fit_rejects_index_options(tmp_path, capsys, option):
    # fit estimates rho and nu; --fix-rho is the way to hold rho fixed
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--data", "builtin:gehan", option, 5,
             "--out", tmp_path / "fit.json"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("option", [["--method", "moment"],
                                    ["--family", "exponential"]],
                         ids=["moment", "exponential"])
def test_fix_rho_outside_an_mle_fit_is_a_usage_error(tmp_path, capsys,
                                                     option):
    code = run(["fit", "--data", "builtin:gehan", *option, "--fix-rho", 5,
                "--out", tmp_path / "fit.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --fix-rho") and err.count("\n") == 1
    assert not (tmp_path / "fit.json").exists()


def test_fixed_rho_fit_writes_standard_json(tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert run(["fit", "--data", "builtin:gehan", "--method", "both",
                "--fix-rho", 5, "--out", out]) == 0

    def reject(name):
        raise ValueError(f"{name} is not standard JSON")

    payload = json.loads(out.read_text(), parse_constant=reject)
    assert payload["mle"]["fixed_rho"] and payload["mle"]["rho"] == 5.0
    assert payload["mle"]["ci_log_rho_95"] == [None, None]
    # --method both fixes rho for the mle fit only
    assert not payload["moment"]["fixed_rho"]


def test_unwritable_output_exits_with_data_code(tmp_path, capsys):
    code = run(["simulate", "-n", 3, "--seed", 1,
                "--out", tmp_path / "missing" / "t.csv"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, callee", [
    (["simulate", "-n", 1_000_000_000_000, "--seed", 1], "simulate"),
    (["blocks", "--n-list", 1_000_000_000_000, "--reps", 2, "--seed", 1],
     "block_growth_probe"),
])
@pytest.mark.parametrize("message", [
    "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
    "and data type float64", ""])
def test_out_of_memory_exits_with_numeric_code(tmp_path, capsys, monkeypatch,
                                               argv, callee, message):
    # The callee raises MemoryError in place of attempting the allocation.
    from marksurv import cli, ranking

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli if callee == "simulate" else ranking, callee,
                        exhausted)
    assert run([*argv, "--out", tmp_path / "x.csv"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric error: out of memory")
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [["simulate", "-n", 65],
                                  ["blocks", "--n-list", "8,65", "--reps", 2]])
def test_risk_set_above_the_cap_exits_with_numeric_code(tmp_path, capsys,
                                                        monkeypatch, argv):
    from marksurv import index
    monkeypatch.setattr(index, "MAX_RISK_SET", 64)
    assert run([*argv, "--seed", 1, "--out", tmp_path / "x.csv"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric error: 65 at risk exceed 64")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_predict_curves(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert run(["predict", "--data", "builtin:gehan", "--grid", "0:40:1",
                "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,S_harmonic,S_gamma,S_KM,S_exponential"
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.all(rows[0, 1:] == 1.0)  # everything starts at one
    # the two process curves nearly coincide on the data
    assert np.abs(rows[:, 1] - rows[:, 2]).max() < 0.01
    # beyond the last event the product-limit curve is flat while the
    # process curves keep decaying
    tail = rows[rows[:, 0] > 35.0]
    assert np.all(tail[:, 3] == tail[0, 3])
    assert np.all(np.diff(tail[:, 1]) < 0.0)


def test_blocks_table(tmp_path, capsys):
    out = tmp_path / "blocks.csv"
    assert run(["blocks", "--family", "harmonic", "--rho", 1, "--nu", 1,
                "--n-list", "32,64", "--reps", 80, "--seed", 9,
                "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,mean_k,se,reps,expected_k,family,params"
    assert len(lines) == 3
    for ln in lines[1:]:
        parts = ln.split(",")
        mean_k, se, exact = float(parts[1]), float(parts[2]), float(parts[4])
        assert abs(mean_k - exact) < 4.0 * se


def test_blocks_leaves_expected_k_empty_above_the_cap(tmp_path, capsys,
                                                     monkeypatch):
    from marksurv import ranking
    asked = []
    exact = ranking.expected_blocks

    def spy(n, rule):
        asked.append(n)
        return exact(n, rule)

    monkeypatch.setattr(ranking, "MAX_EXACT_BLOCKS", 40)
    monkeypatch.setattr(ranking, "expected_blocks", spy)
    out = tmp_path / "blocks.csv"
    assert run(["blocks", "--n-list", "32,64", "--reps", 3, "--seed", 9,
                "--out", out]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert asked == [32]
    assert float(rows[0][4]) > 0.0 and rows[1][4] == ""
    assert [row[0] for row in rows] == ["32", "64"]


@pytest.mark.parametrize("argv, rate", [
    (["simulate", "-n", 5, "--family", "beta", "--rho", 1e300], "0.0"),
    (["blocks", "--n-list", 5, "--reps", 3, "--family", "beta",
      "--rho", 1e300], "0.0"),
    (["simulate", "-n", 5, "--nu", 1e308, "--rho", 0.001], "inf"),
], ids=["simulate", "blocks", "simulate-overflow"])
def test_total_rate_out_of_doubles_exits_with_numeric_code(tmp_path, capsys,
                                                           argv, rate):
    # BetaSplitIndex(rho=1e300, beta=0.5) has psi(m) = 0.0 in doubles; at
    # nu = 1e308 the harmonic total rate nu psi(5) overflows, and every
    # holding time would be 0.
    assert run([*argv, "--beta", 0.5, "--seed", 1,
                "--out", tmp_path / "x.csv"]) == 4
    err = capsys.readouterr().err
    assert err == f"numeric error: the total rate with 5 at risk is {rate} " \
                  "in doubles\n"


def test_blocks_at_huge_rho_warns_nothing(tmp_path, capsys):
    # RuntimeWarning is an error here, so an overflow in the rates fails.
    out = tmp_path / "blocks.csv"
    assert run(["blocks", "--family", "harmonic", "--rho", 1e308,
                "--n-list", 5, "--reps", 3, "--seed", 1, "--out", out]) == 0
    assert out.read_text().splitlines()[1].startswith("5,5,0,3,5,harmonic,")


def test_usage_error_on_bad_grid(tmp_path, capsys):
    code = run(["predict", "--data", "builtin:gehan", "--grid", "oops",
                "--out", tmp_path / "c.csv"])
    assert code == 2


@pytest.mark.parametrize("argv, named", [
    (["predict", "--data", "builtin:gehan", "--grid", "0:nan:0.5"], "grid"),
    (["predict", "--data", "builtin:gehan", "--grid", "0:inf:1"], "grid"),
    (["predict", "--data", "builtin:gehan", "--grid", "nan:1:0.1"], "grid"),
    (["predict", "--data", "builtin:gehan", "--grid", "0:1:inf"], "grid"),
    (["predict", "--data", "builtin:gehan", "--grid", "0:1e30:1"], "grid"),
    (["blocks", "--n-list", "5,x", "--seed", 1], "n list"),
    (["simulate", "--family", "gamma", "--rho", "inf", "-n", 3,
      "--seed", 1], "rho"),
    (["simulate", "--nu", "inf", "-n", 3, "--seed", 1], "nu"),
    (["simulate", "--family", "harmonic", "--rho", "inf", "-n", 3,
      "--seed", 1], "rho"),
], ids=["grid end nan", "grid end inf", "grid start nan", "grid step inf",
        "grid too long", "n list", "gamma rho inf", "nu inf",
        "harmonic rho inf"])
def test_non_finite_or_malformed_option_is_a_usage_error(tmp_path, capsys,
                                                         argv, named):
    code = run([*argv, "--out", tmp_path / "x.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1


def test_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MARKSURV_OUTDIR", str(tmp_path / "outputs"))
    assert run(["simulate", "--family", "linear", "-n", 3, "--seed", 4,
                "--out", "t.csv"]) == 0
    assert (tmp_path / "outputs" / "t.csv").exists()


def test_star_format_matches_builtin(tmp_path):
    text = ("6,6,6,6*, 7, 9*, 10, 10*, 11*, 13, 16, 17*, 19*, 20*, "
            "22, 23, 25*, 32*, 32*, 34*, 35*")
    parsed = parse_dataset_text(text)
    assert parsed.times == GEHAN_6MP.times
    assert parsed.failed == GEHAN_6MP.failed
    path = tmp_path / "gehan.txt"
    path.write_text(text)
    loaded = load_dataset(str(path))
    assert loaded.times == GEHAN_6MP.times


def test_csv_format_loader(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,status\n1.5,1\n2.5,0\n")
    d = load_dataset(str(path))
    assert d.times == (1.5, 2.5)
    assert d.failed == (True, False)


def test_import_leaves_out_scipy_stats():
    # scipy.stats alone about doubles the import time of every CLI command.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(marksurv.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, marksurv.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# The README's CLI commands (see README.md, CLI section); none loads scipy.
NO_SCIPY_COMMANDS = {
    "simulate power": ["simulate", "--family", "power", "--alpha", "0.9",
                       "-n", "200", "--seed", "7", "--out", "traj.csv"],
    "fit harmonic": ["fit", "--data", "builtin:gehan", "--family",
                     "harmonic", "--method", "both", "--out", "fit.json"],
    "fit exponential": ["fit", "--data", "builtin:gehan", "--family",
                        "exponential", "--out", "baseline.json"],
    "predict": ["predict", "--data", "builtin:gehan", "--grid", "0:35:0.5",
                "--out", "curves.csv"],
    "blocks": ["blocks", "--family", "harmonic", "--rho", "1", "--nu", "1",
               "--n-list", "512,1024,2048", "--reps", "500", "--seed", "7",
               "--out", "blocks.csv"],
}


@pytest.mark.parametrize("argv", [None, *NO_SCIPY_COMMANDS.values()],
                         ids=["import", *NO_SCIPY_COMMANDS])
def test_closed_form_commands_load_no_scipy(tmp_path, argv):
    # scipy is loaded only by paths that call into it (the scalar quadrature
    # fallback, the random-measure route); importing it costs more than the
    # work of any of these commands.
    env = dict(os.environ, MARKSURV_OUTDIR=str(tmp_path),
               PYTHONPATH=os.path.dirname(os.path.dirname(marksurv.__file__)))
    code = ("import sys, json, contextlib, io, marksurv.cli\n"
            "argv = json.loads(sys.argv[1])\n"
            "if argv is not None:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert marksurv.cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_beta_simulate_with_large_beta_exits_zero(tmp_path, monkeypatch):
    # Gamma(beta + 1) overflows from beta = 171; the total rate is taken in
    # logs instead.
    monkeypatch.setenv("MARKSURV_OUTDIR", str(tmp_path))
    assert main(["simulate", "--family", "beta", "--rho", "1", "--beta",
                 "500", "-n", "5", "--seed", "1", "--out", "t.csv"]) == 0
