"""The workloads' checks pass on marksurv's answers and fail when one of
those answers carries a planted 1e-6 relative error."""

import numpy as np
import pytest

import marksurv as ms
import reference as ref
import workload_exact
import workload_montecarlo
from harness import Checks, Round

PLANT = 1e-6


def _problems(check, out):
    chk = Checks()
    check(out, chk)
    return chk.problems


@pytest.fixture(scope="module")
def gamma12():
    return ref.exact_triangle("gamma", {"rho": 1.1}, 12)


def test_table_check(gamma12):
    make = lambda: ms.GammaIndex(nu=2.0, rho=1.1)  # noqa: E731
    out = workload_exact._table_with_diagnostics(ms, make, 12)
    check = workload_exact._check_table(gamma12, 12)
    assert _problems(check, out) == []
    table, norm, cons = out
    probs = table.probs.copy()
    probs[4, 5] *= 1.0 + PLANT
    bad = ms.SplittingTable(max_n=12, probs=probs)
    assert _problems(check, (bad, norm, cons))


def test_expected_blocks_check(gamma12):
    mu, _ = ref.block_count_moments(gamma12, 12)
    check = workload_exact._check_blocks(mu, (5, 12))
    got = [ms.expected_blocks(n, ms.GammaIndex(rho=1.1)) for n in (5, 12)]
    assert _problems(check, got) == []
    assert _problems(check, [got[0], got[1] * (1.0 + PLANT)])


def test_density_check():
    params = {"nu": 1.3, "rho": 0.9}
    idx = ms.HarmonicIndex(**params)
    fam = workload_montecarlo.Family(
        ref.closed_rates("harmonic", params, 41), params["nu"])
    traj = ms.simulate(40, idx, rng=np.random.default_rng(5))
    out = workload_montecarlo._densities(ms, [traj], idx)
    check = workload_montecarlo._check_density(fam, params)
    assert _problems(check, out) == []
    t, ll, grid, surv = out[0]
    assert _problems(check, [(t, ll * (1 + PLANT), grid, surv)])
    surv = surv.copy()
    surv[5] *= 1 + PLANT
    assert _problems(check, [(t, ll, grid, surv)])


def test_structure_check_catches_a_misplaced_censoring():
    plan = [0.001, float("inf"), 0.001, float("inf")]
    traj = ms.simulate(4, ms.HarmonicIndex(), ms.CensoringPlan(plan),
                       rng=np.random.default_rng(2))
    assert traj.events[0].n_censored == 2
    chk = Checks()
    workload_montecarlo.check_structure(chk, traj, 4, plan)
    assert chk.problems == []
    moved = [0.002] + plan[1:]
    workload_montecarlo.check_structure(chk, traj, 4, moved)
    assert chk.problems


def test_bands_and_round_accounting():
    chk = Checks()
    chk.z(100.0, 100.0 + 7.5, 1.0, "far")
    chk.z(100.0, 100.5, 1.0, "near")
    assert len(chk.problems) == 1
    # Two unit exponentials summing to 12 is a 9.9-sigma normal event but
    # happens with probability 8e-5: the exact Gamma band must accept it.
    chk = Checks()
    chk.gamma_sum(12.0, 2, "two draws")
    chk.gamma_sum(100.0, 200, "too small")
    assert len(chk.problems) == 1
    # One success in three trials at p = 0.01 is 5.6 sigma, not a failure.
    chk = Checks()
    chk.bernstein(1.0, 0.03, 3 * 0.01 * 0.99, 1.0, "rare")
    chk.bernstein(300.0, 500.0, 1000 * 0.25, 1.0, "off")
    assert len(chk.problems) == 1
    rec = Round()
    rec.op("small", "ok", lambda: 1, lambda out, c: c.true(out == 1, "x"))
    rec.op("small", "bad", lambda: 1, lambda out, c: c.true(out == 2, "x"))
    rec.op("quad", "raises", lambda: 1 / 0)
    assert (rec.attempted, rec.failed) == (3, 2)


def test_exact_indices_never_repeat_parameters():
    calls = workload_exact.CALLS_PER_ROUND
    seen = set()
    for k in range(3):
        params = workload_exact.Params(0, k)
        seen.update(params("power")["alpha"] for _ in range(calls))
        with pytest.raises(RuntimeError):
            params("power")
    assert len(seen) == 3 * calls
    assert workload_exact.BASE["power"]["alpha"] not in seen
