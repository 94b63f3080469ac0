import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from marksurv import index as index_mod
from marksurv import process
from marksurv.index import (BetaSplitIndex, GammaIndex, GeometricIndex,
                            HarmonicIndex, LinearIndex, LinearShiftIndex,
                            NumericError, ParameterError, PowerIndex,
                            ResourceError)
from marksurv.process import (CensoringPlan, Event, RiskSetTrajectory,
                              TimeTransform, log_density,
                              log_density_semimarkov, predictive_survival,
                              residual_trajectory, sample_next, simulate,
                              simulate_batch, simulate_seeded,
                              trajectory_from_csv, trajectory_to_csv,
                              transform_times)
from marksurv.ranking import (_block_sweep, expected_blocks,
                              first_block_distribution)

H11 = HarmonicIndex(1.0, 1.0)


def make_rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# trajectory mechanics


def test_event_validation():
    with pytest.raises(ParameterError):
        Event(0.0, 1, 0)
    with pytest.raises(ParameterError):
        Event(1.0, 0, 0)
    with pytest.raises(ParameterError):
        Event(1.0, 2, 0, failed=(1,))


def test_trajectory_validation():
    with pytest.raises(ParameterError):
        RiskSetTrajectory(2, (Event(2.0, 1, 0), Event(1.0, 1, 0)))
    with pytest.raises(ParameterError):
        RiskSetTrajectory(1, (Event(1.0, 2, 0),))
    traj = RiskSetTrajectory(3, (Event(1.0, 1, 1), Event(2.0, 1, 0)))
    assert traj.n_deaths == 2 and traj.n_censored == 1
    assert traj.num_failure_times == 2
    assert traj.final_risk_size == 0
    assert traj.risk_size(1.0) == 2  # failure gone, censored-at-1 still in
    assert traj.risk_size(1.5) == 1


def test_trajectory_csv_round_trip():
    traj = RiskSetTrajectory(4, (Event(0.123456789123456789, 2, 0),
                                 Event(2.0 / 3.0, 1, 1)))
    back = trajectory_from_csv(trajectory_to_csv(traj))
    assert back.n_initial == 4
    for a, b in zip(traj.events, back.events):
        assert a.time == b.time
        assert a.n_failures == b.n_failures
        assert a.n_censored == b.n_censored


# ---------------------------------------------------------------------------
# simulation laws


def test_single_particle_marginal_is_exponential():
    rng = make_rng(10)
    for index in (H11, GammaIndex(1.0, 1.0), GeometricIndex(0.5)):
        draws = np.array([simulate(1, index, rng=rng).events[0].time
                          for _ in range(10000)])
        p = stats.kstest(draws, "expon",
                         args=(0, 1.0 / index.total_rate(1))).pvalue
        assert p > 0.01, index.describe()


def test_tie_probability_two_particles():
    rng = make_rng(11)
    reps = 20000
    ties = sum(simulate(2, H11, rng=rng).events[0].n_failures == 2
               for _ in range(reps))
    se = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / reps)
    assert abs(ties / reps - 1.0 / 3.0) < 3.0 * se


def test_zero_censoring_time_removes_particle():
    rng = make_rng(12)
    reps = 20000
    plan = CensoringPlan((0.0, math.inf, math.inf))
    k_a = np.zeros(3)
    k_b = np.zeros(3)
    for _ in range(reps):
        t1 = simulate(3, H11, plan=plan, rng=rng)
        assert t1.n_initial == 2
        k_a[t1.num_failure_times] += 1
        t2 = simulate(2, H11, rng=rng)
        k_b[t2.num_failure_times] += 1
    # compare distributions of the distinct-failure count (1 or 2)
    chi2 = ((k_a[1:] - k_b[1:]) ** 2 / (k_a[1:] + k_b[1:])).sum()
    assert stats.chi2.sf(chi2, 1) > 0.001


def test_censoring_plan_produces_censored_events():
    rng = make_rng(13)
    plan = CensoringPlan((0.5, 1.5, math.inf, math.inf))
    traj = simulate(4, H11, plan=plan, rng=rng)
    assert traj.n_initial == 4
    assert traj.n_deaths + traj.n_censored == 4
    for e in traj.events:
        if e.n_censored:
            assert e.time in (0.5, 1.5)


def test_censoring_plan_rejects_negative_or_nan_times():
    for times in ((math.nan, 1.0, math.inf), (-1.0, math.inf)):
        with pytest.raises(ParameterError):
            CensoringPlan(times)


def test_censored_law_matches_the_process_on_the_smaller_risk_set():
    # Individual 0 is censored at 0.4.  No failure comes before 0.4 with
    # probability exp(-psi(3) 0.4); then the two left run as the process on
    # two: an Exp(psi(2)) holding time and a first block drawn from the row
    # for 2, where psi(3) = 11/6, psi(2) = 3/2 and P(d = 1) = 2/3 for H11.
    assert first_block_distribution(2, H11)[1] == pytest.approx(2.0 / 3.0)
    psi3, psi2, p1 = 11.0 / 6.0, 1.5, 2.0 / 3.0
    rng = make_rng(22)
    reps = 4000
    plan = CensoringPlan((0.4, math.inf, math.inf))
    holds, singles = [], 0
    for _ in range(reps):
        traj = simulate(3, H11, plan, rng=rng)
        first = traj.events[0]
        if first.n_failures:
            assert first.time < 0.4
            continue
        assert (first.time, first.censored) == (0.4, (0,))
        holds.append(traj.events[1].time - 0.4)
        singles += traj.events[1].n_failures == 1
    quiet = len(holds)
    p = math.exp(-psi3 * 0.4)
    assert abs(quiet - reps * p) < 4.0 * math.sqrt(reps * p * (1.0 - p))
    assert stats.kstest(holds, "expon", args=(0.0, 1.0 / psi2)).pvalue > 1e-3
    assert abs(singles - quiet * p1) < 4.0 * math.sqrt(quiet * p1 * (1 - p1))


def test_deletion_consistency():
    # dropping one particle from a five-particle run must reproduce the
    # four-particle law of the distinct-failure count
    rng = make_rng(14)
    reps = 20000
    k5 = np.zeros(5)
    k4 = np.zeros(5)
    for _ in range(reps):
        t5 = simulate(5, H11, rng=rng)
        k = sum(1 for e in t5.events
                if e.n_failures - (4 in e.failed) > 0)
        k5[k] += 1
        k4[simulate(4, H11, rng=rng).num_failure_times] += 1
    obs = np.stack([k5[1:], k4[1:]])
    tot = obs.sum(axis=0)
    keep = tot > 0
    exp0 = tot[keep] * obs[0].sum() / obs.sum()
    exp1 = tot[keep] * obs[1].sum() / obs.sum()
    chi2 = (((obs[0][keep] - exp0) ** 2) / exp0).sum() \
        + (((obs[1][keep] - exp1) ** 2) / exp1).sum()
    assert stats.chi2.sf(chi2, keep.sum() - 1) > 0.001


def test_batch_columns_describe_whole_trajectories():
    rng = make_rng(16)
    batch = simulate_batch(30, GammaIndex(1.0, 1.0), 200, rng)
    assert batch.n == 30 and batch.reps == 200
    assert np.all(np.diff(batch.rep) >= 0)
    same_rep = np.diff(batch.rep) == 0
    assert np.all(np.diff(batch.time)[same_rep] > 0.0)
    assert np.array_equal(np.bincount(batch.rep, weights=batch.size),
                          np.full(200, 30.0))
    assert batch.num_blocks.sum() == len(batch.rep)


def test_power_distinct_count_mean_matches_exact():
    # The law behind the CLI's power(0.9) band: whatever the seed, the mean
    # distinct count lies within 5 standard errors of the exact 129.2 but
    # for a chance near 6e-7.
    reps = 20000
    counts = simulate_batch(200, PowerIndex(0.9), reps,
                            make_rng(21)).num_blocks
    se = counts.std(ddof=1) / math.sqrt(reps)
    exact = expected_blocks(200, PowerIndex(0.9))
    assert exact == pytest.approx(129.2, abs=0.05)
    assert abs(counts.mean() - exact) < 5.0 * se


@pytest.mark.parametrize("index", [H11, GammaIndex(1.0, 2.0),
                                   LinearShiftIndex(1.0)],
                         ids=lambda ix: ix.describe())
def test_one_rep_matches_the_sweep(index):
    # One rep runs on plain numbers; it must take the sweep's steps and
    # draws bit for bit.
    for n in (1, 2, 7, 40):
        batch = simulate_batch(n, index, 1, make_rng(17))
        rng = make_rng(17)
        t, times, sizes = 0.0, [], []
        for m, at, d in _block_sweep(index, n, 1, rng):
            t += rng.standard_exponential(at.size)[0] / index.total_rate(m)
            times.append(t)
            sizes.append(int(d[0]))
        assert batch.time.tolist() == times
        assert batch.size.tolist() == sizes


def counting_rates(monkeypatch, cls):
    """Record every rate asked of ``cls``: each scalar call, and each entry
    of an array call."""
    calls = []
    for name in ("log_unit_block_rate", "unit_block_rate"):
        orig = getattr(cls, name)

        def counted(self, r, d, _orig=orig):
            calls.append((r, d))
            return _orig(self, r, d)

        monkeypatch.setattr(cls, name, counted)
    rates = cls._log_rates

    def counted_array(self, r, d):
        calls.extend(zip(r.tolist(), d.tolist()))
        return rates(self, r, d)

    monkeypatch.setattr(cls, "_log_rates", counted_array)
    return calls


def test_second_simulate_on_warm_index_evaluates_no_rate(monkeypatch):
    calls = counting_rates(monkeypatch, GammaIndex)
    index = GammaIndex(1.0, 1.0)
    plan = CensoringPlan((0.3,) * 10 + (math.inf,) * 30)
    simulate(40, index, rng=make_rng(18))
    simulate(40, index, plan, rng=make_rng(18))
    assert calls
    calls.clear()
    simulate(40, index, rng=make_rng(19))
    simulate(40, index, plan, rng=make_rng(19))
    simulate_batch(40, index, 50, make_rng(19))
    assert calls == []


@pytest.mark.parametrize("cls, params, n, seed", [
    (PowerIndex, dict(alpha=0.9), 200, 7),  # the README's simulate command
    (GammaIndex, dict(nu=1.0, rho=2.0), 300, 11),
], ids=["power", "gamma"])
def test_array_diagonal_draws_the_entrywise_stream(monkeypatch, cls, params,
                                                   n, seed):
    # The array rule and per-entry quadrature differ in rounding only,
    # which moves no draw of these streams.
    def entrywise(self, r, d):
        return np.array([self._log_rate_quad(a, b)
                         for a, b in zip(r.tolist(), d.tolist())])

    fast = simulate(n, cls(**params), rng=make_rng(seed))
    monkeypatch.setattr(cls, "_log_rates", entrywise)
    slow = simulate(n, cls(**params), rng=make_rng(seed))
    assert fast == slow


@pytest.mark.parametrize("make_index", [
    lambda: GammaIndex(1.0, 1.0), lambda: PowerIndex(0.7),
    lambda: HarmonicIndex(1.0, 2.0), lambda: HarmonicIndex(1.0, 150.0),
    lambda: BetaSplitIndex(1.0, -0.5),
], ids=["gamma", "power", "harmonic", "harmonic-stirling", "beta"])
def test_seeded_output_same_with_cold_or_warm_memo(make_index):
    # The warm index has also served a larger n, whose separable terms
    # then serve n = 25 as well.
    plan = CensoringPlan((0.2, 0.5) * 5 + (math.inf,) * 15)
    cold, warm = make_index(), make_index()
    for n in (25, 40):
        simulate(n, warm, rng=make_rng(1))
    simulate(25, warm, plan, rng=make_rng(1))
    runs = {}
    for index in (cold, warm):
        runs[index is warm] = (simulate(25, index, rng=make_rng(20)),
                               simulate(25, index, plan, rng=make_rng(20)),
                               simulate_batch(25, index, 30, make_rng(20)))
    assert runs[True][:2] == runs[False][:2]
    for col in ("rep", "time", "size"):
        assert np.array_equal(getattr(runs[True][2], col),
                              getattr(runs[False][2], col))


# ---------------------------------------------------------------------------
# density


def test_log_density_single_particle():
    traj = RiskSetTrajectory(1, (Event(2.0, 1, 0),))
    assert log_density(traj, H11) == pytest.approx(
        math.log(1.0) - 1.0 * 2.0, rel=1e-14)


def test_log_density_tied_pair():
    t = 1.5
    traj = RiskSetTrajectory(2, (Event(t, 2, 0),))
    assert log_density(traj, H11) == pytest.approx(
        math.log(0.5) - 1.5 * t, rel=1e-14)


def test_log_density_impossible_structure():
    traj = RiskSetTrajectory(2, (Event(1.0, 2, 0),))
    assert log_density(traj, LinearIndex()) == -math.inf


def test_log_density_censoring_enters_integral_only():
    with_c = RiskSetTrajectory(3, (Event(1.0, 0, 1), Event(2.0, 2, 0)))
    base = RiskSetTrajectory(2, (Event(2.0, 2, 0),))
    got = log_density(with_c, H11)
    # same product term; the integral swaps zeta(2) for zeta(3) on (0, 1]
    expect = (log_density(base, H11)
              + H11.total_rate(2) - H11.total_rate(3))
    assert got == pytest.approx(expect, rel=1e-12)


def _long_history(seed):
    """A trajectory of 48 events, most of them failure blocks (some tied),
    the rest censorings, with censorings also sharing failure times."""
    rng = make_rng(seed)
    sizes = rng.choice([0, 1, 1, 2, 3], size=48)
    censored = np.where(sizes == 0, 1, rng.choice([0, 0, 1], size=48))
    times = np.cumsum(rng.exponential(0.05, size=48))
    return RiskSetTrajectory(int(sizes.sum() + censored.sum() + 5), tuple(
        Event(float(t), int(d), int(c))
        for t, d, c in zip(times, sizes, censored)))


def _count_array_calls(monkeypatch, index):
    """Record the length of each ``_log_rates`` call on arrays of block
    sizes (the beta family also calls it on scalars for single rates)."""
    calls = []
    cls = type(index)
    rates = cls._log_rates

    def counted(self, r, d):
        if isinstance(d, np.ndarray):
            calls.append(len(d))
        return rates(self, r, d)

    monkeypatch.setattr(cls, "_log_rates", counted)
    return calls


def _per_event_log_density(traj, index):
    expect, alive, t_prev = 0.0, traj.n_initial, 0.0
    for e in traj.events:
        expect -= index.total_rate(alive) * (e.time - t_prev)
        if e.n_failures:
            expect += math.log(index.block_rate(alive - e.n_failures,
                                                e.n_failures))
        alive -= e.n_failures + e.n_censored
        t_prev = e.time
    return expect


LONG = [HarmonicIndex(1.3, 2.0), GammaIndex(0.7, 3.0), PowerIndex(0.6),
        BetaSplitIndex(2.0, 0.5), GeometricIndex(0.4)]


@pytest.mark.parametrize("events", [48, 12, 1])
@pytest.mark.parametrize("index", LONG, ids=lambda ix: ix.describe())
def test_density_takes_rates_from_one_call(index, events, monkeypatch):
    full = _long_history(31)
    traj = RiskSetTrajectory(full.n_initial, full.events[:events])
    assert traj.num_failure_times > 0
    expect = _per_event_log_density(traj, index)
    calls = _count_array_calls(monkeypatch, index)
    assert log_density(traj, index) == pytest.approx(expect, rel=1e-12)
    assert calls == [traj.num_failure_times]


@pytest.mark.parametrize("index", LONG, ids=lambda ix: ix.describe())
def test_predictive_takes_rates_from_one_call(index, monkeypatch):
    full = _long_history(41)
    calls = _count_array_calls(monkeypatch, index)
    for hist in (full, RiskSetTrajectory(full.n_initial, full.events[:3])):
        # log survival just after each event, and the hazard that follows
        knots, log_s, haz = [0.0], [0.0], [index.block_rate(hist.n_initial, 1)]
        alive = hist.n_initial
        for e in hist.events:
            step = log_s[-1] - haz[-1] * (e.time - knots[-1])
            if e.n_failures:
                r = alive - e.n_failures
                step += math.log(index.block_rate(r + 1, e.n_failures)
                                 / index.block_rate(r, e.n_failures))
            alive -= e.n_failures + e.n_censored
            knots.append(e.time)
            log_s.append(step)
            haz.append(index.block_rate(alive, 1))
        grid = np.linspace(0.0, 1.5 * hist.last_time, 97)
        at = np.searchsorted(knots, grid, side="right") - 1
        expect = [math.exp(log_s[i] - haz[i] * (t - knots[i]))
                  for i, t in zip(at, grid)]
        calls.clear()
        np.testing.assert_allclose(predictive_survival(grid, hist, index),
                                   expect, rtol=1e-11)
        assert calls == [2 * hist.num_failure_times + len(hist.events) + 1]


def test_density_integrates_to_one_two_particles():
    # structure {1,2} tied at t, plus {i}|{j} split at t1 < t2, summed and
    # integrated via quadrature of the density itself
    def tie_density(t):
        return math.exp(log_density(
            RiskSetTrajectory(2, (Event(t, 2, 0),)), H11))

    def split_density(t2, t1):
        if t2 <= t1:
            return 0.0
        return math.exp(log_density(
            RiskSetTrajectory(2, (Event(t1, 1, 0), Event(t2, 1, 0))), H11))

    p_tie, _ = integrate.quad(tie_density, 0, np.inf)
    p_split, _ = integrate.dblquad(split_density, 0, np.inf,
                                   lambda t1: t1, np.inf)
    # two ordered singleton assignments share the same time density
    total = p_tie + 2.0 * p_split
    assert abs(total - 1.0) < 1e-6
    assert p_tie == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_density_matches_simulation_histogram():
    rng = make_rng(15)
    reps = 1_000_000
    edges = np.array([0.0, 0.25, 0.55, 1.0, 1.7])
    nbins = len(edges) - 1
    batch = simulate_batch(2, H11, reps, rng)
    first = np.searchsorted(batch.rep, np.arange(reps))
    tied = batch.num_blocks == 1
    i = np.searchsorted(edges, batch.time[first[tied]]) - 1
    tie_counts = np.bincount(i[(0 <= i) & (i < nbins)], minlength=nbins)
    split = first[~tied]
    i = np.searchsorted(edges, batch.time[split]) - 1
    j = np.searchsorted(edges, batch.time[split + 1]) - 1
    inside = (0 <= i) & (i < nbins) & (0 <= j) & (j < nbins)
    split_counts = np.bincount(i[inside] * nbins + j[inside],
                               minlength=nbins * nbins).reshape(nbins, nbins)

    def tie_density(t):
        return math.exp(log_density(
            RiskSetTrajectory(2, (Event(t, 2, 0),)), H11))

    def split_density(t2, t1):
        if t2 <= t1:
            return 0.0
        return 2.0 * math.exp(log_density(
            RiskSetTrajectory(2, (Event(t1, 1, 0), Event(t2, 1, 0))), H11))

    for i in range(len(edges) - 1):
        expect, _ = integrate.quad(tie_density, edges[i], edges[i + 1])
        assert abs(tie_counts[i] / reps - expect) / expect < 0.05
    for i in range(len(edges) - 1):
        for j in range(len(edges) - 1):
            if j < i:
                continue
            # On a diagonal cell t2 starts at t1, where the density jumps.
            expect, _ = integrate.dblquad(
                split_density, edges[i], edges[i + 1],
                (lambda t1: t1) if j == i else (lambda _t, lo=edges[j]: lo),
                lambda _t, hi=edges[j + 1]: hi)
            assert abs(split_counts[i, j] / reps - expect) / expect < 0.05


# ---------------------------------------------------------------------------
# predictive distribution


def test_predictive_empty_history():
    empty = RiskSetTrajectory(0, ())
    ts = np.array([0.0, 0.5, 2.0])
    np.testing.assert_allclose(predictive_survival(ts, empty, H11),
                               np.exp(-ts), rtol=1e-12)


@pytest.mark.parametrize("t", [math.nan, [0.5, math.nan], -1.0])
def test_predictive_rejects_nan_or_negative_time(t):
    hist = RiskSetTrajectory(3, (Event(1.0, 1, 0), Event(2.5, 2, 0)))
    with pytest.raises(ParameterError, match="t must be >= 0"):
        predictive_survival(t, hist, H11)


def test_predictive_atom_factor_harmonic():
    nu, rho = 1.3, 2.0
    ix = HarmonicIndex(nu, rho)
    hist = RiskSetTrajectory(5, (Event(1.0, 2, 0),))
    r, d = 3, 2
    before = predictive_survival(1.0 - 1e-12, hist, ix)
    after = predictive_survival(1.0, hist, ix)
    assert after / before == pytest.approx((r + rho) / (r + d + rho),
                                           rel=1e-9)


def test_predictive_monotone_and_vanishing():
    hist = RiskSetTrajectory(4, (Event(0.5, 1, 1), Event(1.5, 2, 0)))
    ts = np.linspace(0.0, 60.0, 400)
    s = predictive_survival(ts, hist, H11)
    assert np.all(np.diff(s) <= 1e-15)
    assert s[0] == 1.0
    assert s[-1] < 1e-10


def test_sample_next_empty_history_exponential():
    rng = make_rng(16)
    empty = RiskSetTrajectory(0, ())
    draws = np.array([sample_next(empty, H11, rng) for _ in range(10000)])
    assert stats.kstest(draws, "expon").pvalue > 0.01


def test_sample_next_atom_mass():
    rng = make_rng(17)
    hist = RiskSetTrajectory(2, (Event(1.0, 2, 0),))
    reps = 100000
    draws = np.array([sample_next(hist, H11, rng) for _ in range(reps)])
    reach = draws >= 1.0
    p_hat = (draws[reach] == 1.0).mean()
    se = math.sqrt((2.0 / 3.0) * (1.0 / 3.0) / reach.sum())
    assert abs(p_hat - 2.0 / 3.0) < 3.0 * se


# The gamma and power histories hold a tied block, whose atom the walk
# survives by a factor from two of the family's block rates.
TIED_HISTORY = RiskSetTrajectory(5, (Event(0.7, 2, 0), Event(1.4, 1, 1)))


@pytest.mark.parametrize("index, hist", [
    (H11, RiskSetTrajectory(3, (Event(0.7, 1, 0), Event(1.4, 1, 1)))),
    (GammaIndex(1.0, 1.0), TIED_HISTORY),
    (PowerIndex(0.5), TIED_HISTORY),
], ids=["harmonic", "gamma", "power"])
def test_sample_next_matches_predictive_curve(index, hist):
    rng = make_rng(18)
    reps = 100000
    draws = np.array([sample_next(hist, index, rng) for _ in range(reps)])
    grid = np.linspace(0.01, 9.0, 150)
    emp = (draws[:, None] > grid[None, :]).mean(axis=0)
    s = predictive_survival(grid, hist, index)
    assert np.abs(emp - s).max() < 0.01


def test_gamma_and_power_walks_load_no_quadrature():
    # A single gamma or power rate is an entry of the array rule, which
    # loads scipy.integrate only for an entry whose error estimate fails.
    code = ("import sys\n"
            "import numpy as np\n"
            "from marksurv import (GammaIndex, PowerIndex, sample_next,\n"
            "                      simulate, simulate_seeded)\n"
            "for ix in (GammaIndex(1.0, 1.0), PowerIndex(0.5),\n"
            "           PowerIndex(0.9), PowerIndex(0.99)):\n"
            "    rng = np.random.default_rng(5)\n"
            "    traj = simulate(200, ix, rng=rng)\n"
            "    simulate_seeded(traj, 40, ix, rng)\n"
            "    sample_next(traj, ix, rng)\n"
            "print('scipy.integrate' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(process.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _harmonic_posterior_mean(t, history, nu, rho):
    """P(next lifetime > t) for harmonic(nu, rho) as the beta process's
    posterior mean: the product of (rho + r) / (rho + r + d) over the failure
    blocks up to t, times exp(-integral of nu / (rho + m) up to t)."""
    log_s, t_prev, alive = 0.0, 0.0, history.n_initial
    for e in history.events:
        if e.time > t:
            break
        log_s -= nu / (rho + alive) * (e.time - t_prev)
        if e.n_failures:
            r = alive - e.n_failures
            log_s += math.log((rho + r) / (rho + r + e.n_failures))
        alive -= e.n_failures + e.n_censored
        t_prev = e.time
    return math.exp(log_s - nu / (rho + alive) * (t - t_prev))


@pytest.mark.parametrize("rho", [0.5, 2.3, 40.0, 150.0])
def test_harmonic_predictive_is_the_beta_process_posterior_mean(rho):
    nu = 0.7
    index = HarmonicIndex(nu, rho)
    rng = make_rng(61)
    # Censoring times spread over the lifetimes' scale, about (rho + m) / nu.
    history = simulate(60, index, plan=CensoringPlan(
        tuple(np.exp(rng.uniform(-6.0, 1.0, 60)) * (rho + 30.0) / nu)),
        rng=rng)
    assert history.n_censored > 10 and history.num_failure_times > 5
    grid = np.concatenate([np.linspace(0.0, 1.2 * history.last_time, 40),
                           history.fail_time])
    expect = np.array([_harmonic_posterior_mean(t, history, nu, rho)
                       for t in grid.tolist()])
    np.testing.assert_allclose(predictive_survival(grid, history, index),
                               expect, rtol=1e-12, atol=0.0)
    # The walk's remembered hazards and atom factors are the same closed
    # forms.
    simulate_seeded(history, 40, index, rng)
    hazard, by_size = process._walk_memo(index)
    keep = {(r, d): k for d, col in by_size.items() for r, k in col.items()}
    assert len(hazard) > 20 and len(keep) > 20
    for m, h in hazard.items():
        assert h == pytest.approx(nu / (rho + m), rel=1e-12, abs=0.0)
    for (r, d), k in keep.items():
        assert k == pytest.approx((rho + r) / (rho + r + d), rel=1e-12,
                                  abs=0.0)


@pytest.mark.parametrize("index", [LinearIndex(), LinearShiftIndex(1.0)],
                         ids=["linear", "linear-shift"])
def test_history_the_index_forbids_raises_parameter_error(index):
    # A tie of 2 leaving 3 has rate 0 under both indices.
    history = RiskSetTrajectory(6, (Event(0.5, 1, 0), Event(1.0, 2, 0)))
    calls = [lambda: predictive_survival([0.2, 1.0, 2.0], history, index)]
    calls += [lambda seed=seed: sample_next(history, index, make_rng(seed))
              for seed in range(10)]
    calls += [lambda: simulate_seeded(history, 3, index, make_rng(0))]
    for call in calls:
        with pytest.raises(ParameterError,
                           match=r"^the index forbids a failure block of 2 "
                                 r"leaving 3: its rate is 0$"):
            call()
    assert log_density(history, index) == -math.inf


def test_block_the_next_lifetime_cannot_survive():
    # Under LinearShiftIndex a tie of everyone at risk is allowed, and the
    # next individual joins it surely: lambda(1, 2) = 0 < lambda(0, 2).
    index = LinearShiftIndex(1.0)
    history = RiskSetTrajectory(2, (Event(1.0, 2, 0),))
    s = predictive_survival([0.5, 1.0, 3.0], history, index)
    assert s[0] == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert s[1] == s[2] == 0.0
    rng = make_rng(62)
    assert all(sample_next(history, index, rng) <= 1.0 for _ in range(200))


def test_total_rate_underflowing_to_zero_raises_numeric_error():
    # Every psi(m) of this index is 0.0 in doubles.
    index = BetaSplitIndex(rho=1e300, beta=0.5)
    for reps in (1, 3):
        with pytest.raises(NumericError,
                           match=r"^the total rate with 5 at risk is 0\.0"):
            simulate_batch(5, index, reps, make_rng(0))


def test_zero_singleton_hazard_raises_numeric_error():
    # alpha**1100 (1 - alpha) underflows to 0: no lifetime can be drawn.
    history = RiskSetTrajectory(1100, ())
    index = GeometricIndex(0.5)
    for call in (lambda: sample_next(history, index, make_rng(0)),
                 lambda: simulate_seeded(history, 2, index, make_rng(0))):
        with pytest.raises(NumericError, match=r"^the singleton hazard with "
                           r"1100 at risk is 0 in doubles"):
            call()
    # The curve is right in doubles: 1 - O(1e-325) reads 1.
    assert predictive_survival([1.0, 1e6], history, index).tolist() \
        == [1.0, 1.0]


# Predictive curves at these times, for histories with a tie of 3 at t = 1
# against the same failures split at 1, 1 + delta and 1 + 2 delta.
CONTINUITY_GRID = [0.5, 1.001, 2.0, 5.0]


def continuity_histories(delta):
    """The tied and split histories of 10 at risk, without and with an
    earlier event censoring 2."""
    for head in ((), (Event(0.5, 0, 2),)):
        tied = RiskSetTrajectory(10, head + (Event(1.0, 3, 0),))
        split = RiskSetTrajectory(10, head + tuple(
            Event(1.0 + j * delta, 1, 0) for j in range(3)))
        yield tied, split


def continuity_gaps(index, delta):
    """Largest predictive_survival gap between the tied and split histories
    of each pair."""
    return np.array([np.abs(
        predictive_survival(CONTINUITY_GRID, tied, index)
        - predictive_survival(CONTINUITY_GRID, split, index)).max()
        for tied, split in continuity_histories(delta)])


@pytest.mark.parametrize("index", [HarmonicIndex(0.7, 2.3),
                                   HarmonicIndex(1.0, 0.5),
                                   HarmonicIndex(2.0, 40.0)])
def test_harmonic_predictive_is_weakly_continuous(index):
    # The gap vanishes linearly with delta (measured: ratio 100, and at
    # most 4.5e-8 at delta = 1e-6).
    small = continuity_gaps(index, 1e-6)
    assert small.max() <= 1e-7
    ratio = continuity_gaps(index, 1e-4) / small
    assert np.all((50.0 <= ratio) & (ratio <= 200.0))


@pytest.mark.parametrize("index", [
    GammaIndex(0.7, 2.3), PowerIndex(0.5), GeometricIndex(0.5),
    BetaSplitIndex(1.0, -0.5), BetaSplitIndex(2.0, 0.5),
], ids=["gamma", "power", "geometric", "beta-0.5", "beta0.5"])
def test_other_predictives_jump_when_a_tie_splits(index):
    # Measured: at least 2.57e-4 at delta = 1e-6.
    assert continuity_gaps(index, 1e-6).min() >= 1e-4


@pytest.mark.parametrize("index", [HarmonicIndex(0.7, 2.3),
                                   GammaIndex(0.7, 2.3)],
                         ids=["harmonic", "gamma"])
def test_predictive_draw_follows_the_curve_after_a_tie_or_its_split(index):
    # Each grid cell's count of draws above t is scored by its exact
    # binomial tail, as compare_constructions scores the measure route.
    # For harmonic the split history's draws also follow the tied curve:
    # the weak-continuity limit, on the draw as well as on the curve.
    from marksurv.random_measure import _binomial_z
    rng = make_rng(77)
    reps = 40000
    for tied, split in continuity_histories(1e-6):
        curves = {"tied": predictive_survival(CONTINUITY_GRID, tied, index),
                  "split": predictive_survival(CONTINUITY_GRID, split, index)}
        for name, history in (("tied", tied), ("split", split)):
            draws = np.array([sample_next(history, index, rng)
                              for _ in range(reps)])
            hits = (draws[:, None] > CONTINUITY_GRID).sum(axis=0)
            against = ("tied", "split") if isinstance(
                index, HarmonicIndex) else (name,)
            for curve in against:
                z = _binomial_z(hits, reps, curves[curve])
                assert np.abs(z).max() < 4.5, (name, curve, z)


# ---------------------------------------------------------------------------
# seeded series


def test_seeded_with_empty_seed_matches_plain_simulation():
    rng = make_rng(19)
    empty = RiskSetTrajectory(0, ())
    reps = 20000
    k_seeded = np.zeros(4)
    k_plain = np.zeros(4)
    for _ in range(reps):
        k_seeded[simulate_seeded(empty, 3, H11, rng).num_failure_times] += 1
        k_plain[simulate(3, H11, rng=rng).num_failure_times] += 1
    obs = np.stack([k_seeded[1:], k_plain[1:]])
    tot = obs.sum(axis=0)
    exp0 = tot * obs[0].sum() / obs.sum()
    exp1 = tot * obs[1].sum() / obs.sum()
    chi2 = ((obs[0] - exp0) ** 2 / exp0).sum() + ((obs[1] - exp1) ** 2 / exp1).sum()
    assert stats.chi2.sf(chi2, 2) > 0.001


def test_seeded_distinct_value_band():
    rng = make_rng(20)
    for nu, rho in ((1.0, 1.0), (10.0, 10.0)):
        ix = HarmonicIndex(nu, rho)
        seeds = np.sort(rng.uniform(1.0, 2.0, 50))
        seed_traj = RiskSetTrajectory(
            50, tuple(Event(float(t), 1, 0) for t in seeds))
        out = simulate_seeded(seed_traj, 400, ix, rng)
        assert out.n_initial == 450
        assert out.n_deaths == 450
        assert 5 <= out.num_failure_times <= 300


def test_seeded_joint_law_matches_ratio_density():
    # two lifetimes generated after a seeded tie: the chance that both land
    # on the seed's atom equals the density ratio of the merged trajectory
    # to the seed trajectory
    rng = make_rng(26)
    seed = RiskSetTrajectory(2, (Event(1.0, 2, 0),))
    merged = RiskSetTrajectory(4, (Event(1.0, 4, 0),))
    exact = math.exp(log_density(merged, H11) - log_density(seed, H11))
    reps = 40000
    hits = 0
    for _ in range(reps):
        out = simulate_seeded(seed, 2, H11, rng)
        hits += (len(out.events) == 1 and out.events[0].n_failures == 4)
    se = math.sqrt(exact * (1.0 - exact) / reps)
    assert abs(hits / reps - exact) < 3.0 * se


def test_seeded_label_exchangeability():
    # the log likelihood of the extended trajectory only sees block counts,
    # so relabelling new particles changes nothing
    rng = make_rng(21)
    seed = RiskSetTrajectory(2, (Event(1.0, 2, 0),))
    out = simulate_seeded(seed, 3, H11, rng)
    relabeled = RiskSetTrajectory(out.n_initial, tuple(
        Event(e.time, e.n_failures, e.n_censored) for e in out.events))
    assert log_density(relabeled, H11) == log_density(out, H11)


def _seeded_by_rebuilding(seed, m_new, index, rng, draw=sample_next):
    """simulate_seeded as defined by rebuilding the trajectory before each
    sample_next draw (or ``draw``) and merging the draw into it."""
    traj = seed
    for _ in range(m_new):
        t = draw(traj, index, rng)
        rows = [[e.time, e.n_failures, e.n_censored] for e in traj.events]
        same = [row for row in rows if row[0] == t]
        if same:
            same[0][1] += 1
        else:
            rows = sorted(rows + [[t, 1, 0]])
        traj = RiskSetTrajectory(traj.n_initial + 1,
                                 tuple(Event(*row) for row in rows))
    return traj


@pytest.mark.parametrize("index", [H11, GammaIndex(1.0, 1.0)],
                         ids=["harmonic", "gamma"])
def test_seeded_matches_rebuild_then_draw(index):
    for seed in range(3):
        rng = make_rng(seed)
        seed_traj = simulate(8, index, plan=CensoringPlan(
            tuple(rng.uniform(0.5, 3.0, 8))), rng=rng)
        state = rng.bit_generator.state
        out = simulate_seeded(seed_traj, 25, index, rng)
        rng.bit_generator.state = state
        ref = _seeded_by_rebuilding(seed_traj, 25, index, rng)
        assert out.n_initial == ref.n_initial
        assert [(e.time, e.n_failures, e.n_censored) for e in out.events] == \
            [(e.time, e.n_failures, e.n_censored) for e in ref.events]


@pytest.mark.parametrize("make_index", [
    lambda: GammaIndex(1.0, 1.0), lambda: PowerIndex(0.9),
    lambda: HarmonicIndex(0.7, 2.3),
], ids=["gamma", "power", "harmonic"])
def test_predictive_draws_same_with_or_without_memo(monkeypatch, make_index):
    def draws(index):
        rng = make_rng(31)
        seed_traj = simulate(12, index, plan=CensoringPlan(
            tuple(rng.uniform(0.5, 3.0, 12))), rng=rng)
        out = []
        for _ in range(3):
            traj = simulate_seeded(seed_traj, 40, index, rng)
            out.append((traj, [sample_next(traj, index, rng)
                               for _ in range(10)]))
        return out

    warm = make_index()
    remembered = draws(warm)
    assert all(process._walk_memo(warm))
    for module in (index_mod, process):
        monkeypatch.setattr(module, "_memo", lambda index: {})
    bare = make_index()
    assert draws(bare) == remembered
    # Nothing was remembered on the instance: no walk dict outlived a draw.
    assert "_memo" not in vars(bare)


_RATE_METHODS = ("total_rate", "unit_total_rate", "block_rate",
                 "unit_block_rate", "log_unit_block_rate", "split_prob",
                 "_log_rates")


@pytest.mark.parametrize("make_index", [
    lambda: HarmonicIndex(0.7, 2.3), lambda: GammaIndex(1.0, 1.0),
], ids=["harmonic", "gamma"])
def test_second_draw_over_a_large_risk_set_calls_no_rate(monkeypatch,
                                                        make_index):
    # 6,000 at risk, tied failures and censorings at every event, never
    # fewer than 5,000 at risk.
    history = RiskSetTrajectory(6000, tuple(
        Event(0.01 * (i + 1), 1 + i % 3, 20) for i in range(40)))
    assert history.n_censored > 0 and history.at_risk.min() >= 5000
    index = make_index()
    calls = []
    for cls in type(index).__mro__:
        for name in _RATE_METHODS:
            if name in vars(cls):
                def counted(*args, _f=vars(cls)[name], _name=name, **kw):
                    calls.append(_name)
                    return _f(*args, **kw)
                monkeypatch.setattr(cls, name, counted)
    rng = make_rng(71)
    state = rng.bit_generator.state
    first = sample_next(history, index, rng)
    assert calls
    del calls[:]
    rng.bit_generator.state = state
    assert sample_next(history, index, rng) == first
    assert calls == []


def _scalar_next(traj, index, rng):
    """sample_next as a walk with direct scalar rate calls at every row
    passed, as it was before the walk had tables: the stream oracle."""
    alive = traj.n_initial
    e_cont = rng.exponential()
    t_prev = 0.0
    for time, n_failures, n_censored in map(process._EVENT_ROW, traj.events):
        h = index.block_rate(alive, 1)
        span = time - t_prev
        if h * span >= e_cont:
            return t_prev + e_cont / h
        e_cont -= h * span
        if n_failures > 0:
            r = alive - n_failures
            keep = math.exp(index.log_unit_block_rate(r + 1, n_failures)
                            - index.log_unit_block_rate(r, n_failures))
            if rng.random() >= keep:
                return time
        alive -= n_failures + n_censored
        t_prev = time
    h = index.block_rate(alive, 1)
    return t_prev + e_cont / h


@pytest.mark.parametrize("tables", ["cold", "warm", "cap-8"])
@pytest.mark.parametrize("make_index", [
    lambda: HarmonicIndex(0.7, 2.3), lambda: BetaSplitIndex(1.0, -0.5),
    lambda: GeometricIndex(0.5), lambda: GammaIndex(1.0, 1.0),
    lambda: PowerIndex(0.9),
], ids=["harmonic", "beta", "geometric", "gamma", "power"])
def test_walk_draws_the_scalar_oracle_stream(monkeypatch, make_index,
                                             tables):
    index = make_index()
    if tables == "cap-8":
        monkeypatch.setattr(index_mod, "_MEMO_MAX", 8)
    rng = make_rng(43)
    seed_traj = simulate(15, index, plan=CensoringPlan(
        tuple(rng.uniform(0.4, 3.0, 15))), rng=rng)
    assert seed_traj.n_censored > 0
    if tables == "warm":
        other = simulate(25, index, rng=make_rng(5))
        simulate_seeded(other, 30, index, make_rng(6))
        assert all(process._walk_memo(index))
    for _ in range(2):
        state = rng.bit_generator.state
        out = simulate_seeded(seed_traj, 30, index, rng)
        draws = [sample_next(out, index, rng) for _ in range(15)]
        after = rng.bit_generator.state
        rng.bit_generator.state = state
        assert _seeded_by_rebuilding(seed_traj, 30, index, rng,
                                     draw=_scalar_next) == out
        assert [_scalar_next(out, index, rng) for _ in range(15)] == draws
        assert rng.bit_generator.state == after
        hazard, keep = process._walk_memo(index)
        if tables == "cap-8":
            assert max(map(len, [hazard, keep, *keep.values()])) <= 8
    # Each remembered float is the oracle's scalar expression, bit for bit.
    for m, h in hazard.items():
        assert h == index.block_rate(m, 1)
    for d, col in keep.items():
        for r, k in col.items():
            assert k == math.exp(index.log_unit_block_rate(r + 1, d)
                                 - index.log_unit_block_rate(r, d))


def test_second_seeded_series_on_warm_gamma_runs_no_quadrature(monkeypatch):
    # Every gamma rate, quadrature fallback included, goes through the
    # array rule; the warm series asks it nothing.
    calls = []
    rates = GammaIndex._log_rates

    def counted(self, r, d):
        calls.extend(zip(r.tolist(), d.tolist()))
        return rates(self, r, d)

    monkeypatch.setattr(GammaIndex, "_log_rates", counted)
    index = GammaIndex(1.0, 1.0)
    seed_traj = simulate(20, index, rng=make_rng(3))
    calls.clear()
    first = simulate_seeded(seed_traj, 40, index, make_rng(20))
    assert calls
    calls.clear()
    assert simulate_seeded(seed_traj, 40, index, make_rng(20)) == first
    assert calls == []


def test_seeded_builds_each_output_event_once(monkeypatch):
    built = []

    class CountedEvent(Event):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    seed = RiskSetTrajectory(3, (Event(1.0, 2, 0), Event(2.0, 0, 1)))
    monkeypatch.setattr(process, "Event", CountedEvent)
    out = simulate_seeded(seed, 60, H11, make_rng(27))
    assert out.n_initial == 63
    assert len(built) == len(out.events)


# ---------------------------------------------------------------------------
# residual trajectories and memory properties


def test_residual_identity_and_empty():
    traj = RiskSetTrajectory(3, (Event(1.0, 2, 0), Event(2.0, 1, 0)))
    same = residual_trajectory(traj, 0.0)
    assert same.n_initial == 3 and len(same.events) == 2
    empty = residual_trajectory(traj, 5.0)
    assert empty.n_initial == 0 and empty.events == ()


def test_residual_shifts_times():
    traj = RiskSetTrajectory(3, (Event(1.0, 1, 0), Event(2.5, 2, 0)))
    res = residual_trajectory(traj, 1.5)
    assert res.n_initial == 2
    assert res.events[0].time == 1.0 and res.events[0].n_failures == 2


@pytest.mark.parametrize("t", [math.nan, -1.0])
def test_residual_rejects_nan_or_negative_time(t):
    traj = RiskSetTrajectory(3, (Event(1.0, 1, 0), Event(2.5, 2, 0)))
    with pytest.raises(ParameterError, match="t must be >= 0"):
        residual_trajectory(traj, t)


def test_self_similarity_tie_probability():
    rng = make_rng(22)
    t = 0.2
    hits = acc = 0
    for _ in range(30000):
        traj = simulate(6, H11, rng=rng)
        if traj.events[0].time <= t:
            continue
        acc += 1
        res = residual_trajectory(traj, t)
        assert res.n_initial == 6
        for e in res.events:
            if e.failed and 0 in e.failed:
                hits += 1 in e.failed
                break
    p = hits / acc
    se = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / acc)
    assert abs(p - 1.0 / 3.0) < 3.0 * se


def test_lack_of_memory_two_particles():
    rng = make_rng(23)
    t = 0.4
    ties = acc = 0
    mean_acc = 0.0
    for _ in range(40000):
        traj = simulate(2, H11, rng=rng)
        if traj.events[0].time <= t:
            continue
        acc += 1
        ties += traj.events[0].n_failures == 2
        mean_acc += traj.events[0].time - t
    se_tie = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / acc)
    assert abs(ties / acc - 1.0 / 3.0) < 3.0 * se_tie
    # residual first-failure time keeps the unconditional mean 1/zeta(2)
    mean = mean_acc / acc
    assert abs(mean - 1.0 / 1.5) < 3.0 * (1.0 / 1.5) / math.sqrt(acc)


# ---------------------------------------------------------------------------
# time transforms


def _double_time():
    return TimeTransform(forward=lambda t: 2.0 * t,
                         inverse=lambda t: t / 2.0,
                         derivative=lambda t: 2.0)


def test_transform_identity():
    tf = TimeTransform(lambda t: t, lambda t: t, lambda t: 1.0)
    traj = RiskSetTrajectory(2, (Event(1.0, 2, 0),))
    out = transform_times(traj, tf)
    assert out.events[0].time == 1.0
    assert log_density_semimarkov(out, H11, tf) == pytest.approx(
        log_density(traj, H11), rel=1e-14)


def test_transform_scales_marginal():
    rng = make_rng(24)
    tf = _double_time()
    draws = []
    for _ in range(10000):
        traj = transform_times(simulate(1, H11, rng=rng), tf)
        draws.append(traj.events[0].time)
    assert stats.kstest(np.array(draws), "expon",
                        args=(0, 2.0)).pvalue > 0.01


def test_transform_round_trip():
    rng = make_rng(25)
    tf = TimeTransform(forward=lambda t: t ** 2, inverse=math.sqrt,
                       derivative=lambda t: 2.0 * t)
    traj = simulate(5, H11, rng=rng)
    back = transform_times(transform_times(traj, tf), tf.inverted())
    for a, b in zip(traj.events, back.events):
        assert abs(a.time - b.time) < 1e-12


def test_semimarkov_density_adds_jacobian():
    tf = _double_time()
    traj = RiskSetTrajectory(3, (Event(0.5, 1, 0), Event(1.25, 1, 1)))
    out = transform_times(traj, tf)
    expect = log_density(traj, H11) - traj.num_failure_times * math.log(2.0)
    assert log_density_semimarkov(out, H11, tf) == pytest.approx(expect,
                                                                 rel=1e-12)


# ---------------------------------------------------------------------------
# product-limit connection


def test_harmonic_small_rho_matches_product_limit_factors():
    ix = HarmonicIndex(1.0, 1e-8)
    hist = RiskSetTrajectory(21, (Event(6.0, 3, 1), Event(7.0, 1, 0)))
    for r, d in ((17, 3), (16, 1)):
        factor = ix.block_rate(r + 1, d) / ix.block_rate(r, d)
        assert abs(factor - r / (r + d)) < 1e-6


@pytest.mark.parametrize("call", [
    lambda n: simulate(n, H11, rng=np.random.default_rng(1)),
    lambda n: simulate_batch(n, H11, 1, np.random.default_rng(1)),
    lambda n: simulate_batch(n, H11, 3, np.random.default_rng(1)),
    lambda n: next(_block_sweep(H11, n, 2, np.random.default_rng(1))),
    lambda n: expected_blocks(n, H11),
], ids=["simulate", "simulate_batch one rep", "simulate_batch",
        "block sweep", "expected_blocks"])
def test_risk_set_above_the_cap_raises_resource_error(monkeypatch, call):
    monkeypatch.setattr(index_mod, "MAX_RISK_SET", 64)
    call(64)
    with pytest.raises(ResourceError, match="65 at risk exceed 64"):
        call(65)
    with pytest.raises(ParameterError, match="n must be >= 1"):
        call(0)


def test_path_integral_is_a_running_total():
    # A compensated sum (Python 3.12's sum()) would give 1.0.
    assert process._path_integral(
        lambda m: 1.0, np.array([3, 2, 1]),
        np.array([1e16, 1.0, -1e16])) == 0.0
