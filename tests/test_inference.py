import json
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from marksurv import inference
from marksurv.index import (GammaIndex, HarmonicIndex, NumericError,
                            ParameterError)
from marksurv.inference import (Dataset, empirical_bayes_curve,
                                fit_exponential, fit_mle, fit_moment,
                                kaplan_meier, loglik, mle_nu_given_rho,
                                profile_interval, profile_loglik,
                                risk_trajectory, sufficient_stats)
from marksurv.process import log_density, simulate
from marksurv.ranking import sample_block_sizes


def make_rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# data handling and sufficient statistics


def test_dataset_validation():
    with pytest.raises(ParameterError):
        Dataset(times=(0.0, 1.0), failed=(True, True))
    with pytest.raises(ParameterError):
        Dataset(times=(1.0,), failed=(True, False))
    d = Dataset.from_records([(2.0, 1), (3.0, 0)])
    assert d.n == 2 and d.n_failures == 1


def test_gehan_sufficient_statistics(gehan):
    ss = sufficient_stats(gehan, "harmonic", 21.45)
    assert ss.n_deaths == 9
    assert ss.total_risk_time == 359.0
    assert ss.num_failure_times == 7


def test_gehan_trajectory_groups_ties(gehan):
    traj = risk_trajectory(gehan)
    assert traj.n_initial == 21
    first = traj.events[0]
    assert first.time == 6.0
    assert first.n_failures == 3 and first.n_censored == 1
    failure_times = [e.time for e in traj.events if e.n_failures > 0]
    assert failure_times == [6.0, 7.0, 10.0, 13.0, 16.0, 22.0, 23.0]


def test_single_record_stats():
    d = Dataset(times=(1.0,), failed=(True,))
    ss = sufficient_stats(d, "harmonic", 1.0)
    assert ss.num_failure_times == 1
    assert ss.unit_rate_integral == pytest.approx(1.0, rel=1e-14)


def test_stats_censoring_deletion_consistency(gehan):
    # dropping the censored record at 25 weeks reduces the integrals but
    # leaves the distinct-failure count alone
    records = [(t, f) for t, f in zip(gehan.times, gehan.failed)
               if not (t == 25 and not f)]
    smaller = Dataset.from_records(records)
    a = sufficient_stats(gehan, "harmonic", 5.0)
    b = sufficient_stats(smaller, "harmonic", 5.0)
    assert b.num_failure_times == a.num_failure_times
    assert b.unit_rate_integral < a.unit_rate_integral
    assert b.total_risk_time < a.total_risk_time


# ---------------------------------------------------------------------------
# likelihood


def test_loglik_matches_trajectory_density(gehan):
    # two routes to the same number: sufficient statistics vs the process
    # module's trajectory density
    for family, rho, nu in (("harmonic", 21.45, 0.53), ("gamma", 5.0, 0.8)):
        index = (HarmonicIndex(nu, rho) if family == "harmonic"
                 else GammaIndex(nu, rho))
        direct = log_density(risk_trajectory(gehan), index)
        assert loglik(gehan, family, rho, nu) == pytest.approx(direct,
                                                               rel=1e-12)


def test_loglik_stationary_at_scale_mle(gehan):
    rho = 21.45
    nu = mle_nu_given_rho(gehan, "harmonic", rho)
    h = 1e-6
    up = loglik(gehan, "harmonic", rho, nu * math.exp(h))
    dn = loglik(gehan, "harmonic", rho, nu * math.exp(-h))
    assert abs(up - dn) / (2 * h) < 1e-8


def test_loglik_concave_in_log_scale(gehan):
    rho = 8.0
    for nu in (0.1, 0.5, 1.0, 4.0):
        h = 1e-4
        f0 = loglik(gehan, "harmonic", rho, nu)
        fu = loglik(gehan, "harmonic", rho, nu * math.exp(h))
        fd = loglik(gehan, "harmonic", rho, nu * math.exp(-h))
        assert (fu - 2 * f0 + fd) / h ** 2 < 0.0


@pytest.mark.parametrize("nu", [0.0, math.inf, math.nan])
def test_loglik_rejects_a_scale_that_is_not_finite_and_positive(gehan, nu):
    with pytest.raises(ParameterError, match="nu"):
        loglik(gehan, "harmonic", 1.0, nu)


def test_loglik_finite_for_singleton_data_near_iid_limit():
    d = Dataset(times=(1.0, 2.0, 3.5), failed=(True, True, True))
    val = loglik(d, "harmonic", 1e8, 1e8 / 3.0)
    assert math.isfinite(val)


def test_gehan_maxima_close_between_families(gehan):
    fh = fit_mle(gehan, "harmonic")
    fg = fit_mle(gehan, "gamma")
    assert 2.0 * abs(fh.loglik - fg.loglik) < 1e-3


# ---------------------------------------------------------------------------
# estimation on the bundled data


def test_scale_mle_examples(gehan):
    assert mle_nu_given_rho(gehan, "harmonic", 21.45) == pytest.approx(
        0.53, abs=0.02)
    assert mle_nu_given_rho(gehan, "gamma", 20.95) == pytest.approx(
        0.53, abs=0.02)
    # one failure over a unit-rate integral of 2 gives the direct ratio 1/2
    tiny = Dataset(times=(2.0,), failed=(True,))
    assert mle_nu_given_rho(tiny, "harmonic", 1.0) == pytest.approx(
        0.5, rel=1e-12)


def test_fit_mle_gehan(gehan):
    fit = fit_mle(gehan, "harmonic")
    assert fit.rho == pytest.approx(21.45, abs=1.0)
    assert fit.nu == pytest.approx(0.53, abs=0.02)
    assert not fit.boundary_warning
    fit_g = fit_mle(gehan, "gamma")
    assert fit_g.rho == pytest.approx(20.95, abs=1.0)
    assert fit_g.nu == pytest.approx(0.53, abs=0.02)


def test_fit_mle_standard_errors_match_reported(gehan):
    # the reporting method is not pinned down, so the comparison is loose
    fit = fit_mle(gehan, "harmonic")
    assert fit.se_rho == pytest.approx(19.63, rel=0.25)
    assert fit.se_nu == pytest.approx(0.44, rel=0.25)
    # the conditional information for the log scale is the distinct count
    assert fit.se_log_nu >= 1.0 / math.sqrt(7.0) - 1e-9


def _mp_loglik(data, family, g, lg):
    """The log likelihood at rho = e^g, nu = e^lg in mpmath arithmetic: the
    unit total rate and the block rates are the family's closed forms (for
    gamma the block rate is the alternating sum of log(1 + j / a))."""
    rho, nu = mp.exp(g), mp.exp(lg)
    traj = data.trajectory
    if family == "harmonic":
        def psi(m):
            return mp.digamma(rho + m) - mp.digamma(rho)

        def rate(r, d):
            return mp.beta(d, rho + r)
    else:
        def psi(m):
            return mp.log1p(m / rho)

        def rate(r, d):
            return sum((-1) ** (j + 1) * mp.binomial(d, j)
                       * mp.log1p(j / (rho + r)) for j in range(1, d + 1))
    unit = sum(mp.mpf(t) * psi(m) for m, t in
               zip(traj.at_risk.tolist(), traj.span.tolist()))
    logs = sum(mp.log(rate(r, d))
               for r, d in zip(traj.r.tolist(), traj.d.tolist()))
    return traj.num_failure_times * lg - nu * unit + logs


@pytest.mark.parametrize("method", [fit_mle, fit_moment])
@pytest.mark.parametrize("family", ["harmonic", "gamma"])
def test_standard_errors_match_an_mpmath_hessian(gehan, family, method):
    fit = method(gehan, family)
    with mp.workdps(40):
        x = (mp.log(fit.rho), mp.log(fit.nu))

        def f(g, lg):
            return _mp_loglik(gehan, family, g, lg)

        cross = mp.diff(f, x, (1, 1))
        hess = mp.matrix([[mp.diff(f, x, (2, 0)), cross],
                          [cross, mp.diff(f, x, (0, 2))]])
        cov = (-hess) ** -1
        expect = (float(mp.sqrt(cov[0, 0])), float(mp.sqrt(cov[1, 1])))
    assert fit.se_log_rho == pytest.approx(expect[0], rel=1e-7)
    assert fit.se_log_nu == pytest.approx(expect[1], rel=1e-7)
    assert fit.se_rho == fit.rho * fit.se_log_rho
    assert fit.se_nu == fit.nu * fit.se_log_nu


def test_fit_reuses_the_sums_at_its_rho(monkeypatch):
    data = Dataset.from_records([(1.0, 1), (1.0, 1), (2.0, 0), (3.0, 1),
                                 (5.0, 1), (8.0, 0)])
    rhos = []
    sums = inference._rate_sums

    def recorded(data, fam, at):
        rhos.append(at)
        return sums(data, fam, at)

    monkeypatch.setattr(inference, "_rate_sums", recorded)
    fit = fit_moment(data, "gamma")
    # one evaluation for the scale and the log likelihood, then one on each
    # side of it for the profile's curvature
    h = inference._HESSIAN_STEP
    assert rhos == [fit.rho, fit.rho * math.exp(-h), fit.rho * math.exp(h)]
    assert fit.nu == mle_nu_given_rho(data, "gamma", fit.rho)
    assert fit.loglik == loglik(data, "gamma", fit.rho, fit.nu)


def test_summary_columns_describe_the_trajectory(gehan):
    traj = gehan.trajectory
    assert traj is gehan.trajectory
    assert traj == risk_trajectory(gehan)
    assert traj.span.tolist() == [
        t1 - t0 for t0, t1, _ in traj.segments()]
    assert traj.at_risk.tolist() == [m for _, _, m in traj.segments()]
    blocks = [(e.time, m - e.n_failures, e.n_failures)
              for (_, _, m), e in zip(traj.segments(), traj.events)
              if e.n_failures]
    assert list(zip(traj.fail_time.tolist(), traj.r.tolist(),
                    traj.d.tolist())) == blocks
    assert len(traj.d) == traj.num_failure_times == 7
    assert traj.d.sum() == traj.n_deaths == 9
    running = 0.0
    for t0, t1, m in traj.segments():
        running += m * (t1 - t0)
    assert traj.total_risk_time == running


def test_overflowing_risk_time_fails_only_the_fits_that_use_it():
    # 2 at risk over [0, 1e308] overflows the total time at risk
    data = Dataset.from_records([(1e308, 1), (1e308, 1), (1.5e308, 1)])
    assert data.trajectory.total_risk_time == math.inf
    km = kaplan_meier(data)
    assert km.times.tolist() == [1e308, 1.5e308]
    assert km.survival.tolist() == [1.0 / 3.0, 0.0]
    with pytest.raises(inference.DataError, match="time at risk"):
        fit_exponential(data)
    with pytest.raises(inference.DataError, match="time at risk"):
        fit_moment(data, "harmonic")


def test_fit_mle_fixed_rho(gehan):
    fit = fit_mle(gehan, "harmonic", fix_rho=10.0)
    assert fit.fixed_rho and fit.rho == 10.0
    assert fit.nu == pytest.approx(mle_nu_given_rho(gehan, "harmonic", 10.0),
                                   rel=1e-12)
    assert fit.se_log_nu == pytest.approx(1.0 / math.sqrt(7.0), rel=1e-12)


def test_fit_moment_gehan(gehan):
    mh = fit_moment(gehan, "harmonic")
    mg = fit_moment(gehan, "gamma")
    assert mh.rho == pytest.approx(19.73, abs=0.3)
    assert mh.nu == pytest.approx(0.49, abs=0.02)
    assert mg.rho == pytest.approx(19.24, abs=0.3)
    assert mg.nu == pytest.approx(0.49, abs=0.02)


def test_fit_moment_matches_death_rate_identity(gehan):
    for family in ("harmonic", "gamma"):
        fit = fit_moment(gehan, family)
        index = (HarmonicIndex(1.0, fit.rho) if family == "harmonic"
                 else GammaIndex(1.0, fit.rho))
        implied = fit.nu * index.unit_total_rate(1) * 359.0
        assert implied == pytest.approx(9.0, rel=1e-8)


def test_fit_moment_exponential_data():
    # rounded iid exponential draws carry ties, and at convergence the
    # implied marginal rate reproduces deaths over risk time exactly
    rng = make_rng(50)
    times = np.round(rng.exponential(2.0, size=120), 1) + 0.05
    d = Dataset(times=tuple(times), failed=(True,) * 120)
    fit = fit_moment(d, "gamma")
    index = GammaIndex(1.0, fit.rho)
    traj = risk_trajectory(d)
    risk_time = sum(m * (t1 - t0) for t0, t1, m in traj.segments())
    assert fit.nu * index.unit_total_rate(1) == pytest.approx(
        traj.n_deaths / risk_time, rel=1e-8)


def test_fit_moment_rejects_tie_free_data():
    d = Dataset(times=(1.0, 2.0, 3.0), failed=(True,) * 3)
    with pytest.raises(ParameterError):
        fit_moment(d, "gamma")


@pytest.mark.parametrize("family", ["harmonic", "gamma"])
def test_fit_moment_rejects_a_death_rate_without_a_root(family):
    # The implied rate stays below k / (last time at risk): here 4 deaths
    # over 13 units of risk time exceed 2 / 10.
    data = Dataset.from_records([(1.0, 1)] * 3 + [(10.0, 1)])
    with pytest.raises(ParameterError, match="no root"):
        fit_moment(data, family)
    # 6 deaths over 10 units lie below 2 / 3, and the fit matches them.
    data = Dataset.from_records([(1.0, 1)] * 5 + [(2.0, 1), (3.0, 0)])
    fit = fit_moment(data, family)
    index = inference.family_index(family, fit.rho, fit.nu)
    assert index.total_rate(1) == pytest.approx(6 / 10, rel=1e-8)


@pytest.mark.parametrize("family, rho", [("harmonic", 0.0278346),
                                         ("gamma", 9.09495e-13)])
def test_fit_moment_finds_a_root_at_small_rho(family, rho):
    # 4 deaths over 5.9 units lie just below 2 / 2.9, so the root sits at
    # small rho; a fixed-point iteration on rho crawls there.
    data = Dataset.from_records([(1.0, 1)] * 3 + [(2.9, 1)])
    fit = fit_moment(data, family)
    assert fit.rho == pytest.approx(rho, rel=1e-5)
    index = inference.family_index(family, fit.rho, fit.nu)
    assert index.total_rate(1) == pytest.approx(4 / 5.9, rel=1e-10)


@pytest.mark.parametrize("family", ["harmonic", "gamma"])
def test_fit_moment_solves_gehan_to_the_bisection_tolerance(gehan, family):
    fit = fit_moment(gehan, family)
    index = inference.family_index(family, fit.rho, fit.nu)
    assert index.total_rate(1) * 359.0 == pytest.approx(9.0, rel=1e-10)


def test_fit_moment_root_past_the_float_range_raises():
    # The gamma root falls like exp(-c / gap) as the death rate nears
    # 2 / (last time at risk): here it lies below rho = e**-511.
    data = Dataset.from_records([(1.0, 1)] * 3 + [(2.999, 1)])
    with pytest.raises(NumericError, match="root lies past rho = e..-511"):
        fit_moment(data, "gamma")


def test_fit_rejects_all_censored():
    d = Dataset(times=(1.0, 2.0), failed=(False, False))
    with pytest.raises(ParameterError):
        fit_mle(d, "harmonic")


def test_simulated_calibration_of_scale_estimate():
    # the scale estimate at the true shape should land within three
    # conditional standard errors of the truth most of the time
    rng = make_rng(51)
    ix = HarmonicIndex(1.0, 5.0)
    hits = 0
    fits = 50
    for _ in range(fits):
        traj = simulate(500, ix, rng=rng)
        records = []
        for e in traj.events:
            records.extend([(e.time, True)] * e.n_failures)
        data = Dataset.from_records(records)
        fit = fit_mle(data, "harmonic", fix_rho=5.0)
        k = sufficient_stats(data, "harmonic", 5.0).num_failure_times
        if abs(math.log(fit.nu)) <= 3.0 / math.sqrt(k):
            hits += 1
    assert hits >= 0.8 * fits


# ---------------------------------------------------------------------------
# profile interval


def test_profile_interval_gehan(gehan):
    lo, hi = profile_interval(fit_mle(gehan, "harmonic"), 0.95)
    assert lo == pytest.approx(1.3, abs=0.3)
    assert hi == pytest.approx(5.1, abs=0.3)
    lo_g, hi_g = profile_interval(fit_mle(gehan, "gamma"), 0.95)
    assert lo_g == pytest.approx(1.2, abs=0.3)
    assert hi_g == pytest.approx(5.1, abs=0.3)


def test_profile_interval_quadratic_matches_wald():
    from marksurv.inference import FitResult

    mu, sigma = 1.3, 0.45
    xs = np.linspace(mu - 4 * sigma, mu + 4 * sigma, 801)
    prof = tuple((math.exp(x), -0.5 * ((x - mu) / sigma) ** 2) for x in xs)
    fit = FitResult(family="harmonic", method="mle", rho=math.exp(mu),
                    nu=1.0, loglik=0.0, se_rho=0.0, se_nu=0.0,
                    se_log_rho=sigma, se_log_nu=0.0, profile=prof)
    lo, hi = profile_interval(fit, 0.95)
    z = math.sqrt(stats.chi2.ppf(0.95, 1))
    assert lo == pytest.approx(mu - z * sigma, abs=1e-6)
    assert hi == pytest.approx(mu + z * sigma, abs=1e-6)


# ---------------------------------------------------------------------------
# product-limit estimator


def test_km_without_censoring_is_ecdf():
    d = Dataset(times=(1.0, 2.0, 3.0, 4.0), failed=(True,) * 4)
    km = kaplan_meier(d)
    for t, expect in ((0.5, 1.0), (1.0, 0.75), (2.5, 0.5), (4.0, 0.0)):
        assert km(t) == pytest.approx(expect, rel=1e-14)


def test_km_gehan_first_factor(gehan):
    km = kaplan_meier(gehan)
    assert km(6.0) == pytest.approx(6.0 / 7.0, rel=1e-12)


def test_km_is_small_rho_limit_of_atom_factors(gehan):
    traj = risk_trajectory(gehan)
    ix = HarmonicIndex(1.0, 1e-8)
    alive = traj.n_initial
    km_factors = []
    atom_factors = []
    for e in traj.events:
        if e.n_failures:
            r = alive - e.n_failures
            km_factors.append(r / (r + e.n_failures))
            atom_factors.append(ix.block_rate(r + 1, e.n_failures)
                                / ix.block_rate(r, e.n_failures))
        alive -= e.n_failures + e.n_censored
    np.testing.assert_allclose(atom_factors, km_factors, atol=1e-6)


# ---------------------------------------------------------------------------
# empirical-Bayes curves


def test_empirical_bayes_means_gehan(gehan):
    fg = fit_mle(gehan, "gamma")
    curve_g = empirical_bayes_curve(gehan, fg, [10.0])
    assert curve_g.marginal_rate == pytest.approx(2.47e-2, rel=0.02)
    assert curve_g.mean_survival == pytest.approx(40.52, abs=0.3)
    fh = fit_mle(gehan, "harmonic")
    curve_h = empirical_bayes_curve(gehan, fh, [10.0])
    assert curve_h.mean_survival == pytest.approx(40.52, abs=0.3)
    expo = fit_exponential(gehan)
    assert expo.mean == pytest.approx(359.0 / 9.0, rel=1e-14)
    assert expo.rate == pytest.approx(9.0 / 359.0, rel=1e-14)


def test_predictive_brackets_km_and_exponential(gehan):
    fit = fit_mle(gehan, "harmonic")
    curve = empirical_bayes_curve(gehan, fit, [10.0])
    km = kaplan_meier(gehan)(10.0)
    expo = math.exp(-10.0 * 9.0 / 359.0)
    lo, hi = sorted((km, expo))
    assert lo - 0.02 <= curve.survival[0] <= hi + 0.02


def test_fit_result_serializes(gehan):
    fit = fit_mle(gehan, "harmonic")
    payload = json.loads(fit.to_json())
    assert payload["family"] == "harmonic"
    assert payload["rho"] == pytest.approx(fit.rho)
    assert len(payload["profile"]) == 60


# ---------------------------------------------------------------------------
# tie handling


def test_tie_splitting_prediction_invariance(gehan):
    # breaking the three-way tie at week six into closely spaced singletons
    # leaves harmonic predictions essentially unchanged but moves the
    # logarithmic family's predictions by a measurable amount; the split
    # goes downward so the censored-at-six record stays after the failures
    eps = 1e-9
    records = []
    bumped = 0
    for t, f in zip(gehan.times, gehan.failed):
        if t == 6.0 and f:
            records.append((t - (2 - bumped) * eps, f))
            bumped += 1
        else:
            records.append((t, f))
    split_data = Dataset.from_records(records)
    grid = np.concatenate([np.linspace(0.5, 5.9, 12),
                           np.linspace(6.1, 35.0, 40)])
    from marksurv.process import predictive_survival

    gaps = {}
    for family, rho, nu in (("harmonic", 21.45, 0.53),
                            ("gamma", 20.95, 0.53)):
        index = (HarmonicIndex(nu, rho) if family == "harmonic"
                 else GammaIndex(nu, rho))
        base = predictive_survival(grid, risk_trajectory(gehan), index)
        moved = predictive_survival(grid, risk_trajectory(split_data), index)
        gaps[family] = np.abs(base - moved).max()
    assert gaps["harmonic"] < 1e-6
    assert gaps["gamma"] > 2e-6
    assert gaps["gamma"] > 100.0 * gaps["harmonic"]


def test_sample_mean_variance_floor():
    # pairwise correlation keeps the sample-mean variance away from zero
    rng = make_rng(52)
    ix = HarmonicIndex(1.0, 1.0)
    floor = 1.0 / ix.total_rate(2) ** 2
    reps = 500
    var_by_n = {}
    for n in (10, 100, 1000):
        means = np.empty(reps)
        for i in range(reps):
            sizes = sample_block_sizes(n, ix, rng)
            # regenerate times from the embedded chain: holding times are
            # exponential at the total rate of the current risk count
            t, total, left = 0.0, 0.0, n
            for s in sizes:
                t += rng.exponential(1.0 / ix.total_rate(left))
                total += s * t
                left -= s
            means[i] = total / n
        var_by_n[n] = means.var(ddof=1)
    # iid-only variance would be 1/n; the exchangeable floor dominates
    assert var_by_n[1000] > 50.0 / 1000.0
    assert var_by_n[1000] == pytest.approx(floor, rel=0.5)
    assert var_by_n[100] == pytest.approx(var_by_n[1000], rel=0.5)
