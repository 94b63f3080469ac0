import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

from marksurv import random_measure
from marksurv.index import GammaIndex, HarmonicIndex, ParameterError
from marksurv.random_measure import (MeasureRealization, ResourceError,
                                     compare_constructions,
                                     gamma_interval_totals, joint_survival,
                                     realization_to_csv, sample_gamma_measure,
                                     sample_survival_times)


def make_rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# gamma measure sampler


def test_interval_total_is_gamma_distributed():
    rng = make_rng(30)
    tot = gamma_interval_totals(1.0, 1.0, [0.0, 1.0], 1e-8, 10000, rng)[:, 0]
    p = stats.kstest(tot, "gamma", args=(1.0, 0.0, 1.0)).pvalue
    assert p > 0.01
    tot2 = gamma_interval_totals(2.0, 3.0, [0.0, 0.5], 1e-8, 10000, rng)[:, 0]
    p2 = stats.kstest(tot2, "gamma", args=(1.0, 0.0, 1.0 / 3.0)).pvalue
    assert p2 > 0.01


def test_disjoint_intervals_independent():
    rng = make_rng(31)
    tot = gamma_interval_totals(1.0, 1.0, [0.0, 1.0, 2.0], 1e-8, 10000, rng)
    r = np.corrcoef(tot[:, 0], tot[:, 1])[0, 1]
    assert abs(r) * math.sqrt(tot.shape[0]) < 3.0


def _four_step_quantiles(rho, eps, u):
    """The masses as drawn before the inverse-tail table: interpolation on
    512 points, then four Newton steps on E1 for every atom."""
    target = u * special.exp1(rho * eps)
    z_hi = max(4.0 * eps, 80.0 / rho)
    grid = np.geomspace(eps, z_hi, 512)
    z = np.interp(-target, -special.exp1(rho * grid), grid)
    for _ in range(4):
        f = special.exp1(rho * z) - target
        z = np.clip(z + f * z * np.exp(np.minimum(rho * z, 700.0)), eps, z_hi)
    return z


def _exact_quantile(rho, eps, u, start):
    """z with E1(rho z) = u E1(rho eps), by Newton at 40 digits."""
    with mp.workdps(40):
        rho, target = mp.mpf(rho), mp.mpf(u) * mp.e1(mp.mpf(rho) * eps)
        z = mp.mpf(start)
        for _ in range(8):
            z += (mp.e1(rho * z) - target) * z * mp.exp(rho * z)
        assert abs(mp.e1(rho * z) / target - 1) < mp.mpf(10) ** -35
        return z


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-2])
@pytest.mark.parametrize("rho", [1e-3, 0.3, 1.0, 20.0, 1e3])
def test_mass_inverse_matches_high_precision(rho, eps):
    u = np.array([1.0, 0.5, 1e-9, 2.0 ** -53])
    z = random_measure._gamma_mass_inverse(rho, eps)(u)
    for ui, zi in zip(u.tolist(), z.tolist()):
        exact = _exact_quantile(rho, eps, ui, zi)
        assert abs(zi / exact - 1) <= 5e-15


def test_four_step_masses_give_the_same_counts(monkeypatch):
    def run():
        rep = compare_constructions(1.0, 1.0, 3, (0.25, 0.75), 1500, 1e-6,
                                    make_rng(50))
        tot = gamma_interval_totals(1.0, 1.0, [0.0, 0.5, 1.0], 1e-7, 2000,
                                    make_rng(51))
        return rep, tot, sample_gamma_measure(1.0, 1.0, 50.0, 1e-7,
                                              make_rng(52)).masses
    rep, tot, z = run()
    monkeypatch.setattr(random_measure, "_gamma_mass_inverse",
                        lambda rho, eps: lambda u: _four_step_quantiles(
                            rho, eps, u))
    old_rep, old_tot, old_z = run()
    assert np.array_equal(rep.survival_emp, old_rep.survival_emp)
    assert np.array_equal(rep.count_emp, old_rep.count_emp)
    assert np.allclose(tot, old_tot, rtol=1e-13, atol=0.0)
    # One ulp of E1 moves z by E1(z) e^z ulps (about 16 at the truncation);
    # one more Newton step of the four-step routine moves its own masses by
    # up to 9 times that.
    cond = np.maximum(special.exp1(old_z) * np.exp(old_z), 1.0)
    assert np.all(np.abs(z - old_z) <= 12.0 * cond * np.spacing(old_z))


@pytest.mark.parametrize("nu, rho, eps", [(0.0, 1.0, 1e-6), (1.0, 800.0, 1.0)])
def test_draw_without_atoms_builds_no_inverse(monkeypatch, nu, rho, eps):
    def no_build(rho, eps):
        raise AssertionError("inverse built")
    monkeypatch.setattr(random_measure, "_gamma_mass_inverse", no_build)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sample_gamma_measure(nu, rho, 5.0, eps, make_rng(53)).n_atoms == 0
        tot = gamma_interval_totals(nu, rho, [0.0, 1.0], eps, 50, make_rng(54))
    assert not tot.any()


def test_lifetimes_build_one_inverse(monkeypatch):
    builds = []
    build = random_measure._gamma_mass_inverse
    monkeypatch.setattr(random_measure, "_gamma_mass_inverse",
                        lambda rho, eps: builds.append(rho) or build(rho, eps))
    monkeypatch.setattr(random_measure, "_CHUNK", 100)
    random_measure._measure_lifetimes(1.0, 1.0, 2, 1e-6, 350, make_rng(55))
    assert builds == [1.0]


def test_zero_intensity_gives_empty_measure():
    rng = make_rng(32)
    m = sample_gamma_measure(0.0, 1.0, 5.0, 1e-6, rng)
    assert m.n_atoms == 0
    assert m.total() == 0.0


def test_expected_total_mass_near_untruncated_mean():
    rng = make_rng(33)
    nu, rho = 1.0, 1.0
    tot = gamma_interval_totals(nu, rho, [0.0, 1.0], 1e-6, 1000, rng)[:, 0]
    se = tot.std(ddof=1) / math.sqrt(tot.size)
    assert abs(tot.mean() - nu / rho) < max(3.0 * se, 0.02 * nu / rho)


def test_truncation_guard():
    rng = make_rng(34)
    with pytest.raises(ResourceError):
        sample_gamma_measure(1.0, 1.0, 1e6, 1e-300, rng)


def test_laplace_exponent_identity():
    rng = make_rng(35)
    nu, rho = 1.0, 1.0
    tot = gamma_interval_totals(nu, rho, [0.0, 1.0], 1e-8, 100000, rng)[:, 0]
    for t in (1.0, 2.0, 5.0):
        emp = -math.log(np.exp(-t * tot).mean())
        exact = nu * math.log1p(t / rho)
        assert abs(emp / exact - 1.0) < 0.02


def test_atom_contribution_rate_limit():
    # the expected contribution of a shrinking interval to the joint density
    # approaches the block rate linearly in the interval width
    nu, rho = 1.0, 1.0
    ix = GammaIndex(nu, rho)
    r, d = 2, 3
    target = nu * ix.unit_block_rate(r, d)

    def contribution(dt):
        val = sum((-1.0) ** j * math.comb(d, j)
                  * math.exp(-nu * dt * math.log1p((r + j) / rho))
                  for j in range(d + 1))
        return val / dt

    errs = [abs(contribution(dt) - target) for dt in (1e-2, 1e-3, 1e-4)]
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(10.0, rel=0.25)


# ---------------------------------------------------------------------------
# conditional lifetimes


def test_drift_only_lifetimes_exponential():
    rng = make_rng(36)
    m = MeasureRealization(t_max=100.0, drift=0.7,
                           locations=np.array([]), masses=np.array([]),
                           truncation=1e-9)
    t = sample_survival_times(20000, m, rng)
    t = t[np.isfinite(t)]
    assert stats.kstest(t, "expon", args=(0.0, 1.0 / 0.7)).pvalue > 0.01


def test_two_atom_measure_enumeration():
    rng = make_rng(37)
    x1, z1 = 1.0, 0.6
    x2, z2 = 2.0, 1.1
    m = MeasureRealization(t_max=3.0, drift=0.0,
                           locations=np.array([x1, x2]),
                           masses=np.array([z1, z2]), truncation=1e-9)
    reps = 100000
    t = sample_survival_times(reps, m, rng)
    p1 = -math.expm1(-z1)
    p2 = math.exp(-z1) * -math.expm1(-z2)
    for value, prob in ((x1, p1), (x2, p2)):
        hat = (t == value).mean()
        se = math.sqrt(prob * (1.0 - prob) / reps)
        assert abs(hat - prob) < 3.0 * se
    hat_inf = np.isinf(t).mean()
    p_inf = math.exp(-z1 - z2)
    assert abs(hat_inf - p_inf) < 3.0 * math.sqrt(p_inf * (1 - p_inf) / reps)


def test_empty_draw():
    rng = make_rng(38)
    m = MeasureRealization(t_max=1.0, drift=0.5, locations=np.array([]),
                           masses=np.array([]), truncation=1e-9)
    assert sample_survival_times(0, m, rng).size == 0


def test_drift_plus_atoms_survival_function():
    rng = make_rng(39)
    m = MeasureRealization(t_max=10.0, drift=0.4,
                           locations=np.array([0.5, 2.0]),
                           masses=np.array([0.8, 0.5]), truncation=1e-9)
    reps = 200000
    t = sample_survival_times(reps, m, rng)
    for q in (0.25, 0.5, 1.0, 3.0, 6.0):
        h = 0.4 * q + 0.8 * (q >= 0.5) + 0.5 * (q >= 2.0)
        expect = math.exp(-h)
        hat = (t > q).mean()
        se = math.sqrt(expect * (1 - expect) / reps)
        assert abs(hat - expect) < 4.0 * se


# ---------------------------------------------------------------------------
# exact joint survival


def test_joint_survival_examples():
    g = GammaIndex(1.0, 1.0)
    assert joint_survival([0.0, 0.0], g) == 1.0
    assert joint_survival([2.0], g) == pytest.approx(
        math.exp(-g.total_rate(1) * 2.0), rel=1e-14)
    assert joint_survival([1.0, 2.0], g) == pytest.approx(1.0 / 6.0,
                                                          rel=1e-12)


def test_joint_survival_exchangeable():
    h = HarmonicIndex(1.0, 2.0)
    assert joint_survival([0.3, 1.2, 0.7], h) == pytest.approx(
        joint_survival([1.2, 0.7, 0.3], h), rel=1e-14)


# ---------------------------------------------------------------------------
# equivalence of the two constructions


def test_constructions_agree_moderate_scale():
    rng = make_rng(40)
    rep = compare_constructions(1.0, 1.0, 3, [0.5, 1.0, 2.0],
                                reps=20000, eps=1e-7, rng=rng)
    assert rep.max_abs_z < 4.0


def test_truncation_insensitivity():
    rng = make_rng(41)
    a = compare_constructions(1.0, 1.0, 2, [0.5, 1.5], reps=20000,
                              eps=2e-7, rng=rng)
    b = compare_constructions(1.0, 1.0, 2, [0.5, 1.5], reps=20000,
                              eps=1e-7, rng=rng)
    se = np.sqrt(a.survival_exact * (1.0 - a.survival_exact) / a.reps)
    assert np.all(np.abs(a.survival_emp - b.survival_emp) < 2.0 * se)


def test_single_particle_equivalence():
    rng = make_rng(42)
    rep = compare_constructions(1.0, 1.0, 1, [0.5, 1.0, 2.0],
                                reps=20000, eps=1e-7, rng=rng)
    assert rep.max_abs_z < 4.0


# nu = 5 puts the grid's far corner at exact survival 3.1e-7: 0.006 expected
# hits in 20,000 reps, where a normal approximation turns a single hit into
# a z-score of 5.6 (it did so on seeds 2 and 3).
RARE_CELLS = dict(nu=5.0, rho=1.0, n=3, grid_values=[0.36, 1.08, 2.16],
                  reps=20000, eps=1e-7)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_rare_survival_cells_raise_no_false_alarm(seed):
    rep = compare_constructions(**RARE_CELLS, rng=make_rng(seed))
    assert rep.survival_exact.min() * rep.reps < 0.01
    assert rep.max_abs_z < 4.0


@pytest.mark.parametrize("bias", [0.8, 1.2])
def test_biased_exact_survival_is_flagged(monkeypatch, bias):
    exact = random_measure.joint_survival
    monkeypatch.setattr(random_measure, "joint_survival",
                        lambda times, index: bias * exact(times, index))
    rep = compare_constructions(**RARE_CELLS, rng=make_rng(1))
    assert rep.max_abs_z > 4.0


def test_binomial_z_is_the_normal_score_of_the_mid_p_tail():
    hits = np.array([0, 1, 2, 50, 100, 150, 20000])
    p = np.array([1.5e-6, 1.5e-6, 1.5e-6, 0.005, 0.005, 0.005, 0.5])
    z = random_measure._binomial_z(hits, 20000, p)
    mid = np.array([float(stats.binom.cdf(h - 1, 20000, q)
                          + 0.5 * stats.binom.pmf(h, 20000, q))
                    for h, q in zip(hits, p)])
    inner = (mid > 1e-12) & (mid < 1.0 - 1e-12)
    assert np.allclose(z[inner], stats.norm.ppf(mid[inner]), rtol=1e-9)
    # One hit where 0.03 were expected is unremarkable; far tails stay
    # finite and keep their sign.
    assert 1.5 < z[1] < 2.5
    assert z[0] == pytest.approx(-0.0375, abs=0.01)
    assert z[-1] > 30.0 and np.all(np.isfinite(z))


BAD_MEASURE = [(-1.0, 1.0, 1e-6), (math.nan, 1.0, 1e-6), (1.0, 0.0, 1e-6),
               (1.0, -2.0, 1e-6), (1.0, math.nan, 1e-6), (1.0, 1.0, 0.0),
               (1.0, 1.0, -1e-6), (1.0, 1.0, math.nan)]


@pytest.mark.parametrize("nu, rho, eps", BAD_MEASURE)
def test_bad_measure_parameters_raise_parameter_error(monkeypatch, nu, rho,
                                                      eps):
    monkeypatch.setattr(random_measure, "_gamma_mass_inverse", None)
    rng = make_rng(43)
    with pytest.raises(ParameterError):
        compare_constructions(nu, rho, 2, [0.5, 1.0], 100, eps, rng)
    with pytest.raises(ParameterError):
        gamma_interval_totals(nu, rho, [0.0, 1.0], eps, 100, rng)
    with pytest.raises(ParameterError):
        sample_gamma_measure(nu, rho, 1.0, eps, rng)
    with pytest.raises(ParameterError, match="t_max"):
        sample_gamma_measure(nu, rho, 0.0, eps, rng)


@pytest.mark.parametrize("reps", [0, -1])
def test_compare_needs_a_rep(reps):
    with pytest.raises(ParameterError):
        compare_constructions(1.0, 1.0, 2, [0.5, 1.0], reps, 1e-6,
                              make_rng(44))


def test_compare_enforces_the_atom_budget(monkeypatch):
    # about 29 atoms per rep in the first window, so 200 reps need ~5,700
    monkeypatch.setattr(random_measure, "_MAX_ATOMS", 1000)
    monkeypatch.setattr(random_measure, "_gamma_mass_inverse", None)
    with pytest.raises(ResourceError, match="expected atom count"):
        compare_constructions(1.0, 1.0, 2, [0.5, 1.0], 200, 1e-6,
                              make_rng(45))


def test_compare_resolves_long_lifetimes():
    # mean single lifetime 1 / (0.01 log 2), about 144
    rep = compare_constructions(0.01, 1.0, 3, [1.0, 50.0], 500, 1e-6,
                                make_rng(46))
    assert rep.count_emp.sum() == pytest.approx(1.0)
    assert rep.max_abs_z < 4.0


@pytest.mark.parametrize("nu, rho, eps", [(1.0, 1.0, 1e-6),
                                          (0.05, 0.1, 1e-4)])
def test_single_measure_lifetimes_are_exponential(nu, rho, eps):
    # With n = 1 a lifetime is Exp with the truncated measure's Laplace
    # exponent at 1, nu (E1(rho eps) - E1((rho + 1) eps)), which tends to
    # nu log(1 + 1/rho) as eps -> 0.
    t = random_measure._measure_lifetimes(nu, rho, 1, eps, 20000,
                                          make_rng(47))[:, 0]
    width = random_measure._WINDOW_LIFETIMES / (nu * math.log1p(1.0 / rho))
    assert np.count_nonzero(t > 2.0 * width) > 500  # crossing windows
    rate = nu * (special.exp1(rho * eps) - special.exp1((rho + 1.0) * eps))
    assert stats.kstest(t, "expon", args=(0.0, 1.0 / rate)).pvalue > 0.01


def test_realization_csv():
    m = MeasureRealization(t_max=2.0, drift=0.0,
                           locations=np.array([0.5, 1.5]),
                           masses=np.array([0.25, 1.0]), truncation=1e-6)
    text = realization_to_csv(m)
    lines = text.strip().splitlines()
    assert lines[0] == "location,mass"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == 0.25
