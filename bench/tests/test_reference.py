"""The reference routines agree with each other along independent routes,
and each notices a planted 1e-6 relative error in one rate."""

import math

import mpmath as mp
import numpy as np
import pytest

import reference as ref

PLANT = 1e-6


def _planted(rates, r, d):
    """Copy of triangle rates with lambda(r, d) raised by PLANT relative."""
    log_lam = rates.log_lam.copy()
    log_lam[r, d] += math.log1p(PLANT)
    return ref.TriangleRates(rates.n, log_lam, rates.log_psi, rates.dps)


def _q(rates):
    n = rates.n
    q = np.full((n + 1, n + 1), np.nan)
    for m in range(1, n + 1):
        d = np.arange(1, m + 1)
        q[m - d, d] = np.exp(rates.row(m) - rates.log_psi[m])
    return q


@pytest.fixture(scope="module")
def gamma30():
    return ref.exact_triangle("gamma", {"rho": 1.1}, 30)


def test_triangle_rows_normalize_and_table_checks_catch_plant(gamma30):
    assert np.max(np.abs(ref.row_sums(gamma30, 30) - 1.0)) < 1e-13
    q = _q(gamma30)
    norm, add = ref.table_defects(q, 30)
    assert norm < 1e-13 and add < 1e-12
    assert ref.table_vs_rates(q, gamma30, 30) < 1e-14
    q[7, 9] *= 1.0 + PLANT
    _, add = ref.table_defects(q, 30)
    assert add > 100 * ref.TOL_EXACT
    assert ref.table_vs_rates(q, gamma30, 30) > 100 * ref.TOL_EXACT


def test_alternating_sum_matches_triangle(gamma30):
    for r, d in ((0, 1), (3, 7), (12, 18), (0, 30)):
        got = ref.mp_block_log_rate("gamma", {"rho": 1.1}, r, d)
        assert got == pytest.approx(gamma30.log_lam[r, d], rel=1e-14,
                                    abs=1e-14)


def test_precision_follows_cancellation():
    # 120 fixed digits give power(0.5) lambda(150, 150) wrong by about 2%;
    # the adaptive routine must agree with a 400-digit evaluation.
    psi = ref.mp_psi("power", {"alpha": 0.5})
    with mp.workdps(400):
        exact = mp.log(mp.fsum((-1) ** (j + 1) * mp.binomial(150, j)
                               * psi(150 + j) for j in range(151)))
    got = ref.mp_block_log_rate("power", {"alpha": 0.5}, 150, 150)
    assert got == pytest.approx(float(exact), rel=1e-14)


def test_dp_catches_plant(gamma30):
    mu, m2 = ref.block_count_moments(gamma30, 30)
    planted, _ = ref.block_count_moments(_planted(gamma30, 29, 1), 30)
    assert abs(planted[30] - mu[30]) / mu[30] > 100 * ref.TOL_EXACT
    assert np.all(m2 >= mu ** 2)


def test_closed_forms_match_the_additive_identity():
    # The lgamma route and the psi-difference route agree for harmonic.
    n = 40
    closed = ref.closed_rates("harmonic", {"rho": 0.7}, n)
    tri = ref.exact_triangle("harmonic", {"rho": 0.7}, n)
    for m in range(1, n + 1):
        assert np.allclose(closed.row(m), tri.row(m), rtol=0, atol=1e-12)
    assert np.allclose(closed.log_psi[1:], tri.log_psi[1:], atol=1e-13)
    mu_c, _ = ref.block_count_moments(closed, n)
    mu_t, _ = ref.block_count_moments(tri, n)
    assert mu_c[n] == pytest.approx(mu_t[n], rel=1e-13)
    planted = ref.SeparableRates(n, closed.a.copy(), closed.b, closed.c,
                                 closed.log_psi)
    planted.a[1] += math.log1p(PLANT)      # every singleton rate
    mu_p, _ = ref.block_count_moments(planted, n)
    assert abs(mu_p[n] - mu_c[n]) / mu_c[n] > 100 * ref.TOL_EXACT


@pytest.mark.parametrize("family,params", [
    ("beta", {"rho": 1.3, "beta": -0.5}),
    ("geometric", {"alpha": 0.45}),
])
def test_closed_rows_normalize(family, params):
    rates = ref.closed_rates(family, params, 300)
    assert np.max(np.abs(ref.row_sums(rates, 300) - 1.0)) < 1e-12


def test_first_block_and_count_laws(gamma30):
    p = ref.first_block_law(gamma30, 12)
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-14)
    law = ref.block_count_law(gamma30, 6)
    mu, m2 = ref.block_count_moments(gamma30, 6)
    k = np.arange(law.size)
    assert law @ k == pytest.approx(mu[6], rel=1e-13)
    assert law @ k ** 2 == pytest.approx(m2[6], rel=1e-13)
    bad = ref.first_block_law(_planted(gamma30, 11, 1), 12)
    assert abs(math.fsum(bad) - 1.0) > 100 * ref.TOL_EXACT
    bad_law = ref.block_count_law(_planted(gamma30, 5, 1), 6)
    assert abs(bad_law @ k - mu[6]) / mu[6] > 100 * ref.TOL_EXACT


RECORDS = ([1.0, 2.0, 2.0, 2.0, 3.5, 4.0, 4.0, 6.0],
           [True, True, True, False, True, False, True, False])


def test_kaplan_meier_and_exponential_by_hand():
    times, status = RECORDS
    km = ref.kaplan_meier(times, status, [0.0, 1.0, 2.0, 3.9, 4.0, 7.0])
    s1 = 7 / 8
    s2 = s1 * (1 - 2 / 7)
    s35 = s2 * (1 - 1 / 4)
    s4 = s35 * (1 - 1 / 3)
    assert np.allclose(km, [1.0, s1, s2, s35, s4, s4], rtol=1e-15)
    rate, ll = ref.exponential_fit(times, status)
    assert rate == 5 / 24.5
    assert ll == pytest.approx(5 * math.log(rate) - 5, rel=1e-15)


def _rows(times, status):
    return [(t, f, c) for t, f, c, _ in ref.group_records(times, status)]


def test_harmonic_product_formula_matches_rates():
    times, status = RECORDS
    rho, nu = 0.8, 1.7
    grid = np.linspace(0.0, 7.0, 29)
    rates = ref.closed_rates("harmonic", {"rho": rho}, len(times) + 1)
    own = ref.harmonic_predictive(times, status, rho, nu, grid)
    via = ref.predictive_from_rates(_rows(times, status), len(times), rates,
                                    nu, grid)
    assert np.allclose(own, via, rtol=1e-13, atol=0)
    assert own[0] == 1.0 and np.all(np.diff(own) <= 0)
    planted = ref.SeparableRates(rates.n, rates.a, rates.b.copy(), rates.c,
                                 rates.log_psi)
    planted.b[4] += math.log1p(PLANT)       # lambda(4, d) for every d
    bad = ref.predictive_from_rates(_rows(times, status), len(times),
                                    planted, nu, grid)
    assert np.max(np.abs(bad - own) / own) > 100 * ref.TOL_EXACT


def test_gamma_predictive_and_loglik_match_rates():
    times, status = RECORDS
    rho, nu = 1.3, 0.9
    grid = np.linspace(0.0, 7.0, 15)
    tri = ref.exact_triangle("gamma", {"rho": rho}, len(times) + 1)
    own = ref.gamma_predictive(times, status, rho, nu, grid)
    via = ref.predictive_from_rates(_rows(times, status), len(times), tri,
                                    nu, grid)
    assert np.allclose(own, via, rtol=1e-13, atol=0)
    ll = ref.censored_loglik(times, status, "gamma", rho, nu)
    dens = ref.log_density_from_rates(_rows(times, status), len(times), tri,
                                      nu)
    assert ll == pytest.approx(dens, rel=1e-13)
    bad = ref.log_density_from_rates(_rows(times, status), len(times),
                                     _planted(tri, 5, 2), nu)
    assert abs(bad - dens) / abs(dens) > 10 * ref.TOL_EXACT


def test_harmonic_loglik_matches_rates():
    times, status = RECORDS
    rates = ref.closed_rates("harmonic", {"rho": 2.0}, len(times) + 1)
    ll = ref.censored_loglik(times, status, "harmonic", 2.0, 1.4)
    dens = ref.log_density_from_rates(_rows(times, status), len(times),
                                      rates, 1.4)
    assert ll == pytest.approx(dens, rel=1e-13)


def test_gamma_joint_survival_single_and_pair():
    nu, rho = 1.2, 0.9
    assert ref.gamma_joint_survival([0.7], nu, rho) == pytest.approx(
        math.exp(-nu * math.log1p(1 / rho) * 0.7), rel=1e-15)
    both = ref.gamma_joint_survival([0.5, 0.5], nu, rho)
    assert both == pytest.approx(math.exp(-nu * math.log1p(2 / rho) * 0.5),
                                 rel=1e-15)
