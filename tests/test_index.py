import math
from dataclasses import fields
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from marksurv import index as index_mod
from marksurv.index import (FAMILIES, MAX_TABLE_ROWS, BetaSplitIndex,
                            DislocationMeasure, GammaIndex, GeometricIndex,
                            HarmonicIndex, LevyMeasure, LinearIndex,
                            LinearShiftIndex, MeasureIndex, NumericError,
                            ParameterError, PowerIndex, ResourceError,
                            build_table, consistency_defect,
                            dislocation_from_levy, index_from_spec,
                            levy_from_dislocation, normalization_defect,
                            weak_continuity_defect)
from marksurv.process import simulate, simulate_seeded
from marksurv.ranking import expected_blocks

mp.mp.dps = 50

BUILTINS = [
    HarmonicIndex(1.0, 1.0),
    HarmonicIndex(2.5, 0.7),
    GammaIndex(1.0, 1.0),
    GammaIndex(1.0, 3.0),
    PowerIndex(0.5),
    PowerIndex(0.9),
    GeometricIndex(0.3),
    GeometricIndex(0.5),
    LinearIndex(),
    LinearShiftIndex(1.0),
    BetaSplitIndex(2.0, 0.5),
    BetaSplitIndex(1.0, -0.5),
]


def mp_sequence(index):
    """High-precision version of the unit-scale sequence.

    Arguments are assembled in mpmath arithmetic; mixing in float additions
    here injects rounding noise that the alternating sums amplify.
    """
    if isinstance(index, HarmonicIndex):
        rho = mp.mpf(index.rho)
        return lambda n: mp.digamma(mp.mpf(n) + rho) - mp.digamma(rho)
    if isinstance(index, GammaIndex):
        return lambda n: mp.log(1 + mp.mpf(n) / index.rho)
    if isinstance(index, PowerIndex):
        return lambda n: mp.mpf(n) ** mp.mpf(index.alpha)
    if isinstance(index, GeometricIndex):
        return lambda n: 1 - mp.mpf(index.alpha) ** n
    if isinstance(index, LinearIndex):
        return lambda n: mp.mpf(n)
    if isinstance(index, LinearShiftIndex):
        return lambda n: mp.mpf(n) + index.rho if n >= 1 else mp.mpf(0)
    if isinstance(index, BetaSplitIndex):
        rho, beta = mp.mpf(index.rho), mp.mpf(index.beta)
        cache = {}

        def seq(n):
            if n not in cache:
                cache[n] = mp.quad(
                    lambda x: (1 - x ** n) * x ** (rho - 1)
                    * (1 - x) ** (beta - 1), [0, 1])
            return cache[n]

        return seq
    raise AssertionError


def mp_rate(seq, r, d):
    return float(sum((-1) ** (j + 1) * mp.binomial(d, j) * seq(r + j)
                     for j in range(d + 1)))


# ---------------------------------------------------------------------------
# total rate (the index sequence itself)


def test_harmonic_sequence_is_partial_harmonic_sum():
    ix = HarmonicIndex(1.0, 1.0)
    assert ix.total_rate(3) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("index", BUILTINS, ids=lambda ix: ix.describe())
def test_sequence_starts_at_zero_and_increases(index):
    assert index.total_rate(0) == 0.0
    assert index.total_rate(1) > 0.0
    prev = 0.0
    for n in range(1, 41):
        cur = index.total_rate(n)
        # the cumulative value may saturate in floats (bounded families),
        # but the exact increment is always positive
        assert cur >= prev
        assert index.unit_block_rate(n - 1, 1) > 0.0
        prev = cur


def test_gamma_sequence_value():
    assert GammaIndex(1.0, 1.0).total_rate(1) == pytest.approx(math.log(2.0),
                                                               rel=1e-15)


def test_scale_multiplies_total_rate():
    assert HarmonicIndex(3.0, 2.0).total_rate(5) == pytest.approx(
        3.0 * HarmonicIndex(1.0, 2.0).total_rate(5), rel=1e-15)


# ---------------------------------------------------------------------------
# block rates


def test_harmonic_block_rate_closed_form():
    ix = HarmonicIndex(1.0, 1.0)
    assert ix.block_rate(0, 2) == pytest.approx(math.gamma(2) / (1.0 * 2.0),
                                                rel=1e-14)


def test_linear_block_rate_vanishes_for_ties():
    ix = LinearIndex()
    for r in (0, 3, 17):
        assert ix.block_rate(r, 2) == 0.0
        assert ix.block_rate(r, 1) == 1.0


def test_geometric_block_rate():
    assert GeometricIndex(0.5).block_rate(1, 1) == pytest.approx(0.25,
                                                                 rel=1e-15)


@pytest.mark.parametrize("index", BUILTINS, ids=lambda ix: ix.describe())
def test_block_rates_match_high_precision_differences(index):
    seq = mp_sequence(index)
    worst = 0.0
    for r in range(0, 30, 3):
        for d in range(1, 31, 3):
            if r + d > 40:
                continue
            exact = mp_rate(seq, r, d)
            got = index.unit_block_rate(r, d)
            if exact == 0.0:
                assert got == 0.0
            else:
                worst = max(worst, abs(got - exact) / exact)
    assert worst < 1e-10


def test_log_block_rate_matches_value():
    ix = GammaIndex(1.0, 2.0)
    for r, d in [(0, 1), (3, 2), (5, 12), (0, 25)]:
        assert ix.log_unit_block_rate(r, d) == pytest.approx(
            math.log(ix.unit_block_rate(r, d)), abs=1e-12)


# ---------------------------------------------------------------------------
# splitting probabilities


def test_linear_split_prob():
    ix = LinearIndex()
    for r in range(6):
        assert ix.split_prob(r, 1) == pytest.approx(1.0 / (r + 1), rel=1e-14)


def test_uniform_splitting_rule_from_beta():
    # singleton split 1/n**2 corresponds to the (1, 1) beta-type measure and
    # the uniform rule q(n-d, d) = (n-d)! d! / (n * n!)
    ix = BetaSplitIndex(1.0, 1.0)
    assert ix.split_prob(3, 1) == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert ix.split_prob(2, 2) == pytest.approx(
        math.factorial(2) * math.factorial(2) / (4 * math.factorial(4)),
        rel=1e-12)


def test_harmonic_split_prob_example():
    assert HarmonicIndex(1.0, 1.0).split_prob(0, 2) == pytest.approx(
        1.0 / 3.0, rel=1e-14)


def test_split_prob_rejects_bad_block():
    with pytest.raises(ParameterError):
        HarmonicIndex(1.0, 1.0).split_prob(0, 0)
    with pytest.raises(ParameterError):
        HarmonicIndex(1.0, 1.0).split_prob(-1, 1)


def test_standardization_invariance():
    base = HarmonicIndex(1.0, 2.0)
    for kappa in (0.1, 3.0, 250.0):
        scaled = HarmonicIndex(kappa, 2.0)
        for r, d in [(0, 1), (2, 3), (10, 5)]:
            assert scaled.split_prob(r, d) == base.split_prob(r, d)


# ---------------------------------------------------------------------------
# tables and diagnostics


def test_build_table_harmonic_small():
    tab = build_table(HarmonicIndex(1.0, 1.0), 2)
    assert tab.prob(0, 1) == pytest.approx(1.0, rel=1e-14)
    assert tab.prob(1, 1) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert tab.prob(0, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_build_table_linear():
    tab = build_table(LinearIndex(), 3)
    for r in range(3):
        assert tab.prob(r, 1) == pytest.approx(1.0 / (r + 1), rel=1e-14)
    assert tab.prob(0, 2) == 0.0
    assert tab.prob(1, 2) == 0.0 and tab.prob(0, 3) == 0.0


def test_build_table_linear_shift():
    tab = build_table(LinearShiftIndex(1.0), 3)
    for n in (2, 3):
        assert tab.prob(n - 1, 1) == pytest.approx(1.0 / (n + 1), rel=1e-14)
        assert tab.prob(0, n) == pytest.approx(1.0 / (n + 1), rel=1e-14)


@pytest.mark.parametrize("index", BUILTINS, ids=lambda ix: ix.describe())
def test_normalization_defect_small(index):
    tab = build_table(index, 50)
    assert normalization_defect(tab) < 1e-10


def test_normalization_detects_perturbation():
    tab = build_table(HarmonicIndex(1.0, 1.0), 10)
    tab.probs[2, 3] = 0.0
    assert normalization_defect(tab, 5) > 1e-3


def test_normalization_defect_equals_exact_sum_up_to_the_row_cap():
    # The cap is the largest n whose binomials C(n, d) all fit in a float.
    assert MAX_TABLE_ROWS == 1029
    assert math.isfinite(float(math.comb(1029, 514)))
    with pytest.raises(OverflowError):
        float(math.comb(1030, 515))
    # Binomials by Pascal's rule in floats against exact ones, both times
    # the stored probabilities; row 984 holds the table's largest defect.
    tab = build_table(HarmonicIndex(1.0, 1.0), MAX_TABLE_ROWS)
    for m in (57, 984, 1029):
        exact = sum(math.comb(m, d) * Fraction(tab.probs[m - d, d])
                    for d in range(1, m + 1)) - 1
        assert abs(normalization_defect(tab, m) - abs(exact)) <= 1e-15
    assert normalization_defect(tab) == normalization_defect(tab, 984)


@pytest.mark.parametrize("index", BUILTINS, ids=lambda ix: ix.describe())
def test_consistency_defect_small(index):
    tab = build_table(index, 41)
    worst = max(consistency_defect(tab, n, d)
                for n in range(1, 41) for d in range(1, n + 1))
    assert worst < 1e-10


def test_consistency_detects_perturbation():
    tab = build_table(BetaSplitIndex(2.0, 0.5), 12)
    assert consistency_defect(tab, 10, 3) < 1e-10
    tab.probs[7, 3] *= 1.01
    assert consistency_defect(tab, 10, 3) > 1e-5


def test_build_table_rejects_non_finite():
    # The table reads diagonal r + d = 4 in one rate call and fills the rest.
    class Broken(GammaIndex):
        def _log_rates(self, r, d):
            out = super()._log_rates(r, d)
            out[(r == 1) & (d == 3)] = math.nan
            return out

    with pytest.raises(NumericError, match=r"q\(1,3\)"):
        build_table(Broken(1.0, 1.0), 4)


@pytest.mark.parametrize("index", [
    HarmonicIndex(1.0, 1e8),
    BetaSplitIndex(1.0, 1e-12),
    BetaSplitIndex(1e8, 0.5),
], ids=lambda ix: ix.describe())
def test_build_table_closed_forms_at_extreme_parameters(index):
    # The closed-form totals cancel here, and so do the log-gamma
    # differences of the harmonic and beta rates at large rho; the
    # singleton sum and Stirling's series keep every row normalized.
    tab = build_table(index, 5)
    assert normalization_defect(tab) < 1e-12
    traj = simulate(5, index, rng=np.random.default_rng(8))
    assert traj.n_deaths == 5


def test_total_rate_without_cancellation():
    rho = mp.mpf(1e8)
    exact = mp.digamma(5 + rho) - mp.digamma(rho)
    assert HarmonicIndex(1.0, 1e8).unit_total_rate(5) == pytest.approx(
        float(exact), rel=1e-14)
    for r, d in [(0, 1), (2, 3), (40, 7)]:
        exact = mp.log(mp.beta(d, rho + r))
        assert HarmonicIndex(1.0, 1e8).log_unit_block_rate(r, d) \
            == pytest.approx(float(exact), abs=1e-13)
    beta = mp.mpf(1e-12)
    exact = mp.fsum(mp.beta(1 + k, beta + 1) for k in range(5))
    assert BetaSplitIndex(1.0, 1e-12).unit_total_rate(5) == pytest.approx(
        float(exact), rel=1e-14)


@pytest.mark.parametrize("rho, beta", [
    (2.0, 0.5), (1.0, -0.5), (1.0, -0.9), (1.0, 1e-12), (2.0, 1e-3),
    (50.0, 1e-4), (60.0, 3.0), (99.0, -0.5), (300.0, -0.5), (1e8, 0.5),
    (0.02, -0.7), (0.2, -0.5), (0.5, -0.5), (0.5, -0.9),
    (1.0, 170.0), (1.0, 500.0), (0.01, 200.0), (150.0, 400.0)])
def test_beta_total_rates_match_mpmath(rho, beta):
    # psi(n) = B(rho, beta) - B(rho + n, beta).  Where Gamma(rho + beta) <= 0
    # the two ends add, and from beta = 171 Gamma(beta + 1) overflows.
    ix = BetaSplitIndex(rho, beta)
    for n in (1, 5, 17, 1000):
        exact = mp.beta(rho, beta) - mp.beta(mp.mpf(rho) + n, beta)
        assert ix.unit_total_rate(n) == pytest.approx(
            float(exact), rel=index_mod._CANCEL_TOL), n


@pytest.mark.parametrize("rho, beta, psi5", [
    (1.0, 500.0, 0.00199999999999255), (0.01, 200.0, 94.3037989470999),
    (150.0, 400.0, 2.61806129640807e-141)])
def test_beta_total_rates_at_large_beta(rho, beta, psi5):
    # psi(5) to the 15 digits mpmath gives.
    assert BetaSplitIndex(rho, beta).unit_total_rate(5) == pytest.approx(
        psi5, rel=5e-13)


@pytest.mark.parametrize("rho", [0.5, 1.0, 150.0])
def test_beta_at_zero_is_harmonic_bit_for_bit(rho):
    def pair():
        return BetaSplitIndex(rho, 0.0), HarmonicIndex(1.0, rho)

    beta, harm = pair()
    r, d = np.arange(400) % 53, 1 + np.arange(400) % 29
    assert np.array_equal(beta._log_rates(r, d), harm._log_rates(r, d))
    for a, b in zip(r.tolist(), d.tolist()):
        assert beta.log_unit_block_rate(a, b) == harm.log_unit_block_rate(a, b)
    for n in (1, 2, 5, 17, 300, 5000):
        assert beta.unit_total_rate(n) == harm.unit_total_rate(n)
    rows = [index_mod._first_block_reader(ix, 300) for ix in pair()]
    for m in (300, 17, 2, 1):
        assert np.array_equal(rows[0](m), rows[1](m))
    assert expected_blocks(300, pair()[0]) == expected_blocks(300, pair()[1])
    streams = []
    for ix in pair():
        rng = np.random.default_rng(6)
        traj = simulate(40, ix, rng=rng)
        streams.append((traj, simulate_seeded(traj, 30, ix, rng)))
    assert streams[0] == streams[1]


@pytest.mark.parametrize("rho", [1e5, 1e6])
def test_gamma_quadrature_at_large_rho(rho):
    # The integrand peaks near z = (d - 1) / (rho + r); before the
    # quadrature was rescaled it missed that peak.
    ix = GammaIndex(1.0, rho)
    tab = build_table(ix, 10)
    assert normalization_defect(tab) < 1e-12
    seq = mp_sequence(ix)
    for r, d in [(0, 10), (1, 9), (5, 5)]:
        with mp.workdps(120):
            exact = mp_rate(seq, r, d)
        assert ix.unit_block_rate(r, d) == pytest.approx(exact, rel=1e-11)


# ---------------------------------------------------------------------------
# rows of the rate triangle


def gamma_measure_index(nu=1.0, rho=1.0):
    """MeasureIndex built from the gamma Levy measure nu exp(-rho z) / z."""
    levy = LevyMeasure(density=lambda z: nu * math.exp(-rho * z) / z)
    dislocation, erosion = dislocation_from_levy(levy)
    return MeasureIndex(dislocation=dislocation, erosion=erosion)


FILLED = [GammaIndex(1.0, 1.0), GammaIndex(2.0, 7.5), PowerIndex(0.5),
          PowerIndex(0.9), LinearShiftIndex(1.5)]


@pytest.mark.parametrize("index", FILLED + [gamma_measure_index()],
                         ids=lambda ix: type(ix).__name__)
def test_filled_rows_match_entrywise_rates(index):
    n = 30
    read = index._log_row_reader(n)
    rows = [read(m) for m in range(n, 0, -1)]
    assert [len(row) for row in rows] == list(range(n, 0, -1))
    for row in rows:
        m = len(row)
        direct = np.array([index.log_unit_block_rate(m - d, d)
                           for d in range(1, m + 1)])
        zero = np.isneginf(direct)
        assert np.array_equal(np.isneginf(row), zero)
        # Each inward step of the fill rounds once (gamma and power agree to
        # 7e-15 at n = 30); the measure index's entries carry the error of
        # their own quadratures (2.9e-13).
        assert np.max(np.abs(row[~zero] - direct[~zero])) <= 1e-12


@pytest.mark.parametrize("index", FILLED[:4], ids=lambda ix: ix.describe())
def test_filled_rows_match_high_precision_differences(index):
    n = 30
    seq = mp_sequence(index)
    read = index._log_row_reader(n)
    with mp.workdps(60):
        for row in map(read, range(n, 0, -1)):
            m = len(row)
            exact = np.array([math.log(mp_rate(seq, m - d, d))
                              for d in range(1, m + 1)])
            assert np.max(np.abs(row - exact)) <= 1e-12


def test_gamma_block_count_reads_one_diagonal(monkeypatch):
    calls = {"rate": 0, "quad": 0}
    rate = GammaIndex._log_rates
    quad = index_mod.integrate.quad

    def counted_rate(self, r, d):
        calls["rate"] += len(d)
        return rate(self, r, d)

    def counted_quad(*args, **kwargs):
        calls["quad"] += 1
        return quad(*args, **kwargs)

    monkeypatch.setattr(GammaIndex, "_log_rates", counted_rate)
    monkeypatch.setattr(index_mod.integrate, "quad", counted_quad)
    expected_blocks(64, GammaIndex(1.0, 1.0))
    assert calls["rate"] == 64
    assert calls["quad"] <= 64


def test_table_above_row_cap_evaluates_nothing():
    class Untouchable(GammaIndex):
        def log_unit_block_rate(self, r, d):
            raise AssertionError("rate evaluated")

        def unit_block_rate(self, r, d):
            raise AssertionError("rate evaluated")

        def unit_total_rate(self, n):
            raise AssertionError("rate evaluated")

    ix = Untouchable(1.0, 1.0)
    with pytest.raises(ResourceError):
        build_table(ix, MAX_TABLE_ROWS + 1)


# ---------------------------------------------------------------------------
# weak continuity


def test_weak_continuity_zero_for_harmonic():
    ix = HarmonicIndex(1.3, 2.2)
    worst = max(abs(weak_continuity_defect(ix, r, d))
                for r in range(0, 29) for d in range(1, 30 - r))
    assert worst < 1e-9


def test_weak_continuity_gamma_value():
    ix = GammaIndex(1.0, 1.0)
    lam = ix.unit_block_rate
    exact = (math.log(lam(2, 2) / lam(1, 2))
             - math.log(lam(3, 1) / lam(1, 1)))
    got = weak_continuity_defect(ix, 1, 2)
    assert got == pytest.approx(exact, abs=1e-12)
    assert abs(got) > 1e-4


def test_weak_continuity_singletons_always_zero():
    for ix in BUILTINS:
        for r in (0, 2, 7):
            assert weak_continuity_defect(ix, r, 1) == 0.0


def test_weak_continuity_separates_families():
    nonzero = [GammaIndex(1.0, 1.0), PowerIndex(0.5), GeometricIndex(0.5),
               BetaSplitIndex(1.0, 0.5), BetaSplitIndex(1.0, -0.5)]
    for ix in nonzero:
        worst = max(abs(weak_continuity_defect(ix, r, d))
                    for r in range(0, 6) for d in range(2, 6))
        assert worst > 1e-6, ix.describe()
    assert abs(weak_continuity_defect(BetaSplitIndex(2.0, 0.0), 3, 4)) < 1e-12


# The converse: at d = 2, weak continuity and the additive identity give
# 2 / a(r + 1) = 1 / a(r) + 1 / a(r + 2) for a(r) = lambda(r, 1), so 1 / a(r)
# is arithmetic, a(r) = nu / (rho + r), and lambda(0, 1), lambda(1, 1) fix
# both parameters.  Every other rate then follows by products, with no
# cancellation: lambda(0, d + 1) = lambda(0, d) d / (rho + d) and
# lambda(r + 1, d) = lambda(r, d) (rho + r) / (rho + r + d).
_CONVERSE_INDICES = [HarmonicIndex(0.7, 2.3), HarmonicIndex(1.0, 0.5)]


def _two_rate_parameters(ix):
    """(nu, rho) read off lambda(0, 1) and lambda(1, 1)."""
    a0, a1 = ix.block_rate(0, 1), ix.block_rate(1, 1)
    return a0 * a1 / (a0 - a1), a1 / (a0 - a1)


def _converse_pairs(seed, count=400, top=1000):
    """Seeded (r, d) with d >= 1 and r + d <= top."""
    rng = np.random.default_rng(seed)
    pairs = []
    for n in rng.integers(1, top + 1, size=count).tolist():
        d = int(rng.integers(1, n + 1))
        pairs.append((n - d, d))
    return pairs


def _rates_by_products(a0, rho, pairs):
    """lambda(r, d) at each pair from lambda(0, 1) = a0 and rho alone."""
    first = [a0]
    for d in range(1, max(d for _, d in pairs)):
        first.append(first[-1] * d / (rho + d))
    rates = []
    for r, d in pairs:
        v = first[d - 1]
        for j in range(r):
            v *= (rho + j) / (rho + j + d)
        rates.append(v)
    return rates


@pytest.mark.parametrize("ix", _CONVERSE_INDICES, ids=str)
def test_two_rates_recover_the_harmonic_parameters(ix):
    nu, rho = _two_rate_parameters(ix)
    assert nu == pytest.approx(ix.nu, rel=1e-14, abs=0.0)
    assert rho == pytest.approx(ix.rho, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("ix", _CONVERSE_INDICES, ids=str)
def test_product_recursion_matches_high_precision_rates(ix):
    pairs = _converse_pairs(71)
    _, rho = _two_rate_parameters(ix)
    got = _rates_by_products(ix.block_rate(0, 1), rho, pairs)
    with mp.workdps(30):
        nu, rho_mp = mp.mpf(ix.nu), mp.mpf(ix.rho)
        worst = max(abs(mp.mpf(v) / (nu * mp.beta(d, rho_mp + r)) - 1)
                    for v, (r, d) in zip(got, pairs))
    assert worst <= 1e-13


@pytest.mark.xfail(strict=True, reason=(
    "HarmonicIndex below rho = 100 takes lgamma(d) + lgamma(rho + r) - "
    "lgamma(rho + r + d), which loses about eps * lgamma(rho + r + d) to "
    "cancellation in the beta-integral route it shares with the beta "
    "family (ROADMAP item 9, harmonic log rates): up to 1.6e-12 "
    "relative from the product recursion on these (r, d)"))
@pytest.mark.parametrize("ix", _CONVERSE_INDICES, ids=str)
def test_harmonic_rates_within_1e13_of_the_product_recursion(ix):
    pairs = _converse_pairs(71)
    _, rho = _two_rate_parameters(ix)
    want = _rates_by_products(ix.block_rate(0, 1), rho, pairs)
    worst = max(abs(ix.block_rate(r, d) / v - 1)
                for v, (r, d) in zip(want, pairs))
    assert worst <= 1e-13


# ---------------------------------------------------------------------------
# family-wide invariants


@pytest.mark.parametrize("index", BUILTINS, ids=lambda ix: ix.describe())
def test_rates_positive_probabilities_monotone(index):
    lam = np.full((41, 41), np.nan)
    for r in range(41):
        for d in range(1, 41 - r + 1):
            if r + d > 40:
                continue
            v = index.unit_block_rate(r, d)
            q = index.split_prob(r, d)
            assert v >= 0.0
            assert 0.0 <= q <= 1.0
            lam[r, d] = v
    tol = 1e-12
    for r in range(40):
        for d in range(1, 40):
            if r + d + 1 > 40:
                continue
            assert lam[r + 1, d] <= lam[r, d] + tol
            assert lam[r, d + 1] <= lam[r, d] + tol


def test_gamma_rate_close_to_shifted_harmonic():
    # the shifted closed form approximates the gamma differences with
    # relative error of order 1/t**2
    for rho in (1.0, 2.0):
        g = GammaIndex(1.0, rho)
        for t in (10, 15, 25, 40):
            for d in range(1, 6):
                approx = math.exp(math.lgamma(d)
                                  + math.lgamma(rho + t + 0.5)
                                  - math.lgamma(rho + t + 0.5 + d))
                rel = abs(g.unit_block_rate(t, d) / approx - 1.0)
                assert rel < 5.0 / t ** 2


# ---------------------------------------------------------------------------
# parameter validation


def test_difference_positivity_probe():
    from marksurv.index import difference_positivity_defect

    assert difference_positivity_defect(HarmonicIndex(1.0, 1.0), 25) == 0.0
    assert difference_positivity_defect(GammaIndex(1.0, 2.0), 25) == 0.0


def test_spec_record_round_trip():
    ix = index_from_spec("harmonic", nu=1.5, rho=2.0)
    assert isinstance(ix, HarmonicIndex)
    assert ix.describe() == "harmonic(nu=1.5, rho=2.0)"
    assert index_from_spec("beta", rho=1.0, beta=-0.5).describe() \
        == "beta(rho=1.0, beta=-0.5)"


def test_parameter_domains():
    with pytest.raises(ParameterError):
        HarmonicIndex(0.0, 1.0)
    with pytest.raises(ParameterError):
        GammaIndex(1.0, -2.0)
    with pytest.raises(ParameterError):
        PowerIndex(1.0)
    with pytest.raises(ParameterError):
        GeometricIndex(0.0)
    with pytest.raises(ParameterError):
        BetaSplitIndex(1.0, -1.0)
    with pytest.raises(ParameterError):
        LinearShiftIndex(-0.5)
    with pytest.raises(ParameterError):
        levy_from_dislocation(DislocationMeasure(atoms=((0.5, 1.0),)),
                              math.inf)
    with pytest.raises(ParameterError):
        index_from_spec("nonsense")


# Parameters away from each family's defaults, for every family but measure.
SPEC_PARAMS = {"harmonic": {"nu": 0.7, "rho": 2.3},
               "gamma": {"nu": 0.7, "rho": 2.3},
               "power": {"alpha": 0.3}, "geometric": {"alpha": 0.3},
               "linear": {}, "linear-shift": {"rho": 0.4},
               "beta": {"rho": 2.0, "beta": -0.5}}


@pytest.mark.parametrize("name", sorted(SPEC_PARAMS))
def test_family_identity_round_trips_and_hashes(name):
    ix = index_from_spec(name, **SPEC_PARAMS[name])
    text = ix.describe()
    family, _, rest = text[:-1].partition("(")
    params = {k: float(v) for k, v in
              (item.split("=") for item in rest.split(", ") if item)}
    assert family == name and params == SPEC_PARAMS[name]
    twin = index_from_spec(family, **params)
    assert twin.describe() == text
    assert twin == ix and hash(twin) == hash(ix) and twin is not ix
    assert type(twin) is FAMILIES[name]


def test_families_sharing_parameters_stay_distinct():
    from marksurv.cli import build_parser
    from marksurv.inference import FITTED_FAMILIES

    assert set(SPEC_PARAMS) == set(FAMILIES) - {"measure"}
    assert HarmonicIndex(1.0, 1.0) != GammaIndex(1.0, 1.0)
    assert PowerIndex(0.5) != GeometricIndex(0.5)
    assert [f.name for f in fields(GammaIndex)] == ["nu", "rho"]
    assert FITTED_FAMILIES == ("harmonic", "gamma")
    commands = build_parser()._subparsers._group_actions[0].choices
    for command in ("simulate", "blocks"):
        family = next(a for a in commands[command]._actions
                      if a.dest == "family")
        assert family.choices == ["harmonic", "gamma", "power", "geometric",
                                  "linear", "linear-shift", "beta"]


@pytest.mark.parametrize("make, message", [
    (lambda: HarmonicIndex(0.0, 1.0), "nu must be finite and > 0, got 0.0"),
    (lambda: HarmonicIndex(1.0, -2.0), "rho must be finite and > 0, got -2.0"),
    (lambda: GammaIndex(math.inf, 1.0), "nu must be finite and > 0, got inf"),
    (lambda: GammaIndex(1.0, 0.0), "rho must be finite and > 0, got 0.0"),
    (lambda: PowerIndex(1.0), "alpha must lie in (0, 1), got 1.0"),
    (lambda: GeometricIndex(0.0), "alpha must lie in (0, 1), got 0.0"),
    (lambda: BetaSplitIndex(1.0, -1.0),
     "beta must be finite and > -1, got -1.0"),
    (lambda: LinearShiftIndex(-0.5), "rho must be finite and >= 0, got -0.5"),
])
def test_parameter_domain_messages(make, message):
    with pytest.raises(ParameterError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("family, param", [
    (name, f.name) for name, cls in FAMILIES.items() for f in fields(cls)
    if f.type in (float, "float")])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_parameters_must_be_finite(family, param, value):
    extra = ({"dislocation": DislocationMeasure(atoms=((0.5, 1.0),))}
             if family == "measure" else {})
    with pytest.raises(ParameterError, match=param):
        index_from_spec(family, **extra, **{param: value})


# ---------------------------------------------------------------------------
# many rates in one array call


def _family(name, rho, alpha, beta):
    return {
        "harmonic": lambda: HarmonicIndex(1.0, rho),
        "gamma": lambda: GammaIndex(1.0, rho),
        "power": lambda: PowerIndex(alpha),
        "geometric": lambda: GeometricIndex(alpha),
        "linear": lambda: LinearIndex(),
        "linear-shift": lambda: LinearShiftIndex(rho),
        "beta": lambda: BetaSplitIndex(rho, beta),
    }[name]()


@pytest.mark.parametrize("name", ["harmonic", "gamma", "power", "geometric",
                                  "linear", "linear-shift", "beta"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(log_rho=st.floats(-3.0, 8.0), alpha=st.floats(0.05, 0.95),
       beta=st.floats(-0.9, 3.0),
       pairs=st.lists(st.tuples(st.integers(0, 1500), st.integers(1, 600)),
                      min_size=1, max_size=6))
def test_array_rates_match_entrywise_rates(name, log_rho, alpha, beta, pairs):
    ix = _family(name, 10.0 ** log_rho, alpha, beta)
    r = np.array([p[0] for p in pairs])
    d = np.array([p[1] for p in pairs])
    got = ix._log_rates(r, d)
    direct = np.array([ix.log_unit_block_rate(int(a), int(b))
                       for a, b in pairs])
    zero = np.isneginf(direct)
    assert got.shape == r.shape
    assert np.array_equal(np.isneginf(got), zero)
    assert np.all(np.abs(got[~zero] - direct[~zero]) <= 5e-12)


def mp_log_rate(index, r, d, approx):
    """log lambda(r, d) by the alternating sum of the index sequence in
    mpmath, with the digits the sum loses (estimated from ``approx``, the
    float value under test) plus 30."""
    lost = (d * math.log10(2.0) + (math.log(index.unit_total_rate(r + d))
                                   - approx) / math.log(10.0))
    seq = mp_sequence(index)
    with mp.workdps(30 + int(lost)):
        total, comb = mp.mpf(0), mp.mpf(1)
        for j in range(d + 1):
            total += (-1) ** (j + 1) * comb * seq(r + j)
            comb = comb * (d - j) / (j + 1)
        return float(mp.log(total))


# The corners d = 600 at rho >= 1e5 need 1,800-3,600 digits (3-11 s each in
# pure-Python mpmath), so the large-rho cases stop at d = 300 and 200.
GAMMA_MP_CASES = {
    1e-3: [(0, 2), (1500, 2), (0, 600), (1500, 300), (37, 45), (700, 120)],
    1.0: [(0, 2), (1500, 2), (0, 600), (1500, 300), (37, 45), (700, 120)],
    10.58: [(0, 2), (1500, 2), (0, 600), (1500, 300), (37, 45), (700, 120)],
    1e5: [(0, 2), (1500, 2), (0, 200), (1500, 300), (37, 45), (700, 120)],
    1e8: [(0, 2), (1500, 2), (0, 200), (37, 45), (700, 120)],
}


@pytest.mark.parametrize("rho", sorted(GAMMA_MP_CASES))
def test_gamma_array_rule_matches_high_precision_differences(rho):
    pairs = GAMMA_MP_CASES[rho]
    ix = GammaIndex(1.0, rho)
    got = ix._log_rates(np.array([p[0] for p in pairs]),
                        np.array([p[1] for p in pairs]))
    for (r, d), v in zip(pairs, got):
        assert abs(v - mp_log_rate(ix, r, d, v)) <= 1e-12


# The d = 1 closed form, the r = 0 entries (integrated by parts) and the
# general rule at both ends of r and d.
POWER_MP_PAIRS = [(0, 1), (1, 1), (37, 1), (1500, 1), (0, 2), (0, 45),
                  (0, 600), (1, 2), (1, 600), (1500, 2), (1500, 300),
                  (37, 45), (700, 120)]


@pytest.mark.parametrize("alpha", [0.02, 0.3, 0.7, 0.99])
def test_power_array_rule_matches_high_precision_differences(alpha):
    ix = PowerIndex(alpha)
    got = ix._log_rates(np.array([p[0] for p in POWER_MP_PAIRS]),
                        np.array([p[1] for p in POWER_MP_PAIRS]))
    for (r, d), v in zip(POWER_MP_PAIRS, got):
        assert abs(v - mp_log_rate(ix, r, d, v)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.97, 0.99, 0.999])
def test_power_near_one_needs_no_quadrature(monkeypatch, alpha):
    # Entry (n - 2, 2) misses the tolerance on 257 nodes and passes on 513.
    def refused(self, r, d):
        raise AssertionError(f"quadrature asked for ({r}, {d})")

    monkeypatch.setattr(PowerIndex, "_log_rate_quad", refused)
    ix = PowerIndex(alpha)
    r = np.array([48, 198, 998])
    for a, v in zip(r.tolist(), ix._log_rates(r, np.full(3, 2))):
        assert abs(v - mp_log_rate(ix, a, 2, v)) <= 1e-12


# A single gamma or power rate is its entry of the array rule, to the bit.
@pytest.mark.parametrize("index", [
    GammaIndex(1.0, 1.0), GammaIndex(2.0, 7.5), PowerIndex(0.5),
    PowerIndex(0.9), PowerIndex(0.99)], ids=lambda ix: ix.describe())
def test_single_rate_is_its_array_entry(index):
    r, d = np.meshgrid(np.arange(300), np.arange(1, 40), indexing="ij")
    r, d = r.ravel(), d.ravel()
    single = [index.log_unit_block_rate(a, b)
              for a, b in zip(r.tolist(), d.tolist())]
    assert np.array_equal(single, index._log_rates(r, d))


def test_single_gamma_rate_matches_high_precision_difference():
    # Scalar quadrature, which accepts an error estimate up to 1e-8
    # relative, is off here by 4.0e-9 in log.
    ix = GammaIndex(1.0, 1.0)
    v = ix.log_unit_block_rate(285, 34)
    assert abs(v - mp_log_rate(ix, 285, 34, v)) <= 1e-13


def mp_log_integral(a, k, beta):
    """log I(a, k, beta) = log of the integral of z**(-1 - beta) exp(-a z)
    (1 - exp(-z))**k over z > 0, in mpmath at 40 digits: the integrand in
    log space, in v = z / log(1 + k / a), where it peaks near v = 1, and
    split there, so that a peak far narrower than its distance from 0 is
    not missed.  About 0.1-0.2 s per entry up to k near 1e6."""
    with mp.workdps(40):
        a, k, beta = mp.mpf(a), mp.mpf(k), mp.mpf(beta)
        scale = mp.log1p(k / a)
        rate = a * scale

        def log_f(v):
            return (-rate * v + k * mp.log(-mp.expm1(-scale * v))
                    - (1 + beta) * mp.log(v))

        peak = log_f(1)
        value = mp.quad(lambda v: mp.exp(log_f(v) - peak), [0, 1, mp.inf])
        return peak + mp.log(value) - beta * mp.log(scale)


def mp_integral_rate(index, r, d):
    """log lambda(r, d) of a gamma or power index from ``mp_log_integral``:
    gamma is I(rho + r, d, 0); power is alpha / Gamma(1 - alpha)
    I(r, d, alpha), and at r = 0, integrated by parts,
    d / Gamma(1 - alpha) I(1, d - 1, alpha - 1)."""
    if isinstance(index, GammaIndex):
        return float(mp_log_integral(mp.mpf(index.rho) + r, d, 0))
    al = mp.mpf(index.alpha)
    with mp.workdps(40):
        if r == 0:
            return float(mp.log(d) - mp.loggamma(1 - al)
                         + mp_log_integral(1, d - 1, al - 1))
        return float(mp.log(al) - mp.loggamma(1 - al)
                     + mp_log_integral(r, d, al))


@pytest.mark.parametrize("index, r, d", [
    (GammaIndex(1.0, 2.3), 37, 45), (GammaIndex(1.0, 1e5), 700, 120),
    (PowerIndex(0.3), 0, 45), (PowerIndex(0.7), 37, 45),
    (PowerIndex(0.99), 1500, 2)], ids=str)
def test_integral_oracle_matches_high_precision_differences(index, r, d):
    v = mp_integral_rate(index, r, d)
    assert abs(v - mp_log_rate(index, r, d, v)) <= 1e-13 * abs(v)


# Blocks whose array-rule estimate fails, and whose scalar quadrature on
# (0, inf) in one piece missed part of the narrow peak at v = 1: by log 2,
# 25.4 and 89 nats, and for power it raised.
@pytest.mark.parametrize("index, r, d", [
    (GammaIndex(1.0, 1.0), 229494, 931426),
    (GammaIndex(1.0, 1.0), 264749, 931426),
    (GammaIndex(1.0, 1.0), 958110, 2988668),
    (PowerIndex(0.5), 24901, 61938), (PowerIndex(0.5), 41202, 52797),
], ids=str)
def test_fallback_at_a_narrow_peak_matches_high_precision(index, r, d):
    v = index.log_unit_block_rate(r, d)
    assert abs(v - mp_integral_rate(index, r, d)) <= 1e-12 * abs(v)


def test_scalar_quadrature_matches_high_precision():
    # In one piece on (0, inf) it was off by 4.0e-9 here.
    v = GammaIndex(1.0, 1.0)._log_rate_quad(285, 34)
    assert abs(v - mp_integral_rate(GammaIndex(1.0, 1.0), 285, 34)) \
        <= 1e-12 * abs(v)


@pytest.mark.parametrize("index", [
    GammaIndex(1.0, 1e-8), GammaIndex(1.0, 1.0), GammaIndex(1.0, 1e8),
    PowerIndex(1e-3), PowerIndex(0.5), PowerIndex(0.999)], ids=str)
def test_every_integral_rate_is_finite_at_any_risk_set_size(index):
    # 1,480 blocks on a log grid up to MAX_RISK_SET at risk; 230 to 430 of
    # them fall back to scalar quadrature.
    g = np.unique(np.rint(np.geomspace(1, 4e6, 40))).astype(int)
    r, d = np.meshgrid(np.concatenate([[0], g]), g, indexing="ij")
    keep = r + d <= index_mod.MAX_RISK_SET
    assert keep.sum() == 1480
    assert np.all(np.isfinite(index._log_rates(r[keep], d[keep])))


def _plant_failed_estimates(monkeypatch, ks):
    """Make the array rule report a failed error estimate (NaN) for every
    integral I(a, k, beta) with k in ``ks``."""
    rule = index_mod._trapezoid

    def planted(a, k, beta):
        return np.where(np.isin(k, ks), np.nan, rule(a, k, beta))

    monkeypatch.setattr(index_mod, "_trapezoid", planted)


def _check_failed_estimates(monkeypatch, ix, r, d, expected):
    """Only the entries planted as failed reach ``_log_rate_quad``, in order,
    and they agree with the array rule's own answer."""
    calls = []
    quad = type(ix)._log_rate_quad

    def recorded(self, r, d):
        calls.append((r, d))
        return quad(self, r, d)

    monkeypatch.setattr(type(ix), "_log_rate_quad", recorded)
    clean = ix._log_rates(r, d)
    assert calls == []
    _plant_failed_estimates(monkeypatch, [9, 30])
    got = ix._log_rates(r, d)
    assert calls == expected
    redone = np.array([pair in expected
                       for pair in zip(r.tolist(), d.tolist())])
    assert np.array_equal(got[~redone], clean[~redone])
    assert np.all(np.abs(got[redone] - clean[redone]) <= 5e-12)


def test_gamma_failed_estimates_go_to_scalar_quadrature(monkeypatch):
    r = np.array([0, 5, 12, 40, 3, 7, 900])
    d = np.array([2, 9, 1, 30, 4, 2, 9])
    _check_failed_estimates(monkeypatch, GammaIndex(1.0, 3.0), r, d,
                            [(5, 9), (40, 30), (900, 9)])


def test_power_failed_estimates_go_to_scalar_quadrature(monkeypatch):
    # At r = 0 the rule integrates I(1, d - 1, alpha - 1), so (0, 10) is
    # planted through k = 9 and (0, 9) is not.
    r = np.array([0, 5, 12, 40, 0, 7, 900, 0])
    d = np.array([10, 9, 1, 30, 9, 2, 9, 1])
    _check_failed_estimates(monkeypatch, PowerIndex(0.7), r, d,
                            [(0, 10), (5, 9), (40, 30), (900, 9)])


def test_gamma_fallback_that_does_not_converge_raises(monkeypatch):
    _plant_failed_estimates(monkeypatch, [7])
    monkeypatch.setattr(index_mod.integrate, "quad",
                        lambda *args, **kwargs: (1.0, 1.0, {}))
    with pytest.raises(NumericError, match="did not converge"):
        GammaIndex(1.0, 2.0)._log_rates(np.array([3, 4]), np.array([2, 7]))


# (0, 12) of power is planted through k = 11: at r = 0 the rule integrates
# I(1, d - 1, alpha - 1).
@pytest.mark.parametrize("make_index, r, d, k", [
    (lambda: GammaIndex(1.0, 2.0), 3, 20, 20),
    (lambda: PowerIndex(0.5), 0, 12, 11),
], ids=["gamma", "power"])
def test_failed_scalar_rate_is_not_remembered(monkeypatch, make_index, r, d,
                                              k):
    calls = []

    def planted(*args, **kwargs):
        calls.append(args[1:3])
        return (1.0, 1.0, {}, "did not converge")

    _plant_failed_estimates(monkeypatch, [k])
    monkeypatch.setattr(index_mod.integrate, "quad", planted)
    ix = make_index()
    for attempt in range(1, 4):
        with pytest.raises(NumericError, match="did not converge"):
            ix.log_unit_block_rate(r, d)
        assert len(calls) == attempt


@pytest.mark.parametrize("make_index", [
    lambda: GammaIndex(1.0, 2.0), lambda: PowerIndex(0.7),
], ids=["gamma", "power"])
def test_rate_memo_stays_within_its_bound(monkeypatch, make_index):
    pairs = [(r, d) for r in (0, 3, 40) for d in (1, 2, 5, 12)] * 2
    alone = [make_index().log_unit_block_rate(r, d) for r, d in pairs]
    monkeypatch.setattr(index_mod, "_MEMO_MAX", 8)
    ix = make_index()
    got = []
    for r, d in pairs:
        got.append(ix.log_unit_block_rate(r, d))
        assert len(index_mod._memo(ix)["rates"]) <= 8
    assert got == alone


# ---------------------------------------------------------------------------
# measure representations


def test_measure_index_matches_beta_family():
    rho, beta = 2.0, 0.5
    dens = DislocationMeasure(
        density=lambda x: x ** (rho - 1.0) * (1.0 - x) ** (beta - 1.0))
    ix = MeasureIndex(dislocation=dens)
    ref = BetaSplitIndex(rho, beta)
    for n in range(1, 8):
        assert ix.total_rate(n) == pytest.approx(ref.total_rate(n), rel=1e-9)
    for r, d in [(0, 1), (2, 3), (1, 6)]:
        assert ix.block_rate(r, d) == pytest.approx(ref.block_rate(r, d),
                                                    rel=1e-9)


def test_measure_index_atomic_is_geometric():
    # a unit atom at x = alpha reproduces the geometric family exactly
    alpha = 0.4
    ix = MeasureIndex(dislocation=DislocationMeasure(atoms=((alpha, 1.0),)))
    ref = GeometricIndex(alpha)
    for n in range(1, 10):
        assert ix.total_rate(n) == pytest.approx(ref.total_rate(n), rel=1e-14)
    assert ix.split_prob(2, 3) == pytest.approx(ref.split_prob(2, 3),
                                                rel=1e-14)


def test_erosion_adds_singleton_rate():
    ix = MeasureIndex(
        dislocation=DislocationMeasure(atoms=((0.5, 1.0),)), erosion=0.25)
    base = MeasureIndex(dislocation=DislocationMeasure(atoms=((0.5, 1.0),)))
    assert ix.block_rate(3, 1) == pytest.approx(base.block_rate(3, 1) + 0.25,
                                                rel=1e-14)
    assert ix.block_rate(3, 2) == pytest.approx(base.block_rate(3, 2),
                                                rel=1e-14)
    assert ix.total_rate(4) == pytest.approx(base.total_rate(4) + 1.0,
                                             rel=1e-14)


def test_non_integrable_measure_rejected():
    with pytest.raises((ParameterError, NumericError)):
        DislocationMeasure(density=lambda x: (1.0 - x) ** -2.0)


def test_levy_from_point_mass():
    m = 0.7
    meas = DislocationMeasure(atoms=((math.exp(-1.0), m),))
    levy = levy_from_dislocation(meas, erosion=0.0)
    assert levy.atoms == ((1.0, m),)
    # the exponent at integers must reproduce the index of the measure
    ix = MeasureIndex(dislocation=meas)
    for n in range(1, 6):
        assert levy.exponent(n) == pytest.approx(ix.total_rate(n), rel=1e-12)


def test_levy_pure_drift():
    meas = DislocationMeasure(atoms=((0.5, 1e-12),))
    levy = levy_from_dislocation(meas, erosion=1.0)
    assert levy.drift == 1.0
    assert levy.exponent(3.0) == pytest.approx(3.0, rel=1e-9)


def test_levy_density_matches_harmonic_exponent():
    rho = 1.5
    meas = DislocationMeasure(
        density=lambda x: x ** (rho - 1.0) / (1.0 - x))
    levy = levy_from_dislocation(meas)
    for n in range(1, 11):
        expect = float(special.digamma(n + rho) - special.digamma(rho))
        assert levy.exponent(n) == pytest.approx(expect, rel=1e-8)


def test_dislocation_levy_round_trips():
    cases = [
        DislocationMeasure(atoms=((math.exp(-1.0), 0.7), (0.25, 0.1))),
        DislocationMeasure(density=lambda x: x ** 0.5 / (1.0 - x)),
        DislocationMeasure(density=lambda x: 2.0 * x,
                           atoms=((0.5, 0.3),)),
    ]
    for meas in cases:
        levy = levy_from_dislocation(meas, erosion=0.4)
        back, erosion = dislocation_from_levy(levy)
        assert erosion == 0.4
        ix = MeasureIndex(dislocation=meas, erosion=0.4)
        ix2 = MeasureIndex(dislocation=back, erosion=erosion)
        for n in range(1, 7):
            assert ix2.total_rate(n) == pytest.approx(ix.total_rate(n),
                                                      rel=1e-8)
        for r, d in [(0, 2), (3, 1)]:
            assert ix2.block_rate(r, d) == pytest.approx(ix.block_rate(r, d),
                                                         rel=1e-8)


# ---------------------------------------------------------------------------
# special functions without scipy


def _digamma_difference_cases():
    rng = np.random.default_rng(81)
    rho = 10.0 ** rng.uniform(-8.0, 8.0, 1500)
    n = np.floor(10.0 ** rng.uniform(0.0, 5.0, 1500)).astype(int)
    return list(zip(rho.tolist(), n.tolist())) + [
        (1e-8, 1), (1e-8, 100000), (1e8, 1), (1e8, 100000), (1.0, 1),
        (1.4616321449683623, 3), (1e6, 10), (3e7, 2)]


def _digamma_difference_error(rho, n):
    with mp.workdps(40):
        exact = mp.digamma(mp.mpf(rho) + n) - mp.digamma(mp.mpf(rho))
        return abs(float((HarmonicIndex(1.0, rho).unit_total_rate(n) - exact)
                         / exact))


def test_digamma_difference_matches_high_precision():
    # Every term of the positive-term form is positive, so it loses nothing
    # to cancellation, wherever the two digammas would.
    for rho, n in _digamma_difference_cases():
        err = _digamma_difference_error(rho, n)
        assert err <= 2e-15, (rho, n, err)


def test_digamma_difference_within_1e13_where_cancellation_is_moderate():
    # Here a difference of two digammas loses up to 2.3e-12 to
    # cancellation.
    for rho, n in [(4661.702203580432, 5), (1437.1934547770902, 1),
                   (6751.14977370217, 10)]:
        assert _digamma_difference_error(rho, n) <= 1e-13


def test_log_factorial_table_is_lgamma_and_agrees_with_scipy():
    lf = index_mod._log_factorials(3000)
    k = np.arange(3001)
    assert np.array_equal(lf, [math.lgamma(v + 1) for v in k.tolist()])
    ref = special.gammaln(k + 1.0)
    assert np.all(np.abs(lf - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
    # A longer request grows the shared table; shorter ones read it.
    longer = index_mod._log_factorials(7001)
    assert len(longer) == 7002 and np.array_equal(longer[:3001], lf)
    assert longer[-1] == math.lgamma(7002)
    assert not longer.flags.writeable


def _uncapped_log_rising(x, k):
    """_log_rising as it reads without the cap on t before squaring."""
    def series(t):
        t2 = t * t
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * t2)) / t2) / t

    y = x + k
    return ((x - 0.5) * np.log1p(k / x) + k * np.log(y) - k
            + series(y) - series(x))


def test_log_rising_cap_moves_no_bit_and_never_overflows():
    k = np.array([-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 17.0, 4096.0])
    for x in np.geomspace(100.0, 1e150, 301).tolist():
        assert np.array_equal(index_mod._log_rising(x, k),
                              _uncapped_log_rising(x, k))
    # Past 1.3e154, t * t overflows; the uncapped series still lands on
    # 1 / (12 t), which the capped one gives without a warning.
    for x in np.geomspace(1e150, 1e308, 61).tolist():
        with np.errstate(over="ignore"):
            want = _uncapped_log_rising(x, k)
        assert np.array_equal(index_mod._log_rising(x, k), want)


def _scipy_log_terms(index, n):
    """The separable terms as computed with scipy's gammaln."""
    i = np.arange(n + 1, dtype=float)
    if isinstance(index, HarmonicIndex):
        g = special.gammaln(index.rho + i)
        return special.gammaln(np.maximum(i, 1.0)), g, -g
    return (special.gammaln(np.maximum(index.beta + i, index_mod._EPS)),
            special.gammaln(index.rho + i),
            -special.gammaln(index.rho + index.beta + i))


@pytest.mark.parametrize("index", [
    HarmonicIndex(1.0, 1e-3), HarmonicIndex(1.0, 1.0),
    HarmonicIndex(2.0, 37.5), HarmonicIndex(1.0, 99.0),
    BetaSplitIndex(1.0, 0.5), BetaSplitIndex(0.02, -0.7),
    BetaSplitIndex(60.0, 3.0), BetaSplitIndex(2.0, 0.0)],
    ids=lambda ix: ix.describe())
def test_separable_rows_match_scipy_terms(index):
    n = 400
    got = index._log_terms(n)
    ref = _scipy_log_terms(index, n)
    read = index_mod._separable_reader(*got)
    read_ref = index_mod._separable_reader(*ref)
    for m in (n, 250, 17, 2, 1):
        row, row_ref = read(m), read_ref(m)
        assert np.all(np.abs(row - row_ref)
                      <= 5e-12 * np.maximum(1.0, np.abs(row_ref)))


def test_quadrature_goes_through_the_patchable_integrate(monkeypatch):
    calls = []
    quad = index_mod.integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(index_mod.integrate, "quad", counted)
    assert PowerIndex(0.5)._log_rate_quad(0, 12) < 0.0
    assert GammaIndex(1.0, 2.0)._log_rate_quad(3, 20) < 0.0
    assert len(calls) >= 2

    class Proxy:
        quad = staticmethod(counted)

    monkeypatch.setattr(index_mod, "integrate", Proxy())
    PowerIndex(0.7)._log_rate_quad(2, 11)
    assert len(calls) >= 3
