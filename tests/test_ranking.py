import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from marksurv.index import (MAX_TABLE_ROWS, BetaSplitIndex,
                            DislocationMeasure, GammaIndex, GeometricIndex,
                            HarmonicIndex, LinearIndex, LinearShiftIndex,
                            MeasureIndex, NumericError, ParameterError,
                            PowerIndex,
                            _draw_block_sizes, _first_block_reader,
                            build_table)
from marksurv.ranking import (OrderedPartition, bell, block_growth_probe,
                              block_growth_csv, enumerate_ordered_partitions,
                              expected_blocks, first_block_distribution,
                              ordered_bell, ranking_prob, sample_block_sizes,
                              sample_first_block_size, sample_ranking,
                              sample_rankings, stirling2)

# counts for n = 1..10
PARTITION_COUNTS = [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
ORDERED_COUNTS = [1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563]


def test_bell_numbers():
    for n, expect in enumerate(PARTITION_COUNTS, start=1):
        assert bell(n) == expect


def test_ordered_bell_numbers():
    for n, expect in enumerate(ORDERED_COUNTS, start=1):
        assert ordered_bell(n) == expect


def test_stirling_triangle():
    assert stirling2(4, 2) == 7
    assert stirling2(5, 5) == 1
    assert stirling2(5, 6) == 0
    assert ordered_bell(0) == 1 and bell(0) == 1


def test_ordered_partition_validation():
    with pytest.raises(ParameterError):
        OrderedPartition(blocks=())
    with pytest.raises(ParameterError):
        OrderedPartition(blocks=(frozenset({1}), frozenset({1, 2})))
    with pytest.raises(ParameterError):
        OrderedPartition(blocks=(frozenset(),))
    p = OrderedPartition(blocks=({1, 2}, {3}))
    assert p.n == 3 and p.sizes == (2, 1) and p.num_blocks == 2


def test_enumeration_counts_match_ordered_bell():
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_ordered_partitions(range(n))) \
            == ordered_bell(n)


def test_ranking_prob_examples():
    tab = build_table(HarmonicIndex(1.0, 1.0), 4)
    single = OrderedPartition(blocks=({1, 2},))
    assert ranking_prob(single, tab) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert ranking_prob(OrderedPartition(blocks=({7},)), tab) == 1.0
    lin = build_table(LinearIndex(), 4)
    tied = OrderedPartition(blocks=({1, 2}, {3}))
    assert ranking_prob(tied, lin) == 0.0


def test_ranking_prob_depends_only_on_sizes():
    tab = build_table(GammaIndex(1.0, 2.0), 5)
    a = OrderedPartition(blocks=({1, 2}, {3, 4, 5}))
    b = OrderedPartition(blocks=({4, 5}, {1, 2, 3}))
    assert ranking_prob(a, tab) == ranking_prob(b, tab)


@pytest.mark.parametrize("index", [
    HarmonicIndex(1.0, 1.0), GeometricIndex(0.4), BetaSplitIndex(2.0, 0.5),
], ids=lambda ix: ix.describe())
def test_total_probability_over_all_rankings(index):
    tab = build_table(index, 6)
    for n in (3, 5, 6):
        total = math.fsum(ranking_prob(p, tab)
                          for p in enumerate_ordered_partitions(range(n)))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_total_probability_n7_harmonic():
    tab = build_table(HarmonicIndex(1.0, 1.0), 7)
    parts = list(enumerate_ordered_partitions(range(7)))
    assert len(parts) == 47293
    total = math.fsum(ranking_prob(p, tab) for p in parts)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_sample_ranking_trivial_and_linear():
    rng = np.random.default_rng(1)
    tab = build_table(HarmonicIndex(1.0, 1.0), 1)
    p = sample_ranking(1, tab, rng)
    assert p.sizes == (1,)
    lin = build_table(LinearIndex(), 5)
    for p in sample_rankings(5, lin, rng, 100):
        assert p.sizes == (1,) * 5


def test_sample_rankings_has_no_row_cap():
    # The sweep keeps one first-block row at a time, so the cap on
    # splitting tables does not apply.
    n = MAX_TABLE_ROWS + 1
    p = sample_ranking(n, HarmonicIndex(1.0, 1.0), np.random.default_rng(6))
    assert p.n == n


def test_sample_ranking_two_particles():
    rng = np.random.default_rng(2)
    tab = build_table(HarmonicIndex(1.0, 1.0), 2)
    reps = 100000
    ties = sum(p.num_blocks == 1 for p in sample_rankings(2, tab, rng, reps))
    se = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / reps)
    assert abs(ties / reps - 1.0 / 3.0) < 3.0 * se


@pytest.mark.parametrize("index", [
    HarmonicIndex(1.0, 1.0), GammaIndex(1.0, 1.0), GeometricIndex(0.5),
], ids=lambda ix: ix.describe())
def test_sampler_chi_square_n4(index):
    rng = np.random.default_rng(3)
    tab = build_table(index, 4)
    reps = 100000
    parts = list(enumerate_ordered_partitions(range(4)))
    assert len(parts) == 75
    keys = {tuple(tuple(sorted(b)) for b in p.blocks): i
            for i, p in enumerate(parts)}
    counts = np.zeros(len(parts))
    for p in sample_rankings(4, tab, rng, reps):
        counts[keys[tuple(tuple(sorted(b)) for b in p.blocks)]] += 1
    expected = np.array([ranking_prob(p, tab) for p in parts]) * reps
    keep = expected >= 10.0
    chi2 = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    if (~keep).any():
        rest_obs = counts[~keep].sum()
        rest_exp = expected[~keep].sum()
        chi2 += (rest_obs - rest_exp) ** 2 / rest_exp
        dof = keep.sum()
    else:
        dof = len(parts) - 1
    p_val = stats.chi2.sf(chi2, dof)
    assert p_val > 0.001


def test_first_block_distribution_normalizes():
    cases = [
        (HarmonicIndex(1.0, 1.0), range(1, 51)),
        (GeometricIndex(0.3), range(1, 51)),
        (BetaSplitIndex(1.0, -0.5), range(1, 51)),
        (LinearShiftIndex(2.0), range(1, 51)),
        (GammaIndex(1.0, 1.0), (1, 2, 5, 10, 50, 120, 200)),
        (HarmonicIndex(1.0, 1.0), (100, 200)),
    ]
    for index, ns in cases:
        for n in ns:
            p = first_block_distribution(n, index)
            assert abs(p.sum() - 1.0) < 1e-10, (index.describe(), n)
            assert p[0] == 0.0


def test_first_block_distribution_matches_table():
    ix = HarmonicIndex(1.0, 2.0)
    tab = build_table(ix, 12)
    np.testing.assert_allclose(first_block_distribution(12, ix),
                               first_block_distribution(12, tab),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("index", [
    HarmonicIndex(1.0, 1.0), BetaSplitIndex(1.0, -0.5), GeometricIndex(0.3),
    GammaIndex(1.0, 1.0), PowerIndex(0.5),
], ids=lambda ix: type(ix).__name__)
def test_expected_blocks_of_index_matches_its_table(index):
    # Both come from _first_block_reader: the index's rows less log psi(m),
    # the table's from the probabilities it stored.
    n = 300
    assert expected_blocks(n, index) == pytest.approx(
        expected_blocks(n, build_table(index, n)), rel=1e-12, abs=0)


def test_first_block_mean_beta_positive():
    # The limiting first-block fraction for the beta-type rule has mean
    # beta / (rho + beta); check the sampled mean at n = 10**4.
    rho, beta = 2.0, 1.0
    n = 10000
    p = first_block_distribution(n, BetaSplitIndex(rho, beta))
    rng = np.random.default_rng(8)
    reps = 4000
    draws = rng.choice(n + 1, size=reps, p=p / p.sum()) / n
    se = draws.std(ddof=1) / math.sqrt(reps)
    assert abs(draws.mean() - beta / (rho + beta)) < 3.0 * se


def test_first_block_power_law_beta_negative():
    rho, beta = 1.0, -0.5
    n = 10000
    p = first_block_distribution(n, BetaSplitIndex(rho, beta))
    d = np.arange(1, 21)
    limit = (-beta / math.gamma(1.0 + beta)) * np.exp(
        special.gammaln(d + beta) - special.gammaln(d + 1.0))
    rel = np.abs(p[1:21] / limit - 1.0)
    assert rel.max() < 0.05


def _reference_expected_blocks(n, rule):
    """The block-count dynamic program as a plain loop: each first-block
    row in block-size order, less log psi(m), added to the visit chances
    of the sizes below m through a reversed view."""
    row = _first_block_reader(rule, n)
    visit = np.zeros(n + 1)
    visit[n] = 1.0
    for m in range(n, 0, -1):
        logw = row(m) - math.log(rule.unit_total_rate(m))
        visit[m - 1::-1] += visit[m] * np.exp(logw)
    return float(visit[1:].sum())


DP_RULES = {
    "harmonic0.01": lambda: HarmonicIndex(1.0, 0.01),
    "harmonic1": lambda: HarmonicIndex(1.0, 1.0),
    "harmonic250": lambda: HarmonicIndex(2.0, 250.0),
    "beta-0.9": lambda: BetaSplitIndex(1.0, -0.9),
    "beta0.5": lambda: BetaSplitIndex(1.0, 0.5),
    "geometric": lambda: GeometricIndex(0.3),
    "linear": lambda: LinearIndex(),
    "linear-shift": lambda: LinearShiftIndex(1.5),
    "gamma": lambda: GammaIndex(1.0, 2.0),
    "power": lambda: PowerIndex(0.5),
    "table": lambda: build_table(HarmonicIndex(1.0, 2.0), 300),
    "measure": lambda: MeasureIndex(dislocation=DislocationMeasure(
        density=lambda x: (1.0 - x) ** -0.5, atoms=((0.4, 0.3),)),
        erosion=0.2),
}


@pytest.mark.parametrize("make", DP_RULES.values(), ids=DP_RULES.keys())
def test_expected_blocks_is_the_reference_dynamic_program_bit_for_bit(make):
    # On one rule, n rising rebuilds the remembered rows each time; the
    # second pass reads shorter rows from the longest ones.
    rule = make()
    for n in (1, 2, 3, 17, 300, 17, 3):
        assert expected_blocks(n, rule) == _reference_expected_blocks(n, rule)
    assert expected_blocks(17, make()) == _reference_expected_blocks(17, rule)


def test_expected_blocks_harmonic_golden_value():
    # A dynamic program over the benchmark's own closed-form rates gives
    # 28.426692736431377, 4.6e-14 away.
    assert expected_blocks(4096, HarmonicIndex(1.0, 1.0)) == pytest.approx(
        28.42669273643008, rel=1e-13, abs=0)


def test_expected_blocks_at_huge_rho_warns_nothing():
    # Every block is a singleton in doubles; the log rows, near -709 d,
    # carry an absolute error near 1e-13, so the mean is 5 to about 2e-13.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expected_blocks(5, HarmonicIndex(1.0, 1e308)) == \
            pytest.approx(5.0, rel=1e-12)


def test_total_rate_underflowing_to_zero_raises_numeric_error():
    index = BetaSplitIndex(rho=1e300, beta=0.5)
    for call in (lambda: expected_blocks(5, index),
                 lambda: first_block_distribution(5, index),
                 lambda: build_table(index, 5)):
        with pytest.raises(NumericError,
                           match=r"^the total rate with 5 at risk is 0\.0"):
            call()


def test_expected_blocks_linear_families():
    lin = LinearIndex()
    for n in (1, 7, 40):
        assert expected_blocks(n, lin) == pytest.approx(n, rel=1e-12)
    ls = LinearShiftIndex(1.0)
    assert expected_blocks(2000, ls) / 2000 == pytest.approx(0.5, rel=0.02)


def test_expected_blocks_harmonic_small():
    assert expected_blocks(2, HarmonicIndex(1.0, 1.0)) == pytest.approx(
        5.0 / 3.0, rel=1e-12)


def test_expected_blocks_matches_enumeration():
    ix = GeometricIndex(0.45)
    tab = build_table(ix, 6)
    for n in (4, 6):
        exact = math.fsum(ranking_prob(p, tab) * p.num_blocks
                          for p in enumerate_ordered_partitions(range(n)))
        assert expected_blocks(n, ix) == pytest.approx(exact, rel=1e-11)
        assert expected_blocks(n, tab) == pytest.approx(exact, rel=1e-11)


def test_expected_blocks_recurrence_self_consistency():
    ix = HarmonicIndex(1.0, 1.0)
    n = 37
    p = first_block_distribution(n, ix)
    rhs = sum(p[d] * (1.0 + expected_blocks(n - d, ix))
              for d in range(1, n)) + p[n] * 1.0
    assert expected_blocks(n, ix) == pytest.approx(rhs, rel=1e-11)


def test_sample_block_sizes_consistent_with_probe():
    ix = HarmonicIndex(1.0, 1.0)
    rng = np.random.default_rng(4)
    sizes = sample_block_sizes(200, ix, rng)
    assert sum(sizes) == 200
    assert sample_first_block_size(1, ix, rng) == 1
    rows = block_growth_probe(ix, [200], 300, rng)
    row = rows[0]
    exact = expected_blocks(200, ix)
    assert abs(row.mean_blocks - exact) < 3.0 * row.se


def test_first_block_stochastic_dominance():
    # the first block dominates later blocks in size; compare against the
    # second block with absent blocks counted as size zero
    ix = HarmonicIndex(1.0, 1.0)
    rng = np.random.default_rng(5)
    reps = 10000
    first = np.zeros(reps)
    second = np.zeros(reps)
    for i in range(reps):
        sizes = sample_block_sizes(50, ix, rng)
        first[i] = sizes[0]
        second[i] = sizes[1] if len(sizes) > 1 else 0
    grid = np.arange(0, 51)
    cdf_first = (first[:, None] <= grid[None, :]).mean(axis=0)
    cdf_second = (second[:, None] <= grid[None, :]).mean(axis=0)
    assert np.all(cdf_first <= cdf_second + 0.02)


def test_first_block_log_size_spread():
    # the log-size of the first block relative to log n spreads out over
    # (0, 1); exploratory check against the uniform limit at n = 10**5
    n = 100000
    ix = HarmonicIndex(1.0, 1.0)
    p = first_block_distribution(n, ix)
    rng = np.random.default_rng(6)
    draws = rng.choice(n + 1, size=2000, p=p / p.sum())
    u = np.log(draws) / math.log(n)
    ks = stats.kstest(u, "uniform")
    assert ks.statistic < 0.12


def test_block_growth_csv_format():
    ix = GeometricIndex(0.5)
    rng = np.random.default_rng(7)
    rows = block_growth_probe(ix, [16, 32], 50, rng)
    text = block_growth_csv(rows, ix)
    lines = text.strip().splitlines()
    assert lines[0] == "n,mean_k,se,reps,expected_k,family,params"
    assert len(lines) == 3
    assert lines[1].startswith("16,")
    assert "geometric" in lines[1]


# ---------------------------------------------------------------------------
# the inverse-CDF draw


def bernstein_halfwidth(n, p, alpha):
    """Half-width t with P(|Bin(n, p) - n p| >= t) <= alpha by Bernstein's
    inequality for a sum of n terms in [0, 1]."""
    log_term = math.log(2.0 / alpha)
    return log_term / 3.0 + math.sqrt(log_term ** 2 / 9.0
                                      + 2.0 * n * p * (1.0 - p) * log_term)


@pytest.mark.parametrize("index", [
    HarmonicIndex(1.0, 1.0), BetaSplitIndex(1.0, -0.5), GammaIndex(1.0, 1.0),
    PowerIndex(0.5), LinearIndex(), LinearShiftIndex(1.0),
], ids=lambda ix: ix.describe())
def test_inverse_cdf_draw_matches_first_block_law(index):
    rng = np.random.default_rng(21)
    draws = 200000
    for m in range(2, 7):
        sizes = _draw_block_sizes(_first_block_reader(index, m)(m),
                                  rng.random(draws))
        counts = np.bincount(sizes, minlength=m + 1)
        law = first_block_distribution(m, index)
        assert counts[0] == 0 and counts.size == m + 1
        for d in range(1, m + 1):
            band = bernstein_halfwidth(draws, law[d], 1e-7)
            assert abs(counts[d] - draws * law[d]) <= band, (m, d)


def test_draw_never_lands_on_a_zero_weight_size():
    logw = np.array([-math.inf, 0.0, -math.inf, -math.inf, math.log(2.0),
                     -math.inf])
    u = np.array([0.0, 1e-300, 1.0 / 3.0, 0.5, 1.0 - 2.0 ** -53])
    assert _draw_block_sizes(logw, u).tolist() == [2, 2, 5, 5, 5]
    rng = np.random.default_rng(22)
    for index in (LinearIndex(), LinearShiftIndex(1.0)):
        for m in (2, 5, 9):
            row = _first_block_reader(index, m)(m)
            sizes = _draw_block_sizes(row, np.concatenate(
                [[0.0, 1.0 - 2.0 ** -53], rng.random(1000)]))
            assert np.all(np.isfinite(row[sizes - 1]))


def test_non_finite_rate_raises_instead_of_drawing():
    class Broken(GammaIndex):
        def _log_rates(self, r, d):
            out = super()._log_rates(r, d)
            out[(r == 1) & (d == 3)] = math.nan
            return out

    rng = np.random.default_rng(23)
    for logw in (np.array([0.0, math.nan]), np.array([0.0, math.inf]),
                 np.full(3, -math.inf)):
        with pytest.raises(NumericError):
            _draw_block_sizes(logw, 0.5)
    with pytest.raises(NumericError):
        sample_first_block_size(4, Broken(1.0, 1.0), rng)
    with pytest.raises(NumericError):
        sample_block_sizes(4, Broken(1.0, 1.0), rng)
    with pytest.raises(NumericError):
        block_growth_probe(Broken(1.0, 1.0), [4], 10, rng)
