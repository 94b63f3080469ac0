"""``exact``: deterministic block-rate and dynamic-program work.

Every index a round builds is a fresh object with its own parameters: rho
and alpha move by a relative 1e-7 from one index to the next, along a fixed
sequence whose start the seed picks.  So no call in a run repeats a
question an earlier call asked (the index classes compare by value, so a
cache keyed on the index would otherwise answer it), yet every round costs
the same.  A cache can only help where rates are shared inside one dynamic
program or one table.

small  : SMALL_REPS times over, on each of the five families,
         expected_blocks at n = 2..16 and an 8-row build_table with its
         diagnostics;
closed : expected_blocks on harmonic n=4096, beta(-0.5) n=4096 and
         geometric n=2048 (separable closed forms);
quad   : expected_blocks on gamma and power at n=64, and build_table with
         normalization and consistency diagnostics on gamma and power
         (24 rows) and on a MeasureIndex built from the gamma Levy
         measure (12 rows).

Sizes keep one round near 3.5 s, so that a 25-second run holds six or more
rounds: single timings on the reference machine vary by a factor of two
from one second to the next, and only a median over many rounds is steady.
"""

from __future__ import annotations

import math

import inputs
import reference as ref
from harness import make_index

BASE = {
    "harmonic": {"nu": 1.5, "rho": 1.0},
    "beta": {"rho": 1.0, "beta": -0.5},
    "geometric": {"alpha": 0.5},
    "gamma": {"nu": 2.0, "rho": 1.0},
    "power": {"alpha": 0.5},
}
FAMILIES = tuple(BASE)
QUAD_FAMILIES = ("gamma", "power")

# Index j of round k scales every rho and alpha in BASE by
# 1 + STEP * (1 + offset + k * CALLS_PER_ROUND + j), the offset drawn from
# the seed; a round builds fewer than CALLS_PER_ROUND indices, and the
# set-up's warm-up calls alone use BASE itself.
STEP = 1e-7
CALLS_PER_ROUND = 1000

N_HARMONIC, N_BETA, N_GEOMETRIC = 4096, 4096, 2048
N_QUAD = 64
TABLE_N, MEASURE_N = 24, 12
SMALL_NS = tuple(range(2, 17))
SMALL_TABLE_N = 8
SMALL_REPS = 4

# Quadrature in the program runs at epsrel 1e-11, so table entries carry
# about that relative error; 1e-9 leaves room and still catches a planted
# 1e-6 error in any single entry.
TOL_TABLE = 1e-9


class State:
    def __init__(self, ms, offset):
        self.ms = ms
        self.offset = offset


def setup(ctx):
    import marksurv as ms
    for fam, p in BASE.items():
        idx = make_index(ms, fam, p)
        ms.expected_blocks(4, idx)
        ms.build_table(idx, 4)
    return State(ms, inputs.param_offset(ctx.seed))


def prepare(state):
    """All references depend on the parameters of each call; see run_round."""


class Params:
    """The parameters of each index round k builds, all distinct in a run."""

    def __init__(self, offset, k):
        self.next = 1 + offset + k * CALLS_PER_ROUND
        self.end = self.next + CALLS_PER_ROUND

    def __call__(self, family):
        if self.next >= self.end:
            raise RuntimeError("a round builds too many indices")
        scale = 1.0 + STEP * self.next
        self.next += 1
        return {key: v * scale if key in ("rho", "alpha") else v
                for key, v in BASE[family].items()}


def _rates(family, p, n):
    """Reference log rates up to n for the family at parameters p."""
    if family in QUAD_FAMILIES:
        return ref.exact_triangle(family, p, n)
    return ref.closed_rates(family, p, n)


def _mean_blocks(family, p, n):
    """The reference E[K_n] at parameters p."""
    return float(ref.block_count_moments(_rates(family, p, n), n)[0][n])


def _maker(ms, family, p):
    return lambda: make_index(ms, family, p)


def _measure_maker(ms, nu, rho):
    """MeasureIndex from the gamma Levy measure nu exp(-rho z) / z."""
    def make():
        levy = ms.LevyMeasure(density=lambda z: nu * math.exp(-rho * z) / z)
        dislocation, erosion = ms.dislocation_from_levy(levy)
        return ms.MeasureIndex(dislocation=dislocation, erosion=erosion)
    return make


def _table_with_diagnostics(ms, make, max_n):
    table = ms.build_table(make(), max_n)
    norm = ms.normalization_defect(table)
    cons = [[ms.consistency_defect(table, n, d) for d in range(1, n + 1)]
            for n in range(1, max_n)]
    return table, norm, cons


def _check_table(rates, max_n):
    def check(out, chk):
        table, norm, cons = out
        q = table.probs
        chk.true(table.max_n == max_n, f"table covers {table.max_n} rows")
        own_norm, own_add = ref.table_defects(q, max_n)
        chk.true(own_norm <= 1e-10, f"rows sum to 1 +- {own_norm:.3g}")
        chk.true(own_add <= TOL_TABLE,
                 f"additive identity off by {own_add:.3g} relative")
        gap = ref.table_vs_rates(q, rates, max_n)
        chk.true(gap <= TOL_TABLE, f"entries off the reference by {gap:.3g}")
        chk.true(abs(norm - own_norm) <= 1e-12,
                 f"normalization_defect {norm!r} vs own {own_norm!r}")
        for n in range(1, max_n):
            for d in range(1, n + 1):
                r = n - d
                own = abs(q[r, d] * (1.0 - q[n, 1])
                          - (q[r, d + 1] + q[r + 1, d]))
                got = cons[n - 1][d - 1]
                if not abs(got - own) <= 1e-15 + 1e-9 * q[r, d]:
                    chk.true(False, f"consistency_defect({n},{d}) = {got!r}"
                                    f" vs own {own!r}")
                    return
    return check


def _check_blocks(mu, ns):
    def check(out, chk):
        for n, got in zip(ns, out):
            chk.close(got, mu[n], ref.TOL_EXACT, f"expected_blocks({n})")
    return check


def run_round(state, k, rec):
    ms = state.ms
    params = Params(state.offset, k)

    for rep in range(SMALL_REPS):
        for fam in FAMILIES:
            ps = [params(fam) for _ in SMALL_NS]
            mu = {n: _mean_blocks(fam, p, n) for n, p in zip(SMALL_NS, ps)}
            rec.op("small", f"{fam} expected_blocks n=2..16 #{rep}",
                   lambda: [ms.expected_blocks(n, make_index(ms, fam, p))
                            for n, p in zip(SMALL_NS, ps)],
                   _check_blocks(mu, SMALL_NS))
            p = params(fam)
            rec.op("small", f"{fam} build_table {SMALL_TABLE_N} #{rep}",
                   lambda: _table_with_diagnostics(ms, _maker(ms, fam, p),
                                                   SMALL_TABLE_N),
                   _check_table(_rates(fam, p, SMALL_TABLE_N),
                                SMALL_TABLE_N))

    for fam, n in (("harmonic", N_HARMONIC), ("beta", N_BETA),
                   ("geometric", N_GEOMETRIC)):
        p = params(fam)
        rec.op("closed", f"{fam} expected_blocks n={n}",
               lambda: [ms.expected_blocks(n, make_index(ms, fam, p))],
               _check_blocks({n: _mean_blocks(fam, p, n)}, (n,)))

    for fam in QUAD_FAMILIES:
        p = params(fam)
        rec.op("quad", f"{fam} expected_blocks n={N_QUAD}",
               lambda: [ms.expected_blocks(N_QUAD, make_index(ms, fam, p))],
               _check_blocks({N_QUAD: _mean_blocks(fam, p, N_QUAD)},
                             (N_QUAD,)))
    for fam in QUAD_FAMILIES:
        p = params(fam)
        rec.op("quad", f"{fam} build_table {TABLE_N}",
               lambda: _table_with_diagnostics(ms, _maker(ms, fam, p),
                                               TABLE_N),
               _check_table(_rates(fam, p, TABLE_N), TABLE_N))
    g = params("gamma")
    rec.op("quad", f"measure build_table {MEASURE_N}",
           lambda: _table_with_diagnostics(
               ms, _measure_maker(ms, g["nu"], g["rho"]), MEASURE_N),
           _check_table(_rates("gamma", g, MEASURE_N), MEASURE_N))
