"""``montecarlo``: sampling, with one index per family reused across reps.

The family parameters are fixed.  The seed makes the censoring plans and
the seed trajectory (with numpy, in ``inputs``) and seeds the generator the
program draws from.

small  : simulate at n = 2..20 (4 calls per n) for harmonic, gamma and
         power; compare_constructions for gamma at n = 3 (1500 reps);
closed : harmonic and beta simulate at n = 1000, two draws with and two
         without a CensoringPlan, then log_density and predictive_survival
         on each; harmonic block_growth_probe, sample_rankings and
         simulate_seeded;
quad   : the same for gamma and power at n = 200, and gamma
         block_growth_probe, sample_rankings and simulate_seeded.

Sizes keep one round near 2 s, so that a 25-second run holds about ten
rounds (see workload_exact).
"""

from __future__ import annotations

import math

import numpy as np

import inputs
import reference as ref
from harness import make_index

# One parameter set for every run, so that runs differ only in the random
# draws and the censoring plans: the cost of a gamma or power rate depends
# on rho and alpha.
PARAMS = {
    "harmonic": {"nu": 1.0, "rho": 1.0},
    "beta": {"rho": 1.0, "beta": -0.5},
    "gamma": {"nu": 1.0, "rho": 1.0},
    "power": {"alpha": 0.5},
}

SMALL_NS = tuple(range(2, 21))
SMALL_REPS = 4
N_CLOSED, N_QUAD = 1000, 200
SIM_REPS = 2
COMPARE = dict(n=3, grid=(0.25, 0.75), reps=1500, eps=1e-6)
PROBE_CLOSED = ((200, 800), 100)
PROBE_QUAD = ((40, 80), 15)
RANK_N, RANK_REPS_CLOSED, RANK_REPS_QUAD = 12, 300, 100
SEED_N, SEED_DISTINCT = 20, 8
SEEDED_CLOSED, SEEDED_QUAD = 400, 40
SEEDED_CALLS = 2
PLAN_FRAC, PLAN_MEAN = 0.3, 1.0


class State:
    pass


def setup(ctx):
    import marksurv as ms
    st = State()
    st.ms = ms
    seed = ctx.seed
    st.params = PARAMS
    prng = inputs.rng_for(seed, inputs.STREAM_PLANS)
    st.plans = {n: inputs.censoring_plan(prng, n, PLAN_FRAC, PLAN_MEAN)
                for n in (N_CLOSED, N_QUAD)}
    st.seed_rows = inputs.seed_rows(
        inputs.rng_for(seed, inputs.STREAM_SEED_TRAJ), SEED_N, SEED_DISTINCT)
    st.index = {fam: make_index(ms, fam, p) for fam, p in st.params.items()}
    st.plan_obj = {n: ms.CensoringPlan(tuple(t)) for n, t in st.plans.items()}
    st.seed_traj = ms.RiskSetTrajectory(
        SEED_N, tuple(ms.Event(t, d, c) for t, d, c in st.seed_rows))
    st.rng = inputs.rng_for(seed, inputs.STREAM_PROGRAM)
    for idx in st.index.values():
        ms.simulate(5, idx, rng=st.rng)
    return st


class Family:
    """Reference laws for one family: rates, block-count moments, scale."""

    def __init__(self, rates, nu):
        self.rates = rates
        self.nu = nu
        self.mu, m2 = ref.block_count_moments(rates, rates.n)
        self.var = m2 - self.mu ** 2
        self._first = {}

    def first(self, m):
        """P(the first block out of m is a single failure)."""
        if m not in self._first:
            self._first[m] = float(ref.first_block_law(self.rates, m)[0])
        return self._first[m]

    def total_rate(self, m):
        return self.nu * math.exp(self.rates.log_psi[m])


def prepare(st):
    """Reference laws, once per run (the parameters are fixed)."""
    p = st.params
    st.ref = {
        "harmonic": Family(ref.closed_rates("harmonic", p["harmonic"],
                                            N_CLOSED + 1), p["harmonic"]["nu"]),
        "beta": Family(ref.closed_rates("beta", p["beta"], N_CLOSED + 1), 1.0),
        "gamma": Family(ref.exact_triangle("gamma", p["gamma"], N_QUAD + 1),
                        p["gamma"]["nu"]),
        "power": Family(ref.exact_triangle("power", p["power"], N_QUAD + 1),
                        1.0),
    }
    st.k3_law = ref.block_count_law(st.ref["gamma"].rates, COMPARE["n"])


# ---------------------------------------------------------------------------
# Checks


class Tally:
    """Sums of observed values with their exact means and variances, each
    checked by the band that suits its law (see harness.ALPHA)."""

    def __init__(self):
        self.sums = {}

    def add(self, name, kind, obs, mean, var):
        s = self.sums.setdefault((name, kind), [0.0, 0.0, 0.0, 0])
        s[0] += obs
        s[1] += mean
        s[2] += var
        s[3] += 1

    def check(self, chk, label):
        for (name, kind), (obs, mean, var, count) in self.sums.items():
            what = f"{label} {name}"
            if kind == "exp":
                chk.gamma_sum(obs, count, what)
            elif kind == "indicator":
                chk.bernstein(obs, mean, var, 1.0, what)
            else:
                chk.z(obs, mean, var, what)


def _rows(traj):
    return [(e.time, e.n_failures, e.n_censored) for e in traj.events]


def check_structure(chk, traj, n, plan=None):
    """n removed in all, increasing times, every id once, censorings at
    their planned times with their planned ids."""
    chk.true(traj.n_initial == n, f"n_initial {traj.n_initial} != {n}")
    seen = {}
    last = 0.0
    for e in traj.events:
        if not e.time > last:
            chk.true(False, f"event time {e.time} not after {last}")
            return
        last = e.time
        for i in e.failed or ():
            seen[i] = ("f", e.time)
        for i in e.censored or ():
            seen[i] = ("c", e.time)
        chk.true(len(e.failed or ()) == e.n_failures
                 and len(e.censored or ()) == e.n_censored,
                 "event ids do not match its counts")
    removed = sum(e.n_failures + e.n_censored for e in traj.events)
    chk.true(removed == n, f"{removed} removed out of {n}")
    chk.true(sorted(seen) == list(range(n)), "ids are not each removed once")
    if plan is None:
        chk.true(all(k == "f" for k, _ in seen.values()),
                 "censoring without a plan")
        return
    for i, (kind, t) in seen.items():
        if kind == "c":
            chk.true(plan[i] == t, f"id {i} censored at {t}, planned {plan[i]}")
        else:
            chk.true(t < plan[i], f"id {i} failed at {t} after its plan")


def tally_uncensored(tally, fam, traj, n):
    """First holding time, first block and block count of one draw."""
    first = traj.events[0]
    tally.add("psi(n) x first holding time", "exp",
              fam.total_rate(n) * first.time, 1.0, 1.0)
    p1 = fam.first(n)
    tally.add("first block = 1", "indicator", float(first.n_failures == 1),
              p1, p1 * (1.0 - p1))
    k = sum(1 for e in traj.events if e.n_failures > 0)
    tally.add("distinct failure times", "normal", k, fam.mu[n], fam.var[n])


def _check_sims(fam, n, plan, n_plain):
    """Outputs: n_plain uncensored trajectories, then censored ones."""
    def check(out, chk):
        tally = Tally()
        for i, traj in enumerate(out):
            censored = i >= n_plain
            check_structure(chk, traj, n, plan if censored else None)
            if not censored:
                tally_uncensored(tally, fam, traj, n)
        tally.check(chk, f"n={n}")
    return check


def _check_small(fam):
    def check(out, chk):
        tally = Tally()
        for n, traj in out:
            check_structure(chk, traj, n)
            tally_uncensored(tally, fam, traj, n)
        tally.check(chk, "small n")
    return check


def _check_density(fam, harmonic_params=None):
    def check(out, chk):
        for traj, ll, grid, surv in out:
            rows = _rows(traj)
            chk.close(ll, ref.log_density_from_rates(
                rows, traj.n_initial, fam.rates, fam.nu),
                ref.TOL_EXACT, "log_density")
            own = ref.predictive_from_rates(rows, traj.n_initial, fam.rates,
                                            fam.nu, grid)
            chk.true(surv[0] == 1.0 and np.all(np.diff(surv) <= 0.0),
                     "predictive survival not starting at 1 or increasing")
            gap = float(np.max(np.abs(surv - own) / own))
            chk.true(gap <= ref.TOL_EXACT,
                     f"predictive survival off by {gap:.3g}")
            if harmonic_params is not None:
                times = [t for t, d, c in rows for _ in range(d + c)]
                status = [s for t, d, c in rows for s in [1] * d + [0] * c]
                prod = ref.harmonic_predictive(
                    times, status, harmonic_params["rho"],
                    harmonic_params["nu"], grid)
                gap = float(np.max(np.abs(surv - prod) / prod))
                chk.true(gap <= ref.TOL_EXACT,
                         f"harmonic product formula off by {gap:.3g}")
    return check


def _check_probe(fam, ns, reps):
    def check(rows, chk):
        chk.true([r.n for r in rows] == list(ns), "probe rows")
        for row in rows:
            chk.true(row.reps == reps and row.se > 0.0, "probe reps / se")
            chk.z(row.mean_blocks * reps, fam.mu[row.n] * reps,
                  fam.var[row.n] * reps, f"probe mean at n={row.n}")
    return check


def _check_rankings(fam, n, reps):
    def check(parts, chk):
        chk.true(len(parts) == reps, "ranking count")
        tally = Tally()
        p1 = fam.first(n)
        for part in parts:
            ids = sorted(i for b in part.blocks for i in b)
            chk.true(ids == list(range(n)), "not an ordered partition")
            tally.add("first block = 1", "indicator",
                      float(len(part.blocks[0]) == 1), p1, p1 * (1 - p1))
            tally.add("blocks", "normal", len(part.blocks), fam.mu[n],
                      fam.var[n])
        tally.check(chk, f"rankings n={n}")
    return check


def _check_seeded(seed_traj, m_new):
    def check(trajs, chk):
        for traj in trajs:
            check_one(traj, chk)

    def check_one(traj, chk):
        chk.true(traj.n_initial == seed_traj.n_initial + m_new, "n_initial")
        chk.true(traj.n_deaths == seed_traj.n_deaths + m_new,
                 "added failures != m_new")
        chk.true(traj.n_censored == seed_traj.n_censored, "censorings changed")
        by_time = {e.time: e for e in traj.events}
        for e in seed_traj.events:
            got = by_time.get(e.time)
            chk.true(got is not None and got.n_failures >= e.n_failures
                     and got.n_censored == e.n_censored,
                     f"seed event at {e.time} not kept")
        times = [e.time for e in traj.events]
        chk.true(all(b > a for a, b in zip(times, times[1:]))
                 and times[0] > 0.0, "times not increasing")
    return check


def _check_compare(st):
    nu, rho = st.params["gamma"]["nu"], st.params["gamma"]["rho"]
    reps = COMPARE["reps"]
    law = st.k3_law[1:]

    def check(rep, chk):
        chk.true(rep.reps == reps, "reps")
        for combo, emp, exact in zip(rep.grid, rep.survival_emp,
                                     rep.survival_exact):
            own = ref.gamma_joint_survival(combo, nu, rho)
            chk.close(exact, own, 1e-12, f"joint_survival{combo}")
            chk.bernstein(emp * reps, own * reps, own * (1 - own) * reps, 1.0,
                          f"measure-route survival at {combo}")
        for k, p in enumerate(law, start=1):
            var = p * (1 - p) * reps
            chk.bernstein(rep.count_markov[k - 1] * reps, p * reps, var, 1.0,
                          f"Markov P(K={k})")
            chk.bernstein(rep.count_emp[k - 1] * reps, p * reps, var, 1.0,
                          f"measure P(K={k})")
    return check


# ---------------------------------------------------------------------------
# The round


def _grid(traj):
    """50 points across the trajectory plus every event time, where the
    predictive law has its atoms."""
    last = traj.last_time
    pts = set(np.linspace(0.0, 1.2 * last, 50).tolist())
    pts.update(e.time for e in traj.events)
    return np.array(sorted(pts))


def _densities(ms, trajs, idx):
    out = []
    for traj in trajs:
        grid = _grid(traj)
        out.append((traj, ms.log_density(traj, idx), grid,
                    ms.predictive_survival(grid, traj, idx)))
    return out


def run_round(st, k, rec):
    ms, rng, R = st.ms, st.rng, st.ref

    for fam in ("harmonic", "gamma", "power"):
        idx = st.index[fam]
        rec.op("small", f"{fam} simulate n=2..20",
               lambda: [(n, ms.simulate(n, idx, rng=rng))
                        for n in SMALL_NS for _ in range(SMALL_REPS)],
               _check_small(R[fam]))
    g = st.params["gamma"]
    rec.op("small", "compare_constructions n=3",
           lambda: ms.compare_constructions(
               g["nu"], g["rho"], COMPARE["n"], COMPARE["grid"],
               COMPARE["reps"], COMPARE["eps"], rng),
           _check_compare(st))

    for cat, fams, n in (("closed", ("harmonic", "beta"), N_CLOSED),
                         ("quad", ("gamma", "power"), N_QUAD)):
        plan = st.plans[n]
        for fam in fams:
            idx = st.index[fam]
            trajs = rec.op(
                cat, f"{fam} simulate n={n}",
                lambda: [ms.simulate(n, idx, rng=rng)
                         for _ in range(SIM_REPS)]
                + [ms.simulate(n, idx, st.plan_obj[n], rng=rng)
                   for _ in range(SIM_REPS)],
                _check_sims(R[fam], n, plan, SIM_REPS))
            label = f"{fam} log_density + predictive_survival"
            if trajs is None:
                rec.skip(cat, label, "no trajectories")
                continue
            rec.op(cat, label, lambda: _densities(ms, trajs, idx),
                   _check_density(R[fam], st.params[fam]
                                  if fam == "harmonic" else None))

    for cat, fam, (ns, reps), rank_reps, m_new in (
            ("closed", "harmonic", PROBE_CLOSED, RANK_REPS_CLOSED,
             SEEDED_CLOSED),
            ("quad", "gamma", PROBE_QUAD, RANK_REPS_QUAD, SEEDED_QUAD)):
        idx = st.index[fam]
        rec.op(cat, f"{fam} block_growth_probe {ns} x {reps}",
               lambda: ms.block_growth_probe(idx, ns, reps, rng),
               _check_probe(R[fam], ns, reps))
        rec.op(cat, f"{fam} sample_rankings n={RANK_N} x {rank_reps}",
               lambda: ms.sample_rankings(RANK_N, idx, rng, rank_reps),
               _check_rankings(R[fam], RANK_N, rank_reps))
        rec.op(cat, f"{fam} simulate_seeded {SEED_N} + {m_new}",
               lambda: [ms.simulate_seeded(st.seed_traj, m_new, idx, rng)
                        for _ in range(SEEDED_CALLS)],
               _check_seeded(st.seed_traj, m_new))
