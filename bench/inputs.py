"""Seeded input generation, with numpy only (never with marksurv's samplers,
so a change to the program's random streams leaves the inputs unchanged).

The same seed gives the same inputs.  Every structural property that sets
the cost of the program's work (record counts, failure and censoring counts,
number of distinct failure times, parameter values to within 1e-2) is
fixed; the seed moves only where the ties and censorings fall and where in
a fixed sequence the parameter values start.
"""

from __future__ import annotations

import math

import numpy as np

# Streams of the seed sequence, one per kind of input, so that adding an
# input of one kind leaves the others unchanged.
STREAM_PARAMS, STREAM_DATA, STREAM_PLANS, STREAM_SEED_TRAJ, STREAM_PROGRAM = \
    range(5)


# Times of generated records and censoring plans lie on multiples of this
# step (exact in binary), so ties are exact.
GRID_STEP = 0.25


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def param_offset(seed: int) -> int:
    """Where in a fixed sequence of parameter values a run starts."""
    return int(rng_for(seed, STREAM_PARAMS).integers(10_000))


def censored_tied_records(rng: np.random.Generator, n_records: int,
                          n_failures: int, n_distinct: int):
    """(times, status) with exactly ``n_distinct`` distinct failure times.

    Times lie on multiples of GRID_STEP.  Every chosen failure time carries
    at least one failure; the remaining failures fall on them with weights
    decreasing in time, which makes large tied blocks early.  Censoring times fall on the same grid,
    uniformly over the observed range, so some coincide with failure times.
    """
    if not (1 <= n_distinct < n_failures < n_records):
        raise ValueError("need 1 <= n_distinct < n_failures < n_records")
    grid = GRID_STEP * np.arange(1, 2 * n_distinct + 1)
    fail_times = np.sort(rng.choice(grid, size=n_distinct, replace=False))
    weights = np.exp(-np.arange(n_distinct) / (0.4 * n_distinct))
    extra = rng.multinomial(n_failures - n_distinct, weights / weights.sum())
    per_time = 1 + extra
    cens = rng.choice(grid, size=n_records - n_failures, replace=True)
    times = np.concatenate([np.repeat(fail_times, per_time), cens])
    status = np.concatenate([np.ones(n_failures, dtype=int),
                             np.zeros(n_records - n_failures, dtype=int)])
    order = rng.permutation(n_records)
    times, status = times[order].tolist(), status[order].tolist()
    fail_counts = {}
    for t, s in zip(times, status):
        if s:
            fail_counts[t] = fail_counts.get(t, 0) + 1
    if len(fail_counts) != n_distinct:
        raise AssertionError("wrong number of distinct failure times")
    if max(fail_counts.values()) < 2:
        raise AssertionError("dataset has no tied failure time")
    if sum(1 for s in status if not s) < 1:
        raise AssertionError("dataset has no censoring")
    return times, status


def records_csv(times, status) -> str:
    """``time,status`` CSV; repr keeps every time exact."""
    lines = ["time,status"]
    lines += [f"{t!r},{s}" for t, s in zip(times, status)]
    return "\n".join(lines) + "\n"


def censoring_plan(rng: np.random.Generator, n: int, frac: float,
                   mean: float):
    """Planned censoring times: about ``frac`` of the individuals get a time
    on multiples of GRID_STEP (so several share one), the rest inf.
    The count of finite times is fixed: round(frac * n)."""
    k = int(round(frac * n))
    times = np.full(n, math.inf)
    who = rng.choice(n, size=k, replace=False)
    times[who] = GRID_STEP * np.ceil(rng.exponential(mean, size=k)
                                  / GRID_STEP)
    return times.tolist()


def seed_rows(rng: np.random.Generator, n: int, n_distinct: int):
    """Rows (time, failures, censorings) of a complete seed trajectory of n
    individuals with ``n_distinct`` failure times and one censoring time."""
    times = np.sort(rng.choice(np.arange(1, 4 * n_distinct + 2),
                               size=n_distinct + 1, replace=False)) * 0.5
    fail = 1 + rng.multinomial(n - 1 - n_distinct,
                               np.full(n_distinct, 1.0 / n_distinct))
    cens_at = int(rng.integers(n_distinct + 1))
    rows = []
    j = 0
    for i, t in enumerate(times.tolist()):
        if i == cens_at:
            rows.append((t, 0, 1))
        else:
            rows.append((t, int(fail[j]), 0))
            j += 1
    return rows
