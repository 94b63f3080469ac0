"""Completely independent random hazard measures.

The mixture route to an exchangeable survival process: draw a random hazard
measure on a window, then draw lifetimes that are conditionally iid given
that measure.  The gamma measure gets a dedicated sampler (Poisson atoms
above a mass truncation); the exact unconditional joint survival function
and a cross-check against the Markov construction are also provided, since
the two constructions generate the same law and that equivalence is the main
verification oracle for the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special

from .index import (CharacteristicIndex, GammaIndex, ParameterError,
                    ResourceError)
from . import process

__all__ = [
    "ResourceError",
    "MeasureRealization",
    "sample_gamma_measure",
    "sample_survival_times",
    "joint_survival",
    "gamma_interval_totals",
    "compare_constructions",
    "ConstructionReport",
    "realization_to_csv",
]

_MAX_ATOMS = 100_000_000


@dataclass(frozen=True, eq=False)
class MeasureRealization:
    """Atoms of a purely-atomic random measure on (0, t_max], plus drift.

    Atoms below the stated truncation were dropped outright; the resulting
    bias is assessed empirically (halve the truncation, compare) rather than
    compensated analytically.
    """

    t_max: float
    drift: float
    locations: np.ndarray
    masses: np.ndarray
    truncation: float

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        mas = np.asarray(self.masses, dtype=float)
        if loc.shape != mas.shape:
            raise ParameterError("locations and masses must align")
        if loc.size and (np.any(loc <= 0.0) or np.any(loc > self.t_max)):
            raise ParameterError("atom locations must lie in (0, t_max]")
        if np.unique(loc).size != loc.size:
            raise ParameterError("atom locations must be distinct")
        if np.any(mas < self.truncation):
            raise ParameterError("atom masses must be at least the truncation")
        order = np.argsort(loc, kind="stable")
        object.__setattr__(self, "locations", loc[order])
        object.__setattr__(self, "masses", mas[order])

    @property
    def n_atoms(self) -> int:
        return int(self.locations.size)

    def total(self, a: float = 0.0, b: Optional[float] = None) -> float:
        """Measure of the interval (a, b]."""
        if b is None:
            b = self.t_max
        sel = (self.locations > a) & (self.locations <= b)
        return self.drift * (b - a) + float(self.masses[sel].sum())


def _gamma_mass_quantiles(rho: float, eps: float, u: np.ndarray) -> np.ndarray:
    """Inverse of the normalized tail of the density z**-1 exp(-rho z) on
    (eps, inf): exact to machine precision via Newton on the exponential
    integral."""
    total = special.exp1(rho * eps)
    target = u * total  # tail values in (0, total]
    z_hi = max(4.0 * eps, 80.0 / rho)
    grid = np.geomspace(eps, z_hi, 512)
    tails = special.exp1(rho * grid)
    z = np.interp(-target, -tails, grid)
    for _ in range(4):
        f = special.exp1(rho * z) - target
        z = np.clip(z + f * z * np.exp(np.minimum(rho * z, 700.0)), eps, z_hi)
    return z


def sample_gamma_measure(nu: float, rho: float, t_max: float, eps: float,
                         rng) -> MeasureRealization:
    """Draw the atoms of a gamma random measure with mass above eps.

    Atom count is Poisson with mean nu * t_max * E1(rho * eps), locations are
    uniform on the window, and masses follow the truncated jump density.
    """
    if not (nu >= 0.0):
        raise ParameterError(f"nu must be >= 0, got {nu}")
    if not (rho > 0.0):
        raise ParameterError(f"rho must be positive, got {rho}")
    if not (t_max > 0.0):
        raise ParameterError(f"t_max must be positive, got {t_max}")
    if not (eps > 0.0):
        raise ParameterError(f"truncation must be positive, got {eps}")
    mean_atoms = nu * t_max * float(special.exp1(rho * eps))
    if mean_atoms > _MAX_ATOMS:
        raise ResourceError(
            f"expected atom count {mean_atoms:.3g} exceeds {_MAX_ATOMS:.0e}; "
            "raise the truncation")
    count = int(rng.poisson(mean_atoms)) if mean_atoms > 0.0 else 0
    locs = rng.uniform(0.0, t_max, count)
    masses = _gamma_mass_quantiles(rho, eps, 1.0 - rng.random(count))
    return MeasureRealization(t_max=t_max, drift=0.0, locations=locs,
                              masses=masses, truncation=eps)


def sample_survival_times(n: int, measure: MeasureRealization, rng) -> np.ndarray:
    """Draw n conditionally iid lifetimes given the realized hazard measure.

    Each lifetime is the first time the cumulative hazard (drift plus atom
    jumps) exceeds an independent standard exponential; draws landing inside
    the same atom tie exactly.  Lifetimes exceeding the window come back as
    inf.
    """
    if n < 0:
        raise ParameterError("n must be >= 0")
    e = rng.exponential(size=n)
    loc, mas, drift = measure.locations, measure.masses, measure.drift
    if loc.size == 0:
        if drift == 0.0:
            return np.full(n, np.inf)
        t = e / drift
        return np.where(t <= measure.t_max, t, np.inf)
    post = drift * loc + np.cumsum(mas)
    pre = post - mas
    idx = np.searchsorted(post, e, side="left")
    safe = np.minimum(idx, loc.size - 1)
    out = np.full(n, np.inf)
    inside = idx < loc.size
    at_atom = inside & (e > pre[safe])
    out[at_atom] = loc[safe][at_atom]
    if drift > 0.0:
        in_gap = inside & ~at_atom
        base = np.where(safe > 0, post[np.maximum(safe - 1, 0)], 0.0)
        start = np.where(safe > 0, loc[np.maximum(safe - 1, 0)], 0.0)
        out[in_gap] = start[in_gap] + (e[in_gap] - base[in_gap]) / drift
        beyond = ~inside
        t = loc[-1] + (e - post[-1]) / drift
        out[beyond] = np.where(t[beyond] <= measure.t_max, t[beyond], np.inf)
    return out


def joint_survival(times: Sequence[float], index: CharacteristicIndex) -> float:
    """Exact unconditional P(T_1 > t_1, ..., T_n > t_n) for the process with
    the given index: the integrated total rate along the risk-set path."""
    t = np.sort(np.asarray(times, dtype=float))
    if t.size and not np.all(np.isfinite(t)):
        raise ParameterError("times must be finite")
    if t.size and t[0] < 0.0:
        raise ParameterError("times must be >= 0")
    acc = 0.0
    prev = 0.0
    m = t.size
    for ti in t:
        acc += index.total_rate(m) * (ti - prev)
        prev = ti
        m -= 1
    return math.exp(-acc)


def gamma_interval_totals(nu: float, rho: float, breaks: Sequence[float],
                          eps: float, reps: int, rng) -> np.ndarray:
    """Masses assigned by independent gamma-measure draws to consecutive
    intervals: returns an array of shape (reps, len(breaks) - 1)."""
    breaks = np.asarray(breaks, dtype=float)
    if breaks.ndim != 1 or breaks.size < 2 or np.any(np.diff(breaks) <= 0.0):
        raise ParameterError("breaks must be strictly increasing")
    span = breaks[-1] - breaks[0]
    mean_atoms = nu * span * float(special.exp1(rho * eps))
    if mean_atoms * reps > _MAX_ATOMS:
        raise ResourceError("atom budget exceeded; raise eps or lower reps")
    counts = rng.poisson(mean_atoms, size=reps)
    total = int(counts.sum())
    rep_of = np.repeat(np.arange(reps), counts)
    locs = rng.uniform(breaks[0], breaks[-1], total)
    masses = _gamma_mass_quantiles(rho, eps, 1.0 - rng.random(total))
    seg = np.searchsorted(breaks, locs, side="left") - 1
    seg = np.clip(seg, 0, breaks.size - 2)
    nseg = breaks.size - 1
    flat = np.bincount(rep_of * nseg + seg, weights=masses,
                       minlength=reps * nseg)
    return flat.reshape(reps, nseg)


def _batched_measure_times(nu: float, rho: float, n: int, window: float,
                           eps: float, reps: int, rng):
    """reps x n lifetimes within (0, window] under independent gamma-measure
    draws; inf marks survival past the window."""
    mean_atoms = nu * window * float(special.exp1(rho * eps))
    counts = rng.poisson(mean_atoms, size=reps)
    total = int(counts.sum())
    e = rng.exponential(size=(reps, n))
    if total == 0:
        return np.full((reps, n), np.inf)
    rep_of = np.repeat(np.arange(reps), counts)
    locs = rng.uniform(0.0, window, total)
    masses = _gamma_mass_quantiles(rho, eps, 1.0 - rng.random(total))
    order = np.lexsort((locs, rep_of))
    locs, masses = locs[order], masses[order]
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    base = cum[offsets[:-1]]
    target = base[:, None] + e
    g = np.searchsorted(cum[1:], target, side="left")
    hit = g < offsets[1:, None]
    safe = np.minimum(g, total - 1)
    times = np.where(hit, locs[safe], np.inf)
    return times


def _measure_distinct_counts(nu: float, rho: float, n: int, eps: float,
                             reps: int, rng, window: float = 8.0,
                             max_rounds: int = 60) -> np.ndarray:
    """Distinct-value counts of n lifetimes per rep under the measure
    pathway, extending the window for survivors round by round."""
    times = _batched_measure_times(nu, rho, n, window, eps, reps, rng)
    offset = window
    for _ in range(max_rounds):
        alive_rows = np.flatnonzero(np.isinf(times).any(axis=1))
        if alive_rows.size == 0:
            break
        fresh = _batched_measure_times(nu, rho, n, window, eps,
                                       alive_rows.size, rng)
        block = times[alive_rows]
        mask = np.isinf(block)
        block[mask] = (offset + fresh)[mask]
        times[alive_rows] = block
        offset += window
    else:
        raise ResourceError("lifetimes failed to resolve; window too short")
    s = np.sort(times, axis=1)
    return 1 + np.count_nonzero(np.diff(s, axis=1) > 0.0, axis=1)


@dataclass(frozen=True)
class ConstructionReport:
    """Standardized discrepancies between the measure-mixture pathway, exact
    joint-survival values, and direct Markov simulation."""

    grid: tuple
    survival_emp: np.ndarray
    survival_exact: np.ndarray
    survival_z: np.ndarray
    count_emp: np.ndarray
    count_markov: np.ndarray
    count_z: np.ndarray
    reps: int
    eps: float

    @property
    def max_abs_z(self) -> float:
        return float(max(np.abs(self.survival_z).max(),
                         np.abs(self.count_z).max()))


def compare_constructions(nu: float, rho: float, n: int,
                          grid_values: Sequence[float], reps: int,
                          eps: float, rng, chunk: int = 20000) -> ConstructionReport:
    """Check that the measure pathway and the Markov pathway agree.

    (a) empirical joint survival over the product grid vs the exact values;
    (b) the distribution of the number of distinct lifetimes vs direct
    Markov simulation at the matching index.  Both come back as z-scores.
    """
    grid_values = sorted(float(g) for g in grid_values)
    if not grid_values or grid_values[0] <= 0.0:
        raise ParameterError("grid values must be positive")
    combos = _product_grid(grid_values, n)
    window = grid_values[-1]

    hits = np.zeros(len(combos), dtype=np.int64)
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        times = _batched_measure_times(nu, rho, n, window, eps, m, rng)
        for i, combo in enumerate(combos):
            hits[i] += int(np.count_nonzero(
                (times > np.asarray(combo)).all(axis=1)))
        done += m
    index = GammaIndex(nu=nu, rho=rho)
    exact = np.array([joint_survival(c, index) for c in combos])
    emp = hits / reps
    se = np.sqrt(exact * (1.0 - exact) / reps)
    survival_z = (emp - exact) / se

    counts_measure = np.concatenate([
        _measure_distinct_counts(nu, rho, n, eps,
                                 min(chunk, reps - start), rng)
        for start in range(0, reps, chunk)])
    counts_markov = process.simulate_batch(n, index, reps, rng).num_blocks
    kvals = np.arange(1, n + 1)
    p1 = np.array([(counts_measure == k).mean() for k in kvals])
    p2 = np.array([(counts_markov == k).mean() for k in kvals])
    pbar = 0.5 * (p1 + p2)
    with np.errstate(divide="ignore", invalid="ignore"):
        count_z = np.where(
            pbar * (1.0 - pbar) > 0.0,
            (p1 - p2) / np.sqrt(pbar * (1.0 - pbar) * (2.0 / reps)),
            0.0)
    return ConstructionReport(
        grid=tuple(combos), survival_emp=emp, survival_exact=exact,
        survival_z=survival_z, count_emp=p1, count_markov=p2,
        count_z=count_z, reps=reps, eps=eps)


def simulate_distinct_count(n: int, index: CharacteristicIndex, rng) -> int:
    """Number of distinct failure times in one direct Markov simulation."""
    return int(process.simulate_batch(n, index, 1, rng).num_blocks[0])


def _product_grid(values, n):
    combos = [()]
    for _ in range(n):
        combos = [c + (v,) for c in combos for v in values]
    return combos


def realization_to_csv(measure: MeasureRealization) -> str:
    """Atom dump as CSV (location, mass) for debugging."""
    lines = ["location,mass"]
    for x, z in zip(measure.locations, measure.masses):
        lines.append(f"{float(x)!r},{float(z)!r}")
    return "\n".join(lines) + "\n"
