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

import itertools
import math
import sys
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .index import (CharacteristicIndex, GammaIndex, ParameterError,
                    ResourceError, special)
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
]

_MAX_ATOMS = 100_000_000
# _measure_lifetimes: chunks of ~_CHUNK_ATOMS atoms per window and at most
# _CHUNK < 2**16 reps (it sorts reps on 16 bits); a window ends 1 - exp(-1.5)
# = 78% of its lifetimes, so only a near-empty measure runs out of rounds.
_CHUNK = 20_000
_CHUNK_ATOMS = 1_000_000
_WINDOW_LIFETIMES = 1.5
_MAX_ROUNDS = 200


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
        if not (0.0 < self.t_max < math.inf and 0.0 <= self.drift < math.inf):
            raise ParameterError("need finite t_max > 0 and drift >= 0, got "
                                 f"{self.t_max} and {self.drift}")
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


# Nodes of the inverse jump tail, evenly spaced in log u over [-38, 0]:
# u = 1 - random() >= 2**-53, so log u >= -36.7.  Against mpmath over 15
# (rho, eps) and 202 u each, the inverse misses by up to 4.8e-15 relative
# with 2048 nodes, 6.7e-15 with 1024 and 1.9e-12 with 512.
_TAIL_NODES = 2048
_TAIL_SPAN = 38.0


def _gamma_mass_inverse(rho: float, eps: float):
    """Return the inverse u -> z of the normalized tail E1(rho z) / E1(rho
    eps) of the jump density z**-1 exp(-rho z) on (eps, inf), u in
    [2**-53, 1]: a cubic Hermite in (log u, log z) through _TAIL_NODES nodes,
    each exact by interpolation and four Newton steps on E1, then one Newton
    step; within 5e-15 relative of the exact quantile."""
    total = float(special.exp1(rho * eps))
    z_hi = max(4.0 * eps, 80.0 / rho)

    def newton(z, target):
        f = special.exp1(rho * z) - target
        return np.clip(z + f * z * np.exp(np.minimum(rho * z, 700.0)),
                       eps, z_hi)

    log_u = np.linspace(-_TAIL_SPAN, 0.0, _TAIL_NODES)
    target = np.exp(log_u) * total
    grid = np.geomspace(eps, z_hi, 512)
    z = np.interp(-target, -special.exp1(rho * grid), grid)
    for _ in range(4):
        z = newton(z, target)
    h = _TAIL_SPAN / (_TAIL_NODES - 1)
    # h d log z / d log u = -h E1(rho z) exp(rho z), in logs past rho z = 700
    m = -h * np.exp(log_u + math.log(total) + rho * z)
    y = np.log(z)
    dy = np.diff(y)
    coef = (y[:-1], m[:-1], 3.0 * dy - 2.0 * m[:-1] - m[1:],
            m[:-1] + m[1:] - 2.0 * dy)

    def inverse(u: np.ndarray) -> np.ndarray:
        # The node by arithmetic on log u, not a search; Horner steps in
        # place keep the peak memory near that of the draws themselves.
        x = np.log(u)
        x += _TAIL_SPAN
        x /= h
        i = np.minimum(x.astype(np.intp), _TAIL_NODES - 2)
        x -= i
        z = coef[3][i]
        for c in coef[2::-1]:
            z *= x
            z += c[i]
        return newton(np.exp(z, out=z), u * total)
    return inverse


class _GammaJumps:
    """The jumps above eps of a gamma measure: checks (nu, rho, eps) and
    keeps their expected number per unit length, nu E1(rho eps), and the
    inverse of their mass tail, built at the first mass drawn."""

    def __init__(self, nu: float, rho: float, eps: float):
        if not (0.0 <= nu < math.inf):
            raise ParameterError(f"nu must be finite and >= 0, got {nu}")
        if not (0.0 < rho < math.inf):
            raise ParameterError(f"rho must be finite and > 0, got {rho}")
        if not (eps > 0.0):
            raise ParameterError(f"truncation must be positive, got {eps}")
        self.rate = nu * float(special.exp1(rho * eps))
        self.rho, self.eps, self._inverse = rho, eps, None

    def atoms(self, width: float, reps: int, rng):
        """Atoms of ``reps`` independent draws on [0, width): Poisson counts
        per rep, then uniform locations in rep order, then masses from the
        truncated jump density."""
        mean_atoms = width * self.rate
        if mean_atoms * reps > _MAX_ATOMS:
            raise ResourceError(f"expected atom count {mean_atoms * reps:.3g} "
                                f"exceeds {_MAX_ATOMS:.0e}; raise the truncation")
        counts = rng.poisson(mean_atoms, size=reps)  # draws nothing at mean 0
        total = int(counts.sum())
        locs = rng.uniform(0.0, width, total)
        u = 1.0 - rng.random(total)
        if total and self._inverse is None:
            self._inverse = _gamma_mass_inverse(self.rho, self.eps)
        return counts, locs, self._inverse(u) if total else u


def sample_gamma_measure(nu: float, rho: float, t_max: float, eps: float,
                         rng) -> MeasureRealization:
    """Draw the atoms of a gamma random measure with mass above eps.

    Atom count is Poisson with mean nu * t_max * E1(rho * eps), locations are
    uniform on the window, and masses follow the truncated jump density.
    """
    if not (t_max > 0.0):
        raise ParameterError(f"t_max must be positive, got {t_max}")
    _, locs, masses = _GammaJumps(nu, rho, eps).atoms(t_max, 1, rng)
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
    unit = process._path_integral(index.unit_total_rate,
                                  np.arange(t.size, 0, -1),
                                  np.diff(t, prepend=0.0))
    return math.exp(-index.scale * unit)


def gamma_interval_totals(nu: float, rho: float, breaks: Sequence[float],
                          eps: float, reps: int, rng) -> np.ndarray:
    """Masses assigned by independent gamma-measure draws to consecutive
    intervals: returns an array of shape (reps, len(breaks) - 1)."""
    breaks = np.asarray(breaks, dtype=float)
    if breaks.ndim != 1 or breaks.size < 2 or np.any(np.diff(breaks) <= 0.0):
        raise ParameterError("breaks must be strictly increasing")
    counts, locs, masses = _GammaJumps(nu, rho, eps).atoms(
        breaks[-1] - breaks[0], reps, rng)
    nseg = breaks.size - 1
    cell = (np.repeat(np.arange(reps) * nseg, counts)
            + np.searchsorted(breaks[1:-1], breaks[0] + locs))
    return np.bincount(cell, weights=masses,
                       minlength=reps * nseg).reshape(reps, nseg)


def _measure_lifetimes(nu: float, rho: float, n: int, eps: float, reps: int,
                       rng) -> np.ndarray:
    """reps x n lifetimes, each row conditionally iid given its own draw of
    the gamma measure.  Each lifetime ends at the first atom where the
    measure's running total reaches its standard exponential.  The measure
    is drawn window by window, _WINDOW_LIFETIMES mean single lifetimes
    1 / (nu log(1 + 1/rho)) long, and a lifetime unresolved at a window's
    end carries its remaining exponential into a fresh window: the
    increments on disjoint windows are independent, and the exponential has
    no memory."""
    width = _WINDOW_LIFETIMES / (nu * math.log1p(1.0 / rho))
    jumps = _GammaJumps(nu, rho, eps)
    per_rep = width * jumps.rate
    chunk = min(_CHUNK, max(1, int(_CHUNK_ATOMS / max(per_rep, 1.0))))
    times = np.full((reps, n), np.inf)
    for start in range(0, reps, chunk):
        rows = np.arange(start, min(start + chunk, reps))
        left = rng.standard_exponential((rows.size, n))
        for offset in width * np.arange(_MAX_ROUNDS):
            counts, locs, masses = jumps.atoms(width, rows.size, rng)
            bound = np.concatenate([[0], np.cumsum(counts)])
            # Sort locations within reps: by value, then stably by rep (a
            # radix sort on 16 bits).  The masses are iid and independent of
            # the locations, so they stay in draw order.
            by_loc = np.argsort(locs)
            rep_of = np.repeat(np.arange(rows.size, dtype=np.uint16), counts)
            locs = locs[by_loc][np.argsort(rep_of[by_loc], kind="stable")]
            cum = np.concatenate([[0.0], np.cumsum(masses)])
            base = cum[bound[:-1], None]
            at = np.maximum(np.searchsorted(cum[1:], base + left),
                            bound[:-1, None])
            hit = at < bound[1:, None]
            r, c = np.nonzero(hit)
            times[rows[r], c] = offset + locs[at[r, c]]
            left = np.where(hit, np.inf, left - (cum[bound[1:], None] - base))
            keep = np.isfinite(left).any(axis=1)
            rows, left = rows[keep], left[keep]
            if rows.size == 0:
                break
        else:
            raise ResourceError(f"lifetimes unresolved after {_MAX_ROUNDS} "
                                "windows; lower the truncation")
    return times


def _binomial_z(hits: np.ndarray, reps: int, p: np.ndarray) -> np.ndarray:
    """z-scores of counts ``hits`` of Binomial(reps, p): the normal quantile
    of the mid-p tail P(X < h) + P(X = h) / 2, read from the smaller of it
    and its complement.  Unlike (h - reps p) / sd, it stays calibrated where
    reps p is far below 1."""
    below = np.where(hits > 0,
                     special.bdtr(np.maximum(hits - 1, 0), reps, p), 0.0)
    lower = 0.5 * (below + special.bdtr(hits, reps, p))
    upper = 0.5 * (special.bdtrc(hits - 1, reps, p)
                   + special.bdtrc(hits, reps, p))
    inv = NormalDist().inv_cdf
    tiny = sys.float_info.min
    return np.array([inv(max(lo, tiny)) if lo < up else -inv(max(up, tiny))
                     for lo, up in zip(lower.tolist(), upper.tolist())])


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
                          eps: float, rng) -> ConstructionReport:
    """Check that the measure pathway and the Markov pathway agree.

    One measure-route draw per rep gives both checks: (a) empirical joint
    survival over the product grid vs the exact values; (b) the distribution
    of the number of distinct lifetimes vs direct Markov simulation at the
    matching index.  Both come back as z-scores; a survival cell's is read
    from the exact binomial tail of its hit count, so cells expecting far
    under one hit raise no false alarm.
    """
    index = GammaIndex(nu=nu, rho=rho)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if reps < 1:
        raise ParameterError(f"reps must be >= 1, got {reps}")
    grid_values = sorted(float(g) for g in grid_values)
    if not grid_values or grid_values[0] <= 0.0:
        raise ParameterError("grid values must be positive")
    combos = list(itertools.product(grid_values, repeat=n))
    exact = np.array([joint_survival(c, index) for c in combos])

    times = _measure_lifetimes(nu, rho, n, eps, reps, rng)
    hits = np.array([np.count_nonzero((times > c).all(axis=1))
                     for c in combos])
    counts_measure = 1 + np.count_nonzero(
        np.diff(np.sort(times, axis=1), axis=1) > 0.0, axis=1)
    emp = hits / reps
    survival_z = _binomial_z(hits, reps, exact)

    counts_markov = process.simulate_batch(n, index, reps, rng).num_blocks
    p1 = np.bincount(counts_measure, minlength=n + 1)[1:] / reps
    p2 = np.bincount(counts_markov, minlength=n + 1)[1:] / reps
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

