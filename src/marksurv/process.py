"""Continuous-time survival-process engine.

The observable object is a risk-set trajectory: an initial count plus a
time-ordered list of events, each removing failed and/or censored
individuals.  Given a characteristic index this module simulates such
trajectories under arbitrary fixed right censoring, evaluates their exact
log density, computes the predictive survival curve for the next
individual, draws from it, extends a seed trajectory, and applies monotone
time changes.

Without censoring the block sizes form a Markov chain on the risk-set size,
so many trajectories advance together: one step per visited size m, with an
exponential holding time at the total rate and a block size drawn by
inverse CDF from the first-block row for m.

Trajectories are immutable value objects; every stochastic function takes an
explicit ``numpy.random.Generator``, so Monte Carlo parallelizes by handing
each worker its own spawned generator.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from .index import (CharacteristicIndex, NumericError, ParameterError,
                    _check_risk_set, _first_block_reader, _forbidden_block,
                    _read_only, _walk_tables)
from .ranking import _block_sweep, sample_first_block_size

__all__ = [
    "Event",
    "RiskSetTrajectory",
    "CensoringPlan",
    "TimeTransform",
    "TrajectoryBatch",
    "simulate",
    "simulate_batch",
    "log_density",
    "predictive_survival",
    "sample_next",
    "simulate_seeded",
    "residual_trajectory",
    "transform_times",
    "log_density_semimarkov",
    "trajectory_to_csv",
    "trajectory_from_csv",
]


@dataclass(frozen=True)
class Event:
    """Failures and/or censorings sharing one timestamp.

    When both occur at the same time the failures are counted first, so the
    censored individuals still belong to the risk set at the event time.
    """

    time: float
    n_failures: int = 0
    n_censored: int = 0
    failed: Optional[tuple] = None
    censored: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        if not (self.time > 0.0):
            raise ParameterError(f"event time must be positive, got {self.time}")
        if self.n_failures < 0 or self.n_censored < 0:
            raise ParameterError("event counts must be non-negative")
        if self.n_failures + self.n_censored < 1:
            raise ParameterError("an event must remove at least one individual")
        if self.failed is not None and len(self.failed) != self.n_failures:
            raise ParameterError("failed ids inconsistent with n_failures")
        if self.censored is not None and len(self.censored) != self.n_censored:
            raise ParameterError("censored ids inconsistent with n_censored")


@dataclass(frozen=True)
class RiskSetTrajectory:
    """Initial risk-set size plus strictly time-ordered events.

    The columns every likelihood reads are computed on first use and kept,
    as read-only arrays: per event, its time, the length of the segment
    ending at it and the risk-set size over that segment; per failure block
    (distinct failure time), its time, the survivors r it leaves and its
    size d.
    """

    n_initial: int
    events: tuple

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if self.n_initial < 0:
            raise ParameterError("initial risk-set size must be >= 0")
        last = 0.0
        removed = 0
        for e in self.events:
            if not e.time > last:
                raise ParameterError("event times must be strictly increasing")
            last = e.time
            removed += e.n_failures + e.n_censored
        if removed > self.n_initial:
            raise ParameterError("events remove more individuals than exist")

    @cached_property
    def time(self) -> np.ndarray:
        return _read_only(np.array([e.time for e in self.events]))

    @cached_property
    def span(self) -> np.ndarray:
        # np.diff(time, prepend=0.0), bit for bit, at a fifth of its cost.
        return _read_only(self.time - np.concatenate(([0.0], self.time[:-1])))

    @cached_property
    def at_risk(self) -> np.ndarray:
        gone = np.array([e.n_failures + e.n_censored for e in self.events],
                        dtype=np.intp)
        return _read_only(self.n_initial - (gone.cumsum() - gone))

    @cached_property
    def total_risk_time(self) -> float:
        """Time at risk summed over individuals; it may overflow to inf."""
        return _path_integral(float, self.at_risk, self.span)

    @cached_property
    def _blocks(self) -> np.ndarray:
        """Positions of the events with failures."""
        return np.flatnonzero([e.n_failures > 0 for e in self.events])

    @cached_property
    def fail_time(self) -> np.ndarray:
        return _read_only(self.time[self._blocks])

    @cached_property
    def d(self) -> np.ndarray:
        return _read_only(np.array([e.n_failures for e in self.events
                                    if e.n_failures > 0], dtype=np.intp))

    @cached_property
    def r(self) -> np.ndarray:
        return _read_only(self.at_risk[self._blocks] - self.d)

    @property
    def n_deaths(self) -> int:
        return sum(e.n_failures for e in self.events)

    @property
    def n_censored(self) -> int:
        return sum(e.n_censored for e in self.events)

    @property
    def num_failure_times(self) -> int:
        """Number of distinct failure times (tied blocks count once)."""
        return len(self.d)

    @property
    def last_time(self) -> float:
        return self.events[-1].time if self.events else 0.0

    @property
    def final_risk_size(self) -> int:
        return self.n_initial - self.n_deaths - self.n_censored

    def segments(self):
        """Yield (t_start, t_end, risk size) over the piecewise-constant
        stretch up to the last event."""
        t = 0.0
        alive = self.n_initial
        for e in self.events:
            yield t, e.time, alive
            alive -= e.n_failures + e.n_censored
            t = e.time

    def risk_size(self, t: float) -> int:
        """Risk-set size at t: failures at t are excluded, individuals
        censored exactly at t are still included."""
        alive = self.n_initial
        for e in self.events:
            if e.time < t:
                alive -= e.n_failures + e.n_censored
            elif e.time == t:
                alive -= e.n_failures
            else:
                break
        return alive


@dataclass(frozen=True)
class CensoringPlan:
    """Fixed per-individual censoring times; inf means never censored and
    zero removes the individual before observation starts."""

    times: tuple

    def __post_init__(self):
        times = tuple(float(c) for c in self.times)
        object.__setattr__(self, "times", times)
        if not all(c >= 0.0 for c in times):
            raise ParameterError("censoring times must be >= 0, not NaN")


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Uncensored trajectories of ``reps`` independent runs from n at risk,
    as columns with one entry per failure block, ordered by rep and then
    time: the rep, the block's time and its size."""

    n: int
    reps: int
    rep: np.ndarray
    time: np.ndarray
    size: np.ndarray

    @property
    def num_blocks(self) -> np.ndarray:
        """Number of failure blocks (distinct failure times) of each rep."""
        return np.bincount(self.rep, minlength=self.reps)


def simulate_batch(n: int, index: CharacteristicIndex, reps: int,
                   rng) -> TrajectoryBatch:
    """Simulate ``reps`` uncensored trajectories of n individuals at once.

    One sweep down the risk-set sizes advances every rep at the current
    size together: an exponential holding time at the total rate, then a
    block size from the first-block row.  Particle ids are not drawn; by
    exchangeability any assignment of ids to blocks is equally likely.
    """
    _check_risk_set(n)
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    if rng is None:
        raise ParameterError("an explicit random generator is required")
    if reps == 1:
        # The sweep's steps and draws on plain numbers: at n = 1 or 2 its
        # array bookkeeping would make simulate slower than the draws.
        first_block = _first_block_reader(index, n) if n > 1 else None
        times, sizes = [], []
        m, t = n, 0.0
        while m > 0:
            d = sample_first_block_size(m, index, rng, rows=first_block)
            t += rng.standard_exponential() / index.total_rate(m)
            times.append(t)
            sizes.append(d)
            m -= d
        return TrajectoryBatch(n=n, reps=1, rep=np.zeros(len(sizes), np.intp),
                               time=np.array(times), size=np.array(sizes))
    clock = np.zeros(reps)
    reps_at, times, sizes = [], [], []
    for m, at, d in _block_sweep(index, n, reps, rng):
        t = clock[at] + rng.standard_exponential(at.size) / index.total_rate(m)
        clock[at] = t
        reps_at.append(at)
        times.append(t)
        sizes.append(d)
    rep = np.concatenate(reps_at)
    # Within a rep the sweep already runs forward in time.
    order = rep.argsort(kind="stable")
    return TrajectoryBatch(n=n, reps=reps, rep=rep[order],
                           time=np.concatenate(times)[order],
                           size=np.concatenate(sizes)[order])


def simulate(n: int, index: CharacteristicIndex,
             plan: Optional[CensoringPlan] = None, rng=None) -> RiskSetTrajectory:
    """Simulate the trajectory of n individuals under the given index.

    The individuals with a planned time above zero run uncensored, as
    ``simulate_batch`` with one rep, their ids given to the blocks as
    consecutive slices of a random permutation; then each one is censored
    at its planned time unless it failed by then.  The processes are
    consistent, so the individuals still under observation at any time
    form the same Markov survival process on the smaller risk set, and
    censoring after the run has the law of censoring during it.
    """
    _check_risk_set(n)
    if rng is None:
        raise ParameterError("an explicit random generator is required")
    censor = np.full(n, math.inf) if plan is None else np.array(plan.times)
    if len(censor) != n:
        raise ParameterError("censoring plan length must equal n")
    alive = np.flatnonzero(censor > 0.0)
    if alive.size == 0:
        return RiskSetTrajectory(0, ())
    batch = simulate_batch(alive.size, index, 1, rng)
    fail_at = np.empty(alive.size)
    fail_at[rng.permutation(alive.size)] = np.repeat(batch.time, batch.size)
    end = np.minimum(fail_at, censor[alive])
    lost = fail_at > end
    # by time, failures before censorings, then by id
    order = np.lexsort((lost, end))
    end = end[order]
    lo = [0, *(np.flatnonzero(end[1:] != end[:-1]) + 1).tolist()]
    end, who, lost = end.tolist(), alive[order].tolist(), lost[order].tolist()
    events = []
    for i, j in zip(lo, lo[1:] + [len(who)]):
        k = bisect.bisect(lost, False, i, j)
        events.append(Event(end[i], k - i, j - k,
                            failed=tuple(who[i:k]) or None,
                            censored=tuple(who[k:j]) or None))
    return RiskSetTrajectory(alive.size, tuple(events))


def _path_integral(rate: Callable[[int], float], at_risk: np.ndarray,
                   span: np.ndarray) -> float:
    """The integral of rate(m) along a risk-set path that has at_risk[i]
    individuals at risk for span[i], summed in order as a running total
    would be (Python 3.12's sum() compensates float rounding)."""
    total = 0.0
    for m, t in zip(at_risk.tolist(), span.tolist()):
        total += rate(m) * t
    return total


def _unit_rate_integral(traj: RiskSetTrajectory,
                        index: CharacteristicIndex) -> float:
    """U: the unit total rate integrated along the trajectory."""
    return _path_integral(index.unit_total_rate, traj.at_risk, traj.span)


def _log_density_sums(traj: RiskSetTrajectory, index: CharacteristicIndex):
    """(U, S): the integrated unit rate and the sum of the log unit block
    rates of the failure blocks, all of these from one rate call."""
    unit_integral, log_rate_sum = _unit_rate_integral(traj, index), 0.0
    for x in index._log_rates(traj.r, traj.d).tolist():
        log_rate_sum += x
    return unit_integral, log_rate_sum


def _log_likelihood(k: int, nu: float, sums) -> float:
    """The log density k log nu - nu U + S of a trajectory with k failure
    blocks at scale nu, from its (U, S)."""
    unit_integral, log_rate_sum = sums
    return k * math.log(nu) - nu * unit_integral + log_rate_sum


def log_density(traj: RiskSetTrajectory, index: CharacteristicIndex) -> float:
    """Exact log density of a trajectory: minus the integrated total rate
    plus one block-rate term per failure time, the block rates all from one
    rate call.

    Censorings alter the integral through the risk-set path but contribute
    no product term.  A structurally impossible trajectory (a tied block the
    index forbids) returns -inf rather than raising, so optimizers can
    reject the parameter point.
    """
    return _log_likelihood(traj.num_failure_times, index.scale,
                           _log_density_sums(traj, index))


def _survival_pieces(history: RiskSetTrajectory, index: CharacteristicIndex):
    """Knots, per-segment hazards, cumulative hazard and cumulative atom
    log-survival factors for the next individual's predictive law.

    The hazard over a segment with m at risk is the singleton rate
    lambda(m, 1); a failure block of d leaving r multiplies survival by
    lambda(r + 1, d) / lambda(r, d).  All of these come from one rate call.
    """
    r, d = history.r, history.d
    at_risk = np.append(history.at_risk, history.final_risk_size)
    k = len(d)
    lr = index._log_rates(np.concatenate([r + 1, r, at_risk]),
                          np.concatenate([d, d, np.ones_like(at_risk)]))
    forbidden = np.flatnonzero(lr[k:2 * k] == -np.inf)
    if forbidden.size:
        i = forbidden[0]
        raise _forbidden_block(int(r[i]), int(d[i]))
    log_atoms = np.zeros(len(history.events))
    log_atoms[history._blocks] = lr[:k] - lr[k:2 * k]
    haz = index.scale * np.exp(lr[2 * k:])
    cum_h = np.concatenate([[0.0], np.cumsum(haz[:-1] * history.span)])
    cum_atoms = np.concatenate([[0.0], np.cumsum(log_atoms)])
    return np.append(0.0, history.time), haz, cum_h, cum_atoms


def predictive_survival(t, history: RiskSetTrajectory,
                        index: CharacteristicIndex):
    """P(next lifetime > t) given the observed trajectory.

    Right-continuous and non-increasing, with an atom at each observed
    failure time and a continuous hazard between events that never shuts
    off, so the curve decays to zero.  The decay scale 1 / hazard can lie
    beyond the float range (a geometric index with 1,100 at risk): the
    curve then reads 1 where the true value is 1 - O(1e-325).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(t_arr >= 0.0):
        raise ParameterError("t must be >= 0")
    knots, haz, cum_h, cum_atoms = _survival_pieces(history, index)
    idx = np.searchsorted(knots, t_arr, side="right") - 1
    h = cum_h[idx] + haz[idx] * (t_arr - knots[idx])
    out = np.exp(-h + cum_atoms[idx])
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out[0])
    return out


_EVENT_ROW = attrgetter("time", "n_failures", "n_censored")


def _draw_next(alive: int, rows, index: CharacteristicIndex, rng) -> float:
    """The predictive draw of sample_next from the initial risk-set size and
    the (time, n_failures, n_censored) rows of the events in time order.
    Hazards and atom factors are read from the index's walk tables."""
    walk = _walk_tables(index)
    hazard, keep = walk.hazard, walk.keep
    e_cont = rng.exponential()
    t_prev = 0.0
    for time, n_failures, n_censored in rows:
        h = hazard[alive] if alive < len(hazard) else -1.0
        if h < 0.0:
            h = walk.hazard_at(index, alive)
        span = time - t_prev
        if h * span >= e_cont:
            return t_prev + e_cont / h
        e_cont -= h * span
        if n_failures > 0:
            r = alive - n_failures
            col = keep.get(n_failures)
            k = col[r] if col is not None and r < len(col) else -1.0
            if k < 0.0:
                k = walk.keep_at(index, r, n_failures)
            if rng.random() >= k:
                return time
        alive -= n_failures + n_censored
        t_prev = time
    h = hazard[alive] if alive < len(hazard) else -1.0
    if h < 0.0:
        h = walk.hazard_at(index, alive)
    if h == 0.0:
        raise NumericError(f"the singleton hazard with {alive} at risk is 0 "
                           "in doubles: the next lifetime overflows")
    return t_prev + e_cont / h


def _check_blocks(history: RiskSetTrajectory,
                  index: CharacteristicIndex) -> None:
    """Raise ParameterError at the first failure block the index forbids,
    wherever a draw would stop."""
    walk = _walk_tables(index)
    for r, d in zip(history.r.tolist(), history.d.tolist()):
        walk.keep_at(index, r, d)


def sample_next(history: RiskSetTrajectory, index: CharacteristicIndex,
                rng) -> float:
    """Draw the next lifetime from the predictive distribution.

    The continuous hazard component is inverted with a single standard
    exponential, and each failure atom is survived by an independent
    Bernoulli; the draw is the minimum of the two mechanisms, which matches
    the predictive survival product exactly.  A history with a failure
    block the index forbids raises ParameterError, and one whose final
    singleton hazard is 0 in doubles raises NumericError.
    """
    _check_blocks(history, index)
    return _draw_next(history.n_initial, map(_EVENT_ROW, history.events),
                      index, rng)


def simulate_seeded(seed_traj: RiskSetTrajectory, m_new: int,
                    index: CharacteristicIndex, rng) -> RiskSetTrajectory:
    """Generate m_new further lifetimes conditionally on a seed trajectory.

    Each new lifetime is drawn from the current predictive distribution and
    merged into the trajectory, joining an existing failure block when it
    lands exactly on an observed failure time.  Rows grow in place.
    """
    if m_new < 0:
        raise ParameterError("m_new must be >= 0")
    _check_blocks(seed_traj, index)
    rows = [[e.time, e.n_failures, e.n_censored] for e in seed_traj.events]
    n0 = seed_traj.n_initial
    for _ in range(m_new):
        t = _draw_next(n0, rows, index, rng)
        n0 += 1
        pos = bisect.bisect_left(rows, t, key=lambda row: row[0])
        if pos < len(rows) and rows[pos][0] == t:
            rows[pos][1] += 1
        else:
            rows.insert(pos, [t, 1, 0])
    return RiskSetTrajectory(n0, tuple(Event(t, d, c) for t, d, c in rows))


def residual_trajectory(traj: RiskSetTrajectory, t: float) -> RiskSetTrajectory:
    """Trajectory of the individuals still at risk after time t, with the
    clock restarted at t."""
    if not t >= 0.0:
        raise ParameterError("t must be >= 0")
    removed = 0
    kept = []
    for e in traj.events:
        if e.time <= t:
            removed += e.n_failures + e.n_censored
        else:
            kept.append(Event(e.time - t, e.n_failures, e.n_censored,
                              e.failed, e.censored))
    return RiskSetTrajectory(traj.n_initial - removed, tuple(kept))


@dataclass(frozen=True)
class TimeTransform:
    """Strictly increasing continuous time change with g(0+) = 0."""

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    derivative: Callable[[float], float]

    def inverted(self) -> "TimeTransform":
        fwd, inv, der = self.forward, self.inverse, self.derivative
        return TimeTransform(
            forward=inv,
            inverse=fwd,
            derivative=lambda t: 1.0 / der(inv(t)),
        )


def transform_times(traj: RiskSetTrajectory, tf: TimeTransform) -> RiskSetTrajectory:
    """Map every event time through the transform."""
    events = tuple(Event(tf.forward(e.time), e.n_failures, e.n_censored,
                         e.failed, e.censored) for e in traj.events)
    return RiskSetTrajectory(traj.n_initial, events)


def log_density_semimarkov(traj: RiskSetTrajectory,
                           index: CharacteristicIndex,
                           tf: TimeTransform) -> float:
    """Log density of a time-changed trajectory: pull the times back to the
    homogeneous scale and add one log-Jacobian term per failure time."""
    base = transform_times(traj, tf.inverted())
    log_jac = sum(math.log(tf.derivative(tf.inverse(t)))
                  for t in traj.fail_time.tolist())
    return log_density(base, index) - log_jac


def trajectory_to_csv(traj: RiskSetTrajectory) -> str:
    """Serialize as CSV; times use repr so the round trip is exact."""
    lines = ["time,n_failures,n_censored"]
    for e in traj.events:
        lines.append(f"{e.time!r},{e.n_failures},{e.n_censored}")
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str,
                        n_initial: Optional[int] = None) -> RiskSetTrajectory:
    """Parse :func:`trajectory_to_csv` output.  When n_initial is omitted the
    trajectory is assumed complete (everyone fails or is censored)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "time,n_failures,n_censored":
        raise ParameterError("expected header 'time,n_failures,n_censored'")
    events = []
    total = 0
    for ln in lines[1:]:
        t_str, d_str, c_str = ln.split(",")
        d, c = int(d_str), int(c_str)
        events.append(Event(float(t_str), d, c))
        total += d + c
    return RiskSetTrajectory(n_initial if n_initial is not None else total,
                             tuple(events))
