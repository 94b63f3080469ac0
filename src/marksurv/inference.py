"""Censored-data estimation for two-parameter Markov survival families.

The fitted families have total rate nu * Psi_rho(n), so for fixed rho the
distinct-failure-time count and the integrated unit rate are sufficient and
the scale maximizes in closed form; rho is profiled on a log grid with
golden-section refinement; standard errors come from the profile's
curvature in log rho.  A moment-style estimator matching the observed death
count, whose root is bisected in log rho, profile-likelihood intervals,
the Kaplan-Meier product-limit estimator, and empirical-Bayes predictive
curves round out the module.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

from .index import (FAMILIES, CharacteristicIndex, NumericError,
                    ParameterError, index_from_spec)
from .process import (Event, RiskSetTrajectory, _log_density_sums,
                      _log_likelihood, _unit_rate_integral,
                      predictive_survival)

__all__ = [
    "DataError",
    "Dataset",
    "SufficientStats",
    "FitResult",
    "KaplanMeier",
    "EmpiricalBayesCurve",
    "ExponentialFit",
    "FITTED_FAMILIES",
    "family_index",
    "risk_trajectory",
    "sufficient_stats",
    "loglik",
    "mle_nu_given_rho",
    "profile_loglik",
    "fit_mle",
    "fit_moment",
    "profile_interval",
    "kaplan_meier",
    "fit_exponential",
    "empirical_bayes_curve",
]

# The families with total rate nu * Psi_rho(n): those whose parameters are
# exactly (nu, rho).
FITTED_FAMILIES = tuple(name for name, cls in FAMILIES.items()
                        if [f.name for f in fields(cls)] == ["nu", "rho"])

# Profile grid on log rho; wide because the profile is typically flat far
# from the origin.
_PROFILE_GRID = (-3.0, 8.0, 60)
# Doubling steps in log rho from rho = 1 bracket the moment root, stopping
# before exp would overflow; bisection narrows it to _MOMENT_TOL.
_MOMENT_TOL = 1e-10
_MOMENT_LOG_RHO_MAX = 709.0
# The golden-section search on log rho stops once its bracket is this narrow.
_GOLDEN_TOL = 1e-6
# Step in log rho of the central differences of the profile log likelihood;
# their rounding, about 4 eps |loglik| / h^2, dominates at smaller steps.
_HESSIAN_STEP = 1e-3


def family_index(family: str, rho: float, nu: float = 1.0) -> CharacteristicIndex:
    if family not in FITTED_FAMILIES:
        raise ParameterError(f"unknown family {family!r}; "
                             f"choose from {sorted(FITTED_FAMILIES)}")
    return index_from_spec(family, nu=nu, rho=rho)


class DataError(ValueError):
    """Input data missing, empty, or malformed."""


@dataclass(frozen=True)
class Dataset:
    """Event records: a positive time and a failure flag per individual."""

    times: tuple
    failed: tuple
    label: str = ""

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        failed = tuple(bool(f) for f in self.failed)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "failed", failed)
        if len(times) != len(failed):
            raise ParameterError("times and status flags must align")
        if any(not 0.0 < t < math.inf for t in times):
            raise ParameterError("event times must be positive and finite")

    @classmethod
    def from_records(cls, records, label: str = "") -> "Dataset":
        recs = list(records)
        return cls(times=tuple(t for t, _ in recs),
                   failed=tuple(bool(s) for _, s in recs), label=label)

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def n_failures(self) -> int:
        return sum(self.failed)

    @cached_property
    def trajectory(self) -> RiskSetTrajectory:
        """The records' trajectory, built once per dataset."""
        return risk_trajectory(self)


def risk_trajectory(data: Dataset) -> RiskSetTrajectory:
    """Group records into a trajectory.  Ties are exact-value equality, and
    failures at a timestamp are counted before censorings at the same
    timestamp."""
    if data.n == 0:
        raise ParameterError("dataset is empty")
    groups = {}
    for t, f in zip(data.times, data.failed):
        d, c = groups.get(t, (0, 0))
        groups[t] = (d + 1, c) if f else (d, c + 1)
    events = tuple(Event(t, d, c) for t, (d, c) in sorted(groups.items()))
    return RiskSetTrajectory(data.n, events)


@dataclass(frozen=True)
class SufficientStats:
    """Sufficient summary at fixed rho: distinct failure times, integrated
    unit rate, total risk time, death count."""

    num_failure_times: int
    unit_rate_integral: float
    total_risk_time: float
    n_deaths: int


def _finite(unit_integral: float) -> float:
    """U, checked: it overflows to inf when the times need rescaling."""
    if not math.isfinite(unit_integral):
        raise DataError("integrated failure rate overflows; rescale the times")
    return unit_integral


def _risk_time(traj: RiskSetTrajectory) -> float:
    """The total time at risk, for the fits that divide by it."""
    if not math.isfinite(traj.total_risk_time):
        raise DataError("total time at risk overflows; rescale the times")
    return traj.total_risk_time


def _unit_integral(data: Dataset, family: str, rho: float) -> float:
    return _finite(_unit_rate_integral(data.trajectory,
                                       family_index(family, rho)))


def _rate_sums(data: Dataset, family: str, rho: float):
    """(U, S) at rho: the log likelihood at scale nu is k log nu - nu U + S
    (``process._log_likelihood``)."""
    unit_integral, log_rate_sum = _log_density_sums(data.trajectory,
                                                    family_index(family, rho))
    return _finite(unit_integral), log_rate_sum


def _profile_from_sums(k: int, sums) -> float:
    unit_integral, log_rate_sum = sums
    return k * math.log(k / unit_integral) - k + log_rate_sum


def sufficient_stats(data: Dataset, family: str, rho: float) -> SufficientStats:
    traj = data.trajectory
    return SufficientStats(
        num_failure_times=traj.num_failure_times,
        unit_rate_integral=_unit_integral(data, family, rho),
        total_risk_time=traj.total_risk_time,
        n_deaths=traj.n_deaths,
    )


def loglik(data: Dataset, family: str, rho: float, nu: float) -> float:
    """Exact censoring-aware log likelihood at (rho, nu)."""
    if not (0.0 < nu < math.inf):
        raise ParameterError(f"nu must be finite and > 0, got {nu}")
    return _log_likelihood(data.trajectory.num_failure_times, nu,
                           _rate_sums(data, family, rho))


def _nu_hat(k: int, unit_integral: float) -> float:
    if k == 0:
        raise ParameterError("scale estimation needs at least one failure")
    return k / unit_integral


def mle_nu_given_rho(data: Dataset, family: str, rho: float) -> float:
    """Closed-form scale estimate: distinct failure times over the
    integrated unit rate."""
    return _nu_hat(data.trajectory.num_failure_times,
                   _unit_integral(data, family, rho))


def profile_loglik(data: Dataset, family: str, rho: float) -> float:
    """Log likelihood with the scale parameter maximized out."""
    k = data.trajectory.num_failure_times
    if k == 0:
        raise ParameterError("profiling needs at least one failure")
    return _profile_from_sums(k, _rate_sums(data, family, rho))


@dataclass(frozen=True)
class FitResult:
    """Point estimates with standard errors and the profile trace."""

    family: str
    method: str
    rho: float
    nu: float
    loglik: float
    se_rho: float
    se_nu: float
    se_log_rho: float
    se_log_nu: float
    fixed_rho: bool = False
    boundary_warning: bool = False
    profile: tuple = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "profile": [list(p) for p in self.profile]}

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _golden_max(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section maximizer on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _standard_errors(data: Dataset, family: str, rho: float, k: int,
                     sums) -> tuple:
    """Standard errors of (log rho, log nu) from the profile in g = log rho.

    The scale maximizes the log likelihood at every rho, so with lp(g) the
    profile log likelihood the information of g is -lp'', the Schur
    complement of the 2 x 2 Hessian in (log rho, log nu), and var(log nu) =
    1/k - (d log U / dg)^2 / lp''.  Both take (U, S) at rho e^-h and rho e^h
    besides ``sums`` at rho.
    """
    h = _HESSIAN_STEP
    lo, hi = (_rate_sums(data, family, rho * math.exp(s)) for s in (-h, h))
    curv = (_profile_from_sums(k, lo) - 2.0 * _profile_from_sums(k, sums)
            + _profile_from_sums(k, hi)) / h ** 2
    if curv == 0.0:
        return math.nan, math.nan
    slope = (math.log(hi[0]) - math.log(lo[0])) / (2.0 * h)
    return (math.sqrt(max(-1.0 / curv, 0.0)),
            math.sqrt(max(1.0 / k - slope ** 2 / curv, 0.0)))


def _fit_at(data: Dataset, family: str, method: str, rho: float,
            fixed_rho: bool = False, **extra) -> FitResult:
    """Scale, log likelihood and standard errors at the estimated rho; the
    scale and the log likelihood from one evaluation of (U, S) there.  A
    fixed rho has no standard error and a one-point profile."""
    k = data.trajectory.num_failure_times
    sums = _rate_sums(data, family, rho)
    nu = _nu_hat(k, sums[0])
    if fixed_rho:
        se_log_rho, se_log_nu = 0.0, 1.0 / math.sqrt(k)
        extra["profile"] = ((rho, _profile_from_sums(k, sums)),)
    else:
        se_log_rho, se_log_nu = _standard_errors(data, family, rho, k, sums)
    return FitResult(
        family=family, method=method, rho=rho, nu=nu,
        loglik=_log_likelihood(k, nu, sums),
        se_rho=rho * se_log_rho, se_nu=nu * se_log_nu,
        se_log_rho=se_log_rho, se_log_nu=se_log_nu, fixed_rho=fixed_rho,
        **extra)


def fit_mle(data: Dataset, family: str,
            fix_rho: Optional[float] = None) -> FitResult:
    """Maximum likelihood over (rho, nu).

    The scale profiles out analytically; rho is maximized on a log grid with
    golden-section refinement, unless ``fix_rho`` pins it as a tuning
    parameter.  Standard errors on the log scale come from the curvature
    of the profile log likelihood (see ``_standard_errors``); a fixed rho
    leaves the scale's conditional error 1/sqrt(k).  They transfer to the
    original scale by the delta method.
    """
    if data.n_failures == 0:
        raise ParameterError("fitting needs at least one failure")
    if fix_rho is not None:
        return _fit_at(data, family, "mle", float(fix_rho), fixed_rho=True)

    grid = np.linspace(*_PROFILE_GRID)
    values = np.array([profile_loglik(data, family, math.exp(g))
                       for g in grid])
    best = int(np.argmax(values))
    boundary = best in (0, len(grid) - 1)
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    log_rho = _golden_max(
        lambda g: profile_loglik(data, family, math.exp(g)), lo, hi)
    return _fit_at(data, family, "mle", math.exp(log_rho),
                   profile=tuple((math.exp(g), v)
                                 for g, v in zip(grid, values)),
                   boundary_warning=boundary)


def fit_moment(data: Dataset, family: str) -> FitResult:
    """Moment-style fit: match the observed death count to the implied
    per-individual rate nu Psi_rho(1) (nu at its closed form) times the total
    risk time.  That rate, k / sum(span Psi_rho(m) / Psi_rho(1)), falls with
    rho: the ratio is sum_{j<m} rho/(rho + j) for harmonic and
    log(1 + m/rho) / log(1 + 1/rho) for gamma."""
    if data.n_failures == 0:
        raise ParameterError("fitting needs at least one failure")
    traj = data.trajectory
    deaths, k = traj.n_deaths, traj.num_failure_times
    # Psi_rho(1) <= Psi_rho(m) <= m Psi_rho(1), so the implied rate
    # k Psi_rho(1) / U lies strictly between k / (risk time) and
    # k / (last time at risk).
    if k == deaths:
        raise ParameterError(
            "moment estimation needs at least one tied failure time")
    target = deaths / _risk_time(traj)
    if target * traj.time[-1] >= k:
        raise ParameterError("moment equation has no root: deaths per unit "
                             "risk time reach k / (last time at risk)")
    lo, hi, g = -math.inf, math.inf, 0.0
    while hi - lo > _MOMENT_TOL:
        if abs(g) > _MOMENT_LOG_RHO_MAX:
            raise NumericError("the moment equation's root lies past rho = "
                               f"e**{(g - math.copysign(1.0, g)) / 2:+g}")
        rho = math.exp(g)
        if (mle_nu_given_rho(data, family, rho)
                * family_index(family, rho).unit_total_rate(1) > target):
            lo = g
        else:
            hi = g
        g = (0.5 * (lo + hi) if math.isfinite(lo + hi)
             else 2.0 * g + (1.0 if lo == g else -1.0))
    return _fit_at(data, family, "moment", math.exp(0.5 * (lo + hi)))


def profile_interval(fit: FitResult, level: float = 0.95):
    """Likelihood-ratio interval for log rho read off the stored profile
    trace, with local quadratic refinement of each crossing."""
    if len(fit.profile) < 3:
        raise ParameterError("fit carries no usable profile trace")
    x = np.log([r for r, _ in fit.profile])
    y = np.array([v for _, v in fit.profile])
    # The chi-square(1) quantile at level is the squared normal quantile at
    # (1 + level) / 2, which the standard library gives without scipy.
    cut = y.max() - 0.5 * NormalDist().inv_cdf((1.0 + level) / 2.0) ** 2
    above = y >= cut
    if not above.any():
        raise ParameterError("profile never reaches the confidence level")
    first = int(np.argmax(above))
    last = len(y) - 1 - int(np.argmax(above[::-1]))
    lo = x[0] if first == 0 else _quad_crossing(x, y, first - 1, cut)
    hi = x[-1] if last == len(y) - 1 else _quad_crossing(x, y, last, cut)
    return float(lo), float(hi)


def _quad_crossing(x: np.ndarray, y: np.ndarray, i: int, cut: float) -> float:
    """Crossing of y(x) = cut inside [x[i], x[i+1]], refined with the
    parabola through the three nearest trace points."""
    j = min(max(i, 1), len(x) - 2)
    coef = np.polyfit(x[j - 1:j + 2], y[j - 1:j + 2], 2)
    roots = np.roots(np.array([coef[0], coef[1], coef[2] - cut]))
    roots = roots[np.isreal(roots)].real
    inside = roots[(roots >= x[i] - 1e-12) & (roots <= x[i + 1] + 1e-12)]
    if inside.size:
        return float(inside[0])
    # fall back to the linear crossing
    t = (cut - y[i]) / (y[i + 1] - y[i])
    return float(x[i] + t * (x[i + 1] - x[i]))


@dataclass(frozen=True)
class KaplanMeier:
    """Right-continuous product-limit survivor estimate."""

    times: np.ndarray
    survival: np.ndarray

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.times, t_arr, side="right")
        padded = np.concatenate([[1.0], self.survival])
        out = padded[idx]
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return float(out[0])
        return out


def kaplan_meier(data: Dataset) -> KaplanMeier:
    traj = data.trajectory
    r, d = traj.r, traj.d
    return KaplanMeier(times=traj.fail_time,
                       survival=np.cumprod(r / (r + d)))


@dataclass(frozen=True)
class ExponentialFit:
    """Iid exponential baseline: rate, mean, and log likelihood."""

    rate: float
    mean: float
    loglik: float


def fit_exponential(data: Dataset) -> ExponentialFit:
    deaths = data.n_failures
    if deaths == 0:
        raise ParameterError("fitting needs at least one failure")
    risk_time = _risk_time(data.trajectory)
    rate = deaths / risk_time
    return ExponentialFit(rate=rate, mean=risk_time / deaths,
                          loglik=deaths * math.log(rate) - rate * risk_time)


@dataclass(frozen=True)
class EmpiricalBayesCurve:
    """Predictive survivor curve at fitted parameters, with the implied
    marginal rate and mean lifetime."""

    grid: np.ndarray
    survival: np.ndarray
    marginal_rate: float
    mean_survival: float


def empirical_bayes_curve(data: Dataset, fit: FitResult,
                          t_grid) -> EmpiricalBayesCurve:
    index = family_index(fit.family, fit.rho, fit.nu)
    grid = np.asarray(t_grid, dtype=float)
    surv = predictive_survival(grid, data.trajectory, index)
    rate = fit.nu * index.unit_total_rate(1)
    return EmpiricalBayesCurve(grid=grid, survival=np.atleast_1d(surv),
                               marginal_rate=rate, mean_survival=1.0 / rate)
