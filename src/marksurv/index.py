"""Characteristic-index families for exchangeable Markov survival processes.

A characteristic index is a strictly increasing sequence starting at zero.
Its value at n is the total failure intensity of the risk-set chain while n
individuals remain at risk, and its signed forward differences give the
intensity attached to each possible block of simultaneous failures.  This
module provides the built-in families, numerically stable difference
evaluation (closed forms where available, harmonic being the beta integral
at beta = 0 with a positive-term digamma difference for its total; gamma
and power rates as one Levy-measure integral I(a, k, beta), by a trapezoid
rule over every rate of an array in one pass, a single rate being a
one-entry array, and by scaled adaptive quadrature split at the
integrand's peak as the fallback; quadrature also for measures),
splitting-rule tables with normalization/consistency diagnostics, and the
conversions between the dislocation-measure and Levy-measure
representations of the same process.

Full tables and the block-count dynamic program need every rate in the
triangle r + d <= n.  They evaluate only the outer diagonal r + d = n, in
one array call, and fill the rest inward by the additive identity
lambda(r, d) = lambda(r, d + 1) + lambda(r + 1, d), a sum of non-negative
terms with no cancellation; separable closed forms give each row directly.
An index remembers each outer diagonal it evaluates, so samplers that read
the rows again and again (one row per visited risk-set size, drawn by
inverse CDF) evaluate no rate after the first pass.  The samplers, the
first-block law and the block-count dynamic program all take their rows
log C(m, d) + log lambda(m - d, d) from one reader, ``_first_block_reader``.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ParameterError",
    "NumericError",
    "ResourceError",
    "MAX_TABLE_ROWS",
    "MAX_RISK_SET",
    "CharacteristicIndex",
    "HarmonicIndex",
    "GammaIndex",
    "PowerIndex",
    "GeometricIndex",
    "LinearIndex",
    "LinearShiftIndex",
    "BetaSplitIndex",
    "MeasureIndex",
    "DislocationMeasure",
    "LevyMeasure",
    "SplittingTable",
    "build_table",
    "normalization_defect",
    "consistency_defect",
    "weak_continuity_defect",
    "difference_positivity_defect",
    "levy_from_dislocation",
    "dislocation_from_levy",
    "FAMILIES",
    "index_from_spec",
]


class ParameterError(ValueError):
    """Parameter or argument outside its admissible domain."""


class NumericError(ArithmeticError):
    """A rate evaluation failed to converge or produced a non-finite value."""


class ResourceError(RuntimeError):
    """The request exceeds a memory or work budget."""


class _LazyModule:
    """Stands in for a module and imports it at the first attribute read."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, item):
        return getattr(importlib.import_module(self._name), item)


# scipy is loaded only where a path needs it: scalar quadrature (the gamma
# or power rate whose array-rule error estimate fails, and measures) and
# the random-measure route.  Closed-form and array-rule rates, beta rates
# among them, walks, fits and predictions run on math and numpy alone.
integrate = _LazyModule("scipy.integrate")
special = _LazyModule("scipy.special")


# Largest n for which a splitting table is built: the binomials C(n, d) of
# its normalization check all fit in a float up to n = 1029, and
# C(1030, 515) does not.  A table of n rows holds (n + 1)**2 floats: 8.5 MB
# at 1029.
MAX_TABLE_ROWS = 1029
# Largest n that simulate, simulate_batch, the block sweep and
# expected_blocks take: their O(n) arrays peaked at 197 MB at n = 1e6 and
# 709 MB at 4e6 (harmonic simulate), so 1 GB would go near n = 5.6e6.
MAX_RISK_SET = 4_000_000


def _check_risk_set(n: int) -> None:
    """Rejects a risk set below 1 or above MAX_RISK_SET before any O(n)
    allocation."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if n > MAX_RISK_SET:
        raise ResourceError(f"{n} at risk exceed {MAX_RISK_SET}: the "
                            "arrays would need over 1 GB")


# Relative precision lost to cancellation above which a beta total rate
# (beta != 0) is summed from its singleton rates.  Kept near machine level
# so tabulated rules meet the 1e-10 normalization budget.
_CANCEL_TOL = 5e-12
# Adaptive quadrature settings; limit=476 caps the node count near 1e4.
_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-11, limit=476)

_EPS = 2.220446049250313e-16
# Most entries any dict an index remembers holds: its single gamma or power
# log rates, its predictive walk's hazards, and the walk's atom factors of
# each failure-block size.  _room empties a full dict in place rather than
# growing it.  By tracemalloc, a full int-keyed dict (the hazards, or the
# factors of one block size) holds 6.3 MB and a full rates dict 8.9 MB.
_MEMO_MAX = 2 ** 16


def _check_rd(r: int, d: int) -> None:
    if r < 0:
        raise ParameterError(f"survivor count must be >= 0, got {r}")
    if d < 1:
        raise ParameterError(f"failure block size must be >= 1, got {d}")


def _log1mexp(z: float) -> float:
    """log(1 - exp(-z)) for z > 0 without intermediate underflow."""
    if z > 0.693:
        return math.log1p(-math.exp(-z))
    return math.log(-math.expm1(-z))


def _log_quad(log_f: Callable[[float], float], lo: float, hi: float,
              probes) -> float:
    """log of the integral of exp(log_f) over (lo, hi).

    The integrand is rescaled by its maximum over the probe points so that
    quadrature runs near unit magnitude; this keeps pure relative accuracy
    even when the integral itself is far below 1.
    """
    peak = -math.inf
    for z in probes:
        v = log_f(z)
        if math.isfinite(v) and v > peak:
            peak = v
    if not math.isfinite(peak):
        raise NumericError("quadrature scaling failed: no finite probe value")

    def f(z: float) -> float:
        v = log_f(z) - peak
        return math.exp(v) if v > -745.0 else 0.0

    out = integrate.quad(f, lo, hi, full_output=1, **_QUAD_KW)
    value, err = out[0], out[1]
    if len(out) > 3 or not value > 0.0 or err > max(1e-13, 1e-8 * value):
        raise NumericError(
            f"quadrature did not converge (value={value!r}, err={err!r})")
    return peak + math.log(value)


# Harmonic and beta rates at rho at or above this go through Stirling's
# series.
_STIRLING_MIN = 100.0


def _log_rising(x, k):
    """log Gamma(x + k) - log Gamma(x), elementwise, for x >= _STIRLING_MIN
    and k > -1.

    Both log-gammas are near x log x - x, so subtracting them loses about
    eps * x log x; Stirling's series gives the difference term by term,
    with truncation error below 1 / (1680 (x - 1)**7).
    """
    def series(t):
        # From t = 1e150 on, the terms after 1 / 12 are far below its last
        # bit, so capping t there before squaring changes no bit and keeps
        # t2 finite.
        s = np.minimum(t, 1e150)
        t2 = s * s
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * t2)) / t2) / t

    y = x + k
    return ((x - 0.5) * np.log1p(k / x) + k * np.log(y) - k
            + series(y) - series(x))


def _log_gamma_ratio(x: float, k: float):
    """log |Gamma(x + k) / Gamma(x)| for x > 0 and x + k > -1, not 0, and
    its rounding; from x = _STIRLING_MIN on by _log_rising's series in
    floats, faster than numpy scalars, where t * t overflows quietly."""
    if x < _STIRLING_MIN:
        hi, lo = math.lgamma(x + k), math.lgamma(x)
        return hi - lo, (abs(hi) + abs(lo)) * _EPS

    def series(t):
        t2 = t * t
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * t2)) / t2) / t
    v = ((x - 0.5) * math.log1p(k / x) + k * math.log(x + k) - k
         + series(x + k) - series(x))
    return v, abs(v) * _EPS


def _psi_series(t: float) -> float:
    """log t - 1 / (2t) - digamma(t) by digamma's asymptotic series through
    the t**-14 term, in Horner form: within 5e-17 from t = 10 on."""
    z = 1.0 / (t * t)
    return z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (
        1 / 240 - z * (1 / 132 - z * (691 / 32760 - z / 12))))))


@lru_cache(maxsize=4096)
def _digamma_difference(x: float, n: int) -> float:
    """digamma(x + n) - digamma(x), the sum of 1 / (x + k) over k < n, for
    x > 0 from positive terms only: the terms k < 10 (remembered as the
    answer at n = 10), then at y = x + 10 and m = n - 10 the series'
    log1p(m / y) + m / (2 y (y + m)) and the difference of its corrections,
    which is below 1 / (6 y**2) of the result, so the cancellation between
    them costs no accuracy."""
    if n <= 10:
        out = 0.0
        for k in range(n):
            out += 1.0 / (x + k)
        return out
    y, m = x + 10.0, n - 10
    return (_digamma_difference(x, 10) + math.log1p(m / y)
            + m / (2.0 * y * (y + m)) + (_psi_series(y) - _psi_series(y + m)))


def _separable_reader(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Row reader for a separable form a[d] + b[r] + c[r + d]: row m = r + d
    costs one vector sum.  ``read(m)`` orders it by d = 1..m; ``read(m, out)``
    writes it into out[:m] by r = 0..m - 1, from contiguous slices."""
    a_rev = _read_only(a[:0:-1].copy())  # a_rev[-m:][r] = a[m - r]

    def read(m: int, out=None) -> np.ndarray:
        if out is None:
            return a[1:m + 1] + b[m - 1::-1] + c[m]
        row = np.add(a_rev[-m:], b[:m], out=out[:m])
        row += c[m]
        return row
    return read


def _lgamma(x: np.ndarray) -> np.ndarray:
    """math.lgamma elementwise over a 1-d array."""
    return np.fromiter(map(math.lgamma, x.tolist()), float, len(x))


# log k!, k = 0, 1, ...: one table for every caller, grown on demand.
_LOG_FACTORIALS = np.zeros(1)
_LOG_FACTORIALS.flags.writeable = False


def _log_factorials(n: int) -> np.ndarray:
    """lf[k] = log k! = lgamma(k + 1) for k = 0..n, a read-only view of the
    shared table; a request past its end at least doubles it."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    have = len(table)
    if have <= n:
        more = np.arange(have + 1.0, max(n + 1, 2 * have) + 1.0)
        # Read from the local table: a concurrent caller may swap in its own.
        table = _LOG_FACTORIALS = _read_only(
            np.concatenate([table, _lgamma(more)]))
    return table[:n + 1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _memo(index) -> dict:
    """The per-instance memo of an index: equal indices do not share it."""
    return index.__dict__.setdefault("_memo", {})


def _forbidden_block(r: int, d: int) -> ParameterError:
    return ParameterError(
        f"the index forbids a failure block of {d} leaving {r}: its rate is 0")


def _room(table: dict) -> dict:
    """table, first emptied in place if it holds _MEMO_MAX entries, so
    whoever holds it keeps a valid reference."""
    if len(table) >= _MEMO_MAX:
        table.clear()
    return table


def _first_block_reader(rule, n: int):
    """Return ``row(m)``: log C(m, d) q(m - d, d) plus a constant of the row,
    d = 1..m, for m <= n taken in non-increasing order.  The constant (the
    log total rate of an index) drops out of an inverse-CDF draw.
    ``row(m, out)`` writes it into out[:m] in survivor order r = m - d.

    For a separable index log C(m, d) = lf[m] - lf[d] - lf[r] joins its
    terms, so a row is one vector sum.  Entry i of each term depends on i
    alone, so the index remembers the reader of the longest terms asked for
    and reads shorter rows from it.
    """
    if rule._log_terms is not None:
        memo = _memo(rule)
        have = memo.get("first block")
        if have is None or have[0] < n:
            lf = _log_factorials(n)
            a, b, c = rule._log_terms(n)
            have = memo["first block"] = (n, _separable_reader(*(
                _read_only(x) for x in (a - lf, b - lf, c + lf))))
        return have[1]
    lf = _log_factorials(n)
    read = rule._log_row_reader(n)

    def row(m: int, out=None) -> np.ndarray:
        w = lf[m] - lf[1:m + 1] - lf[m - 1::-1] + read(m)
        if out is None:
            return w
        out[:m] = w[::-1]
        return out[:m]
    return row


def _log_unit_total(rule, m: int) -> float:
    """log unit_total_rate(m); a rate that is 0 or not finite in doubles
    raises NumericError."""
    psi = rule.unit_total_rate(m)
    if not 0.0 < psi < math.inf:
        raise NumericError(f"the total rate with {m} at risk is {psi!r} in "
                           "doubles")
    return math.log(psi)


def _draw_block_sizes(logw: np.ndarray, u):
    """Block sizes 1..len(logw) by inverse CDF from log weights known up to a
    constant, one per uniform in ``u`` (a float or an array of [0, 1)).

    The first cumulative weight above u * total is never that of a zero
    weight.  A NaN or infinite weight, or a row of zeros, raises.
    """
    top = logw.max()
    if not -math.inf < top < math.inf:
        raise NumericError(
            f"first-block weights out of {len(logw)} at risk are not finite "
            "and positive")
    cum = np.exp(logw - top).cumsum()
    return cum.searchsorted(u * cum[-1], side="right") + 1


class CharacteristicIndex:
    """Rate sequence defining a consistent exchangeable survival process.

    ``total_rate(n)`` is the failure intensity while n individuals remain at
    risk; ``block_rate(r, d)`` is the intensity that one particular set of d
    individuals fails next, leaving r; ``split_prob(r, d)`` is the chance
    that the next failure block is that particular set.  Splitting
    probabilities depend only on the unit-scale sequence, so families with a
    multiplicative rate parameter expose it separately through ``scale``.
    A family defines ``log_unit_block_rate`` or ``unit_block_rate``, and
    each defaults to the other.

    Instances are immutable after construction and safe for concurrent reads.
    An instance remembers, as read-only arrays, each outer diagonal of log
    block rates it evaluates (one per n asked), and a separable one its
    longest first-block terms, the first also reversed.  Every instance
    remembers the hazards and atom factors its predictive walk reads; gamma
    and power indices also remember each single rate asked, an entry of
    their array rule (``_IntegralIndex``).  Those dicts hold at most
    ``_MEMO_MAX`` = 65,536 entries each (6.3 to 8.9 MB full) and are
    emptied when full.  The memo lives on the instance, not in a shared
    cache.
    """

    @property
    def scale(self) -> float:
        return 1.0

    def unit_total_rate(self, n: int) -> float:
        raise NotImplementedError

    def unit_block_rate(self, r: int, d: int) -> float:
        return math.exp(self.log_unit_block_rate(r, d))

    def total_rate(self, n: int) -> float:
        if n < 0:
            raise ParameterError(f"risk-set size must be >= 0, got {n}")
        if n == 0:
            return 0.0
        rate = self.scale * self.unit_total_rate(n)
        if not 0.0 < rate < math.inf:
            raise NumericError(f"the total rate with {n} at risk is {rate!r} "
                               "in doubles")
        return rate

    def block_rate(self, r: int, d: int) -> float:
        _check_rd(r, d)
        return self.scale * self.unit_block_rate(r, d)

    def log_unit_block_rate(self, r: int, d: int) -> float:
        _check_rd(r, d)
        v = self.unit_block_rate(r, d)
        return math.log(v) if v > 0.0 else -math.inf

    def split_prob(self, r: int, d: int) -> float:
        _check_rd(r, d)
        q = self.unit_block_rate(r, d) / self.unit_total_rate(r + d)
        return min(max(q, 0.0), 1.0)

    def _log_rates(self, r: np.ndarray, d: np.ndarray) -> np.ndarray:
        """log unit_block_rate(r[i], d[i]) for 1-d integer arrays r and d.
        By default one ``log_unit_block_rate`` call per entry; families with
        a closed form or an array rule answer in one pass."""
        return np.array([self.log_unit_block_rate(a, b)
                         for a, b in zip(r.tolist(), d.tolist())],
                        dtype=float)

    def _log_diagonal(self, n: int) -> np.ndarray:
        """log unit_block_rate(n - d, d), d = 1..n, from one ``_log_rates``
        call once per instance, keyed by n."""
        memo = _memo(self)
        if n not in memo:
            d = np.arange(1, n + 1)
            memo[n] = _read_only(self._log_rates(n - d, d))
        return memo[n]

    # Separable families set this to a method giving, for n, arrays a, b, c
    # of length n + 1 with log unit_block_rate(r, d) = a[d] + b[r] + c[r + d].
    _log_terms = None

    def _log_row_reader(self, n: int):
        """Return ``read(m)``: log unit_block_rate(m - d, d), d = 1..m, for
        m <= n taken in non-increasing order.

        A separable family reads any row directly from its closed form.
        Otherwise only diagonal n is evaluated, in one ``_log_rates`` call
        at the first read, and remembered; every inner row follows from the
        one outside it by the additive identity, one vector step per row.
        """
        if self._log_terms is not None:
            return _separable_reader(*self._log_terms(n))
        row = None

        def read(m: int) -> np.ndarray:
            nonlocal row
            if row is None:
                row = self._log_diagonal(n)
            while len(row) > m:
                row = np.logaddexp(row[1:], row[:-1])
            return row
        return read

    def describe(self) -> str:
        """Family name plus named parameters, as a small text record."""
        name = next((k for k, cls in FAMILIES.items() if cls is type(self)),
                    type(self).__name__)
        try:
            params = ", ".join(
                f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        except TypeError:
            params = ""
        return f"{name}({params})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


@dataclass(frozen=True, repr=False)
class _NuRhoIndex(CharacteristicIndex):
    """A family with total rate nu times a unit-scale sequence of rho."""

    nu: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.nu < math.inf):
            raise ParameterError(f"nu must be finite and > 0, got {self.nu}")
        if not (0.0 < self.rho < math.inf):
            raise ParameterError(f"rho must be finite and > 0, got {self.rho}")

    @property
    def scale(self) -> float:
        return self.nu


@dataclass(frozen=True, repr=False)
class _AlphaIndex(CharacteristicIndex):
    """A family with one parameter alpha in (0, 1)."""

    alpha: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(
                f"alpha must lie in (0, 1), got {self.alpha}")


class _BetaIntegralIndex(CharacteristicIndex):
    """Rates B(rho + r, beta + d) of Hjort's (1990) beta process: stable-beta
    for -1 < beta < 0, harmonic at beta = 0.  A single rate and an array of
    rates take log B by one expression, through math.lgamma and its
    elementwise ``_lgamma``, so the two agree bit for bit."""

    beta = 0.0

    def _log_beta(self, a, b, lgamma=math.lgamma):
        """log |B(a, b)| for a >= rho and b > -1; from rho = _STIRLING_MIN
        on, lgamma(a + b) - lgamma(a) is Stirling's series."""
        if self.rho < _STIRLING_MIN:
            return lgamma(b) + lgamma(a) - lgamma(a + b)
        return lgamma(b) - _log_rising(a, b)

    def log_unit_block_rate(self, r: int, d: int) -> float:
        _check_rd(r, d)
        return float(self._log_beta(self.rho + r, self.beta + d))

    def _log_rates(self, r: np.ndarray, d: np.ndarray) -> np.ndarray:
        return self._log_beta(self.rho + r, self.beta + d, _lgamma)

    def unit_total_rate(self, n: int) -> float:
        """psi(n) = sum of B(rho + k, beta + 1) over k < n: digamma(rho + n)
        - digamma(rho) at beta = 0, else B(rho, beta) - B(rho + n, beta).
        B(rho + n, beta) has the sign of beta, and so has B(rho, beta)
        unless Gamma(rho + beta) <= 0, where the two add."""
        rho, b = self.rho, self.beta
        if b == 0.0:
            return _digamma_difference(rho, n)
        rise_n, err_n = _log_gamma_ratio(rho + n, b)
        if rho + b == 0.0:  # 1 / Gamma(0) = 0, so B(rho, beta) = 0
            return math.exp(math.lgamma(b) - rise_n)
        rise, err = _log_gamma_ratio(rho, b)
        delta = rise - rise_n  # log |B(rho + n, beta) / B(rho, beta)|
        ends = 1.0 + math.exp(delta)
        gap = ends if rho + b < 0.0 else abs(math.expm1(delta))
        # psi is |B(rho, beta)| times the gap, unless rounding swamps the gap.
        if err + err_n + ends * _EPS <= _CANCEL_TOL * gap:
            try:  # |B(rho, beta)|, by Stirling's series in a large beta
                return gap * math.exp(
                    math.lgamma(b) - rise if b < _STIRLING_MIN
                    else math.lgamma(rho) - _log_gamma_ratio(b, rho)[0])
            except OverflowError:
                return math.inf
        # Where the ends cancel (small beta, large rho), psi is summed from
        # its positive singleton rates lambda(k, 1), k < n.
        return float(np.exp(self._log_rates(np.arange(n), np.ones(n))).sum())

    def _log_terms(self, n: int):
        i = np.arange(n + 1, dtype=float)
        if self.rho < _STIRLING_MIN:
            b = _lgamma(self.rho + i)
            c = -_lgamma(np.maximum(self.rho + self.beta + i, _EPS))
        else:
            # The same terms less log Gamma(rho), which cancels in b + c.
            b = _log_rising(self.rho, i)
            c = -_log_rising(self.rho, self.beta + i)
        # a[0] and c[0] are never read; the floor keeps lgamma off its pole.
        return _lgamma(np.maximum(self.beta + i, _EPS)), b, c


@dataclass(frozen=True, repr=False)
class HarmonicIndex(_NuRhoIndex, _BetaIntegralIndex):
    """Digamma-difference family, the beta rule at beta = 0 times nu; its
    predictive distributions alone among Markov survival processes vary
    weakly continuously with the observed failure times."""


# Gamma and power block rates are integrals of one form,
#   I(a, k, beta) = int_0^inf z**(-1 - beta) exp(-a z) (1 - exp(-z))**k dz,
# with k >= 1 and beta < k.  The array rule integrates it in
# u = log(z / log(1 + k / a)), where it is smooth, peaks near u = 0 (at
# u = 0 for beta = 0) and decays at least exponentially on both sides.  A
# coarse grid (step 0.5, through 0) brackets where the integrand exceeds
# exp(-_TRAPEZOID_DROP) times its value at u = 0; _TRAPEZOID_NODES equally
# spaced nodes across each bracket give the trapezoid rule, and every other
# node the rule at twice the step (near alpha = 1 and k = 2 the power
# integrand's left tail decays slowly and a row needs twice the nodes).
# Rates are computed _TRAPEZOID_CHUNK at a time, so the work arrays stay
# near a megabyte whatever the number asked.
_TRAPEZOID_COARSE = np.linspace(-48.0, 24.0, 145)
_TRAPEZOID_NODES = 257
_TRAPEZOID_DROP = 40.0
_TRAPEZOID_CHUNK = 128
# The two halves of the scalar fallback's range in v = exp(u), split at
# v = 1, each with the scaling probes it takes, v = 1 among them.
_QUAD_HALVES = ((0.0, 1.0, np.geomspace(1e-8, 1.0, 31).tolist()),
                (1.0, math.inf, np.geomspace(1.0, 200.0, 10).tolist()))


def _trapezoid(a: np.ndarray, k: np.ndarray, beta: np.ndarray,
               nodes: int = _TRAPEZOID_NODES) -> np.ndarray:
    """log I(a, k, beta) for 1-d arrays a > 0, k >= 1 and beta, or NaN
    where the bracket is not closed inside the coarse grid or the trapezoid
    rules at step h and 2h differ by more than the tolerance asked of the
    scalar quadrature, on ``nodes`` nodes and then, for a closed bracket,
    once more on twice as many intervals."""
    c = _TRAPEZOID_CHUNK
    if len(a) > c:
        return np.concatenate([
            _trapezoid(a[i:i + c], k[i:i + c], beta[i:i + c], nodes)
            for i in range(0, len(a), c)])
    if not len(a):
        return np.empty(0)
    a, k, beta = a[:, None], k[:, None], beta[:, None]
    scale = np.log1p(k / a)
    rate = a * scale
    base = np.expm1(-scale)

    def log_rel(u):
        """log of the integrand at u less its value at u = 0, free of
        cancellation."""
        return (-rate * np.expm1(u)
                + k * np.log(np.expm1(-scale * np.exp(u)) / base)) - beta * u

    with np.errstate(over="ignore", under="ignore", divide="ignore",
                     invalid="ignore"):
        above = log_rel(_TRAPEZOID_COARSE) > -_TRAPEZOID_DROP
        top = len(_TRAPEZOID_COARSE) - 1
        first = above.argmax(axis=1)
        last = top - above[:, ::-1].argmax(axis=1)
        lo = _TRAPEZOID_COARSE[np.maximum(first - 1, 0)]
        step = (_TRAPEZOID_COARSE[np.minimum(last + 1, top)] - lo) \
            / (nodes - 1)
        f = np.exp(log_rel(lo[:, None] + step[:, None] * np.arange(nodes)))
    ends = 0.5 * (f[:, 0] + f[:, -1])
    value = step * (f.sum(axis=1) - ends)
    err = np.abs(value - 2.0 * step * (f[:, ::2].sum(axis=1) - ends))
    closed = (first > 0) & (last < top)
    ok = (err <= np.maximum(_QUAD_KW["epsabs"], _QUAD_KW["epsrel"] * value)) \
        & closed
    log_at_0 = (-rate[:, 0] + k[:, 0] * np.log(-base[:, 0])
                - beta[:, 0] * np.log(scale[:, 0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(ok, log_at_0 + np.log(value), np.nan)
    redo = np.flatnonzero(closed & ~ok)
    if redo.size and nodes == _TRAPEZOID_NODES:
        out[redo] = _trapezoid(a[redo, 0], k[redo, 0], beta[redo, 0],
                               2 * nodes - 1)
    return out


class _IntegralIndex(CharacteristicIndex):
    """Gamma and power: rates are integrals I(a, k, beta).  A family gives
    its closed form at d = 1 (``_log_singletons``) and, in ``_integral``,
    the map of a block (r, d) to (lead, a, k, beta) with log rate
    lead + log I(a, k, beta), for float arrays or floats.  Both routes read
    that map: the trapezoid rule, and ``_log_rate_quad``, the fallback of an
    entry whose error estimate fails."""

    def log_unit_block_rate(self, r: int, d: int) -> float:
        """The one-entry answer of ``_log_rates``.  Each answer, not a
        failure, is remembered keyed by (r, d)."""
        _check_rd(r, d)
        rates = _memo(self).setdefault("rates", {})
        v = rates.get((r, d))
        if v is None:
            v = float(self._log_rates(np.array([r]), np.array([d]))[0])
            _room(rates)[r, d] = v
        return v

    def _log_rates(self, r: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Every requested rate in one array pass.  An entry whose error
        estimate misses the tolerance is recomputed by ``_log_rate_quad``,
        which checks its own convergence."""
        rr, dd = r.astype(float), d.astype(float)
        out = self._log_singletons(rr)
        big = dd > 1
        lead, a, k, beta = self._integral(rr[big], dd[big])
        out[big] = lead + _trapezoid(a, k, beta)
        for i in np.flatnonzero(~np.isfinite(out)).tolist():
            out[i] = self._log_rate_quad(int(r[i]), int(d[i]))
        return out

    def _log_rate_quad(self, r: int, d: int) -> float:
        """log rate by scalar quadrature of I(a, k, beta) in the array rule's
        v = z / log(1 + k / a), where the integrand peaks near v = 1 for
        every block (in z the peak narrows as a grows, and quadrature misses
        it).  (0, 1) and (1, inf) are integrated apart, so that neither
        misses a narrow peak at v = 1 nor underestimates its error there."""
        lead, a, k, beta = map(float, self._integral(float(r), float(d)))
        scale = math.log1p(k / a)
        rate = a * scale

        def log_f(v: float) -> float:
            return (-rate * v + k * _log1mexp(scale * v)
                    - (1.0 + beta) * math.log(v))

        halves = [_log_quad(log_f, *half) for half in _QUAD_HALVES]
        return lead - beta * math.log(scale) + float(np.logaddexp(*halves))


@dataclass(frozen=True, repr=False)
class GammaIndex(_NuRhoIndex, _IntegralIndex):
    """Logarithmic family generated by a gamma random hazard measure."""

    def unit_total_rate(self, n: int) -> float:
        return math.log1p(n / self.rho)

    def _log_singletons(self, r: np.ndarray) -> np.ndarray:
        return np.log(np.log1p(1.0 / (self.rho + r)))

    def _integral(self, r, d):
        """I(rho + r, d, 0)."""
        return 0.0, self.rho + r, d, np.zeros_like(d)


@dataclass(frozen=True, repr=False)
class PowerIndex(_AlphaIndex, _IntegralIndex):
    """Fractional-power family n**alpha for 0 < alpha < 1."""

    def unit_total_rate(self, n: int) -> float:
        return float(n) ** self.alpha

    def _log_singletons(self, r: np.ndarray) -> np.ndarray:
        """log((r + 1)**alpha - r**alpha) = alpha log r
        + log expm1(alpha log1p(1 / r)), and 0 at r = 0."""
        al = self.alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r > 0, al * np.log(r)
                            + np.log(np.expm1(al * np.log1p(1.0 / r))), 0.0)

    def _integral(self, r, d):
        """alpha / Gamma(1 - alpha) I(r, d, alpha) for r >= 1 and,
        integrated by parts, d / Gamma(1 - alpha) I(1, d - 1, alpha - 1) at
        r = 0, whose integrand decays exponentially."""
        al, top = self.alpha, r == 0
        return (np.where(top, np.log(d), math.log(al)) - math.lgamma(1.0 - al),
                np.where(top, 1.0, r), np.where(top, d - 1.0, d),
                np.where(top, al - 1.0, al))


@dataclass(frozen=True, repr=False)
class GeometricIndex(_AlphaIndex):
    """Bounded family 1 - alpha**n with binomial block rates."""

    def unit_total_rate(self, n: int) -> float:
        return -math.expm1(n * math.log(self.alpha))

    def log_unit_block_rate(self, r: int, d: int) -> float:
        _check_rd(r, d)
        return self._log_rates(r, d)

    def _log_rates(self, r, d):
        return r * math.log(self.alpha) + d * math.log1p(-self.alpha)

    def _log_terms(self, n: int):
        i = np.arange(n + 1, dtype=float)
        return (i * math.log1p(-self.alpha), i * math.log(self.alpha),
                np.zeros(n + 1))


@dataclass(frozen=True, repr=False)
class LinearIndex(CharacteristicIndex):
    """Identity sequence: every failure is a singleton (iid exponential)."""

    def unit_total_rate(self, n: int) -> float:
        return float(n)

    def unit_block_rate(self, r: int, d: int) -> float:
        _check_rd(r, d)
        return 1.0 if d == 1 else 0.0

    def _log_terms(self, n: int):
        a = np.full(n + 1, -np.inf)
        a[1] = 0.0
        return a, np.zeros(n + 1), np.zeros(n + 1)


@dataclass(frozen=True, repr=False)
class LinearShiftIndex(CharacteristicIndex):
    """Shifted linear sequence n + rho: singleton splits plus a total-failure
    block taking out the whole risk set."""

    rho: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.rho < math.inf):
            raise ParameterError(f"rho must be finite and >= 0, got {self.rho}")

    def unit_total_rate(self, n: int) -> float:
        return n + self.rho

    def unit_block_rate(self, r: int, d: int) -> float:
        _check_rd(r, d)
        if d == 1:
            return 1.0 + self.rho if r == 0 else 1.0
        return self.rho if r == 0 else 0.0


@dataclass(frozen=True, repr=False)
class BetaSplitIndex(_BetaIntegralIndex):
    """Family whose dislocation measure has a beta-type density
    x**(rho-1) * (1-x)**(beta-1); block rates are exact beta integrals.

    beta = 0 coincides with the harmonic family at unit scale.
    """

    rho: float = 1.0
    beta: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.rho < math.inf):
            raise ParameterError(f"rho must be finite and > 0, got {self.rho}")
        if not (-1.0 < self.beta < math.inf):
            raise ParameterError(
                f"beta must be finite and > -1, got {self.beta}")


# ---------------------------------------------------------------------------
# Measure representations


def _finite_probe_values(log_f, xs):
    out = []
    for x in xs:
        try:
            v = log_f(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        if math.isfinite(v):
            out.append(x)
    return out


# Probes of an integrand on (0, 1), crowded towards both ends.
_UNIT_PROBES = np.concatenate([np.geomspace(1e-9, 0.5, 12),
                               1.0 - np.geomspace(1e-9, 0.5, 12)])


def _density_integral(density, log_g, lo: float, hi: float, probes) -> float:
    """Integral of exp(log_g(x)) * density(x) over (lo, hi).  Where the
    density raises or is not positive the integrand is zero; with no finite
    probe value the integral is 0."""
    def log_f(x: float) -> float:
        try:
            v = density(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            return -math.inf
        if not v > 0.0:
            return -math.inf
        return log_g(x) + math.log(v)

    xs = _finite_probe_values(log_f, probes)
    return math.exp(_log_quad(log_f, lo, hi, xs)) if xs else 0.0


@dataclass(frozen=True)
class DislocationMeasure:
    """Measure on [0, 1) entering the integral representation of a
    consistent splitting rule, given as a density, atoms, or both.

    The defining integrability requirement is that (1 - x) be integrable;
    construction verifies it by quadrature.
    """

    density: Optional[Callable[[float], float]] = None
    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(
            (float(x), float(m)) for x, m in self.atoms))
        for x, m in self.atoms:
            if not (0.0 <= x < 1.0):
                raise ParameterError(f"atom location {x} outside [0, 1)")
            if not (m > 0.0):
                raise ParameterError(f"atom mass must be positive, got {m}")
        if self.density is None and not self.atoms:
            raise ParameterError("measure needs a density or at least one atom")
        try:
            check = self._integral(0, 1)  # integral of (1 - x) vs the measure
        except NumericError as exc:
            raise ParameterError(
                "dislocation measure fails the (1 - x) integrability check"
            ) from exc
        if not math.isfinite(check):
            raise ParameterError(
                "dislocation measure fails the (1 - x) integrability check")

    def _integral(self, r: int, d: int) -> float:
        """Integral of x**r * (1-x)**d against the measure."""
        total = sum(m * x ** r * (1.0 - x) ** d for x, m in self.atoms)
        if self.density is not None:
            total += _density_integral(
                self.density, lambda x: r * math.log(x) + d * math.log1p(-x),
                0.0, 1.0, _UNIT_PROBES)
        return total

    def survival_moment(self, n: int) -> float:
        """Integral of (1 - x**n) against the measure."""
        if n == 0:
            return 0.0
        total = sum(m * -math.expm1(n * math.log(x)) if x > 0.0 else m
                    for x, m in self.atoms)
        if self.density is not None:
            total += _density_integral(
                self.density, lambda x: math.log(-math.expm1(n * math.log(x))),
                0.0, 1.0, _UNIT_PROBES)
        return total

    def block_integral(self, r: int, d: int) -> float:
        _check_rd(r, d)
        return self._integral(r, d)


@dataclass(frozen=True)
class LevyMeasure:
    """Drift plus jump measure on (0, inf]; an atom at +inf models killing."""

    drift: float = 0.0
    density: Optional[Callable[[float], float]] = None
    atoms: tuple = ()

    def __post_init__(self):
        if not (self.drift >= 0.0):
            raise ParameterError(f"drift must be >= 0, got {self.drift}")
        object.__setattr__(self, "atoms", tuple(
            (float(z), float(m)) for z, m in self.atoms))
        for z, m in self.atoms:
            if not (z > 0.0):
                raise ParameterError(f"jump location must be positive, got {z}")
            if not (m > 0.0):
                raise ParameterError(f"jump mass must be positive, got {m}")
        try:
            finite = math.isfinite(self.exponent(1.0))
        except NumericError:
            finite = False
        if not finite:
            raise ParameterError(
                "Levy measure fails the (1 - exp(-z)) integrability check")

    def exponent(self, t: float) -> float:
        """Laplace exponent: drift * t plus the (1 - exp(-z t)) integral."""
        if t == 0.0:
            return 0.0
        if t < 0.0:
            raise ParameterError("exponent defined for t >= 0")
        total = self.drift * t
        total += sum(m if math.isinf(z) else m * -math.expm1(-z * t)
                     for z, m in self.atoms)
        if self.density is not None:
            total += _density_integral(
                self.density, lambda z: _log1mexp(z * t), 0.0, np.inf,
                np.geomspace(1e-9, 300.0, 40))
        return total


def levy_from_dislocation(measure: DislocationMeasure,
                          erosion: float = 0.0) -> LevyMeasure:
    """Push the dislocation measure through x -> -log x; erosion becomes drift.

    A density picks up the Jacobian factor exp(-z); atom masses are carried
    over unchanged (an atom at x = 0 maps to a killing atom at +inf).
    """
    if not (0.0 <= erosion < math.inf):
        raise ParameterError(f"erosion must be finite and >= 0, got {erosion}")
    density = None
    if measure.density is not None:
        p = measure.density

        def density(z: float, _p=p) -> float:
            return math.exp(-z) * _p(math.exp(-z))

    atoms = tuple((math.inf if x == 0.0 else -math.log(x), m)
                  for x, m in measure.atoms)
    return LevyMeasure(drift=erosion, density=density, atoms=atoms)


def dislocation_from_levy(levy: LevyMeasure):
    """Inverse of :func:`levy_from_dislocation`; returns (measure, erosion)."""
    density = None
    if levy.density is not None:
        w = levy.density

        def density(x: float, _w=w) -> float:
            return _w(-math.log(x)) / x

    atoms = tuple((0.0 if math.isinf(z) else math.exp(-z), m)
                  for z, m in levy.atoms)
    return DislocationMeasure(density=density, atoms=atoms), levy.drift


@dataclass(frozen=True, repr=False)
class MeasureIndex(CharacteristicIndex):
    """Index built directly from a dislocation measure and erosion constant."""

    dislocation: DislocationMeasure = None
    erosion: float = 0.0

    def __post_init__(self):
        if self.dislocation is None:
            raise ParameterError("a dislocation measure is required")
        if not (0.0 <= self.erosion < math.inf):
            raise ParameterError(
                f"erosion must be finite and >= 0, got {self.erosion}")

    def unit_total_rate(self, n: int) -> float:
        return self.dislocation.survival_moment(n) + n * self.erosion

    def unit_block_rate(self, r: int, d: int) -> float:
        _check_rd(r, d)
        val = self.dislocation.block_integral(r, d)
        if d == 1:
            val += self.erosion
        return val


# ---------------------------------------------------------------------------
# Splitting-rule tables and diagnostics


@dataclass(frozen=True, eq=False)
class SplittingTable:
    """Dense table of splitting probabilities q(r, d) for r + d <= max_n."""

    max_n: int
    probs: np.ndarray

    def prob(self, r: int, d: int) -> float:
        _check_rd(r, d)
        if r + d > self.max_n:
            raise ParameterError(
                f"table covers r + d <= {self.max_n}, got r={r}, d={d}")
        return float(self.probs[r, d])

    split_prob = prob

    _log_terms = None

    def _log_row_reader(self, n: int):
        """Return ``read(m)``: log q(m - d, d), d = 1..m, for any m <= n."""
        if n > self.max_n:
            raise ParameterError(f"table covers n <= {self.max_n}, got {n}")
        d = np.arange(1, n + 1)

        def read(m: int) -> np.ndarray:
            with np.errstate(divide="ignore"):
                return np.log(self.probs[m - d[:m], d[:m]])
        return read

    def unit_total_rate(self, n: int) -> float:
        """1: the table's rows are splitting probabilities, not rates."""
        return 1.0


# Largest normalization defect a built table may show.
_TABLE_TOL = 1e-8


def build_table(index: CharacteristicIndex, max_n: int) -> SplittingTable:
    """Tabulate q(r, d) for r + d <= max_n, validating row normalization
    against the index's own total rates."""
    if max_n < 1:
        raise ParameterError(f"max_n must be >= 1, got {max_n}")
    if max_n > MAX_TABLE_ROWS:
        raise ResourceError(f"{max_n} rows exceed {MAX_TABLE_ROWS}: above "
                            "that the binomials C(n, d) overflow a float")
    q = np.full((max_n + 1, max_n + 1), np.nan)
    d = np.arange(1, max_n + 1)
    read = index._log_row_reader(max_n)
    for m in range(max_n, 0, -1):
        logq = read(m) - _log_unit_total(index, m)
        row = np.minimum(np.exp(logq), 1.0)
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            di = int(bad[0]) + 1
            raise NumericError(
                f"splitting probability q({m - di},{di}) is not finite")
        q[m - d[:m], d[:m]] = row
    table = SplittingTable(max_n=max_n, probs=q)
    defect = normalization_defect(table)
    if defect > _TABLE_TOL:
        raise NumericError(
            f"table rows violate normalization (max defect {defect:.3g})")
    return table


def normalization_defect(table: SplittingTable, n: Optional[int] = None) -> float:
    """Max over rows of |sum_d C(n,d) q(n-d,d) - 1|; a single row if n given.
    Binomial row m is row m - 1 plus itself shifted (Pascal's rule), in
    floats, which hold every C(n, d) up to n = MAX_TABLE_ROWS."""
    top = table.max_n if n is None else n
    if not 1 <= top <= min(table.max_n, MAX_TABLE_ROWS):
        raise ParameterError(f"row {top} outside table range")
    comb = np.zeros(top + 1)
    comb[0] = 1.0
    d = np.arange(1, top + 1)
    worst = 0.0
    for m in range(1, top + 1):
        comb[1:m + 1] = comb[1:m + 1] + comb[:m]
        if n is None or m == n:
            weights = comb[1:m + 1] * table.probs[m - d[:m], d[:m]]
            worst = max(worst, abs(math.fsum(weights) - 1.0))
    return worst


def consistency_defect(table: SplittingTable, n: int, d: int) -> float:
    """Defect of the one-step deletion identity linking rows n and n + 1."""
    if not (1 <= d <= n):
        raise ParameterError(f"need 1 <= d <= n, got n={n}, d={d}")
    lhs = (1.0 - table.prob(n, 1)) * table.prob(n - d, d)
    rhs = table.prob(n - d, d + 1) + table.prob(n - d + 1, d)
    return abs(lhs - rhs)


def weak_continuity_defect(index: CharacteristicIndex, r: int, d: int) -> float:
    """Gap between the tied-failure hazard atom and the sum of the d singleton
    atoms obtained by splitting the tie; identically zero only for the
    harmonic family."""
    _check_rd(r, d)
    tied = (index.log_unit_block_rate(r + 1, d)
            - index.log_unit_block_rate(r, d))
    split = (index.log_unit_block_rate(r + d, 1)
             - index.log_unit_block_rate(r, 1))
    return tied - split


def difference_positivity_defect(index: CharacteristicIndex,
                                 n_check: int = 40) -> float:
    """Most negative signed difference over r + d <= n_check (0 when valid)."""
    worst = 0.0
    for n in range(1, n_check + 1):
        for d in range(1, n + 1):
            worst = min(worst, index.unit_block_rate(n - d, d))
    return worst


# The family registry: every name a user may give maps to its class, and the
# class's dataclass fields are the family's parameters.
FAMILIES = {
    "harmonic": HarmonicIndex,
    "gamma": GammaIndex,
    "power": PowerIndex,
    "geometric": GeometricIndex,
    "linear": LinearIndex,
    "linear-shift": LinearShiftIndex,
    "beta": BetaSplitIndex,
    "measure": MeasureIndex,
}


def index_from_spec(family: str, **params) -> CharacteristicIndex:
    """Build an index from a family name and named parameters."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    names = [f.name for f in fields(FAMILIES[family])]
    if not set(params) <= set(names):
        raise ParameterError(f"{family} takes {names}, got {sorted(params)}")
    return FAMILIES[family](**params)
