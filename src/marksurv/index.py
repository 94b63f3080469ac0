"""Characteristic-index families for exchangeable Markov survival processes.

A characteristic index is a strictly increasing sequence starting at zero.
Its value at n is the total failure intensity of the risk-set chain while n
individuals remain at risk, and its signed forward differences give the
intensity attached to each possible block of simultaneous failures.  This
module provides the built-in families, numerically stable difference
evaluation (closed forms where available; for the gamma and power
families a trapezoid rule over the Levy-measure integral, every rate of an
array in one pass and a single rate as a one-entry array; scaled adaptive
quadrature for measures and as the fallback), splitting-rule tables with
normalization/consistency diagnostics, and the conversions between the
dislocation-measure and Levy-measure representations of the same process.

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
# or power rate whose array-rule error estimate fails, and measures), beta
# rates and the random-measure route.  Closed-form and array-rule rates,
# walks, fits and predictions run on math and numpy alone.
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


# Relative precision lost to cancellation above which a harmonic or beta
# total rate is summed from its singleton rates.  Kept near machine level
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
        t2 = t * t
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * t2)) / t2) / t

    y = x + k
    return ((x - 0.5) * np.log1p(k / x) + k * np.log(y) - k
            + series(y) - series(x))


# scipy's digamma (Cephes psi): the asymptotic series coefficients, highest
# order first, and Boost's rational approximation on [1, 2], written relative
# to the positive root of digamma.
_PSI_ASYMPTOTIC = (1.0 / 12.0, -691.0 / 32760.0, 1.0 / 132.0, -1.0 / 240.0,
                   1.0 / 252.0, -1.0 / 120.0, 1.0 / 12.0)
_PSI_P = (-0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
          -0.65031853770896507, -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144,
          0.054151797245674225, 0.43593529692665969, 1.4606242909763515,
          2.0767117023730469, 1.0)
_PSI_Y = 0.99558162689208984375  # a float32 constant
_PSI_ROOT = (1569415565.0 / 1073741824.0,
             381566830.0 / 1073741824.0 / 1073741824.0,
             0.9016312093258695918615325266959189453125e-19)
_EULER = 0.57721566490153286061


def _polevl(x: float, coef) -> float:
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


@lru_cache(maxsize=4096)
def _digamma(x: float) -> float:
    """digamma(x) for x > 0, step for step as scipy.special.digamma computes
    it (equal to the last bit): a harmonic sum at integers up to 10; else
    the recurrence into [1, 2] and a rational approximation there, or, from
    10 on, the asymptotic series through the x**-14 term."""
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if x <= 2.0:
        g = x - _PSI_ROOT[0] - _PSI_ROOT[1] - _PSI_ROOT[2]
        r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
        return y + (g * _PSI_Y + g * r)
    z = 1.0 / (x * x)
    return y + (math.log(x) - 0.5 / x - z * _polevl(z, _PSI_ASYMPTOTIC))


def _digamma_difference(rho: float, n: int) -> float:
    """digamma(n + rho) - digamma(rho), the harmonic index at unit scale."""
    hi = _digamma(n + rho)
    lo = _digamma(rho)
    if (abs(hi) + abs(lo)) * _EPS > _CANCEL_TOL * (hi - lo):
        # At large rho the two digammas cancel; the difference telescopes
        # into the positive singleton rates 1 / (rho + k), k < n.
        return float((1.0 / (rho + np.arange(n))).sum())
    return hi - lo


def _separable_reader(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Row reader for a separable form a[d] + b[r] + c[r + d]: row m = r + d
    costs one vector sum, whichever m is asked."""
    def read(m: int) -> np.ndarray:
        return a[1:m + 1] + b[m - 1::-1] + c[m]
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

    For a separable index log C(m, d) = lf[m] - lf[d] - lf[r] joins its
    terms, so a row is one vector sum.  Entry i of each term depends on i
    alone, so the index remembers the longest terms asked for and reads
    shorter ones from them.
    """
    if rule._log_terms is not None:
        memo = _memo(rule)
        terms = memo.get("first block")
        if terms is None or len(terms[0]) <= n:
            lf = _log_factorials(n)
            a, b, c = rule._log_terms(n)
            terms = memo["first block"] = tuple(
                _read_only(x) for x in (a - lf, b - lf, c + lf))
        return _separable_reader(*terms)
    lf = _log_factorials(n)
    read = rule._log_row_reader(n)

    def row(m: int) -> np.ndarray:
        return lf[m] - lf[1:m + 1] - lf[m - 1::-1] + read(m)
    return row


def _first_block_log_rows(rule, n: int):
    """Yield log C(m, d) q(m - d, d), d = 1..m, for m = n down to 1: the rows
    of ``_first_block_reader`` less their constant, log unit_total_rate(m)
    (1 for a SplittingTable, whose rows are probabilities already)."""
    row = _first_block_reader(rule, n)
    for m in range(n, 0, -1):
        yield row(m) - math.log(rule.unit_total_rate(m))


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
    longest first-block terms.  Every instance remembers the hazards and
    atom factors its predictive walk reads; gamma and power indices also
    remember each single rate asked, an entry of their array rule
    (``_IntegralIndex``).  Those dicts hold at most ``_MEMO_MAX`` = 65,536
    entries each (6.3 to 8.9 MB full) and are emptied when full.  The memo
    lives on the instance, not in a shared cache.
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
        return self.scale * self.unit_total_rate(n)

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


@dataclass(frozen=True, repr=False)
class HarmonicIndex(_NuRhoIndex):
    """Digamma-difference family; its predictive distributions are the only
    ones among Markov survival processes that vary weakly continuously with
    the observed failure times."""

    def unit_total_rate(self, n: int) -> float:
        return _digamma_difference(self.rho, n)

    @staticmethod
    def _rho_at_unit_rate(x: float) -> float:
        """The rho at which unit_total_rate(1) = 1 / rho equals x."""
        return 1.0 / x

    def log_unit_block_rate(self, r: int, d: int) -> float:
        _check_rd(r, d)
        a = self.rho + r
        if self.rho < _STIRLING_MIN:
            return math.lgamma(d) + math.lgamma(a) - math.lgamma(a + d)
        return math.lgamma(d) - float(_log_rising(a, d))

    def _log_terms(self, n: int):
        i = np.arange(n + 1, dtype=float)
        # Only differences g[r] - g[r + d] enter the rates.
        if self.rho < _STIRLING_MIN:
            g = _lgamma(self.rho + i)
        else:
            g = _log_rising(self.rho, i)
        # a[d] = log (d - 1)!, and a[0] = 0 (never read).
        return np.concatenate([[0.0], _log_factorials(n - 1)]), g, -g


# Scaling probes for the gamma integrand in its rescaled variable.
_GAMMA_PROBES = tuple(np.geomspace(1e-8, 200.0, 40).tolist()) + (1.0,)

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


def _trapezoid(a: np.ndarray, k: np.ndarray, beta: float,
               nodes: int = _TRAPEZOID_NODES) -> np.ndarray:
    """log I(a, k, beta) for 1-d arrays a > 0 and k >= 1 and one beta, or
    NaN where the bracket is not closed inside the coarse grid or the
    trapezoid rules at step h and 2h differ by more than the tolerance
    asked of the scalar quadrature, on ``nodes`` nodes and then, for a
    closed bracket, once more on twice as many intervals."""
    c = _TRAPEZOID_CHUNK
    if len(a) > c:
        return np.concatenate([_trapezoid(a[i:i + c], k[i:i + c], beta, nodes)
                               for i in range(0, len(a), c)])
    if not len(a):
        return np.empty(0)
    a, k = a[:, None], k[:, None]
    scale = np.log1p(k / a)
    rate = a * scale
    base = np.expm1(-scale)

    def log_rel(u):
        """log of the integrand at u less its value at u = 0, free of
        cancellation."""
        out = -rate * np.expm1(u) + k * np.log(np.expm1(-scale * np.exp(u))
                                               / base)
        return out - beta * u if beta else out

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
                - beta * np.log(scale[:, 0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(ok, log_at_0 + np.log(value), np.nan)
    redo = np.flatnonzero(closed & ~ok)
    if redo.size and nodes == _TRAPEZOID_NODES:
        out[redo] = _trapezoid(a[redo, 0], k[redo, 0], beta, 2 * nodes - 1)
    return out


class _IntegralIndex(CharacteristicIndex):
    """Gamma and power: rates are integrals I(a, k, beta).  A family gives
    its closed form at d = 1 (``_log_singletons``), its trapezoid rule above
    it (``_log_blocks``) and its scalar integral (``_log_rate_quad``), the
    fallback of an entry whose error estimate fails."""

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
        out[big] = self._log_blocks(rr[big], dd[big])
        for i in np.flatnonzero(~np.isfinite(out)).tolist():
            out[i] = self._log_rate_quad(int(r[i]), int(d[i]))
        return out


@dataclass(frozen=True, repr=False)
class GammaIndex(_NuRhoIndex, _IntegralIndex):
    """Logarithmic family generated by a gamma random hazard measure."""

    def unit_total_rate(self, n: int) -> float:
        return math.log1p(n / self.rho)

    @staticmethod
    def _rho_at_unit_rate(x: float) -> float:
        """The rho at which unit_total_rate(1) = log(1 + 1 / rho) equals x:
        1 / expm1(x), written to underflow rather than overflow."""
        return math.exp(-x) / -math.expm1(-x)

    def _log_singletons(self, r: np.ndarray) -> np.ndarray:
        return np.log(np.log1p(1.0 / (self.rho + r)))

    def _log_blocks(self, r: np.ndarray, d: np.ndarray) -> np.ndarray:
        return _trapezoid(self.rho + r, d, 0.0)

    def _log_rate_quad(self, r: int, d: int) -> float:
        a = self.rho + r
        # Integrate in v = z / log(1 + d / a), where the integrand peaks near
        # v = 1 for every rho, r and d.  In z the peak sits near (d - 1) / a
        # and narrows with it, and at large rho the quadrature misses it.
        scale = math.log1p(d / a)
        rate = a * scale

        def log_f(v: float) -> float:
            return -rate * v + d * _log1mexp(scale * v) - math.log(v)

        return _log_quad(log_f, 0.0, np.inf, _GAMMA_PROBES)


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

    def _log_blocks(self, r: np.ndarray, d: np.ndarray) -> np.ndarray:
        """alpha / Gamma(1 - alpha) I(r, d, alpha) for r >= 1 and,
        integrated by parts, d / Gamma(1 - alpha) I(1, d - 1, alpha - 1) at
        r = 0, whose integrand decays exponentially."""
        al, lg = self.alpha, math.lgamma(1.0 - self.alpha)
        top = r == 0
        out = np.empty(len(r))
        out[~top] = math.log(al) - lg + _trapezoid(r[~top], d[~top], al)
        out[top] = np.log(d[top]) - lg + _trapezoid(
            np.ones(top.sum()), d[top] - 1.0, al - 1.0)
        return out

    def _log_rate_quad(self, r: int, d: int) -> float:
        al = self.alpha
        lead = math.log(al) - math.lgamma(1.0 - al)

        def log_f(z: float) -> float:
            return -r * z + d * _log1mexp(z) - (1.0 + al) * math.log(z)

        probes = np.geomspace(1e-8, 200.0, 40)
        if r == 0:
            # The integrand decays only algebraically; integrate to a cutoff
            # and add the closed-form tail, where 1 - exp(-z) is 1 to within
            # exp(-cutoff).
            cutoff = 60.0
            log_main = _log_quad(log_f, 0.0, cutoff, probes[probes < cutoff])
            log_tail = -al * math.log(cutoff) - math.log(al)
            return lead + np.logaddexp(log_main, log_tail)
        return lead + _log_quad(log_f, 0.0, np.inf, probes)


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
class BetaSplitIndex(CharacteristicIndex):
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

    def _log_rates(self, r, d):
        """log B(rho + r, beta + d), elementwise; at large rho through
        Stirling's series, as for the harmonic family."""
        if self.rho < _STIRLING_MIN:
            return special.betaln(self.rho + r, self.beta + d)
        return special.gammaln(self.beta + d) - _log_rising(self.rho + r,
                                                            self.beta + d)

    def unit_total_rate(self, n: int) -> float:
        b = self.beta
        if b == 0.0:
            return _digamma_difference(self.rho, n)
        if self.rho < _STIRLING_MIN:
            head = math.exp(math.lgamma(self.rho) - math.lgamma(self.rho + b))
            tail = math.exp(math.lgamma(n + self.rho)
                            - math.lgamma(n + self.rho + b))
        else:
            head = math.exp(-_log_rising(self.rho, b))
            tail = math.exp(-_log_rising(n + self.rho, b))
        if (head + tail) * _EPS > _CANCEL_TOL * abs(head - tail):
            # At small beta or large rho head and tail cancel; the index
            # telescopes into the positive singleton rates lambda(k, 1), k < n.
            k = np.arange(n, dtype=float)
            return float(np.exp(self._log_rates(k, 1.0)).sum())
        return math.exp(math.lgamma(b + 1.0)) / b * (head - tail)

    def log_unit_block_rate(self, r: int, d: int) -> float:
        _check_rd(r, d)
        return float(self._log_rates(r, d))

    def _log_terms(self, n: int):
        i = np.arange(n + 1, dtype=float)
        if self.rho < _STIRLING_MIN:
            b = _lgamma(self.rho + i)
            c = -_lgamma(self.rho + self.beta + i)
        else:
            # The same terms less log Gamma(rho), which cancels in b + c.
            b = _log_rising(self.rho, i)
            c = -_log_rising(self.rho, self.beta + i)
        return _lgamma(np.maximum(self.beta + i, _EPS)), b, c


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
        logq = read(m) - math.log(index.unit_total_rate(m))
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
    return FAMILIES[family](**params)
