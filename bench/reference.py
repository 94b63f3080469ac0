"""Reference computations for the benchmark's checks.

Nothing here imports marksurv.  Every value the benchmark compares against
is computed from the paper's own routes:

* block rates from the exact characteristic index psi(n) by the additive
  identity lambda(r, d+1) = lambda(r, d) - lambda(r+1, d), in mpmath at a
  precision chosen from the cancellation and confirmed at a higher one;
* closed-form log rates of the separable families through ``math.lgamma``,
  with psi(m) rebuilt as the sum of the singleton rates lambda(k, 1), k < m;
* the exact first-block law and the block-count dynamic program (first and
  second moments, and the whole law at small n) from those rates;
* product-limit, exponential and harmonic predictive survival curves, the
  gamma joint survival function and the censored log likelihood, straight
  from the data records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# mpmath is imported inside the functions that use it: the workloads load
# this module in the timed set-up, which should pay only for marksurv.

# Relative agreement required when a program value is compared in process
# with a reference value; a planted 1e-6 error is far outside it.
TOL_EXACT = 1e-9

# Every mpmath reference is recomputed with this many more digits and must
# agree to 10**-CONFIRM_DIGITS relative.
CONFIRM_DIGITS = 20


def rel_diff(a: float, b: float) -> float:
    """|a - b| / |b|, with 0 when both are 0."""
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b != 0.0 else math.inf


# ---------------------------------------------------------------------------
# Characteristic indices in mpmath (unit scale)


def mp_psi(family: str, params: dict):
    """psi(m) at unit scale as an mpmath function of the integer m."""
    import mpmath as mp
    if family == "gamma":
        rho = mp.mpf(params["rho"])
        return lambda m: mp.log1p(mp.mpf(m) / rho)
    if family == "power":
        alpha = mp.mpf(params["alpha"])
        return lambda m: mp.power(m, alpha) if m > 0 else mp.mpf(0)
    if family == "harmonic":
        rho = mp.mpf(params["rho"])
        return lambda m: mp.digamma(m + rho) - mp.digamma(rho)
    raise ValueError(f"no mpmath index for {family!r}")


def _mp_columns(psi, n: int, dps: int):
    """cols[d][r] = lambda(r, d) for r + d <= n, by the additive identity."""
    import mpmath as mp
    with mp.workdps(dps):
        ps = [psi(m) for m in range(n + 1)]
        prev = [ps[r + 1] - ps[r] for r in range(n)]
        cols = [None, prev]
        for _ in range(1, n):
            cur = [prev[r] - prev[r + 1] for r in range(len(prev) - 1)]
            cols.append(cur)
            prev = cur
    return cols, ps


def _log_float(v) -> float:
    import mpmath as mp
    f = float(v)
    if f > 1e-300:
        return math.log(f)
    return float(mp.log(v)) if v > 0 else -math.inf


@dataclass
class TriangleRates:
    """Log block rates log lambda(r, d) for r + d <= n, stored densely."""

    n: int
    log_lam: np.ndarray      # (n + 1, n + 1); entry [r, d]
    log_psi: np.ndarray      # (n + 1,); entry 0 is -inf
    dps: int                 # decimal digits the triangle was confirmed at

    def row(self, m: int) -> np.ndarray:
        d = np.arange(1, m + 1)
        return self.log_lam[m - d, d]

    def log_rate(self, r: int, d: int) -> float:
        return float(self.log_lam[r, d])


def exact_triangle(family: str, params: dict, n: int) -> TriangleRates:
    """The whole rate triangle up to n from psi, in confirmed precision.

    The recursion loses about log10(2**d * psi(n) / lambda(r, d)) digits at
    entry (r, d).  The working precision starts from that bound for the
    smallest rates one expects (about 4**-n) and is raised until it covers
    the loss measured on the triangle itself; the result is then recomputed
    with CONFIRM_DIGITS more digits and every entry must agree to within
    10**-CONFIRM_DIGITS relative.  A fixed precision is not safe: 120 digits
    gives a wrong power(0.5) rate at r = d = 150.
    """
    import mpmath as mp
    psi = mp_psi(family, params)
    dps = int(2 * n * math.log10(2.0)) + 30
    while True:
        cols, ps = _mp_columns(psi, n, dps)
        if any(not v > 0 for d in range(1, n + 1) for v in cols[d]):
            dps += n // 2 + 20
            continue
        log_lam = np.full((n + 1, n + 1), -np.inf)
        for d in range(1, n + 1):
            log_lam[:n - d + 1, d] = [_log_float(v) for v in cols[d]]
        log_psi = np.array([-math.inf] + [_log_float(p) for p in ps[1:]])
        d_idx = np.arange(n + 1)
        lost = (d_idx * math.log(2.0) + log_psi[n] - log_lam) / math.log(10.0)
        need = float(np.max(lost[:, 1:][np.isfinite(lost[:, 1:])]))
        if need + 25 <= dps:
            break
        dps = int(need) + 30
    hi_cols, _ = _mp_columns(psi, n, dps + CONFIRM_DIGITS)
    with mp.workdps(dps + CONFIRM_DIGITS):
        tol = mp.mpf(10) ** (-CONFIRM_DIGITS)
        for d in range(1, n + 1):
            for a, b in zip(cols[d], hi_cols[d]):
                if abs(a - b) > tol * abs(b):
                    raise ArithmeticError(
                        f"{family} triangle not confirmed at {dps} digits")
    return TriangleRates(n=n, log_lam=log_lam, log_psi=log_psi, dps=dps)


def mp_block_log_rate(family: str, params: dict, r: int, d: int) -> float:
    """log lambda(r, d) by the alternating sum of psi in confirmed precision."""
    import mpmath as mp
    psi = mp_psi(family, params)

    def at(dps):
        with mp.workdps(dps):
            return mp.fsum((-1) ** (j + 1) * mp.binomial(d, j) * psi(r + j)
                           for j in range(d + 1))

    dps = 30 + int(d * (math.log10(2.0) + math.log10(r + d + 2.0)))
    while True:
        v = at(dps)
        if v > 0:
            with mp.workdps(dps):
                lost = d * math.log10(2.0) + float(mp.log10(
                    abs(psi(r + d)) / v))
            if lost + 25 <= dps:
                break
            dps = int(lost) + 30
        else:
            dps += 40
    w = at(dps + CONFIRM_DIGITS)
    with mp.workdps(dps + CONFIRM_DIGITS):
        if abs(v - w) > mp.mpf(10) ** (-CONFIRM_DIGITS) * abs(w):
            raise ArithmeticError(f"{family} rate ({r},{d}) not confirmed")
        return float(mp.log(w))


# ---------------------------------------------------------------------------
# Separable closed-form families through math.lgamma


@dataclass
class SeparableRates:
    """log lambda(r, d) = a[d] + b[r] + c[r + d]; psi from singleton rates."""

    n: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    log_psi: np.ndarray

    def row(self, m: int) -> np.ndarray:
        return self.a[1:m + 1] + self.b[m - 1::-1] + self.c[m]

    def log_rate(self, r: int, d: int) -> float:
        return float(self.a[d] + self.b[r] + self.c[r + d])


def closed_rates(family: str, params: dict, n: int) -> SeparableRates:
    """Closed-form log rates of the harmonic, beta and geometric families."""
    lg = math.lgamma
    idx = range(n + 1)
    if family == "harmonic":
        rho = params["rho"]
        a = [lg(d) if d >= 1 else -math.inf for d in idx]
        b = [lg(rho + r) for r in idx]
        c = [-lg(rho + s) for s in idx]
    elif family == "beta":
        rho, beta = params["rho"], params["beta"]
        a = [lg(beta + d) if d >= 1 else -math.inf for d in idx]
        b = [lg(rho + r) for r in idx]
        c = [-lg(rho + beta + s) for s in idx]
    elif family == "geometric":
        la, lb = math.log(params["alpha"]), math.log1p(-params["alpha"])
        a = [d * lb for d in idx]
        b = [r * la for r in idx]
        c = [0.0 for _ in idx]
    else:
        raise ValueError(f"no closed form for {family!r}")
    a, b, c = np.array(a), np.array(b), np.array(c)
    # psi(m) = sum of lambda(k, 1) over k < m: positive terms, no cancellation.
    singles = np.exp(a[1] + b[:n] + c[1:n + 1])
    log_psi = np.concatenate([[-math.inf], np.log(np.cumsum(singles))])
    return SeparableRates(n=n, a=a, b=b, c=c, log_psi=log_psi)


# ---------------------------------------------------------------------------
# Laws derived from the rates


def _log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def first_block_law(rates, m: int) -> np.ndarray:
    """P(first block has size d), d = 1..m, out of m at risk."""
    lf = _log_factorials(m)
    d = np.arange(1, m + 1)
    return np.exp(lf[m] - lf[d] - lf[m - d] + rates.row(m) - rates.log_psi[m])


def block_count_moments(rates, n: int):
    """E[K_m] and E[K_m**2] for m = 0..n, K the number of tied blocks."""
    lf = _log_factorials(n)
    mu = np.zeros(n + 1)
    m2 = np.zeros(n + 1)
    for m in range(1, n + 1):
        d = np.arange(1, m + 1)
        w = np.exp(lf[m] - lf[d] - lf[m - d] + rates.row(m)
                   - rates.log_psi[m])
        prev_mu, prev_m2 = mu[m - d], m2[m - d]
        mu[m] = 1.0 + w @ prev_mu
        m2[m] = 1.0 + w @ (2.0 * prev_mu + prev_m2)
    return mu, m2


def block_count_law(rates, n: int) -> np.ndarray:
    """P(K_n = k), k = 0..n."""
    law = [np.array([1.0])]
    for m in range(1, n + 1):
        p = first_block_law(rates, m)
        cur = np.zeros(m + 1)
        for d in range(1, m + 1):
            prev = law[m - d]
            cur[1:prev.size + 1] += p[d - 1] * prev
        law.append(cur)
    return law[n]


def row_sums(rates, n: int) -> np.ndarray:
    """sum_d C(m, d) lambda(m-d, d) / psi(m) for m = 1..n (all 1 exactly)."""
    return np.array([math.fsum(first_block_law(rates, m))
                     for m in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Splitting-table checks, computed by the benchmark's own loops


def table_defects(q: np.ndarray, max_n: int):
    """Worst row-normalization defect and worst relative defect of the
    additive identity q(r,d) (1 - q(r+d,1)) = q(r,d+1) + q(r+1,d)."""
    worst_norm = 0.0
    for m in range(1, max_n + 1):
        s = math.fsum(math.comb(m, d) * float(q[m - d, d])
                      for d in range(1, m + 1))
        worst_norm = max(worst_norm, abs(s - 1.0))
    worst_add = 0.0
    for n in range(1, max_n):
        for d in range(1, n + 1):
            r = n - d
            lhs = float(q[r, d]) * (1.0 - float(q[n, 1]))
            rhs = float(q[r, d + 1]) + float(q[r + 1, d])
            worst_add = max(worst_add, rel_diff(lhs, rhs))
    return worst_norm, worst_add


def table_vs_rates(q: np.ndarray, rates, max_n: int) -> float:
    """Worst relative gap between q(r, d) and lambda(r, d) / psi(r + d)."""
    worst = 0.0
    for m in range(1, max_n + 1):
        ref = np.exp(rates.row(m) - rates.log_psi[m])
        d = np.arange(1, m + 1)
        got = q[m - d, d]
        worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
    return worst


# ---------------------------------------------------------------------------
# Data-level references


def group_records(times, status):
    """Sorted distinct times with (failures, censorings, at risk) at each."""
    counts = {}
    for t, s in zip(times, status):
        f, c = counts.get(t, (0, 0))
        counts[t] = (f + 1, c) if s else (f, c + 1)
    out = []
    at_risk = len(times)
    for t in sorted(counts):
        f, c = counts[t]
        out.append((t, f, c, at_risk))
        at_risk -= f + c
    return out


def kaplan_meier(times, status, grid) -> np.ndarray:
    """Product-limit survival at each grid point (right-continuous)."""
    steps = [(t, 1.0 - f / m) for t, f, _, m in group_records(times, status)
             if f > 0]
    out = []
    for g in grid:
        s = 1.0
        for t, factor in steps:
            if t > g:
                break
            s *= factor
        out.append(s)
    return np.array(out)


def exponential_fit(times, status):
    """(rate, log likelihood) of the iid exponential model: D / R."""
    deaths = sum(1 for s in status if s)
    risk = math.fsum(times)
    rate = deaths / risk
    return rate, deaths * math.log(rate) - rate * risk


def harmonic_predictive(times, status, rho: float, nu: float,
                        grid) -> np.ndarray:
    """The paper's product formula for the next lifetime's survival under
    the harmonic family: hazard nu / (rho + m) while m are at risk, times a
    factor (rho + r) / (rho + r + d) at each failure time with d failures
    and r survivors."""
    groups = group_records(times, status)
    out = []
    for g in grid:
        log_s = 0.0
        prev = 0.0
        alive = len(times)
        for t, f, c, m in groups:
            if t > g:
                break
            log_s -= nu * (t - prev) / (rho + m)
            if f > 0:
                r = m - f
                log_s += math.log((rho + r) / (rho + r + f))
            prev = t
            alive = m - f - c
        log_s -= nu * (g - prev) / (rho + alive)
        out.append(math.exp(log_s))
    return np.array(out)


def log_density_from_rates(events, n0: int, rates, nu: float) -> float:
    """Log density of a trajectory given as (time, failures, censorings)
    rows: minus the integrated total rate, plus log(nu lambda(r, d)) per
    failure time."""
    integral = []
    terms = []
    alive, prev = n0, 0.0
    for t, d, c in events:
        integral.append(nu * math.exp(rates.log_psi[alive]) * (t - prev))
        if d > 0:
            terms.append(math.log(nu) + rates.log_rate(alive - d, d))
        alive -= d + c
        prev = t
    return math.fsum(terms) - math.fsum(integral)


def predictive_from_rates(events, n0: int, rates, nu: float,
                          grid) -> np.ndarray:
    """Survival of the next lifetime: hazard nu lambda(m, 1) while m are at
    risk, and a factor lambda(r+1, d) / lambda(r, d) at each failure time
    with d failures and r survivors."""
    out = []
    for g in grid:
        log_s = 0.0
        alive, prev = n0, 0.0
        for t, d, c in events:
            if t > g:
                break
            log_s -= nu * math.exp(rates.log_rate(alive, 1)) * (t - prev)
            if d > 0:
                r = alive - d
                log_s += rates.log_rate(r + 1, d) - rates.log_rate(r, d)
            alive -= d + c
            prev = t
        log_s -= nu * math.exp(rates.log_rate(alive, 1)) * (g - prev)
        out.append(math.exp(log_s))
    return np.array(out)


def gamma_predictive(times, status, rho: float, nu: float,
                     grid) -> np.ndarray:
    """Next-lifetime survival under the gamma family from the records:
    hazard nu (psi(m + 1) - psi(m)) while m are at risk, and a factor
    lambda(r+1, d) / lambda(r, d) at each failure time, with the block rates
    from confirmed-precision alternating sums."""
    groups = group_records(times, status)
    params = {"rho": rho}
    atoms = {}
    for t, f, _, m in groups:
        if f > 0:
            r = m - f
            atoms[t] = (mp_block_log_rate("gamma", params, r + 1, f)
                        - mp_block_log_rate("gamma", params, r, f))

    def single(m):
        return math.log1p((m + 1) / rho) - math.log1p(m / rho)

    out = []
    for g in grid:
        log_s = 0.0
        prev = 0.0
        alive = len(times)
        for t, f, c, m in groups:
            if t > g:
                break
            log_s -= nu * single(m) * (t - prev)
            log_s += atoms.get(t, 0.0)
            prev = t
            alive = m - f - c
        log_s -= nu * single(alive) * (g - prev)
        out.append(math.exp(log_s))
    return np.array(out)


def gamma_joint_survival(times, nu: float, rho: float) -> float:
    """P(T_1 > t_1, ..., T_n > t_n) for the gamma family:
    exp(-nu * sum over the sorted times of log(1 + m / rho) * gap)."""
    ts = sorted(times)
    acc = 0.0
    prev = 0.0
    m = len(ts)
    for t in ts:
        acc += nu * math.log1p(m / rho) * (t - prev)
        prev = t
        m -= 1
    return math.exp(-acc)


def unit_psi(family: str, rho: float, m: int) -> float:
    """psi_rho(m) at unit scale for the two fitted families."""
    if family == "harmonic":
        return math.fsum(1.0 / (rho + k) for k in range(m))
    if family == "gamma":
        return math.log1p(m / rho)
    raise ValueError(family)


def censored_loglik(times, status, family: str, rho: float,
                    nu: float) -> float:
    """Exact log likelihood of censored records under the family at
    (rho, nu): one log(nu lambda(r, d)) per failure time, minus nu times
    the integral of psi(risk-set size) over time."""
    groups = group_records(times, status)
    integral = []
    blocks = []
    prev = 0.0
    if family == "harmonic":
        inv = np.cumsum([0.0] + [1.0 / (rho + k) for k in range(len(times))])
    for t, f, _, m in groups:
        psi_m = float(inv[m]) if family == "harmonic" else math.log1p(m / rho)
        integral.append(psi_m * (t - prev))
        prev = t
        if f > 0:
            r = m - f
            if family == "harmonic":
                lr = math.lgamma(f) + math.lgamma(rho + r) \
                    - math.lgamma(rho + r + f)
            else:
                lr = mp_block_log_rate("gamma", {"rho": rho}, r, f)
            blocks.append(math.log(nu) + lr)
    return math.fsum(blocks) - nu * math.fsum(integral)
