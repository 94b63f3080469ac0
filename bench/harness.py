"""Operation recording and checking shared by the workloads.

A round is a fixed list of operations.  Each operation is one timed call
into marksurv (or one CLI command) followed by an untimed check; a call
that raises, or a check that finds a problem, marks the operation failed.
Operation times are summed per category within a round:

* ``small``  - calls on tiny inputs, where fixed per-call cost dominates;
* ``closed`` - calls on closed-form rate families (harmonic, beta,
  geometric) at full size, which no rate cache or quadrature change touches;
* ``quad``   - calls on the alternating-sum / quadrature families (gamma,
  power, measure) at full size.
"""

from __future__ import annotations

import math
import sys
import time

from reference import rel_diff

CATEGORIES = ("small", "closed", "quad")

# Statistical bands are set so that a correct program fails one with
# probability below ALPHA: exact tails where the law is known (a sum of
# iid Exp(1) is Gamma), Bernstein's inequality for sums of bounded terms
# (counts of events), and 7 standard deviations (normal tail 3e-12) only
# for block counts, whose laws are light-tailed and close to normal.
ALPHA = 1e-10
Z_LIMIT = 7.0


class Checks:
    """Collects problems found while checking one operation's output."""

    def __init__(self):
        self.problems = []

    def true(self, cond, what: str):
        if not cond:
            self.problems.append(what)

    def close(self, got, ref, tol: float, what: str):
        got, ref = float(got), float(ref)
        err = rel_diff(got, ref)
        if not err <= tol:
            self.problems.append(f"{what}: {got!r} vs {ref!r} "
                                 f"(rel {err:.3g} > {tol:.1g})")

    def z(self, observed, expected, variance, what: str):
        """Normal band of Z_LIMIT standard deviations."""
        zval = (observed - expected) / math.sqrt(variance)
        if not abs(zval) <= Z_LIMIT:
            self.problems.append(f"{what}: z = {zval:.2f} (observed "
                                 f"{observed:.6g}, expected {expected:.6g})")

    def bernstein(self, observed, expected, variance, bound, what: str):
        """Band for a sum of independent terms each within ``bound`` of its
        mean: P(|S - E S| >= t) <= 2 exp(-t**2 / (2 (V + bound t / 3)))."""
        lg = math.log(2.0 / ALPHA)
        t = lg * bound / 3.0 + math.sqrt((lg * bound / 3.0) ** 2
                                         + 2.0 * lg * variance)
        if not abs(observed - expected) <= t:
            self.problems.append(f"{what}: {observed:.6g} vs {expected:.6g}"
                                 f" outside +-{t:.3g}")

    def gamma_sum(self, total, count, what: str):
        """``total`` of ``count`` iid Exp(1) draws, against Gamma(count)."""
        from scipy import special  # not at import: set-up is timed
        lo = special.gammainc(count, total)
        hi = special.gammaincc(count, total)
        if not min(lo, hi) >= ALPHA / 2.0:
            self.problems.append(f"{what}: sum {total:.6g} of {count} unit "
                                 f"exponentials (tails {lo:.3g}, {hi:.3g})")


class Round:
    """Times and outcomes of one round of operations."""

    def __init__(self):
        self.op_times = []        # (category, seconds) of each operation
        self.attempted = 0
        self.failed = 0
        self.child_rss_kb = 0

    def op(self, category: str, label: str, call, check=None):
        """Time ``call()``, then run ``check(output, Checks)`` untimed.

        Returns the call's output, or None when the call raised.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # noqa: BLE001 - an operation boundary
            self._time(category, time.perf_counter() - t0)
            self._fail(label, f"raised {type(exc).__name__}: {exc}")
            return None
        self._time(category, time.perf_counter() - t0)
        if check is not None:
            chk = Checks()
            try:
                check(out, chk)
            except Exception as exc:  # noqa: BLE001 - report, keep running
                chk.problems.append(f"check raised {type(exc).__name__}: {exc}")
            if chk.problems:
                self._fail(label, "; ".join(chk.problems[:5]))
        return out

    def skip(self, category: str, label: str, why: str):
        """Count an operation that could not run because its input is
        missing (an earlier operation failed)."""
        self.attempted += 1
        self._time(category, 0.0)
        self._fail(label, why)

    def _time(self, category, seconds):
        self.op_times.append((category, seconds))

    def total(self, category: str) -> float:
        return sum(t for c, t in self.op_times if c == category)

    def _fail(self, label, why):
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)


def make_index(ms, family: str, p: dict):
    """A fresh marksurv index of the named family from a parameter dict."""
    if family == "harmonic":
        return ms.HarmonicIndex(nu=p["nu"], rho=p["rho"])
    if family == "beta":
        return ms.BetaSplitIndex(rho=p["rho"], beta=p["beta"])
    if family == "geometric":
        return ms.GeometricIndex(alpha=p["alpha"])
    if family == "gamma":
        return ms.GammaIndex(nu=p["nu"], rho=p["rho"])
    if family == "power":
        return ms.PowerIndex(alpha=p["alpha"])
    raise ValueError(f"unknown family {family!r}")
