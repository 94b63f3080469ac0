"""Per-layer spans recorded around marksurv's public calls, from outside.

``install`` replaces every binding of each traced function in every loaded
marksurv module (modules import functions by name, so patching only the
defining module would miss calls), wraps the rate methods of every index
class, and routes ``scipy.integrate.quad`` as called from ``marksurv.index``
through a counting proxy.  Spans are aggregated in memory (calls, total and
self time per name) and read out when the run ends.  A span's self time is
its duration minus the time of traced spans it caused.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function, span name) for plain functions.
FUNCTIONS = [
    ("marksurv.index", "build_table", "index.build_table"),
    ("marksurv.ranking", "expected_blocks", "ranking.expected_blocks"),
    ("marksurv.ranking", "sample_first_block_size",
     "ranking.sample_first_block_size"),
    ("marksurv.ranking", "sample_rankings", "ranking.sample_rankings"),
    ("marksurv.ranking", "block_growth_probe", "ranking.block_growth_probe"),
    ("marksurv.process", "simulate", "process.simulate"),
    ("marksurv.process", "simulate_seeded", "process.simulate_seeded"),
    ("marksurv.process", "sample_next", "process.sample_next"),
    ("marksurv.process", "log_density", "process.log_density"),
    ("marksurv.process", "predictive_survival", "process.predictive_survival"),
    ("marksurv.random_measure", "compare_constructions",
     "random_measure.compare_constructions"),
    ("marksurv.random_measure", "simulate_distinct_count",
     "random_measure.simulate_distinct_count"),
    ("marksurv.random_measure", "joint_survival",
     "random_measure.joint_survival"),
    ("marksurv.inference", "fit_mle", "inference.fit_mle"),
    ("marksurv.inference", "fit_moment", "inference.fit_moment"),
    ("marksurv.inference", "profile_loglik", "inference.profile_loglik"),
    ("marksurv.inference", "loglik", "inference.loglik"),
    ("marksurv.inference", "risk_trajectory", "inference.risk_trajectory"),
    ("marksurv.inference", "profile_interval", "inference.profile_interval"),
    ("marksurv.inference", "empirical_bayes_curve",
     "inference.empirical_bayes_curve"),
    ("marksurv.inference", "kaplan_meier", "inference.kaplan_meier"),
    ("marksurv.datasets", "load_dataset", "datasets.load_dataset"),
    ("marksurv.cli", "main", "cli.main"),
]

# Index methods: a call counts only as the outermost entry, since rate
# methods call one another (block_rate -> unit_block_rate, split_prob ->
# unit_block_rate + unit_total_rate, ...).
RATE_METHODS = ("unit_block_rate", "log_unit_block_rate", "block_rate",
                "split_prob")
TOTAL_METHODS = ("total_rate", "unit_total_rate")
RATE_SPAN, TOTAL_SPAN, QUAD_SPAN = "index.rate", "index.total_rate", \
    "index.quad"
FIRST_BLOCK_SPAN = "index.first_block_log_weights"


class Tracer:
    """Aggregated spans: name -> [calls, total seconds, self seconds]."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.rate_parents = defaultdict(int)
        self.events = 0
        self._stack = []          # [name, child seconds]
        self._index_depth = 0

    def _enter(self, name):
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _leave(self, t0):
        dt = time.perf_counter() - t0
        name, child = self._stack.pop()
        st = self.stats[name]
        st[0] += 1
        st[1] += dt
        st[2] += dt - child
        if self._stack:
            self._stack[-1][1] += dt

    def wrap(self, fn, name, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(t0)
            if post is not None:
                post(out)
            return out

        return traced

    def wrap_index(self, fn, name):
        """Outermost-only span for rate and total-rate methods."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._index_depth:
                return fn(*args, **kwargs)
            if name == RATE_SPAN:
                parent = tracer._stack[-1][0] if tracer._stack else None
                tracer.rate_parents[parent] += 1
            tracer._index_depth += 1
            t0 = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(t0)
                tracer._index_depth -= 1

        return traced

    def _count_events(self, traj):
        self.events += len(traj.events)

    def install(self):
        """Wrap everything; returns a function that undoes it."""
        import marksurv.cli  # noqa: F401  (the package skips cli)
        from marksurv import index as index_mod

        undo = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "marksurv"
                                         or name.startswith("marksurv."))]
        for mod_name, fn_name, span in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], fn_name)
            post = self._count_events if span == "process.simulate" else None
            new = self.wrap(orig, span, post)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)
                        undo.append((mod, key, orig))

        for cls in _index_classes(index_mod):
            for meth in RATE_METHODS + TOTAL_METHODS:
                if meth in vars(cls):
                    orig = vars(cls)[meth]
                    span = RATE_SPAN if meth in RATE_METHODS else TOTAL_SPAN
                    setattr(cls, meth, self.wrap_index(orig, span))
                    undo.append((cls, meth, orig))
            if "first_block_log_weights" in vars(cls):
                orig = vars(cls)["first_block_log_weights"]
                setattr(cls, "first_block_log_weights",
                        self.wrap(orig, FIRST_BLOCK_SPAN))
                undo.append((cls, "first_block_log_weights", orig))

        real = index_mod.integrate
        index_mod.integrate = _IntegrateProxy(real, self.wrap(real.quad,
                                                              QUAD_SPAN))
        undo.append((index_mod, "integrate", real))

        def restore():
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

        return restore

    # -- read-out ----------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name) -> float:
        return self.stats[name][2] if name in self.stats else 0.0


class _IntegrateProxy:
    """Stands in for ``scipy.integrate`` inside marksurv.index only."""

    def __init__(self, real, quad):
        self._real = real
        self.quad = quad

    def __getattr__(self, item):
        return getattr(self._real, item)


def _index_classes(index_mod):
    base = index_mod.CharacteristicIndex
    seen = [base]
    todo = [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, rounds: int, import_s: float) -> dict:
    """Per-layer figures per round of the workload (import_s is per process).

    Every ``*_s`` figure is self time.  The three ratios are per call of
    their base: quad calls per rate call, rate calls per block-size draw,
    trajectory builds per fit.
    """
    k = float(rounds)
    c, s = tr.calls, tr.self_s
    fits = c("inference.fit_mle") + c("inference.fit_moment")
    out = {
        "index.rate_calls": (c(RATE_SPAN) / k, "count"),
        "index.rate_s": (s(RATE_SPAN) / k, "s"),
        "index.total_rate_calls": (c(TOTAL_SPAN) / k, "count"),
        "index.total_rate_s": (s(TOTAL_SPAN) / k, "s"),
        "index.quad_calls": (c(QUAD_SPAN) / k, "count"),
        "index.quad_s": (s(QUAD_SPAN) / k, "s"),
        "index.quad_per_rate": (_ratio(c(QUAD_SPAN), c(RATE_SPAN)), "ratio"),
        "index.first_block_log_weights_calls": (c(FIRST_BLOCK_SPAN) / k,
                                                "count"),
        "index.first_block_log_weights_s": (s(FIRST_BLOCK_SPAN) / k, "s"),
        "index.build_table_s": (s("index.build_table") / k, "s"),
        "ranking.expected_blocks_s": (s("ranking.expected_blocks") / k, "s"),
        "ranking.sample_first_block_size_calls": (
            c("ranking.sample_first_block_size") / k, "count"),
        "ranking.sample_first_block_size_s": (
            s("ranking.sample_first_block_size") / k, "s"),
        "ranking.rates_per_block_draw": (_ratio(
            tr.rate_parents["ranking.sample_first_block_size"],
            c("ranking.sample_first_block_size")), "ratio"),
        "ranking.sample_rankings_s": (s("ranking.sample_rankings") / k, "s"),
        "ranking.block_growth_probe_s": (s("ranking.block_growth_probe") / k,
                                         "s"),
        "process.simulate_calls": (c("process.simulate") / k, "count"),
        "process.simulate_s": (s("process.simulate") / k, "s"),
        "process.events": (tr.events / k, "count"),
        "process.simulate_seeded_s": (s("process.simulate_seeded") / k, "s"),
        "process.sample_next_calls": (c("process.sample_next") / k, "count"),
        "process.sample_next_s": (s("process.sample_next") / k, "s"),
        "process.log_density_calls": (c("process.log_density") / k, "count"),
        "process.log_density_s": (s("process.log_density") / k, "s"),
        "process.predictive_survival_s": (
            s("process.predictive_survival") / k, "s"),
        "random_measure.compare_constructions_s": (
            s("random_measure.compare_constructions") / k, "s"),
        "random_measure.simulate_distinct_count_s": (
            s("random_measure.simulate_distinct_count") / k, "s"),
        "random_measure.joint_survival_calls": (
            c("random_measure.joint_survival") / k, "count"),
        "inference.fit_mle_s": (s("inference.fit_mle") / k, "s"),
        "inference.fit_moment_s": (s("inference.fit_moment") / k, "s"),
        "inference.profile_loglik_calls": (
            c("inference.profile_loglik") / k, "count"),
        "inference.loglik_calls": (c("inference.loglik") / k, "count"),
        "inference.risk_trajectory_calls": (
            c("inference.risk_trajectory") / k, "count"),
        "inference.risk_trajectory_s": (s("inference.risk_trajectory") / k,
                                        "s"),
        "inference.trajectory_builds_per_fit": (
            _ratio(c("inference.risk_trajectory"), fits), "ratio"),
        "inference.profile_interval_s": (s("inference.profile_interval") / k,
                                         "s"),
        "inference.empirical_bayes_curve_s": (
            s("inference.empirical_bayes_curve") / k, "s"),
        "inference.kaplan_meier_s": (s("inference.kaplan_meier") / k, "s"),
        "datasets.load_dataset_s": (s("datasets.load_dataset") / k, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.main_self_s": (s("cli.main") / k, "s"),
    }
    return out
