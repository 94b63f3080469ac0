import numpy as np

import marksurv as ms
import marksurv.cli
import marksurv.process
from tracing import Tracer, per_layer_metrics


def test_every_binding_is_replaced_and_restored():
    orig = marksurv.process.simulate
    tracer = Tracer()
    restore = tracer.install()
    try:
        assert ms.simulate is marksurv.process.simulate
        assert marksurv.cli.simulate is marksurv.process.simulate
        assert ms.simulate is not orig
        traj = ms.simulate(30, ms.GammaIndex(rho=2.0),
                           rng=np.random.default_rng(1))
    finally:
        restore()
    assert marksurv.process.simulate is orig and marksurv.cli.simulate is orig
    assert tracer.calls("process.simulate") == 1
    assert tracer.events == len(traj.events)
    draws = tracer.calls("ranking.sample_first_block_size")
    assert draws == sum(1 for e in traj.events if e.n_failures)
    assert tracer.rate_parents["ranking.sample_first_block_size"] >= draws
    assert tracer.calls("index.quad") >= 1
    # Self times of all spans add up to the one outermost span.
    self_total = sum(v[2] for v in tracer.stats.values())
    assert abs(self_total - tracer.stats["process.simulate"][1]) < 1e-9
    layer = per_layer_metrics(tracer, 1, 0.5)
    assert layer["process.events"][0] == len(traj.events)
    assert layer["cli.import_s"][0] == 0.5


def test_rate_calls_count_outermost_entries_only():
    tracer = Tracer()
    restore = tracer.install()
    try:
        ms.GammaIndex().split_prob(40, 12)   # -> unit_block_rate, total
        ms.HarmonicIndex().block_rate(3, 2)  # -> unit_block_rate -> log
    finally:
        restore()
    assert tracer.calls("index.rate") == 2
    assert tracer.calls("index.total_rate") == 0
