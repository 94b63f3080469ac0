import math

import inputs


def test_records_are_seeded_and_shaped():
    a = inputs.censored_tied_records(inputs.rng_for(3, inputs.STREAM_DATA),
                                     500, 300, 40)
    b = inputs.censored_tied_records(inputs.rng_for(3, inputs.STREAM_DATA),
                                     500, 300, 40)
    c = inputs.censored_tied_records(inputs.rng_for(4, inputs.STREAM_DATA),
                                     500, 300, 40)
    assert a == b and a != c
    times, status = a
    assert len(times) == 500 and sum(status) == 300
    fail_times = {t for t, s in zip(times, status) if s}
    assert len(fail_times) == 40
    assert all(t > 0 and (t / inputs.GRID_STEP).is_integer() for t in times)
    text = inputs.records_csv(times, status)
    assert text.splitlines()[0] == "time,status"
    assert [float(ln.split(",")[0]) for ln in text.splitlines()[1:]] == times


def test_censoring_plan_count_is_fixed():
    for seed in range(5):
        plan = inputs.censoring_plan(inputs.rng_for(seed, 2), 200, 0.3, 1.0)
        assert sum(1 for t in plan if math.isfinite(t)) == 60
        assert all(t > 0 for t in plan)


def test_seed_rows_make_a_complete_trajectory():
    rows = inputs.seed_rows(inputs.rng_for(1, 3), 20, 8)
    assert sum(d + c for _, d, c in rows) == 20
    assert sum(1 for _, d, _ in rows if d) == 8
    times = [t for t, _, _ in rows]
    assert times == sorted(set(times)) and times[0] > 0


def test_param_offset_is_seeded():
    assert inputs.param_offset(7) == inputs.param_offset(7)
    assert 0 <= inputs.param_offset(8) < 10_000
