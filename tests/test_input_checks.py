"""Every library input check answers a bad argument with its own error and a
one-line message, never a bare Python error or a silent wrong value."""

import math

import numpy as np
import pytest

from marksurv import datasets, inference, random_measure, ranking
from marksurv.index import (CharacteristicIndex, DislocationMeasure,
                            GammaIndex, HarmonicIndex, LevyMeasure,
                            MeasureIndex, ParameterError, build_table,
                            consistency_defect, index_from_spec,
                            normalization_defect)
from marksurv.inference import DataError, Dataset, FitResult
from marksurv.process import (CensoringPlan, Event, RiskSetTrajectory,
                              simulate, simulate_batch, simulate_seeded,
                              trajectory_from_csv)
from marksurv.random_measure import MeasureRealization

H = HarmonicIndex(1.0, 1.0)
CSV_HEAD = "time,n_failures,n_censored\n"
CENSORED = Dataset(times=(1.0, 2.0), failed=(False, False))
ONE_DEATH = RiskSetTrajectory(2, (Event(1.0, 1),))


def _table():
    return build_table(H, 4)


def _fit(profile):
    return FitResult("harmonic", "mle", 1.0, 1.0, -1.0, 0.1, 0.1, 0.1, 0.1,
                     profile=profile)


def _realization(t_max=2.0, drift=0.0, locations=(0.5,), masses=(1.0,)):
    return MeasureRealization(t_max, drift, np.array(locations, float),
                              np.array(masses, float), 0.1)


CHECKS = {
    # index
    "abstract total rate": (lambda: CharacteristicIndex().total_rate(1),
                            NotImplementedError, None),
    "negative risk set": (lambda: H.total_rate(-1), ParameterError,
                          "risk-set size"),
    "table of no rows": (lambda: build_table(H, 0), ParameterError, "max_n"),
    "defect of a row outside the table": (
        lambda: normalization_defect(_table(), 5), ParameterError,
        "outside table range"),
    "deletion identity with d > n": (
        lambda: consistency_defect(_table(), 2, 3), ParameterError,
        "1 <= d <= n"),
    "table entry outside the table": (lambda: _table().prob(3, 2),
                                      ParameterError, "table covers"),
    "table rows outside the table": (lambda: _table()._log_row_reader(5),
                                     ParameterError, "table covers"),
    "empty dislocation measure": (lambda: DislocationMeasure(),
                                  ParameterError, "density or at least"),
    "dislocation atom outside [0, 1)": (
        lambda: DislocationMeasure(atoms=((1.0, 1.0),)), ParameterError,
        "outside"),
    "dislocation atom of no mass": (
        lambda: DislocationMeasure(atoms=((0.5, 0.0),)), ParameterError,
        "mass"),
    "dislocation atom of infinite mass": (
        lambda: DislocationMeasure(atoms=((0.5, math.inf),)), ParameterError,
        "integrability"),
    "negative Levy drift": (lambda: LevyMeasure(drift=-1.0), ParameterError,
                            "drift"),
    "Levy jump at 0": (lambda: LevyMeasure(atoms=((0.0, 1.0),)),
                       ParameterError, "location"),
    "Levy jump of no mass": (lambda: LevyMeasure(atoms=((1.0, 0.0),)),
                             ParameterError, "mass"),
    "Levy jump of infinite mass": (
        lambda: LevyMeasure(atoms=((1.0, math.inf),)), ParameterError,
        "integrability"),
    "Levy exponent at negative t": (
        lambda: LevyMeasure(drift=1.0).exponent(-1.0), ParameterError,
        "t >= 0"),
    "measure index without a measure": (lambda: MeasureIndex(),
                                        ParameterError, "dislocation"),
    "parameter of another family": (
        lambda: index_from_spec("gamma", alpha=0.5), ParameterError,
        "gamma takes"),
    # process
    "negative event counts": (lambda: Event(1.0, -1, 2), ParameterError,
                              "non-negative"),
    "censored ids of the wrong length": (
        lambda: Event(1.0, 0, 1, censored=(1, 2)), ParameterError,
        "censored ids"),
    "negative initial risk set": (lambda: RiskSetTrajectory(-1, ()),
                                  ParameterError, "initial"),
    "batch of no reps": (
        lambda: simulate_batch(3, H, 0, np.random.default_rng(1)),
        ParameterError, "reps"),
    "batch without a generator": (lambda: simulate_batch(3, H, 2, None),
                                  ParameterError, "generator"),
    "simulate without a generator": (lambda: simulate(3, H, rng=None),
                                     ParameterError, "generator"),
    "censoring plan of the wrong length": (
        lambda: simulate(3, H, CensoringPlan((1.0,)),
                         rng=np.random.default_rng(1)),
        ParameterError, "plan length"),
    "negative number of new lifetimes": (
        lambda: simulate_seeded(ONE_DEATH, -1, H, np.random.default_rng(1)),
        ParameterError, "m_new"),
    "CSV without its header": (lambda: trajectory_from_csv("1.0,1,0"),
                               ParameterError, "header"),
    "CSV count that is not an integer": (
        lambda: trajectory_from_csv(CSV_HEAD + "1.0,x,0"), ParameterError,
        "not time,n_failures,n_censored"),
    "CSV row of two fields": (lambda: trajectory_from_csv(CSV_HEAD + "1.0,1"),
                              ParameterError,
                              "not time,n_failures,n_censored"),
    # random_measure
    "negative realization drift": (lambda: _realization(drift=-1.0),
                                   ParameterError, "drift"),
    "realization over a NaN horizon": (lambda: _realization(t_max=math.nan),
                                       ParameterError, "t_max"),
    "locations and masses misaligned": (
        lambda: _realization(masses=(1.0, 2.0)), ParameterError, "align"),
    "atom beyond the horizon": (lambda: _realization(locations=(3.0,)),
                                ParameterError, "t_max"),
    "atoms at one location": (
        lambda: _realization(locations=(0.5, 0.5), masses=(1.0, 1.0)),
        ParameterError, "distinct"),
    "atom below the truncation": (lambda: _realization(masses=(0.01,)),
                                  ParameterError, "truncation"),
    "negative number of lifetimes": (
        lambda: random_measure.sample_survival_times(
            -1, _realization(), np.random.default_rng(1)),
        ParameterError, "n must be"),
    "NaN joint survival time": (
        lambda: random_measure.joint_survival([math.nan], H), ParameterError,
        "finite"),
    "negative joint survival time": (
        lambda: random_measure.joint_survival([-1.0], H), ParameterError,
        ">= 0"),
    "breaks that decrease": (
        lambda: random_measure.gamma_interval_totals(
            1.0, 1.0, [0.0, 2.0, 1.0], 0.01, 5, np.random.default_rng(1)),
        ParameterError, "increasing"),
    "cross-check of no individuals": (
        lambda: random_measure.compare_constructions(
            1.0, 1.0, 0, [0.5], 10, 0.01, np.random.default_rng(1)),
        ParameterError, "n must be"),
    "cross-check at a grid value of 0": (
        lambda: random_measure.compare_constructions(
            1.0, 1.0, 2, [0.0], 10, 0.01, np.random.default_rng(1)),
        ParameterError, "positive"),
    # ranking
    "Stirling number of a negative argument": (
        lambda: ranking.stirling2(-1, 0), ParameterError, "non-negative"),
    "Bell number of a negative n": (lambda: ranking.bell(-1), ParameterError,
                                    "non-negative"),
    "ordered Bell number of a negative n": (
        lambda: ranking.ordered_bell(-1), ParameterError, "non-negative"),
    "first-block law of no individuals": (
        lambda: ranking.first_block_distribution(0, H), ParameterError,
        "n must be"),
    "rankings of no individuals": (
        lambda: ranking.sample_rankings(0, H, np.random.default_rng(1), 2),
        ParameterError, "n must be"),
    "first block of no individuals": (
        lambda: ranking.sample_first_block_size(0, H,
                                                np.random.default_rng(1)),
        ParameterError, "m must be"),
    "block probe of no reps": (
        lambda: ranking.block_growth_probe(GammaIndex(), [4], 0,
                                           np.random.default_rng(1)),
        ParameterError, "reps"),
    # inference
    "family that is not fitted": (
        lambda: inference.family_index("power", 1.0), ParameterError,
        "unknown family"),
    "trajectory of an empty dataset": (
        lambda: inference.risk_trajectory(Dataset(times=(), failed=())),
        ParameterError, "empty"),
    "scale without failures": (
        lambda: inference.mle_nu_given_rho(CENSORED, "harmonic", 1.0),
        ParameterError, "at least one failure"),
    "profile without failures": (
        lambda: inference.profile_loglik(CENSORED, "harmonic", 1.0),
        ParameterError, "at least one failure"),
    "moment fit without failures": (
        lambda: inference.fit_moment(CENSORED, "harmonic"), ParameterError,
        "at least one failure"),
    "exponential fit without failures": (
        lambda: inference.fit_exponential(CENSORED), ParameterError,
        "at least one failure"),
    "interval without a profile": (
        lambda: inference.profile_interval(_fit(())), ParameterError,
        "no usable profile"),
    "interval of a NaN profile": (
        lambda: inference.profile_interval(
            _fit(((0.5, math.nan), (1.0, math.nan), (2.0, math.nan)))),
        ParameterError, "never reaches"),
    # datasets
    "empty dataset text": (lambda: datasets.parse_dataset_text("  \n"),
                           DataError, "empty"),
    "dataset CSV of no rows": (
        lambda: datasets.parse_dataset_text("time,status\n"), DataError,
        "empty"),
    "dataset CSV row of one field": (
        lambda: datasets.parse_dataset_text("time,status\n1.0"), DataError,
        "bad CSV row"),
    "dataset token that is not a time": (
        lambda: datasets.parse_dataset_text("1, 2, x*"), DataError,
        "bad time token"),
    "unknown builtin dataset": (
        lambda: datasets.load_dataset("builtin:nope"), DataError,
        "unknown builtin"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_bad_library_input_raises_its_own_error(name):
    call, error, match = CHECKS[name]
    with pytest.raises(error, match=match) as info:
        call()
    assert "\n" not in str(info.value)
