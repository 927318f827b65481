"""No inert knob: every trainer and world setting changes a small run.

A setting that cannot change any logged byte is dead weight in the config
space (a clip range is one, when every update is on-policy).  For each field
of ``TrainerConfig`` and of ``WorldConfig`` one alternative value must change
the pass-rate records or the metrics of a short run on the golden small
world.  The base run keeps only part of the unlabeled split each epoch, so
``top_p`` and ``db_policy`` act too.  A new field fails here until it is
given an alternative that shows it acts.
"""

import dataclasses

import pytest
from test_golden import SMALL_WORLD

from trajrl.core import TrainerConfig
from trajrl.harness import run
from trajrl.logio import dumps_record
from trajrl.sim import WorldConfig

BASE = TrainerConfig(seed=7, epochs=6, warmup_epochs=2, gamma=1.0, top_p=0.25)

TRAINER_ALTERNATIVES = {
    "seed": 8,
    "epochs": 7,
    "warmup_epochs": 3,
    "group_size": 6,
    "top_p": 0.5,
    "gamma": 0.5,
    "kl_beta": 0.1,
    "entropy_coef": 0.0,
    "learning_rate": 0.1,
    "rollout_temperature": 0.7,
    "advantage_mode": "std_normalized",
    "matching_mode": "max",
    "reward_kind": "token_entropy",
    "paradigm": "naive_semi",
    "db_policy": "additive",
    "length_normalization": True,
}

WORLD_ALTERNATIVES = {
    "n_labeled": 16,
    "n_unlabeled": 20,
    "num_features": 6,
    "num_tokens": 12,
    "response_length": 2,
    "n_clusters": 3,
    "cluster_spread": 0.5,
    "ood_fraction": 0.5,
    "bias_fraction": 0.5,
    "bias_strength": 8.0,
    "seed": 8,
}


def logged(result):
    """The run's records and metrics as the logs render them."""
    return (
        [dumps_record(dataclasses.asdict(r)) for r in result.records],
        [dumps_record(dataclasses.asdict(m)) for m in result.metrics],
    )


@pytest.fixture(scope="module")
def base_logs():
    return logged(run(BASE, SMALL_WORLD))


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TrainerConfig)])
def test_every_trainer_setting_changes_a_run(name, base_logs):
    value = TRAINER_ALTERNATIVES[name]
    assert value != getattr(BASE, name)
    assert logged(run(dataclasses.replace(BASE, **{name: value}), SMALL_WORLD)) != base_logs


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(WorldConfig)])
def test_every_world_setting_changes_a_run(name, base_logs):
    value = WORLD_ALTERNATIVES[name]
    assert value != getattr(SMALL_WORLD, name)
    assert logged(run(BASE, dataclasses.replace(SMALL_WORLD, **{name: value}))) != base_logs
