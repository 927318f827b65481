"""Golden logs: byte-exact sha256 pins of whole training runs.

Any change to these hashes is a behaviour change of the training loop, not
a refactor, and must be called out as such.  The default seed-0 pins are
the same digests ``perfbench/digests.json`` holds for ``train_default``;
the small world covers the naive semi-supervised paradigm, the KL term
against the frozen reference and the token-entropy proxy reward.
"""

import hashlib
import os

import pytest

from trajrl.core import TrainerConfig
from trajrl.harness import run
from trajrl.sim import WorldConfig

SMALL_WORLD = WorldConfig(
    n_labeled=12,
    n_unlabeled=24,
    num_features=8,
    num_tokens=16,
    response_length=3,
    n_clusters=4,
    bias_fraction=0.25,
    ood_fraction=0.25,
    seed=7,
)

GOLDEN = {
    "default_seed0": (
        TrainerConfig(seed=0),
        None,
        {
            "passrates.jsonl": "2436886cbc6e8caad7366465cd234ed8d0535ae6db70e1df39d9ef22bfc6de1d",
            "metrics.jsonl": "ca52e9bb5051fd2c1197e9841071e1c29ffa6a3a0ce23199b1dc9c610a0b951e",
        },
    ),
    "small_naive_semi_kl_token_entropy": (
        TrainerConfig(
            seed=7,
            epochs=6,
            warmup_epochs=2,
            paradigm="naive_semi",
            kl_beta=0.1,
            reward_kind="token_entropy",
        ),
        SMALL_WORLD,
        {
            "passrates.jsonl": "279bfed24423311df64aabfb9e0f1bdab48ed283b130844257afbd9b308ed678",
            "metrics.jsonl": "28d2e3dd02ee512dbc5efa6a7e8bc130add59d3c931685fe6a7f589e870c4c2a",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_logs_match_golden_hashes(name, tmp_path):
    trainer, world, expected = GOLDEN[name]
    run(trainer, world, out_dir=str(tmp_path))
    for filename, digest in expected.items():
        with open(os.path.join(tmp_path, filename), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, filename
