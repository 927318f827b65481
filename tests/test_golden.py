"""Golden logs: byte-exact sha256 pins of whole training runs.

Any change to these hashes is a behaviour change of the training loop, not
a refactor, and must be called out as such.  The default seed-0 pins are
the same digests ``perfbench/digests.json`` holds for ``train_default``.
Two shorter default-size runs pin a rollout temperature below 1 and the KL
term at K = 512.  The small-world runs cover every paradigm, the KL term
against the frozen reference, every proxy reward kind, a group size that
is not 8, a rollout temperature below 1, standardized and length-normalized
advantages with max matching, and a selection that keeps only part of the
unlabeled split.  Their 36 questions are not a multiple of the training
loop's block size, so a partial last block is pinned too.
"""

import hashlib
import os

import pytest

from trajrl.core import TrainerConfig
from trajrl.sim import WorldConfig

SMALL = dict(seed=7, epochs=6, warmup_epochs=2)

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
    # Default-size world (K = 512) off the temperature-1 path, and with the KL
    # term's third forward pass; hashes taken before the forward and gradient
    # passes became stacked matmuls.
    "default_temp07_epochs10": (
        TrainerConfig(seed=0, epochs=10, rollout_temperature=0.7),
        None,
        {
            "passrates.jsonl": "cae91e7bd2659dcb2bbefed91b599297f85e37db22a9c33d3de42c5f5085b14a",
            "metrics.jsonl": "d5222753f931555545c727beadb763632da2375c8582bd32e6af90a3319b11a6",
        },
    ),
    "default_kl01_epochs10": (
        TrainerConfig(seed=0, epochs=10, kl_beta=0.1),
        None,
        {
            "passrates.jsonl": "83915e438bd9c923a07e1d166e3355b7a9e8f0163a4808be7e7f921946a30855",
            "metrics.jsonl": "f96a6d9f58fedaee67622845fbf3720cebda282cd641fd73b5e84eadddbd390a",
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
    # metrics.jsonl re-pinned (was 2caa3670...) when an unlabeled confidence became its
    # logged pass rate: epoch 2's mean_confidence moved in the 9th digit.
    "small_supervised_g6": (
        TrainerConfig(**SMALL, paradigm="supervised", group_size=6),
        SMALL_WORLD,
        {
            "passrates.jsonl": "d6cfd22e180f67a01c78e9788dbc3aeefcdeeeb2ddbb59dda3439256ebb99f80",
            "metrics.jsonl": "e9d67eae275006859d28efa639487154333827a79ed93b3bc71caa365f5dd2fd",
        },
    ),
    "small_unsupervised_temp05": (
        TrainerConfig(**SMALL, paradigm="unsupervised", rollout_temperature=0.5),
        SMALL_WORLD,
        {
            "passrates.jsonl": "9c2cfa693a2245f8ce7c3bd1c8479e9f48b65783f045cb33856650181b218d98",
            "metrics.jsonl": "307d01a98d0663a648f4e5762c170fc810da725a7c416a1fc74905ed1381a8dd",
        },
    ),
    "small_trapo_max_std_length_norm": (
        TrainerConfig(
            **SMALL,
            advantage_mode="std_normalized",
            length_normalization=True,
            matching_mode="max",
        ),
        SMALL_WORLD,
        {
            "passrates.jsonl": "0a1cd6355dfaa03da37cb1e3d7389a33b599e4e769b2e71e812eba97a354348e",
            "metrics.jsonl": "16a987e0e903312b4f04043310d59b43326c9db5533bc4a9d089b80d18403a3f",
        },
    ),
    "small_naive_semi_self_certainty": (
        TrainerConfig(**SMALL, paradigm="naive_semi", reward_kind="self_certainty"),
        SMALL_WORLD,
        {
            "passrates.jsonl": "b050fbc9f702efb5627932b1ac53ccc4255c9545427e1b9bcfeb621d5b3066d2",
            "metrics.jsonl": "def969f2ee0a0e5a14575a44f98e0ac92bf4417a728b108d4d8362b28aa699a0",
        },
    ),
    "small_trapo_sentence_entropy_partial_selection": (
        TrainerConfig(**SMALL, reward_kind="sentence_entropy", gamma=1.0, top_p=0.25),
        SMALL_WORLD,
        {
            "passrates.jsonl": "7beece52bde277dd86cde2f780bba4278f219025c02ab761f97603d32d19427e",
            "metrics.jsonl": "2d497557e4650298c573ca3350fd91883a9041e651822fb87c32d60ad94f7df4",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_logs_match_golden_hashes(name, golden_logs):
    out_dir = golden_logs(name)
    for filename, digest in GOLDEN[name][2].items():
        with open(os.path.join(out_dir, filename), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, filename
