"""The per-question world builder, kept as the reference for ``sim.generate_world``.

It draws the world's numbers in the same order (centers, shifts, the OOD and
bias permutations, then the noise) and builds each question's feature vector
in its own loop iteration.  ``generate_world`` must give the same questions,
in the same order, with the same feature bytes, domain tags, bias targets,
``eval_answers`` and ``clusters``, for every valid ``WorldConfig``.
"""

import numpy as np

from trajrl import sim
from trajrl.core import DOMAIN_ID, DOMAIN_OOD, WORLD_STREAM_TAG, ConfigError, Dataset, Question, rng_stream


def generate_world(config):
    rng = rng_stream(config.seed, WORLD_STREAM_TAG, 0)
    d, k = config.num_features, config.num_tokens
    m = config.n_clusters
    dim = d + m

    centers = rng.standard_normal((m, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    lo, hi = sim._CLUSTER_SCALE_RANGE
    scales = np.linspace(lo, hi, m) if m > 1 else np.array([(lo + hi) / 2.0])

    shifts = rng.standard_normal((m, d))
    shifts /= np.linalg.norm(shifts, axis=1, keepdims=True)
    ood_centers = centers + sim._OOD_SHIFT * shifts
    ood_centers /= np.linalg.norm(ood_centers, axis=1, keepdims=True)

    # WorldConfig keeps m <= k, so these golds are distinct tokens.
    golds = np.arange(m) * (k // m)
    bias_targets = (golds + 1) % k

    n_total = config.n_labeled + config.n_unlabeled
    n_ood = int(round(config.ood_fraction * config.n_unlabeled))
    n_bias = int(round(config.bias_fraction * config.n_unlabeled))
    unlabeled_ids = np.arange(config.n_labeled, n_total)
    ood_ids = set(unlabeled_ids[rng.permutation(config.n_unlabeled)[:n_ood]].tolist())
    bias_ids = set(unlabeled_ids[rng.permutation(config.n_unlabeled)[:n_bias]].tolist())
    # One draw for all questions gives the numbers of one draw per question, in order.
    with np.errstate(over="ignore"):  # an overflow is the ConfigError below
        noise = config.cluster_spread * rng.standard_normal((n_total, d))
    if not np.all(np.isfinite(noise)):
        raise ConfigError(f"cluster_spread={config.cluster_spread} overflows the world's features")

    labeled: list[Question] = []
    unlabeled: list[Question] = []
    eval_answers: dict[int, int] = {}
    clusters: dict[int, int] = {}
    for qid in range(n_total):
        c = qid % m
        is_ood = qid in ood_ids
        base = ood_centers[c] if is_ood else centers[c]
        # Labeled questions carry the large cluster norm that drives learning
        # speed; unlabeled questions sit at unit norm so their gradient
        # contributions stay gentle until the cluster signal is established.
        scale = scales[c] if qid < config.n_labeled else sim._UNLABELED_SCALE
        features = np.zeros(dim)
        features[:d] = scale * base + noise[qid]
        if qid in bias_ids:
            features[d + c] = sim._BIAS_MARKER
        gold = int(golds[c])
        eval_answers[qid] = gold
        clusters[qid] = c
        if qid < config.n_labeled:
            labeled.append(Question(qid, features, gold_answer=gold))
        else:
            unlabeled.append(
                Question(
                    qid,
                    features,
                    gold_answer=None,
                    domain_tag=DOMAIN_OOD if is_ood else DOMAIN_ID,
                    bias_target=int(bias_targets[c]) if qid in bias_ids else None,
                )
            )
    return Dataset(
        labeled=tuple(labeled),
        unlabeled=tuple(unlabeled),
        num_features=dim,
        num_tokens=k,
        response_length=config.response_length,
        eval_answers=eval_answers,
        clusters=clusters,
    )
