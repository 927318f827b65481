"""Compare the four training paradigms on the same world, side by side.

Same dataset, same initial policy, same rollout randomness -- the only
difference is which questions each paradigm trains on:

  supervised    labeled questions only
  unsupervised  every unlabeled question, rewarded by its own majority vote
  naive_semi    labeled + all unlabeled, no filtering
  trapo         labeled + the unlabeled slice picked by trajectory matching

Usage: python demos/04_paradigm_comparison.py [--epochs N] [--seed S]
"""

import argparse

from trajrl import TrainerConfig, WorldConfig, run
from trajrl.core import PARADIGMS


def fmt(value, width=9):
    if value is None:
        return " " * (width - 1) + "-"
    return f"{value:>{width}.3f}"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    world = WorldConfig(
        n_labeled=12,
        n_unlabeled=24,
        num_features=8,
        num_tokens=64,
        response_length=3,
        n_clusters=4,
        bias_fraction=0.25,
        ood_fraction=0.25,
        seed=args.seed,
    )
    warmup = min(4, args.epochs - 1)

    results = {}
    for paradigm in PARADIGMS:
        # deliberately tight filter: keep the top 15% of trajectory matches,
        # and raise the score bar so nothing sneaks in past the slice.
        cfg = TrainerConfig(
            seed=args.seed,
            epochs=args.epochs,
            warmup_epochs=warmup,
            paradigm=paradigm,
            top_p=0.15,
            gamma=1.0,
        )
        results[paradigm] = run(cfg, world)

    print(f"{args.epochs} epochs on a {world.n_labeled}+{world.n_unlabeled}-question world, "
          f"seed {args.seed}, warmup {warmup}")
    print()
    print(f"{'epoch':>5} | " + " | ".join(f"{p:>12}" for p in PARADIGMS))
    print("-" * (8 + 15 * len(PARADIGMS)))
    for e in range(args.epochs):
        row = [results[p].metrics[e].eval_acc_id for p in PARADIGMS]
        print(f"{e + 1:>5} | " + " | ".join(fmt(v, 12) for v in row))
    print()
    print("(table: greedy accuracy on in-domain unlabeled questions, measured after each epoch)")
    print()

    print("final snapshot:")
    header = f"  {'paradigm':<12} {'labeled':>9} {'unlab-id':>9} {'unlab-ood':>9} {'selected':>9}"
    print(header)
    for p in PARADIGMS:
        m = results[p].metrics[-1]
        print(f"  {p:<12} {fmt(m.labeled_train_acc)} {fmt(m.eval_acc_id)} "
              f"{fmt(m.eval_acc_ood)} {m.n_selected:>9}")
    print()

    trapo = results["trapo"]
    picked = sorted(trapo.masks[args.epochs].selected) if trapo.masks else []
    print(f"trapo's final selection: {len(picked)} of {len(trapo.dataset.unlabeled)} "
          f"unlabeled questions {picked}")
    m = trapo.metrics[-1]
    print(f"  pseudo-label accuracy inside the slice:  {fmt(m.pseudo_acc_selected, 6)}")
    print(f"  pseudo-label accuracy outside the slice: {fmt(m.pseudo_acc_unselected, 6)}")
    # naive_semi never filters, so its training slice is every pseudo-label.
    truth = results["naive_semi"].dataset.eval_answers
    final = [r for r in results["naive_semi"].records
             if r.epoch == args.epochs and r.split == "unlabeled"]
    naive_acc = sum(r.pseudo_label == truth[r.qid] for r in final) / len(final)
    print(f"  naive_semi trains on all {len(final)} pseudo-labels at accuracy {naive_acc:.3f}")
    print()
    print("trapo trades coverage for label quality; whether that wins on this tiny")
    print("world depends on the seed -- try a few.")


if __name__ == "__main__":
    main()
