"""Regenerate ``digests.json`` for the pinned seeds.

For every workload and pinned seed it records the output digests of one
untraced op and the exact counters of one traced op.  Run from the
repository root after a change that is meant to alter the logs or the call
counts, and say so in CHANGES.md::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import os
import shutil

import run  # pins BLAS threads before numpy loads

PINNED_SEEDS = (0, 1)


def main() -> None:
    run._import_package()
    from tracer import SetupClock, Tracer, exact_keys, op_metrics
    from workloads import WORKLOADS

    pins: dict[str, dict] = {"digests": {}, "counters": {}}
    work_dir = os.path.join(run.ROOT, ".perfbench_work", f"pin-{os.getpid()}")
    try:
        for name, make in WORKLOADS.items():
            for seed in PINNED_SEEDS:
                seed_dir = os.path.join(work_dir, f"{name}-{seed}")
                runner = run.Runner(make(seed, os.path.join(seed_dir, "input")), seed_dir, None)
                recorder = Tracer()
                clock = SetupClock()
                with clock.installed():
                    runner.run_op(clock, "pin")
                    recorder.begin_op()
                    runner.run_op(clock, "pin-traced", recorder)
                failed = [r["problems"] for r in runner.ops if not r["ok"]]
                if failed:
                    raise SystemExit(f"{name} seed {seed} failed: {failed}")
                counters = op_metrics(recorder.ops[0])
                pins["digests"].setdefault(name, {})[str(seed)] = runner.reference
                pins["counters"].setdefault(name, {})[str(seed)] = {
                    key: counters[key] for key in exact_keys()
                }
                print(name, seed, "pinned")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
