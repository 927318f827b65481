"""Benchmark for the trajrl package.

Run from the repository root::

    python3 perfbench/run.py --workload train_default --seed 0 --seconds 30 --trace 0

``--workload all`` runs the workloads one after another, each in its own
process, and prints every metric prefixed with its workload.

Workloads (see ``workloads.py``): ``train_default`` and ``replay_logs``.
One process, one thread; BLAS threads are pinned to 1 before numpy loads.

A run builds its inputs from ``--seed``, runs one untimed warm-up op, then
as many whole ops as fit in ``--seconds`` (one at least).  Every op is
checked: its output digests must equal the pinned ones in ``digests.json``
(for pinned seeds) or the warm-up op's, and the workload's own invariants
must hold.  ``pin.py`` rewrites ``digests.json``.

* ``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``wall_s``,
  ``qe_per_s`` and ``peak_rss_mb``.
* ``--trace 1`` alternates untraced ops with ops that have every lookup
  site in ``tracer.SITES`` wrapped (two of each at least), and prints the
  per-layer metrics.  Traced ops must give the untraced digests, and their
  exact counters must agree with each other and, for pinned seeds, with
  ``digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller report and
the recorded spans go to ``.perfbench_out/``.  Without ``src/trajrl`` next
to this directory the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter  # noqa: E402

# Set-up repetitions after each timed op, on top of the op's own set-up;
# ``setup_s`` is the median over all of them.
SETUP_REPS_PER_OP = 3
# Two traced ops at least, so that exact counters can be compared.
MIN_TRACED_OPS = 2


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "trajrl", "__init__.py")):
        print(f"perfbench: no trajrl package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import trajrl

    if os.path.dirname(os.path.abspath(trajrl.__file__)) != os.path.join(SRC, "trajrl"):
        print(f"perfbench: imported trajrl from {trajrl.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def run_context(seed: int) -> dict:
    import numpy as np

    loc = 0
    for path in sorted(glob.glob(os.path.join(SRC, "trajrl", "*.py"))):
        with open(path, "rb") as fh:
            loc += fh.read().count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
        "loc_src": loc,
    }


class Runner:
    """Runs and checks ops of one workload, keeping every op's record."""

    def __init__(self, workload, work_dir: str, pinned: dict | None) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.reference = pinned
        self.ops: list[dict] = []

    def run_op(self, clock, kind: str, recorder=None) -> dict:
        out_dir = os.path.join(self.work_dir, f"op{len(self.ops)}")
        os.makedirs(out_dir)
        record = {"kind": kind, "problems": []}
        try:
            with recorder.installed() if recorder is not None else nullcontext():
                op = self.workload.op(out_dir, clock)
            self.workload.check(op)
            record["problems"] += op.problems
            if self.reference is None:
                self.reference = op.digests
            elif op.digests != self.reference:
                bad = sorted(k for k in self.reference if op.digests.get(k) != self.reference[k])
                record["problems"].append(f"output digests differ: {bad}")
            record.update(
                wall_s=op.wall_s,
                setup_s=op.setup_s,
                question_epochs=op.question_epochs,
                phases_s=op.phases_s,
                digests=op.digests,
            )
        except Exception:
            record["problems"].append(traceback.format_exc())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        record["ok"] = not record["problems"]
        self.ops.append(record)
        return record


class Window:
    """Measurement window: as many whole rounds as fit in ``seconds``.

    A round is started only if one more round as long as the last one still
    ends inside the window, so a run lasts about ``seconds`` whatever the
    op length.
    """

    def __init__(self, seconds: float) -> None:
        self.end = perf_counter() + seconds
        self.started = None
        self.last = 0.0

    def another(self, required: bool) -> bool:
        now = perf_counter()
        if self.started is not None:
            self.last = now - self.started
        self.started = now
        return required or now + self.last <= self.end


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records if r["ok"])


def end_to_end(runner: Runner, clock, seconds: float) -> tuple[dict, dict]:
    runner.run_op(clock, "warmup")
    # The process has run exactly one op so far, so its high-water mark is
    # the peak RSS of a fresh process running one op.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops: list[dict] = []
    setups: list[float] = []
    window = Window(seconds)
    while window.another(len(ops) < 1):
        ops.append(runner.run_op(clock, "timed"))
        setups += [runner.workload.setup() for _ in range(SETUP_REPS_PER_OP)]
    good = [r for r in ops if r["ok"]]
    if not good:
        return {}, {}
    setups += [r["setup_s"] for r in good]
    qe_per_s = statistics.median(r["question_epochs"] / (r["wall_s"] - r["setup_s"]) for r in good)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": _median(ops, "wall_s"), "unit": "s"},
        "qe_per_s": {"value": qe_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    phases = {
        name: statistics.median(r["phases_s"][name] for r in good)
        for name in good[0]["phases_s"]
    }
    return metrics, {"wall_s_samples": [r["wall_s"] for r in good], "phases_s": phases}


def per_layer(
    runner: Runner, clock, seconds: float, recorder, pinned_counters: dict | None
) -> tuple[dict, dict, list[str]]:
    from tracer import LAYERS, exact_keys, op_metrics, per_layer_names

    runner.run_op(clock, "warmup")
    # Untraced and traced ops alternate, so that slow spells of a shared
    # machine hit both sides of ``trace.overhead_frac`` alike.
    untraced: list[dict] = []
    traced: list[dict] = []
    window = Window(seconds)
    while window.another(len(traced) < MIN_TRACED_OPS):
        untraced.append(runner.run_op(clock, "timed"))
        recorder.begin_op()
        traced.append(runner.run_op(clock, "traced", recorder))
    problems: list[str] = []
    if not all(r["ok"] for r in untraced + traced):
        return {}, {}, problems

    per_op = [op_metrics(agg) for agg in recorder.ops]
    for key in exact_keys():
        values = {m[key] for m in per_op}
        if pinned_counters is not None:
            values.add(pinned_counters[key])
        if len(values) != 1:
            where = "traced ops and the pinned run" if pinned_counters else "traced ops"
            problems.append(f"{key} differs between {where} of one seed: {sorted(values)}")
    units = {name: unit for name, unit, _ in per_layer_names()}
    exact = set(exact_keys())
    values = {}
    for name in units:
        if name in exact:
            values[name] = per_op[0][name]
        elif name in per_op[0]:
            values[name] = statistics.median(m[name] for m in per_op)
    epochs = recorder.durations_ms("harness.train_epoch")
    if epochs:
        q = statistics.quantiles(epochs, n=10, method="inclusive")
        values["harness.train_epoch.ms_p50"] = statistics.median(epochs)
        values["harness.train_epoch.ms_p90"] = q[8]
    else:
        values["harness.train_epoch.ms_p50"] = values["harness.train_epoch.ms_p90"] = 0.0
    values["trace.overhead_frac"] = _median(traced, "wall_s") / _median(untraced, "wall_s") - 1.0
    # Per-command wall times of replay ops, from the untraced ops; 0 elsewhere.
    for name in ("select_s", "diagnose_s", "select_max_s"):
        values[f"cli.main.{name}"] = statistics.median(r["phases_s"].get(name, 0.0) for r in untraced)
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"per-layer metrics not produced: {missing}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    layers_ms = {layer: sum(values[f"{layer}.{fn}.self_ms"] for fn in fns) for layer, fns in LAYERS.items()}
    return metrics, {"self_ms_by_layer": layers_ms}, problems


def run_all(names: list[str], args) -> int:
    """Every workload, each in a fresh process because peak RSS is per process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = ["--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv],
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}")
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from tracer import SetupClock, Tracer
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    pinned = pins["digests"].get(args.workload, {}).get(str(args.seed))
    pinned_counters = pins["counters"].get(args.workload, {}).get(str(args.seed))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root = os.path.join(ROOT, ".perfbench_out")
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    recorder = Tracer() if args.trace else None
    problems: list[str] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, os.path.join(work_dir, "input"))
        runner = Runner(workload, work_dir, pinned)
        clock = SetupClock()
        with clock.installed():
            if args.trace:
                metrics, detail, problems = per_layer(
                    runner, clock, args.seconds, recorder, pinned_counters
                )
            else:
                metrics, detail = end_to_end(runner, clock, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(not r["ok"] for r in runner.ops)
    attempted = len(runner.ops)
    correct = failed == 0 and not problems and bool(metrics)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "context": run_context(args.seed),
        "pinned_digests": pinned is not None,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "detail": detail,
        "problems": problems,
        "ops": runner.ops,
    }
    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if recorder is not None:
        recorder.save(os.path.join(out_root, f"{tag}-spans.npz"))

    print(f"context {json.dumps(report['context'])}")
    print(f"error_rate {report['error_rate']:.4g} ({failed}/{attempted} ops failed)")
    for name, value in detail.get("phases_s", {}).items():
        print(f"{name} {value:.6g} s")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for record in runner.ops:
        for problem in record["problems"]:
            print(f"op failed ({record['kind']}): {problem}", file=sys.stderr)
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
