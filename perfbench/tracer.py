"""Outside-in timing wrappers for the trajrl package.

Nothing inside ``src/trajrl`` is edited.  Instead, the benchmark replaces
names in the module namespaces where the package looks them up (for example
``harness.rollout_group`` or ``trajectory.tcs``) with wrappers that record a
span per call, and puts the originals back afterwards.

Two instruments live here:

* :class:`SetupClock` times only the few set-up calls (world generation,
  policy init, log reads).  It is cheap enough to stay on in untraced runs.
* :class:`Tracer` wraps every site in :data:`SITES` and keeps one span per
  call in memory: name, start, end, parent span and op id.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from trajrl import cli, grpo, harness, logio, rewards, sim, trajectory

# The layers are the package's modules, in the order reports list them, with
# the functions measured for each.  A function is reported under the layer
# named here even when the lookup site is another module's namespace.
LAYERS = {
    "core": ("rng_stream", "RolloutGroup"),
    "sim": ("generate_world", "init_policy", "rollout_group", "greedy_answer", "step_probs"),
    "grpo": ("step_probs", "grpo_loss_and_grad"),
    "rewards": ("hybrid_reward", "majority_vote"),
    "trajectory": (
        "pass_rate",
        "TrajectoryStore.record",
        "tcs",
        "tcs_max",
        "reliable_average",
        "select",
        "update_db",
    ),
    "diagnostics": ("tc_risk",),
    "harness": ("run", "train_epoch", "greedy_accuracy", "offline_select"),
    "logio": ("write_passrates", "write_metrics", "read_passrates", "store_from_passrates"),
    "cli": ("main",),
}

# (namespace the call is looked up in, attribute, reported name).
# ``step_probs`` is split by caller: rollout and eval forward passes look it
# up in ``sim``, update-side passes in ``grpo``.
SITES = (
    (harness, "rng_stream", "core.rng_stream"),
    (sim, "rng_stream", "core.rng_stream"),
    (sim, "RolloutGroup", "core.RolloutGroup"),
    (sim, "generate_world", "sim.generate_world"),
    (harness, "generate_world", "sim.generate_world"),
    (sim, "init_policy", "sim.init_policy"),
    (harness, "init_policy", "sim.init_policy"),
    (sim, "rollout_group", "sim.rollout_group"),
    (harness, "rollout_group", "sim.rollout_group"),
    (harness, "greedy_answer", "sim.greedy_answer"),
    (sim, "step_probs", "sim.step_probs"),
    (grpo, "step_probs", "grpo.step_probs"),
    (harness, "grpo_loss_and_grad", "grpo.grpo_loss_and_grad"),
    (harness, "hybrid_reward", "rewards.hybrid_reward"),
    (harness, "majority_vote", "rewards.majority_vote"),
    (sim, "majority_vote", "rewards.majority_vote"),
    (rewards, "majority_vote", "rewards.majority_vote"),
    (harness, "pass_rate", "trajectory.pass_rate"),
    (trajectory.TrajectoryStore, "record", "trajectory.TrajectoryStore.record"),
    (harness, "tcs", "trajectory.tcs"),
    (trajectory, "tcs", "trajectory.tcs"),
    (harness, "tcs_max", "trajectory.tcs_max"),
    (harness, "reliable_average", "trajectory.reliable_average"),
    (harness, "select", "trajectory.select"),
    (harness, "update_db", "trajectory.update_db"),
    (harness, "tc_risk", "diagnostics.tc_risk"),
    (cli, "tc_risk", "diagnostics.tc_risk"),
    (harness, "run", "harness.run"),
    (harness, "train_epoch", "harness.train_epoch"),
    (harness, "greedy_accuracy", "harness.greedy_accuracy"),
    (cli, "offline_select", "harness.offline_select"),
    (harness, "write_passrates", "logio.write_passrates"),
    (logio, "write_passrates", "logio.write_passrates"),
    (harness, "write_metrics", "logio.write_metrics"),
    (logio, "write_metrics", "logio.write_metrics"),
    (cli, "write_metrics", "logio.write_metrics"),
    (cli, "read_passrates", "logio.read_passrates"),
    (logio, "store_from_passrates", "logio.store_from_passrates"),
    (cli, "main", "cli.main"),
)

# Counters that must repeat exactly between two traced ops of one seed.
EXACT_EXTRAS = (
    "core.RolloutGroup.dist_bytes",
    "logio.write_passrates.bytes",
    "logio.read_passrates.records",
    "trajectory.select.kept_frac",
    "grpo.useful_group_frac",
)

SETUP_SITES = (
    (sim, "generate_world"),
    (sim, "init_policy"),
    (harness, "generate_world"),
    (harness, "init_policy"),
    (cli, "read_passrates"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            out += [
                (f"{layer}.{fn}.calls", "count", "lower"),
                (f"{layer}.{fn}.ms", "ms", "lower"),
                (f"{layer}.{fn}.self_ms", "ms", "lower"),
            ]
        out.append((f"{layer}.errors", "count", "lower"))
    out += [
        ("harness.train_epoch.ms_p50", "ms", "lower"),
        ("harness.train_epoch.ms_p90", "ms", "lower"),
        ("core.RolloutGroup.dist_bytes", "bytes", "lower"),
        ("logio.write_passrates.bytes", "bytes", "lower"),
        ("logio.read_passrates.records", "count", "higher"),
        ("trajectory.select.kept_frac", "ratio", "higher"),
        ("grpo.useful_group_frac", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("cli.main.select_s", "s", "lower"),
        ("cli.main.diagnose_s", "s", "lower"),
        ("cli.main.select_max_s", "s", "lower"),
    ]
    return out


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SetupClock:
    """Sums the time spent inside set-up calls while installed."""

    def __init__(self) -> None:
        self.seconds = 0.0

    @contextmanager
    def installed(self):
        patches = _Patches()
        for owner, attr in SETUP_SITES:
            patches.set(owner, attr, self._wrap(getattr(owner, attr)))
        try:
            yield self
        finally:
            patches.undo()

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - t0

        return timed


class Tracer:
    """In-memory span recorder with per-op aggregates.

    Spans are stored column-wise (``array``) so that a replay op with close
    to a million ``tcs`` calls stays a few tens of MB.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.op_id = -1
        self.ops: list[dict] = []

    # -- recording -----------------------------------------------------
    def begin_op(self) -> None:
        self.op_id += 1
        self.ops.append({"calls": {}, "ms": {}, "self_ms": {}, "errors": {}, "extra": {}})

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        layer = name.split(".", 1)[0]
        on_result = _EXTRAS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_op.append(self.op_id)
            self._stack.append(idx)
            self._child.append(0.0)
            self.span_end.append(0.0)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, name, layer, failed=True)
                raise
            self._close(idx, name, layer, failed=False)
            if on_result is not None:
                on_result(self.ops[-1]["extra"], args, result)
            return result

        return traced

    def _close(self, idx: int, name: str, layer: str, failed: bool) -> None:
        end = perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        child = self._child.pop()
        dur = end - self.span_start[idx]
        if self._child:
            self._child[-1] += dur
        agg = self.ops[-1]
        agg["calls"][name] = agg["calls"].get(name, 0) + 1
        agg["ms"][name] = agg["ms"].get(name, 0.0) + dur * 1e3
        agg["self_ms"][name] = agg["self_ms"].get(name, 0.0) + (dur - child) * 1e3
        if failed:
            agg["errors"][layer] = agg["errors"].get(layer, 0) + 1

    @contextmanager
    def installed(self):
        patches = _Patches()
        for owner, attr, name in SITES:
            patches.set(owner, attr, self.wrap(getattr(owner, attr), name))
        try:
            yield self
        finally:
            patches.undo()

    # -- reporting -----------------------------------------------------
    def durations_ms(self, name: str) -> list[float]:
        nid = self._name_id.get(name)
        if nid is None:
            return []
        hit = np.frombuffer(self.span_name, dtype=np.int32) == nid
        start = np.frombuffer(self.span_start, dtype=np.float64)[hit]
        end = np.frombuffer(self.span_end, dtype=np.float64)[hit]
        return ((end - start) * 1e3).tolist()

    def save(self, path: str) -> None:
        """Write every recorded span as columns of an ``.npz`` file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _add(extra: dict, key: str, amount) -> None:
    extra[key] = extra.get(key, 0) + amount


def _rollout_group(extra, args, group) -> None:
    g, length = group.responses.shape
    _add(extra, "core.RolloutGroup.dist_bytes", g * length * group.num_tokens * 8)


def _write_passrates(extra, args, result) -> None:
    _add(extra, "logio.write_passrates.bytes", os.path.getsize(args[0]))


def _read_passrates(extra, args, records) -> None:
    _add(extra, "logio.read_passrates.records", len(records))


def _select(extra, args, mask) -> None:
    _add(extra, "select.kept", len(mask.selected))
    _add(extra, "select.scored", len(mask.tcs_scores))


def _grpo_loss_and_grad(extra, args, result) -> None:
    rewards_, config = args[2], args[5]
    adv = grpo.group_advantages(rewards_, config.advantage_mode).values
    _add(extra, "grpo.groups", 1)
    _add(extra, "grpo.useful_groups", int(np.any(adv != 0.0)))


_EXTRAS = {
    "core.RolloutGroup": _rollout_group,
    "logio.write_passrates": _write_passrates,
    "logio.read_passrates": _read_passrates,
    "trajectory.select": _select,
    "grpo.grpo_loss_and_grad": _grpo_loss_and_grad,
}


def op_metrics(agg: dict) -> dict[str, float]:
    """Flatten one op's aggregates into per-layer metric values."""
    out: dict[str, float] = {}
    for layer, functions in LAYERS.items():
        for fn in functions:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = agg["calls"].get(name, 0)
            out[f"{name}.ms"] = agg["ms"].get(name, 0.0)
            out[f"{name}.self_ms"] = agg["self_ms"].get(name, 0.0)
        out[f"{layer}.errors"] = agg["errors"].get(layer, 0)
    extra = agg["extra"]
    for key in ("core.RolloutGroup.dist_bytes", "logio.write_passrates.bytes", "logio.read_passrates.records"):
        out[key] = extra.get(key, 0)
    out["trajectory.select.kept_frac"] = _ratio(extra, "select.kept", "select.scored")
    out["grpo.useful_group_frac"] = _ratio(extra, "grpo.useful_groups", "grpo.groups")
    return out


def _ratio(extra: dict, part: str, whole: str) -> float:
    return extra[part] / extra[whole] if extra.get(whole) else 0.0


def exact_keys() -> list[str]:
    """Per-op values that must repeat exactly for one seed."""
    keys = [f"{layer}.{fn}.calls" for layer, fns in LAYERS.items() for fn in fns]
    return keys + [f"{layer}.errors" for layer in LAYERS] + list(EXACT_EXTRAS)
