"""Every name the benchmark tracer wraps, and every exported name, resolves.

``perfbench/tracer.py`` replaces functions by name in the module namespaces
where the package looks them up.  A refactor that drops one of those names
would only surface as a crash of a traced benchmark run; these checks turn
it into a test failure.  The tracer is imported, never modified.  A module
imports no name it leaves unused, unless it exports it or the tracer wraps it
there, and reads every private name it defines.  No function takes a parameter
it never reads.  Only the evaluator reads the hidden answers, and no label-free
code (the learning step and selection) can reach it.  A config refuses a single
field's value only through ``core.refuse_unless``.  What a paradigm trains is read
from ``core.PARADIGMS``, never from a comparison of its name with a string.  Only
``harness._setup``, the one setup of a run, generates a world in ``harness``.
"""

import ast
import glob
import importlib
import os
import pkgutil

import trajrl

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_lookup_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer")
    sites = [(owner, attr) for owner, attr, _ in tracer.SITES] + list(tracer.SETUP_SITES)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites if not hasattr(owner, attr)]
    assert missing == []


def test_every_exported_name_exists():
    missing = []
    for info in pkgutil.iter_modules(trajrl.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"trajrl.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _unused_imports(path, traced):
    """Names a module imports but never reads, exports through ``__all__`` or has traced."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported, keep = set(), set(traced)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            keep.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - keep)


def test_no_module_imports_a_name_it_does_not_use(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer")
    unused = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(trajrl.__file__), "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        if name == "__init__":
            continue
        traced = [attr for owner, attr, _ in tracer.SITES if owner.__name__ == f"trajrl.{name}"]
        unused += [f"{name}.{n}" for n in _unused_imports(path, traced)]
    assert unused == []


def _unread_private_names(path):
    """Module-level private names (``_x`` functions, classes and constants) that
    the module defines but never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(n for n in defined - read if n.startswith("_") and not n.startswith("__"))


def test_no_module_defines_a_private_name_it_does_not_read():
    unread = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(trajrl.__file__), "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        unread += [f"{name}.{n}" for n in _unread_private_names(path)]
    assert unread == []


def _unread_parameters(path):
    """``function(parameter)`` for each parameter of a function or lambda that its
    body never reads; ``self``, ``cls`` and ``_``-prefixed names are exempt."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for b in body for n in ast.walk(b) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"{name}({p})" for p in params if p not in read and p not in ("self", "cls") and p[0] != "_"]
    return unread


def test_no_function_takes_a_parameter_it_does_not_read():
    unread = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(trajrl.__file__), "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        unread += [f"{name}.{f}" for f in _unread_parameters(path)]
    assert unread == []


# The per-question layer: one-row wrappers of the block kernels, kept for the
# tests, the demos and the benchmark tracer.  No other package code may call them.
PER_QUESTION_LAYER = {
    "rollout_group", "RolloutGroup", "hybrid_reward", "RewardVector", "grpo_loss_and_grad",
    "group_advantages", "AdvantageVector", "step_probs", "majority_vote", "pass_rate",
    "greedy_answer", "tcs_max",
}


def _per_question_callers(path):
    """``owner`` for each top-level function or class outside the per-question layer
    that calls a per-question name (by bare name or as an attribute)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    callers = []
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        if owner in PER_QUESTION_LAYER:
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in PER_QUESTION_LAYER:
                    callers.append(owner)
                    break
    return callers


def test_the_per_question_layer_is_a_leaf():
    callers = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(trajrl.__file__), "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        callers += [f"{name}.{owner}" for owner in _per_question_callers(path)]
    assert callers == []


# Hidden answers: ``harness._evaluate`` is the one function that reads them;
# ``core.Dataset`` defines and checks the field and ``sim.generate_world`` writes it.
HIDDEN_ANSWER_OWNERS = {"harness._evaluate", "core.Dataset", "sim.generate_world"}
# Label-free code: the learning step and the one selection step, online and replayed.
LABEL_FREE = ("harness._learning_step", "harness._select_epoch", "harness.offline_select")


def _package_definitions():
    """``{name: [(owner, node)]}`` for every top-level function and class of the
    package, and for every method, under its own name and owned by its class.
    A top-level assignment to a name defines it too, so a table of functions
    (``harness.SCORERS``) leads to what it holds."""
    definitions = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(trajrl.__file__), "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        definitions.setdefault(target.id, []).append((f"{module}.{target.id}", node))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            body = node.body if isinstance(node, ast.ClassDef) else []
            methods = [m for m in body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for item in [node, *methods]:
                definitions.setdefault(item.name, []).append((f"{module}.{node.name}", item))
    return definitions


def _hidden_answer_readers(definitions):
    """Owners whose code reads ``.eval_answers`` or names it as a string (``getattr``)."""
    return {
        owner
        for entries in definitions.values()
        for owner, node in entries
        if any(
            (isinstance(n, ast.Attribute) and n.attr == "eval_answers")
            or (isinstance(n, ast.Constant) and n.value == "eval_answers")
            for n in ast.walk(node)
        )
    }


def test_only_the_evaluator_reads_hidden_answers():
    readers = _hidden_answer_readers(_package_definitions())
    assert "harness._evaluate" in readers
    assert readers <= HIDDEN_ANSWER_OWNERS


def _reachable(roots, definitions):
    """Owners of every definition that ``roots`` can reach, matching each name
    they use (called, passed or looked up as an attribute) to every definition
    of that name: a superset of what they can call."""
    todo = [node for root in roots for owner, node in definitions[root.split(".")[1]] if owner == root]
    seen = set()
    while todo:
        for n in ast.walk(todo.pop()):
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            for owner, target in definitions.get(name, ()):
                if (owner, name) not in seen:
                    seen.add((owner, name))
                    todo.append(target)
    return {owner for owner, _ in seen}


def test_label_free_code_never_reaches_the_evaluator():
    """Nothing the learning step, ``_select_epoch`` or ``offline_select`` can call
    is the evaluator or reads hidden answers, apart from ``Dataset``'s own checks."""
    definitions = _package_definitions()
    reached = _reachable(LABEL_FREE, definitions)
    assert {"harness._select_epoch", "trajectory.select", "rewards.verify_block"} <= reached
    assert {"harness.SCORERS", "trajectory.tcs_rows", "trajectory.reliable_average"} <= reached
    assert "harness._evaluate" not in reached
    assert reached & _hidden_answer_readers(definitions) <= {"core.Dataset"}


# Each config class, by module, and the raise statements its ``__post_init__`` keeps:
# one per invariant that joins two or more fields.  A single field is refused through
# ``core.refuse_unless``, which names the field and shows the value.
CROSS_FIELD_RAISES = {"core.TrainerConfig": 1, "sim.WorldConfig": 5, "diagnostics.BoundConfig": 0}


def test_a_config_refuses_one_field_only_through_refuse_unless():
    counts = {}
    for owner in CROSS_FIELD_RAISES:
        module, name = owner.split(".")
        with open(os.path.join(os.path.dirname(trajrl.__file__), f"{module}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        [cls] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
        [init] = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__post_init__"]
        counts[owner] = sum(isinstance(n, ast.Raise) for n in ast.walk(init))
    assert counts == CROSS_FIELD_RAISES


def _is_paradigm(node):
    """A name or attribute ``paradigm``."""
    return (isinstance(node, ast.Name) and node.id == "paradigm") or (
        isinstance(node, ast.Attribute) and node.attr == "paradigm")


def _is_string_literal(node):
    """A string constant, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_string_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _paradigm_string_comparisons(path):
    """``line`` of each comparison (``==``, ``!=``, ``in``, ``not in``) of a ``paradigm``
    name or attribute with a string literal."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) and any(
                _is_paradigm(a) and _is_string_literal(b) for a, b in ((left, right), (right, left))
            ):
                lines.append(node.lineno)
    return lines


def test_what_a_paradigm_trains_is_read_from_the_table():
    """``core.PARADIGMS`` is the one place that says what each paradigm trains."""
    compared = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(trajrl.__file__), "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        compared += [f"{name}:{line}" for line in _paradigm_string_comparisons(path)]
    assert compared == []


def test_only_the_setup_generates_a_world():
    """``harness._setup`` is the one setup of a run: ``run`` and ``sweep`` reach the world
    generator only through it, so both make the same refusals before training."""
    with open(os.path.join(os.path.dirname(trajrl.__file__), "harness.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    callers = [
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and "generate_world" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
    ]
    assert callers == ["_setup"]
