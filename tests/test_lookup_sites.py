"""Every name the benchmark tracer wraps, and every exported name, resolves.

``perfbench/tracer.py`` replaces functions by name in the module namespaces
where the package looks them up.  A refactor that drops one of those names
would only surface as a crash of a traced benchmark run; these checks turn
it into a test failure.  The tracer is imported, never modified.  A module
imports no name it leaves unused, unless it exports it or the tracer wraps it
there, and reads every private name it defines.  No function takes a parameter
it never reads.
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
