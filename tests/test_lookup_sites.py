"""Every name the benchmark tracer wraps, and every exported name, resolves.

``perfbench/tracer.py`` replaces functions by name in the module namespaces
where the package looks them up.  A refactor that drops one of those names
would only surface as a crash of a traced benchmark run; these checks turn
it into a test failure.  The tracer is imported, never modified.
"""

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
