"""Fixtures shared across test modules."""

import pytest
from test_golden import GOLDEN

from trajrl.harness import run


@pytest.fixture(scope="session")
def golden_logs(tmp_path_factory):
    """``golden_logs(name)``: the output directory of the golden run ``name``.

    Each golden configuration is trained once per session, however many
    tests read its logs.
    """
    dirs = {}

    def logs(name):
        if name not in dirs:
            trainer, world, _ = GOLDEN[name]
            dirs[name] = tmp_path_factory.mktemp(name)
            run(trainer, world, out_dir=str(dirs[name]))
        return dirs[name]

    return logs
