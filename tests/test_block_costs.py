"""``tools/block_costs.py`` runs and prints one row of costs per block kernel."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "block_costs.py"


def test_one_repeat_at_two_block_sizes_prints_a_row_per_kernel(tmp_path):
    argv = [sys.executable, str(TOOL), "--sizes", "1", "2", "--repeats", "1", "--number", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["kernel", "B=1", "B=2", "fixed_us", "per_row_us"]
    kernels = ["block_step_probs", "sample_block", "check_rollouts", "reward_block", "grpo_block"]
    assert [row.split()[0] for row in rows] == kernels
    for row in rows:
        micros = [float(cell) for cell in row.split()[1:]]
        assert len(micros) == 4
        # Each call takes time, and the line through two points meets both.
        assert micros[0] > 0.0 and micros[1] > 0.0
        fixed, per_row = micros[2:]
        assert abs(fixed + per_row - micros[0]) < 0.2 and abs(fixed + 2 * per_row - micros[1]) < 0.2
