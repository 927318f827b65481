"""The golden logs on every OpenBLAS kernel the forward pass may run on.

The training loop's matmuls make one BLAS call per question, and the bits of
such a call depend on the kernel OpenBLAS picks for the CPU.  Each test here
trains every ``GOLDEN`` configuration of ``tests/test_golden.py`` in a child
process whose ``OPENBLAS_CORETYPE`` forces one kernel (the variable is set for
the child only; OpenBLAS reads it once, when it loads), and requires the
pinned hashes.  The child also trains ``BLOCK_CHECK`` again in blocks of one
question and requires the same final weights, pass-rate log and losses as in
the training loop's own block size, so each kernel checks that a row's bits
do not depend on the block it is in.  The golden logs keep 9 digits and miss
a last-bit change of the forward product, so the child also requires
``greedy_answers`` on ``tests/test_blocks.py``'s near-tie blocks to equal the
per-question argmax over the same contiguous copy of the transposed weights.
The child reads back through ctypes
the core name the loaded OpenBLAS reports; a kernel that did not take effect
(another BLAS, or a CPU that cannot run it) is skipped with the name it ran
instead.

``select --out`` is left out: it writes mean-mode scores at full precision, and
its ``perfbench/digests.json`` digests already differ under the Haswell,
Sandybridge and Prescott kernels (see the README's ``select`` section),
whatever the training loop does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parent.parent

# The core names a forced kernel may report.  numpy's bundled OpenBLAS, a
# DYNAMIC_ARCH build, names the kernel it runs for Prescott Katmai, as it does
# for Katmai, Northwood and Core2; under it the replay scores round as they do
# under Prescott.
KERNELS = {
    "SkylakeX": ("SkylakeX",),
    "Haswell": ("Haswell",),
    "Sandybridge": ("Sandybridge",),
    "Prescott": ("Prescott", "Katmai"),
}

# The golden configuration the child trains again in blocks of one.
BLOCK_CHECK = "small_naive_semi_kl_token_entropy"

# argv: the output directory, BLOCK_CHECK, then the accepted core names.  Prints one
# JSON object: the core name, and, only when that core is accepted, the golden hashes,
# whether BLOCK_CHECK kept its bits in blocks of one and the near-tie shapes whose
# greedy answers differ from the per-question argmax.
CHILD = r"""
import ctypes, hashlib, json, os, sys
from pathlib import Path
import numpy

def core_name():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return None

from test_blocks import FORMULA_SHAPES, near_tie_block, reference_greedy_answers
from test_golden import GOLDEN
from trajrl import harness
from trajrl.sim import greedy_answers

def bits(run_result):
    losses = [m.loss.hex() for m in run_result.metrics]
    return run_result.policy.params.weights.tobytes(), run_result.records, losses

out, block_check, accepted = sys.argv[1], sys.argv[2], sys.argv[3:]
result = {"core": core_name(), "hashes": {}}
if result["core"] in accepted:
    for name, (trainer, world, pins) in GOLDEN.items():
        trained = harness.run(trainer, world, out_dir=os.path.join(out, name))
        result["hashes"][name] = {
            filename: hashlib.sha256(Path(out, name, filename).read_bytes()).hexdigest()
            for filename in pins
        }
        if name == block_check:
            in_blocks = bits(trained)
    trainer, world, _ = GOLDEN[block_check]
    harness._BLOCK = 1
    result["same_bits_in_blocks_of_one"] = bits(harness.run(trainer, world)) == in_blocks
    ties = {shape: near_tie_block(*shape) for shape in FORMULA_SHAPES}
    result["greedy_mismatches"] = [
        list(shape) for shape, (params, inputs) in ties.items()
        if greedy_answers(params, inputs).tolist() != reference_greedy_answers(params, inputs)
    ]
print(json.dumps(result))
"""


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_golden_logs_match_their_pins_on_every_blas_kernel(kernel, tmp_path):
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("the loaded OpenBLAS is found through /proc/self/maps")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), BLOCK_CHECK, *KERNELS[kernel]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["core"] not in KERNELS[kernel]:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} did not take effect: the core is {result['core']}")
    assert result["hashes"] == {name: pins for name, (_, _, pins) in GOLDEN.items()}
    assert result["same_bits_in_blocks_of_one"]
    assert result["greedy_mismatches"] == []
