"""Golden-grid check for the process-parallel runner.

The full experiment grid — every table and figure — must print
byte-identical output sequentially and with the process-parallel
runner (``--jobs 2``). Each configuration runs in its own subprocess,
the way a user would drive it; ``test_parallel_runner.py`` holds the
same for one table in-process, and CI's ledger step pins the
sequential grid at ``--transactions 1000`` by golden digest.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent.parent / "src")

#: Small transaction count: the grid's checks all hold at any count,
#: and the SMP event simulations (the slow part) are count-independent.
TRANSACTIONS = "60"


def _run_grid(extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.experiments.runner",
            "--transactions",
            TRANSACTIONS,
            *extra_args,
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    # Everything except the final wall-clock line must match exactly.
    lines = result.stdout.splitlines()
    assert lines[-1].startswith("[all experiments passed")
    return "\n".join(lines[:-1])


def test_grid_byte_identical_sequential_and_parallel():
    assert _run_grid(extra_args=("--jobs", "2")) == _run_grid()
