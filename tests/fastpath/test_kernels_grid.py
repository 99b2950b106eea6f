"""Golden-grid check for the process-parallel runner.

The experiment grid must print byte-identical output sequentially and
with the process-parallel runner (``--jobs 2``). Each configuration
runs in its own subprocess, the way a user would drive it;
``test_parallel_runner.py`` holds the same for one table in-process,
and CI's ledger step pins the sequential grid at ``--transactions
1000`` by golden digest.

Every experiment is compared except ``smp-validation``: its 24
count-independent discrete-event points are simulated inline in *both*
subprocesses (``--jobs`` never fans them out) and were half this
test's seconds, while the ledger's ``smp-des`` golden already pins
them in CI. Its cells are a subset of ``figures2-3``'s, so cross-cell
sharing between experiments is still exercised.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.runner import EXPERIMENTS

SRC = str(Path(__file__).resolve().parent.parent.parent / "src")

#: Small transaction count: the grid's checks all hold at any count.
TRANSACTIONS = "60"
COMPARED = [key for key in EXPERIMENTS if key != "smp-validation"]


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
            *COMPARED,
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
