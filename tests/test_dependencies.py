"""The package runs on the standard library alone."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

#: Imports the package and its CLI, drives a few transactions through
#: a passive pair, and prints which third-party modules got loaded.
_RUN = """
import sys
import repro
import repro.experiments.runner
from repro.replication.passive import PassiveReplicatedSystem
from repro.vista import EngineConfig
from repro.workloads import DebitCreditWorkload, run_workload

config = EngineConfig(db_bytes=4 << 20, log_bytes=128 << 10)
system = PassiveReplicatedSystem("v1", config)
workload = DebitCreditWorkload(config.db_bytes, seed=1)
workload.setup(system)
system.sync_initial()
run_workload(system, workload, 20, verify=True)
print(sorted(name for name in ("numpy", "hypothesis", "pytest")
             if name in sys.modules))
"""


def test_a_run_loads_no_numpy():
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
