"""Shared plumbing for the benchmark scripts.

One place for the path bootstrap, the machine stanza, and the
``repro-bench-v1`` report assembly that used to be duplicated across
the benchmark scripts (``bench_quorum.py``, ``bench_recovery.py``).
Scripts keep measuring into plain nested dicts; :func:`finalize`
flattens them into the canonical schema (see :mod:`repro.obs.bench`),
writes the report, and runs the regression gate when ``--check`` was
given.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Mapping, Optional

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.obs import bench as obs_bench  # noqa: E402

MB = 1024 * 1024


def flatten_metrics(
    nested: Mapping[str, object],
    gates: Mapping[str, str] = (),
    units: Mapping[str, str] = (),
) -> Dict[str, Dict[str, object]]:
    """Dotted-name metric entries from a nested measurement dict.

    ``gates`` maps metric name -> direction (``higher``/``lower``) for
    the regression-checked subset; ``units`` annotates display units.
    """
    flat: Dict[str, float] = {}
    for key, value in nested.items():
        obs_bench._flatten(value, key, flat)
    gates = dict(gates)
    units = dict(units)
    return {
        name: obs_bench.metric(
            value,
            unit=units.get(name, ""),
            gate=name in gates,
            direction=gates.get(name, obs_bench.HIGHER),
        )
        for name, value in flat.items()
    }


def finalize(
    suite: str,
    metrics: Mapping[str, Mapping[str, object]],
    output: str,
    check_path: Optional[str] = None,
    gate: float = 0.8,
    note: Optional[str] = None,
) -> int:
    """Write the measured ``repro-bench-v1`` report; when
    ``check_path`` names a committed baseline, gate against it and
    return nonzero on regression."""
    report = obs_bench.make_report(
        suite, metrics, machine=obs_bench.machine_stanza(note))
    obs_bench.save_report(report, output)
    print(f"[report written to {output}]")
    if check_path:
        failures = obs_bench.compare_reports(
            obs_bench.load_report(check_path), report, gate=gate)
        return 1 if failures else 0
    return 0
