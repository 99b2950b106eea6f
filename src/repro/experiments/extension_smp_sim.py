"""Extension: validate the Figures 2/3 closed form by simulation.

The figures use ``min(n * single_stream, link_capacity)``. Here the
same measured packet schedules drive a discrete-event simulation of n
streams contending for one FIFO link with write-buffer backpressure,
and the two are compared. Agreement means the figures do not depend on
the closed form's simplifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.common import WORKLOADS, ExperimentContext
from repro.experiments.figures2_3 import PROCESSORS, reads as stream_reads
from repro.perf.report import ReportTable
from repro.perf.smp_sim import simulate_from_run

CONFIGS = ("active", "passive-v3", "passive-v1")
DURATION_US = 20_000.0


@dataclass
class SmpValidationResult:
    #: workload -> config -> [(analytic, simulated) per processor count]
    curves: Dict[str, Dict[str, List[tuple]]]

    def table(self) -> ReportTable:
        table = ReportTable(
            "Extension: SMP closed form vs discrete-event simulation "
            "(aggregate txns/sec)",
            ["workload/config", "CPUs", "analytic", "simulated", "delta"],
        )
        for workload, configs in self.curves.items():
            for config, points in configs.items():
                for processors, (analytic, simulated) in zip(PROCESSORS, points):
                    delta = (simulated - analytic) / analytic * 100
                    table.add_row(
                        f"{workload} {config}", processors,
                        analytic, simulated, f"{delta:+.0f}%",
                    )
        table.add_note(
            "the simulation includes FIFO queueing and write-buffer "
            "stalls the closed form ignores"
        )
        return table

    def check(self, tolerance: float = 0.35) -> None:
        """Simulated and analytic agree within ``tolerance`` at every
        point, and the qualitative shapes match."""
        for workload, configs in self.curves.items():
            for config, points in configs.items():
                for processors, (analytic, simulated) in zip(PROCESSORS, points):
                    error = abs(simulated - analytic) / analytic
                    assert error <= tolerance, (
                        workload, config, processors, analytic, simulated,
                    )


def reads(workload: str, configs=CONFIGS) -> dict:
    """The figures' own streams, for the configurations simulated."""
    streams = stream_reads(workload)
    return {config: streams[config] for config in configs}


def points(ctx: ExperimentContext, configs=CONFIGS,
           duration_us: float = DURATION_US):
    """Every simulated point, as ``(memo key, RunResult, single-stream
    report, processors)`` — the one enumeration ``run`` and the
    ledger's ``cells.smp_sim_tasks`` share."""
    for workload in WORKLOADS:
        for config, read in reads(workload, configs).items():
            result, report = ctx.read(*read), ctx.report(*read)
            for processors in PROCESSORS:
                key = ("smp-sim", workload, config, processors, duration_us)
                yield key, result, report, processors


def run(ctx: ExperimentContext, configs=CONFIGS,
        duration_us: float = DURATION_US) -> SmpValidationResult:
    estimator = ctx.estimator()
    curves: Dict[str, Dict[str, List[tuple]]] = {}
    for key, result, report, processors in points(ctx, configs, duration_us):
        _, workload, config, _, _ = key
        analytic = estimator.smp_aggregate(report, processors)
        # Each stream computes for its pure CPU time; link occupancy,
        # queueing and write-buffer stalls all emerge from the
        # simulation. The closed form is the conservative side at one
        # CPU (it charges a partial overlap penalty; pure backpressure
        # hides more).
        simulated = ctx.memo(key, lambda: simulate_from_run(
            result, cpu_us=report.cpu_us,
            processors=processors, duration_us=duration_us,
        ))
        curves.setdefault(workload, {}).setdefault(config, []).append(
            (analytic, simulated.aggregate_tps)
        )
    return SmpValidationResult(curves=curves)
