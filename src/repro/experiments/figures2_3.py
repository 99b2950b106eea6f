"""Figures 2 and 3 — SMP primary scaling.

One independent transaction stream per CPU (disjoint data, 10 MB of
database per stream, as in Section 8), all sharing a single Memory
Channel link to the backup. Aggregate throughput is capped by the
link's carrying capacity for each protocol's packet mix:

* the active scheme's compact 32-byte-packet redo stream scales nearly
  linearly to 4 CPUs;
* passive logging (Version 3) ships more bytes in mixed packets and
  saturates around 2 CPUs;
* the mirroring versions' word-size packets see under 20 MB/s and
  barely scale at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partialmethod
from typing import Dict, List

from repro.experiments.common import (
    MB,
    WORKLOADS,
    ExperimentContext,
    active_cell,
    passive_cell,
)
from repro.perf.report import ascii_series
from repro.perf.throughput import ThroughputReport

STREAM_DB_BYTES = 10 * MB  # "a 10 Mbyte database per transaction stream"
PROCESSORS = (1, 2, 3, 4)

CONFIGS = ("active", "passive-v3", "passive-v2", "passive-v1")
LABELS = {
    "active": "Active",
    "passive-v3": "Pass. Ver. 3",
    "passive-v2": "Pass. Ver. 2",
    "passive-v1": "Pass. Ver. 1",
}


@dataclass
class Figures23Result:
    #: workload -> config -> [tps at 1..4 processors]
    aggregate: Dict[str, Dict[str, List[float]]]
    singles: Dict[str, Dict[str, ThroughputReport]]

    def figure(self, workload: str) -> str:
        number = "2" if workload == "debit-credit" else "3"
        return ascii_series(
            f"Figure {number}: SMP primary aggregate throughput "
            f"({workload}, txns/sec)",
            PROCESSORS,
            [
                (LABELS[config], self.aggregate[workload][config])
                for config in CONFIGS
            ],
        )

    figure2 = partialmethod(figure, "debit-credit")
    figure3 = partialmethod(figure, "order-entry")

    def check(self) -> None:
        for workload in WORKLOADS:
            curves = self.aggregate[workload]
            # Active scales best and is close to linear.
            active = curves["active"]
            assert active[3] >= 3.0 * active[0], (
                f"{workload}: active should be near-linear: {active}"
            )
            # Passive logging saturates: 4 CPUs buy little over 2.
            passive3 = curves["passive-v3"]
            assert passive3[3] <= passive3[1] * 1.35, (
                f"{workload}: passive V3 should saturate by ~2 CPUs: {passive3}"
            )
            # Mirror-by-copy barely scales at all.
            passive1 = curves["passive-v1"]
            assert passive1[3] <= passive1[0] * 1.6, (
                f"{workload}: mirroring should not scale: {passive1}"
            )
            # Active dominates every other config at 4 CPUs.
            for config in ("passive-v3", "passive-v2", "passive-v1"):
                assert active[3] > curves[config][3] * 1.5, (
                    workload, config, active[3], curves[config][3],
                )


def reads(workload: str) -> dict:
    return {
        config: (
            active_cell(workload) if config == "active"
            else passive_cell(config.split("-")[1], workload),
            STREAM_DB_BYTES,
        )
        for config in CONFIGS
    }


def run(ctx: ExperimentContext) -> Figures23Result:
    estimator = ctx.estimator()
    aggregate: Dict[str, Dict[str, List[float]]] = {}
    singles: Dict[str, Dict[str, ThroughputReport]] = {}
    for workload in WORKLOADS:
        singles[workload] = {
            config: ctx.report(*read) for config, read in reads(workload).items()
        }
        aggregate[workload] = {
            config: [estimator.smp_aggregate(report, n) for n in PROCESSORS]
            for config, report in singles[workload].items()
        }
    return Figures23Result(aggregate=aggregate, singles=singles)
