"""One pass of one workload in this (fresh) process.

``run.py`` starts one of these per pass, with a scrubbed environment:
the packet replay cache is process-global and a CLI user pays a cold
one on every run, so a pass never shares a process with another.
Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import spec


def _digest(records) -> str:
    sha = hashlib.sha256()
    for record in records:
        sha.update(json.dumps(record, sort_keys=True, default=list).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _cpu_seconds() -> float:
    """User + system CPU of this process and its children (rusage:
    microsecond resolution, where ``os.times`` has 10 ms)."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in map(resource.getrusage,
                                (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import workloads
    from tracer import NullTracer, Sampler, Tracer, write_trace

    tracer = (Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
              if args.trace else NullTracer())
    workload = workloads.WORKLOADS[args.workload]()
    with tracer.span("setup", workload=args.workload):
        workload.setup(args.seed, spec.sizes_of(args.workload, args.tiny), tracer)
    report = {"setup_s": time.monotonic() - args.started}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    checks = workloads.Checks()
    with contextlib.ExitStack() as traced:
        if args.trace:
            traced.enter_context(workload.instruments(tracer))
            sim_timer = traced.enter_context(workloads.time_simulator())
            sampler = traced.enter_context(Sampler().sampling())
        cpu_started, started = _cpu_seconds(), time.perf_counter()
        with tracer.span("measure", workload=args.workload):
            workload.measure(tracer, checks)
        wall_s = time.perf_counter() - started
        cpu_s = _cpu_seconds() - cpu_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "units_per_s": spec.units_of(args.workload, args.tiny) / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "digest": _digest(workload.simulated()),
    })
    if args.trace:
        layers = {f"{layer}.self_share": share
                  for layer, share in sampler.shares().items()}
        layers.update(workloads.sim_metrics(sim_timer))
        layers.update(workload.layers(tracer))
        for probe in workload.probes:
            with tracer.span("probe", probe=probe.__name__):
                layers.update(probe(args.seed))
        report["layers"] = layers
        report["samples"] = sum(sampler.counts.values())
        args.out.mkdir(parents=True, exist_ok=True)
        trace_path = args.out / f"{args.workload}.trace.json"
        write_trace(trace_path, args.workload, args.seed, tracer, sampler)
        report["trace_file"] = str(trace_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
