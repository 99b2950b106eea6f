"""The performance ledger: one command, six workloads, every metric.

    python3 benchmarks/ledger/run.py                      # full ledger, seed 42
    python3 benchmarks/ledger/run.py --workload smp-des --repeats 3
    python3 benchmarks/ledger/run.py compare A.json B.json
    python3 benchmarks/ledger/run.py spec                 # rewrite BENCHMARK.json
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

The last form is one *run*, the unit the benchmark driver calls: it
prints every metric by name and unit, then one JSON result line. The
full ledger is the same run repeated — a discarded warm-up, R
untraced runs, one traced run per workload — with medians and
quartiles written to ``out/ledger-seed<N>.json``.

Every pass of a run is a fresh child process (``child.py``) with a
scrubbed environment. This parent never imports ``repro``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import spec

LEDGER = Path(__file__).resolve().parent
REPO = LEDGER.parent.parent
OUT = LEDGER / "out"
GOLDEN = LEDGER / "golden"
CHILD_TIMEOUT_S = 170

TIMED = [m for m in spec.END_TO_END if m.name not in spec.EXACT_END_TO_END]


def child_env() -> Dict[str, str]:
    """Hermetic child environment: no inherited switches, fixed hash
    seed, and a bytecode cache that is always on but outside the
    tracked tree (``src/`` carries tracked ``.pyc`` files; a run must
    leave ``git status`` clean)."""
    env = dict(os.environ)
    for switch in ("REPRO_FASTPATH", "REPRO_OBS", "REPRO_SERIES",
                   "PYTHONDONTWRITEBYTECODE"):
        env.pop(switch, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def machine() -> Dict[str, object]:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        print("WARNING: only 1 CPU available: the sampler thread competes "
              "with the workload and every host-time metric reads high",
              file=sys.stderr)
    if numpy is None:
        print("WARNING: numpy is missing: regions and write buffers fall "
              "back to the reference paths; numbers are NOT comparable to "
              "the committed baseline", file=sys.stderr)
    return {"nproc": cores, "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform()}


def spawn(workload: str, seed: int, trace: int = 0, tiny: bool = False,
          setup_only: bool = False) -> dict:
    """One pass in a fresh process; its JSON report."""
    command = [
        sys.executable, str(LEDGER / "child.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--out", str(OUT),
        "--started", repr(time.monotonic()),
    ]
    if tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def golden_digest(golden_dir: Path, workload: str, seed: int,
                  tiny: bool = False) -> Optional[str]:
    """The recorded digest, or None when this seed or workload has
    none (``golden: absent``: passes are compared with each other)."""
    path = golden_dir / f"seed{seed}.json"
    if not path.exists():
        return None
    golden = json.loads(path.read_text())
    if workload not in golden["digests"]:
        return None
    if golden["sizes"][workload] != _jsonable(spec.sizes_of(workload, tiny)):
        raise SystemExit(f"{path} was recorded at other sizes for {workload}; "
                         "regenerate it with --regold")
    return golden["digests"][workload]


def write_golden(golden_dir: Path, seed: int, entries: Dict[str, dict]) -> Path:
    """Record the digests (and sizes) of these ledger entries, keeping
    what the file holds for other workloads."""
    path = golden_dir / f"seed{seed}.json"
    golden = (json.loads(path.read_text()) if path.exists()
              else {"sizes": {}, "digests": {}})
    for workload, entry in entries.items():
        golden["sizes"][workload] = entry["sizes"]
        golden["digests"][workload] = entry["digest"]
    golden_dir.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return path


def _jsonable(value):
    return json.loads(json.dumps(value))


def one_run(workload: str, seed: int, seconds: float, trace: int,
            tiny: bool = False, golden_dir: Optional[Path] = GOLDEN) -> dict:
    """One run: fixed-size passes, each in a fresh process.

    Untraced: ``SETUP_SAMPLES - 1`` set-up-only processes (first, so
    they also warm the bytecode cache), then as many whole measuring
    passes as fit into ``seconds`` (at least one); every end-to-end
    metric is the median over its samples. Traced: one untraced and one
    traced pass, so the overhead of tracing is measured inside the run.

    Without a ``golden_dir`` (the self-test's sizes have no goldens;
    ``--regold`` is about to rewrite them) passes are compared with
    each other only.
    """
    setups: List[float] = []
    passes: List[dict] = []
    if not trace:
        setups = [spawn(workload, seed, tiny=tiny, setup_only=True)["setup_s"]
                  for _ in range(spec.SETUP_SAMPLES - 1)]
    measured = 0.0
    while True:
        passes.append(spawn(workload, seed, tiny=tiny))
        measured += passes[-1]["wall_s"]
        if trace or measured + passes[-1]["wall_s"] > seconds:
            break
    traced = spawn(workload, seed, trace=1, tiny=tiny) if trace else None
    everything = passes + ([traced] if traced else [])

    digests = {p["digest"] for p in everything}
    golden = (golden_digest(golden_dir, workload, seed, tiny)
              if golden_dir else None)
    identical = len(digests) == 1 and golden in (None, passes[0]["digest"])
    failures = [f for p in everything for f in p["failures"]]
    for failure in failures:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    if not identical:
        print(f"DIGEST MISMATCH {workload}: {sorted(digests)} vs golden "
              f"{golden}", file=sys.stderr)
    run = {
        "correct": identical and not failures,
        "identical": identical,
        "attempted": sum(p["attempted"] for p in everything),
        "failed": len(failures),
        "digest": passes[0]["digest"],
        "golden": "absent" if golden is None else
                  ("match" if golden == passes[0]["digest"] else "MISMATCH"),
        "passes": len(everything),
    }
    if not trace:
        samples = {m.name: [p[m.name] for p in passes] for m in TIMED}
        samples["setup_s"] += setups
        run["metrics"] = {
            m.name: {"value": statistics.median(samples[m.name]), "unit": m.unit}
            for m in TIMED
        }
        return run

    layers = dict(traced["layers"])
    # One traced over one untraced pass: a single sample that carries
    # the machine's full pass-to-pass noise. The full ledger replaces
    # it with the traced pass over the median of its untraced runs.
    layers["obs.trace_overhead_pct"] = _overhead_pct(
        traced["wall_s"], passes[0]["wall_s"])
    missing = spec.declared_layers(workload, tiny) - set(layers)
    if missing:
        raise SystemExit(f"{workload}: traced pass emitted no {sorted(missing)}")
    # A layer this workload does not exercise reads 0: that *is* the
    # ledger's "should NOT move" prediction for it.
    run["metrics"] = {
        row.name: {"value": layers.get(row.name, 0.0), "unit": row.unit}
        for row in spec.PER_LAYER
    }
    run["emitted"] = sorted(layers)
    run["traced_wall_s"] = traced["wall_s"]
    run["samples"] = traced["samples"]
    run["trace_file"] = traced["trace_file"]
    return run


def _overhead_pct(traced_wall_s: float, untraced_wall_s: float) -> float:
    return 100.0 * (traced_wall_s / untraced_wall_s - 1.0)


def print_metrics(workload: str, metrics: Dict[str, dict]) -> None:
    for name, entry in metrics.items():
        print(f"{workload:18} {name:36} {entry['value']:>16.6g} {entry['unit']}")


def driver_run(args) -> int:
    machine()  # for its warnings
    run = one_run(args.workload, args.seed, args.seconds, args.trace)
    print_metrics(args.workload, run["metrics"])
    if args.trace:
        print("[obs.trace_overhead_pct is a single sample here: one traced "
              "over one untraced pass]")
    print(json.dumps({key: run[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


# -- the full ledger -----------------------------------------------------------


def _summary(values: List[float], unit: str) -> dict:
    # Inclusive quartiles: the R runs are all there is, and with R = 5
    # the exclusive method's q3 leans on the maximum, so one machine
    # hiccup would mark a metric unresolved.
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit, "values": values}


def ledger_workload(workload: str, seed: int, repeats: int,
                    tiny: bool = False,
                    golden_dir: Optional[Path] = GOLDEN) -> dict:
    seconds = 0 if tiny else spec.RUN_SECONDS

    def run(trace: int) -> dict:
        return one_run(workload, seed, seconds, trace, tiny, golden_dir)

    run(0)  # discarded warm-up
    runs = [run(0) for _ in range(repeats)]
    traced = run(1)
    every = runs + [traced]
    attempted = {r["attempted"] // r["passes"] for r in every}
    digests = {r["digest"] for r in every}
    end_to_end = {
        m.name: _summary([r["metrics"][m.name]["value"] for r in runs], m.unit)
        for m in TIMED
    }
    exact = {
        "fail_share": sum(r["failed"] for r in every) / sum(r["attempted"] for r in every),
        "sim_identical": int(all(r["identical"] for r in every)
                             and len(digests) == 1),
        "attempted_ops": attempted.pop() if len(attempted) == 1 else -1,
    }
    units = {m.name: m.unit for m in spec.END_TO_END}
    for name, value in exact.items():
        end_to_end[name] = {"median": value, "unit": units[name], "n": len(every)}
    per_layer = {name: traced["metrics"][name] for name in traced["emitted"]}
    # The price of tracing against the median of the untraced runs, not
    # against the one untraced pass the traced run made itself.
    per_layer["obs.trace_overhead_pct"] = {
        "value": _overhead_pct(traced["traced_wall_s"],
                               end_to_end["wall_s"]["median"]),
        "unit": "%", "n_untraced": repeats}
    return {
        "why": spec.WORKLOADS[workload].why,
        "sizes": spec.sizes_of(workload, tiny),
        "units": spec.units_of(workload, tiny),
        "unit_of_work": spec.WORKLOADS[workload].unit,
        "digest": runs[0]["digest"],
        "golden": runs[0]["golden"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "sampler_samples": traced["samples"],
    }


def print_ledger(workload: str, entry: dict) -> None:
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    for name, e in entry["end_to_end"].items():
        line = f"{workload:18} {name:36} {e['median']:>16.6g} {e['unit']:8}"
        if "q1" in e:
            spread = (e["q3"] - e["q1"]) / e["median"]
            line += (f" [q1 {e['q1']:.6g}, q3 {e['q3']:.6g}, n={e['n']}, "
                     f"spread {spread:.1%} of bound {bounds[name]:.0%}]")
        print(line)
    print_metrics(workload, entry["per_layer"])
    print(f"{workload:18} digest {entry['digest']} golden: {entry['golden']}")


def ledger(args) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    report = {
        "schema": spec.SCHEMA, "seed": args.seed, "repeats": args.repeats,
        "run_seconds": spec.RUN_SECONDS, "machine": machine(), "workloads": {},
    }
    for workload in names:
        # Under --regold the old goldens (other sizes, other outputs)
        # say nothing: passes are held to each other only.
        entry = ledger_workload(workload, args.seed, args.repeats,
                                golden_dir=None if args.regold else GOLDEN)
        report["workloads"][workload] = entry
        print_ledger(workload, entry)
    output = args.output or OUT / f"ledger-seed{args.seed}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"[ledger written to {output}]")
    bad = [w for w, e in report["workloads"].items()
           if e["end_to_end"]["fail_share"]["median"]
           or not e["end_to_end"]["sim_identical"]["median"]]
    if bad:
        print(f"FAIL: incorrect outputs on {bad}", file=sys.stderr)
        return 1
    if args.regold:  # never from passes that failed or disagreed
        path = write_golden(GOLDEN, args.seed, report["workloads"])
        print(f"[golden digests written to {path}]")
    return 0


# -- compare -------------------------------------------------------------------


def compare(args) -> int:
    """B against A: per workload x end-to-end metric, median vs median
    against the metric's bound; exact equality for simulated
    statistics; a workload or exact count on one side only is a
    mismatch. Exit 1 on any regression or mismatch."""
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    if a["seed"] != b["seed"]:
        raise SystemExit(f"seeds differ: {a['seed']} vs {b['seed']}")
    verdicts: Dict[str, int] = {}
    rows = []

    def row(workload, name, old, new, verdict, note=""):
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        rows.append(f"{workload:18} {name:30} {old:>14.6g} {new:>14.6g}  "
                    f"{verdict}{note}")

    for workload in sorted(set(a["workloads"]) ^ set(b["workloads"])):
        row(workload, "workload", workload in a["workloads"],
            workload in b["workloads"], "MISMATCH", " (in one report only)")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        if wa["sizes"] != wb["sizes"]:
            raise SystemExit(f"{workload}: sizes differ between the reports")
        if wa["digest"] != wb["digest"]:
            row(workload, "digest", 0, 1, "MISMATCH")
        for m in spec.END_TO_END:
            ea, eb = wa["end_to_end"][m.name], wb["end_to_end"][m.name]
            note = ""
            if m.name in spec.EXACT_END_TO_END:
                verdict = "same" if ea["median"] == eb["median"] else "MISMATCH"
            else:
                sign = 1.0 if m.better == "lower" else -1.0
                change = sign * (eb["median"] - ea["median"]) / ea["median"]
                spreads = [(e["q3"] - e["q1"]) / e["median"] for e in (ea, eb)]
                separated = (min(eb["values"]) > max(ea["values"])
                             or max(eb["values"]) < min(ea["values"]))
                if max(spreads) > m.bound and not separated:
                    verdict = "unresolved"
                elif change > m.bound:
                    verdict = "REGRESSION"
                else:
                    verdict = "within bound" if change > -m.bound else "better"
                note = (f" (worse by {change:+.1%}; bound {m.bound:.0%}; "
                        f"spreads {spreads[0]:.1%}/{spreads[1]:.1%})")
            row(workload, m.name, ea["median"], eb["median"], verdict, note)
        for name in sorted(set(wa["per_layer"]) | set(wb["per_layer"])):
            if not spec.PER_LAYER_BY_NAME[name].exact:
                continue
            va, vb = (w["per_layer"].get(name, {}).get("value", float("nan"))
                      for w in (wa, wb))
            if va != vb:  # a count missing on one side is nan: a mismatch
                row(workload, name, va, vb, "MISMATCH")
    print("\n".join(rows))
    print(f"[{verdicts}]")
    return 1 if verdicts.get("REGRESSION") or verdicts.get("MISMATCH") else 0


# -- entry ---------------------------------------------------------------------


def write_spec() -> int:
    path = REPO / "BENCHMARK.json"
    path.write_text(json.dumps(spec.benchmark_json(), indent=1) + "\n")
    print(f"[{path} written]")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare",
                                         description=compare.__doc__)
        parser.add_argument("a")
        parser.add_argument("b")
        return compare(parser.parse_args(argv[1:]))
    if argv[:1] == ["spec"]:
        return write_spec()

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced runs per workload in the full ledger")
    parser.add_argument("--seconds", type=float,
                        help="one run only: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run only: 0 end-to-end, 1 per-layer")
    parser.add_argument("--regold", action="store_true",
                        help="record this ledger's digests as the golden ones")
    parser.add_argument("--output", type=Path,
                        help="ledger report path (default out/ledger-seed<N>.json)")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {REPO / 'src' / 'repro'} "
                         "is missing")
    if args.seconds is not None or args.trace is not None:
        if args.workload is None:
            parser.error("one run needs --workload")
        args.seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
        args.trace = args.trace or 0
        return driver_run(args)
    return ledger(args)


if __name__ == "__main__":
    sys.exit(main())
