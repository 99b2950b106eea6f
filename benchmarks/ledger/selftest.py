"""Self-test of the ledger (tiny sizes, about 25 s).

    python3 benchmarks/ledger/selftest.py
    PYTHONPATH=src python3 -m pytest benchmarks/ledger

Holds the instrument to its own definition: every declared metric is
emitted with its unit, the layer map covers ``src/repro``, spans nest,
digests repeat per seed and differ between seeds, ``compare`` flags
what it must, ``--regold`` recovers from stale goldens, and
``BENCHMARK.json`` is what ``spec.py`` renders.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spec  # noqa: E402
from tracer import LAYER_OF_PACKAGE, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@functools.lru_cache(maxsize=None)
def tiny(workload: str) -> dict:
    """One traced run (an untraced and a traced pass) at seed 42 and
    one untraced pass at seed 7, all at self-test sizes (which have
    no goldens: passes are held to each other)."""
    traced = run.one_run(workload, 42, seconds=0, trace=1, tiny=True,
                         golden_dir=None)
    other_seed = run.spawn(workload, 7, tiny=True)
    trace = json.loads(Path(traced["trace_file"]).read_text())
    return {"run": traced, "other_seed": other_seed, "trace": trace}


def test_benchmark_json_is_rendered_from_spec_and_within_the_contract():
    rendered = spec.benchmark_json()
    committed = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert committed == rendered, "run `run.py spec` after editing spec.py"
    assert 2 <= len(rendered["workloads"]) <= 8
    assert 1 <= len(rendered["end_to_end"]) <= 16
    assert 1 <= len(rendered["per_layer"]) <= 128
    assert 1 <= rendered["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in rendered[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in rendered["end_to_end"] + rendered["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in rendered["end_to_end"])
    setup = [m for m in rendered["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in rendered["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in rendered["workloads"])


def test_layer_map_covers_every_package_under_src_repro():
    packages = {p.parent.name
                for p in (run.REPO / "src" / "repro").glob("*/__init__.py")}
    assert packages == set(LAYER_OF_PACKAGE), (
        "unmapped or vanished packages: "
        f"{packages ^ set(LAYER_OF_PACKAGE)}")


def test_every_declared_metric_is_emitted_with_its_unit():
    for workload in spec.WORKLOADS:
        traced = tiny(workload)["run"]
        missing = spec.declared_layers(workload, tiny=True) - set(traced["emitted"])
        assert not missing, (workload, sorted(missing))
        assert set(traced["metrics"]) == set(spec.PER_LAYER_BY_NAME)
        for name, entry in traced["metrics"].items():
            assert entry["unit"] == spec.PER_LAYER_BY_NAME[name].unit
            assert isinstance(entry["value"], (int, float)), (workload, name)
        shares = [traced["metrics"][f"{layer}.self_share"]["value"]
                  for layer in spec.LAYERS + ("other",)]
        assert abs(sum(shares) - 1.0) < 1e-9, (workload, shares)
        assert traced["correct"], workload


def test_spans_nest_under_one_run_id_with_nonnegative_self_time():
    for workload in spec.WORKLOADS:
        spans = tiny(workload)["trace"]["spans"]
        by_id = {s["id"]: s for s in spans}
        assert len({s["run_id"] for s in spans}) == 1
        assert {s["name"] for s in spans} >= {"setup", "measure"}
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"], (workload, span)
                assert span["end"] <= parent["end"], (workload, span)
        assert all(own >= -1e-9 for own in self_times(spans).values())


def test_digests_repeat_per_seed_and_differ_between_seeds():
    for workload in spec.WORKLOADS:
        runs = tiny(workload)
        # one_run compared the untraced and the traced pass already.
        assert runs["run"]["identical"], workload
        assert runs["run"]["digest"] != runs["other_seed"]["digest"], workload


def test_committed_baseline_and_goldens_are_complete():
    baseline = json.loads((run.LEDGER / "baseline" / "seed42.json").read_text())
    goldens = {seed: json.loads((run.GOLDEN / f"seed{seed}.json").read_text())
               for seed in (42, 7)}
    assert baseline["machine"]["nproc"] >= 2
    for workload in spec.WORKLOADS:
        entry = baseline["workloads"][workload]
        assert entry["sizes"] == run._jsonable(spec.sizes_of(workload))
        assert entry["digest"] == goldens[42]["digests"][workload]
        assert goldens[7]["digests"][workload] != entry["digest"]
        for metric in spec.END_TO_END:
            assert entry["end_to_end"][metric.name]["unit"] == metric.unit
        assert entry["end_to_end"]["fail_share"]["median"] == 0
        assert entry["end_to_end"]["sim_identical"]["median"] == 1
        assert spec.declared_layers(workload) <= set(entry["per_layer"]), workload
        assert entry["per_layer"]["other.self_share"]["value"] < 0.05, workload


def _scratch():
    """A temporary directory inside ``out/`` (the ledger writes
    nowhere else)."""
    run.OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT)


def _report(wall, digest="d", attempted=8, events=100):
    timed = {m.name: {"median": wall, "q1": wall * 0.99, "q3": wall * 1.01,
                      "n": 3, "unit": m.unit,
                      "values": [wall * 0.99, wall, wall * 1.01]}
             for m in run.TIMED}
    timed["units_per_s"] = dict(
        timed["units_per_s"], median=1 / wall, q1=0.99 / wall, q3=1.01 / wall,
        values=[0.99 / wall, 1 / wall, 1.01 / wall])
    timed.update({"fail_share": {"median": 0.0}, "sim_identical": {"median": 1},
                  "attempted_ops": {"median": attempted}})
    per_layer = {} if events is None else {
        "sim.events": {"value": events, "unit": "count"}}
    return {"seed": 42, "workloads": {"smp-des": {
        "sizes": {}, "digest": digest, "end_to_end": timed,
        "per_layer": per_layer}}}


def _compare(a: dict, b: dict) -> int:
    with _scratch() as scratch:
        paths = []
        for name, report in (("a.json", a), ("b.json", b)):
            paths.append(str(Path(scratch) / name))
            Path(paths[-1]).write_text(json.dumps(report))
        return run.main(["compare", *paths])


def test_compare_flags_regressions_and_mismatches_only():
    assert _compare(_report(10.0), _report(10.5)) == 0
    assert _compare(_report(10.0), _report(8.0)) == 0
    assert _compare(_report(10.0), _report(13.0)) == 1
    assert _compare(_report(10.0), _report(10.0, digest="e")) == 1
    assert _compare(_report(10.0), _report(10.0, attempted=7)) == 1
    assert _compare(_report(10.0), _report(10.0, events=99)) == 1
    # A count or a whole workload on one side only is a mismatch too.
    assert _compare(_report(10.0), _report(10.0, events=None)) == 1
    assert _compare(_report(10.0, events=None), _report(10.0)) == 1
    nothing = {"seed": 42, "workloads": {}}
    assert _compare(_report(10.0), nothing) == 1
    assert _compare(nothing, _report(10.0)) == 1


def test_regold_recovers_from_stale_and_partial_goldens():
    workload, stale = "txn-active", "0" * 64
    with _scratch() as scratch:
        golden_dir = Path(scratch)
        (golden_dir / "seed42.json").write_text(json.dumps({
            "sizes": {workload: {"txns_per_cell": 1}},
            "digests": {workload: stale}}))
        # After a size change the old golden is refused, loudly ...
        try:
            run.golden_digest(golden_dir, workload, 42, tiny=True)
        except SystemExit as refusal:
            assert "--regold" in str(refusal)
        else:
            raise AssertionError("a golden of other sizes was accepted")
        # ... a workload the file never held is absent, not an error ...
        assert run.golden_digest(golden_dir, "smp-des", 42, tiny=True) is None
        # ... and what --regold does (no golden lookup, then rewrite)
        # gets through and leaves a golden that matches.
        entry = run.ledger_workload(workload, 42, repeats=1, tiny=True,
                                    golden_dir=None)
        assert entry["golden"] == "absent"
        assert entry["end_to_end"]["sim_identical"]["median"] == 1
        assert entry["per_layer"]["obs.trace_overhead_pct"]["n_untraced"] == 1
        run.write_golden(golden_dir, 42, {workload: entry})
        assert run.golden_digest(golden_dir, workload, 42, tiny=True) \
            == entry["digest"] != stale
        again = run.one_run(workload, 42, seconds=0, trace=0, tiny=True,
                            golden_dir=golden_dir)
        assert again["golden"] == "match" and again["correct"]


def test_exits_nonzero_without_a_result_when_there_is_no_program():
    with _scratch() as scratch:
        shutil.copy(run.REPO / "BENCHMARK.json", scratch)
        shutil.copytree(run.LEDGER, Path(scratch) / "benchmarks" / "ledger",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "benchmarks/ledger/run.py", "--workload",
             "txn-active", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            try:
                test()
            except Exception:  # report and go on to the next test
                failed += 1
                print(f"FAIL {name}\n{traceback.format_exc()}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failed else 0)
