"""The sim-time time-series sampler: exactness and byte-identity.

The load-bearing properties:

* the sampler is an *observer*, never a participant — the experiment's
  rendered numbers are byte-identical with and without it, across
  processes and any sampling interval;
* windowed goodput derived from the cumulative completion column
  equals the trace's own per-window completion counts exactly;
* the canonical JSONL encoding round-trips losslessly and is identical
  whether the frame came from the live sampler or was rebuilt from the
  trace's ``series.sample`` events.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.series import (
    DipSummary,
    SeriesFrame,
    TimeSeriesSampler,
    derive_dip,
    router_probes,
    series_interval_us,
    snap_tick,
    windowed_goodput,
)


def _sharding_series_bytes(seed):
    """Worker for the cross-process byte-identity test (module level:
    must be picklable for the spawn pool)."""
    from repro.experiments.extension_sharding import failover_timeline

    return failover_timeline(seed=seed).series.to_bytes()


# -- frame basics ---------------------------------------------------


def test_frame_append_and_accessors():
    frame = SeriesFrame()
    frame.append(0.0, {"a": 1.0, "b": 10.0})
    frame.append(5.0, {"a": 2.0, "b": 9.0})
    assert len(frame) == 2
    assert frame.times_us == [0.0, 5.0]
    assert frame.values("a") == [1.0, 2.0]
    assert frame.series("b") == ([0.0, 5.0], [10.0, 9.0])
    assert frame.last("b") == 9.0


def test_frame_rejects_column_drift():
    frame = SeriesFrame()
    frame.append(0.0, {"a": 1.0})
    with pytest.raises(ValueError):
        frame.append(1.0, {"a": 1.0, "b": 2.0})


def test_jsonl_and_dict_round_trips(tmp_path):
    frame = SeriesFrame()
    for i in range(7):
        frame.append(i * 250.0, {"z.col": float(i), "a.col": i * 0.5})
    path = str(tmp_path / "frame.jsonl")
    frame.write_jsonl(path)
    again = SeriesFrame.read_jsonl(path)
    assert again.to_bytes() == frame.to_bytes()
    assert SeriesFrame.from_dict(frame.to_dict()).to_bytes() == frame.to_bytes()


def test_render_handles_empty_and_flat_series():
    assert "empty" in SeriesFrame().render()
    frame = SeriesFrame()
    for i in range(3):
        frame.append(float(i), {"flat": 4.0})
    text = frame.render()
    assert "flat" in text and "min 4" in text and "max 4" in text


# -- tick snapping and the env knob ---------------------------------


def test_snap_tick_divides_the_window_exactly():
    for requested, window, expected in [
        (333.0, 1000.0, 250.0),
        (1000.0, 1000.0, 1000.0),
        (499.0, 1000.0, 250.0),
        (500.0, 1000.0, 500.0),
    ]:
        snapped = snap_tick(requested, window)
        assert snapped == expected
        parts = window / snapped
        assert parts == int(parts)


def test_series_interval_env(monkeypatch):
    monkeypatch.delenv("REPRO_SERIES", raising=False)
    assert series_interval_us(1000.0, 1000.0) == 1000.0
    monkeypatch.setenv("REPRO_SERIES", "0")
    assert series_interval_us(1000.0, 1000.0) == 1000.0
    monkeypatch.setenv("REPRO_SERIES", "250")
    assert series_interval_us(1000.0, 1000.0) == 250.0
    monkeypatch.setenv("REPRO_SERIES", "1")
    # "1" means "on, pick a finer default", snapped to divide windows.
    fine = series_interval_us(1000.0, 1000.0)
    assert fine < 1000.0 and (1000.0 / fine) == int(1000.0 / fine)


# -- windowed derivations -------------------------------------------


def test_windowed_goodput_attributes_deltas_to_trailing_window():
    frame = SeriesFrame()
    # Ticks every 500 us, completions jump by 3 in (0, 500] and by 5
    # in (500, 1000]: both land in window 0 with 1000-us windows.
    for ts, total in [(0.0, 0.0), (500.0, 3.0), (1000.0, 8.0), (1500.0, 8.0),
                      (2000.0, 10.0)]:
        frame.append(ts, {"done": total})
    assert windowed_goodput(frame, "done", 1000.0) == [8.0, 2.0]


def test_derive_dip_finds_floor_and_recovery():
    windows = [8.0, 8.0, 6.0, 6.0, 7.0, 8.0, 8.0]
    dip = derive_dip(windows, 1000.0, 8.0)
    assert dip == DipSummary(
        normal=8.0, dip_start_window=2, dip_depth=2.0, dip_floor=6.0,
        recover_window=5, time_to_recover_us=3000.0,
    )
    assert dip.recover_window - dip.dip_start_window == 3
    assert derive_dip([8.0, 8.0], 1000.0, 8.0) is None


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10**6),
             min_size=1, max_size=40),
    st.sampled_from([250.0, 500.0, 1000.0]),
)
def test_goodput_sums_to_total_increase(increments, tick_us):
    """Conservation: however deltas are bucketed into windows, their
    sum is exactly the counter's total increase. Counters are
    integer-valued (completion counts, repair keys), so every delta
    and every partial sum is exactly representable."""
    frame = SeriesFrame()
    total = 0
    for i, inc in enumerate(increments):
        total += inc
        frame.append(i * tick_us, {"done": float(total)})
    deltas = windowed_goodput(frame, "done", 1000.0)
    assert sum(deltas) == frame.last("done") - frame.values("done")[0]


# -- the router probes ----------------------------------------------

SHARDS = 4
SCOPES = {f"shard.{i}": i for i in range(SHARDS)}


def _routed_cluster(seed, **router_kwargs):
    from repro.shard import Router, ShardedCluster, ShardedWorkload
    from repro.vista import EngineConfig

    config = EngineConfig(db_bytes=4 * 1024 * 1024, log_bytes=512 * 1024)
    # Passive v1 restores the whole mirror on takeover: outages last
    # milliseconds, long enough to retry through and to drop in.
    cluster = ShardedCluster(
        SHARDS, mode="passive", version="v1", config=config,
        heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
    )
    workload = ShardedWorkload("debit-credit", SHARDS, config.db_bytes, seed=seed)
    cluster.setup(workload)
    return cluster, workload, Router(cluster, workload, **router_kwargs)


def _scan_completed(router, shard_id):
    """The probe as it used to be: walk every routed transaction."""
    return lambda: float(sum(
        1 for t in router.transactions
        if t.shard_id == shard_id and t.completed_at_us is not None
    ))


def test_scope_probes_never_walk_the_transaction_list():
    """A tick costs O(scopes), not O(scopes x submitted): the probes
    read counters the router bumps, so iterating ``transactions``
    while a tick runs is a bug."""

    class Unscannable(list):
        ticking = False

        def __iter__(self):
            assert not self.ticking, "a series probe walked router.transactions"
            return super().__iter__()

    class TickMarkingSampler(TimeSeriesSampler):
        def _tick(self):
            router.transactions.ticking = True
            try:
                super()._tick()
            finally:
                router.transactions.ticking = False

    cluster, _workload, router = _routed_cluster(seed=13)
    router.transactions = Unscannable()
    sampler = TickMarkingSampler()
    sampler.add_probes(router_probes(router))
    sampler.attach(cluster.sim, 500.0, 4_000.0)
    for i in range(64):
        router.submit(at_us=i * 50.0)
    cluster.run_until(4_000.0)
    frame = sampler.frame
    assert len(frame) == 9
    assert frame.last("router.completed") == 64.0
    assert sum(frame.last(f"{scope}.completed") for scope in SCOPES) == 64.0
    assert len(list(router.transactions)) == 64  # scannable between ticks


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scope_probes_equal_the_brute_force_scan(seed):
    """Random offered load over two crashes, with retries and drops:
    every sample of every per-scope column is what scanning the whole
    transaction list at that tick would have counted."""
    import random

    rng = random.Random(seed)
    cluster, workload, router = _routed_cluster(
        seed, max_attempts=3, backoff_us=250.0
    )
    sampler = TimeSeriesSampler()
    sampler.add_probes(router_probes(router))
    sampler.add_probes({
        f"scan.{scope}": _scan_completed(router, shard_id)
        for scope, shard_id in SCOPES.items()
    })
    horizon = 60_000.0
    sampler.attach(cluster.sim, 500.0, horizon)
    first, second = rng.sample(range(SHARDS), 2)
    cluster.crash(first, 0, at_us=1_000.0)
    cluster.crash(second, 0, at_us=rng.choice([4_000.0, 9_000.0]))
    ranges = workload.partitioner.ranges
    for _ in range(400):
        shard = rng.randrange(SHARDS)
        router.submit(
            key=rng.randrange(ranges[shard].start, ranges[shard].stop),
            # Quarter-tick grid: submissions tie with sampler ticks.
            at_us=rng.randrange(0, 160) * 125.0,
        )
    cluster.run_until(horizon)

    assert len(cluster.takeovers) == 2
    assert router.retries > 0 and router.dropped > 0
    assert router.completed + router.dropped == router.routed == 400
    frame = sampler.frame
    for scope in SCOPES:
        assert frame.values(f"{scope}.completed") == frame.values(f"scan.{scope}")
    assert sum(router.completed_by_shard) == router.completed


# -- the sampler against the real experiment ------------------------


def test_sharding_series_matches_trace_and_is_deterministic():
    from repro.experiments.extension_sharding import failover_timeline

    a = failover_timeline(seed=42)
    b = failover_timeline(seed=42)
    assert a.series.to_bytes() == b.series.to_bytes()
    # Exactness: the series' windowed deltas equal the trace's counts.
    deltas = a.goodput_windows()
    counts = a.trace_report.window_counts(len(deltas))
    assert deltas == [float(c) for c in counts]
    # A different workload seed samples the same columns on the same
    # ticks (the seed varies keys and payloads, not the offered slots).
    c = failover_timeline(seed=7)
    assert c.series.names == a.series.names
    assert len(c.series) == len(a.series)


def test_sharding_series_bytes_identical_across_processes():
    from repro.fastpath.parallel import run_tasks

    seeds = [42, 7]
    sequential = [_sharding_series_bytes(seed) for seed in seeds]
    assert run_tasks(_sharding_series_bytes, seeds, 2) == sequential


def test_sampling_interval_does_not_change_the_experiment(monkeypatch):
    """A 4x finer tick changes how often we *look*, never what the
    system *does*: same goodput windows, same dip, more samples."""
    from repro.experiments.extension_sharding import failover_timeline

    monkeypatch.delenv("REPRO_SERIES", raising=False)
    coarse = failover_timeline(seed=42)
    monkeypatch.setenv("REPRO_SERIES", "250")
    fine = failover_timeline(seed=42)
    assert len(fine.series) > len(coarse.series)
    assert fine.goodput_windows() == coarse.goodput_windows()
    assert fine.series_dip() == coarse.series_dip()
    assert fine.series.last("router.completed") == \
        coarse.series.last("router.completed")


def test_frame_from_trace_events_is_byte_identical(tmp_path):
    from repro.obs import Observer, write_jsonl
    from repro.obs.export import read_jsonl
    from repro.experiments.extension_sharding import failover_timeline

    observer = Observer()
    timeline = failover_timeline(seed=42, observer=observer)
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(path, timeline.trace_events, metrics=observer.registry)
    events, _ = read_jsonl(path)
    rebuilt = SeriesFrame.from_events(events)
    assert rebuilt.to_bytes() == timeline.series.to_bytes()
