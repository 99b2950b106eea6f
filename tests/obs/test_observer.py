"""Trace events, the recorder, and the observer front-end."""

import pytest

from repro.obs import (
    NULL_OBSERVER,
    KIND_INSTANT,
    KIND_SPAN,
    NullObserver,
    Observer,
    TraceEvent,
    TraceRecorder,
)
from repro.obs.observer import (
    OBS_ENV_VAR,
    get_default_observer,
    resolve_observer,
)
from repro.obs.trace import select_events


# -- TraceEvent ---------------------------------------------------------------

def test_event_validation():
    with pytest.raises(ValueError):
        TraceEvent(0.0, "c", "n", kind="bogus")
    with pytest.raises(ValueError):
        TraceEvent(0.0, "c", "n", kind=KIND_INSTANT, dur_us=5.0)
    with pytest.raises(ValueError):
        TraceEvent(0.0, "c", "n", kind=KIND_SPAN, dur_us=-1.0)
    span = TraceEvent(10.0, "c", "n", kind=KIND_SPAN, dur_us=5.0)
    assert span.end_us == 15.0


def test_event_dict_round_trip():
    event = TraceEvent(3.5, "shard.1.router", "txn.retry",
                       attrs={"attempt": 2})
    assert TraceEvent.from_dict(event.to_dict()) == event
    span = TraceEvent(1.0, "cluster", "takeover", kind=KIND_SPAN,
                      dur_us=9.0, attrs={"bytes_restored": 4096})
    assert TraceEvent.from_dict(span.to_dict()) == span


def test_recorder_select():
    recorder = TraceRecorder()
    recorder.instant(1.0, "shard.0.router", "txn.submit", key=5)
    recorder.instant(2.0, "shard.1.router", "txn.submit", key=6)
    recorder.span(3.0, 4.0, "shard.1.cluster", "takeover")
    assert len(recorder) == 3
    assert len(recorder.select(name="txn.submit")) == 2
    assert len(recorder.select(component_prefix="shard.1")) == 2
    only = recorder.select(name="txn.submit", component_prefix="shard.1")
    assert [e.attrs["key"] for e in only] == [6]
    # Prefix match is dot-aware: "shard" matches, "shard.10" does not.
    assert len(recorder.select(component_prefix="shard")) == 3
    assert select_events(recorder.events, component_prefix="shard.10") == []
    recorder.clear()
    assert len(recorder) == 0


# -- Observer -----------------------------------------------------------------

def test_null_observer_is_inert_and_shared():
    assert not NULL_OBSERVER.enabled
    assert NULL_OBSERVER.scoped("x") is NULL_OBSERVER
    assert NULL_OBSERVER.metric_name("a.b") == "a.b"
    assert NULL_OBSERVER.now == 0.0
    # Every hook is a no-op.
    NULL_OBSERVER.count("c")
    NULL_OBSERVER.gauge("g", 1.0)
    NULL_OBSERVER.observe("h", 1.0)
    NULL_OBSERVER.event("c", "n", extra=1)
    NULL_OBSERVER.event_at(5.0, "c", "n")
    NULL_OBSERVER.span("c", "n", 0.0, 1.0)
    NULL_OBSERVER.bind_clock(lambda: 99.0)
    assert NULL_OBSERVER.now == 0.0


def test_observer_records_metrics_and_events():
    observer = Observer(clock=lambda: 42.0)
    observer.count("hits", 2)
    observer.gauge("depth", 7)
    observer.observe("lat", 12.0)
    event = observer.event("router", "txn.complete", shard=1)
    assert observer.registry.value("hits") == 2
    assert observer.registry.value("depth") == 7
    assert observer.registry.histogram("lat").count == 1
    assert event.ts_us == 42.0
    assert observer.event_at(7.0, "router", "txn.submit").ts_us == 7.0
    span = observer.span("cluster", "takeover", 10.0, 25.0, bytes_restored=3)
    assert span.dur_us == 15.0


def test_scoped_observer_prefixes_and_shares_state():
    root = Observer(clock=lambda: 1.0)
    shard = root.scoped("shard.3")
    shard.count("router.retries")
    event = shard.event("cluster", "fault.crash", node="p")
    assert root.registry.value("shard.3.router.retries") == 1
    assert event.component == "shard.3.cluster"
    assert shard.metric_name("x") == "shard.3.x"
    assert root.recorder is shard.recorder
    # Nested scoping composes prefixes; empty prefix is the identity.
    nested = shard.scoped("sub")
    assert nested.metric_name("y") == "shard.3.sub.y"
    assert shard.scoped("") is shard


def test_clock_binding_is_first_wins_through_scopes():
    root = Observer()
    shard = root.scoped("shard.0")
    assert shard.now == 0.0
    shard.bind_clock(lambda: 10.0)
    assert root.now == 10.0
    # Second binding loses...
    root.bind_clock(lambda: 99.0)
    assert shard.now == 10.0
    # ...unless forced.
    root.bind_clock(lambda: 99.0, force=True)
    assert shard.now == 99.0


# -- process default ----------------------------------------------------------

def test_default_observer_follows_env(monkeypatch):
    monkeypatch.delenv(OBS_ENV_VAR, raising=False)
    assert get_default_observer() is NULL_OBSERVER
    assert resolve_observer(None) is NULL_OBSERVER
    monkeypatch.setenv(OBS_ENV_VAR, "0")
    assert get_default_observer() is NULL_OBSERVER
    monkeypatch.setenv(OBS_ENV_VAR, "1")
    live = get_default_observer()
    assert isinstance(live, Observer)
    assert get_default_observer() is live  # one shared instance
    assert resolve_observer(None) is live
    mine = NullObserver()
    assert resolve_observer(mine) is mine  # explicit always wins


# -- the package's export table ------------------------------------------------


def test_every_public_name_resolves_and_the_lazy_table_cannot_rot():
    import importlib
    import inspect

    import repro.obs as obs

    assert len(set(obs.__all__)) == len(obs.__all__)
    assert set(obs._LAZY_EXPORTS) <= set(obs.__all__)
    for name in obs.__all__:
        value = getattr(obs, name)  # lazy names import their module here
        assert not inspect.ismodule(value), name
    for name, module_name in obs._LAZY_EXPORTS.items():
        module = importlib.import_module(module_name)  # the module exists
        assert getattr(obs, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        obs.no_such_name


_IMPORT_HYGIENE = """
import importlib, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("repro.obs"))

import repro
print(" ".join(loaded()))
# Each analysis module as the *first* repro.obs import: what an import
# cycle breaks, whichever side it is entered from.
for name in sys.argv[1:]:
    for module in loaded():
        del sys.modules[module]
    importlib.import_module("repro.obs." + name)
"""


def test_import_repro_loads_only_the_emitting_side_and_no_cycle():
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    analysis = ["alerts", "audit", "critpath", "diff", "report", "series", "slo"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _IMPORT_HYGIENE, *analysis],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    # The package's lazy table promises the analysis layer is never
    # forced on ``import repro``.
    assert proc.stdout.split() == ["repro.obs"] + [
        f"repro.obs.{name}" for name in
        ("export", "metrics", "observer", "recovery", "spans", "trace")
    ]
