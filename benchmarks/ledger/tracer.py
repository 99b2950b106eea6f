"""The ledger's own tracer: boundary spans, a stack sampler, timers.

Deliberately independent of ``repro.obs`` — the measuring instrument
cannot live in the code under test. Three instruments, all attached
from outside and only in the traced pass:

* :class:`Tracer` — a span (name, start, end, parent, shared
  ``run_id``) around every boundary call the ledger makes; kept in
  memory, written out when the pass ends. Self time = span minus
  children.
* :class:`Sampler` — below those boundaries calls are too frequent to
  wrap, so a daemon thread samples the main thread's stack every 2 ms
  and attributes each sample to the nearest-to-leaf ``repro.<package>``
  frame. (The sampler takes the GIL at bytecode boundaries only, so a
  long C call is seen on its return — time inside numpy/bytes kernels
  lands on the ``repro`` frame that called them, which is the wanted
  attribution.)
* :func:`timed_calls` — wraps named public functions/methods with an
  accumulating wall-clock timer, restoring the originals on exit.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from spec import LAYERS

SAMPLE_INTERVAL_S = 0.002

#: ``repro.<package>`` -> layer. Every package is its own layer; the
#: self-test fails when ``src/repro`` grows a package missing here.
LAYER_OF_PACKAGE: Dict[str, str] = {package: package for package in LAYERS}


def layer_of_frame(frame) -> str:
    """The layer owning the nearest-to-leaf ``repro.<package>`` frame
    of this stack; ``other`` when there is none (ledger code, stdlib
    called from ledger code, interpreter start-up)."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro."):
            return LAYER_OF_PACKAGE.get(module.split(".", 2)[1], "other")
        frame = frame.f_back
    return "other"


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: every boundary is a shared no-op context."""

    enabled = False
    _span = _NullSpan()

    def span(self, name: str, **attrs):
        return self._span


class Tracer:
    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id, "start": time.perf_counter(), "end": None,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    spans = list(spans)
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


class Sampler:
    """Samples one thread's stack on a timer while ``sampling()``."""

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S):
        self.interval_s = interval_s
        self.counts: Dict[str, int] = {}
        self._target = threading.get_ident()
        self._active = False
        self._done = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="ledger-sampler", daemon=True)

    def _loop(self) -> None:
        counts = self.counts
        while not self._done.wait(self.interval_s):
            if not self._active:
                continue
            frame = sys._current_frames().get(self._target)
            if frame is not None:
                layer = layer_of_frame(frame)
                counts[layer] = counts.get(layer, 0) + 1

    @contextlib.contextmanager
    def sampling(self):
        self._thread.start()
        self._active = True
        try:
            yield self
        finally:
            self._active = False
            self._done.set()
            self._thread.join()

    def shares(self) -> Dict[str, float]:
        total = sum(self.counts.values())
        return {
            layer: (self.counts.get(layer, 0) / total if total else 0.0)
            for layer in LAYERS + ("other",)
        }


class CallTimer:
    """Accumulated wall-clock and call count of a wrapped callable.
    With ``count`` — a function of the call's positional arguments —
    also accumulates how far that reading advanced across each call."""

    def __init__(self, count: Optional[Callable] = None) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.counted = 0
        self._count = count

    def wrap(self, fn: Callable):
        timer = self
        count = self._count

        def wrapper(*args, **kwargs):
            before = count(args) if count is not None else 0
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timer.seconds += time.perf_counter() - started
                timer.calls += 1
                if count is not None:
                    timer.counted += count(args) - before

        wrapper.__wrapped__ = fn
        return wrapper


@contextlib.contextmanager
def timed_calls(targets: Iterable[Tuple[object, str]],
                count: Optional[Callable] = None):
    """Wrap each ``(owner, attribute)`` with one shared
    :class:`CallTimer` for the duration of the block."""
    timer = CallTimer(count)
    originals = []
    for owner, attribute in targets:
        original = getattr(owner, attribute)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, timer.wrap(original))
    try:
        yield timer
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


def write_trace(path, workload: str, seed: int, tracer: Tracer,
                sampler: Sampler) -> None:
    own = self_times(tracer.spans)
    origin = tracer.spans[0]["start"] if tracer.spans else 0.0
    payload = {
        "run_id": tracer.run_id, "workload": workload, "seed": seed,
        "clock": "host seconds since the first span",
        "spans": [
            dict(s, start=s["start"] - origin, end=s["end"] - origin,
                 self_s=own[s["id"]])
            for s in tracer.spans
        ],
        "sampler": {
            "interval_s": sampler.interval_s,
            "samples": sum(sampler.counts.values()),
            "counts": dict(sorted(sampler.counts.items())),
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
