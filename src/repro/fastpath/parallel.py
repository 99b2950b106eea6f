"""Process-pool fan-out for independent measurement tasks.

A thin wrapper over :class:`concurrent.futures.ProcessPoolExecutor`
that keeps the determinism contract explicit: tasks must be pure
(same task -> same result in any process), workers are top-level
picklable callables, and results come back in task order, so merging
is deterministic no matter how the pool interleaved the work.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence, TypeVar

Task = TypeVar("Task")
Result = TypeVar("Result")


def run_tasks(
    worker: Callable[[Task], Result],
    tasks: Sequence[Task],
    jobs: int,
) -> List[Result]:
    """Run ``worker`` over ``tasks``, ``jobs`` processes wide.

    Results are returned in task order. ``jobs <= 1`` (or a single
    task) runs inline — same code path the sequential runner uses, so
    ``--jobs 1`` is exactly the sequential runner.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(worker, tasks, chunksize=1))
