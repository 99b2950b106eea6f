"""The paper's tables and figures, and the extensions rendered from a
single result: one timed ``run``, its shape ``check()``, and the
rendering written to ``benchmarks/results/``.

One case per row of the runner's table. The ablation slices and the
sharding and quorum extensions have files of their own (they cut their
tables differently, or trace), so their rows are skipped here.
"""

import re

import pytest
from conftest import once

from repro.experiments.runner import EXPERIMENT_TABLE, check_and_render

ELSEWHERE = ("ablations", "sharding", "quorum")

#: Where this harness drives an experiment differently from the grid:
#: a shorter simulated horizon per SMP point keeps the suite quick.
RUN_OPTIONS = {"smp-validation": {"duration_us": 15_000.0}}


@pytest.mark.parametrize(
    "key", [key for key in EXPERIMENT_TABLE if key not in ELSEWHERE]
)
def test_paper_table(key, ctx, benchmark, emit):
    module, renderers = EXPERIMENT_TABLE[key]
    options = RUN_OPTIONS.get(key, {})
    result = once(benchmark, lambda: module.run(ctx, **options))
    # A renderer named for its table (``table5``) is a file of its
    # own; a module's other blocks share one file under its name.
    stem = module.__name__.rpartition(".")[2]
    files = {}
    for name, block in zip(renderers, check_and_render(result, renderers)):
        own = name if re.fullmatch(r"table\d", name) else stem
        files.setdefault(own, []).append(block)
    for name, blocks in files.items():
        emit(name, "\n\n".join(blocks))
