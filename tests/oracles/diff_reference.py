"""The word-at-a-time diff loop: the oracle for
:func:`repro.fastpath.kernels.diff_runs_fast`.

One slice compare per word, a run opened at the first differing word
and closed at the next equal one. Version 2's mirror refresh and the
Merkle leaf compare ran on this loop before the big-int XOR kernel;
``tests/properties/test_kernel_properties.py`` holds the kernel equal
to it run for run, and ``test_diff_properties.py`` checks the loop's
own algebra (the runs patch ``old`` into ``new``, disjoint, sorted,
in bounds).
"""

from __future__ import annotations

from typing import Iterator, Tuple

_WORD = 4  # diff granularity: the Alpha writes in 4-byte words


def diff_runs(old: bytes, new: bytes, word: int = _WORD) -> Iterator[Tuple[int, int]]:
    """Yield (offset, length) runs of words where ``new`` differs from
    ``old``. Offsets are relative to the start of the buffers; runs are
    maximal and word-aligned (a trailing partial word is treated as one
    word)."""
    if len(old) != len(new):
        raise ValueError("diff buffers must have equal length")
    length = len(old)
    run_start = None
    offset = 0
    while offset < length:
        hi = min(offset + word, length)
        differs = old[offset:hi] != new[offset:hi]
        if differs and run_start is None:
            run_start = offset
        elif not differs and run_start is not None:
            yield run_start, offset - run_start
            run_start = None
        offset = hi
    if run_start is not None:
        yield run_start, length - run_start
