"""Simulator-core kernels: C-speed inner loops for the hot primitives.

The measurement pipeline spends its wall-clock in a handful of tiny
loops executed millions of times: comparing 4-byte words (Version 2's
mirror refresh, the Merkle leaf compare) and pushing/popping
simulation events. This module holds the data kernels; the event-queue
counterpart (:class:`repro.sim.events.BucketedEventQueue`) lives with
the simulator.

Each kernel has a plain-loop original under ``tests/oracles/`` and a
Hypothesis suite proving the two agree on every input shape (for the
diff: ``tests/oracles/diff_reference.py`` and
``tests/properties/test_kernel_properties.py``).

**The diff kernel.** ``diff_runs_fast`` converts both buffers to
Python ints once (``int.from_bytes`` — one C pass each) and XORs them
in C; equal regions are zero in the result. It then alternates two
C-speed searches over the XOR: ``(x & -x).bit_length()`` finds the
next differing word in one big-int operation regardless of how long
the equal gap is, and an aligned ``bytes.find`` of a zero word over
``x.to_bytes(...)`` finds where the differing run ends without
touching the words in between. Buffers are processed in fixed-size
chunks so big-int shifts stay small and equal chunks are skipped at
``memcmp`` speed, keeping the kernel linear for any input shape —
all-equal, all-different, and everything between.
"""

from __future__ import annotations

from typing import List, Tuple

#: Chunk size, in words, for the big-int diff scan. Chunking bounds
#: every big-int shift to an 8 KiB integer (at the default 4-byte
#: word) so the scan stays O(n) even for buffers with many runs.
_CHUNK_WORDS = 2048

_WORD = 4  # diff granularity: the Alpha writes in 4-byte words


def _run_end(xb: bytes, start: int, chunk_words: int, word: int, zero: bytes) -> int:
    """First word index > ``start`` whose XOR word is zero (the end of
    the differing run opening at ``start``), or ``chunk_words``.

    ``bytes.find`` locates ``word`` consecutive zero bytes at C speed;
    an occurrence can straddle a word boundary between two nonzero
    words, so the (at most two) aligned candidate words it implicates
    are verified with direct slice compares before moving on.
    """
    search = (start + 1) * word
    limit = chunk_words * word
    while search < limit:
        found = xb.find(zero, search)
        if found < 0:
            return chunk_words
        candidate = found // word
        base = candidate * word
        if xb[base : base + word] == zero:
            return candidate
        base += word
        if base < limit and xb[base : base + word] == zero:
            return candidate + 1
        search = base + word
    return chunk_words


def diff_runs_fast(old: bytes, new: bytes) -> List[Tuple[int, int]]:
    """The ``(offset, length)`` runs of :data:`_WORD`-byte words where
    ``new`` differs from ``old``, by big-int XOR.

    Offsets are relative to the start of the buffers; runs are maximal
    and word-aligned (a trailing partial word counts as one word).
    """
    length = len(old)
    if len(new) != length:
        raise ValueError("diff buffers must have equal length")
    runs: List[Tuple[int, int]] = []
    if length == 0 or old == new:
        return runs
    word = _WORD
    wordbits = word * 8
    zero_word = b"\x00" * word
    chunk_bytes = _CHUNK_WORDS * word
    run_start = None  # absolute byte offset of the currently open run
    pos = 0
    while pos < length:
        hi = min(pos + chunk_bytes, length)
        chunk_old = old[pos:hi]
        chunk_new = new[pos:hi]
        if chunk_old == chunk_new:
            if run_start is not None:
                runs.append((run_start, pos - run_start))
                run_start = None
            pos = hi
            continue
        x = int.from_bytes(chunk_old, "little") ^ int.from_bytes(
            chunk_new, "little"
        )
        chunk_words = (hi - pos + word - 1) // word
        xb = x.to_bytes(chunk_words * word, "little")
        w = 0  # chunk words consumed out of x so far
        while x:
            gap = ((x & -x).bit_length() - 1) // wordbits
            start = w + gap  # first differing word at or after w
            if gap and run_start is not None:
                # Whole zero words before the next set bit: an equal
                # gap, closing the open run, skipped in one operation.
                runs.append((run_start, pos + w * word - run_start))
                run_start = None
            if run_start is None:
                run_start = pos + start * word
            end = _run_end(xb, start, chunk_words, word, zero_word)
            if end >= chunk_words:
                # The run reaches the chunk edge; it may continue into
                # the next chunk, so leave it open.
                break
            runs.append((run_start, pos + end * word - run_start))
            run_start = None
            x >>= (end - w) * wordbits
            w = end
        pos = hi
    if run_start is not None:
        runs.append((run_start, length - run_start))
    return runs
