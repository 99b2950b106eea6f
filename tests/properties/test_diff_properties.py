"""Property-based tests of the Version 2 diff algorithm: what any
correct diff must satisfy, asked of the shipped big-int kernel and of
the word loop that is its oracle."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.fastpath.kernels import diff_runs_fast
from tests.oracles.diff_reference import diff_runs

DIFFS = (diff_runs_fast, diff_runs)


@st.composite
def buffer_pair(draw):
    old = draw(st.binary(min_size=0, max_size=200))
    new = bytearray(old)
    # Mutate a few random spots.
    for _ in range(draw(st.integers(0, 5))):
        if not new:
            break
        position = draw(st.integers(0, len(new) - 1))
        new[position] = draw(st.integers(0, 255))
    return bytes(old), bytes(new)


@given(pair=buffer_pair())
@settings(max_examples=150, deadline=None)
def test_applying_runs_reconstructs_new(pair):
    old, new = pair
    for diff in DIFFS:
        patched = bytearray(old)
        for offset, length in diff(old, new):
            patched[offset : offset + length] = new[offset : offset + length]
        assert bytes(patched) == new


@given(pair=buffer_pair())
@settings(max_examples=150, deadline=None)
def test_runs_are_disjoint_sorted_and_in_bounds(pair):
    old, new = pair
    for diff in DIFFS:
        previous_end = -1
        for offset, length in diff(old, new):
            assert length > 0
            assert offset > previous_end
            assert offset + length <= len(old)
            previous_end = offset + length - 1


@given(data=st.binary(min_size=0, max_size=200))
@settings(max_examples=50, deadline=None)
def test_identical_buffers_produce_no_runs(data):
    for diff in DIFFS:
        assert list(diff(data, data)) == []


@given(pair=buffer_pair())
@settings(max_examples=100, deadline=None)
def test_run_bytes_never_exceed_buffer_and_cover_changes(pair):
    old, new = pair
    changed = {i for i in range(len(old)) if old[i] != new[i]}
    for diff in DIFFS:
        covered = set()
        for offset, length in diff(old, new):
            covered.update(range(offset, offset + length))
        assert changed <= covered
        assert len(covered) <= len(old)
