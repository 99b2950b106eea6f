"""The census's rules, on toy modules compiled through its instrument.

``tests/census.py`` compiles ``repro.*`` with a probe in every def and
branch body and fails on what no production run executes or varies.
What counts is pinned here.

Parameters: an explicit default or a ``None`` passed to a ``None``
default does not vary one; a non-default value does, positional or
keyword-only, and so does an equal value of another type. A
generator's resume is not a call. Blocks: one that never runs inside a
def that ran is found by its def and first statement, unless it is a
``raise`` (a check). Fields: a defaulted field of a frozen dataclass
that no construction varies is found; a field assigned after
construction is state, not a knob. An allow-list entry that is no
longer found is stale.
"""

import ast
import types
from pathlib import Path

from tests.census import (
    ALLOWED_BLOCKS,
    ALLOWED_FIELDS,
    REASONS,
    Census,
    _TEST,
    attribute_stores,
    judge,
)

TOYS = '''
from dataclasses import dataclass


def _recorder(observer, component="cluster"):
    return observer, component


def _optional(value=None):
    return value


def _positional(first, second=1):
    return first, second


def _keyword_only(*, flag=False):
    return flag


def _rebinding(limit=3):
    while limit:
        limit -= 1
        yield limit


def _never_called(knob=0):
    return knob


def _sign(x):
    if x < 0:
        raise ValueError("negative")
    if x == 0:
        return "zero"
    return "positive"


@dataclass(frozen=True)
class Knobs:
    size: int
    speed: float = 1.0


@dataclass
class Counter:
    hits: int = 0


def _bump(counter):
    counter.hits += 1
'''


def _run(calls) -> Census:
    """Compile :data:`TOYS` through a fresh census and run ``calls``
    on the module."""
    census = Census(attribute_stores([ast.parse(TOYS)]))
    toys = types.ModuleType("toys")
    census.execute(toys, TOYS, "<toys>")
    calls(toys)
    return census


def _varied(calls) -> dict:
    return {name: varied for (_, name), varied in _run(calls).varied.items()}


# -- parameters --------------------------------------------------------------


def test_an_explicit_default_does_not_count():
    varied = _varied(lambda toys: (toys._recorder(object(), "cluster"),
                                   toys._recorder(object())))
    assert varied == {"component": False}


def test_none_passed_to_a_none_default_does_not_count():
    assert _varied(lambda toys: toys._optional(None)) == {"value": False}


def test_a_positional_non_default_counts():
    varied = _varied(lambda toys: (toys._positional(0),
                                   toys._positional(0, 2)))
    assert varied == {"second": True}


def test_an_equal_value_of_another_type_counts():
    # True == 1, but a bool where the default is an int is a new value.
    assert _varied(lambda toys: toys._positional(0, True)) == {
        "second": True}


def test_a_keyword_only_non_default_counts():
    assert _varied(lambda toys: toys._keyword_only(flag=True)) == {
        "flag": True}


def test_a_generator_resume_does_not_count():
    assert _varied(lambda toys: list(toys._rebinding())) == {
        "limit": False}


def test_a_def_that_never_runs_has_no_parameters_watched():
    census = _run(lambda toys: toys._optional(1))
    assert "toys:_optional" not in census.never_ran()
    assert "toys:_never_called" in census.never_ran()
    assert ("toys:_never_called", "knob") not in census.varied


# -- blocks ------------------------------------------------------------------


def test_a_never_run_block_fails_by_def_and_first_statement():
    census = _run(lambda toys: toys._sign(5))
    unexplained, stale, _ = judge(census.dead_blocks(), {})
    assert unexplained == ['toys:_sign: return "zero"']
    assert not stale


def test_a_block_that_starts_with_raise_is_a_check():
    census = _run(lambda toys: (toys._sign(0), toys._sign(5)))
    assert census.dead_blocks() == set()
    assert census.dead_blocks(exempt=True) == {
        'toys:_sign: raise ValueError("negative")'}


def test_an_entry_for_a_block_that_runs_is_stale():
    census = _run(lambda toys: (toys._sign(0), toys._sign(5)))
    table = {REASONS[0]: ('toys:_sign: return "zero"',)}
    assert judge(census.dead_blocks(), table) == (
        [], ['toys:_sign: return "zero"'], [])


def test_an_entry_under_a_new_reason_fails():
    table = {"it seemed harmless": ('toys:_sign: return "zero"',)}
    assert judge({'toys:_sign: return "zero"'}, table)[2] == [
        "it seemed harmless"]


# -- fields ------------------------------------------------------------------


def test_a_never_varied_frozen_field_fails_by_name():
    census = _run(lambda toys: (toys.Knobs(1), toys.Knobs(2, speed=1.0)))
    unexplained, _, _ = judge(census.fixed_fields(), {})
    assert unexplained == ["toys:Knobs.speed"]


def test_a_field_varied_by_one_construction_passes():
    census = _run(lambda toys: (toys.Knobs(1), toys.Knobs(2, 0.5)))
    assert census.fixed_fields() == set()
    assert census.fields == {"toys:Knobs.speed": True}


def test_a_counter_assigned_after_construction_passes():
    def calls(toys):
        counter = toys.Counter()
        toys._bump(counter)

    census = _run(calls)
    assert census.fixed_fields() == set()
    assert "toys:Counter.hits" not in census.fields


# -- the allow-lists ---------------------------------------------------------


def test_every_test_an_entry_names_exists():
    root = Path(__file__).resolve().parents[1]
    for table in (ALLOWED_BLOCKS, ALLOWED_FIELDS):
        for test in table[_TEST].values():
            path, _, name = test.partition("::")
            name = name.rpartition("::")[2].partition("[")[0]
            assert f"def {name}(" in (root / path).read_text(), test
