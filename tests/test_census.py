"""The call census's parameter rule, on toy defs.

``tests/census.py`` fails on a defaulted parameter that no production
call binds to anything but its default. What counts as varied is
pinned here: an explicit default or a ``None`` passed to a ``None``
default does not count; a non-default value does, positional or
keyword-only, and so does an equal value of another type. A
generator's resume is a ``call`` event too, with the body's rebinding
in its locals; it does not count either.
"""

import os

from tests.census import Census


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


TOYS = (_recorder, _optional, _positional, _keyword_only, _rebinding,
        _never_called)


def _census():
    tracked = {
        (os.path.realpath(toy.__code__.co_filename),
         toy.__code__.co_firstlineno): toy.__name__
        for toy in TOYS
    }
    return Census(tracked)


def _varied(calls):
    census = _census()
    with census.recording():
        calls()
    return census


def test_an_explicit_default_does_not_count():
    census = _varied(lambda: (_recorder(object(), "cluster"),
                              _recorder(object())))
    assert census.varied == {("_recorder", "component"): False}


def test_none_passed_to_a_none_default_does_not_count():
    census = _varied(lambda: _optional(None))
    assert census.varied == {("_optional", "value"): False}


def test_a_positional_non_default_counts():
    census = _varied(lambda: (_positional(0), _positional(0, 2)))
    assert census.varied == {("_positional", "second"): True}


def test_an_equal_value_of_another_type_counts():
    # True == 1, but a bool where the default is an int is a new value.
    census = _varied(lambda: _positional(0, True))
    assert census.varied == {("_positional", "second"): True}


def test_a_keyword_only_non_default_counts():
    census = _varied(lambda: _keyword_only(flag=True))
    assert census.varied == {("_keyword_only", "flag"): True}


def test_a_generator_resume_does_not_count():
    census = _varied(lambda: list(_rebinding()))
    assert census.varied == {("_rebinding", "limit"): False}


def test_a_def_that_never_runs_has_no_parameters_watched():
    census = _varied(lambda: _optional(1))
    assert census.ran == {"_optional"}
    assert ("_never_called", "knob") not in census.varied
