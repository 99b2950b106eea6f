"""Let ``pytest benchmarks/ledger`` collect ``selftest.py`` (which is
also a plain script and keeps that name)."""

import pytest


def pytest_collect_file(file_path, parent):
    if file_path.name == "selftest.py":
        return pytest.Module.from_parent(parent, path=file_path)
    return None
