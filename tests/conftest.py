"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.memory.rio import RioMemory
from repro.vista.api import EngineConfig

MB = 1024 * 1024

#: Small sizes keep the suite fast; semantics do not depend on size.
SMALL_CONFIG = EngineConfig(
    db_bytes=256 * 1024,
    log_bytes=128 * 1024,
)


@pytest.fixture
def small_config() -> EngineConfig:
    return SMALL_CONFIG


@pytest.fixture
def rio() -> RioMemory:
    return RioMemory("test-node")


def make_rio(name: str = "test-node") -> RioMemory:
    return RioMemory(name)
