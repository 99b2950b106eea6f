"""Engine factory and version registry."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.rio import RioMemory
from repro.vista import ENGINE_VERSIONS, EngineConfig, create_engine, engine_class
from repro.vista.v0_vista import VistaEngine
from repro.vista.v3_inline_log import InlineLogEngine


def test_registry_has_the_paper_versions_in_order():
    assert list(ENGINE_VERSIONS) == ["v0", "v1", "v2", "v3"]


def test_engine_class_resolution():
    assert engine_class("v0") is VistaEngine
    assert engine_class("v3") is InlineLogEngine


def test_unknown_version_rejected():
    with pytest.raises(ConfigurationError):
        engine_class("v9")


def test_create_engine_builds_regions_in_rio():
    rio = RioMemory("factory")
    config = EngineConfig(db_bytes=32 * 1024, log_bytes=16 * 1024)
    engine = create_engine("v3", rio, config)
    assert rio.has_region("db")
    assert rio.has_region("ulog")
    assert engine.VERSION == "v3"


def test_create_with_address_space_places_regions():
    from repro.memory.mapping import AddressSpace

    rio = RioMemory("factory-space")
    space = AddressSpace()
    config = EngineConfig(db_bytes=32 * 1024, log_bytes=16 * 1024)
    engine = engine_class("v1").create(rio, config, space)
    bases = {region.base for region in engine.regions.values()}
    assert 0 not in bases
    assert len(bases) == len(engine.regions)


def test_default_config_used_when_none():
    engine = create_engine("v3", RioMemory("factory-default"))
    assert engine.config.db_bytes == EngineConfig().db_bytes


def test_titles_match_paper_naming():
    assert ENGINE_VERSIONS["v0"].TITLE == "Version 0 (Vista)"
    assert ENGINE_VERSIONS["v1"].TITLE == "Version 1 (Mirror by Copy)"
    assert ENGINE_VERSIONS["v2"].TITLE == "Version 2 (Mirror by Diff)"
    assert ENGINE_VERSIONS["v3"].TITLE == "Version 3 (Improved Log)"
