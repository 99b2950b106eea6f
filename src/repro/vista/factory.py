"""Engine construction by version name."""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.errors import ConfigurationError
from repro.memory.rio import RioMemory
from repro.vista.api import EngineConfig, TransactionEngine
from repro.vista.v0_vista import VistaEngine
from repro.vista.v1_mirror_copy import MirrorCopyEngine
from repro.vista.v2_mirror_diff import MirrorDiffEngine
from repro.vista.v3_inline_log import InlineLogEngine

#: Version tag -> engine class, in the paper's order.
ENGINE_VERSIONS: Dict[str, Type[TransactionEngine]] = {
    VistaEngine.VERSION: VistaEngine,
    MirrorCopyEngine.VERSION: MirrorCopyEngine,
    MirrorDiffEngine.VERSION: MirrorDiffEngine,
    InlineLogEngine.VERSION: InlineLogEngine,
}


def engine_class(version: str) -> Type[TransactionEngine]:
    """Resolve a version tag ('v0'..'v3') to its engine class."""
    try:
        return ENGINE_VERSIONS[version]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine version {version!r}; "
            f"expected one of {sorted(ENGINE_VERSIONS)}"
        ) from None


def create_engine(
    version: str,
    rio: RioMemory,
    config: Optional[EngineConfig] = None,
    fresh: bool = True,
) -> TransactionEngine:
    """Create an engine of the given version over regions in ``rio``
    (placed in no address space: a replicated system places its own
    through ``engine_class(version).create``)."""
    return engine_class(version).create(rio, config, fresh=fresh)
