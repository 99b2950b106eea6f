"""Package export tables cannot go stale.

For every ``repro`` package whose ``__init__`` declares ``__all__``:
no entry is listed twice, every entry resolves, and every public name
the ``__init__`` imports from ``repro`` is listed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _packages_with_all():
    found = []
    for init in sorted(SRC.glob("repro/**/__init__.py")):
        tree = ast.parse(init.read_text())
        if any(isinstance(node, ast.Assign)
               and any(getattr(target, "id", None) == "__all__"
                       for target in node.targets)
               for node in tree.body):
            found.append(".".join(init.parent.relative_to(SRC).parts))
    return found


def _imported_public_names(package: str) -> set:
    init = SRC.joinpath(*package.split("."), "__init__.py")
    names = set()
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("repro"):
            names.update(alias.asname or alias.name for alias in node.names)
    return {name for name in names if not name.startswith("_")}


PACKAGES = _packages_with_all()


def test_packages_are_found():
    assert {"repro", "repro.obs", "repro.sim", "repro.memory",
            "repro.san", "repro.hardware"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_export_table_is_current(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    for name in exported:
        getattr(module, name)  # raises AttributeError if it went stale
    missing = _imported_public_names(package) - set(exported)
    assert not missing, f"imported but not in __all__: {sorted(missing)}"
