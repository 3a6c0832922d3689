"""The package namespace is exactly the public names its modules declare."""

from __future__ import annotations

import importlib
import pkgutil

import qfactgraph

MODULES = tuple(
    importlib.import_module(f"qfactgraph.{name}")
    for name in ("dynkin", "errors", "families", "fgraph", "lweight", "primality", "redsets")
)


def declared(module) -> list[str]:
    """The module's __all__, or, for errors, which declares none, the
    exception classes it defines."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [
        name
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]


def test_package_exports_every_declared_name():
    missing = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in declared(module)
        if getattr(qfactgraph, name, None) is not getattr(module, name)
    ]
    assert missing == []


def test_package_exports_nothing_else():
    submodules = {m.name for m in pkgutil.iter_modules(qfactgraph.__path__)}
    public = {name for name in vars(qfactgraph) if not name.startswith("_")} - submodules
    assert public == {name for module in MODULES for name in declared(module)}
    assert not {"Vertex", "neighborhoods", "rset_same_node"} & public
