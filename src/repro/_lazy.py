"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package lists what it re-exports as ``{module: names}`` and binds the
two hooks this module returns::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.core.spec": ("SynthesisConfig", ...),
    })

``import repro.core`` then loads no submodule; the first
``repro.core.SynthesisConfig`` (or ``from repro.core import
SynthesisConfig``) imports ``repro.core.spec`` and caches the name in
the package namespace. Importing a name through a package therefore
loads only the module that defines it, and a command pays only for the
modules it uses.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for a package namespace."""
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
