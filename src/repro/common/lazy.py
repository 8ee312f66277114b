"""Package exports that load on first use (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule, and everything they import, before its first
name is read.  :func:`lazy_exports` replaces that eager block with one
name -> submodule table::

    __getattr__, __dir__ = lazy_exports(__name__, {"EventBus": "events"})

A name is imported from its submodule when first read and then bound on
the package, so later reads are plain attribute lookups.  The table's
submodules stay reachable as attributes too (``repro.obs.profile`` after
``import repro.obs``), as they were when the package imported them.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``; ``exports`` maps each
    public name to the submodule (relative to ``package``) defining it."""
    submodules = frozenset(exports.values())

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is not None:
            value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
