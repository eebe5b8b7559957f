"""Lazy package hubs (PEP 562): a hub imports a name when it is first used.

``repro/__init__.py`` and every sub-package ``__init__.py`` keep their
public names in one ``name -> defining module`` table and hand it to
:func:`lazy_hub`::

    __getattr__, __dir__, __all__ = lazy_hub(__name__, {
        "ChurnConfig": "repro.churn.model",
    })

Importing a hub therefore executes no other ``repro`` module; ``hub.name``
imports the defining module on first use.  The hub resolves through that
module on *every* access and never copies the value into its own
namespace: a name rebound in its defining module (``monkeypatch.setattr``,
the benchmark's timing shims) is seen through the hub and gone from it the
moment the module's binding is restored.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Tuple

__all__ = ["lazy_hub"]


def lazy_hub(
    package: str, table: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` of the hub ``package`` over ``table``."""

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(module), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])).union(table))

    return __getattr__, __dir__, list(table)
