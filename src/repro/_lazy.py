"""Package namespaces that import a name's module on its first use (PEP 562).

A package whose ``__init__`` imported every public name would make each
``import repro.<anything>`` pay for all of them.  A package built with
:func:`lazy_exports` imports nothing up front: ``repro.obs.MetricsRegistry``
or ``from repro.obs import MetricsRegistry`` imports ``repro.obs.metrics``
the first time the name is asked for, and the name is then an ordinary
attribute of the package.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, source: dict[str, str]):
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``source`` maps each name the package exports to the module defining it.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value  # later reads find it without this hook
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *source})

    return sorted(source), __getattr__, __dir__
