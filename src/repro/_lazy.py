"""Package re-exports that import their submodule on first use (PEP 562).

A package ``__init__`` re-exports its submodules' public names so that
``from repro.experiments import diff_reports`` works.  Importing every
such submodule when the package loads compiles code a run may never
call -- each process of a cold campaign, a CLI call or a benchmark
repetition starts a fresh interpreter.  :func:`lazy_exports` builds the
package's module-level ``__getattr__`` and ``__dir__`` instead: the
first lookup of a name imports its submodule and caches the value in
the package namespace, so later lookups are plain attribute reads.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``exports`` maps a submodule's dotted name to the
    names it provides on first use."""
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
