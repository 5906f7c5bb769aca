"""Package exports that resolve on first use.

A package ``__init__`` names the module that defines each of its public
names and binds what :func:`lazy_exports` returns::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "bitmap": ("Bitmap",),
        "config": ("DapesConfig",),
    })

``from repro.core import Bitmap`` then imports ``repro.core.bitmap`` and no
other module of the package: the module ``__getattr__`` (PEP 562) imports
the owning module the first time a name is read and binds the name on the
package, so later reads are plain attribute lookups.  ``__dir__`` lists the
public names whether or not they were read yet.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of ``package`` from ``{submodule: names}``."""
    owner: Dict[str, str] = {
        name: f"{package}.{module}" for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return sorted(owner), __getattr__, __dir__
