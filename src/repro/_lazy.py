"""Package attributes that import their submodule on first use (PEP 562).

A package init that re-exported its submodules eagerly made every
``import`` of the package pay for all of them: ``import repro`` loaded
numpy through ``repro.core``, and so did the fleet router, which needs
none of it.  A package built on :func:`lazy_exports` keeps its
``__all__`` and its ``from package import name`` surface, but a name's
submodule is imported only when the name is first looked up, and the
value is then cached on the package.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["lazy_exports"]


def lazy_exports(package: str, origins: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` for *package* that resolves names lazily.

    *origins* maps each submodule (relative, e.g. ``".core"``) to the
    public names it provides; a name equal to the submodule's own name
    (``".registry": ("registry",)``) stands for the submodule itself.
    Any other name raises :class:`AttributeError`, which is what lets
    ``from package import submodule`` fall back to a plain import.
    """
    where = {name: module for module, names in origins.items() for name in names}

    def __getattr__(name: str):
        """Import the submodule that defines *name*; cache and return it."""
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module, package)
        if module != "." + name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
