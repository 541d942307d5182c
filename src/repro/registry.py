"""Unified component registry — the v2 lookup surface.

Regression models and distribution representations are looked up by
name through one namespace, with one error wording and a way to
discover what exists:

>>> from repro import registry
>>> registry.available()                            # doctest: +SKIP
{'model': ('knn', 'rf', 'xgboost'),
 'representation': ('histogram', 'pearsonrnd', 'pymaxent', 'quantile')}
>>> registry.model("knn")                           # doctest: +SKIP
KNNRegressor(n_neighbors=15, metric='cosine', weights='uniform')
>>> registry.representation("pearsonrnd")           # doctest: +SKIP
PearsonRndRepresentation(n_dims=4)

Unknown names raise :class:`~repro.errors.ValidationError` with
*did-you-mean* suggestions — including a cross-kind hint when the name
exists under the other kind (``registry.model("pearsonrnd")`` points at
``representation``).
"""

from __future__ import annotations

import difflib
from typing import Any

from .errors import ValidationError

__all__ = [
    "KINDS",
    "ASSUMPTIONS",
    "assumption",
    "available",
    "create",
    "model",
    "representation",
    "suggest",
]

#: The registered component kinds.
KINDS = ("model", "representation")

#: Registered moment-recovery assumptions for percentile-only probes
#: (see :mod:`repro.core.sketch`, which re-exports this tuple).  Not a
#: registry *kind* — assumptions are closed-set strategy names, not
#: instantiable components — but validated here (:func:`assumption`, the
#: one validator) so config errors carry did-you-mean hints.
ASSUMPTIONS = ("lognormal", "pearson")


def _tables() -> dict[str, dict[str, Any]]:
    """Kind -> (name -> factory) tables, resolved lazily to avoid import
    cycles with :mod:`repro.core`."""
    from .core.evaluation import MODELS
    from .core.representations import REPRESENTATIONS, _register_extensions

    if "quantile" not in REPRESENTATIONS:
        _register_extensions()
    return {"model": dict(MODELS), "representation": dict(REPRESENTATIONS)}


def available(kind: str | None = None) -> dict[str, tuple[str, ...]] | tuple[str, ...]:
    """Registered names, as ``kind -> names`` (or one kind's names).

    >>> sorted(available("model"))
    ['knn', 'rf', 'xgboost']
    """
    tables = _tables()
    if kind is None:
        return {k: tuple(sorted(tables[k])) for k in KINDS}
    if kind not in tables:
        raise ValidationError(f"unknown registry kind {kind!r}; choose from {KINDS}")
    return tuple(sorted(tables[kind]))


def suggest(kind: str, name: str) -> list[str]:
    """Close matches for a misspelled *name* within *kind* (did-you-mean)."""
    names = sorted(_tables()[kind])
    return difflib.get_close_matches(name.lower(), names, n=3, cutoff=0.5)


def create(kind: str, name: str, **kwargs) -> Any:
    """Instantiate a registered component by ``(kind, name)``.

    Models take no keyword arguments; representations forward *kwargs* to
    their constructor (e.g. ``create("representation", "quantile",
    n_quantiles=12)``).  Unknown names raise
    :class:`~repro.errors.ValidationError` with did-you-mean suggestions,
    including a cross-kind pointer when the name is registered under the
    other kind.
    """
    tables = _tables()
    if kind not in tables:
        raise ValidationError(f"unknown registry kind {kind!r}; choose from {KINDS}")
    key = name.lower()
    factory = tables[kind].get(key)
    if factory is None:
        hints = []
        close = suggest(kind, key)
        if close:
            hints.append(f"did you mean {', '.join(repr(c) for c in close)}?")
        for other in KINDS:
            if other != kind and key in tables[other]:
                hints.append(
                    f"{name!r} is a registered {other} — use "
                    f"registry.{other}({name!r})"
                )
        detail = " ".join(hints) or f"choose from {sorted(tables[kind])}"
        raise ValidationError(f"unknown {kind} {name!r}; {detail}")
    if kind == "model" and kwargs:
        raise ValidationError("registry models take no keyword arguments")
    return factory(**kwargs) if kwargs else factory()


def model(name: str) -> Any:
    """Fresh instance of a registered regression model."""
    return create("model", name)


def representation(name: str, **kwargs) -> Any:
    """Fresh instance of a registered distribution representation."""
    return create("representation", name, **kwargs)


def assumption(name: str) -> str:
    """Validate a sketch-probe assumption name; returns it canonical.

    >>> assumption("LogNormal")
    'lognormal'
    """
    if not isinstance(name, str):
        raise ValidationError(
            f"assumption must be a string, got {type(name).__name__}"
        )
    key = name.lower()
    if key not in ASSUMPTIONS:
        close = difflib.get_close_matches(key, ASSUMPTIONS, n=3, cutoff=0.5)
        hint = (
            f"did you mean {', '.join(repr(c) for c in close)}?"
            if close
            else f"choose from {ASSUMPTIONS}"
        )
        raise ValidationError(f"unknown assumption {name!r}; {hint}")
    return key
