"""Estimator protocol shared by all models in :mod:`repro.ml`.

A deliberately small sklearn-like contract: ``fit(X, y) -> self``,
``predict(X) -> y_hat``, plus parameter introspection for reporting.  All
models support **multi-output regression** (``y`` of shape
``(n_samples, n_outputs)``) because the paper's targets are whole
distribution representations — histogram bin vectors or four-moment
vectors — never scalars.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from .._validation import as_float_array, check_2d, check_matching_length
from ..errors import NotFittedError, ValidationError

__all__ = [
    "Regressor",
    "validate_fit_inputs",
    "validate_binned_targets",
    "validate_predict_input",
]


def _check_targets(y, rows: np.ndarray, rows_name: str) -> np.ndarray:
    """Validate targets for fitting: finite, 1-D or 2-D, one per row of
    *rows*.

    Returns ``y`` of shape (n, k); a 1-D target is promoted to a
    single-column matrix.  Every failure is a
    :class:`~repro.errors.ValidationError`.
    """
    yv = as_float_array(y, name="y")
    if yv.ndim == 1:
        yv = yv.reshape(-1, 1)
    if yv.ndim != 2:
        raise ValidationError(f"y must be 1-D or 2-D, got shape {yv.shape}")
    check_matching_length(rows, yv, names=(rows_name, "y"))
    return yv


def validate_fit_inputs(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate and normalize (X, y) for fitting.

    Returns ``X`` of shape (n, d) and ``y`` of shape (n, k); a 1-D target
    is promoted to a single-column matrix.  NaN or infinite values in
    either raise :class:`~repro.errors.ValidationError`.
    """
    Xv = check_2d(X, name="X")
    return Xv, _check_targets(y, Xv, "X")


def validate_binned_targets(binned, y) -> np.ndarray:
    """Validate ``y`` for an X-free fit on a binned matrix.

    The ``fit_binned`` twin of :func:`validate_fit_inputs`: the same
    target checks, against the binned row count.
    """
    return _check_targets(y, binned.codes, "binned matrix")


def validate_predict_input(model: "Regressor", X) -> np.ndarray:
    """Validate X at predict time against the fitted feature count."""
    if not model.is_fitted:
        raise NotFittedError(f"{type(model).__name__} must be fitted before predict")
    Xv = check_2d(X, name="X")
    if Xv.shape[1] != model.n_features_:
        raise ValidationError(
            f"{type(model).__name__} was fitted with {model.n_features_} features "
            f"but predict received {Xv.shape[1]}"
        )
    return Xv


class Regressor(ABC):
    """Base class for multi-output regressors.

    Subclasses set ``n_features_`` and ``n_outputs_`` in :meth:`fit` and
    implement :meth:`_predict` on validated input.
    """

    n_features_: int
    n_outputs_: int

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return hasattr(self, "n_features_")

    @abstractmethod
    def fit(self, X, y) -> "Regressor":
        """Fit the model; returns self for chaining."""

    def predict(self, X) -> np.ndarray:
        """Predict targets for *X*; shape ``(n, n_outputs)``."""
        Xv = validate_predict_input(self, X)
        return self._predict(Xv)

    @abstractmethod
    def _predict(self, X: np.ndarray) -> np.ndarray:
        """Prediction on already-validated input."""

    def get_params(self) -> dict[str, Any]:
        """Constructor parameters (for logging and cloning)."""
        sig = inspect.signature(type(self).__init__)
        return {
            name: getattr(self, name)
            for name in sig.parameters
            if name != "self" and hasattr(self, name)
        }

    def clone(self) -> "Regressor":
        """A fresh unfitted copy with the same hyperparameters."""
        return type(self)(**self.get_params())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"
