"""Machine-learning substrate (scikit-learn / XGBoost stand-in).

From-scratch NumPy implementations of exactly the models the paper
compares (Section III-B3):

* :class:`~repro.ml.knn.KNNRegressor` — k = 15, cosine distance (paper's
  winner);
* :class:`~repro.ml.forest.RandomForestRegressor` — bagged multi-output
  CART trees;
* :class:`~repro.ml.boosting.GradientBoostingRegressor` — XGBoost-style
  regularized boosting;

plus scalers and regression metrics.  The paper's leave-one-group-out
protocol runs in :mod:`repro.core.engine` as per-benchmark row masks.
"""

from .base import Regressor
from .boosting import GradientBoostingRegressor
from .forest import RandomForestRegressor
from .knn import KNNRegressor, pairwise_distances
from .metrics import mean_absolute_error, mean_squared_error, r2_score
from .scaling import RobustScaler, StandardScaler
from .tree import RegressionTree

__all__ = [
    "Regressor",
    "GradientBoostingRegressor",
    "RandomForestRegressor",
    "KNNRegressor",
    "pairwise_distances",
    "mean_absolute_error",
    "mean_squared_error",
    "r2_score",
    "RobustScaler",
    "StandardScaler",
    "RegressionTree",
]
