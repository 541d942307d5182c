"""Shared-featurization LOGO evaluation engine (the grid hot path).

The representation x model grids (paper Figs. 4 and 7) evaluate nine
(representation, model) cells over the same campaign set.  The naive path
rebuilds everything per cell: probe sampling, profile featurization,
per-fold robust scalers and — when two representations encode targets
identically — even the fitted fold models.  This module splits the work
by what it actually depends on:

* a **design** (:class:`FewRunsDesign` / :class:`CrossSystemDesign`)
  holds everything derived from the campaign set alone: sampled probes,
  profile-feature rows, group labels, measured relative times.  Built
  once per grid, reused by all nine cells.
* **target matrices** (and, for use case 2, design matrices) depend on
  the representation's *encoding* only; they are cached per
  :attr:`~repro.core.representations.DistributionRepresentation.encoding_key`,
  so the two four-moment representations share one matrix.
* **fold predictions** depend on (encoding, model).  The design memoizes
  the per-fold predicted vectors under that pair, so e.g. the
  ``pearsonrnd`` cells reuse the models fitted for ``pymaxent`` and pay
  only for KS scoring.
* per-fold **robust scalers** depend on the feature rows only, so use
  case 1 shares them across all cells.

Every cached artifact is a pure function of its key, which is what makes
the sharing bit-identical to the naive per-cell recomputation: the same
arrays flow into the same operations in the same order.

Every fold runs in :func:`_fit_predict_fold`, on a tiny task —
``(model, array refs, folds)``, each fold a ``(held-out benchmark, probe
row, scaler params)`` tuple — and re-derives its ``X[mask]``/``Y[mask]``
views from the full design arrays.  A task holds one fold, or for
lockstep-capable hist boosting one contiguous group of folds per worker,
grown as a single batch.  Serial runs (``n_workers == 1``, or a model
seeded with a stateful generator) call it in-process on the arrays
themselves; pooled runs fan the same tasks out across a
:class:`~repro.parallel.worker_pool.WorkerPool` (the grid
runners pass a persistent one; ad-hoc calls get a transient pool),
whose store publishes each array once — as a shared-memory segment, or
inline in the task pickle where shared memory is unusable.  Folds are
independent by construction — each held-out benchmark refit consumes
only per-fold inputs, and the KS-scoring RNG is keyed per benchmark with
:func:`~repro.parallel.seeding.seed_for` — so worker count, pool reuse
and the transport never change results.

When :mod:`repro.obs` is enabled the engine emits one ``fold`` span per
in-process task, or one ``fold_batch`` span per parallel dispatch, plus
the ``engine.*`` dedup/hit counters documented in
``docs/OBSERVABILITY.md``; all of it is bit-neutral bookkeeping.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .._validation import check_positive_int, check_random_state
from ..data.dataset import RunCampaign
from ..errors import ValidationError
from ..ml.base import Regressor
from ..ml.binning import BinMapper, BinnedMatrix
from ..ml.boosting import can_lockstep, fit_predict_folds
from ..ml.scaling import RobustScaler
from ..parallel.seeding import seed_for
from ..parallel.shm import attach
from ..parallel.worker_pool import WorkerPool
from .features import FeatureConfig, profile_features
from .representations import DistributionRepresentation

__all__ = ["FewRunsDesign", "CrossSystemDesign", "logo_fold_vectors"]

_PROBE_SEED = 909090


def _fit_predict_fold(task) -> list[np.ndarray]:
    """Fit a group of LOGO folds and predict each held-out probe vector.

    Top-level so it pickles for pool dispatch; the serial path calls it
    in-process.  ``task`` is ``(model, refs, folds)``: ``refs`` maps
    ``"Y"``, ``"groups"`` and the payload — ``"X"``, or the binned
    ``"codes"``/``"n_bins"``/``"lo"``/``"hi"`` — to refs that
    :func:`~repro.parallel.shm.attach` resolves, and each fold is
    ``(bench, probe, center, scale)``.  Returns one vector per fold, in
    ``folds`` order.

    A model that satisfies :func:`~repro.ml.boosting.can_lockstep` grows
    the whole group as one :func:`~repro.ml.boosting.fit_predict_folds`
    batch on the binned codes.  Every other model fits its folds one by
    one: the training rows are re-derived from the full arrays and put
    through the parent-fitted robust scaler, so every transport feeds
    the model bit-identical matrices.  Binned codes are invariant under
    that scaling; only the bin bounds move.  The clone makes each fit
    independent of any sibling fold.
    """
    model, refs, folds = task
    arrays = {name: attach(ref) for name, ref in refs.items()}
    Y = arrays["Y"]
    binned = None
    if "codes" in arrays:
        binned = BinnedMatrix(
            codes=arrays["codes"],
            n_bins=arrays["n_bins"],
            lo=arrays["lo"],
            hi=arrays["hi"],
        )
    # (training mask, scaler params, scaled probe row) per fold — the
    # fold spec fit_predict_folds takes.
    specs = [
        (arrays["groups"] != bench, center, scale,
         _scaler(center, scale).transform(probe[None, :])[0])
        for bench, probe, center, scale in folds
    ]
    if can_lockstep(model, [spec[0] for spec in specs]):
        return fit_predict_folds(model, binned, Y, specs)
    vectors = []
    for mask, center, scale, xp in specs:
        fitted = model.clone()
        if binned is None:
            fitted.fit(_scaler(center, scale).transform(arrays["X"][mask]), Y[mask])
        else:
            fitted.fit_binned(binned.scaled(center, scale).take_rows(mask), Y[mask])
        vectors.append(fitted.predict(xp[None, :])[0])
    return vectors


def _scaler(center: np.ndarray, scale: np.ndarray) -> RobustScaler:
    """A :class:`~repro.ml.scaling.RobustScaler` with the given fitted parameters."""
    scaler = RobustScaler()
    scaler.center_ = center
    scaler.scale_ = scale
    return scaler


def _hist_model(model: Regressor) -> bool:
    """Whether *model* trains on the pre-binned histogram path."""
    return getattr(model, "tree_method", None) == "hist"


def _wants_serial(model: Regressor) -> bool:
    """Whether folds must be fitted in-process, one by one, in order.

    A stateful ``np.random.Generator`` on the model is advanced by each
    successive fold; pickling would hand every worker the same generator
    state.  Registry models carry integer seeds and parallelize freely.
    """
    return isinstance(getattr(model, "rng", None), np.random.Generator)


def logo_fold_vectors(
    X: np.ndarray,
    Y: np.ndarray,
    groups: np.ndarray,
    probe_features: dict[str, np.ndarray],
    model: Regressor,
    *,
    n_workers: int = 1,
    scaled_folds: dict | None = None,
    pool: WorkerPool | None = None,
    binned: BinnedMatrix | None = None,
) -> dict[str, np.ndarray]:
    """Predicted representation vector per held-out benchmark.

    For every benchmark name in ``probe_features`` (sorted), fit
    ``model`` on the rows of all *other* groups (robust-scaled) and
    predict the benchmark's probe vector.  Returns name -> vector.

    ``scaled_folds`` optionally caches the per-fold fitted
    :class:`~repro.ml.scaling.RobustScaler` keyed by benchmark; it
    depends only on ``(X, groups)``, so a grid sweep can share it across
    every (representation, model) cell and probe kind with the same
    feature rows.

    ``pool`` optionally supplies a persistent
    :class:`~repro.parallel.worker_pool.WorkerPool`; without one, a
    transient pool is created per call.  The pool's store publishes the
    payload once and fold tasks ship only its refs (see
    :func:`_fit_predict_fold`).

    For a hist-mode model (``model.tree_method == "hist"``), ``binned``
    optionally supplies the pre-binned matrix of ``X`` (the engine's
    designs cache one per encoding); when absent it is built here.  The
    payload is then the binned codes and bounds instead of ``X``, so the
    one-time binning pass is shared by every fold.

    Folds travel as tasks of :func:`_fit_predict_fold`, in-process at
    ``n_workers == 1`` or for a model that must stay serial
    (:func:`_wants_serial`), and through the pool otherwise.  Most
    models get one fold per task, which lets adaptive chunking balance
    the pool.  A boosting model that satisfies
    :func:`~repro.ml.boosting.can_lockstep` gets ``min(n_workers,
    n_folds)`` contiguous fold groups instead, and each group grows its
    folds' round-``r`` trees as one batch
    (:func:`~repro.ml.boosting.fit_predict_folds`): the batch kernel
    amortizes per-node overhead within a worker, the pool spreads the
    groups across workers.

    Results are bit-identical for any ``n_workers``, with or without a
    persistent pool, on either transport: each fold consumes only its
    own inputs and a deterministic model clone.
    """
    names = sorted(probe_features)
    hist = _hist_model(model)
    if hist and binned is None:
        binned = BinMapper().fit_transform(X)
    scalers = []
    for bench in names:
        scaler = None if scaled_folds is None else scaled_folds.get(bench)
        if scaler is None:
            obs.counter("engine.scaled_folds.misses")
            scaler = RobustScaler().fit(X[groups != bench])
            if scaled_folds is not None:
                scaled_folds[bench] = scaler
        else:
            obs.counter("engine.scaled_folds.hits")
        scalers.append(scaler)
    obs.counter("engine.folds.fitted", len(names))
    if hist:
        payload = {"codes": binned.codes, "n_bins": binned.n_bins,
                   "lo": binned.lo, "hi": binned.hi}
    else:
        payload = {"X": X}
    payload.update(Y=Y, groups=groups)
    folds = [
        (bench, probe_features[bench], scaler.center_, scaler.scale_)
        for bench, scaler in zip(names, scalers)
    ]
    if can_lockstep(model, [groups != bench for bench in names]):
        # One contiguous group per worker; each grows as one lockstep batch.
        n_groups = min(n_workers, len(folds))
        cuts = [len(folds) * g // n_groups for g in range(n_groups + 1)]
        tasks = [folds[a:b] for a, b in zip(cuts, cuts[1:])]
    else:
        # One fold per task, so adaptive chunking balances the pool.
        tasks = [[fold] for fold in folds]
    if n_workers == 1 or _wants_serial(model):
        # The arrays are their own (inline) refs in-process.
        vectors = []
        for task in tasks:
            with obs.span("fold", benchmark=task[0][0], n_folds=len(task)):
                vectors.extend(_fit_predict_fold((model, payload, task)))
    elif pool is not None:
        vectors = _dispatch_folds(pool, model, payload, tasks, n_workers)
    else:
        with WorkerPool(n_workers) as transient:
            vectors = _dispatch_folds(transient, model, payload, tasks, n_workers)
    return dict(zip(names, vectors))


def _dispatch_folds(
    pool: WorkerPool,
    model: Regressor,
    payload: dict[str, np.ndarray],
    tasks: list[list[tuple]],
    n_workers: int,
) -> list[np.ndarray]:
    """Fan fold *tasks* out through *pool*, publishing *payload* once.

    Returns the tasks' vectors flattened, in fold order.  The pool's
    store decides the transport (shared memory, or inline refs pickled
    with the tasks); the published arrays are deduplicated by identity,
    so a design's matrices are published once per run.
    """
    store = pool.shm
    refs = {name: store.publish(array) for name, array in payload.items()}
    if store.transport == "shm":
        # What the tasks would carry if each were pickled on its own.
        per_task = sum(array.nbytes for array in payload.values())
        obs.counter("pool.shm_bytes_saved", per_task * len(tasks))
    with obs.span("fold_batch", n_folds=sum(map(len, tasks)),
                  n_workers=n_workers, plane=store.transport):
        results = pool.map(_fit_predict_fold, [(model, refs, task) for task in tasks])
    return [vector for vectors in results for vector in vectors]


class _VectorCacheMixin:
    """Memoized (encoding, model, probe-spec) -> fold-prediction vectors."""

    def __init__(self) -> None:
        self._fold_vectors: dict[tuple[str, str, str], dict[str, np.ndarray]] = {}
        self._binned: dict[str, BinnedMatrix] = {}

    def _binned_matrix(self, X: np.ndarray, key: str) -> BinnedMatrix:
        """Pre-binned *X*, cached next to the fold-vector memo.

        One :class:`~repro.ml.binning.BinMapper` fit per (X, encoding):
        every tree, boosting round and LOGO fold of every hist-mode cell
        with the same feature rows shares the codes.
        """
        hit = self._binned.get(key)
        if hit is not None:
            obs.counter("binning.cache_hits")
            return hit
        obs.counter("binning.cache_misses")
        binned = BinMapper().fit_transform(X)
        self._binned[key] = binned
        return binned

    def fold_vectors(
        self,
        model: Regressor,
        representation: DistributionRepresentation,
        *,
        model_key: str | None = None,
        n_workers: int = 1,
        pool=None,
        probe_spec=None,
    ) -> dict[str, np.ndarray]:
        """Per-benchmark fold predictions, cached by (model, encoding, probe).

        ``model_key`` must identify the model's hyperparameters (the
        registry name does); pass ``None`` for ad-hoc model instances to
        bypass the cache.  ``pool`` optionally carries a persistent
        :class:`~repro.parallel.worker_pool.WorkerPool` shared across
        grid cells.

        ``probe_spec`` optionally switches the *evaluation probes* to
        percentile-only sketches (a
        :class:`~repro.core.sketch.SketchProbeSpec`): training still
        consumes full distributions, but each held-out prediction is made
        from the probe's quantile summary.  The spec's key namespaces the
        memo, so sketch and sample evaluations never share a cache entry.
        """
        spec_key = "samples" if probe_spec is None else probe_spec.key
        key = None
        if model_key is not None:
            key = (model_key, representation.encoding_key, spec_key)
            hit = self._fold_vectors.get(key)
            if hit is not None:
                obs.counter("engine.fold_vectors.hits")
                return hit
        obs.counter("engine.fold_vectors.misses")
        vectors = self._compute_fold_vectors(
            model,
            representation,
            n_workers=n_workers,
            pool=pool,
            probe_spec=probe_spec,
        )
        if key is not None:
            self._fold_vectors[key] = vectors
        return vectors

    def _compute_fold_vectors(
        self, model, representation, *, n_workers, pool, probe_spec=None
    ):
        raise NotImplementedError


class FewRunsDesign(_VectorCacheMixin):
    """Use-case-1 featurization, shared across a grid of cells.

    Construction performs all representation-independent work: training
    probes are sampled and profiled into the feature matrix ``X`` (with
    ``groups`` labels), evaluation probes are profiled per benchmark,
    and measured relative-time distributions are extracted.  Identical,
    row for row, to what :func:`repro.core.predictors.build_few_runs_rows`
    plus the evaluation-probe loop produce.
    """

    def __init__(
        self,
        campaigns: dict[str, RunCampaign],
        *,
        n_probe_runs: int = 10,
        n_replicas: int = 8,
        feature_config: FeatureConfig | None = None,
        seed: int = _PROBE_SEED,
    ) -> None:
        super().__init__()
        check_positive_int(n_probe_runs, name="n_probe_runs")
        check_positive_int(n_replicas, name="n_replicas")
        self.n_probe_runs = n_probe_runs
        self.n_replicas = n_replicas
        self.seed = seed
        self.names: list[str] = sorted(campaigns)
        cfg = feature_config or FeatureConfig()
        self.feature_config = cfg

        rows_x, groups = [], []
        self.measured: dict[str, np.ndarray] = {}
        self.probe_features: dict[str, np.ndarray] = {}
        self.eval_probes: dict[str, RunCampaign] = {}
        for name in self.names:
            campaign = campaigns[name]
            if campaign.n_runs < n_probe_runs:
                raise ValidationError(
                    f"{name} has {campaign.n_runs} runs < n_probe_runs={n_probe_runs}"
                )
            rng = check_random_state(seed_for(seed, "probe", name, str(n_probe_runs)))
            for _ in range(n_replicas):
                probe = campaign.sample_runs(n_probe_runs, rng)
                rows_x.append(profile_features(probe, cfg))
                groups.append(name)
            eval_rng = check_random_state(
                seed_for(seed, "eval-probe", name, str(n_probe_runs))
            )
            eval_probe = campaign.sample_runs(n_probe_runs, eval_rng)
            self.eval_probes[name] = eval_probe
            self.probe_features[name] = profile_features(eval_probe, cfg)
            self.measured[name] = campaign.relative_times()
        self.X = np.asarray(rows_x)
        self.groups = np.asarray(groups)
        self._targets: dict[str, np.ndarray] = {}
        self._scaled_folds: dict = {}
        self._sketch_features: dict[str, dict[str, np.ndarray]] = {}

    def sketch_probe_features(self, probe_spec) -> dict[str, np.ndarray]:
        """Per-benchmark eval features recovered from sketched probes.

        Each evaluation probe — the *same* sampled probe campaign the
        full-sample path profiles — is summarized to percentiles per the
        :class:`~repro.core.sketch.SketchProbeSpec` and featurized from
        the sketch alone (training rows are untouched: train-full,
        predict-from-percentiles).  Cached per spec key.
        """
        hit = self._sketch_features.get(probe_spec.key)
        if hit is not None:
            return hit
        features = {
            name: probe_spec.probe_from_campaign(probe).features(
                self.feature_config
            )
            for name, probe in self.eval_probes.items()
        }
        self._sketch_features[probe_spec.key] = features
        return features

    def target_matrix(self, representation: DistributionRepresentation) -> np.ndarray:
        """Encoded full-distribution targets, one row per training row.

        Cached per encoding key — the two moment representations share
        one matrix.
        """
        key = representation.encoding_key
        Y = self._targets.get(key)
        if Y is None:
            obs.counter("engine.targets.misses")
            rows = []
            for name in self.names:
                target = representation.encode(self.measured[name])
                rows.extend([target] * self.n_replicas)
            Y = np.asarray(rows)
            self._targets[key] = Y
        else:
            obs.counter("engine.targets.hits")
        return Y

    def rows(self, representation: DistributionRepresentation):
        """(X, Y, groups) — bit-identical to ``build_few_runs_rows``."""
        return self.X, self.target_matrix(representation), self.groups

    def _compute_fold_vectors(
        self, model, representation, *, n_workers, pool, probe_spec=None
    ):
        # Use case 1 has one feature matrix for every encoding, so a
        # single binned cache entry covers the whole grid.
        binned = self._binned_matrix(self.X, "uc1") if _hist_model(model) else None
        if probe_spec is None:
            probe_features_map = self.probe_features
        else:
            probe_features_map = self.sketch_probe_features(probe_spec)
        return logo_fold_vectors(
            self.X,
            self.target_matrix(representation),
            self.groups,
            probe_features_map,
            model,
            n_workers=n_workers,
            scaled_folds=self._scaled_folds,
            pool=pool,
            binned=binned,
        )


class CrossSystemDesign(_VectorCacheMixin):
    """Use-case-2 featurization, shared across a grid of cells.

    The use-case-2 feature rows concatenate a profile block with the
    *encoded* source distribution, so the design matrix itself depends on
    the representation's encoding.  Construction does everything
    upstream of that — bootstrap replica sampling, profile featurization
    and relative-time extraction — and :meth:`rows` assembles the
    per-encoding matrices on demand (cached by encoding key).  Row
    order and values match
    :func:`repro.core.predictors.build_cross_system_rows` exactly.
    """

    def __init__(
        self,
        source: dict[str, RunCampaign],
        target: dict[str, RunCampaign],
        *,
        n_replicas: int = 4,
        replica_fraction: float = 0.5,
        feature_config: FeatureConfig | None = None,
        seed: int = _PROBE_SEED,
    ) -> None:
        super().__init__()
        check_positive_int(n_replicas, name="n_replicas")
        common = sorted(set(source) & set(target))
        if not common:
            raise ValidationError("source and target campaigns share no benchmarks")
        self.names = common
        self.n_replicas = n_replicas
        self.seed = seed
        cfg = feature_config or FeatureConfig()
        self.feature_config = cfg

        # Per benchmark: replica profile blocks and relative times (the
        # first replica is the full source campaign), plus the measured
        # target distribution.
        self._profiles: dict[str, list[np.ndarray]] = {}
        self._src_times: dict[str, list[np.ndarray]] = {}
        self.measured: dict[str, np.ndarray] = {}
        groups = []
        self._source_full: dict[str, RunCampaign] = {}
        for name in common:
            src, dst = source[name], target[name]
            rng = check_random_state(seed_for(seed, "xsys", name))
            n_half = max(2, int(src.n_runs * replica_fraction))
            profiles, times = [], []
            for r in range(n_replicas):
                probe = src if r == 0 else src.sample_runs(n_half, rng)
                profiles.append(profile_features(probe, cfg))
                times.append(probe.relative_times())
                groups.append(name)
            self._profiles[name] = profiles
            self._src_times[name] = times
            self._source_full[name] = src
            self.measured[name] = dst.relative_times()
        self.groups = np.asarray(groups)
        self._matrices: dict[str, tuple] = {}
        self._sketch_probes: dict[str, dict] = {}
        self._sketch_rows: dict[tuple[str, str], dict[str, np.ndarray]] = {}

    def sketch_probe_features(
        self, representation: DistributionRepresentation, probe_spec
    ) -> dict[str, np.ndarray]:
        """Per-benchmark eval rows recovered from sketched source campaigns.

        The full-sample path evaluates from the complete source campaign
        (profile block ++ encoded source distribution); the sketch path
        summarizes that same campaign to percentiles first and recovers
        both blocks from the sketch.  Cached per (encoding, spec) pair.
        """
        key = (representation.encoding_key, probe_spec.key)
        hit = self._sketch_rows.get(key)
        if hit is not None:
            return hit
        probes = self._sketch_probes.get(probe_spec.key)
        if probes is None:
            probes = {
                name: probe_spec.probe_from_campaign(src)
                for name, src in self._source_full.items()
            }
            self._sketch_probes[probe_spec.key] = probes
        rows = {
            name: np.concatenate(
                [
                    p.features(self.feature_config),
                    p.encode_distribution(representation),
                ]
            )
            for name, p in probes.items()
        }
        self._sketch_rows[key] = rows
        return rows

    def rows(self, representation: DistributionRepresentation):
        """(X, Y, groups) — bit-identical to ``build_cross_system_rows``."""
        X, Y, _probe, _folds = self._encoded(representation)
        return X, Y, self.groups

    def probe_matrix(self, representation: DistributionRepresentation):
        """Per-benchmark evaluation features (full source campaign)."""
        _X, _Y, probe, _folds = self._encoded(representation)
        return probe

    def _encoded(self, representation: DistributionRepresentation):
        key = representation.encoding_key
        cached = self._matrices.get(key)
        if cached is None:
            obs.counter("engine.targets.misses")
            rows_x, rows_y = [], []
            probe: dict[str, np.ndarray] = {}
            for name in self.names:
                y = representation.encode(self.measured[name])
                for prof, times in zip(self._profiles[name], self._src_times[name]):
                    rows_x.append(
                        np.concatenate([prof, representation.encode(times)])
                    )
                    rows_y.append(y)
                # Evaluation features reuse the full-campaign replica.
                probe[name] = np.concatenate(
                    [
                        self._profiles[name][0],
                        representation.encode(self._src_times[name][0]),
                    ]
                )
            cached = (np.asarray(rows_x), np.asarray(rows_y), probe, {})
            self._matrices[key] = cached
        else:
            obs.counter("engine.targets.hits")
        return cached

    def _compute_fold_vectors(
        self, model, representation, *, n_workers, pool, probe_spec=None
    ):
        X, Y, probe, folds = self._encoded(representation)
        if probe_spec is not None:
            # Training matrices stay full-sample; only the held-out
            # evaluation rows switch to sketch recovery.
            probe = self.sketch_probe_features(representation, probe_spec)
        # Use case 2's feature rows embed the encoded source
        # distribution, so the binned matrix is per encoding.
        binned = (
            self._binned_matrix(X, representation.encoding_key)
            if _hist_model(model)
            else None
        )
        return logo_fold_vectors(
            X,
            Y,
            self.groups,
            probe,
            model,
            n_workers=n_workers,
            scaled_folds=folds,
            pool=pool,
            binned=binned,
        )
