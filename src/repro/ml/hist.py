"""Level-wise histogram split kernel for pre-binned regression trees.

The exact kernel in :mod:`repro.ml.tree` re-sorts every candidate column
and rebuilds an ``(n, f, k)`` cumulative tensor at every node; on the
small-n / many-node workloads of the Fig. 4 grid its cost is dominated
by per-node NumPy call overhead and slow per-axis scans.  This module
grows *all* frontier nodes of a batch of trees one level at a time on
the shared uint8 codes of a :class:`~repro.ml.binning.BinnedMatrix`:

* **Row arena** — the training rows of every tree live in one persistent
  index arena in which each frontier node owns a contiguous slice.  A
  level ends with one stable in-place partition of the split nodes'
  slices (left child rows first, right child rows after, original order
  preserved within each side), so ``leaf_of_row`` falls out of the
  arena for free and no level ever re-sorts rows.
* **Entries** — each active ``(row, candidate-feature)`` pair of a
  scoring node is one entry, kept sorted by ``(node, feature, bin
  code)``; the rank of a row inside its ``(node, feature)`` segment is
  exactly its position in the exact kernel's per-node sorted scan.
  With a full candidate set the sorted order of a child is a stable
  subsequence of its parent's, so entries are *propagated* by a
  computed scatter and never sorted after the root; per-node candidate
  draws (random forests) rebuild entries with one key sort per level.
  Entries are pruned aggressively: nodes too small to split again
  (``< max(3, min_samples_split, 2 * min_samples_leaf)``) and levels at
  the depth cap receive none.
* **Two-row fast path** — a node with exactly two rows needs no scan at
  all: every candidate feature that separates the rows yields the same
  split up to orientation, so the winner is resolved closed-form from
  two per-node scores (one per orientation), reproducing the rect
  scorer's float32 arithmetic and position-major tie-break exactly.
  Deep levels of depth-capped boosting trees are dominated by such
  nodes, which also generate no entries at all.
* **Rectangular scan** — mid-size nodes gather their targets into a
  ``(rank, segments, k)`` float32 rect whose *leading* axis is the
  within-segment rank, so the prefix scan is ``m`` contiguous SIMD
  slab-adds and left/right SSE scores come from two einsums over the
  rect.  Nodes are grouped into power-of-two size classes scored
  straight out of the entry arena; ranks past a segment's real size are
  padding, masked before the argmin, so scored positions see
  bit-identical arithmetic to an exact-size scan.
* **Dense histograms + sibling subtraction** — nodes at least
  ``2 x`` wider than the bin axis score on a dense per-(feature, bin)
  count/sum histogram instead (the classic GBDT regime, engaged when
  binning actually compresses: many rows per occupied bin).  After a
  split, only the *smaller* child's histogram is built from its rows;
  the sibling's is derived as ``parent - child``.  Counts are exact
  integers, so derived counts are bitwise identical to directly built
  ones; float32 target sums differ from a direct build only by
  association, which the kernel's existing float32 noise contract
  already absorbs (bit-exact on integer targets).
* **Fused boosting residuals** — when a :class:`BoostFusion` is passed,
  leaf finalization applies the regularized Newton step
  ``sum(resid) / (count + lambda)``, adds the shrunken leaf value into
  the caller's running prediction for exactly the leaf's rows, and
  rewrites the float64/float32 residual views in place — all inside the
  leaf-routing pass the kernel performs anyway.  The rows a boosting
  round grows on then need no separate ``tree._predict`` walk and no
  residual re-derivation; per-element arithmetic is identical to the
  unfused caller-side update, so results are bit-identical.
* **Split selection** — candidate positions are occupied-bin
  boundaries; ties are broken position-major (lowest candidate position
  first, then lowest feature position), matching the exact kernel's
  flat argmin, and thresholds are midpoints of the adjacent bins' raw
  value bounds with the exact kernel's rounding guard.  On losslessly
  binned data (every feature with at most ``max_bins`` distinct values)
  the scored quantities are the same sums the exact kernel forms, so
  trees agree whenever float32 association noise cannot flip a
  comparison — bit-for-bit on exactly representable (small integer)
  targets.

Counts are exact integers throughout; only target sums are float32.
The kernel is deterministic, and a tree does not depend on the other
trees in its batch: the scoring regime is a pure function of node size
and bin width, so neither the batch a forest is grown in nor the fold
groups a boosting round is cut into change a result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .. import obs
from ..errors import ValidationError

__all__ = [
    "TreeSpec",
    "GrownTree",
    "GrowStats",
    "BoostFusion",
    "grow_trees",
    "feature_code_order",
    "rebind_thresholds",
]

#: Max |y - y0| under which a node is pure (matches the exact kernel).
_PURITY_ATOL = 1e-15

#: Code-axis stride used for rf-mode sort keys (uint8 codes => 256).
_KEY_STRIDE = 256

#: Tie-break sentinel for the boundary argmin.
_INT64_MAX = np.iinfo(np.int64).max

#: Nodes at least this many times wider than the bin axis score on the
#: dense per-(feature, bin) histogram plane (with sibling subtraction);
#: below it the exact-size rank rect is faster because nearly every
#: occupied bin holds a single row and the bin axis only adds padding.
_HIST_MIN_WIDTH = 2

#: Smallest node scored through entry segments; two-row nodes take the
#: closed-form fast path and generate no entries.
_ENTRY_MIN = 3


@dataclass(frozen=True)
class TreeSpec:
    """One tree to grow: its training rows (with bootstrap multiplicity)
    and, for per-node candidate draws, its random generator."""

    rows: np.ndarray
    rng: object | None = None


@dataclass(frozen=True)
class GrownTree:
    """Flat arrays of a grown tree (same layout as the exact kernel).

    ``bin_left`` / ``bin_right`` keep the bin codes flanking each split's
    winning boundary (-1 on leaves).  Because codes are invariant under
    any positive per-feature affine transform, a caller can re-express
    every threshold in another scaling of the same matrix from these
    codes alone (:func:`rebind_thresholds`) — the fold-lockstep boosting
    path grows one batch of trees for all LOGO folds and rebinds
    per-fold thresholds afterwards.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    leaf_of_row: np.ndarray
    bin_left: np.ndarray | None = None
    bin_right: np.ndarray | None = None


@dataclass
class GrowStats:
    """Aggregate counters for one :func:`grow_trees` call.

    The timing buckets partition the kernel's wall time: ``build_s``
    covers entry maintenance and rect/histogram construction,
    ``scan_s`` the prefix scans, einsum scoring and argmin selection,
    ``partition_s`` the arena row partition and frontier bookkeeping,
    and ``leaf_s`` leaf finalization (including fused residual
    updates).  ``hist_subtractions`` counts nodes whose histogram was
    derived by sibling subtraction instead of built from rows;
    ``rows_partitioned`` counts arena row moves across all levels.
    """

    nodes: int = 0
    hist_subtractions: int = 0
    rows_partitioned: int = 0
    build_s: float = 0.0
    scan_s: float = 0.0
    partition_s: float = 0.0
    leaf_s: float = 0.0

    def add(self, other: "GrowStats") -> None:
        """Accumulate *other* (one fit's many calls, e.g. boosting rounds)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def emit(self, fits: int) -> None:
        """Record the ``tree.*`` counters and histograms of one fit that
        grew *fits* trees (``docs/OBSERVABILITY.md``)."""
        obs.counter("tree.fits", fits)
        obs.counter("tree.nodes", self.nodes)
        obs.counter("tree.hist_nodes", self.nodes)
        obs.counter("tree.hist_subtractions", self.hist_subtractions)
        obs.counter("tree.rows_partitioned", self.rows_partitioned)
        obs.observe("tree.hist_build_s", self.build_s)
        obs.observe("tree.scan_s", self.scan_s)
        obs.observe("tree.partition_s", self.partition_s)
        obs.observe("tree.leaf_s", self.leaf_s)


@dataclass
class BoostFusion:
    """In-kernel boosting residual fusion.

    When passed to :func:`grow_trees`, the ``y32``/``y64`` target
    arrays are treated as the boosting round's float32/float64
    *residual* views and leaf finalization (a) regularizes each leaf to
    the Newton step ``sum(resid) / (count + reg_lambda)``, (b) adds
    ``learning_rate * value`` into ``current`` for the leaf's rows, and
    (c) rewrites both residual views in place as
    ``targets - current`` — so when the call returns, ``current`` and
    the residual arrays are already positioned for the next round.
    All four arrays are mutated in place and must be float64 except the
    float32 mirror passed as ``y32``.
    """

    targets: np.ndarray
    current: np.ndarray
    learning_rate: float
    reg_lambda: float


def feature_code_order(codes: np.ndarray) -> np.ndarray:
    """``(d, n)`` per-feature row order of binned codes.

    :func:`grow_trees` builds a full-candidate root from it when no
    root entries are passed and derives all deeper orderings from the
    root by stable partition, never sorting again.
    """
    return np.ascontiguousarray(np.argsort(codes, axis=0, kind="stable").T)


def rebind_thresholds(tree: GrownTree, cols, lo, hi) -> np.ndarray:
    """Thresholds of *tree* re-expressed against other bin bounds.

    ``cols`` maps the tree's feature positions to columns of the
    ``(d, B)`` ``lo``/``hi`` bound arrays (``None`` when the tree was
    grown on the full matrix).  Uses the same midpoint + rounding-guard
    arithmetic as the in-kernel threshold computation, so on the bounds
    the tree was grown with it reproduces ``tree.threshold`` bit for
    bit; on another positive rescaling of the same matrix it yields the
    thresholds a solo fit in that scaling would have produced.
    """
    thr = np.array(tree.threshold, copy=True)
    s = np.flatnonzero(tree.feature >= 0)
    if s.size == 0:
        return thr
    f = tree.feature[s]
    g = f if cols is None else np.asarray(cols)[f]
    hi_l = hi[g, tree.bin_left[s]]
    lo_r = lo[g, tree.bin_right[s]]
    t = 0.5 * (hi_l + lo_r)
    thr[s] = np.where(t >= lo_r, hi_l, t)
    return thr


def _ranges(starts, counts):
    """Concatenated ``[s, s+c)`` ranges — vectorized multi-arange."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    # Jump at each range start; counts must all be positive.
    out[np.cumsum(counts)[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(out)


def _draw_candidates(specs, node_tree, d, F):
    """Per-node candidate features, one batched draw per tree per level.

    Each tree's generator advances by exactly one ``random((m, d))``
    call per level it is active in, regardless of batch composition, so
    a tree grown solo draws the same candidates as one grown jointly.
    """
    L = node_tree.size
    cand = np.empty((L, F), dtype=np.int64)
    bounds = np.searchsorted(node_tree, np.arange(len(specs) + 1))
    for t in range(len(specs)):
        lo, hi = bounds[t], bounds[t + 1]
        if lo == hi:
            continue
        r = specs[t].rng.random((hi - lo, d))
        part = np.argpartition(r, F - 1, axis=1)[:, :F]
        cand[lo:hi] = np.sort(part, axis=1)
    return cand


def _score_fast2(Ca, Cb, ya, yb):
    """Closed-form best split for two-row nodes.

    Every candidate feature separating the rows induces the same
    {left, right} partition up to orientation, so per node only two
    float32 scores exist — one per orientation.  Both are computed with
    the rect scorer's exact arithmetic (``lc = rc = 1`` divisions drop
    out bitwise) and the winner replicates its position-major argmin:
    lowest feature position among those attaining the minimum score.
    """
    n2 = Ca.shape[0]
    tot = ya + yb
    tt = np.einsum("nk,nk->n", tot, tot)
    la = np.einsum("nk,nk->n", ya, ya)
    lb = np.einsum("nk,nk->n", yb, yb)
    da = np.einsum("nk,nk->n", ya, tot)
    db = np.einsum("nk,nk->n", yb, tot)
    sa = -(la + (tt - 2.0 * da + la))
    sb = -(lb + (tt - 2.0 * db + lb))

    dif = Ca != Cb
    aleft = dif & (Ca < Cb)
    bleft = dif & (Ca > Cb)
    has_a = aleft.any(axis=1)
    has_b = bleft.any(axis=1)
    fa = np.argmax(aleft, axis=1)
    fb = np.argmax(bleft, axis=1)
    best_a = np.where(has_a, sa, np.inf)
    best_b = np.where(has_b, sb, np.inf)
    use_a = (best_a < best_b) | ((best_a == best_b) & (fa < fb))
    fpos = np.where(use_a, fa, fb)
    ok = has_a | has_b

    r = np.arange(n2)
    ca = Ca[r, fpos]
    cb = Cb[r, fpos]
    return ok, fpos, np.minimum(ca, cb), np.maximum(ca, cb)


def _score_rect(ent_g, ent_code, slot_off, m_slot, m_pad, F, y32,
                min_leaf, stats, timing):
    """Best split per slot from a rank-rect prefix scan.

    Scores one power-of-two size class: every selected slot has
    ``m_slot[i] <= m_pad`` rows, and its entry segments are addressed
    directly in the level's entry arena (``slot_off`` is each slot's
    first-entry offset), so no per-bucket gather is materialized.  The
    rect is rank-major — rank ``r`` of every segment lives in one
    contiguous ``(S, k)`` slab — so the prefix scan is ``m_pad`` dense
    slab-adds and each einsum reduction streams whole slabs.  Ranks at
    or past a slot's real size are padding (they gather entry 0) and
    are masked before the argmin, so scored positions see bit-identical
    arithmetic to an exact-size scan.  Scores come from two einsums
    over the rect plus small ``(rank, segment)`` arithmetic; invalid
    positions (non-boundaries, min-leaf violations) are masked to
    ``inf`` before a dense position-major argmin.
    """
    tic = time.perf_counter if timing else (lambda: 0.0)
    t0 = tic()
    n_slots = m_slot.size
    S = n_slots * F
    k = y32.shape[1]
    seg_base = (slot_off[:, None]
                + np.arange(F) * m_slot[:, None]).ravel().astype(np.int32)
    m_seg = np.repeat(m_slot, F)
    r_row = np.arange(m_pad, dtype=np.int32)
    idx = seg_base[:, None] + r_row[None, :]
    idx[r_row[None, :] >= m_seg[:, None]] = 0
    rect = np.take(
        y32, np.take(ent_g, idx.T.ravel()), axis=0
    ).reshape(m_pad, S, k)
    if timing:
        t1 = time.perf_counter()
        stats.build_s += t1 - t0
        t0 = t1
    for i in range(1, m_pad):
        rect[i] += rect[i - 1]

    tot = rect[m_seg - 1, np.arange(S)]
    tt = np.einsum("sk,sk->s", tot, tot)
    ls2 = np.einsum("msk,msk->ms", rect, rect)
    dot = np.einsum("msk,sk->ms", rect, tot)
    rs2 = tt[None, :] - 2.0 * dot + ls2

    lc = (r_row.astype(np.float32) + 1.0)[:, None]
    rc = m_seg.astype(np.float32)[None, :] - lc
    score = -(ls2 / lc + rs2 / np.maximum(rc, 1.0))

    # Valid positions: occupied-bin boundaries with both children big
    # enough.  Entries r and r + 1 share a segment whenever
    # r < m_slot - 1; padded ranks never qualify.
    ec = ent_code[idx]
    valid = np.zeros((m_pad, S), dtype=bool)
    valid[: m_pad - 1] = (ec[:, :-1] != ec[:, 1:]).T
    valid &= (r_row + 1)[:, None] < m_seg[None, :]
    if min_leaf > 1:
        valid &= (lc >= min_leaf) & (rc >= min_leaf)
    score[~valid] = np.inf

    # Position-major argmin (rank first, then feature position),
    # matching the exact kernel's flat argmin over (position, feature).
    sc3 = score.reshape(m_pad, n_slots, F)
    rmin = np.argmin(sc3, axis=0)
    vmin = np.min(sc3, axis=0)
    vbest = vmin.min(axis=1)
    ok = np.isfinite(vbest)
    tied = vmin == vbest[:, None]
    prio = np.where(tied, rmin * F + np.arange(F), _INT64_MAX)
    fpos = np.argmin(prio, axis=1)
    rbest = rmin[np.arange(n_slots), fpos]

    e_best = seg_base[np.arange(n_slots) * F + fpos] + rbest
    e_best = np.minimum(e_best, ent_code.size - 2)
    if timing:
        stats.scan_s += time.perf_counter() - t0
    return ok, fpos, ent_code[e_best], ent_code[e_best + 1]


def _score_hist(er_b, ec_b, msel, F, B, y32, min_leaf, sub_ctx, stats,
                timing):
    """Best split per slot from dense per-(feature, bin) histograms.

    For nodes with ``m >= _HIST_MIN_WIDTH * B`` rows, the per-bin
    count/float32-sum histogram is cheaper than the rank rect because
    the scan axis collapses from ``m`` rows to ``B`` bins.  ``sub_ctx``
    optionally supplies ``(ph_cnt, ph_sum, ph_idx, pid)``: retained raw
    parent histograms plus, per selected slot, its parent-histogram
    index and sibling-pair id.  When both children of a retained parent
    land in this scorer, only the *smaller* one is built from its rows
    and the sibling is derived as ``parent - child`` (exact for integer
    counts; float32 sums differ from a direct build only by
    association).  Returns per-slot ``(ok, fpos, bl, br)`` plus the raw
    ``(cnt, hsum)`` histograms for retention.
    """
    from scipy import sparse

    tic = time.perf_counter if timing else (lambda: 0.0)
    t0 = tic()
    n_h = msel.size
    S_h = n_h * F
    k = y32.shape[1]
    E = er_b.size

    direct = np.ones(n_h, dtype=bool)
    pairs = []
    if sub_ctx is not None:
        ph_cnt, ph_sum, ph_idx, pid = sub_ctx
        cand = np.flatnonzero(ph_idx >= 0)
        if cand.size > 1:
            o = cand[np.argsort(pid[cand], kind="stable")]
            same = np.flatnonzero(pid[o[1:]] == pid[o[:-1]])
            for j in same:
                a, b = int(o[j]), int(o[j + 1])
                # Build the smaller child, derive the larger (ties:
                # build the first in slot order) — deterministic, so
                # batch composition cannot change which side is exact.
                small, big = (a, b) if msel[a] <= msel[b] else (b, a)
                direct[big] = False
                pairs.append((small, big))

    cnt = np.zeros((n_h, F, B), dtype=np.int64)
    hsum = np.empty((n_h, F, B, k), dtype=np.float32)
    e_sizes = msel * F
    e_off = np.concatenate([[0], np.cumsum(e_sizes)])
    if direct.all():
        er_d, ec_d, m_d = er_b, ec_b, msel
    else:
        dsel = np.flatnonzero(direct)
        eidx = _ranges(e_off[dsel], e_sizes[dsel])
        er_d, ec_d, m_d = er_b[eidx], ec_b[eidx], msel[dsel]
    seg_d = np.repeat(
        np.arange(m_d.size * F), np.repeat(m_d, F)
    )
    key = seg_d * B + ec_d
    cnt[direct] = np.bincount(
        key, minlength=m_d.size * F * B
    ).reshape(m_d.size, F, B)
    # Sum histogram via CSR matmul: rows are (segment, bin) cells in
    # entry order, so each cell accumulates its rows code-sorted —
    # the same sequential association as a scatter-add.
    indptr = np.concatenate([[0], np.cumsum(cnt[direct].ravel())])
    P = sparse.csr_matrix(
        (np.ones(er_d.size, dtype=np.float32), er_d, indptr),
        shape=(m_d.size * F * B, y32.shape[0]),
    )
    hsum[direct] = (P @ y32).reshape(m_d.size, F, B, k)

    for small, big in pairs:
        p = ph_idx[small]
        cnt[big] = ph_cnt[p] - cnt[small]
        hsum[big] = ph_sum[p] - hsum[small]
    stats.hist_subtractions += len(pairs)
    if timing:
        t1 = time.perf_counter()
        stats.build_s += t1 - t0
        t0 = t1

    # Prefix scans over the bin axis, slab style on a (B, S, k) copy so
    # the raw histograms survive for retention.  An explicit copy: with
    # one (slot, feature) segment the transpose is already contiguous,
    # and ascontiguousarray would scan the retained histogram itself.
    cnt2 = cnt.reshape(S_h, B)
    hT = hsum.reshape(S_h, B, k).transpose(1, 0, 2).copy()
    for b in range(1, B):
        hT[b] += hT[b - 1]
    ccnt = np.cumsum(cnt2, axis=1)

    tot = hT[B - 1]
    tt = np.einsum("sk,sk->s", tot, tot)
    ls2 = np.einsum("bsk,bsk->bs", hT, hT)
    dot = np.einsum("bsk,sk->bs", hT, tot)
    rs2 = tt[None, :] - 2.0 * dot + ls2

    m_seg = np.repeat(msel, F).astype(np.float32)
    lc = ccnt.T.astype(np.float32)
    rc = m_seg[None, :] - lc
    valid = (cnt2.T > 0) & (ccnt.T < np.repeat(msel, F)[None, :])
    if min_leaf > 1:
        valid &= (lc >= min_leaf) & (rc >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = -(ls2 / lc + rs2 / np.maximum(rc, 1.0))
    score[~valid] = np.inf

    # Bin-major argmin: within a feature the lowest bin is the lowest
    # rank; across features ties resolve by (rank, feature position).
    sc3 = score.reshape(B, n_h, F)
    bmin = np.argmin(sc3, axis=0)
    vmin = np.min(sc3, axis=0)
    vbest = vmin.min(axis=1)
    ok = np.isfinite(vbest)
    cc3 = np.ascontiguousarray(ccnt.T).reshape(B, n_h, F)
    ii, jj = np.meshgrid(np.arange(n_h), np.arange(F), indexing="ij")
    rank_at = cc3[bmin, ii, jj] - 1
    tied = vmin == vbest[:, None]
    prio = np.where(tied, rank_at * F + np.arange(F), _INT64_MAX)
    fpos = np.argmin(prio, axis=1)
    bwin = bmin[np.arange(n_h), fpos]

    # Right bin of the winning boundary: next occupied bin above it.
    occ_idx = np.where(cnt2 > 0, np.arange(B), B)
    suffix = np.minimum.accumulate(occ_idx[:, ::-1], axis=1)[:, ::-1]
    seg_win = np.arange(n_h) * F + fpos
    nxt = np.minimum(bwin + 1, B - 1)
    br = suffix[seg_win, nxt]
    br = np.minimum(br, B - 1).astype(np.uint8)
    if timing:
        stats.scan_s += time.perf_counter() - t0
    return ok, fpos, bwin.astype(np.uint8), br, cnt, hsum


def grow_trees(binned, y32, y64, specs, *, n_cand, max_depth,
               min_samples_split, min_samples_leaf, root_entries=None,
               boost=None, timing=False):
    """Grow a batch of trees level-wise on pre-binned codes.

    Parameters
    ----------
    binned:
        :class:`~repro.ml.binning.BinnedMatrix` shared by all trees.
    y32 / y64:
        ``(n, k)`` float32 targets (split scoring) and float64 targets
        (leaf means), both over the *global* rows of ``binned``.  With
        ``boost`` these are the boosting round's residual views and are
        rewritten in place at leaf finalization.
    specs:
        One :class:`TreeSpec` per tree.  All specs must use the same
        mode: full candidate set (``n_cand >= d``, ``rng`` unused) or
        per-node draws (``rng`` required).
    root_entries:
        Optional pre-built root entry arrays ``(rows, codes)`` for the
        full-candidate path: the concatenation, spec-major then
        feature-major, of each spec's rows stably sorted by bin code,
        plus the matching bin codes.  Callers growing many rounds on
        the same codes (the boosting round loop) pass this to skip the
        per-call root sort; rows must be duplicate-free per spec.
    boost:
        Optional :class:`BoostFusion` fusing the boosting-round Newton
        leaf step, running-prediction update and residual rewrite into
        leaf finalization.

    Returns ``(trees, stats)`` with one :class:`GrownTree` per spec.
    """
    codes = binned.codes
    n_glob, d = codes.shape
    k = y32.shape[1]
    F = int(min(n_cand, d))
    full_cand = F == d
    T = len(specs)
    if T == 0:
        raise ValidationError("grow_trees needs at least one TreeSpec")
    for s in specs:
        if np.asarray(s.rows).size == 0:
            raise ValidationError("grow_trees received a TreeSpec with no rows")
        if not full_cand and s.rng is None:
            raise ValidationError(
                "per-node candidate sampling needs a TreeSpec rng"
            )

    stats = GrowStats()
    tic = time.perf_counter if timing else (lambda: 0.0)

    # Tree structure accumulates as flat per-level record batches
    # (scattered into per-tree arrays once at the end) instead of
    # per-node python appends; ``next_id`` is each tree's node counter
    # and ``glob_leaf`` the per-(tree, row) leaf assignment.
    next_id = np.ones(T, dtype=np.int64)
    glob_leaf = np.full((T, n_glob), -1, dtype=np.int32)
    rec_tree: list = []
    rec_nid: list = []
    rec_feat: list = []
    rec_thr: list = []
    rec_bl: list = []
    rec_br: list = []
    rec_lid: list = []
    leaf_tree: list = []
    leaf_nid: list = []
    leaf_val: list = []

    # The row arena: every tree's rows concatenated, each frontier node
    # owning the contiguous slice [starts[j], starts[j+1]).  Levels end
    # with one stable in-place partition of the split slices.
    rows = np.concatenate([np.asarray(s.rows, dtype=np.int64) for s in specs])
    sizes = np.array([len(s.rows) for s in specs], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    node_tree = np.arange(T, dtype=np.int64)
    node_id = np.zeros(T, dtype=np.int64)
    # Sibling-pair bookkeeping for histogram subtraction: which kept
    # split created each frontier node and where its parent's retained
    # raw histogram lives (-1: not retained).
    parent_hist = np.full(T, -1, dtype=np.int64)
    pair_id = np.full(T, -1, dtype=np.int64)
    ph_cnt = ph_sum = None
    stats.nodes += T
    depth = 0
    # Smallest node that can still split; smaller frontier nodes carry
    # no entries (two-row nodes resolve closed-form, the rest leaf).
    e_min = max(_ENTRY_MIN, min_samples_split, 2 * min_samples_leaf)
    B = int(binned.max_bins_used)

    # Order propagation needs per-spec code-sorted root entries; the
    # mult-mask build drops bootstrap multiplicity, so duplicated rows
    # fall back to per-level key sorts (like rf mode).
    propagate = full_cand and (root_entries is not None or all(
        np.unique(np.asarray(s.rows)).size == np.asarray(s.rows).size
        for s in specs
    ))
    ent_g = ent_code = None
    root_g = root_c = None
    if propagate:
        t0 = tic()
        if root_entries is not None:
            root_g = np.ascontiguousarray(root_entries[0], dtype=np.int32)
            root_c = np.ascontiguousarray(root_entries[1], dtype=np.uint8)
        else:
            feature_order = feature_code_order(codes)
            mult = np.zeros(n_glob, dtype=np.int64)
            parts = []
            for s in specs:
                mult[:] = 0
                mult[np.asarray(s.rows, dtype=np.int64)] = 1
                sel = mult[feature_order]
                parts.append(feature_order.ravel()[sel.ravel().astype(bool)])
            root_g = (np.concatenate(parts)
                      if len(parts) > 1 else parts[0]).astype(np.int32)
            f_root = np.concatenate(
                [np.repeat(np.arange(F), len(s.rows)) for s in specs]
            )
            root_c = codes[root_g, f_root]
        if timing:
            stats.build_s += time.perf_counter() - t0

    def finalize(leaf_sel):
        """Record the selected slots as leaves.

        Without fusion: batched float64 means via reduceat (arena
        slices stay row-ordered under stable partition, so the
        association matches the exact kernel's per-leaf mean).  With
        fusion: Newton leaf values via a sequential scatter-add in row
        order — bitwise identical to the caller-side ``np.add.at``
        regularization it replaces — plus in-place running-prediction
        and residual updates for exactly the leaf rows.
        """
        t0 = tic()
        sl = np.flatnonzero(leaf_sel)
        sl_sizes = sizes[sl]
        if sl_sizes.size == 0:
            return
        r_idx = _ranges(starts[:-1][sl], sl_sizes)
        rows_l = rows[r_idx]
        offs = np.concatenate([[0], np.cumsum(sl_sizes)])
        if boost is None:
            sums = np.add.reduceat(y64[rows_l], offs[:-1], axis=0)
            means = sums / sl_sizes[:, None]
        else:
            leaf_idx = np.repeat(np.arange(sl.size), sl_sizes)
            sums = np.zeros((sl.size, k), dtype=np.float64)
            np.add.at(sums, leaf_idx, y64[rows_l])
            means = sums / (sl_sizes + boost.reg_lambda)[:, None]
            boost.current[rows_l] += boost.learning_rate * np.repeat(
                means, sl_sizes, axis=0
            )
            y64[rows_l] = boost.targets[rows_l] - boost.current[rows_l]
            y32[rows_l] = y64[rows_l]
        leaf_tree.append(node_tree[sl])
        leaf_nid.append(node_id[sl])
        leaf_val.append(means)
        glob_leaf[np.repeat(node_tree[sl], sl_sizes), rows_l] = \
            np.repeat(node_id[sl], sl_sizes)
        if timing:
            stats.leaf_s += time.perf_counter() - t0

    def filter_slots(keep):
        """Drop finalized slots from the frontier (and their entries)."""
        nonlocal rows, sizes, starts, node_tree, node_id
        nonlocal parent_hist, pair_id, ent_g, ent_code
        if ent_g is not None and ent_g.size:
            cov = sizes >= e_min
            ek = np.repeat(keep[cov], sizes[cov] * F)
            ent_g = ent_g[ek]
            ent_code = ent_code[ek]
        rows = rows[np.repeat(keep, sizes)]
        node_tree = node_tree[keep]
        node_id = node_id[keep]
        parent_hist = parent_hist[keep]
        pair_id = pair_id[keep]
        sizes = sizes[keep]
        starts = np.concatenate([[0], np.cumsum(sizes)])

    while rows.size:
        # --- leaf wave: depth cap, structural floor, purity ----------
        t0 = tic()
        ylvl = y32[rows]
        first = np.repeat(ylvl[starts[:-1]], sizes, axis=0)
        spread = np.abs(ylvl - first).max(axis=1)
        pure = np.maximum.reduceat(spread, starts[:-1]) <= _PURITY_ATOL
        split_try = (sizes >= min_samples_split) & ~pure
        if min_samples_leaf > 1:
            # No split of a smaller node can satisfy the leaf floor.
            split_try &= sizes >= 2 * min_samples_leaf
        if max_depth is not None and depth >= max_depth:
            split_try[:] = False
        if timing:
            stats.scan_s += time.perf_counter() - t0

        if propagate and depth == 0:
            # Carve the scoring slots' segments out of the root layout
            # (spec-major, feature-major, code-sorted).
            t0 = tic()
            sel0 = np.flatnonzero(sizes >= e_min)
            eidx = _ranges(starts[:-1][sel0] * F, sizes[sel0] * F)
            ent_g = root_g[eidx]
            ent_code = root_c[eidx]
            root_g = root_c = None
            if timing:
                stats.build_s += time.perf_counter() - t0

        if not np.all(split_try):
            finalize(~split_try)
            t0 = tic()
            filter_slots(split_try)
            if timing:
                stats.partition_s += time.perf_counter() - t0
            if sizes.size == 0:
                break
        L = sizes.size

        # --- candidate features --------------------------------------
        if full_cand:
            cand = None
        else:
            t0 = tic()
            cand = _draw_candidates(specs, node_tree, d, F)
            if timing:
                stats.build_s += time.perf_counter() - t0

        scored_mask = sizes >= e_min
        s_idx = np.flatnonzero(scored_mask)
        two_idx = np.flatnonzero(~scored_mask)
        s_sizes = sizes[s_idx]

        ok = np.zeros(L, dtype=bool)
        fpos = np.zeros(L, dtype=np.int64)
        bl = np.zeros(L, dtype=np.uint8)
        br = np.zeros(L, dtype=np.uint8)

        # --- two-row fast path ---------------------------------------
        if two_idx.size:
            t0 = tic()
            a = rows[starts[:-1][two_idx]]
            b_r = rows[starts[:-1][two_idx] + 1]
            if full_cand:
                Ca, Cb = codes[a], codes[b_r]
            else:
                cc = cand[two_idx]
                Ca = codes[a[:, None], cc]
                Cb = codes[b_r[:, None], cc]
            (ok[two_idx], fpos[two_idx],
             bl[two_idx], br[two_idx]) = _score_fast2(
                Ca, Cb, y32[a], y32[b_r]
            )
            if timing:
                stats.scan_s += time.perf_counter() - t0

        # --- scored nodes: entries, then per-regime scan -------------
        ret_cnt = ret_sum = ret_sel = None
        if s_idx.size:
            if not propagate:
                t0 = tic()
                ridx = _ranges(starts[:-1][s_idx], s_sizes)
                rs = rows[ridx]
                slot_local = np.repeat(np.arange(s_idx.size), s_sizes)
                if full_cand:
                    C = codes[rs]
                else:
                    C = codes[rs[:, None], cand[s_idx][slot_local]]
                # Unique keys: (slot, feature, code, row-within-node).
                # The row tiebreak pins the order among equal codes to
                # the node's canonical row order, so the float32
                # association of the scan never depends on batch
                # composition, and a plain (fast) quicksort argsort is
                # fully deterministic.
                M_lvl = int(s_sizes.max())
                s_off = np.concatenate([[0], np.cumsum(s_sizes)])
                row_local = np.arange(rs.size) - s_off[:-1][slot_local]
                key = ((slot_local[:, None] * F + np.arange(F))
                       * (_KEY_STRIDE * M_lvl)
                       + C.astype(np.int64) * M_lvl
                       + row_local[:, None])
                kr = key.ravel()
                if s_idx.size * F * _KEY_STRIDE * M_lvl \
                        <= np.iinfo(np.int32).max:
                    kr = kr.astype(np.int32)
                order = np.argsort(kr)
                ent_g = np.repeat(rs.astype(np.int32), F)[order]
                ent_code = C.ravel()[order]
                if timing:
                    stats.build_s += time.perf_counter() - t0

            e_off = np.concatenate([[0], np.cumsum(s_sizes * F)])
            hist_sel = s_sizes >= _HIST_MIN_WIDTH * B

            if hist_sel.any():
                hsel = np.flatnonzero(hist_sel)
                t0 = tic()
                eidx = _ranges(e_off[hsel], s_sizes[hsel] * F)
                er_b, ec_b = ent_g[eidx], ent_code[eidx]
                if timing:
                    stats.build_s += time.perf_counter() - t0
                sub_ctx = None
                if ph_cnt is not None:
                    sl_h = s_idx[hsel]
                    sub_ctx = (ph_cnt, ph_sum,
                               parent_hist[sl_h], pair_id[sl_h])
                (ok[s_idx[hsel]], fpos[s_idx[hsel]],
                 bl[s_idx[hsel]], br[s_idx[hsel]],
                 ret_cnt, ret_sum) = _score_hist(
                    er_b, ec_b, s_sizes[hsel], F, B, y32,
                    min_samples_leaf, sub_ctx, stats, timing,
                )
                ret_sel = hsel

            rect_sel = np.flatnonzero(~hist_sel)
            if rect_sel.size:
                # Power-of-two size classes: slots padded up to the
                # class size share one rank-rect, and the scorer reads
                # segments straight out of the entry arena — no
                # per-exact-size gather, ~log2 as many kernel calls.
                m_rect = s_sizes[rect_sel]
                cls = 1 << np.ceil(np.log2(m_rect)).astype(np.int64)
                for c in np.unique(cls):
                    bsel = rect_sel[cls == c]
                    m_pad = int(s_sizes[bsel].max())
                    (ok[s_idx[bsel]], fpos[s_idx[bsel]],
                     bl[s_idx[bsel]], br[s_idx[bsel]]) = _score_rect(
                        ent_g, ent_code, e_off[bsel], s_sizes[bsel],
                        m_pad, F, y32, min_samples_leaf, stats, timing,
                    )

        if not np.all(ok):
            finalize(~ok)
            if not np.any(ok):
                break

        # --- record splits -------------------------------------------
        t0 = tic()
        feat = fpos if full_cand else cand[np.arange(L), fpos]
        hi_l = binned.hi[feat, bl]
        lo_r = binned.lo[feat, br]
        thr = 0.5 * (hi_l + lo_r)
        thr = np.where(thr >= lo_r, hi_l, thr)

        kept = np.flatnonzero(ok)
        Lk = kept.size
        # Child ids in one shot: node_tree is non-decreasing along the
        # frontier, so each tree's kept slots are contiguous and the
        # per-tree running counter reproduces sequential allocation.
        tk = node_tree[kept]
        id_counts = np.bincount(tk, minlength=T)
        id_cum = np.concatenate([[0], np.cumsum(id_counts)])
        local = np.arange(Lk) - id_cum[tk]
        left_id = next_id[tk] + 2 * local
        right_id = left_id + 1
        next_id += 2 * id_counts
        rec_tree.append(tk)
        rec_nid.append(node_id[kept])
        rec_feat.append(feat[kept])
        rec_thr.append(thr[kept])
        rec_bl.append(bl[kept])
        rec_br.append(br[kept])
        rec_lid.append(left_id)
        stats.nodes += 2 * Lk

        # --- partition arena rows (stable within each node) ----------
        slot_of_row = np.repeat(np.arange(L), sizes)
        go_right = codes[rows, feat[slot_of_row]] > bl[slot_of_row]
        slot_rank = np.full(L, -1, dtype=np.int64)
        slot_rank[kept] = np.arange(Lk)
        row_keep = ok[slot_of_row]
        child_of_row = (slot_rank[slot_of_row[row_keep]] * 2
                        + go_right[row_keep])
        order_r = np.argsort(child_of_row, kind="stable")
        new_sizes = np.bincount(child_of_row, minlength=2 * Lk)
        new_rows = rows[row_keep][order_r]
        stats.rows_partitioned += int(new_rows.size)

        # --- propagate entries to the next frontier ------------------
        next_depth_ok = max_depth is None or depth + 1 < max_depth
        if propagate:
            need = next_depth_ok & (new_sizes >= e_min)
            new_ent_g = np.empty(0, dtype=np.int32)
            new_ent_c = np.empty(0, dtype=np.uint8)
            ok_s = ok[s_idx]
            if need.any() and ok_s.any():
                if ok_s.all():
                    eg, ec = ent_g, ent_code
                    ks_sizes, ks_slots = s_sizes, s_idx
                else:
                    ek = np.repeat(ok_s, s_sizes * F)
                    eg, ec = ent_g[ek], ent_code[ek]
                    ks_sizes = s_sizes[ok_s]
                    ks_slots = s_idx[ok_s]
                # Every per-entry quantity here is either a repeat of a
                # small per-segment array or one pass of int32
                # arithmetic — the arena is bounded by rows * F < 2^31,
                # and per-entry gathers through big index arrays are
                # deliberately avoided (a segment-constant value is
                # cheaper to ``repeat`` than to gather).
                seg_sizes = np.repeat(ks_sizes, F)
                seg_off = np.concatenate(
                    [[0], np.cumsum(seg_sizes)]
                ).astype(np.int32)
                er = (np.arange(eg.size, dtype=np.int32)
                      - np.repeat(seg_off[:-1], seg_sizes))
                # Side lookup must be per (tree, row): different trees
                # can split the same global row to different sides.
                gr_glob = np.zeros(T * n_glob, dtype=bool)
                tree_of_row = node_tree[slot_of_row]
                gr_glob[tree_of_row[row_keep] * n_glob
                        + rows[row_keep]] = go_right[row_keep]
                slot_E = ks_sizes * F
                goff = node_tree[ks_slots] * n_glob
                gr_e = gr_glob[np.repeat(goff, slot_E) + eg]
                # Stable partition: the rank of an entry on its child's
                # side is its local rank corrected by the running count
                # of right-bound entries (one inclusive cumsum); the
                # per-segment start values come back via repeat.
                gr8 = gr_e.view(np.int8)
                rcum = np.cumsum(gr8, dtype=np.int32)
                rstart = rcum[seg_off[:-1]] - gr8[seg_off[:-1]]
                rc = rcum - np.repeat(rstart, seg_sizes)
                # Destination bases per (segment, side) fold together
                # the child's arena start and the feature offset, so no
                # per-entry feature index is ever materialized.
                ent_counts = np.where(need, new_sizes, 0) * F
                new_e_start = np.concatenate(
                    [[0], np.cumsum(ent_counts)]
                ).astype(np.int32)
                ns32 = new_sizes.astype(np.int32)
                kslot2 = 2 * slot_rank[ks_slots]
                ef_seg = np.tile(np.arange(F, dtype=np.int32),
                                 ks_sizes.size)
                cl = np.repeat(kslot2, F)
                base_l = new_e_start[cl] + ef_seg * ns32[cl]
                base_r = new_e_start[cl + 1] + ef_seg * ns32[cl + 1]
                pos_new = np.where(
                    gr_e,
                    np.repeat(base_r, seg_sizes) + (rc - 1),
                    np.repeat(base_l, seg_sizes) + (er - rc),
                )
                keep_e = np.where(
                    gr_e,
                    np.repeat(need[kslot2 + 1], slot_E),
                    np.repeat(need[kslot2], slot_E),
                )
                pos_k = pos_new[keep_e]
                total = int(ent_counts.sum())
                new_ent_g = np.empty(total, dtype=np.int32)
                new_ent_c = np.empty(total, dtype=np.uint8)
                new_ent_g[pos_k] = eg[keep_e]
                new_ent_c[pos_k] = ec[keep_e]
            ent_g, ent_code = new_ent_g, new_ent_c
        else:
            # Key-sort mode rebuilds entries per level; never let a
            # stale layout survive into the next level's slot filter.
            ent_g = ent_code = None

        # --- retain raw histograms for sibling subtraction -----------
        ph_cnt = ph_sum = None
        hist_ref_kept = None
        if propagate and ret_sel is not None and next_depth_ok:
            okh = ok[s_idx[ret_sel]]
            if okh.any():
                ph_cnt = ret_cnt[okh]
                ph_sum = ret_sum[okh]
                hist_ref_kept = np.full(Lk, -1, dtype=np.int64)
                hist_ref_kept[slot_rank[s_idx[ret_sel][okh]]] = \
                    np.arange(int(okh.sum()))

        # --- advance to the children frontier ------------------------
        if hist_ref_kept is None:
            parent_hist = np.full(2 * Lk, -1, dtype=np.int64)
        else:
            parent_hist = np.repeat(hist_ref_kept, 2)
        pair_id = np.repeat(np.arange(Lk, dtype=np.int64), 2)
        rows = new_rows
        sizes = new_sizes.astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        node_tree = np.repeat(node_tree[kept], 2)
        ids = np.empty(2 * Lk, dtype=np.int64)
        ids[0::2] = left_id
        ids[1::2] = right_id
        node_id = ids
        depth += 1
        if timing:
            stats.partition_s += time.perf_counter() - t0

    # Scatter the flat record batches into per-tree node arrays (same
    # layout and dtypes the incremental per-node recorder produced).
    cat = np.concatenate
    TR = cat(rec_tree) if rec_tree else np.empty(0, dtype=np.int64)
    NID = cat(rec_nid) if rec_nid else np.empty(0, dtype=np.int64)
    FT = cat(rec_feat) if rec_feat else np.empty(0, dtype=np.int64)
    TH = cat(rec_thr) if rec_thr else np.empty(0, dtype=np.float64)
    BL = cat(rec_bl) if rec_bl else np.empty(0, dtype=np.int64)
    BR = cat(rec_br) if rec_br else np.empty(0, dtype=np.int64)
    LID = cat(rec_lid) if rec_lid else np.empty(0, dtype=np.int64)
    LT = cat(leaf_tree) if leaf_tree else np.empty(0, dtype=np.int64)
    LN = cat(leaf_nid) if leaf_nid else np.empty(0, dtype=np.int64)
    LV = (cat(leaf_val, axis=0) if leaf_val
          else np.empty((0, k), dtype=np.float64))
    so = np.argsort(TR, kind="stable")
    sb = np.searchsorted(TR[so], np.arange(T + 1))
    lo_ = np.argsort(LT, kind="stable")
    lb = np.searchsorted(LT[lo_], np.arange(T + 1))
    trees = []
    for t in range(T):
        n_nodes = int(next_id[t])
        feature = np.full(n_nodes, -1, dtype=np.intp)
        threshold = np.full(n_nodes, np.nan, dtype=np.float64)
        left = np.full(n_nodes, -1, dtype=np.intp)
        right = np.full(n_nodes, -1, dtype=np.intp)
        bl_t = np.full(n_nodes, -1, dtype=np.int16)
        br_t = np.full(n_nodes, -1, dtype=np.int16)
        value = np.zeros((n_nodes, k), dtype=np.float64)
        si = so[sb[t]:sb[t + 1]]
        nid = NID[si]
        feature[nid] = FT[si]
        threshold[nid] = TH[si]
        left[nid] = LID[si]
        right[nid] = LID[si] + 1
        bl_t[nid] = BL[si]
        br_t[nid] = BR[si]
        li = lo_[lb[t]:lb[t + 1]]
        value[LN[li]] = LV[li]
        trees.append(GrownTree(
            feature=feature, threshold=threshold, left=left, right=right,
            value=value, leaf_of_row=glob_leaf[t],
            bin_left=bl_t, bin_right=br_t,
        ))
    return trees, stats
