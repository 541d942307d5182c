"""Property tests at the edges of the Pearson feasible region.

Moment vectors predicted by a model land anywhere, including on the
boundaries between Pearson types and on the feasibility edge
``kurt = skew**2 + 1``.  There ``pearson_system`` must either return a
usable distribution — finite ``_loc``, nonzero finite ``_scale`` and
finite draws — or raise a typed :class:`MomentError` /
:class:`ReconstructionError`; never another exception, never a NaN.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MomentError, ReconstructionError
from repro.stats.pearson import pearson_system

from test_pearson_digests import type5_kurt

SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))

means = st.floats(-1e3, 1e3, allow_nan=False)
stds = st.floats(1e-6, 1e3, allow_nan=False)
skews = st.floats(-5.0, 5.0, allow_nan=False)


def rel(lo: float, hi: float):
    """A relative offset in ``[lo, hi]``, zero and tiny values included."""
    return st.one_of(
        st.just(0.0),
        st.floats(lo, hi, allow_nan=False),
        st.floats(-1e-12, 1e-12, allow_nan=False),
    )


def check(mean: float, std: float, skew: float, kurt: float) -> None:
    try:
        dist = pearson_system(mean, std, skew, kurt)
    except (MomentError, ReconstructionError):
        return
    draws = dist.rvs(64, random_state=np.random.default_rng(0))
    assert np.isfinite(dist._loc), dist
    assert np.isfinite(dist._scale) and dist._scale != 0.0, dist
    assert np.isfinite(draws).all(), dist


@given(mean=means, std=stds, skew=skews, gap=rel(-1e-3, 1e-3))
@settings(max_examples=150, deadline=None)
def test_feasibility_edge(mean, std, skew, gap):
    """kurt at, just above and just below skew**2 + 1 (projected)."""
    check(mean, std, skew, skew * skew + 1.0 + gap)


@given(mean=means, std=stds, skew=skews, gap=rel(-1e-8, 1e-8))
@settings(max_examples=150, deadline=None)
def test_gamma_line(mean, std, skew, gap):
    """c2 ~ 0: kurt on and around 1.5*skew**2 + 3 (type III)."""
    kurt = 1.5 * skew * skew + 3.0
    check(mean, std, skew, kurt + gap * max(1.0, kurt))


@given(
    mean=means,
    std=stds,
    skew=st.floats(-5.0, 5.0, allow_nan=False).filter(lambda s: abs(s) > 1e-6),
    gap=rel(-100 * SQRT_EPS, 100 * SQRT_EPS),
)
@settings(max_examples=150, deadline=None)
def test_type_v_band(mean, std, skew, gap):
    """kappa in and around [1 - sqrt(eps), 1 + sqrt(eps)] (type V, with
    type IV above and type VI below it; type VI's ``lo_b`` bracket)."""
    check(mean, std, skew, float(type5_kurt(skew)) * (1.0 + gap))


@given(
    mean=means,
    std=stds,
    skew=st.floats(-1e-9, 1e-9, allow_nan=False),
    kurt=st.floats(1.0, 60.0, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_near_symmetry(mean, std, skew, kurt):
    """|skew| around the 1e-10 symmetry tolerance, any kurtosis."""
    check(mean, std, skew, kurt)


@given(
    mean=means,
    std=stds,
    skew=st.sampled_from([0.0, 1e-11, -1e-11]),
    nu_gap=st.floats(1e-12, 1e-2, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_student_t_as_nu_falls_to_four(mean, std, skew, nu_gap):
    """Type VII with nu = 4 + nu_gap, i.e. kurt = 3 + 6/nu_gap."""
    check(mean, std, skew, 3.0 + 6.0 / nu_gap)


@given(
    mean=means,
    std=stds,
    skew=st.floats(0.05, 5.0, allow_nan=False),
    sign=st.sampled_from([1.0, -1.0]),
    frac=st.one_of(
        st.floats(0.0, 1e-3, allow_nan=False), st.floats(1.0 - 1e-3, 1.0, allow_nan=False)
    ),
)
@settings(max_examples=150, deadline=None)
def test_type_vi_ends(mean, std, skew, sign, frac):
    """Type VI next to the gamma line (frac ~ 0) and next to the type-V
    line (frac ~ 1), where its shape b nears the ``lo_b`` bracket."""
    gamma_line = 1.5 * skew * skew + 3.0
    kurt = gamma_line + frac * (float(type5_kurt(skew)) - gamma_line)
    check(mean, std, sign * skew, kurt)
