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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import MomentError, ReconstructionError
from repro.stats.pearson import classify_pearson, pearson_system

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


def kappa_kurt(skew: float, kappa: float) -> float:
    """Kurtosis at Pearson criterion *kappa* for *skew* (type IV for
    ``0 < kappa < 1``): the larger root of ``c1**2 == 4*kappa*c0*c2``,
    ``(32*kappa - s2)*k**2 - (72*kappa*s2 + 96*kappa + 6*s2)*k
    + 36*kappa*s2**2 + 72*kappa*s2 - 9*s2 == 0``."""
    s2 = skew * skew
    qa = 32.0 * kappa - s2
    qb = -(72.0 * kappa * s2 + 96.0 * kappa + 6.0 * s2)
    qc = 36.0 * kappa * s2 * s2 + 72.0 * kappa * s2 - 9.0 * s2
    return (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)


@given(
    mean=means,
    std=stds,
    skew=st.floats(-0.3, 0.3, allow_nan=False).filter(lambda s: abs(s) > 1e-6),
    log_gap=st.floats(np.log(1.6e-8), np.log(1e-4), allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_type_iv_next_to_type_v(mean, std, skew, log_gap):
    """1 - kappa in (1.6e-8, 1e-4): type IV so close to the type-V line
    that the theta grid can hold the whole density in one cell.  Every
    point builds a usable member; none raises."""
    kurt = float(kappa_kurt(skew, 1.0 - np.exp(log_gap)))
    # With a tiny skew the root's rounding can land on the type-V line.
    assume(classify_pearson(skew, kurt) == 4)
    dist = pearson_system(mean, std, skew, kurt)
    assert np.isfinite(dist._loc), dist
    assert np.isfinite(dist._scale) and dist._scale != 0.0, dist
    assert np.isfinite(dist.rvs(64, random_state=np.random.default_rng(0))).all()


#: Draws per member in the moment checks below.  Their standard errors
#: are 0.32 % of the std for the mean and about 0.25 % for the std
#: (kurt <= 3.2 in this band), so a 2 % tolerance is over 6 standard
#: errors; the peak grid's own bias there is under 0.1 % (a fuzz of
#: 2,000 members).
N_MOMENT_DRAWS = 100_000
MOMENT_TOL = 0.02


def check_draw_moments(dist, mean: float, std: float) -> None:
    draws = dist.rvs(N_MOMENT_DRAWS, random_state=np.random.default_rng(1))
    assert abs(draws.mean() - mean) <= MOMENT_TOL * std, dist
    assert abs(draws.std() / std - 1.0) <= MOMENT_TOL, dist


@given(
    mean=means,
    std=stds,
    skew=st.floats(-0.3, 0.3, allow_nan=False).filter(lambda s: abs(s) > 1e-6),
    log_gap=st.floats(np.log(1.6e-8), np.log(1e-4), allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_type_iv_next_to_type_v_draws_the_requested_moments(mean, std, skew, log_gap):
    """Type IV with 1 - kappa in (1.6e-8, 1e-4): the weight's peak is far
    narrower than one cell of the uniform theta grid, which drew a std
    many times the requested one.  The peak grid resolves it: the draws
    have the requested mean and std within ``MOMENT_TOL``."""
    kurt = float(kappa_kurt(skew, 1.0 - np.exp(log_gap)))
    assume(classify_pearson(skew, kurt) == 4)
    dist = pearson_system(mean, std, skew, kurt)
    assert dist.pearson_type == 4
    check_draw_moments(dist, mean, std)


def test_type_iv_next_to_type_v_resolves_its_peak():
    """Two vectors whose uniform theta grid held the whole density in one
    cell (variance 0; they raised ``invalid std 0.0``, then fell back to
    the normal) and one whose draws overflowed (mean about 4e16): all
    three are type IV with the requested mean and std."""
    cases = [
        (1.0, 0.05, -0.14303271945041016, 3.0383986755944075),
        (1.0, 0.05, 0.0373593976682568, 3.0026171662782537),
        (1.0, 2.0, 0.09375, float(kappa_kurt(0.09375, 1.0 - np.exp(-17.0)))),
    ]
    for mean, std, skew, kurt in cases:
        assert classify_pearson(skew, kurt) == 4
        dist = pearson_system(mean, std, skew, kurt)
        assert dist.pearson_type == 4
        check_draw_moments(dist, mean, std)
