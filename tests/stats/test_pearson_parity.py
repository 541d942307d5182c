"""The numpy-only Pearson families and Brent port against their scipy twins.

``repro.stats.pearson`` draws from its closed-form families and solves
type VI without ``scipy.stats``/``scipy.optimize``; these tests hold each
piece bit-equal to the scipy routine it replaces: draws for a seeded
``Generator``, ``stats("mv")``, and Brent roots and failures.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from repro.stats import pearson as P


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_twin(family, twin, seed: int, size: int) -> None:
    """*family* draws and (mean, var) are bit-equal to scipy's *twin*."""
    ours = family.rvs(size, np.random.default_rng(seed))
    theirs = twin.rvs(size=size, random_state=np.random.default_rng(seed))
    assert bits(ours) == bits(theirs)
    assert bits(family.stats_mv()) == bits([float(v) for v in twin.stats("mv")])


seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 64)


def shape(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@given(seed=seeds, size=sizes)
@settings(max_examples=20, deadline=None)
def test_normal_matches_norm(seed, size):
    assert_twin(P._Normal(), stats.norm(), seed, size)


@given(a=shape(1e-2, 1e3), b=shape(1e-2, 1e3), seed=seeds, size=sizes)
@settings(max_examples=60, deadline=None)
def test_beta_matches_beta(a, b, seed, size):
    assert_twin(P._Beta(a, b), stats.beta(a, b), seed, size)


@given(df=shape(4.0 + 1e-9, 1e9), seed=seeds, size=sizes)
@settings(max_examples=60, deadline=None)
def test_student_t_matches_t(df, seed, size):
    assert_twin(P._StudentT(df), stats.t(df), seed, size)


@given(a=shape(1e-3, 1e9), seed=seeds, size=sizes)
@settings(max_examples=60, deadline=None)
def test_gamma_matches_gamma(a, seed, size):
    assert_twin(P._Gamma(a), stats.gamma(a), seed, size)


@given(a=shape(4.0 + 1e-9, 1e4), seed=seeds, size=sizes)
@settings(max_examples=60, deadline=None)
def test_inverse_gamma_matches_invgamma(a, seed, size):
    assert_twin(P._InvGamma(a), stats.invgamma(a), seed, size)


@given(a=shape(1e-3, 1e6), b=shape(4.0 + 1e-9, 1e7), seed=seeds, size=sizes)
@settings(max_examples=60, deadline=None)
def test_beta_prime_matches_betaprime(a, b, seed, size):
    assert_twin(P._BetaPrime(a, b), stats.betaprime(a, b), seed, size)


@pytest.mark.parametrize(
    "family, twin",
    [
        (P._Beta(0.483, 13.858), stats.beta(0.483, 13.858)),
        (P._InvGamma(13.457), stats.invgamma(13.457)),
        (P._BetaPrime(6.409, 48.694), stats.betaprime(6.409, 48.694)),
    ],
)
def test_variance_squares_as_scipys_arrays_do(family, twin):
    """Shapes where a scalar ``x**2`` is one ulp off the product ``x * x``
    that numpy computes for scipy's array square."""
    assert bits(family.stats_mv()) == bits([float(v) for v in twin.stats("mv")])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "family, twin",
    [
        (P._Normal(), stats.norm()),
        (P._Beta(2.5, 0.7), stats.beta(2.5, 0.7)),
        (P._StudentT(7.0), stats.t(7.0)),
        (P._Gamma(3.0), stats.gamma(3.0)),
        (P._InvGamma(5.5), stats.invgamma(5.5)),
        (P._BetaPrime(2.0, 9.0), stats.betaprime(2.0, 9.0)),
    ],
)
def test_pdf_and_cdf_keep_the_twin_values(family, twin):
    x = np.array([-np.inf, -3.0, -0.0, 0.0, 0.25, 0.5, 1.0, 4.0, 50.0, np.inf, np.nan])
    assert bits(family.pdf(x)) == bits(twin.pdf(x))
    assert bits(family.cdf(x)) == bits(twin.cdf(x))


# --- Brent ------------------------------------------------------------------


def cubic(root: float, c1: float, c2: float, c3: float, scale: float, nan_above: float):
    """``scale * (x - root) * (c1 + c2*u + c3*u**2)`` with ``u = x - root``,
    NaN beyond *nan_above*, and the list of points it is called at."""
    calls: list[float] = []

    def f(x: float) -> float:
        calls.append(x)
        if x > nan_above:
            return float("nan")
        u = x - root
        return scale * u * ((c3 * u + c2) * u + c1)

    return f, calls


def solve(solver, args: tuple, bracket: tuple[float, float], tols: tuple, maxiter: int):
    """(outcome, evaluation points) for one solver on a fresh cubic."""
    f, calls = cubic(*args)
    try:
        outcome: object = solver(f, *bracket, xtol=tols[0], rtol=tols[1], maxiter=maxiter)
    except (ValueError, RuntimeError) as exc:
        outcome = type(exc)
    return outcome, calls


coef = st.floats(-10.0, 10.0, allow_nan=False)
tolerances = st.sampled_from([(1e-12, 1e-12), (1e-10, 1e-10), (2e-12, 4 * np.finfo(float).eps)])


@given(
    root=st.floats(-10.0, 10.0, allow_nan=False),
    c=st.tuples(coef, coef, coef),
    scale=st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, -1.0]),
    left=st.floats(1e-9, 20.0, allow_nan=False),
    right=st.floats(1e-9, 20.0, allow_nan=False),
    nan_above=st.sampled_from([np.inf, 0.0, 3.0]),
    tols=tolerances,
    maxiter=st.sampled_from([1, 3, 8, 100]),
)
@settings(max_examples=400, deadline=None)
def test_brent_port_retraces_scipy_brentq(root, c, scale, left, right, nan_above, tols, maxiter):
    args = (root, *c, scale, nan_above)
    bracket = (root - left, root + right)
    ours, our_calls = solve(P._brentq, args, bracket, tols, maxiter)
    theirs, their_calls = solve(optimize.brentq, args, bracket, tols, maxiter)
    if isinstance(theirs, float):
        assert bits(ours) == bits(theirs)
    else:
        assert ours is theirs
    assert bits(our_calls) == bits(their_calls)


def test_brent_port_divides_like_c_when_denominators_underflow():
    """Function values near 1e-300 make the extrapolation step's
    denominators underflow to zero: C divides through to inf or NaN and
    bisects, where a plain Python division would raise."""
    args = (1.0, 3.0, 3.0, 1.0, 1e-300, np.inf)
    ours, our_calls = solve(P._brentq, args, (-3.0, 4.0), (1e-12, 1e-12), 100)
    theirs, their_calls = solve(optimize.brentq, args, (-3.0, 4.0), (1e-12, 1e-12), 100)
    assert bits(ours) == bits(theirs)
    assert bits(our_calls) == bits(their_calls)


@pytest.mark.parametrize(
    "f, bracket, maxiter, error",
    [
        (lambda x: x * x + 1.0, (-1.0, 1.0), 100, ValueError),  # same sign
        (lambda x: 1e-200, (0.0, 1.0), 100, ValueError),  # product underflows
        (lambda x: float("nan"), (0.0, 1.0), 100, ValueError),
        (lambda x: x - 0.3 if x < 0.5 else float("nan"), (0.0, 1.0), 100, ValueError),
        (lambda x: x**3 - 2.0, (0.0, 4.0), 2, RuntimeError),
    ],
)
def test_brent_port_raises_what_scipy_raises(f, bracket, maxiter, error):
    for solver in (P._brentq, optimize.brentq):
        with pytest.raises(error):
            solver(f, *bracket, xtol=1e-12, rtol=1e-12, maxiter=maxiter)
