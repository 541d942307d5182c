"""The Pearson distribution system (MATLAB ``pearsrnd`` replacement).

The paper's best-performing distribution representation, **PearsonRnd**
(Section III-B2), predicts the first four moments of a runtime distribution
and reconstructs the distribution by drawing random numbers from the member
of the Pearson system with those moments, using MATLAB's ``pearsrnd``.
MATLAB is not available here, so this module reimplements the system from
scratch:

* classification of (skew, kurt) into Pearson types 0–VII using the same
  quadratic-discriminant logic as ``pearsrnd.m`` (unnormalized
  ``c0, c1, c2`` coefficients and ``kappa = c1^2 / (4 c0 c2)``);
* moment-matched samplers for every type — closed-form families for
  types 0/I/II/III/V/VI/VII (normal, beta, gamma, inverse gamma, beta
  prime, Student t) and a numerically exact inverse-CDF sampler for
  type IV (via the ``x = lam + a*tan(theta)`` substitution that maps the
  infinite support onto ``(-pi/2, pi/2)``).

The closed-form families draw with the same ``numpy.random.Generator``
methods, and compute (mean, variance) with the same arithmetic, as their
``scipy.stats`` twins, and type VI solves its shapes with a port of the
Brent routine behind ``scipy.optimize.brentq``: every draw is bit-equal to
the scipy-built sampler's.  Building and sampling a distribution imports
no ``scipy.stats`` (about a second and 65 MB) and no ``scipy.optimize``;
only a type-V draw imports ``scipy.special`` (for ``gammainccinv``), on
first use.  ``pdf``/``cdf`` still evaluate through ``scipy.stats``
(imported on first use): only analytic-CDF scoring and plots call them.

Every returned distribution matches the requested mean and standard
deviation exactly (affine correction) and the requested skewness/kurtosis
up to the feasibility of its type family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Protocol

import numpy as np

from .._validation import check_random_state
from ..errors import MomentError, ReconstructionError
from .moments import is_feasible, nearest_feasible

__all__ = [
    "classify_pearson",
    "PearsonDistribution",
    "pearson_system",
    "pearsrnd",
]

_EPS = np.finfo(np.float64).eps


def _pearson_coeffs(skew: float, kurt: float) -> tuple[float, float, float]:
    """Unnormalized Pearson quadratic coefficients (as in ``pearsrnd.m``)."""
    beta1 = skew * skew
    beta2 = kurt
    c0 = 4.0 * beta2 - 3.0 * beta1
    c1 = skew * (beta2 + 3.0)
    c2 = 2.0 * beta2 - 3.0 * beta1 - 6.0
    return c0, c1, c2


def classify_pearson(skew: float, kurt: float) -> int:
    """Return the Pearson type (0–7) for standardized moments.

    Mirrors MATLAB ``pearsrnd``:

    * ``c1 == 0`` (symmetric): type 0 if kurt == 3, II if kurt < 3,
      VII if kurt > 3;
    * ``c2 == 0`` (gamma line): type III;
    * otherwise by ``kappa = c1^2 / (4 c0 c2)``: I if kappa < 0,
      IV if 0 < kappa < 1, V if kappa == 1, VI if kappa > 1.
    """
    if not is_feasible(skew, kurt):
        raise MomentError(
            f"(skew={skew:.6g}, kurt={kurt:.6g}) violates kurt >= skew**2 + 1"
        )
    c0, c1, c2 = _pearson_coeffs(skew, kurt)
    tol = 1e-10
    if abs(c1) < tol:
        if abs(kurt - 3.0) < tol:
            return 0
        return 2 if kurt < 3.0 else 7
    if abs(c2) < tol * max(1.0, abs(kurt)):
        return 3
    kappa = c1 * c1 / (4.0 * c0 * c2)
    if kappa < 0.0:
        return 1
    if kappa < 1.0 - np.sqrt(_EPS):
        return 4
    if kappa <= 1.0 + np.sqrt(_EPS):
        return 5
    return 6


# ---------------------------------------------------------------------------
# Standardized families.  Each draws with the Generator method its
# ``scipy.stats`` twin's ``_rvs`` calls and returns (mean, var) with the
# twin's ``stats("mv")`` arithmetic, so samples are bit-equal to the twin's.
# Squares are written ``x * x``: scipy squares arrays, which numpy computes
# as a product, while a scalar ``x**2`` can differ in the last bit.
# ---------------------------------------------------------------------------


class _Family(Protocol):
    """What :class:`PearsonDistribution` needs of its standardized base."""

    def rvs(self, size: int, rng: np.random.Generator) -> np.ndarray: ...

    def stats_mv(self) -> tuple[float, float]: ...

    def pdf(self, x) -> np.ndarray: ...

    def cdf(self, x) -> np.ndarray: ...


class _ScipyTwin:
    """``pdf``/``cdf`` through the ``scipy.stats`` family named ``scipy_name``.

    The instance fields are its shape parameters, in ``scipy.stats`` order.
    """

    scipy_name: ClassVar[str]

    def _twin(self):
        from scipy import stats

        return getattr(stats, self.scipy_name)(*vars(self).values())

    def pdf(self, x) -> np.ndarray:
        return self._twin().pdf(x)

    def cdf(self, x) -> np.ndarray:
        return self._twin().cdf(x)


@dataclass(frozen=True)
class _Normal(_ScipyTwin):
    scipy_name = "norm"

    def rvs(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(size)

    def stats_mv(self) -> tuple[float, float]:
        return 0.0, 1.0

    def cdf(self, x) -> np.ndarray:
        from scipy.special import ndtr

        return ndtr(x)


@dataclass(frozen=True)
class _Beta(_ScipyTwin):
    a: float
    b: float
    scipy_name = "beta"

    def rvs(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.beta(self.a, self.b, size)

    def stats_mv(self) -> tuple[float, float]:
        a, b = self.a, self.b
        apb = a + b
        return a / apb, a * b / ((apb * apb) * (apb + 1.0))


@dataclass(frozen=True)
class _StudentT(_ScipyTwin):
    df: float
    scipy_name = "t"

    def rvs(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_t(self.df, size)

    def stats_mv(self) -> tuple[float, float]:
        return 0.0, self.df / (self.df - 2.0)


@dataclass(frozen=True)
class _Gamma(_ScipyTwin):
    a: float
    scipy_name = "gamma"

    def rvs(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_gamma(self.a, size)

    def stats_mv(self) -> tuple[float, float]:
        return self.a, self.a


@dataclass(frozen=True)
class _InvGamma(_ScipyTwin):
    a: float
    scipy_name = "invgamma"

    def rvs(self, size: int, rng: np.random.Generator) -> np.ndarray:
        # scipy has no dedicated sampler here: inverse CDF of a uniform.
        from scipy.special import gammainccinv

        return 1.0 / gammainccinv(self.a, rng.uniform(size=size))

    def stats_mv(self) -> tuple[float, float]:
        a = self.a
        return 1.0 / (a - 1.0), 1.0 / ((a - 1.0) * (a - 1.0)) / (a - 2.0)


@dataclass(frozen=True)
class _BetaPrime(_ScipyTwin):
    a: float
    b: float
    scipy_name = "betaprime"

    def rvs(self, size: int, rng: np.random.Generator) -> np.ndarray:
        u1 = rng.standard_gamma(self.a, size)
        u2 = rng.standard_gamma(self.b, size)
        return u1 / u2

    def stats_mv(self) -> tuple[float, float]:
        # scipy's raw moments (a + i - 1) / (b - i), kept term for term.
        a, b = self.a, self.b
        mean = (a + 1.0 - 1.0) / (b - 1.0)
        raw2 = mean * ((a + 2.0 - 1.0) / (b - 2.0))
        return mean, raw2 - mean * mean


# ---------------------------------------------------------------------------
# Per-type moment-matched constructions.  Each ``_build_type*`` returns a
# standardized family whose skewness/kurtosis match the request; the
# caller applies the final affine mean/std correction.
# ---------------------------------------------------------------------------


def _build_type2(kurt: float) -> _Beta:
    """Symmetric beta on a symmetric interval (kurt < 3)."""
    # Symmetric beta(alpha, alpha) has kurt = 3 - 6/(2*alpha + 3).
    alpha = (6.0 / (3.0 - kurt) - 3.0) / 2.0
    if alpha <= 0.0:
        raise ReconstructionError(
            f"type II needs kurt in (1, 3); alpha={alpha:.4g} from kurt={kurt:.4g}"
        )
    return _Beta(alpha, alpha)


def _build_type7(kurt: float) -> _StudentT:
    """Student's t (symmetric, kurt > 3)."""
    # t_nu has kurt = 3 + 6/(nu - 4) for nu > 4.
    nu = 4.0 + 6.0 / (kurt - 3.0)
    return _StudentT(nu)


def _build_type3(skew: float) -> _Gamma:
    """Gamma (possibly mirrored), on the line kurt = 1.5*skew**2 + 3."""
    k = 4.0 / (skew * skew)
    return _Gamma(k)


def _build_type1(skew: float, kurt: float) -> _Beta:
    """General beta via the classical method-of-moments solution."""
    # Classical method-of-moments for beta: with b2 the (non-excess)
    # kurtosis, the shape total r = a + b solves
    # r = 6*(b2 - skew^2 - 1) / (6 + 3*skew^2 - 2*b2)
    # (check: symmetric beta(alpha, alpha) gives r = 2*alpha).
    g1 = skew
    denom = 6.0 + 3.0 * g1 * g1 - 2.0 * kurt
    if abs(denom) < 1e-12:
        raise ReconstructionError("beta method-of-moments denominator vanished")
    r = 6.0 * (kurt - g1 * g1 - 1.0) / denom
    if r <= 0.0:
        raise ReconstructionError(f"beta total a+b = {r:.4g} <= 0")
    if abs(g1) < 1e-12:
        a = b = r / 2.0
    else:
        root = 1.0 / np.sqrt(1.0 + 16.0 * (r + 1.0) / ((r + 2.0) ** 2 * g1 * g1))
        a = r / 2.0 * (1.0 - root)
        b = r / 2.0 * (1.0 + root)
        if g1 < 0.0:  # beta(a, b) skews positive when a < b
            a, b = b, a
    if a <= 0.0 or b <= 0.0:
        raise ReconstructionError(f"beta shapes out of range: a={a:.4g}, b={b:.4g}")
    return _Beta(a, b)


def _build_type5(skew: float) -> _InvGamma:
    """Inverse gamma on the kappa == 1 boundary."""
    # skew of invgamma(alpha) = 4*sqrt(alpha-2)/(alpha-3), alpha > 3.
    g = abs(skew)
    if g < 1e-12:
        raise ReconstructionError("type V requires non-zero skewness")
    # Solve g*(alpha-3) = 4*sqrt(alpha-2): quadratic in u = sqrt(alpha-2):
    # g*u^2 - 4*u - g = 0  =>  u = (4 + sqrt(16 + 4 g^2)) / (2 g).
    u = (4.0 + np.sqrt(16.0 + 4.0 * g * g)) / (2.0 * g)
    alpha = u * u + 2.0
    if alpha <= 4.0:
        raise ReconstructionError(f"type V shape alpha={alpha:.4g} lacks 4th moment")
    return _InvGamma(alpha)


def _ieee_div(num: float, den: float) -> float:
    """``num / den`` with C's IEEE 754 result for a zero *den* (no raise)."""
    if den != 0.0:  # repro: noqa[DET005]
        return num / den
    if math.isnan(num) or num == 0.0:  # repro: noqa[DET005]
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    rtol: float,
    maxiter: int = 100,
) -> float:
    """Root of *f* in ``[xa, xb]`` by Brent's method.

    A step-for-step port of the C routine behind ``scipy.optimize.brentq``
    (same iteration, tolerances and ``maxiter``), so its root is bit-equal
    to scipy's.  Raises ``ValueError`` when ``f(xa)`` and ``f(xb)`` have
    the same sign or *f* returns NaN, and ``RuntimeError`` when *maxiter*
    steps do not converge.  Its exact-zero tests on ``f`` are the C
    routine's, hence the DET005 suppressions.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, xtol, rtol = float(xa), float(xb), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:  # repro: noqa[DET005]
        return xpre
    if fcur == 0.0:  # repro: noqa[DET005]
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):  # repro: noqa[DET005]
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:  # repro: noqa[DET005]
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _ieee_div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _ieee_div(fpre - fcur, xpre - xcur)
                dblk = _ieee_div(fblk - fcur, xblk - xcur)
                stry = _ieee_div(
                    -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _build_type6(skew: float, kurt: float) -> _BetaPrime:
    """Beta-prime (Pearson VI) via 2-D numeric moment matching."""
    g1 = abs(skew)
    g2e = kurt - 3.0

    def bp_skew_kurt(a: float, b: float) -> tuple[float, float]:
        # Standardized moments of betaprime(a, b); requires b > 4.
        sk = 2.0 * (2.0 * a + b - 1.0) / (b - 3.0) * np.sqrt(
            (b - 2.0) / (a * (a + b - 1.0))
        )
        ex = 6.0 * (
            a * (a + b - 1.0) * (5.0 * b - 11.0) + (b - 1.0) ** 2 * (b - 2.0)
        ) / (a * (a + b - 1.0) * (b - 3.0) * (b - 4.0))
        return sk, ex

    # For fixed b, skew is monotone in a; solve a(b) from skew, then match
    # kurtosis by a 1-D search over b.
    def a_from_b(b: float) -> float:
        lo, hi = 1e-8, 1e8

        def f(a: float) -> float:
            return bp_skew_kurt(a, b)[0] - g1

        flo, fhi = f(lo), f(hi)
        if flo * fhi > 0.0:
            raise ReconstructionError("type VI: no matching shape a for skew")
        return _brentq(f, lo, hi, xtol=1e-12, rtol=1e-12)

    def kurt_gap(b: float) -> float:
        a = a_from_b(b)
        return bp_skew_kurt(a, b)[1] - g2e

    # skew(a, b) decreases in a toward the limit 4*sqrt(b-2)/(b-3); the
    # target g1 is reachable only when that limit is below g1, i.e. for
    # b beyond the larger root of g1^2*(b-3)^2 = 16*(b-2):
    # b > 3 + (8 + 4*sqrt(g1^2 + 4)) / g1^2.
    lo_b = max(
        4.0, 3.0 + (8.0 + 4.0 * np.sqrt(g1 * g1 + 4.0)) / (g1 * g1)
    ) + 1e-6
    hi_b = 1e6
    glo = kurt_gap(lo_b)
    ghi = kurt_gap(hi_b)
    if glo * ghi > 0.0:
        raise ReconstructionError("type VI: kurtosis not bracketable")
    b = _brentq(kurt_gap, lo_b, hi_b, xtol=1e-10, rtol=1e-10)
    a = a_from_b(b)
    return _BetaPrime(a, b)


#: Half-width, in Laplace widths of the weight's peak, of the type-IV
#: peak grid.  In a fuzz of 15,261 members with |skew| <= 5, the log
#: weight at the window's ends was at least 61 nats below the mode.
_PEAK_WIDTHS = 40.0


@dataclass(frozen=True)
class _PearsonIV:
    """Numerically exact Pearson Type IV distribution.

    Density: ``p(x) ∝ [1 + ((x - lam)/a)^2]^(-m) * exp(-nu*atan((x-lam)/a))``.

    Implemented through the substitution ``x = lam + a*tan(theta)`` which
    maps the real line onto ``theta in (-pi/2, pi/2)`` where the integrand
    ``cos(theta)^(2m-2) * exp(-nu*theta)`` is bounded — integration,
    CDF tabulation and inverse-CDF sampling all happen on that compact
    grid with no tail truncation error.

    The grid is uniform over the whole interval unless the weight's peak
    is narrower than that grid can resolve.  Just inside the type-V line
    the peak sits next to ``+-pi/2`` with Laplace width
    ``cos(theta0) / sqrt(2m - 2)``, far below one uniform cell, and the
    grid's moments and draws come apart (draw std many times the target,
    or overflow).  There the same number of points spans the peak
    instead, ``_PEAK_WIDTHS`` widths either side of the mode, clipped to
    the interval: whichever of the two grids puts more points across
    the peak is used, so members the uniform grid resolves keep it.
    """

    m: float
    nu: float
    a: float
    lam: float
    n_grid: int = 4001

    def _log_weight(self, theta: np.ndarray) -> np.ndarray:
        """Log of the unnormalized theta-space weight cos^(2m-2) * exp(-nu*theta)."""
        with np.errstate(divide="ignore"):
            return (2.0 * self.m - 2.0) * np.log(
                np.maximum(np.cos(theta), 1e-300)
            ) - self.nu * theta

    def _theta_grid(self) -> np.ndarray:
        """Uniform theta grid over the interval, or over the weight's peak."""
        k = 2.0 * self.m - 2.0
        if k > 0.0:
            # Mode and Laplace width of the log weight:
            # tan(theta0) = -nu/k, width = cos(theta0)/sqrt(k).
            tan0 = -self.nu / k
            width = 1.0 / (math.hypot(1.0, tan0) * math.sqrt(k))
            if 2.0 * _PEAK_WIDTHS * width < np.pi:
                theta0 = math.atan(tan0)
                lo = max(theta0 - _PEAK_WIDTHS * width, -np.pi / 2.0)
                hi = min(theta0 + _PEAK_WIDTHS * width, np.pi / 2.0)
                return np.linspace(lo, hi, self.n_grid)
        return np.linspace(-np.pi / 2.0, np.pi / 2.0, self.n_grid)

    def _theta_tables(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(theta grid, shifted weights, log-shift applied)."""
        theta = self._theta_grid()
        log_w = self._log_weight(theta)
        shift = float(log_w.max())
        w = np.exp(log_w - shift)
        w[0] = w[-1] = 0.0
        return theta, w, shift

    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        theta, w, _ = self._theta_tables()
        dtheta = theta[1] - theta[0]
        cum = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) * 0.5 * dtheta)])
        total = cum[-1]
        if total <= 0.0:
            raise ReconstructionError("Pearson IV density integrated to zero")
        return theta, cum / total

    def pdf(self, x) -> np.ndarray:
        xq = np.atleast_1d(np.asarray(x, dtype=np.float64))
        z = (xq - self.lam) / self.a
        theta, w, shift = self._theta_tables()
        dtheta = theta[1] - theta[0]
        total = float(np.sum((w[1:] + w[:-1]) * 0.5 * dtheta))
        # Weight/density relation: w(theta) dtheta = p(x) dx with
        # dx = a * sec^2(theta) dtheta and sec^2(atan z) = 1 + z^2, hence
        # p(x) = exp(log_weight(atan z) - shift) / (total * a * (1 + z^2)).
        theta_q = np.arctan(z)
        log_w_q = self._log_weight(theta_q) - shift
        return np.exp(log_w_q) / (total * self.a * (1.0 + z * z))

    def cdf(self, x) -> np.ndarray:
        xq = np.atleast_1d(np.asarray(x, dtype=np.float64))
        theta_q = np.arctan((xq - self.lam) / self.a)
        theta, cdf = self._cdf_table()
        return np.interp(theta_q, theta, cdf)

    def rvs(self, size: int, rng: np.random.Generator) -> np.ndarray:
        theta, cdf = self._cdf_table()
        u = rng.random(size)
        theta_s = np.interp(u, cdf, theta)
        return self.lam + self.a * np.tan(theta_s)

    def stats_mv(self) -> tuple[float, float]:
        """Numeric (mean, variance) via the compact-theta quadrature."""
        theta, w, _ = self._theta_tables()
        dtheta = theta[1] - theta[0]
        x = self.lam + self.a * np.tan(theta)
        x[0], x[-1] = x[1], x[-2]  # endpoints have zero weight anyway
        total = np.trapezoid(w, dx=dtheta)
        mean = np.trapezoid(w * x, dx=dtheta) / total
        var = np.trapezoid(w * (x - mean) ** 2, dx=dtheta) / total
        return float(mean), float(var)


def _build_type4(skew: float, kurt: float) -> _PearsonIV:
    """Pearson IV parameters from moments (Heinrich's formulas)."""
    beta1 = skew * skew
    beta2 = kurt
    denom = 2.0 * beta2 - 3.0 * beta1 - 6.0
    if denom <= 0.0:
        raise ReconstructionError("type IV requires 2*kurt - 3*skew^2 - 6 > 0")
    r = 6.0 * (beta2 - beta1 - 1.0) / denom
    m = (r + 2.0) / 2.0
    disc = 16.0 * (r - 1.0) - beta1 * (r - 2.0) ** 2
    if disc <= 0.0:
        raise ReconstructionError("type IV discriminant non-positive")
    nu = -r * (r - 2.0) * skew / np.sqrt(disc)
    a = np.sqrt(disc) / 4.0  # for unit variance
    lam = a * nu / r  # so that mean = lam - a*nu/r = 0
    return _PearsonIV(m=m, nu=nu, a=a, lam=lam)


@dataclass(frozen=True)
class PearsonDistribution:
    """A member of the Pearson system matched to four moments.

    Construct with :func:`pearson_system`.  The wrapped standardized
    distribution ``base`` is mapped through ``x -> loc + scale * x`` so
    that the resulting mean and standard deviation are exact.
    """

    mean: float
    std: float
    skew: float
    kurt: float
    pearson_type: int
    _base: _Family | None
    _loc: float
    _scale: float

    def rvs(self, size: int, random_state=None) -> np.ndarray:
        """Draw ``size`` samples matching the requested moments."""
        rng = check_random_state(random_state)
        if self._base is None:  # degenerate point mass
            raw = np.zeros(size)
        else:
            raw = self._base.rvs(size, rng)
        return self._loc + self._scale * raw

    def pdf(self, x) -> np.ndarray:
        """Density at *x* (zero-width distributions have no density)."""
        if self._base is None:
            raise ReconstructionError("point-mass distribution has no density")
        xq = (np.atleast_1d(np.asarray(x, dtype=np.float64)) - self._loc) / self._scale
        return self._base.pdf(xq) / abs(self._scale)

    def cdf(self, x) -> np.ndarray:
        """CDF at *x*."""
        xq = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self._base is None:
            return (xq >= self._loc).astype(np.float64)
        z = (xq - self._loc) / self._scale
        c = self._base.cdf(z)
        if self._scale < 0.0:
            c = 1.0 - c
        return c


def pearson_system(
    mean: float, std: float, skew: float, kurt: float, *, project: bool = True
) -> PearsonDistribution:
    """Construct the Pearson-system distribution with the given moments.

    Parameters
    ----------
    mean, std, skew, kurt:
        Target first four moments (kurt is *not* excess; normal = 3).
    project:
        When True (default), infeasible or non-finite moment vectors are
        first projected to the nearest feasible point instead of raising —
        this is essential when the moments come from an ML model.
    """
    if project:
        mean, std, skew, kurt = nearest_feasible(mean, std, skew, kurt)
    if std < 0.0:
        raise MomentError(f"std must be non-negative, got {std}")
    # Exact-zero guard: only a literally degenerate (point-mass)
    # distribution takes the branch; near-zero std must stay continuous.
    if std == 0.0:  # repro: noqa[DET005]
        return PearsonDistribution(mean, 0.0, skew, kurt, 0, None, mean, 0.0)
    ptype = classify_pearson(skew, kurt)

    constructors: dict[int, Callable[[], _Family]] = {
        0: _Normal,
        1: lambda: _build_type1(skew, kurt),
        2: lambda: _build_type2(kurt),
        3: lambda: _build_type3(skew),
        4: lambda: _build_type4(skew, kurt),
        5: lambda: _build_type5(skew),
        6: lambda: _build_type6(skew, kurt),
        7: lambda: _build_type7(kurt),
    }
    base: _Family
    try:
        base = constructors[ptype]()
    except ReconstructionError:
        # Geometry edge cases near type boundaries: retreat to the normal
        # distribution rather than failing a whole prediction pipeline.
        base = _Normal()
        ptype = 0

    base_mean, base_var = base.stats_mv()
    if ptype == 4 and not base_var > 0.0:
        # A peak narrower than theta's float resolution (none is known
        # among |skew| <= 5) leaves no grid variance; a member that
        # narrow is all but normal.
        base, ptype = _Normal(), 0
        base_mean, base_var = base.stats_mv()
    mirror = ptype in (3, 5, 6) and skew < 0.0
    base_std = np.sqrt(base_var)
    if not np.isfinite(base_std) or base_std <= 0.0:
        raise ReconstructionError(
            f"type {ptype} base distribution has invalid std {base_std}"
        )
    scale = std / base_std
    if mirror:
        scale = -scale
    loc = mean - scale * base_mean
    return PearsonDistribution(mean, std, skew, kurt, ptype, base, loc, scale)


def pearsrnd(
    mean: float,
    std: float,
    skew: float,
    kurt: float,
    size: int,
    rng=None,
) -> np.ndarray:
    """MATLAB-style one-shot sampler: moments in, random sample out."""
    dist = pearson_system(mean, std, skew, kurt)
    return dist.rvs(size, random_state=rng)
