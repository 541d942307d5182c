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
* moment-matched samplers for every type — closed-form scipy families for
  types 0/I/II/III/V/VI/VII and a numerically exact inverse-CDF sampler
  for type IV (via the ``x = lam + a*tan(theta)`` substitution that maps
  the infinite support onto ``(-pi/2, pi/2)``).

``scipy.stats`` costs about a second and 65 MB to import, so it is
imported inside the builders that return its families, not at module
level: importing ``repro`` (or a serving process that never samples)
does not pay for it.  :func:`load_sampler_stack` pays it up front.

Every returned distribution matches the requested mean and standard
deviation exactly (affine correction) and the requested skewness/kurtosis
up to the feasibility of its type family.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .._validation import check_random_state
from ..errors import MomentError, ReconstructionError
from .moments import is_feasible, nearest_feasible

__all__ = [
    "classify_pearson",
    "PearsonDistribution",
    "pearson_system",
    "pearsrnd",
    "load_sampler_stack",
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


def load_sampler_stack() -> None:
    """Import ``scipy.stats`` now instead of at the first sampler build.

    For a process that must not pay the one-off import on a request,
    e.g. a fleet shard whose admission gate would read the stall as
    service time.
    """
    importlib.import_module("scipy.stats")


# ---------------------------------------------------------------------------
# Per-type moment-matched constructions.  Each builder returns a scipy
# frozen distribution whose skewness/kurtosis match the request; the caller
# applies the final affine mean/std correction.
# ---------------------------------------------------------------------------


def _build_normal():
    """Standard normal (type 0, and the fallback at type boundaries)."""
    from scipy import stats as sps

    return sps.norm()


def _build_type2(kurt: float):
    """Symmetric beta on a symmetric interval (kurt < 3)."""
    from scipy import stats as sps

    # Symmetric beta(alpha, alpha) has kurt = 3 - 6/(2*alpha + 3).
    alpha = (6.0 / (3.0 - kurt) - 3.0) / 2.0
    if alpha <= 0.0:
        raise ReconstructionError(
            f"type II needs kurt in (1, 3); alpha={alpha:.4g} from kurt={kurt:.4g}"
        )
    return sps.beta(alpha, alpha)


def _build_type7(kurt: float):
    """Student's t (symmetric, kurt > 3)."""
    from scipy import stats as sps

    # t_nu has kurt = 3 + 6/(nu - 4) for nu > 4.
    nu = 4.0 + 6.0 / (kurt - 3.0)
    return sps.t(nu)


def _build_type3(skew: float):
    """Gamma (possibly mirrored), on the line kurt = 1.5*skew**2 + 3."""
    from scipy import stats as sps

    k = 4.0 / (skew * skew)
    return sps.gamma(k)


def _build_type1(skew: float, kurt: float):
    """General beta via the classical method-of-moments solution."""
    from scipy import stats as sps

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
    return sps.beta(a, b)


def _build_type5(skew: float):
    """Inverse gamma on the kappa == 1 boundary."""
    from scipy import stats as sps

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
    return sps.invgamma(alpha)


def _build_type6(skew: float, kurt: float):
    """Beta-prime (Pearson VI) via 2-D numeric moment matching."""
    from scipy import stats as sps
    from scipy.optimize import brentq

    g1 = abs(skew)
    g2e = kurt - 3.0

    def bp_skew_kurt(a: float, b: float) -> tuple[float, float]:
        # Standardized moments of betaprime(a, b); requires b > 4.
        var = a * (a + b - 1.0) / ((b - 2.0) * (b - 1.0) ** 2)
        sk = 2.0 * (2.0 * a + b - 1.0) / (b - 3.0) * np.sqrt(
            (b - 2.0) / (a * (a + b - 1.0))
        )
        ex = 6.0 * (
            a * (a + b - 1.0) * (5.0 * b - 11.0) + (b - 1.0) ** 2 * (b - 2.0)
        ) / (a * (a + b - 1.0) * (b - 3.0) * (b - 4.0))
        del var
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
        return brentq(f, lo, hi, xtol=1e-12, rtol=1e-12)

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
    b = brentq(kurt_gap, lo_b, hi_b, xtol=1e-10, rtol=1e-10)
    a = a_from_b(b)
    return sps.betaprime(a, b)


@dataclass(frozen=True)
class _PearsonIV:
    """Numerically exact Pearson Type IV distribution.

    Density: ``p(x) ∝ [1 + ((x - lam)/a)^2]^(-m) * exp(-nu*atan((x-lam)/a))``.

    Implemented through the substitution ``x = lam + a*tan(theta)`` which
    maps the real line onto ``theta in (-pi/2, pi/2)`` where the integrand
    ``cos(theta)^(2m-2) * exp(-nu*theta)`` is bounded — integration,
    CDF tabulation and inverse-CDF sampling all happen on that compact
    grid with no tail truncation error.
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

    def _theta_tables(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(theta grid, shifted weights, log-shift applied)."""
        theta = np.linspace(-np.pi / 2.0, np.pi / 2.0, self.n_grid)
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

    def rvs(self, size: int, random_state=None) -> np.ndarray:
        rng = check_random_state(random_state)
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
    _base: object
    _loc: float
    _scale: float

    def rvs(self, size: int, random_state=None) -> np.ndarray:
        """Draw ``size`` samples matching the requested moments."""
        rng = check_random_state(random_state)
        if isinstance(self._base, _PearsonIV):
            raw = self._base.rvs(size, random_state=rng)
        elif self._base is None:  # degenerate point mass
            raw = np.zeros(size)
        else:
            raw = self._base.rvs(size=size, random_state=rng)
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

    builders: dict[int, Callable[[], object]] = {
        0: _build_normal,
        1: lambda: _build_type1(skew, kurt),
        2: lambda: _build_type2(kurt),
        3: lambda: _build_type3(skew),
        4: lambda: _build_type4(skew, kurt),
        5: lambda: _build_type5(skew),
        6: lambda: _build_type6(skew, kurt),
        7: lambda: _build_type7(kurt),
    }
    try:
        base = builders[ptype]()
    except ReconstructionError:
        # Geometry edge cases near type boundaries: retreat to the normal
        # distribution rather than failing a whole prediction pipeline.
        base = _build_normal()
        ptype = 0

    mirror = ptype in (3, 5, 6) and skew < 0.0
    if isinstance(base, _PearsonIV):
        base_mean, base_var = base.stats_mv()
    else:
        base_mean, base_var = (float(v) for v in base.stats(moments="mv"))
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
