"""Queueing-aware admission control: shed before the Kingman knee.

The service's fixed ``queue_limit`` admits work until a request *count*
is reached — a policy blind to how expensive requests are and how
bursty they arrive.  It stays on as the hard depth backstop; this gate
sheds in front of it.  Queueing theory says waiting time in a G/G/1
queue is governed by Kingman's approximation:

    Wq  ≈  ρ/(1−ρ) · (Ca² + Cs²)/2 · E[S]

where ρ = λ·E[S] is utilization (arrival rate × mean service time; a
shard executes one batch at a time, so it is one server), Ca² the
squared coefficient of variation of interarrival times, and Cs² the
squared coefficient of variation of service times.
Waiting explodes hyperbolically as ρ→1 — the *knee* — and it explodes
earlier when service times are more variable (larger Cs²).  A fixed
queue bound admits deep into the knee on variable workloads and sheds
needlessly on uniform ones.

:class:`KingmanAdmission` instead tracks a sliding window of measured
service times, *offered* arrival timestamps (for Ca²) and *admitted*
arrival timestamps (for λ̂), and sheds load (429) when the *predicted*
normalized wait ρ/(1−ρ)·(Ca²+Cs²)/2 exceeds a configured wait budget
``knee`` (in units of mean service times), or when ρ crosses a hard
cap ``rho_max``.  λ̂ deliberately measures admitted load, not offered
load: shed requests (including client retries of them) never enter
its window, and the decision-time rate estimate spans to the current
clock, so sustained shedding decays ρ and the gate recovers instead of
latching shut.  Ca², by contrast, is measured over offered arrivals:
the admitted stream is the offered one thinned by the gate itself, and
that thinning is bursty.  The shed threshold in ρ terms — the
documented "Kingman knee" — is therefore

    ρ*  =  2·knee / (2·knee + Ca² + Cs²)

(e.g. knee=4 with Ca²=Cs²=1 sheds at ρ* = 0.8).

**The explicit lognormal assumption.**  Production telemetry usually
exports percentiles, not full samples, and percentiles carry no
distribution-free variance information: estimating moments from them
*requires* a modeling assumption.  Following the practical appendix in
SNIPPETS.md (emcrisostomo/latency-simulation), the estimator assumes
service times are **log-normal** — positive support, right skew,
moderate tails — under which p50 = exp(μ) and p90 = exp(μ + z₉₀·σ), so

    σ_ln  = ln(p90/p50) / z₉₀        (z₉₀ = Φ⁻¹(0.90) ≈ 1.2816)
    E[S]  = p50 · exp(σ_ln²/2)
    Cs²   = exp(σ_ln²) − 1

Both E[S] (for ρ and the wait budget) and Cs² come from the window's
empirical p50/p90, never from its raw mean or its maximum.  With linear
interpolation over n sorted samples, p90 reads positions
⌊0.9·(n−1)⌋ and the one above, which stay below the window's top
sample for every n ≥ 11: one stall, however long, can move either
percentile by at most one rank, so it cannot inflate E[S] or Cs² and
shed the requests behind it.  (A window mean, or a p99 over fewer than
about 100 samples, mixes the maximum in.)  The formulas are
implemented once, in :mod:`repro.stats.lognormal`, and shared with the
percentile-only probe path (:class:`~repro.core.sketch.QuantileSketch`
recovers model features from telemetry percentiles under the same
assumption).  Confusing Cs with Cs² systematically underestimates
waiting — everything here is the *squared* coefficient.

Metrics: ``fleet.rho`` / ``fleet.cs2`` gauges track the latest window
estimates, ``fleet.shed`` counts refusals, and ``fleet.service_s`` is
the measured service-time histogram (contract in
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import bisect
import math
import time
from collections import deque
from dataclasses import dataclass
from itertools import pairwise
from typing import NamedTuple

from ... import obs
from ...errors import ValidationError

# The percentile→moment math is shared with QuantileSketch, which
# recovers model features under the same lognormal assumption.
from ...stats.lognormal import Z90, sigma_from_quantiles

__all__ = ["AdmissionConfig", "AdmissionSnapshot", "KingmanAdmission"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables for :class:`KingmanAdmission` (all knobs, no behavior).

    Attributes
    ----------
    window:
        Sliding-window length, in completed requests, over which service
        times and arrival timestamps are measured.
    knee:
        Wait budget in units of mean service time: shed once the
        predicted normalized wait ρ/(1−ρ)·(Ca²+Cs²)/2 exceeds this.
    rho_max:
        Hard utilization cap; shed at ρ ≥ rho_max regardless of the
        wait estimate (keeps the estimate itself finite).
    min_samples:
        Admit unconditionally until this many service times have been
        observed — an empty window has no defensible estimate.
    """

    window: int = 512
    knee: float = 4.0
    rho_max: float = 0.95
    min_samples: int = 32

    def __post_init__(self) -> None:
        """Validate ranges; raises :class:`~repro.errors.ValidationError`."""
        if self.window < 2:
            raise ValidationError("window must be >= 2")
        if self.knee <= 0.0:
            raise ValidationError("knee must be > 0")
        if not 0.0 < self.rho_max < 1.0:
            raise ValidationError("rho_max must be in (0, 1)")
        if self.min_samples < 2:
            raise ValidationError("min_samples must be >= 2")

    def rho_knee(self, ca2: float, cs2: float) -> float:
        """Utilization at which the wait budget is exactly exhausted.

        Solving ρ/(1−ρ)·(Ca²+Cs²)/2 = knee for ρ gives
        ρ* = 2·knee/(2·knee + Ca² + Cs²) — the documented shed
        threshold (capped by ``rho_max``).
        """
        rho_star = 2.0 * self.knee / (2.0 * self.knee + ca2 + cs2)
        return min(rho_star, self.rho_max)


@dataclass(frozen=True)
class AdmissionSnapshot:
    """One observable admission state: estimates, threshold, counters."""

    rho: float
    ca2: float
    cs2: float
    mean_service_s: float
    p50_service_s: float
    p90_service_s: float
    p99_service_s: float
    wait_s: float
    wait_budget_s: float
    rho_knee: float
    n_samples: int
    admitted: int
    shed: int

    def to_wire(self) -> dict:
        """JSON-safe dict form (used by the shard ``health`` op)."""
        return {
            "rho": self.rho,
            "ca2": self.ca2,
            "cs2": self.cs2,
            "mean_service_s": self.mean_service_s,
            "p50_service_s": self.p50_service_s,
            "p90_service_s": self.p90_service_s,
            "p99_service_s": self.p99_service_s,
            "wait_s": self.wait_s,
            "wait_budget_s": self.wait_budget_s,
            "rho_knee": self.rho_knee,
            "n_samples": self.n_samples,
            "admitted": self.admitted,
            "shed": self.shed,
        }


#: Largest argument ``math.exp`` takes without overflowing, rounded down.
_MAX_EXPONENT = 709.0


def _percentile(ordered: list[float], q: float) -> float:
    """``np.percentile(ordered, 100 * q)`` of a sorted list, bit for bit.

    NumPy's default (linear) method: virtual index ``(n − 1)·q``, and
    its two-sided lerp, which interpolates from the nearer neighbour.
    """
    index = (len(ordered) - 1) * q
    lo = int(index)
    if lo >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[lo], ordered[lo + 1]
    frac = index - lo
    if frac >= 0.5:
        return b - (b - a) * (1.0 - frac)
    return a + (b - a) * frac


class _ServiceEstimate(NamedTuple):
    """Service-window percentiles and the lognormal E[S]/Cs² they imply."""

    p50: float
    p90: float
    p99: float
    mean_s: float
    cs2: float


def _estimate_service(ordered: list[float]) -> _ServiceEstimate | None:
    """Estimate from the sorted window (None below two samples)."""
    if len(ordered) < 2:
        return None
    p50 = _percentile(ordered, 0.5)
    p90 = _percentile(ordered, 0.9)
    p99 = _percentile(ordered, 0.99)
    if p50 <= 0.0:
        # Most requests took no measurable time: no lognormal fits, and
        # there is no load to estimate.
        return _ServiceEstimate(p50, p90, p99, 0.0, 0.0)
    sigma = sigma_from_quantiles(p50, p90, Z90)
    # σ² stops where exp(σ²) would overflow (p90/p50 beyond ~e³⁴):
    # such a window still reads as enormous E[S] and Cs², and sheds.
    s2 = min(sigma * sigma, _MAX_EXPONENT)
    return _ServiceEstimate(p50, p90, p99, p50 * math.exp(s2 / 2.0), math.expm1(s2))


class KingmanAdmission:
    """Sliding-window Kingman estimator + shed decision (one per shard).

    Not thread-safe by design: one instance lives inside one shard's
    event loop, where ``admit`` runs on the loop and ``observe`` is
    called from the batch executor via ``call_soon_threadsafe`` — both
    therefore execute on the loop thread.

    A *clock* callable may be injected (default ``time.monotonic``) so
    tests can drive arrivals at exact rates and assert deterministic
    shed decisions at forced ρ/Cs² values.

    Every estimate is maintained incrementally: ``observe`` keeps the
    service window sorted and refreshes its percentiles, E[S] and Cs²
    once per completion; ``admit`` keeps a running sum of squared
    interarrival gaps, so a decision costs O(1) instead of a pass over
    both windows.
    """

    def __init__(self, config: AdmissionConfig | None = None, *, clock=None) -> None:
        """Create an admission gate with the given tunables."""
        self.config = config or AdmissionConfig()
        self._clock = clock if clock is not None else time.monotonic
        window = self.config.window
        self._service_s: deque[float] = deque(maxlen=window)
        self._ordered: list[float] = []  # the service window, sorted
        self._service: _ServiceEstimate | None = None
        self._offered: deque[float] = deque(maxlen=window)
        self._gap_sq = 0.0  # Σ gap² over the offered window
        self._admitted_at: deque[float] = deque(maxlen=window)
        self._decision: AdmissionSnapshot | None = None
        self._admitted = 0
        self._shed = 0

    def observe(self, service_s: float) -> None:
        """Record one measured service time (seconds of actual work)."""
        if not 0.0 <= service_s < math.inf:
            raise ValidationError("service_s must be finite and >= 0")
        value = float(service_s)
        window, ordered = self._service_s, self._ordered
        if len(window) == window.maxlen:
            del ordered[bisect.bisect_left(ordered, window[0])]
        window.append(value)
        bisect.insort(ordered, value)
        self._service = _estimate_service(ordered)
        obs.observe("fleet.service_s", value)

    def _offer(self, now: float) -> None:
        """Enter one offered arrival into the Ca² window."""
        times = self._offered
        if len(times) == times.maxlen:
            first = times.popleft()
            dropped = times[0] - first
            self._gap_sq -= dropped * dropped
            if dropped * dropped > self._gap_sq:
                # The gap leaving held most of the sum (say, an idle
                # hour): subtracting it left mostly rounding error, so
                # re-add the gaps that stay.
                self._gap_sq = math.fsum((b - a) * (b - a) for a, b in pairwise(times))
        if times:
            gap = now - times[-1]
            self._gap_sq += gap * gap
        times.append(now)

    def _arrival_rate(self, now: float | None = None) -> float:
        """λ̂: *admitted* arrivals per second over the current window.

        Only admitted arrivals are recorded (see :meth:`admit`), so λ̂
        measures load actually entering the queue, not offered load.
        When *now* is given (the decision-time form used by ``admit``),
        the candidate arrival counts as the next event and the elapsed
        span runs to *now* — so while the gate sheds, time passing with
        nothing admitted decays λ̂ and ρ, and the gate recovers instead
        of latching shut under a client retry storm.
        """
        times = self._admitted_at
        if now is not None:
            if not times:
                return 0.0
            elapsed = now - times[0]
            if elapsed <= 0.0:
                return math.inf
            return len(times) / elapsed
        if len(times) < 2:
            return 0.0
        elapsed = times[-1] - times[0]
        if elapsed <= 0.0:
            return math.inf
        return (len(times) - 1) / elapsed

    def _ca2(self) -> float:
        """Ca² of *offered* interarrival times (1.0 until measurable).

        Offered, not admitted: while the gate sheds, the admitted stream
        is the offered one thinned by the gate's own decisions, and that
        thinning makes it bursty — an admitted-arrival Ca² would hold
        ρ* down and keep the gate shedding after the overload ends.
        """
        times = self._offered
        n_gaps = len(times) - 1
        if n_gaps < 2:
            return 1.0  # Poisson prior until interarrivals are measurable
        span = times[-1] - times[0]
        if span <= 0.0:
            return 1.0
        # var/mean² with mean = span/n and var = Σgap²/n − mean²
        # (span is divided out twice so that span² cannot underflow).
        return max(n_gaps * (self._gap_sq / span) / span - 1.0, 0.0)

    def _load(self, est: _ServiceEstimate, now: float | None) -> tuple[float, float, float]:
        """``(ρ, Ca², ρ*)``: the numbers a shed decision compares."""
        ca2 = self._ca2()
        # E[S] = 0 is no load at any rate (and keeps ∞·0 out of ρ).
        rho = min(self._arrival_rate(now) * est.mean_s, 1.0) if est.mean_s > 0.0 else 0.0
        return rho, ca2, self.config.rho_knee(ca2, est.cs2)

    def snapshot(self, *, now: float | None = None) -> AdmissionSnapshot:
        """Current estimates, wait prediction, threshold, and counters.

        *now* switches λ̂ to the decision-time form (candidate arrival
        included, elapsed measured to *now*) used by :meth:`admit`.
        """
        est = self._service
        if est is None:
            return AdmissionSnapshot(
                rho=0.0, ca2=1.0, cs2=0.0, mean_service_s=0.0,
                p50_service_s=0.0, p90_service_s=0.0, p99_service_s=0.0,
                wait_s=0.0, wait_budget_s=0.0, rho_knee=self.config.rho_max,
                n_samples=len(self._service_s), admitted=self._admitted,
                shed=self._shed,
            )
        mean_s, cs2 = est.mean_s, est.cs2
        rho, ca2, rho_knee = self._load(est, now)
        if rho < 1.0:
            wait_s = rho / (1.0 - rho) * (ca2 + cs2) / 2.0 * mean_s
        else:
            wait_s = math.inf
        return AdmissionSnapshot(
            rho=rho,
            ca2=ca2,
            cs2=cs2,
            mean_service_s=mean_s,
            p50_service_s=est.p50,
            p90_service_s=est.p90,
            p99_service_s=est.p99,
            wait_s=wait_s,
            wait_budget_s=self.config.knee * mean_s,
            rho_knee=rho_knee,
            n_samples=len(self._service_s),
            admitted=self._admitted,
            shed=self._shed,
        )

    def admit(self) -> bool:
        """Decide one arrival: admit (True) or shed (False).

        Admits unconditionally until ``min_samples`` service times have
        been measured; afterwards sheds when ρ ≥ rho_max or when the
        predicted Kingman wait exceeds the ``knee`` budget — i.e. at
        ρ ≥ ρ* = 2·knee/(2·knee + Ca² + Cs²), *before* the hyperbolic
        blow-up rather than after a queue has already formed.

        Every arrival enters the Ca² window, but only *admitted* ones
        enter the λ̂ window: ρ then reflects load actually entering the
        queue, so a retry storm of shed requests cannot keep ρ pinned
        above ρ* — idle-while-shedding time decays λ̂ (see
        :meth:`_arrival_rate`) and the gate reopens.
        """
        now = float(self._clock())
        self._offer(now)
        est = self._service
        if est is not None and len(self._service_s) >= self.config.min_samples:
            rho, _, rho_knee = self._load(est, now)
            obs.gauge("fleet.rho", rho)
            obs.gauge("fleet.cs2", est.cs2)
            if rho >= rho_knee:
                self._decision = self.snapshot(now=now)
                self._shed += 1
                obs.counter("fleet.shed")
                return False
        self._admitted_at.append(now)
        self._admitted += 1
        return True

    def describe(self) -> str:
        """One-line summary of the latest shed (used in 429 messages).

        It reports the decision-time snapshot :meth:`admit` shed on, not
        a fresh :meth:`snapshot`, whose λ̂ is measured differently and
        would contradict the decision.
        """
        snap = self._decision or self.snapshot()
        return (
            f"rho={snap.rho:.3f} >= rho*={snap.rho_knee:.3f} "
            f"(Cs2={snap.cs2:.2f}, Ca2={snap.ca2:.2f}, "
            f"predicted wait {snap.wait_s * 1e3:.1f}ms > "
            f"budget {snap.wait_budget_s * 1e3:.1f}ms)"
        )
