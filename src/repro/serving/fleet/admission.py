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
service times and *admitted* arrival timestamps and sheds load (429)
when the *predicted* normalized wait ρ/(1−ρ)·(Ca²+Cs²)/2 exceeds a
configured wait budget ``knee`` (in units of mean service times), or
when ρ crosses a hard cap ``rho_max``.  λ̂ deliberately measures
admitted load, not offered load: shed requests (including client
retries of them) never enter the window, and the decision-time rate
estimate spans to the current clock, so sustained shedding decays ρ
and the gate recovers instead of latching shut.  The shed threshold in ρ terms — the
documented "Kingman knee" — is therefore

    ρ*  =  2·knee / (2·knee + Ca² + Cs²)

(e.g. knee=4 with Ca²=Cs²=1 sheds at ρ* = 0.8).

**The explicit lognormal assumption.**  Production telemetry usually
exports percentiles, not full samples, and percentiles carry no
distribution-free variance information: estimating Cs² from p50/p99
*requires* a modeling assumption.  Following the practical appendix in
SNIPPETS.md (emcrisostomo/latency-simulation), the estimator assumes
service times are **log-normal** — positive support, right skew,
moderate tails — under which p50 = exp(μ) and p99 = exp(μ + z₉₉·σ), so

    σ_ln = ln(p99/p50) / z₉₉        (z₉₉ = Φ⁻¹(0.99) ≈ 2.3263)
    Cs²  = exp(σ_ln²) − 1

The formulas are implemented once, in :mod:`repro.stats.lognormal`, and
shared with the percentile-only probe path
(:class:`~repro.core.sketch.QuantileSketch` recovers model features
from telemetry percentiles under the same assumption).

The gate applies this estimator to its own *measured* window (via the
window's empirical p50/p99) because it is robust to the stray
multi-second outlier that would dominate a raw-moment Var(S)/E[S]²
estimate.  Confusing Cs with Cs² systematically underestimates waiting
— everything here is the *squared* coefficient.

Metrics: ``fleet.rho`` / ``fleet.cs2`` gauges track the latest window
estimates, ``fleet.shed`` counts refusals, and ``fleet.service_s`` is
the measured service-time histogram (contract in
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ... import obs
from ...errors import ValidationError

# The percentile→moment math is shared with QuantileSketch, which
# recovers model features from the same p50/p99 formulas.
from ...stats.lognormal import cs2_from_percentiles

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
            "p99_service_s": self.p99_service_s,
            "wait_s": self.wait_s,
            "wait_budget_s": self.wait_budget_s,
            "rho_knee": self.rho_knee,
            "n_samples": self.n_samples,
            "admitted": self.admitted,
            "shed": self.shed,
        }


class KingmanAdmission:
    """Sliding-window Kingman estimator + shed decision (one per shard).

    Not thread-safe by design: one instance lives inside one shard's
    event loop, where ``admit`` runs on the loop and ``observe`` is
    called from the batch executor via ``call_soon_threadsafe`` — both
    therefore execute on the loop thread.

    A *clock* callable may be injected (default ``time.monotonic``) so
    tests can drive arrivals at exact rates and assert deterministic
    shed decisions at forced ρ/Cs² values.
    """

    def __init__(self, config: AdmissionConfig | None = None, *, clock=None) -> None:
        """Create an admission gate with the given tunables."""
        self.config = config or AdmissionConfig()
        self._clock = clock if clock is not None else time.monotonic
        self._service_s: deque[float] = deque(maxlen=self.config.window)
        self._arrivals: deque[float] = deque(maxlen=self.config.window)
        self._admitted = 0
        self._shed = 0

    def observe(self, service_s: float) -> None:
        """Record one measured service time (seconds of actual work)."""
        if service_s < 0.0:
            raise ValidationError("service_s must be >= 0")
        self._service_s.append(float(service_s))
        obs.observe("fleet.service_s", float(service_s))

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
        if now is not None:
            if not self._arrivals:
                return 0.0
            elapsed = now - self._arrivals[0]
            if elapsed <= 0.0:
                return math.inf
            return len(self._arrivals) / elapsed
        if len(self._arrivals) < 2:
            return 0.0
        elapsed = self._arrivals[-1] - self._arrivals[0]
        if elapsed <= 0.0:
            return math.inf
        return (len(self._arrivals) - 1) / elapsed

    def _ca2(self) -> float:
        """Ca² of interarrival times over the window (1.0 until measurable)."""
        if len(self._arrivals) < 3:
            return 1.0  # Poisson prior until interarrivals are measurable
        gaps = np.diff(np.asarray(self._arrivals, dtype=np.float64))
        mean = float(gaps.mean())
        if mean <= 0.0:
            return 1.0
        return float(gaps.var() / (mean * mean))

    def _cs2(self) -> float:
        """Cs² of the service-time window under the lognormal assumption."""
        samples = np.asarray(self._service_s, dtype=np.float64)
        p50 = float(np.percentile(samples, 50))
        p99 = float(np.percentile(samples, 99))
        if p50 <= 0.0 or p99 < p50:
            return 0.0  # degenerate window (all-zero timings): no variability
        return cs2_from_percentiles(p50, p99)

    def snapshot(self, *, now: float | None = None) -> AdmissionSnapshot:
        """Current estimates, wait prediction, threshold, and counters.

        *now* switches λ̂ to the decision-time form (candidate arrival
        included, elapsed measured to *now*) used by :meth:`admit`.
        """
        n = len(self._service_s)
        if n < 2:
            return AdmissionSnapshot(
                rho=0.0, ca2=1.0, cs2=0.0, mean_service_s=0.0,
                p50_service_s=0.0, p99_service_s=0.0, wait_s=0.0,
                wait_budget_s=0.0, rho_knee=self.config.rho_max,
                n_samples=n, admitted=self._admitted, shed=self._shed,
            )
        samples = np.asarray(self._service_s, dtype=np.float64)
        mean_s = float(samples.mean())
        ca2 = self._ca2()
        cs2 = self._cs2()
        rho = min(self._arrival_rate(now) * mean_s, 1.0)
        if rho < 1.0:
            wait_s = rho / (1.0 - rho) * (ca2 + cs2) / 2.0 * mean_s
        else:
            wait_s = math.inf
        return AdmissionSnapshot(
            rho=rho,
            ca2=ca2,
            cs2=cs2,
            mean_service_s=mean_s,
            p50_service_s=float(np.percentile(samples, 50)),
            p99_service_s=float(np.percentile(samples, 99)),
            wait_s=wait_s,
            wait_budget_s=self.config.knee * mean_s,
            rho_knee=self.config.rho_knee(ca2, cs2),
            n_samples=n,
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

        Only *admitted* arrivals enter the λ̂ window: ρ then reflects
        load actually entering the queue, so a retry storm of shed
        requests cannot keep ρ pinned above ρ* — idle-while-shedding
        time decays λ̂ (see :meth:`_arrival_rate`) and the gate reopens.
        """
        now = float(self._clock())
        if len(self._service_s) < self.config.min_samples:
            self._arrivals.append(now)
            self._admitted += 1
            return True
        snap = self.snapshot(now=now)
        obs.gauge("fleet.rho", snap.rho)
        obs.gauge("fleet.cs2", snap.cs2)
        if snap.rho >= snap.rho_knee:
            self._shed += 1
            obs.counter("fleet.shed")
            return False
        self._arrivals.append(now)
        self._admitted += 1
        return True

    def describe(self) -> str:
        """One-line human summary (used in 429 messages)."""
        snap = self.snapshot()
        return (
            f"rho={snap.rho:.3f} >= rho*={snap.rho_knee:.3f} "
            f"(Cs2={snap.cs2:.2f}, Ca2={snap.ca2:.2f}, "
            f"predicted wait {snap.wait_s * 1e3:.1f}ms > "
            f"budget {snap.wait_budget_s * 1e3:.1f}ms)"
        )
