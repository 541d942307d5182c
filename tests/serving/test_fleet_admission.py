"""Unit tests for Kingman queueing-aware admission control.

The contract under test: shed decisions are a deterministic function of
the measured window (service times + arrival clock), the documented
threshold is ρ* = 2·knee/(2·knee + Ca² + Cs²), and the Cs² estimator
implements the stated lognormal-percentile assumption exactly.  Beyond
that, with an injected clock: one stall sheds nothing, the gate reopens
after an overload, the incrementally kept estimates equal a from-scratch
pass, and a 429 reports the snapshot its decision used.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.serving import ModelRegistry, PredictionService, ServingConfig
from repro.serving.fleet import AdmissionConfig, KingmanAdmission
from repro.serving.protocol import predict_request
from repro.stats.lognormal import (
    Z90,
    Z99,
    cs2_from_moments,
    cs2_from_percentiles,
    sigma_from_quantiles,
)


class FakeClock:
    """Deterministic arrival clock: each call advances by a fixed step."""

    def __init__(self, step_s: float) -> None:
        self.step_s = step_s
        self.t = 0.0

    def __call__(self) -> float:
        self.t += self.step_s
        return self.t


class TestCs2Estimators:
    def test_lognormal_formula_is_exact(self):
        """p99/p50 ratio e^{σ·z99} must recover Cs² = e^{σ²} − 1."""
        sigma = 0.5
        got = cs2_from_percentiles(1.0, math.exp(sigma * Z99))
        assert got == pytest.approx(math.expm1(sigma * sigma), rel=1e-12)

    def test_equal_percentiles_mean_zero_variability(self):
        assert cs2_from_percentiles(0.2, 0.2) == 0.0

    def test_percentile_validation(self):
        for p50, p99 in ((0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValidationError):
                cs2_from_percentiles(p50, p99)

    def test_moments_on_known_samples(self):
        # mean 2, population variance 1 -> Cs² = 1/4
        assert cs2_from_moments([1.0, 3.0]) == pytest.approx(0.25)
        assert cs2_from_moments([5.0, 5.0, 5.0]) == 0.0

    def test_moments_validation(self):
        with pytest.raises(ValidationError):
            cs2_from_moments([1.0])
        with pytest.raises(ValidationError):
            cs2_from_moments([0.0, 0.0])


class TestAdmissionConfig:
    def test_rejects_bad_values(self):
        for bad in (
            dict(window=1),
            dict(knee=0.0),
            dict(rho_max=0.0),
            dict(rho_max=1.0),
            dict(min_samples=1),
        ):
            with pytest.raises(ValidationError):
                AdmissionConfig(**bad)

    def test_rho_knee_matches_documented_formula(self):
        """knee=4 with Ca²=Cs²=1 is the documented ρ* = 0.8 example."""
        cfg = AdmissionConfig(knee=4.0, rho_max=0.95)
        assert cfg.rho_knee(1.0, 1.0) == pytest.approx(0.8)
        # General form, away from the cap.
        assert cfg.rho_knee(1.0, 3.0) == pytest.approx(8.0 / 12.0)

    def test_rho_knee_is_capped_by_rho_max(self):
        """Zero-variability traffic must still shed at the hard cap."""
        cfg = AdmissionConfig(knee=4.0, rho_max=0.9)
        assert cfg.rho_knee(0.0, 0.0) == pytest.approx(0.9)


class TestKingmanAdmission:
    def _gate(self, step_s: float, **overrides) -> KingmanAdmission:
        defaults = dict(window=16, min_samples=4, knee=4.0, rho_max=0.95)
        defaults.update(overrides)
        return KingmanAdmission(
            AdmissionConfig(**defaults), clock=FakeClock(step_s)
        )

    def test_admits_unconditionally_below_min_samples(self):
        gate = self._gate(step_s=0.001)  # brutal arrival rate, no samples
        assert all(gate.admit() for _ in range(10))
        assert gate.snapshot().shed == 0

    def test_sheds_deterministically_at_forced_rho(self):
        """1s service times arriving every 0.5s force ρ→1: must shed."""
        gate = self._gate(step_s=0.5)
        for _ in range(4):
            gate.observe(1.0)
        assert gate.admit() is True  # one arrival: no rate estimate yet
        assert gate.admit() is False  # λ=2/s × E[S]=1s ⇒ ρ=1 ≥ ρ*
        snap = gate.snapshot()
        assert snap.shed == 1 and snap.admitted == 1
        # Decision-time view at the shed instant (clock stood at t=1.0,
        # admitted arrival at t=0.5): λ̂=2/s ⇒ ρ=1 ≥ ρ*.
        decision = gate.snapshot(now=1.0)
        assert decision.rho >= decision.rho_knee

    def test_gate_recovers_after_shedding(self):
        """Shed arrivals stay out of λ̂, so overload cannot latch the gate.

        Retries arrive every 0.5s against 1s service times; each refusal
        leaves the window untouched while the clock advances, so ρ decays
        until an arrival is admitted again.
        """
        gate = self._gate(step_s=0.5)
        for _ in range(4):
            gate.observe(1.0)
        assert gate.admit() is True  # t=0.5: no rate estimate yet
        assert gate.admit() is False  # t=1.0: λ̂=2/s ⇒ ρ=1
        assert gate.admit() is False  # t=1.5: λ̂=1/s ⇒ ρ=1, still hot
        assert gate.admit() is True  # t=2.0: λ̂=2/3 ⇒ ρ≈0.67 < ρ*
        snap = gate.snapshot()
        assert snap.shed == 2 and snap.admitted == 2

    def test_admits_below_the_knee(self):
        """1s service times arriving every 10s sit far below ρ*."""
        gate = self._gate(step_s=10.0)
        for _ in range(4):
            gate.observe(1.0)
        assert all(gate.admit() for _ in range(8))
        snap = gate.snapshot()
        assert snap.shed == 0
        assert snap.rho == pytest.approx(0.1)
        # Uniform arrivals + uniform service ⇒ Ca²=Cs²=0 ⇒ ρ* hits the cap.
        assert snap.rho_knee == pytest.approx(0.95)

    def test_variability_lowers_the_shed_threshold(self):
        """Higher measured Cs² must shed at *lower* utilization."""
        uniform = self._gate(step_s=1.0)
        bursty = self._gate(step_s=1.0)
        for _ in range(8):
            uniform.observe(0.5)
        for i in range(8):
            bursty.observe(0.05 if i % 2 else 0.95)  # same mean, high Cs²
        uniform.admit(), bursty.admit()  # seed the arrival window
        s_uniform, s_bursty = uniform.snapshot(), bursty.snapshot()
        assert s_bursty.cs2 > s_uniform.cs2
        assert s_bursty.rho_knee < s_uniform.rho_knee

    def test_window_is_bounded(self):
        gate = self._gate(step_s=1.0, window=8)
        for i in range(100):
            gate.observe(float(i + 1))
        assert gate.snapshot().n_samples == 8

    def test_observe_rejects_negative(self):
        with pytest.raises(ValidationError):
            self._gate(step_s=1.0).observe(-0.1)

    def test_snapshot_wire_form_is_json_safe(self):
        import json

        gate = self._gate(step_s=0.5)
        for _ in range(4):
            gate.observe(1.0)
        gate.admit(), gate.admit()
        wire = gate.snapshot().to_wire()
        assert json.loads(json.dumps(wire)) == wire
        for field in ("rho", "ca2", "cs2", "rho_knee", "wait_s", "shed"):
            assert field in wire

    def test_describe_names_the_threshold(self):
        gate = self._gate(step_s=0.5)
        for _ in range(4):
            gate.observe(1.0)
        gate.admit(), gate.admit()
        text = gate.describe()
        assert "rho=" in text and "rho*=" in text


class TestDecisionReport:
    def test_describe_reports_the_snapshot_the_shed_used(self):
        """The 429 text carries the decision-time ρ, not a re-measured one.

        With two 1 s services, arrivals at t=0.5 and t=1.0 give a
        decision-time λ̂ of 2/s, so ρ=1 ≥ ρ*=8/9; a snapshot taken
        without the decision clock sees one admitted arrival, λ̂=0.
        """
        gate = KingmanAdmission(AdmissionConfig(min_samples=2), clock=FakeClock(0.5))
        gate.observe(1.0), gate.observe(1.0)
        assert gate.admit() is True
        assert gate.admit() is False
        assert gate.snapshot().rho == 0.0
        text = gate.describe()
        assert text.startswith("rho=1.000 >= rho*=0.889 "), text
        assert "predicted wait infms > budget 4000.0ms" in text

    def test_service_429_names_the_decision(
        self, tmp_path, few_runs_predictor, intel_small
    ):
        """The same case through ``PredictionService.submit``."""
        registry = ModelRegistry(tmp_path)
        registry.save(few_runs_predictor, name="uc1")
        payload = predict_request("uc1", intel_small["npb/cg"].subset(range(6)))
        gate = KingmanAdmission(AdmissionConfig(min_samples=2), clock=FakeClock(0.5))
        gate.observe(1.0), gate.observe(1.0)
        gate.admit()  # t=0.5, admitted outside the service

        async def shed_one() -> dict:
            service = PredictionService(registry, ServingConfig(), admission=gate)
            await service.start()
            try:
                return await service.submit(dict(payload))
            finally:
                await service.close()

        reply = asyncio.run(shed_one())
        assert reply["status"] == 429, reply
        assert "rho=1.000 >= rho*=0.889" in reply["error"], reply


#: Lognormal service times of the property tests: median 4 ms, σ_ln 0.5.
MEDIAN_S, SIGMA_LN = 0.004, 0.5
MEAN_S = MEDIAN_S * math.exp(SIGMA_LN**2 / 2.0)


def lognormal_times(rng: np.random.Generator, count: int, block: int = 32) -> list:
    """*count* lognormal service times, stratified in blocks of *block*.

    Each consecutive block holds one draw from every 1/*block* slice of
    the distribution, in random order, so any window of ≥ *block*
    samples is a well-spread lognormal sample.  The tests below are
    about what one stall does to the estimate; with plain random draws,
    31 samples alone put ρ̂/ρ* 2-3 standard deviations from 1 at ρ 0.6.
    """
    n_blocks = -(-count // block)
    u = np.concatenate(
        [(rng.permutation(block) + rng.random(block)) / block for _ in range(n_blocks)]
    )
    inv = NormalDist().inv_cdf
    return [MEDIAN_S * math.exp(SIGMA_LN * inv(float(p))) for p in u[:count]]


class TestOutlierProof:
    @given(
        n=st.integers(32, 512),
        stall_s=st.floats(0.0, 10.0),
        rho=st.floats(0.01, 0.6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_stall_sheds_none_of_the_next_window(self, n, stall_s, rho, seed):
        """A stall of up to 10 s as the n-th sample, at every n from
        ``min_samples`` to ``window``, sheds none of the next ``window``
        arrivals at offered ρ ≤ 0.6 (evenly spaced arrivals)."""
        config = AdmissionConfig()
        assert (config.min_samples, config.window) == (32, 512)
        gate = KingmanAdmission(config, clock=FakeClock(MEAN_S / rho))
        times = lognormal_times(np.random.default_rng(seed), n - 1 + config.window)
        for service_s in times[: n - 1]:
            assert gate.admit()
            gate.observe(service_s)
        assert gate.admit()
        gate.observe(stall_s)
        for i, service_s in enumerate(times[n - 1 :]):
            assert gate.admit(), (i, gate.snapshot())
            gate.observe(service_s)
        assert gate.snapshot().shed == 0


class SimulatedClock:
    """Clock the simulation sets to each arrival's time."""

    t = 0.0

    def __call__(self) -> float:
        return self.t


def simulate(gate, clock, phases, seed, capacity_rps=250.0):
    """Poisson arrivals through *gate* in front of one FIFO server.

    *phases* lists ``(rate_rps, seconds)``; service times are lognormal
    (σ_ln 0.5) with mean ``1/capacity_rps``, and ``observe`` is fed each
    completion before the first arrival after it.  Returns
    ``(arrival_time, admitted)`` per offered arrival.
    """
    rng = np.random.default_rng(seed)
    mu = math.log(1.0 / capacity_rps) - SIGMA_LN**2 / 2.0
    t, start, server_free_at = 0.0, 0.0, 0.0
    completions: deque = deque()
    log = []
    for rate, seconds in phases:
        end = start + seconds
        while (t := t + rng.exponential(1.0 / rate)) < end:
            while completions and completions[0][0] <= t:
                gate.observe(completions.popleft()[1])
            clock.t = t
            admitted = gate.admit()
            if admitted:
                service_s = math.exp(mu + SIGMA_LN * rng.standard_normal())
                server_free_at = max(t, server_free_at) + service_s
                completions.append((server_free_at, service_s))
            log.append((t, admitted))
        t = start = end
    return log


def shed_fraction(log, start: float, end: float) -> float:
    decisions = [admitted for t, admitted in log if start <= t < end]
    return 1.0 - sum(decisions) / len(decisions)


class TestOverloadRecovery:
    def test_gate_reopens_after_an_overload(self):
        """60 rps for 10 s, 400 rps for 15 s, 60 rps for 20 s, against a
        250 rps server.  37.5 % shed is enough during the overload; the
        gate may shed up to 50 %, and from 5 s after it nothing."""
        clock = SimulatedClock()
        gate = KingmanAdmission(AdmissionConfig(), clock=clock)
        log = simulate(gate, clock, [(60, 10.0), (400, 15.0), (60, 20.0)], seed=0)
        assert shed_fraction(log, 0.0, 10.0) == 0.0
        assert 0.375 <= shed_fraction(log, 10.0, 25.0) <= 0.5
        assert shed_fraction(log, 30.0, 45.0) == 0.0
        # The offered stream is Poisson again, whatever the gate shed.
        assert gate.snapshot().ca2 == pytest.approx(1.0, abs=0.3)


def reference_snapshot(config, service, offered, admitted_at, now=None):
    """The snapshot fields recomputed from scratch over the raw windows."""
    samples = np.asarray(service, dtype=np.float64)
    p50, p90, p99 = (float(np.percentile(samples, q)) for q in (50, 90, 99))
    if p50 > 0.0:
        sigma = sigma_from_quantiles(p50, p90, Z90)
        s2 = min(sigma * sigma, 709.0)  # exp overflows beyond ~709.78
        mean_s, cs2 = p50 * math.exp(s2 / 2.0), math.expm1(s2)
    else:
        mean_s, cs2 = 0.0, 0.0
    gaps = np.diff(np.asarray(offered, dtype=np.float64))
    if gaps.size < 2 or gaps.sum() <= 0.0:
        ca2 = 1.0
    else:
        ca2 = float(gaps.var() / gaps.mean() ** 2)
    if now is not None:
        span, count = (now - admitted_at[0], len(admitted_at)) if admitted_at else (1.0, 0)
    else:
        span, count = (admitted_at[-1] - admitted_at[0], len(admitted_at) - 1) if len(
            admitted_at
        ) >= 2 else (1.0, 0)
    rate = count / span if span > 0.0 else math.inf
    rho = min(rate * mean_s, 1.0) if mean_s > 0.0 else 0.0
    return dict(
        p50_service_s=p50, p90_service_s=p90, p99_service_s=p99,
        mean_service_s=mean_s, cs2=cs2, ca2=ca2, rho=rho,
        rho_knee=config.rho_knee(ca2, cs2), wait_budget_s=config.knee * mean_s,
        n_samples=len(service),
    )


class TestIncrementalEstimates:
    @given(
        window=st.integers(2, 24),
        ops=st.lists(
            st.one_of(
                # An arrival after a clock step: ties, a nanosecond tick,
                # ordinary gaps and an hour idle.
                st.tuples(
                    st.just(True),
                    st.one_of(st.sampled_from([0.0, 1e-9, 3600.0]), st.floats(1e-6, 10.0)),
                ),
                # A completion with its service time.
                st.tuples(st.just(False), st.floats(0.0, 10.0)),
            ),
            min_size=1,
            max_size=200,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_field_matches_a_recomputation(self, window, ops):
        """Random streams of arrivals (clock steps, idle gaps and ties
        included) and completions: the incrementally kept estimates equal
        a from-scratch pass over the windows.  Percentiles, E[S] and Cs²
        match bit for bit; Ca² (a running Σgap²) and what depends on it
        match to 1e-9 relative plus 1e-12 absolute."""
        config = AdmissionConfig(window=window, min_samples=2)
        clock = SimulatedClock()
        gate = KingmanAdmission(config, clock=clock)
        service: deque = deque(maxlen=window)
        offered: deque = deque(maxlen=window)
        admitted_at: deque = deque(maxlen=window)
        for is_arrival, value in ops:
            if is_arrival:
                clock.t += value
                offered.append(clock.t)
                if gate.admit():
                    admitted_at.append(clock.t)
            else:
                gate.observe(value)
                service.append(value)
            if len(service) < 2:
                continue
            for now in (None, clock.t):
                got = gate.snapshot(now=now)
                want = reference_snapshot(config, service, offered, admitted_at, now)
                for field in ("p50_service_s", "p90_service_s", "p99_service_s",
                              "mean_service_s", "cs2", "wait_budget_s", "n_samples"):
                    assert getattr(got, field) == want[field], field
                for field in ("ca2", "rho", "rho_knee"):
                    assert getattr(got, field) == pytest.approx(
                        want[field], rel=1e-9, abs=1e-12
                    ), field
        snap = gate.snapshot()
        assert snap.admitted == len([1 for a, _ in ops if a]) - snap.shed
