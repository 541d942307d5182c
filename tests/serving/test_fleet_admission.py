"""Unit tests for Kingman queueing-aware admission control.

The contract under test: shed decisions are a deterministic function of
the measured window (service times + arrival clock), the documented
threshold is ρ* = 2·knee/(2·knee + Ca² + Cs²), and the Cs² estimator
implements the stated lognormal-percentile assumption exactly.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.serving.fleet import AdmissionConfig, KingmanAdmission
from repro.stats.lognormal import Z99, cs2_from_moments, cs2_from_percentiles


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
