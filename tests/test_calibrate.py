import json
import math

import numpy as np
import pytest

from moptrans.calibrate import (
    FitReport,
    _local_minima,
    doublet_transmission,
    fit_doublet,
    fit_efficiency_power,
    fit_rc_step,
    fit_s11,
    rc_step_model,
    s11_model,
)
from moptrans.errors import ConvergenceError
from moptrans.model import TWO_PI, HBAR

from conftest import OMEGA_1550

W0 = OMEGA_1550

PAPER_FIXED = {
    "eta_probes": 10 ** (-0.3),
    "eta_fiber_fiber": 10 ** (-0.8),
    "eta_m": 0.11,
    "eta_o": 0.35,
    "kappa_o": TWO_PI * 170e6,
    "kappa_m": TWO_PI * 13e6,
    "omega_l": W0,
}

DOUBLET_TRUTH = {
    "kappa_l": TWO_PI * 190e6,
    "kappa_r": TWO_PI * 154e6,
    "kappa_ex": TWO_PI * 60e6,
    "J": TWO_PI * 1.74e9,
    "delta": TWO_PI * 120e6,
    "omega_center": W0,
}


def synth_doublet(noise=0.0, rng=None, n=1200):
    span = 6.0e9  # Hz, covers both supermodes
    omega = W0 + TWO_PI * np.linspace(-span / 2, span / 2, n)
    trans = doublet_transmission(omega, *[DOUBLET_TRUTH[k] for k in
                                          ("kappa_l", "kappa_r", "kappa_ex", "J", "delta", "omega_center")])
    if noise:
        trans = trans + rng.normal(0.0, noise, size=trans.shape)
    return omega, trans


SWEEP_SLOPE = TWO_PI * 800e6  # rad/s detuning per bias unit
SWEEP_BIAS = np.linspace(-2.0, 2.0, 7)


def synth_doublet_sweep(noise=0.0, rng=None, n=700):
    """Bias sweep crossing delta = 0, the configuration that identifies
    the bare-ring decomposition."""
    span = 8.0e9
    omega = W0 + TWO_PI * np.linspace(-span / 2, span / 2, n)
    stack = np.empty((SWEEP_BIAS.size, n))
    for i, b in enumerate(SWEEP_BIAS):
        delta = DOUBLET_TRUTH["delta"] + SWEEP_SLOPE * b
        stack[i] = doublet_transmission(
            omega, DOUBLET_TRUTH["kappa_l"], DOUBLET_TRUTH["kappa_r"],
            DOUBLET_TRUTH["kappa_ex"], DOUBLET_TRUTH["J"], delta, W0,
        )
    if noise:
        stack = stack + rng.normal(0.0, noise, size=stack.shape)
    return omega, stack


class TestDoublet:
    def test_forward_model_dips_at_supermodes(self):
        omega, trans = synth_doublet()
        from moptrans.hybridize import supermodes
        from moptrans.model import OpticalModeBare

        left = OpticalModeBare(W0 + 0.5 * DOUBLET_TRUTH["delta"],
                               DOUBLET_TRUTH["kappa_l"] - DOUBLET_TRUTH["kappa_ex"],
                               DOUBLET_TRUTH["kappa_ex"])
        right = OpticalModeBare(W0 - 0.5 * DOUBLET_TRUTH["delta"],
                                DOUBLET_TRUTH["kappa_r"] - DOUBLET_TRUTH["kappa_ex"],
                                DOUBLET_TRUTH["kappa_ex"])
        sm = supermodes(left, right, DOUBLET_TRUTH["J"])
        # deepest point near each supermode (global argsort can land twice
        # inside the deeper dip)
        lower_half = omega < W0
        found_lo = omega[lower_half][np.argmin(trans[lower_half])]
        found_hi = omega[~lower_half][np.argmin(trans[~lower_half])]
        assert found_lo == pytest.approx(sm.omega_minus, abs=TWO_PI * 30e6)
        assert found_hi == pytest.approx(sm.omega_plus, abs=TWO_PI * 30e6)

    def test_single_spectrum_supermode_observables(self):
        """One spectrum pins the supermode doublet (positions, linewidths,
        coupling) even though the bare-ring split is flagged degenerate."""
        from moptrans.hybridize import supermodes
        from moptrans.model import OpticalModeBare

        omega, trans = synth_doublet()
        report = fit_doublet(omega, trans)
        assert report.converged
        assert any("degenerate-decomposition" in f for f in report.flags)
        p = report.parameters
        left = OpticalModeBare(p["omega_center"] + 0.5 * p["delta"],
                               max(p["kappa_l"] - p["kappa_ex"], 1.0), p["kappa_ex"])
        right = OpticalModeBare(p["omega_center"] - 0.5 * p["delta"],
                                max(p["kappa_r"] - p["kappa_ex"], 1.0), p["kappa_ex"])
        sm_fit = supermodes(left, right, p["J"])
        truth_left = OpticalModeBare(W0 + 0.5 * DOUBLET_TRUTH["delta"],
                                     DOUBLET_TRUTH["kappa_l"] - DOUBLET_TRUTH["kappa_ex"],
                                     DOUBLET_TRUTH["kappa_ex"])
        truth_right = OpticalModeBare(W0 - 0.5 * DOUBLET_TRUTH["delta"],
                                      DOUBLET_TRUTH["kappa_r"] - DOUBLET_TRUTH["kappa_ex"],
                                      DOUBLET_TRUTH["kappa_ex"])
        sm_truth = supermodes(truth_left, truth_right, DOUBLET_TRUTH["J"])
        assert sm_fit.delta_omega == pytest.approx(sm_truth.delta_omega, rel=1e-3)
        assert sm_fit.kappa_minus == pytest.approx(sm_truth.kappa_minus, rel=1e-2)
        assert sm_fit.kappa_plus == pytest.approx(sm_truth.kappa_plus, rel=1e-2)
        assert p["kappa_ex"] == pytest.approx(DOUBLET_TRUTH["kappa_ex"], rel=1e-2)
        # and the forward model reproduces the data within the residual
        model = doublet_transmission(omega, p["kappa_l"], p["kappa_r"],
                                     p["kappa_ex"], p["J"], p["delta"],
                                     p["omega_center"])
        assert float(np.linalg.norm(model - trans)) <= report.residual_norm + 1e-9

    def test_sweep_noiseless_round_trip(self):
        omega, stack = synth_doublet_sweep()
        report = fit_doublet(omega, stack, bias_axis=SWEEP_BIAS)
        for key in ("kappa_l", "kappa_r", "kappa_ex", "J", "delta"):
            assert report.parameters[key] == pytest.approx(
                DOUBLET_TRUTH[key], rel=2e-3
            ), key
        assert report.parameters["delta_slope"] == pytest.approx(SWEEP_SLOPE, rel=2e-3)
        assert report.converged

    def test_one_percent_noise_one_percent_recovery(self, rng):
        omega, stack = synth_doublet_sweep(noise=0.01, rng=rng)
        report = fit_doublet(omega, stack, bias_axis=SWEEP_BIAS)
        for key in ("kappa_l", "kappa_r", "kappa_ex", "J", "delta"):
            assert report.parameters[key] == pytest.approx(
                DOUBLET_TRUTH[key], rel=0.01, abs=TWO_PI * 1e6
            ), key

    def test_j_zero_two_lorentzians(self):
        span = 4.0e9
        omega = W0 + TWO_PI * np.linspace(-span / 2, span / 2, 1200)
        delta = TWO_PI * 1.2e9
        trans = doublet_transmission(
            omega, TWO_PI * 190e6, TWO_PI * 154e6, TWO_PI * 60e6, 0.0, delta, W0
        )
        report = fit_doublet(omega, trans)
        model = doublet_transmission(
            omega,
            report.parameters["kappa_l"], report.parameters["kappa_r"],
            report.parameters["kappa_ex"], report.parameters["J"],
            report.parameters["delta"], report.parameters["omega_center"],
        )
        assert float(np.max(np.abs(model - trans))) < 1e-4

    def test_ordering_invariance(self, rng):
        omega, trans = synth_doublet(noise=0.005, rng=rng)
        perm = rng.permutation(omega.size)
        a = fit_doublet(omega, trans)
        b = fit_doublet(omega[perm], trans[perm])
        assert a.parameters["J"] == pytest.approx(b.parameters["J"], rel=1e-9)

    def test_shape_validation(self):
        omega, stack = synth_doublet_sweep()
        with pytest.raises(ValueError):
            fit_doublet(omega, stack)  # 2-D stack without bias_axis
        with pytest.raises(ValueError):
            fit_doublet(omega, stack, bias_axis=SWEEP_BIAS[:-1])
        with pytest.raises(ValueError):
            fit_doublet(omega, stack[0], bias_axis=SWEEP_BIAS)

    def test_report_json(self):
        omega, trans = synth_doublet()
        report = fit_doublet(omega, trans)
        payload = json.loads(report.to_json())
        assert payload["converged"] is True
        assert "kappa_l" in payload["parameters"]


class TestS11:
    TRUTH = {"omega_m": TWO_PI * 3.48e9, "kappa_m": TWO_PI * 3.48e9 / 284, "eta_m": 0.11}

    def synth(self, noise=0.0, rng=None, n=600, shift=0.0):
        om = self.TRUTH["omega_m"] + shift
        km = self.TRUTH["kappa_m"]
        omega = om + np.linspace(-8 * km, 8 * km, n)
        s11 = s11_model(omega, om, km, self.TRUTH["eta_m"] * km)
        if noise:
            s11 = s11 + rng.normal(0, noise, n) + 1j * rng.normal(0, noise, n)
        return omega, s11

    def test_round_trip(self, rng):
        omega, s11 = self.synth(noise=0.01, rng=rng)
        report = fit_s11(omega, s11)
        assert report.parameters["Q_m"] == pytest.approx(284.0, rel=0.02)
        assert report.parameters["eta_m"] == pytest.approx(0.11, rel=0.02)
        assert report.parameters["omega_m"] == pytest.approx(
            self.TRUTH["omega_m"], rel=1e-4
        )

    def test_critical_coupling_dip_reaches_zero(self):
        km = TWO_PI * 13e6
        om = TWO_PI * 3.48e9
        omega = om + np.linspace(-6 * km, 6 * km, 2001)
        s11 = s11_model(omega, om, km, 0.5 * km)
        assert float(np.min(np.abs(s11))) < 1e-3
        report = fit_s11(omega, s11)
        assert report.parameters["eta_m"] == pytest.approx(0.5, rel=1e-3)

    def test_flat_background_flagged(self, rng):
        km = TWO_PI * 13e6
        om = TWO_PI * 3.48e9
        omega = om + np.linspace(-6 * km, 6 * km, 400)
        s11 = s11_model(omega, om, km, 0.0) + rng.normal(0, 1e-3, 400)
        report = fit_s11(omega, s11)
        assert any("no-resonance" in f for f in report.flags)

    def test_axis_translation_shifts_omega_only(self, rng):
        omega, s11 = self.synth(noise=0.002, rng=rng)
        shift = TWO_PI * 250e6
        a = fit_s11(omega, s11)
        b = fit_s11(omega + shift, s11)
        assert b.parameters["omega_m"] - a.parameters["omega_m"] == pytest.approx(
            shift, rel=1e-6
        )
        assert b.parameters["kappa_m"] == pytest.approx(a.parameters["kappa_m"], rel=1e-6)


class TestEfficiencyPower:
    def test_paper_single_point(self):
        """eta_tot = -60 dB at 10 dBm with the measured losses inverts to
        C0 ~ 8e-13 and g0 ~ 2pi x 42 Hz (within 5%)."""
        report = fit_efficiency_power([0.01], [1e-6], PAPER_FIXED)
        assert report.parameters["C0"] == pytest.approx(8e-13, rel=0.05)
        assert report.parameters["g0"] == pytest.approx(TWO_PI * 42.0, rel=0.05)

    def test_sweep_round_trip(self, rng):
        c0 = 8e-13
        slope = c0 / (
            HBAR * PAPER_FIXED["omega_l"] * PAPER_FIXED["kappa_o"]
            / (16 * PAPER_FIXED["eta_probes"] * PAPER_FIXED["eta_fiber_fiber"]
               * PAPER_FIXED["eta_m"] * PAPER_FIXED["eta_o"] ** 2)
        )
        power = 1e-3 * 10 ** np.linspace(1.0, 2.1, 12)
        eta = slope * power * (1.0 + rng.normal(0, 0.005, 12))
        report = fit_efficiency_power(power, eta, PAPER_FIXED)
        assert report.parameters["C0"] == pytest.approx(c0, rel=0.01)
        assert not report.flags

    def test_doubled_losses_consistent_inversion(self):
        # data generated under doubled losses and fitted with them returns
        # the same C0 (ledger linearity)
        base = fit_efficiency_power([0.01], [1e-6], PAPER_FIXED)
        doubled = dict(PAPER_FIXED)
        doubled["eta_probes"] = PAPER_FIXED["eta_probes"] / 2.0
        doubled["eta_fiber_fiber"] = PAPER_FIXED["eta_fiber_fiber"] / 2.0
        report = fit_efficiency_power([0.01], [1e-6 / 4.0], doubled)
        assert report.parameters["C0"] == pytest.approx(
            base.parameters["C0"], rel=1e-9
        )

    def test_out_of_regime_flag(self):
        power = 1e-3 * 10 ** np.linspace(1.0, 2.1, 12)
        saturating = 1e-4 * power ** 0.5
        report = fit_efficiency_power(power, saturating, PAPER_FIXED)
        assert any("out-of-regime" in f for f in report.flags)

    def test_missing_fixed_key(self):
        with pytest.raises(ValueError):
            fit_efficiency_power([0.01], [1e-6], {"eta_m": 0.1})

    def test_relative_noise_estimator(self):
        """Efficiencies read in dB scatter relatively: the slope is
        mean(eta/P) and the reported C0 variance matches the true scatter
        over seeded 2%-relative-noise sweeps (seeds disjoint from
        acceptance criterion 10)."""
        c0 = 8e-13
        slope = c0 / (
            HBAR * PAPER_FIXED["omega_l"] * PAPER_FIXED["kappa_o"]
            / (16 * PAPER_FIXED["eta_probes"] * PAPER_FIXED["eta_fiber_fiber"]
               * PAPER_FIXED["eta_m"] * PAPER_FIXED["eta_o"] ** 2)
        )
        power = 1e-3 * 10 ** np.linspace(1.0, 2.1, 12)
        fitted, variances = [], []
        for seed in range(9000, 9200):
            rng = np.random.default_rng(seed)
            eta = slope * power * (1.0 + 0.02 * rng.normal(size=power.size))
            report = fit_efficiency_power(power, eta, PAPER_FIXED)
            if seed == 9000:
                assert report.parameters["slope"] == pytest.approx(
                    float(np.mean(eta / power)), rel=1e-12
                )
            fitted.append(report.parameters["C0"])
            variances.append(report.covariance_diag["C0"])
        ratio = np.std(fitted, ddof=1) / math.sqrt(np.mean(variances))
        assert 0.8 <= ratio <= 1.25, ratio


class TestRcStep:
    def test_noiseless_exact(self):
        t = np.linspace(0.0, 0.6e-6, 3000)
        env = rc_step_model(t, 0.8, 30e-9, 0.11e-6)
        report = fit_rc_step(t, env)
        assert report.parameters["tau_rc"] == pytest.approx(30e-9, rel=1e-6)
        assert report.parameters["amplitude"] == pytest.approx(0.8, rel=1e-6)
        assert report.parameters["t0"] == pytest.approx(0.11e-6, rel=1e-6)

    def test_five_percent_noise(self, rng):
        t = np.linspace(0.0, 0.6e-6, 1500)
        env = rc_step_model(t, 1.0, 30e-9, 0.1e-6) + rng.normal(0, 0.05, t.size)
        report = fit_rc_step(t, env)
        assert report.parameters["tau_rc"] == pytest.approx(30e-9, rel=0.05)

    def test_no_edge(self, rng):
        t = np.linspace(0.0, 1e-6, 400)
        with pytest.raises(ConvergenceError):
            fit_rc_step(t, rng.normal(0, 1e-3, t.size))

    def test_paper_bracket_documented(self):
        # fitted amplitude/phase constants 35+-4 and 27+-3 ns bracket 30 ns
        assert 27e-9 - 3e-9 <= 30e-9 <= 35e-9 + 4e-9


class TestBackend:
    def test_objective_not_worse_than_start(self, rng):
        omega, trans = synth_doublet(noise=0.02, rng=rng)
        report = fit_doublet(omega, trans)
        # residual at the solution must not exceed the raw data spread
        assert report.residual_norm <= float(np.linalg.norm(trans - np.mean(trans)))

    def test_report_is_frozen(self):
        report = FitReport({}, {}, 0.0, 0, True, {})
        with pytest.raises(AttributeError):
            report.converged = False


class TestLocalMinima:
    """The dip finder's numpy minimum search against scipy.signal.argrelmin
    (mode='clip'), which it replaces."""

    @staticmethod
    def assert_matches(y, order):
        from scipy.signal import argrelmin

        y = np.asarray(y, dtype=float)
        np.testing.assert_array_equal(_local_minima(y, order), argrelmin(y, order=order)[0])

    def test_seeded_random(self):
        rng = np.random.default_rng(4242)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            self.assert_matches(rng.normal(size=n), int(rng.integers(1, 12)))

    def test_plateaus(self):
        rng = np.random.default_rng(4243)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            self.assert_matches(rng.integers(0, 4, size=n), int(rng.integers(1, 6)))
        for y in ([3, 1, 1, 3], [2, 0, 0, 0, 2], [1, 1, 1, 1], [3, 1, 2, 1, 3]):
            for order in (1, 2, 3):
                self.assert_matches(y, order)

    def test_edges(self):
        for y in ([0, 1, 2, 3], [3, 2, 1, 0], [0, 5, 0], [1, 0, 2, 3, 4, 5, 6, 7]):
            for order in (1, 2, 5):
                self.assert_matches(y, order)

    def test_shorter_than_window(self):
        rng = np.random.default_rng(4244)
        for order in (1, 3, 6):
            for n in range(0, 2 * order + 1):
                self.assert_matches(rng.normal(size=n), order)

    def test_smoothed_doublet(self, rng):
        omega, trans = synth_doublet(noise=0.02, rng=rng)
        width = max(3, len(trans) // 100)
        smooth = np.convolve(trans, np.ones(width) / width, mode="same")
        self.assert_matches(smooth, max(1, len(trans) // 50))
