import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from moptrans.errors import InstabilityError
from moptrans.model import TWO_PI, Configuration, PumpConfig, dbm_to_watts
from moptrans.quantumstats import (
    PairRate,
    ThermalEnvironment,
    added_noise_from_rates,
    cauchy_schwarz_violated,
    decoherence_rate,
    g2_cross_from_rates,
    n_thermal,
    pair_rate,
    pair_rate_from_rates,
)
from moptrans.response import eta_spectrum_from_rates, transfer_from_rates

from conftest import make_paper_device, make_rates_op


class TestThermalOccupancy:
    def test_zero_temperature(self):
        assert n_thermal(TWO_PI * 3.5e9, 0.0) == 0.0

    @pytest.mark.parametrize("temperature", [5e-324, 1e-320])
    def test_subnormal_temperature(self, temperature):
        """k_B T underflows to 0 here; this used to raise ZeroDivisionError."""
        assert n_thermal(TWO_PI * 3.5e9, temperature) == 0.0

    def test_vanishing_frequency_is_infinite(self):
        """hbar omega underflows to 0 at 1e-300 rad/s; this used to raise
        ZeroDivisionError, and the occupancy k_B T / (hbar omega) is inf."""
        assert n_thermal(1e-300, 298.0) == math.inf

    def test_800mk_value(self):
        assert n_thermal(TWO_PI * 3.5e9, 0.8) == pytest.approx(4.3, rel=0.01)

    def test_boltzmann_tail(self):
        omega = TWO_PI * 3.5e9
        temp = 0.008  # hbar w / k_B T ~ 21
        from moptrans.model import HBAR, K_B

        x = HBAR * omega / (K_B * temp)
        assert n_thermal(omega, temp) == pytest.approx(math.exp(-x), rel=1e-8)

    def test_monotonicity(self):
        omega = TWO_PI * 3.5e9
        temps = [0.01, 0.1, 0.8, 4.0, 300.0]
        values = [n_thermal(omega, t) for t in temps]
        assert all(b > a for a, b in zip(values, values[1:]))
        omegas = [TWO_PI * f for f in (1e9, 3e9, 10e9, 30e9)]
        values = [n_thermal(w, 0.8) for w in omegas]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_environment_cache(self):
        env = ThermalEnvironment(0.8)
        assert env.occupancy(TWO_PI * 3.5e9) == n_thermal(TWO_PI * 3.5e9, 0.8)
        with pytest.raises(ValueError):
            ThermalEnvironment(-1.0)


class TestDecoherence:
    def test_800mk(self):
        n = n_thermal(TWO_PI * 3.5e9, 0.8)
        assert decoherence_rate(TWO_PI * 10e6, n) == pytest.approx(43e6, rel=0.02)

    def test_10mk(self):
        n = n_thermal(TWO_PI * 3.5e9, 0.010)
        assert decoherence_rate(TWO_PI * 10e6, n) == pytest.approx(0.5, rel=0.05)

    def test_zero_occupancy(self):
        assert decoherence_rate(TWO_PI * 10e6, 0.0) == 0.0


class TestPairRate:
    def test_zero_coupling(self):
        op = make_rates_op(Configuration.STOKES, cooperativity=0.0)
        rate = pair_rate_from_rates(op)
        assert rate.closed_form == 0.0
        assert abs(rate.numeric) < 1e-30

    def test_two_lorentzian_identity(self):
        """integral a^2 b^2 / ((w^2+a^2)(w^2+b^2)) dw = pi a b / (a + b),
        verified by residue value against adaptive quadrature to 0.1%."""
        a, b = TWO_PI * 150e6, TWO_PI * 5e6

        def integrand(w):
            return (a ** 2 / (w ** 2 + a ** 2)) * (b ** 2 / (w ** 2 + b ** 2))

        analytic = math.pi * a * b / (a + b)
        numeric, _ = quad(integrand, -300 * a, 300 * a, limit=400)
        assert numeric == pytest.approx(analytic, rel=1e-3)

    def test_closed_form_vs_numeric_low_c(self):
        # the finite-C lineshape correction is O(C); stay well inside
        # the 0.5% budget with C = 2e-3
        op = make_rates_op(
            Configuration.STOKES, cooperativity=2e-3,
            kappa_m=TWO_PI * 10e6, kappa_o=TWO_PI * 300e6,
        )
        rate = pair_rate_from_rates(op)
        assert rate.numeric == pytest.approx(rate.closed_form, rel=5e-3)

    @pytest.mark.parametrize("c, detuning", [(2e-3, 0.0), (0.3, 0.7), (0.99, -0.4)])
    def test_numeric_matches_quadrature(self, c, detuning):
        """numeric integrates eta_- over all omega, with no grid: adaptive
        quadrature over omega = kappa_m tan(theta), split at the acoustic
        peak, agrees, detuned and near the threshold too."""
        op = make_rates_op(Configuration.STOKES, cooperativity=c,
                           kappa_m=TWO_PI * 10e6, kappa_o=TWO_PI * 300e6)
        op = dataclasses.replace(op, sideband_detuning=detuning * op.kappa_active)
        s = op.kappa_m

        def integrand(theta):
            return float(eta_spectrum_from_rates(op, s * math.tan(theta))) * s / math.cos(theta) ** 2

        total, _ = quad(integrand, -0.5 * math.pi, 0.5 * math.pi, points=[0.0],
                        epsabs=0.0, epsrel=1e-11, limit=500)
        assert pair_rate_from_rates(op).numeric == pytest.approx(total, rel=1e-8, abs=0.0)

    def test_closed_form_is_exact_without_detuning(self):
        """closed_form is the d = 0 residue pi eta_-[0] a b (1 - C) / (a + b):
        the numeric value to rounding even near the threshold, where the
        low-C form pi eta_-[0] a b / (a + b) would be 1 / (1 - C) too high."""
        for c in (2e-3, 0.5, 0.999):
            rate = pair_rate_from_rates(make_rates_op(Configuration.STOKES, cooperativity=c))
            assert rate.closed_form == pytest.approx(rate.numeric, rel=1e-11, abs=0.0)

    def test_paper_inputs_do_not_give_190hz(self):
        """With eta_oc = 7.9e-5, kappa_- = 2pi x 300 MHz, kappa_m = 2pi x
        10 MHz the closed form gives ~7.5e3/s (angular) and ~1.2e3/s
        (ordinary) -- documented discrepancy with the 190 Hz estimate."""
        target_eta0 = 7.9e-5
        eta_ext = 0.35 * 0.11
        # solve 4C/(1-C)^2 = target/eta_ext for C
        ratio = target_eta0 / eta_ext
        c = ratio / 4.0  # low-C inversion, then refine
        for _ in range(40):
            c = ratio * (1.0 - c) ** 2 / 4.0
        op = make_rates_op(Configuration.STOKES, cooperativity=c,
                           kappa_m=TWO_PI * 10e6, kappa_o=TWO_PI * 300e6)
        assert float(eta_spectrum_from_rates(op, 0.0)) == pytest.approx(target_eta0, rel=1e-6)
        rate = pair_rate_from_rates(op)
        assert rate.closed_form == pytest.approx(7.55e3, rel=0.01)
        assert rate.alternate_convention == pytest.approx(1.20e3, rel=0.01)
        assert abs(rate.closed_form - 190.0) / 190.0 > 5.0
        assert abs(rate.alternate_convention - 190.0) / 190.0 > 5.0
        assert "discrepancy" in rate.note

    def test_device_level(self):
        dev = make_paper_device()
        rate = pair_rate(dev, PumpConfig(Configuration.STOKES, dbm_to_watts(21.0)))
        assert isinstance(rate, PairRate)
        assert rate.numeric == pytest.approx(rate.closed_form, rel=5e-3)
        with pytest.raises(ValueError):
            pair_rate(dev, PumpConfig(Configuration.ANTI_STOKES, 0.1))

    def test_instability(self):
        op = make_rates_op(Configuration.STOKES, cooperativity=1.5)
        with pytest.raises(InstabilityError):
            pair_rate_from_rates(op)


class TestAddedNoise:
    def test_antistokes_vacuum_inputs(self):
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.1)
        env = ThermalEnvironment(0.0)
        report = added_noise_from_rates(op, 0.0, env, n_optical_in=0.0)
        assert report.n_added_up == 0.0
        assert report.n_added_down == 0.0

    def test_stokes_floor(self, rng):
        # up and down conversion carry at least one added quantum
        for _ in range(100):
            c = rng.uniform(1e-4, 0.9)
            op = make_rates_op(Configuration.STOKES, cooperativity=c,
                               eta_m=rng.uniform(0.05, 1.0), eta_o=rng.uniform(0.05, 1.0))
            env = ThermalEnvironment(rng.uniform(0.0, 1.0))
            report = added_noise_from_rates(op, 0.0, env, n_optical_in=rng.uniform(0, 2))
            assert report.n_added_up >= 1.0
            assert report.n_added_down >= 1.0

    def test_stokes_down_formula(self):
        """Down-conversion floor 1 + |S_cc/S_ca|^2 n_th against independent
        term-by-term substitution."""
        op = make_rates_op(Configuration.STOKES, cooperativity=0.05)
        n_th = 4.3
        temp = _temperature_for(op.omega_m, n_th)
        env = ThermalEnvironment(temp)
        report = added_noise_from_rates(op, 0.0, env)
        s_cc = transfer_from_rates(op, "microwave", "microwave", 0.0)
        s_ca = transfer_from_rates(op, "optical", "microwave", 0.0)
        expected = 1.0 + abs(s_cc) ** 2 / abs(s_ca) ** 2 * env.occupancy(op.omega_m)
        assert report.n_added_down == pytest.approx(expected, rel=1e-12)

    def test_optical_leakage_term(self):
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.05)
        env = ThermalEnvironment(0.0)
        n_opt = 0.7
        report = added_noise_from_rates(op, 0.0, env, n_optical_in=n_opt)
        s_aa = transfer_from_rates(op, "optical", "optical", 0.0)
        s_ac = transfer_from_rates(op, "microwave", "optical", 0.0)
        assert report.n_added_up == pytest.approx(
            abs(s_aa) ** 2 / abs(s_ac) ** 2 * n_opt, rel=1e-12
        )

    def test_unbounded_when_decoupled(self):
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.0)
        with pytest.raises(InstabilityError):
            added_noise_from_rates(op, 0.0, ThermalEnvironment(0.0))


def _temperature_for(omega: float, n_th: float) -> float:
    from moptrans.model import HBAR, K_B

    return HBAR * omega / (K_B * math.log(1.0 + 1.0 / n_th))


class TestG2Cross:
    def test_zero_thermal_limit(self):
        op = make_rates_op(Configuration.STOKES, cooperativity=0.02)
        g2 = g2_cross_from_rates(op, 0.0, 0.0)
        s_aa = transfer_from_rates(op, "optical", "optical", 0.0)
        eta = float(eta_spectrum_from_rates(op, 0.0))
        assert g2 == pytest.approx((abs(s_aa) ** 2 + eta) / eta, rel=1e-12)

    def test_high_thermal_limit(self):
        op = make_rates_op(Configuration.STOKES, cooperativity=0.02)
        g2 = g2_cross_from_rates(op, 0.0, 1e7)
        assert g2 == pytest.approx(1.0, rel=1e-3)

    def test_cauchy_schwarz_indicator(self):
        op = make_rates_op(Configuration.STOKES, cooperativity=1e-3)
        g2_cold = g2_cross_from_rates(op, 0.0, 0.0)
        assert cauchy_schwarz_violated(g2_cold)
        g2_hot = g2_cross_from_rates(op, 0.0, 1e6)
        assert not cauchy_schwarz_violated(g2_hot)

    def test_scale_invariance(self):
        """Rescaling every rate (and the offset) by a common factor leaves
        all |S| ratios, eta_- and hence g2 unchanged."""
        base = make_rates_op(Configuration.STOKES, cooperativity=0.08)
        for scale in (0.1, 3.0, 42.0):
            scaled = make_rates_op(
                Configuration.STOKES, cooperativity=0.08,
                kappa_m=base.kappa_m * scale, kappa_o=base.kappa_plus * scale,
                splitting=base.splitting * scale,
            )
            w = 0.8 * base.kappa_m
            assert g2_cross_from_rates(scaled, w * scale, 2.2) == pytest.approx(
                g2_cross_from_rates(base, w, 2.2), rel=1e-9
            )

    def test_underflowing_eta_diverges(self):
        """eta_- ~ 1e-301 squares to 0; with n_th = 0 this used to raise
        ZeroDivisionError from 0 / 0, and g2 ~ 1 / eta_- is past 1e300."""
        op = make_rates_op(Configuration.STOKES, eta_m=1e-300)
        assert 0.0 < float(eta_spectrum_from_rates(op, 0.0)) < 1e-290
        with pytest.raises(InstabilityError, match="cross-correlation diverges"):
            g2_cross_from_rates(op, 0.0, 0.0)

    def test_wrong_configuration(self):
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.1)
        with pytest.raises(ValueError):
            g2_cross_from_rates(op, 0.0, 0.0)
