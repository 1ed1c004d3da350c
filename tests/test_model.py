import math

import numpy as np
import pytest

from moptrans.hybridize import operating_point
from moptrans.model import (
    HBAR,
    TWO_PI,
    AcousticMode,
    Configuration,
    DeviceParams,
    OpticalModeBare,
    PortLosses,
    PumpConfig,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    photon_flux,
    watts_to_dbm,
    x_zpf,
)

from conftest import intracavity_photons, make_paper_device


class TestUnitConversions:
    def test_identity_points(self):
        assert db_to_linear(0.0) == 1.0
        assert linear_to_db(1.0) == 0.0
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)

    def test_minus_three_db(self):
        # analytic 10^(-0.3)
        assert db_to_linear(-3.0) == pytest.approx(0.501187, rel=1e-5)

    def test_21_dbm_hand_value(self):
        # 10^(21/10) mW, computed by hand
        assert dbm_to_watts(21.0) == pytest.approx(0.1259, rel=1e-3)

    def test_round_trips(self, rng):
        for x in rng.uniform(-120.0, 40.0, size=200):
            assert linear_to_db(db_to_linear(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)
            assert watts_to_dbm(dbm_to_watts(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)
        for p in 10.0 ** rng.uniform(-9.0, 1.0, size=200):
            assert db_to_linear(linear_to_db(p)) == pytest.approx(p, rel=1e-12)
            assert dbm_to_watts(watts_to_dbm(p)) == pytest.approx(p, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-1.0)


class TestPhotonFlux:
    def test_zero_power(self):
        assert photon_flux(0.0, TWO_PI * 193.4e12) == 0.0

    def test_hand_value(self):
        # P/(hbar w) at 10 mW, 193.4 THz
        flux = photon_flux(0.01, TWO_PI * 193.4e12)
        assert flux == pytest.approx(7.8e16, rel=1e-2)

    def test_normalization(self):
        omega = TWO_PI * 193.4e12
        assert photon_flux(HBAR * omega, omega) == pytest.approx(1.0, rel=1e-14)

    def test_linearity_over_six_decades(self):
        omega = TWO_PI * 193.4e12
        base = photon_flux(1e-6, omega)
        for k in range(7):
            p = 1e-6 * 10.0 ** k
            assert photon_flux(p, omega) == pytest.approx(base * 10.0 ** k, rel=1e-12)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            photon_flux(1.0, 0.0)
        with pytest.raises(ValueError):
            photon_flux(1.0, -1.0)


class TestXzpf:
    def test_paper_value(self):
        # m_eff = 6 ng, omega_m = 2pi x 3.48 GHz
        assert x_zpf(6e-12, TWO_PI * 3.48e9) == pytest.approx(2e-17, rel=0.05)

    def test_sqrt_mass_scaling(self):
        a = x_zpf(1e-12, TWO_PI * 3.48e9)
        b = x_zpf(4e-12, TWO_PI * 3.48e9)
        assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_normalization(self):
        omega = TWO_PI * 3.48e9
        assert x_zpf(HBAR / (2.0 * omega), omega) == pytest.approx(1.0, rel=1e-14)

    def test_invariant_product(self, rng):
        for _ in range(50):
            m = 10.0 ** rng.uniform(-15, -9)
            w = TWO_PI * 10.0 ** rng.uniform(8, 11)
            assert x_zpf(m, w) * math.sqrt(m * w) == pytest.approx(
                math.sqrt(HBAR / 2.0), rel=1e-12
            )

    def test_invalid(self):
        with pytest.raises(ValueError):
            x_zpf(0.0, 1.0)
        with pytest.raises(ValueError):
            x_zpf(1.0, -1.0)


class TestIntracavityPhotons:
    """The operating point's pumped-supermode photon number."""

    def test_zero_power(self, paper_device):
        pump = PumpConfig(Configuration.ANTI_STOKES, 0.0)
        assert operating_point(paper_device, pump).n_pump == 0.0

    def test_appendix_chain(self, paper_device, pump_21dbm):
        # eta_o ~ 0.35, kappa_o ~ 2pi x 172 MHz, 21 dBm pump, -4 dB facet
        n = operating_point(paper_device, pump_21dbm).n_pump
        assert n == pytest.approx(5.1e8, rel=0.02)
        assert n == pytest.approx(intracavity_photons(paper_device, pump_21dbm), rel=1e-12)

    def test_linearity(self, paper_device):
        p1 = PumpConfig(Configuration.ANTI_STOKES, 0.01)
        p2 = PumpConfig(Configuration.ANTI_STOKES, 0.02)
        assert operating_point(paper_device, p2).n_pump == pytest.approx(
            2.0 * operating_point(paper_device, p1).n_pump, rel=1e-12
        )


class TestTypeInvariants:
    def test_optical_mode(self):
        with pytest.raises(ValueError):
            OpticalModeBare(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            OpticalModeBare(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            OpticalModeBare(1.0, 0.0, 0.0)
        mode = OpticalModeBare(1.0, 0.25, 0.75)
        assert mode.kappa == 1.0

    def test_acoustic_mode(self):
        with pytest.raises(ValueError):
            AcousticMode(1.0, 1.0, 2.0)  # kappa_ex > kappa
        with pytest.raises(ValueError):
            AcousticMode(-1.0, 1.0, 0.5)
        mode = AcousticMode(TWO_PI * 3.48e9, TWO_PI * 13e6, TWO_PI * 1.43e6, m_eff=6e-12)
        assert mode.eta_m == pytest.approx(0.11, rel=1e-6)
        assert mode.x_zpf == pytest.approx(2e-17, rel=0.05)

    def test_port_losses(self):
        with pytest.raises(ValueError):
            PortLosses(0.0, 0.5)
        with pytest.raises(ValueError):
            PortLosses(0.5, 1.5)
        losses = PortLosses(0.5, 0.4)
        assert losses.eta_fiber_fiber == pytest.approx(0.16)

    def test_device_mode_ordering(self):
        base = make_paper_device()
        decreasing = (
            AcousticMode(TWO_PI * 3.48e9, TWO_PI * 13e6, 0.0),
            AcousticMode(TWO_PI * 3.165e9, TWO_PI * 16e6, 0.0),
        )
        with pytest.raises(ValueError):
            DeviceParams(base.left, base.right, base.coupling_j, decreasing, base.g0, base.losses)
        with pytest.raises(ValueError):
            DeviceParams(base.left, base.right, base.coupling_j, (), base.g0, base.losses)

    def test_transduction_mode_matches_splitting(self, paper_device_two_modes):
        # the mode closest to 2J is the transduction mode, independent of
        # its position in the (ascending) list
        mode = paper_device_two_modes.transduction_mode
        assert mode.omega_m == pytest.approx(TWO_PI * 3.48e9, rel=1e-12)

    def test_pump_config(self):
        with pytest.raises(ValueError):
            PumpConfig(Configuration.STOKES, -1.0)
        pump = PumpConfig(Configuration.STOKES, 0.1)
        assert pump.omega_l_effective == pytest.approx(TWO_PI * 193.41e12, rel=1e-4)
