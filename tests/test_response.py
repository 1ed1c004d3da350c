import dataclasses
import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from moptrans import response
from moptrans.errors import InstabilityError
from moptrans.hybridize import operating_point
from moptrans.model import TWO_PI, Configuration, PumpConfig, dbm_to_watts, linear_to_db
from moptrans.response import (
    CouplingOptimum,
    Spectrum,
    eta_internal,
    eta_spectrum_from_rates,
    fwhm,
    multimode_spectrum,
    offchip_efficiency,
    onchip_efficiency_spectrum,
    optimal_coupling,
    transfer_from_rates,
)
from moptrans.sfg import antistokes_graph_from_rates, mason_gain, solve_gain, stokes_graph_from_rates

from conftest import make_paper_device, make_rates_op


class TestScalars:
    def test_eta_internal(self):
        assert eta_internal(0.0, Configuration.ANTI_STOKES) == 0.0
        assert eta_internal(1.0, Configuration.ANTI_STOKES) == pytest.approx(1.0)
        assert eta_internal(5e-4, Configuration.ANTI_STOKES) == pytest.approx(2e-3, rel=2e-3)
        with pytest.raises(InstabilityError):
            eta_internal(1.0, Configuration.STOKES)

    @pytest.mark.parametrize("c", [1e153, 1e154, 1e200, 1e308])
    def test_eta_internal_of_huge_cooperativity(self, c):
        """(1 + C)^2 overflows past C ~ 1.3e154, where 4C / (1 + C)^2 is 4 / C;
        this used to raise OverflowError."""
        assert eta_internal(c, Configuration.ANTI_STOKES) == pytest.approx(4.0 / c, rel=1e-12)

    def test_eta_ext(self, paper_device):
        val = offchip_efficiency(paper_device, PumpConfig(Configuration.ANTI_STOKES, 0.0)).eta_ext
        assert val == pytest.approx((60.0 / 172.0) * 0.11, rel=1e-9)

    def test_eta_ext_limits(self, paper_device):
        from moptrans.model import AcousticMode, DeviceParams, OpticalModeBare

        base = paper_device
        pump_off = PumpConfig(Configuration.ANTI_STOKES, 0.0)
        over = OpticalModeBare(base.left.omega, 0.0, TWO_PI * 170e6)
        mode = AcousticMode(TWO_PI * 3.48e9, TWO_PI * 13e6, TWO_PI * 13e6)
        dev = DeviceParams(over, over, base.coupling_j, (mode,), base.g0, base.losses)
        assert offchip_efficiency(dev, pump_off).eta_ext == pytest.approx(1.0, rel=1e-12)
        dark = AcousticMode(TWO_PI * 3.48e9, TWO_PI * 13e6, 0.0)
        dev0 = DeviceParams(base.left, base.right, base.coupling_j, (dark,), base.g0, base.losses)
        assert offchip_efficiency(dev0, pump_off).eta_ext == 0.0

    @pytest.mark.parametrize("power", [0.0, 1e-3, dbm_to_watts(21.0)])
    @pytest.mark.parametrize("cfg", [Configuration.ANTI_STOKES, Configuration.STOKES])
    def test_eta_ext_is_extraction_of_active_pair(self, paper_device, cfg, power):
        """eta_ext is (kappa_ex_o/kappa_o)(kappa_ex_m/kappa_m) of the active
        supermode and the transduction mode, whatever the pump power."""
        from moptrans.hybridize import supermodes

        sm = supermodes(paper_device.left, paper_device.right, paper_device.coupling_j)
        if cfg is Configuration.ANTI_STOKES:
            eta_o = sm.kappa_ex_plus / sm.kappa_plus
        else:
            eta_o = sm.kappa_ex_minus / sm.kappa_minus
        expected = eta_o * paper_device.transduction_mode.eta_m
        got = offchip_efficiency(paper_device, PumpConfig(cfg, power)).eta_ext
        assert got == pytest.approx(expected, rel=1e-12)


class TestOnchipSpectrum:
    def test_rolloff(self, paper_device, pump_21dbm):
        grid = np.array([-100.0, 0.0, 100.0]) * TWO_PI * 172e6
        spec = onchip_efficiency_spectrum(paper_device, pump_21dbm, grid)
        eta = spec.channel("eta_onchip")
        assert eta[0] < 1e-6 * eta[1]
        assert eta[2] < 1e-6 * eta[1]

    def test_band_center_identity(self):
        # exact closed form at 0 equals eta_ext * 4C/(1+C)^2
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.07)
        eta0 = float(eta_spectrum_from_rates(op, 0.0))
        eta_ext = (op.kappa_ex_plus / op.kappa_plus) * (op.kappa_ex_m / op.kappa_m)
        c = op.cooperativity
        assert eta0 == pytest.approx(eta_ext * 4.0 * c / (1.0 + c) ** 2, rel=1e-6)

    def test_paper_band_center(self, paper_device, pump_21dbm):
        spec = onchip_efficiency_spectrum(paper_device, pump_21dbm, np.array([-1.0, 0.0, 1.0]))
        eta0 = spec.channel("eta_onchip")[1]
        assert eta0 == pytest.approx(7.9e-5, rel=0.30)

    def test_up_down_equality(self):
        for cfg in (Configuration.ANTI_STOKES, Configuration.STOKES):
            op = make_rates_op(cfg, cooperativity=0.2)
            for w in np.linspace(-3, 3, 9) * op.kappa_m:
                s_up = transfer_from_rates(op, "microwave", "optical", w)
                s_down = transfer_from_rates(op, "optical", "microwave", w)
                assert abs(s_up) ** 2 == pytest.approx(abs(s_down) ** 2, rel=1e-12)


class TestOffchipBudget:
    def test_linearized_minus60db_point(self, paper_device):
        pump = PumpConfig(Configuration.ANTI_STOKES, dbm_to_watts(10.0))
        budget = offchip_efficiency(paper_device, pump)
        assert linear_to_db(budget.eta_tot_linearized) == pytest.approx(-60.0, abs=0.25)

    def test_21dbm_within_3db_of_minus48(self, paper_device, pump_21dbm):
        budget = offchip_efficiency(paper_device, pump_21dbm)
        assert abs(linear_to_db(budget.eta_tot) - (-48.0)) < 3.0

    def test_lossless_ports_collapse_chain(self, paper_device, pump_21dbm):
        from moptrans.model import DeviceParams, PortLosses

        dev = DeviceParams(
            paper_device.left, paper_device.right, paper_device.coupling_j,
            paper_device.acoustic_modes, paper_device.g0, PortLosses(1.0, 1.0),
        )
        budget = offchip_efficiency(dev, pump_21dbm)
        assert budget.eta_tot == pytest.approx(budget.eta_oc, rel=1e-12)

    def test_budget_ordering(self, paper_device, pump_21dbm):
        budget = offchip_efficiency(paper_device, pump_21dbm)
        assert budget.eta_tot <= budget.eta_oc <= budget.eta_ext
        assert 0.0 <= budget.eta_oc <= 1.0

    def test_zero_power(self, paper_device):
        pump = PumpConfig(Configuration.ANTI_STOKES, 0.0)
        budget = offchip_efficiency(paper_device, pump)
        assert budget.eta_tot == 0.0 and budget.cooperativity == 0.0 and budget.n_bar == 0.0

    def test_monotonic_in_power(self, paper_device):
        for cfg in (Configuration.ANTI_STOKES, Configuration.STOKES):
            previous = -1.0
            for dbm in np.linspace(-10, 25, 8):
                budget = offchip_efficiency(
                    paper_device, PumpConfig(cfg, dbm_to_watts(float(dbm)))
                )
                assert budget.eta_tot > previous
                previous = budget.eta_tot


class TestTransfer:
    def test_bare_cavity_reflection(self):
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.0, eta_m=0.3)
        s = transfer_from_rates(op, "microwave", "microwave", 0.0)
        assert s == pytest.approx(-1.0 + 2.0 * 0.3, rel=1e-12)

    def test_lossless_band_center(self):
        c = 0.37
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=c, eta_m=1.0, eta_o=1.0)
        s = transfer_from_rates(op, "microwave", "microwave", 0.0)
        assert s == pytest.approx((1.0 - c) / (1.0 + c), rel=1e-12)

    def test_bogoliubov_identities(self, rng):
        # lossless ports, band center: |S_cc|^2 + eta_+ = 1 (anti-Stokes),
        # |S_cc|^2 - eta_- = 1 (Stokes)
        for _ in range(100):
            c = rng.uniform(0.0, 0.9)
            km = TWO_PI * 10.0 ** rng.uniform(6, 7.5)
            ko = TWO_PI * 10.0 ** rng.uniform(7.5, 9)
            for cfg, sign in ((Configuration.ANTI_STOKES, 1.0), (Configuration.STOKES, -1.0)):
                op = make_rates_op(cfg, cooperativity=c, kappa_m=km, kappa_o=ko,
                                   eta_m=1.0, eta_o=1.0)
                s_cc = transfer_from_rates(op, "microwave", "microwave", 0.0)
                eta = float(eta_spectrum_from_rates(op, 0.0))
                assert abs(abs(s_cc) ** 2 + sign * eta - 1.0) < 1e-10

    def test_reciprocity_magnitudes(self):
        for cfg in (Configuration.ANTI_STOKES, Configuration.STOKES):
            op = make_rates_op(cfg, cooperativity=0.15)
            for w in np.linspace(-2.5, 2.5, 11) * op.kappa_m:
                up = abs(transfer_from_rates(op, "microwave", "optical", w))
                down = abs(transfer_from_rates(op, "optical", "microwave", w))
                assert up == pytest.approx(down, rel=1e-12)

    def test_closed_forms_match_graphs_random_frequencies(self, rng):
        """Closed forms vs Mason and linear solve at 200 random offsets per
        configuration, all four port pairs, 1e-10 relative."""
        ports = {
            Configuration.ANTI_STOKES: {
                ("microwave", "optical"): ("c_in", "a_out"),
                ("optical", "microwave"): ("a_in", "c_out"),
                ("microwave", "microwave"): ("c_in", "c_out"),
                ("optical", "optical"): ("a_in", "a_out"),
            },
            Configuration.STOKES: {
                ("microwave", "optical"): ("c_in_dag", "a_out"),
                ("optical", "microwave"): ("a_in_dag", "c_out"),
                ("microwave", "microwave"): ("c_in", "c_out"),
                ("optical", "optical"): ("a_in", "a_out"),
            },
        }
        for cfg, builder in (
            (Configuration.ANTI_STOKES, antistokes_graph_from_rates),
            (Configuration.STOKES, stokes_graph_from_rates),
        ):
            op = make_rates_op(cfg, cooperativity=0.21)
            graph = builder(op)
            omegas = rng.uniform(-4.0, 4.0, size=200) * op.kappa_m
            for (fp, tp), (src, dst) in ports[cfg].items():
                for w in omegas:
                    cf = transfer_from_rates(op, fp, tp, float(w))
                    m = mason_gain(graph, src, dst, float(w)).value
                    s = solve_gain(graph, src, dst, float(w))
                    scale = max(abs(cf), 1e-30)
                    assert abs(cf - m) / scale < 1e-10
                    assert abs(cf - s) / scale < 1e-10

    def test_scattering_is_elementwise(self, rng):
        """`scattering` over an array holds its evaluation at each scalar
        offset, whose entries are complex; `transfer_from_rates`, checked
        against the graphs above, is its [to][from] entry."""
        for cfg in (Configuration.ANTI_STOKES, Configuration.STOKES):
            op = dataclasses.replace(make_rates_op(cfg, cooperativity=0.3), sideband_detuning=TWO_PI * 40e6)
            omegas = rng.uniform(-4.0, 4.0, size=16) * op.kappa_m
            matrix = response.scattering(op, omegas)
            for i, w in enumerate(omegas.tolist()):
                for to, row in enumerate(response.scattering(op, w)):
                    for frm, s in enumerate(row):
                        assert type(s) is complex
                        assert s == pytest.approx(matrix[to][frm][i], rel=1e-14, abs=0.0)
                        assert s == transfer_from_rates(op, response.PORTS[frm], response.PORTS[to], w)

    def test_stokes_instability_raises(self):
        op = make_rates_op(Configuration.STOKES, cooperativity=1.2)
        with pytest.raises(InstabilityError):
            transfer_from_rates(op, "microwave", "optical", 0.0)

    def test_unknown_port_rejected(self):
        op = make_rates_op(Configuration.ANTI_STOKES)
        assert isinstance(transfer_from_rates(op, "microwave", "optical", 0.0), complex)
        for ports in (("acoustic", "optical"), ("optical", "acoustic")):
            with pytest.raises(ValueError, match="unknown port 'acoustic'"):
                transfer_from_rates(op, *ports, 0.0)


@st.composite
def detuned_ops(draw, configuration):
    """A supermode-level operating point at C in [0, 0.99], rates drawn
    log-uniform as in the seeded tests, and a sideband detuning d ~ N(0,
    kappa_o) (the inverse normal CDF of a uniform draw)."""
    kappa_m = TWO_PI * 10.0 ** draw(st.floats(6.0, 7.5))
    kappa_o = TWO_PI * 10.0 ** draw(st.floats(7.5, 9.0))
    op = make_rates_op(configuration, cooperativity=draw(st.floats(0.0, 0.99)),
                       kappa_m=kappa_m, kappa_o=kappa_o,
                       eta_m=draw(st.floats(0.01, 1.0)), eta_o=draw(st.floats(0.01, 1.0)))
    z = statistics.NormalDist().inv_cdf(draw(st.floats(1e-6, 1.0 - 1e-6)))
    return dataclasses.replace(op, sideband_detuning=z * kappa_o)


@st.composite
def eta_terms(draw):
    """1-3 `(op, shift)` terms of one configuration, shifts within 5 kappa_m."""
    configuration = draw(st.sampled_from(list(Configuration)))
    ops = draw(st.lists(detuned_ops(configuration), min_size=1, max_size=3))
    return [(op, draw(st.floats(-5.0, 5.0)) * op.kappa_m) for op in ops]


class TestEfficiencyClosedForm:
    """Efficiency spectra come from the real closed form of |S_ac|^2; the
    complex S parameters of `transfer_from_rates` are its oracle."""

    @given(terms=eta_terms())
    def test_summed_eta_matches_transfer(self, terms):
        scale = max(max(op.kappa_active, op.kappa_m) for op, _ in terms)
        omega = np.linspace(-6.0, 6.0, 1201) * scale
        expected = sum(
            np.abs(transfer_from_rates(op, "microwave", "optical", omega - shift)) ** 2
            for op, shift in terms
        )
        np.testing.assert_allclose(response._summed_eta(terms, omega), expected, rtol=1e-12, atol=0.0)

    @given(c=st.floats(1.0, 100.0))
    def test_eta_spectrum_stokes_instability_raises(self, c):
        op = make_rates_op(Configuration.STOKES, cooperativity=c)
        assume(op.cooperativity >= 1.0)
        with pytest.raises(InstabilityError):
            eta_spectrum_from_rates(op, np.linspace(-1.0, 1.0, 11) * op.kappa_m)

    @given(c=st.floats(1.0, 100.0), n_modes=st.sampled_from([1, 2]),
           detuning=st.floats(-1.0, 1.0))
    def test_multimode_stokes_instability_raises(self, c, n_modes, detuning):
        """The paper device with g0 scaled to put its transduction mode at
        cooperativity c under a resonant Stokes pump at 21 dBm; the pump is
        then detuned by up to one active linewidth."""
        dev = make_paper_device(n_modes)
        pump = PumpConfig(Configuration.STOKES, dbm_to_watts(21.0))
        resonant = operating_point(dev, pump)
        dev = dataclasses.replace(dev, g0=dev.g0 * math.sqrt(c / resonant.cooperativity))
        pump_detuning = detuning * resonant.kappa_active
        op = operating_point(dev, pump, dev.transduction_mode, pump_detuning)
        assume(op.cooperativity >= 1.0)
        with pytest.raises(InstabilityError):
            multimode_spectrum(dev, pump, pump_detuning, np.linspace(-1.0, 1.0, 11) * op.kappa_m)


class TestMultimode:
    def test_single_mode_reduces(self, paper_device, pump_21dbm):
        grid = np.linspace(-4, 4, 101) * TWO_PI * 13e6
        single = onchip_efficiency_spectrum(paper_device, pump_21dbm, grid)
        multi = multimode_spectrum(paper_device, pump_21dbm, 0.0, grid)
        assert np.array_equal(single.values, multi.values)

    def test_two_modes_two_peaks(self, paper_device_two_modes, pump_21dbm):
        mode_sep = TWO_PI * (3.48e9 - 3.165e9)
        grid = np.linspace(-mode_sep - TWO_PI * 60e6, TWO_PI * 60e6, 3001)
        spec = multimode_spectrum(paper_device_two_modes, pump_21dbm, 0.0, grid)
        eta = spec.channel("eta_onchip")
        # transduction peaks sit at both acoustic modes (offsets 0 and
        # -mode_sep); the detuned overtone is weaker but clearly resolved
        main_window = np.abs(grid) < TWO_PI * 30e6
        aux_window = np.abs(grid + mode_sep) < TWO_PI * 30e6
        trough = eta[np.abs(grid + 0.5 * mode_sep) < TWO_PI * 30e6].max()
        main = eta[main_window].max()
        aux = eta[aux_window].max()
        assert main > 100 * trough and aux > 10 * trough
        assert abs(grid[np.argmax(eta)]) < TWO_PI * 5e6
        aux_peak_at = grid[aux_window][np.argmax(eta[aux_window])]
        assert abs(aux_peak_at + mode_sep) < TWO_PI * 5e6

    def test_detuned_pump_peaks_stay_on_modes(self, paper_device_two_modes, pump_21dbm):
        # the narrow acoustic response pins the transduction peaks to the
        # mode frequencies even for a detuned pump
        mode_sep = TWO_PI * (3.48e9 - 3.165e9)
        grid = np.linspace(-mode_sep - TWO_PI * 60e6, TWO_PI * 60e6, 1501)
        detuned = multimode_spectrum(paper_device_two_modes, pump_21dbm,
                                     0.3 * mode_sep, grid)
        eta = detuned.channel("eta_onchip")
        aux_window = np.abs(grid + mode_sep) < TWO_PI * 30e6
        main_window = np.abs(grid) < TWO_PI * 30e6
        main_at = grid[main_window][np.argmax(eta[main_window])]
        aux_at = grid[aux_window][np.argmax(eta[aux_window])]
        assert abs(main_at) < TWO_PI * 5e6
        assert abs(aux_at + mode_sep) < TWO_PI * 5e6

    def test_mode_order_invariance(self, paper_device_two_modes, pump_21dbm):
        """The two-mode spectrum is the per-mode sum of |S_ac|^2, each mode
        on its own operating point, in either summation order."""
        dev = paper_device_two_modes
        detuning = TWO_PI * 20e6
        ref = dev.transduction_mode.omega_m
        grid = np.linspace(-TWO_PI * 400e6, TWO_PI * 100e6, 501)
        terms = [
            np.abs(transfer_from_rates(operating_point(dev, pump_21dbm, m, detuning),
                                       "microwave", "optical", grid - (m.omega_m - ref))) ** 2
            for m in dev.acoustic_modes
        ]
        spec = multimode_spectrum(dev, pump_21dbm, detuning, grid).channel("eta_onchip")
        np.testing.assert_allclose(spec, terms[0] + terms[1], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(spec, terms[1] + terms[0], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("configuration", list(Configuration))
    @pytest.mark.parametrize("n_modes", [1, 2])
    @pytest.mark.parametrize("detuning_hz", [0.0, 20e6])
    @pytest.mark.parametrize("n_points", [4095, 4097, 20001])
    def test_blocks_change_no_result(self, monkeypatch, configuration, n_modes, detuning_hz, n_points):
        """Grids are evaluated in blocks; the result equals the same kernel
        run over the whole grid in one block, bit for bit."""
        dev = make_paper_device(n_modes)
        pump = PumpConfig(configuration, dbm_to_watts(21.0))
        detuning = TWO_PI * detuning_hz
        grid = np.linspace(-TWO_PI * 500e6, TWO_PI * 100e6, n_points)
        blocked = multimode_spectrum(dev, pump, detuning, grid).channel("eta_onchip")
        onchip = onchip_efficiency_spectrum(dev, pump, grid).channel("eta_onchip")
        monkeypatch.setattr(response, "_BLOCK", n_points)
        one_shot = multimode_spectrum(dev, pump, detuning, grid).channel("eta_onchip")
        assert np.array_equal(blocked, one_shot)
        assert np.array_equal(onchip, onchip_efficiency_spectrum(dev, pump, grid).channel("eta_onchip"))

    def test_overlap_warning(self, paper_device, pump_21dbm):
        from moptrans.model import AcousticMode, DeviceParams

        close = (
            AcousticMode(TWO_PI * 3.47e9, TWO_PI * 13e6, TWO_PI * 1e6),
            AcousticMode(TWO_PI * 3.48e9, TWO_PI * 13e6, TWO_PI * 1e6),
        )
        dev = DeviceParams(
            paper_device.left, paper_device.right, paper_device.coupling_j,
            close, paper_device.g0, paper_device.losses,
        )
        grid = np.linspace(-TWO_PI * 40e6, TWO_PI * 40e6, 64)
        with pytest.warns(RuntimeWarning):
            multimode_spectrum(dev, pump_21dbm, 0.0, grid)


class TestFwhm:
    def test_single_lorentzian(self):
        kappa = TWO_PI * 13e6
        step = kappa / 10.0
        grid = np.arange(-8 * kappa, 8 * kappa + step / 2, step)
        values = (kappa / 2) ** 2 / (grid ** 2 + (kappa / 2) ** 2)
        width = fwhm(Spectrum(grid, values, ("eta",)))
        assert width == pytest.approx(kappa, rel=5e-3)

    def test_two_lorentzian_product_vs_quartic_root(self):
        """Product of 13 and 170 MHz Lorentzians: numeric FWHM against the
        analytic root of (u + A^2)(u + B^2) = 2 A^2 B^2."""
        k1, k2 = TWO_PI * 13e6, TWO_PI * 170e6
        a, b = k2 / 2.0, k1 / 2.0
        grid = np.linspace(-6 * k1, 6 * k1, 4001)
        values = (a ** 2 / (grid ** 2 + a ** 2)) * (b ** 2 / (grid ** 2 + b ** 2))
        width = fwhm(Spectrum(grid, values, ("eta",)))
        u = 0.5 * (-(a ** 2 + b ** 2) + math.sqrt((a ** 2 + b ** 2) ** 2 + 4 * a ** 2 * b ** 2))
        analytic = 2.0 * math.sqrt(u)
        assert width == pytest.approx(analytic, rel=0.01)
        assert analytic == pytest.approx(TWO_PI * 12.95e6, rel=0.01)

    def test_flat_spectrum_rejected(self):
        grid = np.linspace(0, 1, 32)
        with pytest.raises(ValueError):
            fwhm(Spectrum(grid, np.ones_like(grid), ("eta",)))

    def test_boundary_maximum_rejected(self):
        grid = np.linspace(0, 1, 32)
        with pytest.raises(ValueError):
            fwhm(Spectrum(grid, grid.copy(), ("eta",)))


class TestOptimalCoupling:
    def test_analytic_optimum(self):
        res = optimal_coupling(16.0)
        assert isinstance(res, CouplingOptimum)
        assert res.r_opt == 1.0
        assert res.eta_peak == pytest.approx(1.0)

    def test_numeric_argmax_oracle(self):
        from scipy.optimize import minimize_scalar

        f = 3.7
        res = optimal_coupling(f)
        opt = minimize_scalar(
            lambda r: -f * r ** 2 / (1.0 + r) ** 4,
            bounds=(0.01, 100.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert opt.x == pytest.approx(res.r_opt, abs=1e-6)
        assert -opt.fun == pytest.approx(res.eta_peak, rel=1e-9)

    def test_invalid_prefactor(self):
        with pytest.raises(ValueError):
            optimal_coupling(0.0)


class TestSpectrumType:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 1.0]), np.array([1.0, np.inf]))

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 2.0], [0.0, np.inf, np.inf], [0.0, 1.0, np.inf]])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="finite"):
            Spectrum(np.array(grid), np.ones(3), ("eta_onchip",))

    def test_channels(self):
        """A spectrum holds one real channel: 2-D values are refused, with
        or without a label per row, and so are complex values."""
        s = Spectrum(np.array([0.0, 1.0]), np.array([1.0, 2.0]), ("a",))
        assert s.channel("a")[1] == 2.0
        with pytest.raises(KeyError):
            s.channel("b")
        for labels in [("a",), ("a", "b")]:
            with pytest.raises(ValueError, match="shape mismatch"):
                Spectrum(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]), labels)
        with pytest.raises(TypeError):
            Spectrum(np.array([0.0, 1.0]), np.array([1.0, 2.0j]), ("a",))
