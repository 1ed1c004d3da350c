"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints a single PASS/FAIL line (run with `pytest -s` to see
them inline).  Stated runtime budgets are asserted.
"""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from moptrans import calibrate, quantumstats, response, sfg, timedomain
from moptrans.hybridize import supermodes
from moptrans.model import (
    TWO_PI,
    AcousticMode,
    Configuration,
    DeviceParams,
    OpticalModeBare,
    PumpConfig,
    dbm_to_watts,
    linear_to_db,
    x_zpf,
)

from conftest import OMEGA_1550, make_paper_device, make_rates_op
from test_calibrate import PAPER_FIXED
from test_sfg import random_graph
from test_timedomain import steady_transfer


@contextmanager
def criterion(num: int, text: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:02d}] FAIL  {text}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\n[criterion {num:02d}] PASS  {text}  ({elapsed:.2f} s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.2f} s exceeds budget {budget_s} s"


def test_criterion_01_g0_back_calculation():
    with criterion(1, "C0 = 8e-13 and g0 = 2pi x 42 Hz from the -60 dB point, +-5%", 1.0):
        report = calibrate.fit_efficiency_power([dbm_to_watts(10.0)], [1e-6], PAPER_FIXED)
        assert report.parameters["C0"] == pytest.approx(8e-13, rel=0.05)
        assert report.parameters["g0"] == pytest.approx(TWO_PI * 42.0, rel=0.05)


def test_criterion_02_efficiency_chain():
    with criterion(2, "eta_tot within 3 dB of -48 dB; eta_oc/eta_int within 30%", 1.0):
        device = make_paper_device()
        pump = PumpConfig(Configuration.ANTI_STOKES, dbm_to_watts(21.0))
        budget = response.offchip_efficiency(device, pump)
        assert abs(linear_to_db(budget.eta_tot) - (-48.0)) < 3.0
        assert budget.eta_oc == pytest.approx(7.9e-5, rel=0.30)
        assert budget.eta_int == pytest.approx(2e-3, rel=0.30)


def test_criterion_03_decoherence_rates():
    with criterion(3, "decoherence 43 MHz +-2% at 800 mK, 0.5 Hz +-5% at 10 mK", 1.0):
        omega_m = TWO_PI * 3.5e9
        kappa_m = TWO_PI * 10e6
        hot = quantumstats.decoherence_rate(kappa_m, quantumstats.n_thermal(omega_m, 0.8))
        cold = quantumstats.decoherence_rate(kappa_m, quantumstats.n_thermal(omega_m, 0.010))
        assert hot == pytest.approx(43e6, rel=0.02)
        assert cold == pytest.approx(0.5, rel=0.05)


def test_criterion_04_zero_point_motion():
    with criterion(4, "x_ZPF = 2e-17 m +-5% from 6 ng at 3.48 GHz"):
        assert x_zpf(6e-12, TWO_PI * 3.48e9) == pytest.approx(2e-17, rel=0.05)


def test_criterion_05_solver_equivalence(rng):
    with criterion(5, "Mason == linear solve, 1e3 random graphs + physics graphs x 200 points, 1e-10", 30.0):
        for _ in range(1000):
            graph, src, dst = random_graph(rng)
            m = sfg.mason_gain(graph, src, dst, 0.0).value
            s = sfg.solve_gain(graph, src, dst, 0.0)
            assert abs(m - s) / max(abs(m), abs(s), 1e-3) < 1e-10

        op_as = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.15)
        op_s = make_rates_op(Configuration.STOKES, cooperativity=0.15)
        omegas = np.linspace(-4, 4, 200) * op_as.kappa_m
        for graph, src, dst in (
            (sfg.antistokes_graph_from_rates(op_as), "c_in", "a_out"),
            (sfg.stokes_graph_from_rates(op_s), "c_in_dag", "a_out"),
        ):
            for w in omegas:
                m = sfg.mason_gain(graph, src, dst, float(w)).value
                s = sfg.solve_gain(graph, src, dst, float(w))
                assert abs(m - s) / abs(s) < 1e-10


def test_criterion_06_closed_form_vs_graph():
    with criterion(6, "closed forms == graph solvers, all four port pairs, both configurations, 1e-10"):
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
            (Configuration.ANTI_STOKES, sfg.antistokes_graph_from_rates),
            (Configuration.STOKES, sfg.stokes_graph_from_rates),
        ):
            op = make_rates_op(cfg, cooperativity=0.23)
            graph = builder(op)
            for w in np.linspace(-3.5, 3.5, 29) * op.kappa_m:
                for (fp, tp), (src, dst) in ports[cfg].items():
                    cf = response.transfer_from_rates(op, fp, tp, float(w))
                    m = sfg.mason_gain(graph, src, dst, float(w)).value
                    s = sfg.solve_gain(graph, src, dst, float(w))
                    assert abs(cf - m) / abs(cf) < 1e-10
                    assert abs(cf - s) / abs(cf) < 1e-10


def test_criterion_07_time_frequency_consistency():
    with criterion(7, "RK4 steady state == closed forms to 1e-3, >= 10 frequencies per configuration", 60.0):
        for cfg in (Configuration.ANTI_STOKES, Configuration.STOKES):
            op = make_rates_op(cfg, cooperativity=0.08)
            antistokes = cfg is Configuration.ANTI_STOKES
            nus = np.linspace(-3.0, 3.0, 11) * op.kappa_m
            nus = nus[np.abs(nus) > 0.05 * op.kappa_m]  # 10 clean offsets
            assert len(nus) >= 10
            for nu in nus:
                nu = float(nu)
                s_opt, s_mw = steady_transfer(op, "microwave", nu)
                cf_ac = response.transfer_from_rates(
                    op, "microwave", "optical", nu if antistokes else -nu
                )
                cf_cc = response.transfer_from_rates(op, "microwave", "microwave", nu)
                assert abs(s_opt - cf_ac) / abs(cf_ac) < 1e-3
                assert abs(s_mw - cf_cc) / abs(cf_cc) < 1e-3
                s_opt2, s_mw2 = steady_transfer(op, "optical", nu)
                cf_aa = response.transfer_from_rates(op, "optical", "optical", nu)
                cf_ca = response.transfer_from_rates(
                    op, "optical", "microwave", nu if antistokes else -nu
                )
                assert abs(s_opt2 - cf_aa) / abs(cf_aa) < 1e-3
                assert abs(s_mw2 - cf_ca) / abs(cf_ca) < 1e-3


def test_criterion_08_bogoliubov_identities(rng):
    with criterion(8, "lossless band center: |S_cc|^2 +- eta = 1 to 1e-10, 100 draws with C < 0.9"):
        for _ in range(100):
            c = float(rng.uniform(0.0, 0.9))
            kappa_m = TWO_PI * 10.0 ** rng.uniform(6.0, 7.5)
            kappa_o = TWO_PI * 10.0 ** rng.uniform(7.5, 9.0)
            for cfg, sign in ((Configuration.ANTI_STOKES, +1.0), (Configuration.STOKES, -1.0)):
                op = make_rates_op(cfg, cooperativity=c, kappa_m=kappa_m,
                                   kappa_o=kappa_o, eta_m=1.0, eta_o=1.0)
                s_cc = response.transfer_from_rates(op, "microwave", "microwave", 0.0)
                eta = float(response.eta_spectrum_from_rates(op, 0.0))
                assert abs(abs(s_cc) ** 2 + sign * eta - 1.0) < 1e-10


def test_criterion_09_pair_rate_self_consistency():
    with criterion(9, "pair-rate integral == closed form to 0.5% (C < 0.01); Lorentzian identity to 0.1%; 190 Hz not reproduced"):
        # paper-like operating point, C ~ 5e-4 < 0.01
        target_eta0 = 7.9e-5
        eta_ext = 0.35 * 0.11
        ratio = target_eta0 / eta_ext
        c = ratio / 4.0
        for _ in range(40):
            c = ratio * (1.0 - c) ** 2 / 4.0
        op = make_rates_op(Configuration.STOKES, cooperativity=c,
                           kappa_m=TWO_PI * 10e6, kappa_o=TWO_PI * 300e6)
        rate = quantumstats.pair_rate_from_rates(op)
        assert rate.numeric == pytest.approx(rate.closed_form, rel=5e-3)

        # two-Lorentzian integral identity via the same trapezoid machinery
        a, b = TWO_PI * 150e6, TWO_PI * 5e6
        grid = np.arange(-50 * a, 50 * a, b / 16.0)
        integrand = (a ** 2 / (grid ** 2 + a ** 2)) * (b ** 2 / (grid ** 2 + b ** 2))
        analytic = math.pi * a * b / (a + b)
        assert float(np.trapezoid(integrand, grid)) == pytest.approx(analytic, rel=1e-3)

        # documented discrepancy: both unit conventions reported, neither 190 Hz
        print(
            f"\n  pair rate from quoted inputs: {rate.closed_form:.0f}/s (angular), "
            f"{rate.alternate_convention:.0f}/s (ordinary); literature quotes 190 Hz"
        )
        assert rate.closed_form == pytest.approx(7.55e3, rel=0.02)
        assert rate.alternate_convention == pytest.approx(1.20e3, rel=0.02)
        assert abs(rate.closed_form - 190.0) / 190.0 > 5.0
        assert abs(rate.alternate_convention - 190.0) / 190.0 > 5.0
        assert "discrepancy" in rate.note


def _three_sigma_fraction(errors, sigmas):
    errors = np.asarray(errors)
    sigmas = np.asarray(sigmas)
    return float(np.mean(np.abs(errors) <= 3.0 * sigmas + 1e-300))


def test_criterion_10_fit_round_trips():
    """100 seeded trials per fitter at 2% noise: ground truth within the
    reported 3 sigma for >= 95% of trials and parameters (the exact
    all-trials reading would fail by Gaussian statistics alone); doublet
    additionally recovers 1% per parameter at 1% noise."""
    from test_calibrate import DOUBLET_TRUTH, SWEEP_BIAS, SWEEP_SLOPE, synth_doublet_sweep

    with criterion(10, "fit round-trips: 3-sigma coverage over 100 x 2%-noise trials; doublet 1% at 1% noise", 120.0):
        n_trials = 100

        # doublet (bias-sweep fit; a single spectrum leaves the bare-ring
        # decomposition degenerate -- see decisions ledger)
        keys = ("kappa_l", "kappa_r", "kappa_ex", "J", "delta")
        hits = {k: [] for k in keys}
        for trial in range(n_trials):
            rng = np.random.default_rng(3000 + trial)
            omega, stack = synth_doublet_sweep(noise=0.02, rng=rng, n=300)
            report = calibrate.fit_doublet(omega, stack, bias_axis=SWEEP_BIAS)
            for k in keys:
                err = report.parameters[k] - DOUBLET_TRUTH[k]
                sigma = math.sqrt(max(report.covariance_diag[k], 0.0))
                hits[k].append(abs(err) <= 3.0 * sigma)
        for k in keys:
            assert np.mean(hits[k]) >= 0.95, (k, np.mean(hits[k]))

        rng = np.random.default_rng(77)
        omega, stack = synth_doublet_sweep(noise=0.01, rng=rng)
        report = calibrate.fit_doublet(omega, stack, bias_axis=SWEEP_BIAS)
        for k in keys:
            assert report.parameters[k] == pytest.approx(
                DOUBLET_TRUTH[k], rel=0.01, abs=TWO_PI * 1e6
            ), k

        # one-port reflection
        om, km, eta_m = TWO_PI * 3.48e9, TWO_PI * 3.48e9 / 284, 0.11
        grid = om + np.linspace(-8 * km, 8 * km, 400)
        clean = calibrate.s11_model(grid, om, km, eta_m * km)
        keys = ("omega_m", "kappa_m", "kappa_ex_m")
        truth = {"omega_m": om, "kappa_m": km, "kappa_ex_m": eta_m * km}
        hits = {k: [] for k in keys}
        for trial in range(n_trials):
            rng = np.random.default_rng(4000 + trial)
            noisy = clean + 0.02 * (rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
            report = calibrate.fit_s11(grid, noisy)
            for k in keys:
                err = report.parameters[k] - truth[k]
                sigma = math.sqrt(max(report.covariance_diag[k], 0.0))
                hits[k].append(abs(err) <= 3.0 * sigma)
        for k in keys:
            assert np.mean(hits[k]) >= 0.95, (k, np.mean(hits[k]))

        # efficiency vs power
        c0_truth = 8e-13
        conversion = (
            PAPER_FIXED["kappa_o"] * PAPER_FIXED["omega_l"] * 1.054571817e-34
            / (16 * PAPER_FIXED["eta_probes"] * PAPER_FIXED["eta_fiber_fiber"]
               * PAPER_FIXED["eta_m"] * PAPER_FIXED["eta_o"] ** 2)
        )
        slope = c0_truth / conversion
        power = 1e-3 * 10 ** np.linspace(1.0, 2.1, 12)
        hits_c0 = []
        for trial in range(n_trials):
            rng = np.random.default_rng(5000 + trial)
            eta = slope * power * (1.0 + 0.02 * rng.normal(size=power.size))
            report = calibrate.fit_efficiency_power(power, eta, PAPER_FIXED)
            err = report.parameters["C0"] - c0_truth
            sigma = math.sqrt(max(report.covariance_diag["C0"], 0.0))
            hits_c0.append(abs(err) <= 3.0 * sigma)
        assert np.mean(hits_c0) >= 0.95

        # RC step
        t = np.linspace(0.0, 0.5e-6, 900)
        clean_env = calibrate.rc_step_model(t, 1.0, 30e-9, 0.1e-6)
        keys = ("amplitude", "tau_rc", "t0")
        truth = {"amplitude": 1.0, "tau_rc": 30e-9, "t0": 0.1e-6}
        hits = {k: [] for k in keys}
        for trial in range(n_trials):
            rng = np.random.default_rng(6000 + trial)
            noisy = clean_env + 0.02 * rng.normal(size=t.size)
            report = calibrate.fit_rc_step(t, noisy)
            for k in keys:
                err = report.parameters[k] - truth[k]
                sigma = math.sqrt(max(report.covariance_diag[k], 0.0))
                hits[k].append(abs(err) <= 3.0 * sigma)
        for k in keys:
            assert np.mean(hits[k]) >= 0.95, (k, np.mean(hits[k]))


def test_criterion_11_pulsed_rise_time():
    with criterion(11, "end-to-end pulsed pipeline: fitted rise constant 30 ns +-5% (bracketed by 35+-4 / 27+-3 ns)"):
        device = make_paper_device()
        fast_mode = AcousticMode(TWO_PI * 3.48e9, TWO_PI * 300e6, TWO_PI * 33e6)
        wide = OpticalModeBare(device.left.omega, TWO_PI * 740e6, TWO_PI * 60e6)
        fast_device = DeviceParams(wide, wide, device.coupling_j, (fast_mode,),
                                   device.g0, device.losses)
        pulse = timedomain.PulseSequence(1e-6, 100e3)
        lockin = timedomain.LockInConfig(TWO_PI * 3.48e9, 30e-9)
        t, amp, _ = timedomain.pulsed_downconversion(
            fast_device, pulse, optical_input_flux=1e12, lockin=lockin,
            pump=PumpConfig(Configuration.STOKES, 0.05), duration=0.6e-6,
        )
        report = calibrate.fit_rc_step(t, amp)
        tau = report.parameters["tau_rc"]
        assert tau == pytest.approx(30e-9, rel=0.05)
        assert 27e-9 - 3e-9 <= tau <= 35e-9 + 4e-9


def test_criterion_12_optimal_coupling():
    with criterion(12, "critical coupling: argmax R = 1 to 1e-6 vs numeric search; peak F/16 exact"):
        from scipy.optimize import minimize_scalar

        for f in (0.3, 16.0, 275.0):
            result = response.optimal_coupling(f)
            assert result.r_opt == 1.0
            assert result.eta_peak == f / 16.0
            numeric = minimize_scalar(
                lambda r: -f * r ** 2 / (1.0 + r) ** 4,
                bounds=(0.01, 100.0), method="bounded",
                options={"xatol": 1e-10},
            )
            assert abs(numeric.x - result.r_opt) < 1e-6
            assert -numeric.fun == pytest.approx(result.eta_peak, rel=1e-9)


def test_criterion_13_fwhm_substituted_property():
    """The measured 25 MHz FWHM is not reproducible at desk scale (the
    Lorentzian-product model with the fitted linewidths gives ~13 MHz and
    the discrepancy is unresolved in the source); the substituted property
    checks fwhm() against the analytic quartic root to 1%."""
    with criterion(13, "fwhm() on the two-Lorentzian model == analytic quartic root to 1% (25 MHz figure documented as out of reach)"):
        k1, k2 = TWO_PI * 13e6, TWO_PI * 170e6
        a, b = k2 / 2.0, k1 / 2.0
        grid = np.linspace(-6 * k1, 6 * k1, 4001)
        values = (a ** 2 / (grid ** 2 + a ** 2)) * (b ** 2 / (grid ** 2 + b ** 2))
        width = response.fwhm(response.Spectrum(grid, values, ("eta",)))
        u = 0.5 * (-(a ** 2 + b ** 2) + math.sqrt((a ** 2 + b ** 2) ** 2 + 4 * a ** 2 * b ** 2))
        analytic = 2.0 * math.sqrt(u)
        assert width == pytest.approx(analytic, rel=0.01)
        print(f"\n  model FWHM {width / TWO_PI / 1e6:.2f} MHz vs measured 25 MHz (documented discrepancy)")
