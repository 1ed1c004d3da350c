import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

from moptrans import hybridize
from moptrans.hybridize import (
    band_integral,
    eigen_oracle,
    linear_model,
    operating_point,
    supermodes,
)
from moptrans.model import (
    TWO_PI,
    Configuration,
    DeviceParams,
    OpticalModeBare,
    PumpConfig,
    dbm_to_watts,
    photon_flux,
)

from conftest import OMEGA_1550, intracavity_photons, make_paper_device, make_rates_op
from test_response import detuned_ops

W0 = OMEGA_1550


def mode(omega=W0, kappa=TWO_PI * 170e6, kappa_ex=TWO_PI * 60e6):
    return OpticalModeBare(omega, kappa - kappa_ex, kappa_ex)


def random_pair(rng):
    """Parameter draw spanning weak and strong coupling."""
    kappa_l = TWO_PI * 10.0 ** rng.uniform(6.5, 9.0)
    kappa_r = TWO_PI * 10.0 ** rng.uniform(6.5, 9.0)
    delta = rng.uniform(-1.0, 1.0) * 5.0 * max(kappa_l, kappa_r)
    j = 10.0 ** rng.uniform(-1.5, 1.5) * max(kappa_l, kappa_r)
    left = OpticalModeBare(W0 + 0.5 * delta, 0.6 * kappa_l, 0.4 * kappa_l)
    right = OpticalModeBare(W0 - 0.5 * delta, 0.6 * kappa_r, 0.4 * kappa_r)
    return left, right, j


class TestSupermodes:
    def test_symmetric_limit(self):
        # delta = 0, mu = 0: omega_pm = mean -+ J, kappa unchanged,
        # a_- = (a_l + a_r)/sqrt(2), a_+ = (a_l - a_r)/sqrt(2); also for a J
        # whose square underflows (1e-270 Hz used to divide by a zero norm)
        for j in (TWO_PI * 1.74e9, TWO_PI * 1e-160, TWO_PI * 1e-270):
            sm = supermodes(mode(), mode(), j)
            assert sm.omega_minus == pytest.approx(W0 - j, rel=1e-12)
            assert sm.omega_plus == pytest.approx(W0 + j, rel=1e-12)
            assert sm.delta_omega == pytest.approx(2.0 * j, rel=1e-12)
            assert sm.kappa_minus == pytest.approx(TWO_PI * 170e6, rel=1e-12)
            assert sm.kappa_plus == pytest.approx(TWO_PI * 170e6, rel=1e-12)
            inv = 1.0 / math.sqrt(2.0)
            assert sm.alpha_minus == pytest.approx(inv, abs=1e-12)
            assert sm.beta_minus == pytest.approx(inv, abs=1e-12)
            assert sm.alpha_plus == pytest.approx(inv, abs=1e-12)
            assert sm.beta_plus == pytest.approx(-inv, abs=1e-12)

    def test_uncoupled_rings_recovered(self):
        left = mode(W0 + TWO_PI * 500e6, TWO_PI * 190e6)
        right = mode(W0 - TWO_PI * 500e6, TWO_PI * 154e6)
        sm = supermodes(left, right, 0.0)
        delta = left.omega - right.omega
        mu = left.kappa - right.kappa
        assert sm.delta_omega == pytest.approx(abs(delta), rel=1e-12)
        assert abs(sm.delta_kappa) == pytest.approx(abs(mu), rel=1e-12)
        # bare modes recovered: upper supermode is the higher-frequency ring
        assert sm.omega_plus == pytest.approx(left.omega, rel=1e-15)
        assert sm.kappa_plus == pytest.approx(left.kappa, rel=1e-12)
        assert abs(sm.alpha_plus) == pytest.approx(1.0, abs=1e-12)
        assert abs(sm.beta_minus) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_identity(self):
        left = mode()
        sm = supermodes(left, left, 0.0)
        assert sm.alpha_minus == 1.0 + 0.0j
        assert sm.beta_minus == 0.0j
        assert sm.omega_minus == left.omega
        assert sm.kappa_ex_minus == left.kappa_ex

    def test_normalization_over_draws(self, rng):
        for _ in range(2000):
            left, right, j = random_pair(rng)
            sm = supermodes(left, right, j)
            for a, b in ((sm.alpha_minus, sm.beta_minus), (sm.alpha_plus, sm.beta_plus)):
                assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) < 1e-12

    def test_eigen_oracle_closed_form(self, rng):
        """Closed-form eigenvalues against direct 2x2 eigendecomposition,
        1e-10 relative, 1e4 draws spanning weak and strong coupling.

        The comparison runs in the frame of the mean ring frequency, with
        the closed-form offsets rebuilt from the exactly stored splitting
        fields (absolute rad/s optical frequencies quantize at ~0.25 rad/s
        in float64, which would otherwise dominate the comparison)."""
        for _ in range(10000):
            left, right, j = random_pair(rng)
            sm = supermodes(left, right, j)
            ref = 0.5 * (left.omega + right.omega)
            lam_minus, lam_plus = eigen_oracle(left, right, j, omega_ref=ref)
            mean_off = 0.5 * (left.omega - ref) + 0.5 * (right.omega - ref)
            cf_minus = 1j * (mean_off - 0.5 * sm.delta_omega) + 0.5 * sm.kappa_minus
            cf_plus = 1j * (mean_off + 0.5 * sm.delta_omega) + 0.5 * sm.kappa_plus
            scale = max(abs(lam_minus), abs(lam_plus))
            assert abs(cf_minus - lam_minus) / scale < 1e-10
            assert abs(cf_plus - lam_plus) / scale < 1e-10

    def test_eigen_oracle_swap_symmetric(self, rng):
        left, right, j = random_pair(rng)
        a = eigen_oracle(left, right, j, omega_ref=W0)
        b = eigen_oracle(right, left, j, omega_ref=W0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_eigen_oracle_decoupled(self):
        left = mode(W0 + TWO_PI * 1e9, TWO_PI * 190e6)
        right = mode(W0 - TWO_PI * 1e9, TWO_PI * 154e6)
        lam_minus, lam_plus = eigen_oracle(left, right, 0.0, omega_ref=W0)
        diag = sorted(
            [1j * (left.omega - W0) + 0.5 * left.kappa, 1j * (right.omega - W0) + 0.5 * right.kappa],
            key=lambda z: (z.imag, z.real),
        )
        assert lam_minus == pytest.approx(diag[0], rel=1e-12)
        assert lam_plus == pytest.approx(diag[1], rel=1e-12)

    def test_avoided_crossing_fit_parameters(self):
        # fitted linewidths, delta at the crossing center: eigenvalues match
        # the oracle to 1e-10
        left = mode(W0, TWO_PI * 190e6)
        right = mode(W0, TWO_PI * 154e6)
        j = TWO_PI * 1.74e9
        sm = supermodes(left, right, j)
        lam_minus, lam_plus = eigen_oracle(left, right, j, omega_ref=W0)
        assert -0.5j * sm.delta_omega + 0.5 * sm.kappa_minus == pytest.approx(
            lam_minus, rel=1e-10
        )
        assert 0.5j * sm.delta_omega + 0.5 * sm.kappa_plus == pytest.approx(
            lam_plus, rel=1e-10
        )

    def test_strong_coupling_limits(self):
        """For 2J > 50 |mu|: splitting ~ sqrt(delta^2 + 4 J^2) (1e-3), and
        the linewidth half-difference reaches |mu|/sqrt(8) at delta = 2J
        (2e-2).  At delta = 0 the exact linewidth difference vanishes."""
        kappa_l, kappa_r = TWO_PI * 190e6, TWO_PI * 154e6
        mu = kappa_l - kappa_r
        j = 60.0 * abs(mu)  # 2J = 120 |mu| > 50 |mu|
        for delta in (0.0, 0.5 * j, 2.0 * j):
            left = OpticalModeBare(W0 + 0.5 * delta, kappa_l, 0.0)
            right = OpticalModeBare(W0 - 0.5 * delta, kappa_r, 0.0)
            sm = supermodes(left, right, j)
            assert sm.delta_omega == pytest.approx(
                math.sqrt(delta ** 2 + 4 * j ** 2), rel=1e-3
            )
        left = OpticalModeBare(W0 + j, kappa_l, 0.0)
        right = OpticalModeBare(W0 - j, kappa_r, 0.0)
        sm = supermodes(left, right, j)
        assert abs(sm.delta_kappa) / 2.0 == pytest.approx(abs(mu) / math.sqrt(8.0), rel=2e-2)
        sm0 = supermodes(OpticalModeBare(W0, kappa_l, 0.0), OpticalModeBare(W0, kappa_r, 0.0), j)
        assert abs(sm0.delta_kappa) < 1e-6 * abs(mu)

    def test_exchange_symmetry(self, rng):
        for _ in range(200):
            left, right, j = random_pair(rng)
            sm = supermodes(left, right, j)
            sw = supermodes(right, left, j)
            # observables invariant, participations exchanged up to gauge
            assert sw.omega_minus == pytest.approx(sm.omega_minus, rel=1e-12)
            assert sw.kappa_plus == pytest.approx(sm.kappa_plus, rel=1e-9)
            assert abs(sw.alpha_minus) == pytest.approx(abs(sm.beta_minus), abs=1e-9)
            assert abs(sw.beta_minus) == pytest.approx(abs(sm.alpha_minus), abs=1e-9)
            assert abs(sw.alpha_plus) == pytest.approx(abs(sm.beta_plus), abs=1e-9)


@st.composite
def ring_pairs(draw):
    """(left, right, J) spanning weak and strong coupling, half of them
    within 1e-3 of the exceptional point D^2 = 4 J^2 (delta ~ 0, J ~
    |mu|/4), some exactly on it."""
    kappa_l, kappa_r = (TWO_PI * 10.0 ** draw(st.floats(6.5, 9.0)) for _ in range(2))
    mu, widest = kappa_l - kappa_r, max(kappa_l, kappa_r)
    if draw(st.booleans()):
        j = 0.25 * abs(mu) * (1.0 + draw(st.just(0.0) | st.floats(-1e-3, 1e-3)))
        delta = draw(st.just(0.0) | st.floats(-1e-6, 1e-6)) * abs(mu)
    else:
        j = 10.0 ** draw(st.floats(-1.5, 1.5)) * widest
        delta = draw(st.floats(-5.0, 5.0)) * widest
    left = OpticalModeBare(W0 + 0.5 * delta, 0.6 * kappa_l, 0.4 * kappa_l)
    right = OpticalModeBare(W0 - 0.5 * delta, 0.6 * kappa_r, 0.4 * kappa_r)
    return left, right, j


class TestSteadyState:
    """The pump amplitudes that `operating_point` builds."""

    @pytest.mark.parametrize("configuration", list(Configuration))
    def test_zero_power(self, paper_device, configuration):
        op = operating_point(paper_device, PumpConfig(configuration, 0.0))
        assert op.n_pump == 0.0 and op.g_minus == 0.0 and op.g_plus == 0.0

    def test_resonant_amplitude_matches_photon_number(self, paper_device, pump_21dbm):
        n = operating_point(paper_device, pump_21dbm).n_pump
        assert n == pytest.approx(intracavity_photons(paper_device, pump_21dbm), rel=1e-9)
        assert n == pytest.approx(5.1e8, rel=0.02)

    def test_stokes_mirror_symmetry(self, paper_device):
        # rings at one frequency: the supermodes share kappa and kappa_ex, so
        # the Stokes pump fills a_+ as the anti-Stokes pump fills a_-
        n_as = operating_point(paper_device, PumpConfig(Configuration.ANTI_STOKES, 0.05)).n_pump
        n_s = operating_point(paper_device, PumpConfig(Configuration.STOKES, 0.05)).n_pump
        assert n_s == pytest.approx(n_as, rel=1e-12)


class TestEffectiveCouplings:
    """g_- = g0 (|x|^2 A_- + x* y A_+) and g_+ = g0 (|y|^2 A_+ + x y* A_-),
    (x, y) = (alpha_-*, alpha_+*), as `operating_point` builds them."""

    @given(pair=ring_pairs())
    def test_left_ring_exactly_normalized(self, pair):
        """|alpha_-|^2 + |alpha_+|^2 = 1: the eigenvectors of a
        complex-symmetric 2x2 are transpose-orthogonal."""
        sm = supermodes(*pair)
        assert abs(sm.alpha_minus) ** 2 + abs(sm.alpha_plus) ** 2 == pytest.approx(1.0, rel=0.0, abs=1e-12)

    def test_symmetric_doublet(self):
        """Identical rings: x = y = 1/sqrt(2), so g_- = g_+ = g0 (A_- + A_+)
        / 2, with the resonant A_- = sqrt(n_pump) and the spectator A_+ =
        A_- kappa / (kappa + 2 i s) one splitting s = 2J away."""
        dev = make_paper_device()
        ring = mode()
        dev = DeviceParams(ring, ring, dev.coupling_j, dev.acoustic_modes, dev.g0, dev.losses)
        op = operating_point(dev, PumpConfig(Configuration.ANTI_STOKES, dbm_to_watts(21.0)))
        a_minus = math.sqrt(op.n_pump)
        a_plus = a_minus * ring.kappa / (ring.kappa + 2j * op.splitting)
        assert op.g_plus == pytest.approx(0.5 * dev.g0 * (a_minus + a_plus), rel=1e-12)
        assert op.g_minus == pytest.approx(op.g_plus, rel=1e-12)

    @given(pair=ring_pairs(), configuration=st.sampled_from(list(Configuration)),
           dbm=st.floats(-30.0, 25.0), detuning_hz=st.floats(-5e9, 5e9))
    def test_couplings_share_the_left_ring_amplitude(self, pair, configuration, dbm, detuning_hz):
        """g_- / x* = g_+ / y* = g0 (x A_- + y A_+), the pump amplitude of
        the left ring; so g_- alpha_+ = g_+ alpha_-, to rounding in
        g0 (|A_-| + |A_+|) <= 2 g0 s_in (kappa_-^-1/2 + kappa_+^-1/2)."""
        base = make_paper_device()
        dev = DeviceParams(*pair, base.acoustic_modes, base.g0, base.losses)
        pump = PumpConfig(configuration, dbm_to_watts(dbm))
        op = operating_point(dev, pump, pump_detuning=TWO_PI * detuning_hz)
        sm = supermodes(*pair)
        s_in = math.sqrt(photon_flux(dev.losses.eta_fiber_chip * pump.power_in, pump.omega_l_effective))
        scale = 2.0 * dev.g0 * s_in * (sm.kappa_minus ** -0.5 + sm.kappa_plus ** -0.5)
        assert abs(op.g_minus * sm.alpha_plus - op.g_plus * sm.alpha_minus) <= 1e-12 * scale


class TestOperatingPoint:
    def test_paper_chain(self, paper_device, pump_21dbm):
        """|g_+| ~ (g0/2) sqrt(n), C ~ 4e-4, eta_int within a factor 1.3 of
        the quoted 2e-3."""
        op = operating_point(paper_device, pump_21dbm)
        assert abs(op.g_plus) == pytest.approx(TWO_PI * 4.7e5, rel=0.02)
        assert op.cooperativity == pytest.approx(4e-4, rel=0.05)
        eta_int = 4.0 * op.cooperativity / (1.0 + op.cooperativity) ** 2
        assert 2e-3 / 1.3 < eta_int < 2e-3 * 1.3

    def test_active_mode_selection(self, paper_device):
        op_as = operating_point(paper_device, PumpConfig(Configuration.ANTI_STOKES, 0.01))
        op_s = operating_point(paper_device, PumpConfig(Configuration.STOKES, 0.01))
        assert op_as.g_active == op_as.g_plus
        assert op_s.g_active == op_s.g_minus
        assert op_as.kappa_ex_active == op_as.kappa_ex_plus
        assert op_s.kappa_ex_active == op_s.kappa_ex_minus

    def test_sideband_resolution_flag(self, paper_device, pump_21dbm):
        op = operating_point(paper_device, pump_21dbm)
        assert op.sideband_resolution == pytest.approx(172e6 / 3.48e9, rel=1e-6)

    @given(n_modes=st.sampled_from([1, 2]), configuration=st.sampled_from(list(Configuration)),
           dbm=st.floats(-10.0, 21.0), detuning_hz=st.floats(-20e6, 20e6), which=st.integers(0, 1))
    def test_memo_equals_fresh_build(self, n_modes, configuration, dbm, detuning_hz, which):
        """The memoized point is the one a fresh, uncached build gives, and
        the same object on a second call."""
        dev = make_paper_device(n_modes)
        pump = PumpConfig(configuration, dbm_to_watts(dbm))
        mode = dev.acoustic_modes[min(which, n_modes - 1)]
        op = operating_point(dev, pump, mode, TWO_PI * detuning_hz)
        hybridize._supermodes.cache_clear()
        fresh = hybridize._operating_point.__wrapped__(dev, pump, mode, TWO_PI * detuning_hz)
        assert op == fresh
        assert operating_point(dev, pump, mode, TWO_PI * detuning_hz) is op
        if mode is dev.transduction_mode and detuning_hz == 0.0:
            assert operating_point(dev, pump) is op


@st.composite
def phased_ops(draw):
    """A detuned supermode-level operating point of either configuration,
    its couplings turned by one random phase."""
    op = draw(detuned_ops(draw(st.sampled_from(list(Configuration)))))
    turn = cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return dataclasses.replace(op, g_minus=op.g_minus * turn, g_plus=op.g_plus * turn)


class TestLinearModel:
    @given(op=phased_ops())
    def test_realizability(self, op):
        """A sigma + sigma A^dag + B sigma_u B^dag = 0 (James, Nurdin &
        Petersen, IEEE TAC 53, 1787 (2008)) but for the bus cross-damping
        that the model leaves out: sqrt(kex_- kex_+) at (a_-, a_+) and
        (a_+, a_-)."""
        m = linear_model(op)
        a, b = np.array(m.a), np.array(m.b)
        sigma, sigma_u = np.diag(m.sigma), np.diag(m.sigma_u)
        residual = a @ sigma + sigma @ a.conj().T + b @ sigma_u @ b.conj().T
        bus = np.zeros((3, 3))
        i, j = m.modes.index("a_minus"), m.modes.index("a_plus")
        bus[i, j] = bus[j, i] = math.sqrt(op.kappa_ex_minus * op.kappa_ex_plus)
        scale = max(op.kappa_minus, op.kappa_plus, op.kappa_m)
        assert np.max(np.abs(residual - bus)) <= 1e-12 * scale

    @pytest.mark.parametrize("configuration, modes, inputs, sigma_u", [
        (Configuration.ANTI_STOKES, ("a_minus", "a_plus", "b"),
         ("a_in", "c_in", "a_minus_loss_in", "a_plus_loss_in", "b_loss_in"), (1, 1, 1, 1, 1)),
        (Configuration.STOKES, ("a_plus", "a_minus", "b_dag"),
         ("a_in", "c_in_dag", "a_plus_loss_in", "a_minus_loss_in", "b_loss_in_dag"), (1, -1, 1, 1, -1)),
    ])
    def test_names_and_detuning(self, configuration, modes, inputs, sigma_u):
        """Spectator, active and acoustic modes in that order; d on the
        active diagonal, d +- s on the spectator's."""
        op = dataclasses.replace(make_rates_op(configuration), sideband_detuning=TWO_PI * 7e6)
        m = linear_model(op)
        assert m.modes == modes and m.inputs == inputs
        assert m.outputs == tuple(n.replace("_in", "_out") for n in inputs)
        assert m.sigma_u == sigma_u
        s = op.splitting if configuration is Configuration.ANTI_STOKES else -op.splitting
        a = np.array(m.a)
        assert a[0, 0].imag == op.sideband_detuning + s
        assert a[1, 1].imag == op.sideband_detuning
        assert a[2, 2].imag == 0.0
        assert not np.any(a[0, 1:]) and not np.any(a[1:, 0])
        np.testing.assert_array_equal(np.array(m.c), -np.array(m.d) @ np.array(m.b).T)


def residue(op):
    """The d = 0 band integral of |S_ac|^2 by residues: pi K / ((a + b) c),
    with K = kex_o kex_m |g|^2 and c = a b +- |g|^2."""
    a, b = 0.5 * op.kappa_active, 0.5 * op.kappa_m
    g2 = abs(op.g_active) ** 2
    c = a * b + g2 if op.configuration is Configuration.ANTI_STOKES else a * b - g2
    return math.pi * op.kappa_ex_active * op.kappa_ex_m * g2 / ((a + b) * c)


def signal_integral(op):
    """band_integral from the microwave input (c_in, or c_in_dag under
    Stokes pumping) to a_out."""
    m = linear_model(op)
    return band_integral(m, m.inputs[1], "a_out")


class TestBandIntegral:
    """Integrals over all omega of |S_oi|^2 from the model's Gramian."""

    @given(op=detuned_ops(Configuration.STOKES), c=st.one_of(st.just(0.0), st.floats(1e-12, 0.999)),
           configuration=st.sampled_from(list(Configuration)))
    def test_equals_residue_at_zero_detuning(self, op, c, configuration):
        """At d = 0 the Gramian gives the residue, for C = 0 or at least
        1e-12 (near C = 1e-308 its cross terms are subnormal and lose
        digits); the rates are drawn as in `detuned_ops`."""
        op = make_rates_op(configuration, cooperativity=c, kappa_m=op.kappa_m, kappa_o=op.kappa_active,
                           eta_m=op.kappa_ex_m / op.kappa_m, eta_o=op.kappa_ex_active / op.kappa_active)
        assert signal_integral(op) == pytest.approx(residue(op), rel=1e-12, abs=0.0)

    @given(op=detuned_ops(Configuration.STOKES))
    def test_matches_quadrature(self, op):
        """Adaptive quadrature of the closed form over omega = s tan(theta),
        split at the two normal modes (the eigenvalues lambda of A, at
        omega = i lambda), agrees at detuned Stokes points."""
        assume(op.cooperativity == 0.0 or op.cooperativity >= 1e-12)  # see the residue test
        a, b, d = 0.5 * op.kappa_active, 0.5 * op.kappa_m, op.sideband_detuning
        g2, k = abs(op.g_active) ** 2, op.kappa_ex_active * op.kappa_ex_m * abs(op.g_active) ** 2
        lam = np.linalg.eigvals(np.array(linear_model(op).a)[1:, 1:])
        s = float(max(-lam.real))

        def integrand(theta):
            w = s * math.tan(theta)
            return k / abs((a - 1j * (w + d)) * (b - 1j * w) - g2) ** 2 * s / math.cos(theta) ** 2

        poles = sorted(math.atan(float((1j * x).real) / s) for x in lam)
        total, _ = quad(integrand, -0.5 * math.pi, 0.5 * math.pi, points=poles,
                        epsabs=0.0, epsrel=1e-10, limit=500)
        assert signal_integral(op) == pytest.approx(total, rel=1e-6, abs=0.0)

    @given(c=st.floats(0.99, 0.9999))
    def test_scales_as_inverse_threshold_margin(self, c):
        """Near the Stokes threshold the line narrows to kappa (1 - C) and
        the integral grows as C / (1 - C)."""
        near, far = (signal_integral(make_rates_op(Configuration.STOKES, cooperativity=x)) for x in (c, 0.5))
        assert near * (1.0 - c) / c == pytest.approx(far, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("configuration", list(Configuration))
    def test_direct_term_refused(self, configuration):
        """A port pair with D_oi != 0 passes a constant through: its
        integral is infinite."""
        m = linear_model(make_rates_op(configuration))
        for port in ("a", "b_loss"):
            inp = next(name for name in m.inputs if name.startswith(port + "_in"))
            out = m.outputs[m.inputs.index(inp)]
            with pytest.raises(ValueError, match="band integral is infinite"):
                band_integral(m, inp, out)
