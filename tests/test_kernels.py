"""Memory kernels: time/frequency forms, susceptibility, thermal spectrum,
and the closed-form momentum correlation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, special

from vibrolang import DomainError, KernelParams, RegimeError, ThermalState
from vibrolang.kernels import (
    effective_params,
    gamma_freq,
    momentum_correlation,
    momentum_correlation_numeric,
    relaxation_params,
    susceptibility,
    thermal_spectrum,
)

from oracles import gamma_time, kernel_fourier_numeric

KP = KernelParams(gamma_m=0.05, omega_max=7.0, nu=1.0)


def _quad_momentum_correlation(s, kp, thermal, tol):
    """<P(t) P(t - s)> by two adaptive quadratures (real and imaginary part)
    of e^{-i omega s} |chi|^2 S_th / 2pi over the band, split at 0 and +-nu'.
    Fails unless each reaches its error target."""
    wm = kp.omega_max
    nu_p, _ = effective_params(kp)

    def part(fn):
        val, err = integrate.quad(
            lambda w: fn(np.abs(susceptibility(w, kp)) ** 2
                         * thermal_spectrum(w, kp, thermal)
                         * np.exp(-1j * w * s)),
            -wm, wm, points=[-nu_p, 0.0, nu_p], limit=400,
            epsabs=tol, epsrel=tol)
        assert err <= 100 * tol * max(1.0, abs(val)), err
        return val

    return (part(np.real) + 1j * part(np.imag)) / (2.0 * np.pi)


class TestTimeKernel:
    def test_causality(self):
        t = np.linspace(-5.0, -1e-12, 50)
        assert np.all(gamma_time(t, KP) == 0.0)
        assert np.all(gamma_time(t, KP, d=2) == 0.0)

    def test_initial_value(self):
        np.testing.assert_allclose(
            gamma_time(0.0, KP), KP.gamma_m * KP.omega_max / 2.0, rtol=1e-12
        )

    def test_bessel_form(self):
        t = np.linspace(0.01, 30.0, 300)
        expect = KP.gamma_m * special.j1(KP.omega_max * t) / t
        np.testing.assert_allclose(gamma_time(t, KP), expect, rtol=1e-12)

    def test_series_continuity_at_small_argument(self):
        # series branch must join the Bessel branch smoothly
        x_switch = 1e-3 / KP.omega_max
        lo = gamma_time(x_switch * (1 - 1e-9), KP)
        hi = gamma_time(x_switch * (1 + 1e-9), KP)
        np.testing.assert_allclose(lo, hi, rtol=1e-10)

    def test_collective_initial_value_vanishes(self):
        # J_{2d}(x)/x -> 0 as x -> 0 for d >= 1
        assert gamma_time(0.0, KP, d=2) == 0.0

    def test_parseval_band_integral(self):
        # (1/pi) int_band Re Gamma(w) dw = Gamma(0+)
        val, _ = integrate.quad(
            lambda w: gamma_freq(w, KP).real, -KP.omega_max, KP.omega_max
        )
        np.testing.assert_allclose(
            val / np.pi, gamma_time(0.0, KP), rtol=1e-9
        )


class TestFrequencyKernel:
    def test_in_band_closed_form(self):
        w = np.linspace(-6.9, 6.9, 201)
        g = gamma_freq(w, KP)
        expect = KP.gamma_m * (
            np.sqrt(KP.omega_max**2 - w**2) + 1j * w
        ) / KP.omega_max
        np.testing.assert_allclose(g, expect, rtol=1e-12)

    def test_out_of_band_is_reactive(self):
        w = np.array([7.5, 10.0, -8.0])
        g = gamma_freq(w, KP)
        assert np.all(g.real == 0.0)

    def test_fourier_oracle_single(self):
        w = np.linspace(-6.4, 6.4, 9)
        num = kernel_fourier_numeric(w, KP)
        ana = gamma_freq(w, KP)
        assert np.max(np.abs(num - ana)) / KP.gamma_m < 1e-3

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_fourier_oracle_collective(self, d):
        w = np.linspace(-0.9 * KP.omega_max, 0.9 * KP.omega_max, 7)
        num = kernel_fourier_numeric(w, KP, d=d, t_max=3000.0 / KP.omega_max)
        ana = gamma_freq(w, KP, d)
        assert np.max(np.abs(num - ana)) / KP.gamma_m < 1e-3

    def test_collective_unit_modulus_in_band(self):
        w = np.linspace(-6.99, 6.99, 101)
        g = gamma_freq(w, KP, d=6)
        np.testing.assert_allclose(np.abs(g), KP.gamma_m, rtol=1e-10)

    def test_collective_phase_form(self):
        # Gamma_d(w) = Gamma_m exp(i 2d asin(w/w_max))
        w = np.linspace(-6.0, 6.0, 41)
        for d in (2, 4):
            g = gamma_freq(w, KP, d)
            expect = KP.gamma_m * np.exp(1j * 2 * d * np.arcsin(w / KP.omega_max))
            np.testing.assert_allclose(g, expect, rtol=1e-10)

    @pytest.mark.parametrize("d", [1, 3])
    def test_fourier_oracle_collective_out_of_band(self, d):
        w = np.array([-9.0, -7.5, 7.5, 8.0, 9.0])
        num = kernel_fourier_numeric(w, KP, d=d, t_max=3000.0 / KP.omega_max)
        ana = gamma_freq(w, KP, d)
        assert np.max(np.abs(num - ana)) / KP.gamma_m < 1e-3

    @pytest.mark.parametrize("d", [-1, 1.5])
    def test_separation_domain(self, d):
        with pytest.raises(DomainError):
            gamma_time(1.0, KP, d)
        with pytest.raises(DomainError):
            gamma_freq(1.0, KP, d)


class TestSusceptibilityAndSpectrum:
    def test_static_susceptibility_vanishes(self):
        assert susceptibility(0.0, KP) == 0.0

    def test_lorentzian_limit_near_resonance(self):
        # weak coupling: |chi|^2 S_th peaks at nu' with half-width Gamma'/2
        nu_p, gamma_p = effective_params(KP)
        w = np.linspace(nu_p - 0.2, nu_p + 0.2, 2001)
        th = ThermalState(temperature=0.0)
        s = np.abs(susceptibility(w, KP)) ** 2 * thermal_spectrum(w, KP, th)
        peak = w[np.argmax(s)]
        np.testing.assert_allclose(peak, nu_p, atol=2e-3)

    @given(st.floats(0.2, 6.5), st.floats(0.05, 20.0))
    @example(omega=1.0, temp=0.05078125)
    @example(omega=1.5, temp=0.0625)
    @settings(max_examples=50, deadline=None)
    def test_detailed_balance(self, omega, temp):
        # keep exp(-beta omega) representable without cancellation noise
        assume(omega / temp < 25.0)
        th = ThermalState(temperature=temp)
        s_pos = thermal_spectrum(omega, KP, th)
        s_neg = thermal_spectrum(-omega, KP, th)
        np.testing.assert_allclose(
            s_neg, np.exp(-omega / temp) * s_pos, rtol=1e-8
        )

    def test_small_frequency_classical_limit(self):
        # S_th(w -> 0) -> Gamma_r(0)/nu * (2T + w); with Gamma_r(0) = Gamma_m
        th = ThermalState(temperature=3.0)
        w = 1e-7
        np.testing.assert_allclose(
            thermal_spectrum(w, KP, th),
            KP.gamma_m / KP.nu * (2.0 * 3.0 + w),
            rtol=1e-5,
        )

    def test_zero_temperature_one_sided(self):
        th = ThermalState(temperature=0.0)
        assert thermal_spectrum(-0.5, KP, th) == 0.0
        assert thermal_spectrum(0.5, KP, th) > 0.0


class TestEffectiveParams:
    def test_shifted_frequency(self):
        nu_p, gamma_p = effective_params(KP)
        # nu' = sqrt(nu^2 + Gamma_i(nu) nu), Gamma_i(nu) = Gamma_m nu/w_max
        expect = np.sqrt(1.0 + KP.gamma_m / KP.omega_max)
        np.testing.assert_allclose(nu_p, expect, rtol=1e-12)
        np.testing.assert_allclose(
            gamma_p, gamma_freq(nu_p, KP).real, rtol=1e-12
        )

    def test_markovian_fallback(self):
        nu_p, gamma_p = relaxation_params(replace(KP, markovian=True))
        assert (nu_p, gamma_p) == (KP.nu, KP.gamma_m)

    def test_strong_damping_warns(self):
        # Gamma_m above nu breaks the good-oscillator assumption of the
        # pole form
        with pytest.warns(UserWarning, match="gamma_m > nu"):
            KernelParams(gamma_m=1.5, omega_max=2.0, nu=1.0)

    def test_vibron_outside_band_rejected(self):
        kp = KernelParams(gamma_m=0.05, omega_max=0.9, nu=1.0)
        with pytest.raises(RegimeError):
            effective_params(kp)


class TestMomentumCorrelation:
    def test_initial_value_markovian_limit(self):
        # tau = 0: <P^2> = nbar + 1/2 up to the band-edge correction, which
        # vanishes with Gamma_m
        kp = KernelParams(gamma_m=1e-4, omega_max=7.0, nu=1.0)
        th = ThermalState(temperature=0.0)
        np.testing.assert_allclose(
            momentum_correlation(0.0, kp, th).real, 0.5, rtol=1e-12
        )
        num = momentum_correlation_numeric(0.0, kp, th)
        np.testing.assert_allclose(num.real, 0.5, atol=2e-4)

    def test_decay_envelope(self):
        th = ThermalState(temperature=0.0)
        nu_p, gamma_p = effective_params(KP)
        tau = np.linspace(0.0, 50.0, 400)
        c = momentum_correlation(tau, KP, th)
        np.testing.assert_allclose(
            np.abs(c), 0.5 * np.exp(-0.5 * gamma_p * tau), rtol=1e-9
        )

    @pytest.mark.parametrize("gamma_m", [0.1, 0.01])
    @pytest.mark.parametrize("nbar", [0.0, 1.0])
    def test_band_rule_oracle_against_quadrature(self, gamma_m, nbar):
        # the graded band rule against adaptive quadrature at tau = 0, one
        # decay time and five, criterion 5's omega_max = 1.3 nu; one call per
        # tau sizes the panels to that tau alone, so the peaks' grading counts
        kp = KernelParams(gamma_m=gamma_m, omega_max=1.3, nu=1.0)
        th = (ThermalState.from_occupation(nbar, 1.0) if nbar > 0
              else ThermalState(temperature=0.0))
        _, gamma_p = effective_params(kp)
        tau = np.array([0.0, 1.0, 5.0]) / gamma_p
        ref = [_quad_momentum_correlation(s, kp, th, tol=1e-9) for s in tau]
        np.testing.assert_allclose(momentum_correlation_numeric(tau, kp, th),
                                   ref, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(
            [momentum_correlation_numeric(s, kp, th) for s in tau],
            ref, rtol=0.0, atol=1e-8)

    def test_band_rule_oracle_peak_above_band(self):
        # omega_max just above nu puts nu' outside the band; the oracle's
        # graded break stays inside it
        kp = KernelParams(gamma_m=0.1, omega_max=1.01, nu=1.0)
        th = ThermalState(temperature=0.0)
        assert effective_params(kp)[0] > kp.omega_max
        for s in (0.0, 3.0, 40.0):
            np.testing.assert_allclose(
                momentum_correlation_numeric(s, kp, th),
                _quad_momentum_correlation(s, kp, th, tol=1e-9),
                rtol=0.0, atol=1e-8)

    def test_thermal_scaling(self):
        nbar = 1.7
        th = ThermalState.from_occupation(nbar, KP.nu)
        c0 = momentum_correlation(0.0, KP, th)
        np.testing.assert_allclose(c0.real, nbar + 0.5, rtol=1e-10)
