"""Lineshapes: sideband combs, phonon wings, Debye-Waller/Franck-Condon
factors, dephasing, and the damped response transform."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate

from vibrolang import (
    DivergenceError,
    KernelParams,
    MoleculeParams,
    ResolutionError,
    SpectralDensity,
    ThermalState,
    absorption_bessel,
    absorption_discrete,
    absorption_full,
    debye_waller,
    dephasing_rate,
    franck_condon,
    mirror_emission,
    phonon_correlation,
    polaron_shift,
    spectral_density,
)
from vibrolang.spectra import (
    absorption_multimode_discrete,
    line_weight_L,
    response_transform,
    single_mode_dephasing_rate,
    thermal_binomial_B,
    vibron_lines,
)

KP = KernelParams(gamma_m=0.1, omega_max=1.3, nu=1.0)
TH0 = ThermalState(temperature=0.0)
# fig5a's regularized 1d density: its infrared peak sits at omega_min
SD_1D = SpectralDensity(kind="1d", coupling=0.03, omega_max=3.0,
                        omega_min=3e-4)


def _riemann_phonon_correlation(t, sd, thermal, n_mid):
    """Phonon correlation as a uniform midpoint sum over [omega_min,
    omega_max], independent of the graded Gauss-Legendre band rule."""
    edges = np.linspace(sd.omega_min, sd.omega_max, n_mid + 1)
    omega = 0.5 * (edges[1:] + edges[:-1])
    w = spectral_density(omega, sd) * np.diff(edges) / omega**2
    phase = np.outer(t, omega)
    coth = thermal.coth_half_beta(omega)
    return np.exp((np.cos(phase) - 1.0) @ (w * coth)
                  - 1j * (np.sin(phase) @ w))


class TestWeights:
    def test_franck_condon_values(self):
        assert franck_condon(0.0) == 1.0
        np.testing.assert_allclose(franck_condon(1.0), math.exp(-1.0))
        np.testing.assert_allclose(
            franck_condon(1.0, 2.0), math.exp(-5.0), rtol=1e-12
        )

    @given(st.floats(0.05, 1.6), st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_weight_completeness(self, lam, nbar):
        lines = vibron_lines(lam, nbar, 1.0, 0.05, 0.01)
        assert abs(np.sum(lines[:, 1]) - 1.0) < 1e-7

    def test_binomial_rows_sum_to_thermal_power(self):
        nbar = 1.3
        for n in range(6):
            total = sum(thermal_binomial_B(n, l, nbar) for l in range(n + 1))
            np.testing.assert_allclose(
                total, (1.0 + 2.0 * nbar) ** n, rtol=1e-12
            )

    def test_line_weight_scaling(self):
        # L(n) is the Poisson weight with the thermal factor split off
        lam = 0.8
        np.testing.assert_allclose(
            line_weight_L(3, lam, 0.0),
            math.exp(-lam**2) * lam**6 / 6.0,
            rtol=1e-12,
        )


class TestDiscreteSpectra:
    def test_two_level_limit(self):
        mol = MoleculeParams(omega0=0.0, gamma=0.025, nu=1.0, lam=0.0)
        grid = np.linspace(-2.0, 2.0, 401)
        sp = absorption_discrete(grid, mol, KP, TH0)
        np.testing.assert_allclose(
            sp.values, 1.0 / (0.025**2 + grid**2), rtol=1e-12
        )

    def test_sideband_positions(self):
        from vibrolang.kernels import effective_params

        nu_p, _ = effective_params(KP)
        mol = MoleculeParams(omega0=0.0, gamma=0.005, nu=1.0, lam=0.6)
        sp = absorption_discrete(None, mol, KP, TH0)
        pos = np.unique(np.round(sp.lines[:, 0] / nu_p).astype(int))
        assert pos.min() == 0  # T = 0: no anti-Stokes lines
        assert pos.max() >= 3

    def test_bessel_matches_double_sum(self):
        mol = MoleculeParams(omega0=0.0, gamma=0.2, nu=1.0, lam=0.2)
        th = ThermalState.from_occupation(0.3, 1.0)
        grid = np.linspace(-3.0, 3.0, 601)
        d = absorption_discrete(grid, mol, KP, th).values
        b = absorption_bessel(grid, mol, KP, th).values
        assert np.max(np.abs(d - b)) / np.max(d) < 1e-3

    def test_bessel_warns_outside_validity(self):
        mol = MoleculeParams(omega0=0.0, gamma=0.025, nu=1.0, lam=1.0)
        th = ThermalState.from_occupation(2.0, 1.0)
        with pytest.warns(UserWarning):
            absorption_bessel(None, mol, KP, th)

    def test_multimode_reduces_to_single_vibron(self):
        # one explicit mode at nu with the vibron coupling reproduces the
        # nbar = 0 comb of the dedicated routine (undamped phonons)
        mol = MoleculeParams(omega0=0.0, gamma=0.02, nu=1.0, lam=0.5)
        grid = np.linspace(-1.0, 4.0, 801)
        multi = absorption_multimode_discrete(
            grid, mol, [(1.0, 0.5, 0.0)], TH0
        )
        kp0 = KernelParams(gamma_m=1e-12, omega_max=10.0, nu=1.0)
        mol_plain = MoleculeParams(omega0=0.0, gamma=0.02, nu=1.0, lam=0.0)
        # build the reference directly from Poisson weights
        ref = np.zeros_like(grid)
        for n in range(40):
            w = math.exp(-0.25) * 0.25**n / math.factorial(n)
            ref += w * (0.02 / 0.02) / (0.02**2 + (grid - n * 1.0) ** 2)
        np.testing.assert_allclose(multi.values, ref, rtol=1e-6)

    def test_emission_mirror_involutive(self):
        grid = np.linspace(-1.0, 3.0, 101)
        vals = np.exp(-((grid - 0.7) ** 2))
        g1, v1 = mirror_emission(grid, vals)
        g2, v2 = mirror_emission(g1, v1)
        np.testing.assert_allclose(g2, grid, atol=1e-12)
        np.testing.assert_allclose(v2, vals, atol=1e-12)


class TestContinuum:
    def test_spectral_density_band_support(self):
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
        w = np.array([-1.0, 0.0, 1.5, 3.0, 3.5])
        j = spectral_density(w, sd)
        assert j[0] == 0.0 and j[4] == 0.0
        assert j[2] > 0.0

    def test_debye_waller_bounds_and_limits(self):
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
        f0 = debye_waller(sd, TH0)
        assert 0.0 < f0 < 1.0
        f_hot = debye_waller(sd, ThermalState(temperature=10.0))
        assert f_hot < f0

    def test_one_dimensional_infrared_divergence(self):
        sd = SpectralDensity(kind="1d", coupling=0.05, omega_max=3.0)
        with pytest.raises(DivergenceError):
            debye_waller(sd, TH0)
        with pytest.raises(DivergenceError):
            phonon_correlation(
                np.array([1.0]), sd, ThermalState(temperature=2.0)
            )

    def test_one_dimensional_regularized_is_finite(self):
        sd = SpectralDensity(
            kind="1d", coupling=0.05, omega_max=3.0, omega_min=1e-3
        )
        assert np.isfinite(debye_waller(sd, ThermalState(temperature=2.0)))

    def test_phonon_correlation_initial_value(self):
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
        c = phonon_correlation(np.array([0.0, 1e-9]), sd, TH0)
        np.testing.assert_allclose(c, 1.0 + 0.0j, atol=1e-10)

    def test_phonon_correlation_long_time_plateau(self):
        # |C(t)| -> f_DW as the wing dephases
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
        th = ThermalState(temperature=2.0)
        t = np.linspace(200.0, 220.0, 21)
        c = phonon_correlation(t, sd, th)
        np.testing.assert_allclose(
            np.abs(c), debye_waller(sd, th), rtol=1e-3
        )

    @pytest.mark.parametrize("sd", [
        SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0), SD_1D,
    ], ids=["3d", "1d"])
    def test_polaron_shift_against_quadrature(self, sd):
        ref, _ = integrate.quad(
            lambda w: spectral_density(w, sd) / w, sd.omega_min, 3.0
        )
        np.testing.assert_allclose(polaron_shift(sd), ref, rtol=1e-8)

    @pytest.mark.parametrize("temp", [0.3, 0.62, 1.0])
    def test_debye_waller_1d_infrared_peak(self, temp):
        # the exponent peaks as 1/omega^2 at omega_min; quad split there
        th = ThermalState(temperature=temp)
        pts = (SD_1D.omega_min, 3e-3, 0.1, SD_1D.omega_max)
        expo = sum(integrate.quad(
            lambda w: spectral_density(w, SD_1D) / w**2
            * th.coth_half_beta(w), a, b, limit=200, epsabs=0.0,
            epsrel=1e-13)[0] for a, b in zip(pts[:-1], pts[1:]))
        np.testing.assert_allclose(debye_waller(SD_1D, th), math.exp(-expo),
                                   rtol=1e-12, atol=0.0)

    def test_riemann_and_gauss_paths_agree(self):
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
        th = ThermalState(temperature=2.0)
        t = np.linspace(0.0, 20.0, 64)
        a = phonon_correlation(t, sd, th)
        b = _riemann_phonon_correlation(t, sd, th, n_mid=200000)
        assert np.max(np.abs(a - b)) < 1e-4


class TestDephasing:
    def test_single_mode_short_time_law(self):
        th = ThermalState.from_occupation(0.7, 2.0)
        t = np.linspace(1e-4, 0.05 / 2.0, 40)
        exact = single_mode_dephasing_rate(t, 0.3, 2.0, th)
        law = 0.3**2 * (0.7 + 0.5) * 2.0**2 * t
        assert np.max(np.abs(exact - law) / law) < 0.01

    def test_continuum_rate_decays(self):
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
        th = ThermalState(temperature=5.0)
        t = np.linspace(0.05, 40.0, 400)
        g = dephasing_rate(t, sd, th)
        assert np.max(np.abs(g[t > 50.0 / 3.0])) < 0.05 * np.max(np.abs(g))

    def test_zero_coupling_is_zero(self):
        sd = SpectralDensity(kind="3d", coupling=0.0, omega_max=3.0)
        assert dephasing_rate(1.0, sd, TH0) == 0.0


class TestResponseTransform:
    def test_exponential_correlation_gives_lorentzian(self):
        a, gamma = 0.3, 0.05
        dt = 1e-3
        t = np.arange(0, 400001) * dt
        corr = np.exp(-a * t)
        det = np.linspace(-1.0, 1.0, 11)
        h = response_transform(det, corr, gamma, dt)
        expect = 1.0 / ((gamma + a) - 1j * det)
        np.testing.assert_allclose(h, expect, rtol=1e-6)

    def test_full_spectrum_resolution_guard(self):
        mol = MoleculeParams(omega0=0.0, gamma=1e-4, nu=1.0, lam=0.0)
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
        with pytest.raises(ResolutionError):
            absorption_full(np.linspace(-1, 1, 11), mol, KP, sd, TH0)

    def test_full_spectrum_two_level_limit(self):
        mol = MoleculeParams(omega0=0.0, gamma=0.05, nu=1.0, lam=0.0)
        grid = np.linspace(-0.5, 0.5, 101)
        vals, meta = absorption_full(grid, mol, None, None, TH0)
        np.testing.assert_allclose(
            vals, 1.0 / (0.05**2 + grid**2), rtol=1e-4
        )
