"""Cavity transmission, polariton splitting, Purcell antiresonance, and
polariton cross-talk rates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibrolang import (
    CavityParams,
    DomainError,
    KernelParams,
    MoleculeParams,
    SpectralDensity,
    ThermalState,
    polariton_populations,
    polariton_rates,
    transmission,
)
from vibrolang.cavity import (
    dip_width,
    effective_rabi,
    hybridized_decay,
    peak_positions,
    peak_separation,
)
from vibrolang.spectra import (
    absorption_discrete,
    debye_waller,
    franck_condon,
    molecular_response,
    response_route,
)

KP = KernelParams(gamma_m=0.48, omega_max=3.0, nu=6.0, markovian=True)
TH0 = ThermalState(temperature=0.0)
MOL = MoleculeParams(gamma=0.02, nu=6.0, lam=0.8)


def _response(det, mol, kp, th):
    """H of the molecule's route on `det`, without a phonon density."""
    return molecular_response(response_route(det, mol, kp, None, th))[0]


def _transmission(det, cav, mol, kp=KP, th=TH0):
    """`transmission` through the molecule's route, without a density."""
    return transmission(det, cav, response_route(det, mol, kp, None, th))


class TestResponse:
    """spectra.molecular_response, the H that the cavity reads."""

    def test_two_level_response(self):
        mol = MoleculeParams(gamma=0.1, nu=6.0, lam=0.0)
        det = np.linspace(-2, 2, 41)
        h = _response(det, mol, KP, TH0)
        np.testing.assert_allclose(h, 1.0 / (0.1 - 1j * det), rtol=1e-12)

    def test_kramers_kronig_at_band_center(self):
        # Re H at 0 from the Hilbert transform of Im H (principal value)
        det = np.linspace(-40.0, 40.0, 160001)
        h = _response(det, MOL, KP, TH0)
        im = h.imag
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(det != 0.0, im / det, 0.0)
        re0 = np.trapezoid(integrand, det) / np.pi
        i0 = len(det) // 2
        assert abs(re0 - h.real[i0]) / abs(h.real[i0]) < 0.02

    def test_comb_route_is_discrete_absorption(self):
        # one sideband comb, two evaluations: Re H / gamma is the spectrum
        th = ThermalState.from_occupation(1.0, MOL.nu)
        det = np.linspace(-10.0, 10.0, 2001)
        h = _response(det, MOL, KP, th)
        ref = absorption_discrete(MOL, KP, th).evaluate(det)
        np.testing.assert_array_equal(h.real / MOL.gamma, ref)

    def test_blocked_comb_response_is_one_pass_sum(self):
        # a 22,578-line comb: the detuning rows are summed in blocks
        mol = MoleculeParams(gamma=0.025, nu=1.0, lam=1.0)
        kp = KernelParams(gamma_m=0.1, omega_max=1.3, nu=1.0)
        th = ThermalState.from_occupation(50.0, 1.0)
        det = np.linspace(-4.0, 6.0, 101)
        pos, wt, wid = absorption_discrete(mol, kp, th).lines.T
        x = det[:, None] - pos
        f = wt / (x * x + wid * wid)
        one_pass = np.sum(f * wid, axis=-1) + 1j * np.sum(x * f, axis=-1)
        np.testing.assert_array_equal(
            _response(det, mol, kp, th), one_pass)
        assert _response(det[3], mol, kp, th) == one_pass[3]


class TestTransmission:
    def test_bare_cavity_lorentzian(self):
        cav = CavityParams(delta_c=0.3, kappa=0.5, g=0.0)
        det = np.linspace(-3, 3, 301)
        _, t2, _ = transmission(det, cav, None)
        expect = 0.5**2 / (0.5**2 + (det - 0.3) ** 2)
        np.testing.assert_allclose(t2, expect, rtol=1e-10)

    @given(
        st.floats(0.05, 2.0),
        st.floats(0.0, 2.0),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 1.2),
    )
    @settings(max_examples=25, deadline=None)
    def test_passive_transmission_bound(self, kappa, g, delta_c, lam):
        cav = CavityParams(delta_c=delta_c, kappa=kappa, g=g)
        mol = MoleculeParams(gamma=0.05, nu=6.0, lam=lam)
        det = np.linspace(-4, 4, 201)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t_amp, t2, _ = _transmission(det, cav, mol)
        assert np.all(np.abs(t_amp) <= 1.0 + 1e-9)

    def test_paper_figure_splitting_nbar0(self):
        # nu=6, g=nu/2, Gamma_m=0.08 nu, kappa=1, lam=0.8, nbar=0
        cav = CavityParams(delta_c=0.0, kappa=1.0, g=3.0)
        det = np.linspace(-6, 6, 2401)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, t2, _ = _transmission(det, cav, MOL)
        sep = peak_separation(det, t2)
        g_eff = effective_rabi(3.0, franck_condon(0.8, 0.0))
        assert abs(sep - 2.0 * g_eff) / (2.0 * g_eff) < 0.05

    def test_factorization_warning_when_cavity_fast(self):
        cav = CavityParams(delta_c=0.0, kappa=5.0, g=1.0)
        with pytest.warns(UserWarning):
            _transmission(np.linspace(-1, 1, 11), cav, MOL)


class TestPeakUtilities:
    def test_peak_positions_quadratic_refinement(self):
        grid = np.linspace(-2, 2, 401)
        vals = 1.0 / (0.04 + (grid - 0.503) ** 2)
        peaks = peak_positions(grid, vals)
        assert len(peaks) == 1
        np.testing.assert_allclose(peaks[0][0], 0.503, atol=1e-4)

    def test_peak_separation_two_lorentzians(self):
        grid = np.linspace(-3, 3, 1201)
        vals = (1.0 / (0.02 + (grid + 1.0) ** 2)
                + 1.0 / (0.02 + (grid - 1.0) ** 2))
        np.testing.assert_allclose(
            peak_separation(grid, vals), 2.0, atol=1e-3
        )

    def test_peak_separation_requires_two_peaks(self):
        grid = np.linspace(-1, 1, 101)
        with pytest.raises(DomainError):
            peak_separation(grid, 1.0 / (0.1 + grid**2))

    def test_dip_width_lorentzian_antiresonance(self):
        grid = np.linspace(-1, 1, 4001)
        width = 0.07
        vals = 1.0 - 0.8 * width**2 / (width**2 + grid**2)
        measured = dip_width(grid, vals, background=1.0)
        # half-depth points of a Lorentzian dip sit at +-width
        np.testing.assert_allclose(measured, width, rtol=1e-2)


class TestEffectiveRabi:
    def test_trivial_limits(self):
        assert effective_rabi(2.0, 1.0, 1.0) == 2.0
        assert effective_rabi(2.0, 0.0) == effective_rabi(2.0, 1.0, 0.0) == 0.0
        np.testing.assert_allclose(
            effective_rabi(1.0, franck_condon(1.0, 0.0)),
            np.exp(-0.5),
            rtol=1e-12,
        )

    def test_monotone_decreasing_in_temperature(self):
        # g_eff of the route's f_FC and, with a density, its f_DW
        det = np.linspace(-1.0, 1.0, 201)
        for sd in (None, SpectralDensity(kind="3d", coupling=0.02,
                                         omega_max=3.0)):
            vals = []
            for t in (0.0, 2.0, 5.0, 10.0):
                th = ThermalState(temperature=t)
                route = response_route(det, MOL, KP, sd, th)
                assert route.f_fc == franck_condon(MOL.lam,
                                                   th.occupation(MOL.nu))
                assert route.f_dw == (debye_waller(sd, th) if sd else 1.0)
                vals.append(effective_rabi(1.0, route.f_fc, route.f_dw))
            assert all(b < a for a, b in zip(vals, vals[1:])), sd

    def test_rejects_unphysical_factors(self):
        with pytest.raises(DomainError):
            effective_rabi(1.0, -0.1)
        with pytest.raises(DomainError):
            effective_rabi(1.0, 1.2)


class TestPolaritonRates:
    def test_main_text_ratio_is_thermal(self):
        for nbar in (0.1, 1.0, 3.7):
            th = ThermalState.from_occupation(nbar, 6.0)
            kp_, km_ = polariton_rates(MOL, KP, th, 3.0, -3.0,
                                       form="main-text")
            np.testing.assert_allclose(km_ / kp_, nbar / (nbar + 1.0),
                                       rtol=1e-14)

    def test_zero_temperature_absorbs_nothing(self):
        kp_, km_ = polariton_rates(MOL, KP, TH0, 3.0, -3.0, form="main-text")
        assert km_ == 0.0

    @given(st.floats(0.0, 5.0), st.floats(0.5, 12.0))
    @settings(max_examples=40, deadline=None)
    def test_two_term_rates_ordered_and_positive(self, nbar, split):
        th = (ThermalState.from_occupation(nbar, 6.0) if nbar > 0 else TH0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kp_, km_ = polariton_rates(MOL, KP, th, split / 2, -split / 2)
        assert kp_ >= 0.0 and km_ >= 0.0
        assert kp_ >= km_

    def test_resonant_main_text_rate(self):
        nbar = 0.9
        th = ThermalState.from_occupation(nbar, 6.0)
        kp_, _ = polariton_rates(MOL, KP, th, 3.0, -3.0, form="main-text")
        expect = MOL.lam**2 * KP.nu**2 * (nbar + 1.0) / KP.gamma_m
        np.testing.assert_allclose(kp_, expect, rtol=1e-12)


class TestPolaritonPopulations:
    def test_uncoupled_exponentials(self):
        t = np.linspace(0, 4, 40)
        pu, pl = polariton_populations(t, (1.0, 0.25), (0.4, 0.1), (0.0, 0.0))
        np.testing.assert_allclose(pu, np.exp(-0.8 * t), atol=1e-12)
        np.testing.assert_allclose(pl, 0.25 * np.exp(-0.2 * t), atol=1e-12)

    def test_total_population_non_increasing(self):
        t = np.linspace(0, 10, 200)
        pu, pl = polariton_populations(t, (0.7, 0.3), (0.05, 0.02),
                                       (0.3, 0.1))
        total = pu + pl
        assert np.all(np.diff(total) <= 1e-12)

    def test_negative_rates_rejected(self):
        with pytest.raises(DomainError):
            polariton_populations([0.0], (1.0, 0.0), (0.1, 0.1), (-0.1, 0.0))

    def test_hybridized_decay(self):
        assert hybridized_decay(2.0, 0.5) == 1.25
