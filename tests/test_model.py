"""Chain diagonalization, coupling geometry, and derived Markov parameters."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibrolang import (
    DiscreteBath,
    DomainError,
    ThermalState,
    derived_markov_params,
)
from vibrolang.microsim import TrajectoryConfig, simulate
from vibrolang.model import chain_eigenmodes, vibron_phonon_couplings

from oracles import markov_rate_band_form


def _bath(n=200, k0=12.25, gamma_m=0.05, **kw):
    omega_max = 2.0 * np.sqrt(k0 / 1.0)
    dk = k0 * np.sqrt(4.0 * gamma_m / omega_max)
    return DiscreteBath(n_cells=n, k0=k0, m0=1.0, dk=dk, **kw)


def _pair_couplings(bath, nu, j):
    return (vibron_phonon_couplings(bath, nu, site=-j),
            vibron_phonon_couplings(bath, nu, site=j))


class TestChainModes:
    def test_band_edges_and_monotonicity(self):
        bath = _bath()
        w = chain_eigenmodes(bath)
        assert np.all(np.diff(w) > 0)
        assert w[0] > 0
        assert w[-1] < bath.omega_max
        # half-chain of length 2N+1
        assert len(w) == 2 * bath.n_cells + 1

    def test_sine_dispersion(self):
        bath = _bath(n=50)
        k = np.arange(1, 2 * bath.n_cells + 2)
        expect = bath.omega_max * np.sin(
            np.pi * k / (2.0 * (2 * bath.n_cells + 2))
        )
        np.testing.assert_allclose(chain_eigenmodes(bath), expect, rtol=1e-12)

    def test_even_parity_modes_decouple(self):
        bath = _bath(n=64)
        alphas = vibron_phonon_couplings(bath, nu=1.0)
        k = np.arange(1, 2 * bath.n_cells + 2)
        assert np.all(alphas[k % 2 == 1] == 0.0)
        assert np.any(alphas[k % 2 == 0] != 0.0)

    def test_coupling_sum_rule(self):
        # sum_k alpha_k^2 nu / omega_k = (N/(N+1)) Gamma_m omega_max / 2
        gamma_m, nu = 0.05, 1.0
        bath = _bath(n=300, gamma_m=gamma_m)
        freqs = chain_eigenmodes(bath)
        alphas = vibron_phonon_couplings(bath, nu=nu)
        total = np.sum(alphas**2 * nu / freqs)
        n = bath.n_cells
        expect = (n / (n + 1.0)) * gamma_m * bath.omega_max / 2.0
        np.testing.assert_allclose(total, expect, rtol=1e-10)

    def test_pair_couplings_mirror_symmetry(self):
        bath = _bath(n=40)
        a1, a2 = _pair_couplings(bath, 1.0, 2)
        # modes are symmetric or antisymmetric about the center site
        np.testing.assert_allclose(np.abs(a1), np.abs(a2), atol=1e-12)
        # even k: symmetric (a1 = a2); odd k: antisymmetric (a1 = -a2)
        k = np.arange(1, 2 * bath.n_cells + 2)
        even, odd = k % 2 == 0, k % 2 == 1
        np.testing.assert_allclose(a1[even], a2[even], atol=1e-12)
        np.testing.assert_allclose(a1[odd], -a2[odd], atol=1e-12)

    def test_pair_couplings_reject_bad_j(self):
        bath = _bath(n=40)
        cfg = TrajectoryConfig(t_max=0.1)
        with pytest.raises(DomainError):
            simulate(1.0, bath, (0, 0), cfg)
        with pytest.raises(DomainError):
            simulate(1.0, bath, (-41, 41), cfg)
        with pytest.raises(DomainError):
            vibron_phonon_couplings(bath, 1.0, site=41)

    @pytest.mark.parametrize("site", [0, 1, -1, -2])
    def test_couplings_match_mpmath_on_fig3_chain(self, site):
        # k (N+1+s) and k are reduced mod 4(N+1) in integers, so the cosine
        # and the sine are each taken of |x| <= pi/4, where x carries the
        # roundings of pi, one product and one quotient: each factor is then
        # good to about 4u relative (u = 2^-53), and with 2 sqrt(1/(N+1)),
        # the two zero-point factors and four products the coupling to
        # under 32u.  The cosine's zeros come out exactly 0.
        mpmath = pytest.importorskip("mpmath")
        bath = DiscreteBath(n_cells=1250, k0=144.0, m0=1.0,
                            dk=8.313843876330611)
        nu = 1.0
        w = chain_eigenmodes(bath)
        alpha = vibron_phonon_couplings(bath, nu, site=site)
        m = bath.n_cells + 1
        k = np.arange(1, 2 * m)
        with mpmath.workdps(40):
            mpf = mpmath.mpf
            ref = np.array([float(
                2 * mpf(bath.dk) * mpmath.sqrt(mpf(1) / m)
                * mpmath.cospi(mpf(int(kk) * (m + site)) / (2 * m))
                * mpmath.sinpi(mpf(int(kk)) / (2 * m))
                / mpmath.sqrt(2 * mpf(bath.m0) * mpf(wk))
                / mpmath.sqrt(2 * mpf(bath.mu) * nu))
                for kk, wk in zip(k, w)])
        zero = k * (m + site) % (2 * m) == m
        assert np.all(alpha[zero] == 0.0)
        rel = np.abs(alpha[~zero] - ref[~zero]) / np.abs(ref[~zero])
        assert rel.max() <= 32 * 2.0**-53

    def test_pair_coupling_weight_conserved(self):
        # the symmetric/antisymmetric split preserves the single-molecule
        # total weight: (a1^2 + a2^2)/1 = 2 alpha^2 summed over the band
        bath = _bath(n=120)
        alphas = vibron_phonon_couplings(bath, nu=1.0)
        a1, a2 = _pair_couplings(bath, 1.0, 1)
        np.testing.assert_allclose(
            np.sum(a1**2 + a2**2), 2.0 * np.sum(alphas**2), rtol=1e-8
        )


class TestDerivedParams:
    def test_markov_rate_formula(self):
        bath = _bath(k0=12.25, gamma_m=0.05)
        nu_s, gamma_m = derived_markov_params(bath, nu=1.0)
        np.testing.assert_allclose(gamma_m, 0.05, rtol=1e-12)
        np.testing.assert_allclose(
            gamma_m, markov_rate_band_form(bath), rtol=1e-12
        )
        np.testing.assert_allclose(
            nu_s, gamma_m * bath.omega_max / 2.0, rtol=1e-12
        )

    def test_omega_max(self):
        bath = DiscreteBath(n_cells=10, k0=12.25, m0=1.0, dk=1.0)
        np.testing.assert_allclose(bath.omega_max, 7.0, rtol=1e-14)

    def test_invalid_bath(self):
        with pytest.raises(DomainError):
            DiscreteBath(n_cells=0, k0=1.0, m0=1.0, dk=0.1)
        with pytest.raises(DomainError):
            DiscreteBath(n_cells=5, k0=-1.0, m0=1.0, dk=0.1)
        with pytest.raises(DomainError):
            DiscreteBath(n_cells=5, k0=1.0, m0=1.0, dk=0.1, qfactor=0.0)


class TestThermalState:
    def test_occupation_zero_temperature(self):
        th = ThermalState(temperature=0.0)
        assert th.coth_half_beta(1.0) == 1.0

    @given(st.floats(0.05, 50.0), st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_occupation_detailed_balance(self, temp, omega):
        # nbar/(nbar+1) = exp(-beta omega)
        th = ThermalState(temperature=temp)
        nbar = th.occupation(omega)
        np.testing.assert_allclose(
            nbar / (nbar + 1.0), np.exp(-omega / temp), rtol=1e-10
        )

    @given(st.floats(0.01, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_from_occupation_round_trip(self, nbar, omega):
        th = ThermalState.from_occupation(nbar, omega)
        np.testing.assert_allclose(th.occupation(omega), nbar, rtol=1e-9)

    def test_coth_classical_limit(self):
        th = ThermalState(temperature=2.0)
        np.testing.assert_allclose(
            th.coth_half_beta(1e-6), 2.0 * 2.0 / 1e-6, rtol=1e-6
        )
