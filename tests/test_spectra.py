"""Lineshapes: sideband combs, phonon wings, Debye-Waller/Franck-Condon
factors, dephasing, and the damped response transform."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate, special

from vibrolang import (
    DivergenceError,
    DomainError,
    KernelParams,
    MoleculeParams,
    ResolutionError,
    SpectralDensity,
    ThermalState,
    TruncationError,
    absorption_bessel,
    absorption_full,
    debye_waller,
    mirror_emission,
    phonon_correlation,
    spectra,
)
from vibrolang.cli import load_preset
from vibrolang.kernels import relaxation_params
from vibrolang.spectra import (
    _FAR,
    _HORIZON,
    _PANEL,
    _TERMS,
    LineSpectrum,
    _band_variation,
    _density_rule,
    _even_grid,
    _phase_sum,
    _sideband_comb,
    _weight_tail,
    absorption_discrete,
    check_resolution,
    choose_n_max,
    dephasing_rate,
    displacement_correlation_vibron,
    franck_condon,
    molecular_response,
    polaron_shift,
    response_route,
    response_transform,
    spectral_density,
    vibron_lines,
)

from oracles import (
    absorption_multimode_discrete,
    line_response,
    single_mode_dephasing_rate,
    whole_product_response,
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


def _dense_phase_sum(t, omega, weights):
    """sum_i weights_i e^{i omega_i t} from full (t x omega) cos and sin
    tables, one block of t rows at a time."""
    out = np.empty((len(t),) + weights.shape[1:], dtype=complex)
    for lo in range(0, len(t), 512):
        phase = np.outer(t[lo:lo + 512], omega)
        out[lo:lo + 512] = np.cos(phase) @ weights \
            + 1j * (np.sin(phase) @ weights)
    return out


def _dense_band_sum(t, sd, thermal, rows=slice(None)):
    """Phonon correlation and dephasing rate at t[rows] from full (t x omega)
    cos and sin tables on the band rule's nodes for the whole grid t, one
    block of t rows at a time."""
    omega, big_w = _density_rule(sd, thermal, float(np.max(np.abs(t))))
    coth = thermal.coth_half_beta(omega)
    t = t[rows]
    corr = np.empty(len(t), dtype=complex)
    rate = np.empty(len(t))
    for lo in range(0, len(t), 512):
        phase = np.outer(t[lo:lo + 512], omega)
        cos, sin = np.cos(phase), np.sin(phase)
        corr[lo:lo + 512] = np.exp((cos - 1.0) @ (big_w * coth / omega**2)
                                   - 1j * (sin @ (big_w / omega**2)))
        rate[lo:lo + 512] = sin @ (big_w * coth / omega)
    return corr, rate


def _simpson_response_transform(detuning, corr, gamma, dt, chunk=64):
    """Damped transform as a dense composite-Simpson sum over the time axis,
    one block of detunings at a time."""
    n = len(corr) if len(corr) % 2 else len(corr) - 1
    t = np.arange(n) * dt
    damped = corr[:n] * np.exp(-gamma * t)
    out = np.empty(len(detuning), dtype=complex)
    for lo in range(0, len(detuning), chunk):
        phase = np.exp(1j * np.outer(detuning[lo:lo + chunk], t))
        out[lo:lo + chunk] = integrate.simpson(phase * damped, dx=dt, axis=-1)
    return out


def _line_weight_L(n, lam, nbar):
    """L(n) = e^{-lam^2(1+2nbar)} lam^(2n)/n!, the thermal factor split off."""
    return franck_condon(lam, nbar) * lam ** (2 * n) / special.factorial(n)


def _thermal_binomial_B(n, l, nbar):
    """B(n, l) = C(n, l) (nbar+1)^(n-l) nbar^l."""
    return special.comb(n, l) * (nbar + 1.0) ** (n - l) * nbar**l


def _double_loop_comb(lam, nbar, n_max):
    """{(n, l): L(n) B(n, l)} from the linear-space (n, l) double loop,
    zero weights dropped."""
    comb = {}
    for n in range(n_max + 1):
        ln = float(_line_weight_L(n, lam, nbar))
        for l in range(n + 1):
            w = ln * float(_thermal_binomial_B(n, l, nbar))
            if w != 0.0:
                comb[(n, l)] = w
    return comb


def _bessel_weights(lam, nbar, n_max):
    """{k: f_FC ((nbar+1)/nbar)^{k/2} I_k(2 lam^2 sqrt(nbar(nbar+1)))} for
    |k| <= n_max, the Poisson weights at nbar = 0; zero weights dropped."""
    fc = franck_condon(lam, nbar)
    if nbar == 0.0:
        w = {k: fc * lam ** (2 * k) / math.factorial(k)
             for k in range(n_max + 1)}
    else:
        arg = 2.0 * lam**2 * math.sqrt(nbar * (nbar + 1.0))
        ratio = (nbar + 1.0) / nbar
        w = {k: fc * ratio ** (k / 2.0) * float(special.iv(k, arg))
             for k in range(-n_max, n_max + 1)}
    return {k: v for k, v in w.items() if v > 0}


COMB_CASES = [(lam, nbar) for lam in (0.3, 0.8, 1.0)
              for nbar in (0.0, 0.01, 1.0, 3.0)]


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# fig6c's phonon density and the cavity workload's 9,601-point tau grid
SD_6C = SpectralDensity(kind="3d", coupling=0.2, omega_max=3.0)
TAU_CAVITY = np.arange(9601) / 48.0


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
        lines = vibron_lines(lam, nbar, 1.0, 0.05, 0.01,
                             choose_n_max(lam, nbar))
        assert abs(np.sum(lines[:, 1]) - 1.0) < 1e-7

    def test_comb_rows_sum_to_poisson(self):
        # summed over l, the Stokes x anti-Stokes product is Poisson(s) in n
        lam, nbar = 0.9, 1.3
        s = lam**2 * (1.0 + 2.0 * nbar)
        n, _, w = _sideband_comb(lam, nbar, choose_n_max(lam, nbar))
        rows = np.bincount(n, weights=w)
        k = np.arange(len(rows))
        np.testing.assert_allclose(
            rows, np.exp(-s) * s**k / special.factorial(k), rtol=1e-12)

    def test_comb_weight_scaling(self):
        # at nbar = 0 only Stokes quanta: w(n, 0) = e^{-lam^2} lam^(2n)/n!
        lam = 0.8
        n, l, w = _sideband_comb(lam, 0.0, choose_n_max(lam, 0.0))
        assert not np.any(l)
        np.testing.assert_allclose(
            w, np.exp(-lam**2) * lam ** (2 * n) / special.factorial(n),
            rtol=1e-12)

    @pytest.mark.parametrize("lam, nbar", COMB_CASES)
    def test_comb_matches_double_loop(self, lam, nbar):
        n_max = choose_n_max(lam, nbar)
        n, l, w = _sideband_comb(lam, nbar, n_max)
        ref = _double_loop_comb(lam, nbar, n_max)
        assert list(zip(n.tolist(), l.tolist())) == list(ref)
        np.testing.assert_allclose(w, list(ref.values()), rtol=1e-13)

    @pytest.mark.parametrize("lam, nbar", COMB_CASES)
    def test_bessel_marginal_matches_iv(self, lam, nbar):
        mol = MoleculeParams(gamma=0.05, nu=1.0, lam=lam)
        kp = replace(KP, markovian=True)
        th = ThermalState.from_occupation(nbar, 1.0) if nbar > 0 else TH0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            sp = absorption_bessel(mol, kp, th)
        nu_p, _ = relaxation_params(kp)
        k = np.round(sp.lines[:, 0] / nu_p).astype(int)
        got = dict(zip(k.tolist(), sp.lines[:, 1]))
        ref = _bessel_weights(lam, sp.meta["nbar"],
                              choose_n_max(lam, sp.meta["nbar"]))
        top = max(ref.values())
        for key in set(got) | set(ref):
            assert abs(got.get(key, 0.0) - ref.get(key, 0.0)) <= 1e-12 * top

    def test_order_cap(self):
        # s = 160: the first guess, order 296, is capped at 250, where the
        # tail (1.9e-11) has closed; at s = 181 it has not (5.0e-7)
        assert choose_n_max(1.0, 79.5) == 250
        with pytest.raises(TruncationError):
            choose_n_max(1.0, 90.0)

    def test_no_vibron_has_no_tail_at_any_occupation(self):
        # lam^2 (1 + 2 nbar) is 0 * inf = NaN at nbar = 1e308
        assert _weight_tail(0.0, 1e308, choose_n_max(0.0, 1e308)) == 0.0

    def test_uncapped_order_closes_the_tail(self):
        # below the cap the closed-form order leaves a tail of at most
        # 2e-20, so only a capped order can fail the 1e-8 check
        for lam in np.sqrt(np.linspace(0.0, 250.0, 25001)[:-1]):
            s = lam**2
            n_max = int(math.ceil(s) + 10.0 * math.sqrt(s) + 10)
            if n_max < 250:
                assert choose_n_max(lam, 0.0) == n_max
                assert _weight_tail(lam, 0.0, n_max) < 1e-12

    def test_large_occupation_comb_is_finite(self):
        # at nbar = 50, e^{-s} lam^(2n)/n! underflows where (nbar+1)^(n-l)
        # overflows: only the log-space product keeps every weight finite
        lines = vibron_lines(1.0, 50.0, 1.0, 0.05, 0.01,
                             choose_n_max(1.0, 50.0))
        assert np.all(np.isfinite(lines))
        assert abs(np.sum(lines[:, 1]) - 1.0) < 1e-12


# fig4b's molecule at nbar = 50: a 22,578-line comb, many blocks of rows
FIG4B_MOL = MoleculeParams(gamma=0.025, nu=1.0, lam=1.0)
FIG4B_GRID = np.linspace(-4.0, 6.0, 2001)
TH50 = ThermalState.from_occupation(50.0, 1.0)


class TestDiscreteSpectra:
    def test_blocked_line_sum_is_one_pass_sum(self):
        # the detuning rows are summed in blocks; each reduces as the same
        # expression over the whole grid at once
        sp = absorption_discrete(FIG4B_MOL, KP, TH50)
        cut = FIG4B_GRID[::20]
        pos, wt, wid = sp.lines.T
        x = cut[:, None] - pos
        f = wt / (x * x + wid * wid)
        one_pass = np.sum(f * wid, axis=-1) + 1j * np.sum(x * f, axis=-1)
        h = sp.response(cut)
        np.testing.assert_array_equal(h, one_pass)
        assert sp.response(cut[7]) == one_pass[7]
        np.testing.assert_array_equal(sp.evaluate(cut), h.real / sp.gamma)
        assert sp.evaluate(cut[7]) == one_pass[7].real / sp.gamma

    def test_large_comb_memory_bounded(self):
        tracemalloc.start()
        try:
            sp = absorption_discrete(FIG4B_MOL, KP, TH50)
            values = sp.evaluate(FIG4B_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sp.lines) > 20000 and np.all(np.isfinite(values))
        assert peak < 64 * 2**20

    def test_large_comb_on_large_grid_memory_bounded(self):
        # the panel route on 79 panels of the 22,578-line comb
        grid = np.linspace(-4.0, 6.0, 20001)
        sp = absorption_discrete(FIG4B_MOL, KP, TH50)
        tracemalloc.start()
        try:
            values = sp.evaluate(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sp.lines) > 20000 and np.all(np.isfinite(values))
        assert peak < 64 * 2**20

    def test_two_level_limit(self):
        mol = MoleculeParams(gamma=0.025, nu=1.0, lam=0.0)
        grid = np.linspace(-2.0, 2.0, 401)
        sp = absorption_discrete(mol, KP, TH0)
        np.testing.assert_allclose(
            sp.evaluate(grid), 1.0 / (0.025**2 + grid**2), rtol=1e-12
        )

    def test_sideband_positions(self):
        from vibrolang.kernels import effective_params

        nu_p, _ = effective_params(KP)
        mol = MoleculeParams(gamma=0.005, nu=1.0, lam=0.6)
        sp = absorption_discrete(mol, KP, TH0)
        pos = np.unique(np.round(sp.lines[:, 0] / nu_p).astype(int))
        assert pos.min() == 0  # T = 0: no anti-Stokes lines
        assert pos.max() >= 3

    def test_bessel_matches_double_sum(self):
        mol = MoleculeParams(gamma=0.2, nu=1.0, lam=0.2)
        th = ThermalState.from_occupation(0.3, 1.0)
        grid = np.linspace(-3.0, 3.0, 601)
        d = absorption_discrete(mol, KP, th).evaluate(grid)
        b = absorption_bessel(mol, KP, th).evaluate(grid)
        assert np.max(np.abs(d - b)) / np.max(d) < 1e-3

    def test_bessel_warns_outside_validity(self):
        mol = MoleculeParams(gamma=0.025, nu=1.0, lam=1.0)
        th = ThermalState.from_occupation(2.0, 1.0)
        with pytest.warns(UserWarning):
            absorption_bessel(mol, KP, th)

    def test_multimode_reduces_to_single_vibron(self):
        # one explicit mode at nu with the vibron coupling reproduces the
        # nbar = 0 comb of the dedicated routine (undamped phonons)
        mol = MoleculeParams(gamma=0.02, nu=1.0, lam=0.5)
        grid = np.linspace(-1.0, 4.0, 801)
        multi = absorption_multimode_discrete(mol, [(1.0, 0.5, 0.0)], TH0)
        kp0 = KernelParams(gamma_m=1e-12, omega_max=10.0, nu=1.0)
        mol_plain = MoleculeParams(gamma=0.02, nu=1.0, lam=0.0)
        # build the reference directly from Poisson weights
        ref = np.zeros_like(grid)
        for n in range(40):
            w = math.exp(-0.25) * 0.25**n / math.factorial(n)
            ref += w * (0.02 / 0.02) / (0.02**2 + (grid - n * 1.0) ** 2)
        np.testing.assert_allclose(multi.evaluate(grid), ref, rtol=1e-6)

    def test_multimode_matches_list_products(self):
        # the outer products of two thermal combs against the per-line
        # list products of the double-loop combs, same 1e-14 prune
        mol = MoleculeParams(gamma=0.02, nu=1.0, lam=0.5)
        th = ThermalState(temperature=0.7)
        modes = [(1.0, 0.5, 0.03), (0.37, 0.8, 0.01)]
        multi = absorption_multimode_discrete(mol, modes, th)
        combo = [(0.0, 1.0, mol.gamma)]
        for wk, lk, gk in modes:
            nb = th.occupation(wk)
            rows = [((n - 2 * l) * wk, w, n * gk) for (n, l), w in
                    _double_loop_comb(lk, nb, choose_n_max(lk, nb)).items()]
            combo = [(p0 + p1, w0 * w1, g0 + g1)
                     for (p0, w0, g0) in combo for (p1, w1, g1) in rows
                     if w0 * w1 > 1e-14]
        ref = np.array(combo)
        assert multi.lines.shape == ref.shape
        np.testing.assert_allclose(multi.lines[:, [0, 2]], ref[:, [0, 2]],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(multi.lines[:, 1], ref[:, 1], rtol=1e-13)

    def test_tail_recorded_at_comb_order(self):
        # Gamma' = 0 leaves every width at gamma: the tail is still the one
        # at the order the comb was built to
        kp = KernelParams(gamma_m=0.0, omega_max=1.3, nu=1.0, markovian=True)
        mol = MoleculeParams(gamma=0.025, nu=1.0, lam=1.0)
        th = ThermalState.from_occupation(1.0, 1.0)
        sp = absorption_discrete(mol, kp, th)
        nbar = sp.meta["nbar"]
        tail = _weight_tail(1.0, nbar, choose_n_max(1.0, nbar))
        assert tail > 0.0
        assert sp.meta["tail"] == tail

    def test_emission_mirror_involutive(self):
        grid = np.linspace(-1.0, 3.0, 101)
        vals = np.exp(-((grid - 0.7) ** 2))
        g1, v1 = mirror_emission(grid, vals)
        g2, v2 = mirror_emission(g1, v1)
        np.testing.assert_allclose(g2, grid, atol=1e-12)
        np.testing.assert_allclose(v2, vals, atol=1e-12)


# fig6a's molecule and kernel: its comb has 153, 171 and 190 lines at
# nbar = 1, 2, 3 and 1,326 at nbar = 50
FIG6A_MOL = MoleculeParams(gamma=0.02, nu=8.0, lam=0.3)
FIG6A_KP = KernelParams(gamma_m=0.48, omega_max=3.0, nu=8.0, markovian=True)
FIG6A_GRID = np.linspace(-0.6, 0.6, 4001)
PANEL_COMBS = [
    *[(f"fig4a-nbar{n}", FIG4B_MOL, KP, n, FIG4B_GRID) for n in (1, 2, 3, 50)],
    *[(f"fig6a-nbar{n}", FIG6A_MOL, FIG6A_KP, n, FIG6A_GRID)
      for n in (1, 2, 3, 50)],
]
EPS = np.finfo(float).eps


def _abs_sum(lines, det):
    """S(D) = sum_m w_m/|sigma_m - i D|, the size of every term at D, in
    blocks of about 2^20 (point, line) pairs."""
    pos, wt, wid = lines.T
    parts = max(1, det.size * len(pos) >> 20)
    return np.concatenate([np.sum(wt / np.hypot(wid, d[:, None] - pos),
                                  axis=1)
                           for d in np.array_split(det, parts)])


def _most_far_lines(lines, det):
    """The largest number of far lines any panel of `det` has, by the
    split's own rule, or 0 for a grid of one panel."""
    d = np.sort(det)
    panels = -(-len(d) // _PANEL)
    if panels < 2:
        return 0
    edges = np.arange(panels + 1) * len(d) // panels
    lo, hi = d[edges[:-1]], d[edges[1:] - 1]
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    pos, _, wid = lines.T
    far = np.hypot(wid, pos - c[:, None]) >= _FAR * r[:, None]
    return int(np.max(np.count_nonzero(far, axis=1)))


class TestPanelSum:
    """`LineSpectrum.response`'s panel route against `oracles.line_response`,
    which sums every line at every point.

    Bound, fixed before measuring: with S(D) = sum_m w_m/|sigma_m - i D|,
    which bounds the size of every term, |H - oracle| <= 64 eps S at
    every point.  The expansion's truncation leaves at most 3^-36 S < 0.05
    eps S.  Each term of a direct sum is formed within about 4 eps of its
    size, and numpy's pairwise reduction of L <= 22,578 terms adds an error
    growing as eps log2 L <= 15 eps of the sum of the sizes: the oracle
    and the route's near sum each stay within about 19 eps of their S.
    A far line enters the expansion's coefficients through terms whose
    sizes, summed over t, reach w/(|s| - r|u|) <= 2 w/|sigma - i D|
    (s = sigma - i c, r|u| <= |s|/3), so its part stays within 38 eps of
    S_far.  Together 19 + 38 + 0.05 < 64 eps S.
    """

    @pytest.mark.parametrize("name, mol, kp, nbar, grid", PANEL_COMBS,
                             ids=[c[0] for c in PANEL_COMBS])
    def test_panel_route_within_bound(self, name, mol, kp, nbar, grid):
        sp = absorption_discrete(mol, kp, ThermalState.from_occupation(
            nbar, mol.nu))
        rng = np.random.default_rng(30)
        lo, hi = grid[0], grid[-1]
        grids = {"even": grid,
                 "uneven": lo + (hi - lo) * np.linspace(0.0, 1.0,
                                                        len(grid)) ** 3,
                 "unsorted": rng.permutation(grid)}
        worst = 0.0
        for label, det in grids.items():
            assert _most_far_lines(sp.lines, det) > _TERMS, label
            h = sp.response(det)
            ratio = np.abs(h - line_response(sp.lines, det)) \
                / (EPS * _abs_sum(sp.lines, det))
            assert np.all(ratio <= 64.0), (label, float(np.max(ratio)))
            worst = max(worst, float(np.max(ratio)))
            np.testing.assert_array_equal(sp.evaluate(det),
                                          h.real / sp.gamma)
            assert sp.response(det).tobytes() == h.tobytes()
        point = grid[len(grid) // 3]
        h = sp.response(point)
        assert isinstance(h, complex)
        assert abs(h - line_response(sp.lines, point)) \
            <= 64.0 * EPS * _abs_sum(sp.lines, np.array([point]))[0]
        print(f"{name}: {len(sp.lines)} lines, worst |H - oracle| = "
              f"{worst:.2f} eps S")

    def test_non_finite_points_summed_directly(self):
        # a panel holding an infinite or NaN point sums every line, as a
        # grid of one panel does; Re H at +-inf is 0, as before the split
        sp = absorption_discrete(FIG4B_MOL, KP, ThermalState.from_occupation(
            3.0, 1.0))
        det = FIG4B_GRID.copy()
        det[[5, 700, 1500]] = np.inf, np.nan, -np.inf
        values = sp.evaluate(det)
        assert values[5] == values[1500] == 0.0 and np.isnan(values[700])
        h = sp.response(det)
        np.testing.assert_array_equal(h.real / sp.gamma, values)
        assert np.isnan(h[700].imag)
        ok = np.isfinite(det)
        err = np.abs(values[ok] * sp.gamma
                     - line_response(sp.lines, det[ok]).real)
        assert np.all(err <= 64.0 * EPS * _abs_sum(sp.lines, det[ok]))

    def test_bytes_do_not_depend_on_threads(self):
        # fig4a at nbar = 3 in two interpreters, BLAS and OpenMP at one and
        # at two threads: the route's reductions are numpy's own
        code = ("import hashlib, numpy as np\n"
                "from vibrolang import KernelParams, MoleculeParams, "
                "ThermalState\n"
                "from vibrolang.spectra import absorption_discrete\n"
                "sp = absorption_discrete(MoleculeParams(gamma=0.025, nu=1.0, "
                "lam=1.0), KernelParams(gamma_m=0.1, omega_max=1.3, nu=1.0), "
                "ThermalState.from_occupation(3.0, 1.0))\n"
                "h = sp.response(np.linspace(-4.0, 6.0, 2001))\n"
                "print(hashlib.sha256(h.tobytes()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["vibrolang"].__file__)))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120,
                                  check=True)
            digests.append(proc.stdout.strip())
        here = absorption_discrete(FIG4B_MOL, KP, ThermalState.from_occupation(
            3.0, 1.0)).response(FIG4B_GRID)
        assert digests == [hashlib.sha256(here.tobytes()).hexdigest()] * 2

    @pytest.mark.parametrize("lines", [[[0.0, np.nan, 1.0]],
                                       [[0.0, 1.0, np.nan]],
                                       [[0.0, 1.0, np.inf]],
                                       [[np.inf, 1.0, 1.0]],
                                       [[np.nan, 1.0, 1.0]]])
    def test_non_finite_lines_refused(self, lines):
        with pytest.raises(DomainError):
            LineSpectrum(lines=lines, gamma=0.1)

    @pytest.mark.parametrize("lines", [[0.0, 1.0, 1.0], [[0.0, 1.0]],
                                       [[[0.0, 1.0, 1.0]]], np.zeros((2, 4))])
    def test_lines_of_wrong_shape_refused(self, lines):
        with pytest.raises(DomainError):
            LineSpectrum(lines=lines, gamma=0.1)

    def test_empty_comb_is_zero(self):
        sp = LineSpectrum(lines=np.empty((0, 3)), gamma=0.1)
        np.testing.assert_array_equal(sp.response(FIG4B_GRID),
                                      np.zeros(len(FIG4B_GRID), complex))
        np.testing.assert_array_equal(sp.evaluate(FIG4B_GRID),
                                      np.zeros(len(FIG4B_GRID)))
        assert sp.response(0.5) == 0.0 and sp.evaluate(0.5) == 0.0


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

    @pytest.mark.parametrize("temp", [1.3, 0.0])
    def test_phonon_correlation_matches_dense_sum(self, temp):
        th = ThermalState(temperature=temp)
        ref, _ = _dense_band_sum(TAU_CAVITY, SD_6C, th)
        err = _max_rel(phonon_correlation(TAU_CAVITY, SD_6C, th), ref)
        assert err <= 1e-12, err


# fig5a's response grid (dt 1/24 to the horizon 12/gamma = 240) and its
# emitted correlation grid (to 30/omega_max = 10)
TAU_5A = np.arange(5761) / 24.0
TAU_5A_CORR = np.arange(0.0, 10.0, 1.0 / 24.0)
# fig6c's temperature and its full tau grid (dt 1/48 to 12/gamma = 1,200)
T_6C = 1.309235
TAU_6C = np.arange(57601) / 48.0

# the bound on |S - S_dense| / sum |w| of `_phase_sum`, fixed from the
# Gaussian-gridding error estimate: truncation and aliasing are below
# e^{-40} at an oversampling of 3 with 16 spread points a side; each weight
# passes through 32 spread terms and at most 18 FFT stages, whose rounding
# the band-edge deconvolution magnifies by at most 5.3, so 5.3 x 50 x
# 1.1e-16 = 3e-14, and the dense sum's own rounding is about as large
GRIDDING_BOUND = 1e-13


def _band_weights(sd, thermal, t):
    """Band-rule nodes of grid t and the cos and sin weights of
    `phonon_correlation`'s exponent, side by side."""
    omega, big_w = _density_rule(sd, thermal, float(np.max(np.abs(t))))
    return omega, np.column_stack(
        (big_w * thermal.coth_half_beta(omega) / omega**2, big_w / omega**2))


class TestBandSum:
    @pytest.mark.parametrize("temp", [0.3, 0.62, 1.0])
    def test_fig5a_correlation_starts_at_one(self, temp):
        # the worst cancellation of the presets: the cos band sum at
        # tau = 0 cancels against sum w_re, which is 60 to 200 here
        th = ThermalState(temperature=temp)
        _, w = _band_weights(SD_1D, th, TAU_5A_CORR)
        assert np.sum(np.abs(w[:, 0])) > 50.0
        c0 = phonon_correlation(TAU_5A_CORR, SD_1D, th)[0]
        assert abs(c0 - 1.0) <= 1e-12, c0

    @pytest.mark.parametrize("sd, temp, t, rows", [
        (SD_1D, 0.3, TAU_5A, slice(None)),
        (SD_1D, 1.0, TAU_5A, slice(None)),
        (SD_1D, 0.62, TAU_5A_CORR, slice(None)),
        (SD_6C, T_6C, TAU_6C, slice(None, None, 61)),
    ], ids=["fig5a-0.3", "fig5a-1.0", "fig5a-corr", "fig6c"])
    def test_exponent_within_gridding_bound(self, sd, temp, t, rows):
        # each weight column alone, as `dephasing_rate` sums it, and the
        # exponent's one column on the nodes +-omega, as
        # `phonon_correlation` sums it; the bound is on the weight gridded
        omega, w = _band_weights(sd, ThermalState(temperature=temp), t)
        _, h, _ = _even_grid(t, "t")
        for col in w.T:
            err = np.max(np.abs(_phase_sum(t, h, omega, col)[rows]
                                - _dense_phase_sum(t[rows], omega, col)))
            bound = GRIDDING_BOUND * np.sum(np.abs(col))
            assert err <= bound, err / bound * GRIDDING_BOUND
        a, b = 0.5 * (w[:, 0] - w[:, 1]), 0.5 * (w[:, 0] + w[:, 1])
        err = np.max(np.abs(_phase_sum(t, h, omega, a, b)[rows]
                            - _dense_phase_sum(t[rows], omega, a)
                            - _dense_phase_sum(t[rows], -omega, b)))
        bound = GRIDDING_BOUND * (np.sum(np.abs(a)) + np.sum(np.abs(b)))
        assert err <= bound, err / bound * GRIDDING_BOUND

    @pytest.mark.parametrize("grid", [
        np.array([2.5]), np.array([0.0, 0.75]), np.linspace(-1.0, 2.0, 3),
        np.linspace(0.0, 3.0, 7), np.linspace(-20.0, 5.0, 1001),
        np.linspace(30.0, -3.0, 241),
    ], ids=["n1", "n2", "n3", "n7", "negative-t0", "descending"])
    @pytest.mark.parametrize("sd, temp", [(SD_1D, 0.62), (SD_6C, T_6C)],
                             ids=["1d", "3d"])
    def test_edge_grids_match_dense_sum(self, grid, sd, temp):
        th = ThermalState(temperature=temp)
        corr, rate = _dense_band_sum(grid, sd, th)
        err = _max_rel(phonon_correlation(grid, sd, th), corr)
        assert err <= 1e-12, err
        err = _max_rel(dephasing_rate(grid, sd, th), rate)
        assert err <= 1e-12, err

    def test_full_fig6c_grid_matches_dense_sum(self):
        # 57,601 x 9,440, checked against the dense sums every 61st row
        th = ThermalState(temperature=T_6C)
        omega, _ = _band_weights(SD_6C, th, TAU_6C)
        assert len(omega) == 9440
        rows = np.r_[0:len(TAU_6C):61, len(TAU_6C) - 1]
        corr, rate = _dense_band_sum(TAU_6C, SD_6C, th, rows)
        err = _max_rel(phonon_correlation(TAU_6C, SD_6C, th)[rows], corr)
        assert err <= 1e-12, err
        err = _max_rel(dephasing_rate(TAU_6C, SD_6C, th)[rows], rate)
        assert err <= 1e-12, err


class TestGridContract:
    UNEVEN = np.array([0.0, 1.0, 3.0])

    def test_uneven_grids_rejected(self):
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
        with pytest.raises(DomainError):
            phonon_correlation(self.UNEVEN, sd, TH0)
        with pytest.raises(DomainError):
            dephasing_rate(self.UNEVEN, sd, TH0)
        with pytest.raises(DomainError):
            response_transform(self.UNEVEN, np.ones(11), 0.1, 0.1)

    @pytest.mark.parametrize("grid", [
        np.linspace(-0.6, 0.6, 4001), np.linspace(1000.0, 1000.001, 11),
        np.linspace(3.0, -2.0, 7), np.arange(0.0, 30.0 / 3.0, 1.0 / 24.0),
        np.arange(0.0, 100.0, 1e-3), np.arange(-5.0, 5.0, 0.1),
    ], ids=["cavity", "offset", "descending", "wing-tau", "long", "range"])
    def test_linspace_and_arange_grids_pass(self, grid):
        _, h, _ = _even_grid(grid, "test")
        assert abs(h - (grid[1] - grid[0])) <= 1e-9 * abs(h)

    def test_empty_one_and_scalar_grids(self):
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
        th = ThermalState(temperature=2.0)
        corr = np.exp(-0.3 * np.arange(101) * 0.1)
        for fn, args, kind in (
                (phonon_correlation, (sd, th), complex),
                (dephasing_rate, (sd, th), float),
                (response_transform, (corr, 0.05, 0.1), complex)):
            empty = fn(np.array([]), *args)
            assert isinstance(empty, np.ndarray) and empty.shape == (0,)
            one = fn(np.array([2.5]), *args)
            assert isinstance(one, np.ndarray) and one.shape == (1,)
            scalar = fn(2.5, *args)
            assert type(scalar) is kind
            assert scalar == one[0]


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

    def test_continuum_rate_matches_dense_sum(self):
        # criterion 8's grid and temperature
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
        th = ThermalState(temperature=10.4313)
        t = np.linspace(0.05, 60.0, 800)
        _, ref = _dense_band_sum(t, sd, th)
        err = _max_rel(dephasing_rate(t, sd, th), ref)
        assert err <= 1e-12, err


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

    @pytest.mark.parametrize("n_det", [4001, 1201])
    def test_chirp_z_matches_dense_simpson(self, n_det):
        # the cavity workload's sizes: 9,601 samples at fig6b's dt = 1/64
        dt = 1.0 / 64.0
        t = np.arange(9601) * dt
        corr = phonon_correlation(t, SD_6C, ThermalState(temperature=1.3)) \
            * np.exp(-1j * 0.4 * t)
        det = np.linspace(-0.6, 0.6, n_det)
        ref = _simpson_response_transform(det, corr, 0.02, dt)
        err = _max_rel(response_transform(det, corr, 0.02, dt), ref)
        assert err <= 1e-12, err

    @pytest.mark.parametrize("lam", [4.0, 6.0])
    def test_full_route_matches_discrete_across_the_comb(self, lam):
        # both routes sum one comb of Lorentzians: line by line, or as the
        # Simpson transform of its correlation at step dt to 12/gamma.  The
        # horizon leaves out e^{-12 - lam^2}/gamma^2.  Simpson's alternating
        # weights put a copy of each line, a third of its size, pi/dt away,
        # and pi/dt covers the grid plus the comb's order times nu'; so the
        # copies of the lines that carry the weight (orders lam^2 +-
        # 4 lam) stay >= 98 from this grid, where they sum to at most
        # (gamma + lam^2 Gamma'/2) / (3 gamma 98^2) = 1.5e-3, against a
        # peak near pi / (gamma sqrt(2 pi) lam) >= 8: 2e-4 of it.  At the
        # fixed dt = 1/8 the routes parted by 33% and 31% of the peak.  The
        # vibron factor is transformed as with an sd (fig6b, fig6c), on
        # response_route's grid for a coupled density; its omega_max of 1.3
        # leaves dt to the comb's reach.
        mol = MoleculeParams(gamma=0.025, nu=1.0, lam=lam)
        grid = np.linspace(-2.0, 60.0, 3101)
        ref = absorption_discrete(mol, KP, TH0).evaluate(grid)
        sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=1.3)
        dt = response_route(grid, mol, KP, sd, TH0).steps.dt
        n = int(np.ceil(_HORIZON / mol.gamma / dt)) + 1
        corr = displacement_correlation_vibron(np.arange(n) * dt, mol, KP,
                                               TH0)
        vals = response_transform(grid, corr, mol.gamma, dt).real / mol.gamma
        err = np.max(np.abs(vals - ref)) / np.max(ref)
        assert err <= 1e-3, err

    @pytest.mark.parametrize("lam", [4.0, 6.0])
    def test_full_route_without_sd_is_discrete(self, lam):
        # without a phonon density the full route is the comb's response:
        # one comb, one sum.  The Simpson transform would leave its images'
        # tails on this grid, 4.2e-3 and 2.6e-2 of the peak.
        mol = MoleculeParams(gamma=0.025, nu=1.0, lam=lam)
        grid = np.linspace(-2.0, 3.0, 201)
        vals, _ = absorption_full(response_route(grid, mol, KP, None, TH0))
        np.testing.assert_array_equal(
            vals, absorption_discrete(mol, KP, TH0).evaluate(grid))

    def test_full_spectrum_resolution_guard(self):
        # check_resolution, which the CLI runs once for each absorption or
        # wing point, refuses a grid step over the line's half width gamma
        mol = MoleculeParams(gamma=1e-4, nu=1.0, lam=0.0)
        with pytest.raises(ResolutionError):
            check_resolution(np.linspace(-1, 1, 11), mol.gamma)

    def test_full_spectrum_two_level_limit(self):
        mol = MoleculeParams(gamma=0.05, nu=1.0, lam=0.0)
        grid = np.linspace(-0.5, 0.5, 101)
        vals, meta = absorption_full(response_route(grid, mol, None, None,
                                                    TH0))
        np.testing.assert_allclose(
            vals, 1.0 / (0.05**2 + grid**2), rtol=1e-4
        )


# ---------------------------------------------------------------------------
# the zero-phonon comb summed exactly, the phonon wing transformed


def _preset_points():
    """(id, grid, molecule, kernel, sd, thermal) of every preset point with
    an sd, and of the cavity workload's two shortened configs at the ends
    of its ranges."""
    def grid(cfg):
        g = cfg["grid"]
        return np.linspace(g["min"], g["max"], g["n"])

    def cavity(cfg, **mol):
        m = MoleculeParams(**dict(cfg["molecule"], **mol))
        return m, KernelParams(**cfg["kernel"], nu=m.nu,
                               markovian=cfg["markovian"])

    points = []
    for name in ("fig5a", "fig5b"):
        cfg = load_preset(name)
        mol = MoleculeParams(gamma=cfg["gamma"], nu=1.0, lam=0.0)
        points += [(f"{name}-T{t:g}", grid(cfg), mol, None,
                    SpectralDensity(**cfg["sd"]), ThermalState(t))
                   for t in cfg["sweep"]["values"]]
    cfg = load_preset("fig6b")
    mol, kp = cavity(cfg)
    points += [(f"fig6b-nbar{nbar:g}", grid(cfg), mol, kp,
                SpectralDensity(**cfg["sd"]),
                ThermalState.from_occupation(nbar, mol.nu))
               for nbar in cfg["sweep"]["values"]]
    points.append(("cavity-fig6b", grid(cfg), *cavity(cfg, gamma=0.08),
                   SpectralDensity(**cfg["sd"]),
                   ThermalState.from_occupation(0.5, mol.nu)))
    cfg = load_preset("fig6c")
    points.append(("fig6c", grid(cfg), *cavity(cfg),
                   SpectralDensity(**cfg["sd"]),
                   ThermalState(cfg["temperature"])))
    points.append(("cavity-fig6c", grid(cfg), *cavity(cfg, gamma=0.06),
                   SpectralDensity(**cfg["sd"]), ThermalState(1.6)))
    return points


PRESET_POINTS = _preset_points()
# old ROADMAP item 5's comb, lam = 4 and 6 on -2...3, now with a coupled sd
COMB_POINTS = [
    (f"comb-lam{lam:g}", np.linspace(-2.0, 3.0, 201),
     MoleculeParams(gamma=0.025, nu=1.0, lam=lam), KP,
     SpectralDensity(kind="3d", coupling=0.03, omega_max=1.3), TH0)
    for lam in (4.0, 6.0)]


def _oracle_bound(grid, mol, kp, sd, thermal, steps, scale):
    """The largest |H - H_ref| that the argument allows, H the split route
    and H_ref the whole-product oracle at dt/8 to 24/gamma:

    - the wing's cut tail beyond T', the last point Simpson reaches:
      int_T'^inf e^{-gamma tau} min(f expm1(V/tau), 1 - f) dtau, at most
      the bracket at T' times e^{-gamma T'}/gamma; the oracle's tail,
      e^{-gamma T_o}/gamma;
    - Simpson's error, its images included: at most (dt^4/72) int |y^(4)|
      for each real part (Peano kernel).  y = e^{(i Delta - gamma) tau}
      B (D - f) is a positive mixture of e^{(i(Delta - p + x) - g) tau}:
      the comb's lines (position p, weight w, width g >= gamma) times the
      phonon measure of D - f, of mass 1 - f and fourth moment at most
      D's, m4 (a compound Poisson measure, from its cumulants).  With
      |a + b|^4 <= 8 (|a|^4 + |b|^4), int |y^(4)| <= (8/gamma) sum w
      ((1 - f) ((|Delta| + |p|)^2 + g^2)^2 + m4).  The oracle's whole
      product has mass 1 in place of 1 - f, at dt/8;
    - the chirp-z transform's rounding, 1e-12 of the scale
      (`test_chirp_z_matches_dense_simpson`)."""
    gamma, dt = mol.gamma, steps.dt
    lines = absorption_discrete(mol, kp, thermal).lines \
        if mol.lam > 0 and kp is not None else np.array([[0.0, 1.0, gamma]])
    pos, w, g = lines.T
    omega, big_w = _density_rule(sd, thermal, (steps.n - 1) * dt)
    w_re = big_w * thermal.coth_half_beta(omega) / omega**2
    w_im = big_w / omega**2
    f = math.exp(-np.sum(w_re))
    k1, k2, k3, k4 = (-np.sum(w_im * omega), np.sum(w_re * omega**2),
                      -np.sum(w_im * omega**3), np.sum(w_re * omega**4))
    m4 = k4 + 4 * k3 * k1 + 3 * k2**2 + 6 * k2 * k1**2 + k1**4
    a = ((np.max(np.abs(grid)) + np.abs(pos)) ** 2 + g * g) ** 2
    peano = math.sqrt(2.0) * 8.0 / (72.0 * gamma)
    simpson = peano * dt**4 * (np.sum(w * ((1 - f) * a + m4))
                               + np.sum(w * (a + m4)) / 8**4)
    t_cut = ((steps.n if steps.n % 2 else steps.n - 1) - 1) * dt
    with np.errstate(over="ignore"):
        zpl = min(f * np.expm1(_band_variation(sd, thermal)[0] / t_cut),
                  1 - f)
    tails = (zpl * math.exp(-gamma * t_cut)
             + math.exp(-24.0 + gamma * dt / 8)) / gamma
    return tails + simpson + 1e-12 * scale


class TestWingSplit:
    @pytest.mark.parametrize("case", PRESET_POINTS + COMB_POINTS,
                             ids=lambda c: c[0])
    def test_matches_whole_product_oracle(self, case):
        # the split route within its bound of the whole-product oracle at
        # dt/8 to 24/gamma, and no further from it than the whole product
        # at the same dt to 12/gamma
        _, grid, mol, kp, sd, th = case
        route = response_route(grid, mol, kp, sd, th)
        steps = route.steps
        h, meta = molecular_response(route)
        ref = whole_product_response(grid, mol, kp, sd, th, steps.dt / 8,
                                     24.0 / mol.gamma)
        whole = whole_product_response(grid, mol, kp, sd, th, steps.dt,
                                       _HORIZON / mol.gamma)
        scale = np.max(np.abs(ref))
        err = np.max(np.abs(h - ref))
        assert err <= _oracle_bound(grid, mol, kp, sd, th, steps, scale), \
            err / scale
        assert err <= np.max(np.abs(whole - ref)), err / scale
        assert meta["t_horizon"] == steps.t_horizon <= _HORIZON / mol.gamma
        assert meta["tail_bound"] == steps.tail_bound <= math.exp(-_HORIZON)

    @pytest.mark.parametrize("case", [
        case for case in PRESET_POINTS if case[0] in ("fig5b-T0", "fig6c")],
        ids=lambda c: c[0])
    def test_wing_reads_one_phonon_correlation(self, case, monkeypatch):
        # the wing's D is phonon_correlation's, called once on the route's
        # time grid, and split at the route's f_DW, with and without a
        # vibron
        _, grid, mol, kp, sd, th = case
        route = response_route(grid, mol, kp, sd, th)
        calls = []

        def spy(tau, *args):
            calls.append((tau, phonon_correlation(tau, *args)))
            return calls[-1][1]

        monkeypatch.setattr(spectra, "phonon_correlation", spy)
        _, meta = molecular_response(route)
        assert len(calls) == 1
        tau, corr = calls[0]
        np.testing.assert_array_equal(
            tau, np.arange(route.steps.n) * route.steps.dt)
        assert meta["wing_tail"] == abs(corr[-1] - route.f_dw)

    @pytest.mark.parametrize("case", PRESET_POINTS, ids=lambda c: c[0])
    def test_tail_bound_against_dense_sum(self, case):
        # |D(tau) - f_DW| <= f_DW expm1(V/tau) on [T, 24/gamma], D from the
        # uniform midpoint sum and V from the band rule's nodes; with
        # |B| <= 1 the horizon's bound covers the wing's last point
        _, grid, mol, kp, sd, th = case
        route = response_route(grid, mol, kp, sd, th)
        steps = route.steps
        tau = np.linspace(steps.t_horizon, 24.0 / mol.gamma, 49)
        corr = np.concatenate([_riemann_phonon_correlation(
            tau[i:i + 7], sd, th, n_mid=200000) for i in range(0, 49, 7)])
        f = debye_waller(sd, th)
        with np.errstate(over="ignore"):
            bound = f * np.expm1(_band_variation(sd, th)[0] / tau)
        assert np.all(np.abs(corr - f) <= bound), \
            np.max(np.abs(corr - f) / bound)
        _, meta = molecular_response(route)
        assert meta["wing_tail"] * math.exp(-mol.gamma * steps.t_horizon) \
            <= steps.tail_bound
