"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion before asserting,
so the whole gate can be read off a plain `pytest -v -s` run.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import special

from vibrolang import (
    CavityParams,
    DiscreteBath,
    KernelParams,
    MoleculeParams,
    SpectralDensity,
    ThermalState,
    TrajectoryConfig,
    simulate,
    transmission,
)
from vibrolang.cavity import (
    dip_width,
    effective_rabi,
    peak_separation,
    polariton_populations,
    polariton_rates,
)
from vibrolang.kernels import (
    effective_params,
    gamma_freq,
    momentum_correlation,
    momentum_correlation_numeric,
)
from vibrolang.microsim import energy_envelope, fit_decay_rate
from vibrolang.model import chain_eigenmodes, vibron_phonon_couplings
from vibrolang.spectra import (
    absorption_bessel,
    absorption_discrete,
    absorption_full,
    debye_waller,
    dephasing_rate,
    franck_condon,
    response_route,
    vibron_lines,
)

from oracles import (
    gamma_time,
    kernel_fourier_numeric,
    single_mode_dephasing_rate,
)

warnings.filterwarnings("ignore", category=UserWarning)


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num}: {detail}"


def _bath_for(gamma_m, omega_max, n_cells, **kw):
    k0 = (omega_max / 2.0) ** 2
    dk = k0 * math.sqrt(4.0 * gamma_m / omega_max)
    return DiscreteBath(n_cells=n_cells, k0=k0, m0=1.0, dk=dk, **kw)


def test_criterion_1_markovian_relaxation():
    # N=500, omega_max=7 nu, Gamma_m=nu/20, Q=50: E(t)/E(0) vs exp(-Gm t),
    # RMS relative error <= 10% over [0, 60], runtime <= 30 s single-threaded
    gm, wm = 0.05, 7.0
    bath = _bath_for(gm, wm, 500, qfactor=50.0)
    t0 = time.time()
    traj = simulate(1.0, bath, (0,), TrajectoryConfig(t_max=60.0))
    runtime = time.time() - t0
    # the bare-quadrature energy breathes at twice the crystal-shifted
    # frequency; compare the one-period envelope against the Markov law
    nu_s = gm * wm / 2.0
    nu_shift = math.sqrt(1.0 - nu_s)
    tv, env = energy_envelope(traj.times, traj.E, math.pi / nu_shift)
    rel = env / traj.E[0]
    theory = np.exp(-gm * tv)
    rms = float(np.sqrt(np.mean(((rel - theory) / theory) ** 2)))
    ok = rms <= 0.10 and runtime <= 30.0
    _report(1, "Markovian relaxation",
            ok, f"RMS rel err {rms:.4f} (<=0.10), runtime {runtime:.1f}s")


def test_criterion_2_non_markovian_relaxation():
    # omega_max = nu: fitted rate < 0.7 Gamma_m; E(100) >= 2x Markov residual
    gm = 0.05
    bath = _bath_for(gm, 1.0, 500)
    traj = simulate(1.0, bath, (0,), TrajectoryConfig(t_max=100.0,
                                                       store_every=4))
    sel = traj.times <= 60.0
    slope, _ = np.polyfit(traj.times[sel], np.log(traj.E[sel] / traj.E[0]), 1)
    fitted = -slope
    residual = traj.E[-1] / traj.E[0]
    markov = math.exp(-gm * 100.0)
    ok = fitted < 0.7 * gm and residual >= 2.0 * markov
    _report(2, "non-Markovian relaxation", ok,
            f"fitted rate {fitted:.4f} (<{0.7*gm:.4f}), "
            f"residual {residual:.3f} vs 2x Markov {2*markov:.4f}")


def test_criterion_3_kernel_oracles():
    gm, wm = 0.05, 7.0
    kp = KernelParams(gamma_m=gm, omega_max=wm, nu=1.0)
    # discrete chain sum vs continuum Bessel kernel on [0, 30/omega_max]
    bath = _bath_for(gm, wm, 500)
    omega = chain_eigenmodes(bath)
    alpha = vibron_phonon_couplings(bath, nu=1.0)
    t = np.linspace(0.0, 30.0 / wm, 600)
    disc = np.sum(
        (alpha[None, :] ** 2 / omega[None, :]) * np.cos(omega[None, :] * t[:, None]),
        axis=1,
    ) * 1.0  # nu = 1
    cont = gamma_time(t, kp)
    l2 = np.linalg.norm(disc - cont) / np.linalg.norm(cont)
    # Fourier oracle vs closed forms, in-band
    w_single = np.linspace(-0.92 * wm, 0.92 * wm, 9)
    err_s = np.max(np.abs(
        kernel_fourier_numeric(w_single, kp, t_max=3000.0 / wm)
        - gamma_freq(w_single, kp))) / gm
    errs_c = []
    for d in (2, 4, 6):
        w = np.linspace(-0.92 * wm, 0.92 * wm, 7)
        errs_c.append(np.max(np.abs(
            kernel_fourier_numeric(w, kp, d=d, t_max=3000.0 / wm)
            - gamma_freq(w, kp, d))) / gm)
    err_c = max(errs_c)
    ok = l2 <= 0.01 and err_s <= 1e-3 and err_c <= 1e-3
    _report(3, "kernel oracle equivalence", ok,
            f"discrete-vs-continuum L2 {l2:.4f} (<=0.01), FT err single "
            f"{err_s:.1e}, collective {err_c:.1e} (<=1e-3)")


def test_criterion_4_collective_protection():
    # deep Markovian regime, Q=inf: P- retains >= 95% over 3/Gamma_m while
    # the P+ fitted rate is within 20% of 2 Gamma_m
    gm, wm, n, j = 0.02, 24.0, 1250, 1
    bath = _bath_for(gm, wm, n)
    t_max = 3.0 / gm
    tr_m = simulate(1.0, bath, (-j, j), TrajectoryConfig(
        t_max=t_max, q0=(1.0, -1.0), store_every=8))
    tr_p = simulate(1.0, bath, (-j, j), TrajectoryConfig(
        t_max=t_max, q0=(1.0, 1.0), store_every=8))
    nu_s = gm * wm / 2.0
    period = math.pi / math.sqrt(1.0 - nu_s)
    tv, env = energy_envelope(tr_m.times, tr_m.e_minus, period)
    retention = env[-1] / env[0]
    rate_p = fit_decay_rate(tr_p.times, tr_p.e_plus, 2.0 * gm)
    ratio = rate_p / (2.0 * gm)
    ok = retention >= 0.95 and abs(ratio - 1.0) <= 0.20
    _report(4, "collective protection", ok,
            f"E- retention {retention:.3f} (>=0.95), "
            f"E+ rate / 2Gamma_m = {ratio:.3f} (within 20%)")


def _momentum_closure_l2(gamma_m):
    """Relative L2 of the closed form against the quadrature oracle over
    [0, 6/Gamma'] (80 points), at nbar = 0 and nbar = 1."""
    kp = KernelParams(gamma_m=gamma_m, omega_max=1.3, nu=1.0)
    _, gamma_p = effective_params(kp)
    tau = np.linspace(0.0, 6.0 / gamma_p, 80)
    errs = []
    for nbar in (0.0, 1.0):
        th = (ThermalState.from_occupation(nbar, 1.0) if nbar > 0
              else ThermalState(temperature=0.0))
        num = momentum_correlation_numeric(tau, kp, th)
        ana = momentum_correlation(tau, kp, th)
        errs.append(float(np.linalg.norm(ana - num) / np.linalg.norm(num)))
    return errs


def test_criterion_5_momentum_correlation_closure():
    # The single-pole closed form is leading order in Gamma_m/nu: its error
    # against the quadrature oracle is first order in the friction.  Check
    # (a) <= 2% relative L2 over [0, 6/Gamma'] at Gamma_m = nu/100, and
    # (b) first-order convergence from the figure friction Gamma_m = nu/10:
    #     e(nu/100) / e(nu/10) <= 0.2 at both temperatures.
    coarse = _momentum_closure_l2(0.1)
    fine = _momentum_closure_l2(0.01)
    ratios = [f / c for f, c in zip(fine, coarse)]
    ok = max(fine) <= 0.02 and max(ratios) <= 0.2
    _report(5, "momentum-correlation closure", ok,
            f"L2 at Gm=0.01 nbar=0: {fine[0]:.4f}, nbar=1: {fine[1]:.4f} "
            f"(<=0.02); at Gm=0.1 {coarse[0]:.4f}, {coarse[1]:.4f}; "
            f"ratio {ratios[0]:.3f}, {ratios[1]:.3f} (<=0.2)")


def test_criterion_6_spectrum_identities():
    kp = KernelParams(gamma_m=0.1, omega_max=1.3, nu=1.0)
    th0 = ThermalState(temperature=0.0)
    # (a) lam = 0 reduces to the two-level Lorentzian
    mol0 = MoleculeParams(gamma=0.025, nu=1.0, lam=0.0)
    grid = np.linspace(-4.0, 6.0, 2001)
    vals = absorption_discrete(mol0, kp, th0).evaluate(grid)
    err_a = float(np.max(np.abs(
        vals - 1.0 / (0.025**2 + grid**2)) * (0.025**2 + grid**2)))
    # (b) ZPL resonance value f_FC / gamma^2 in the Gamma' >> gamma regime
    molb = MoleculeParams(gamma=1e-6, nu=1.0, lam=1.0)
    errs_b = []
    for nbar in (0.0, 1.0):
        thb = (ThermalState.from_occupation(nbar, 1.0) if nbar > 0 else th0)
        val = absorption_discrete(molb, kp, thb).evaluate(0.0)
        ref = franck_condon(1.0, nbar) / 1e-12
        errs_b.append(abs(val - ref) / ref)
    err_b = max(errs_b)
    # (c) double sum vs Bessel single sum at small resummation argument
    lam, nbar = 0.3, 0.24
    arg = 2.0 * lam**2 * math.sqrt(nbar * (nbar + 1.0))
    assert arg <= 0.1
    thc = ThermalState.from_occupation(nbar, 1.0)
    molc = MoleculeParams(gamma=0.2, nu=1.0, lam=lam)
    g2 = np.linspace(-3.0, 3.0, 801)
    d = absorption_discrete(molc, kp, thc).evaluate(g2)
    b = absorption_bessel(molc, kp, thc).evaluate(g2)
    err_c = float(np.max(np.abs(d - b)) / np.max(d))
    # (d) weight completeness
    lines = vibron_lines(1.0, 2.0, 1.0, 0.05, 0.01)
    err_d = abs(float(np.sum(lines[:, 1])) - 1.0)
    ok = err_a <= 1e-10 and err_b <= 1e-3 and err_c <= 1e-3 and err_d <= 1e-8
    _report(6, "spectrum identities", ok,
            f"(a) {err_a:.1e}<=1e-10, (b) {err_b:.1e}<=1e-3, "
            f"(c) {err_c:.1e}<=1e-3, (d) {err_d:.1e}<=1e-8")


def test_criterion_7_phonon_wing():
    kp = KernelParams(gamma_m=0.1, omega_max=1.3, nu=1.0)
    sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
    gam = 0.05
    mol = MoleculeParams(gamma=gam, nu=1.0, lam=0.0)
    grid = np.linspace(-4.0, 4.0, 8001)
    w0 = 10.0 * gam

    def wing_sides(thermal):
        vals, meta = absorption_full(response_route(grid, mol, kp, sd,
                                                    thermal))
        wing = vals - meta["f_DW"] / (gam**2 + grid**2)
        red = np.trapezoid(np.abs(wing[grid < -w0]), grid[grid < -w0])
        blue = np.trapezoid(np.abs(wing[grid > w0]), grid[grid > w0])
        return red, blue

    red0, blue0 = wing_sides(ThermalState(temperature=0.0))
    leak = red0 / (red0 + blue0)
    red_h, blue_h = wing_sides(ThermalState(temperature=10.4313))
    asym = abs(blue_h - red_h) / (blue_h + red_h)
    # f_DW strictly decreasing in T and in the coupling on the figure grid
    temps = np.linspace(0.0, 13.0, 53)
    mono_t = all(
        np.all(np.diff([debye_waller(
            SpectralDensity(kind="3d", coupling=c, omega_max=3.0),
            ThermalState(temperature=t)) for t in temps]) < 0)
        for c in (0.01, 0.055, 0.1)
    )
    mono_l = bool(np.all(np.diff([debye_waller(
        SpectralDensity(kind="3d", coupling=c, omega_max=3.0),
        ThermalState(temperature=5.0)) for c in np.linspace(0.01, 0.1, 10)])
        < 0))
    ok = leak <= 0.01 and asym <= 0.10 and mono_t and mono_l
    _report(7, "phonon wing", ok,
            f"T=0 red leakage {leak:.4f} (<=0.01), high-T asymmetry "
            f"{asym:.4f} (<=0.10), f_DW monotone in T/lam: {mono_t}/{mono_l}")


def test_criterion_8_dephasing():
    th = ThermalState.from_occupation(0.7, 2.0)
    t = np.linspace(1e-4, 0.05 / 2.0, 50)
    exact = single_mode_dephasing_rate(t, 0.3, 2.0, th)
    law = 0.3**2 * (0.7 + 0.5) * 2.0**2 * t
    err_short = float(np.max(np.abs(exact - law) / law))
    sd = SpectralDensity(kind="3d", coupling=0.02, omega_max=3.0)
    tt = np.linspace(0.05, 60.0, 800)
    g = dephasing_rate(tt, sd, ThermalState(temperature=10.4313))
    late = float(np.max(np.abs(g[tt >= 50.0 / 3.0])) / np.max(np.abs(g)))
    ok = err_short <= 0.01 and late <= 0.05
    _report(8, "dephasing", ok,
            f"short-time law err {err_short:.2e} (<=0.01), "
            f"continuum late/max {late:.4f} (<=0.05)")


def test_criterion_9_cavity():
    # polariton splitting vs 2 g_eff for nbar in {0..3}, with and without the
    # 3D phonon factor, plus the Purcell antiresonance width and depth
    nu, lam_v = 8.0, 0.3
    kp = KernelParams(gamma_m=0.48, omega_max=3.0, nu=nu, markovian=True)
    mol = MoleculeParams(gamma=0.02, nu=nu, lam=lam_v)
    cav = CavityParams(delta_c=0.0, kappa=0.06, g=0.3)
    grid = np.linspace(-0.6, 0.6, 4001)
    sd = SpectralDensity(kind="3d", coupling=0.003, omega_max=3.0)
    worst = 0.0
    for nbar in (0.0, 1.0, 2.0, 3.0):
        th = (ThermalState.from_occupation(nbar, nu) if nbar > 0
              else ThermalState(temperature=0.0))
        _, t2, _ = transmission(grid, cav,
                                response_route(grid, mol, kp, None, th))
        g_eff = effective_rabi(cav.g, franck_condon(lam_v, nbar))
        worst = max(worst, abs(peak_separation(grid, t2) - 2 * g_eff)
                    / (2 * g_eff))
        _, t2p, _ = transmission(grid, cav,
                                 response_route(grid, mol, kp, sd, th))
        g_eff_p = effective_rabi(cav.g, franck_condon(lam_v, nbar),
                                 debye_waller(sd, th))
        worst = max(worst, abs(peak_separation(grid, t2p) - 2 * g_eff_p)
                    / (2 * g_eff_p))
    # Purcell preset: g = 0.35 kappa, lam = 0.8, 3D coupling 0.2, T = 10 K
    kp6 = KernelParams(gamma_m=0.48, omega_max=3.0, nu=6.0, markovian=True)
    gam = 0.01
    mol_p = MoleculeParams(gamma=gam, nu=6.0, lam=0.8)
    mol_2l = MoleculeParams(gamma=gam, nu=6.0, lam=0.0)
    cav_p = CavityParams(delta_c=0.0, kappa=2.0, g=0.7)
    th_p = ThermalState(temperature=1.309235)
    sd_p = SpectralDensity(kind="3d", coupling=0.2, omega_max=3.0)
    pg = np.linspace(-0.6, 0.6, 1201)
    _, t2_2l, _ = transmission(pg, cav_p,
                               response_route(pg, mol_2l, kp6, None, th_p))
    _, t2_ph, _ = transmission(pg, cav_p,
                               response_route(pg, mol_p, kp6, sd_p, th_p))
    c_eff = cav_p.g**2 * franck_condon(0.8, th_p.occupation(6.0)) \
        * debye_waller(sd_p, th_p) / (cav_p.kappa * gam)
    width = dip_width(pg, t2_ph)
    width_err = abs(width - gam * (1 + c_eff)) / (gam * (1 + c_eff))
    depth_ok = (np.max(t2_ph) - np.min(t2_ph)) < (np.max(t2_2l)
                                                  - np.min(t2_2l))
    ok = worst <= 0.05 and width_err <= 0.10 and depth_ok
    _report(9, "cavity", ok,
            f"worst splitting err {worst:.4f} (<=0.05), Purcell width err "
            f"{width_err:.4f} (<=0.10), reduced depth: {depth_ok}")


def test_criterion_10_polariton_cross_talk():
    kp = KernelParams(gamma_m=0.48, omega_max=3.0, nu=6.0)
    mol = MoleculeParams(gamma=0.02, nu=6.0, lam=0.3)
    # (a) kappa_-/kappa_+ = nbar/(nbar+1) exactly
    err_a = 0.0
    for nbar in (0.3, 1.0, 4.2):
        th = ThermalState.from_occupation(nbar, 6.0)
        k_p, k_m = polariton_rates(mol, kp, th, 3.0, -3.0, form="main-text")
        err_a = max(err_a, abs(k_m / k_p - nbar / (nbar + 1.0)))
    # (b) rate-equation closed forms
    t = np.linspace(0.0, 6.0, 100)
    pu, pl = polariton_populations(t, (1.0, 0.5), (0.3, 0.2), (0.0, 0.0))
    err_b = max(float(np.max(np.abs(pu - np.exp(-0.6 * t)))),
                float(np.max(np.abs(pl - 0.5 * np.exp(-0.4 * t)))))
    gp, gm_, kpl = 0.3, 0.2, 0.4
    pu2, pl2 = polariton_populations(t, (1.0, 0.0), (gp, gm_), (kpl, 0.0))
    a, b = 2 * gp + kpl, 2 * gm_
    err_b = max(err_b,
                float(np.max(np.abs(pu2 - np.exp(-a * t)))),
                float(np.max(np.abs(
                    pl2 - kpl / (a - b) * (np.exp(-b * t) - np.exp(-a * t))))))
    # (c) on-resonance kappa_+ = lam^2 nu^2 (nbar+1)/Gamma_m
    nbar = 0.9
    th = ThermalState.from_occupation(nbar, 6.0)
    k_p, _ = polariton_rates(mol, kp, th, 3.0, -3.0, form="main-text")
    ref = mol.lam**2 * kp.nu**2 * (nbar + 1.0) / kp.gamma_m
    err_c = abs(k_p - ref) / ref
    ok = err_a <= 1e-14 and err_b <= 1e-10 and err_c <= 1e-14
    _report(10, "polariton cross-talk", ok,
            f"ratio err {err_a:.1e}, closed-form err {err_b:.1e}, "
            f"on-resonance err {err_c:.1e}")
