"""Self-tests of the benchmark's correctness checks.

    python3 bench/selftest.py

Every check is fed a synthetic output that is right, which it must accept,
and one that is deliberately wrong, which it must reject.  worker.py runs
the self-tests of a workload's checks before it measures, so a check that
has stopped rejecting wrong output stops the benchmark.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import checks as chk


class SelfTestFailed(Exception):
    pass


def accepts(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except chk.CheckFailed as exc:
        raise SelfTestFailed(f"{fn.__name__} rejected a right output: {exc}")


def rejects(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except chk.CheckFailed:
        return
    raise SelfTestFailed(f"{fn.__name__} accepted a wrong output")


# ---------------------------------------------------------------------------
# chain


def chain():
    nu, gm = 1.0, 0.05
    t = np.arange(0.0, 100.0, 0.05)
    breathe = 1.0 + 0.1 * np.cos(2.0 * nu * t)
    accepts(chk.check_markov_envelope, t, 0.5 * np.exp(-gm * t) * breathe, nu, gm)
    rejects(chk.check_markov_envelope, t, 0.5 * np.exp(-1.25 * gm * t) * breathe,
            nu, gm)
    accepts(chk.check_suppressed_decay, t, np.exp(-0.3 * gm * t) * breathe, nu, gm)
    rejects(chk.check_suppressed_decay, t, np.exp(-gm * t) * breathe, nu, gm)
    accepts(chk.check_protected_mode, t, np.exp(-2e-4 * t) * breathe, nu)
    rejects(chk.check_protected_mode, t, np.exp(-2e-3 * t) * breathe, nu)
    accepts(chk.check_superradiant_rate, t, np.exp(-2.0 * gm * t) * breathe, nu, gm)
    # an E+ decay rate off by 25%
    rejects(chk.check_superradiant_rate, t, np.exp(-2.5 * gm * t) * breathe, nu, gm)


# ---------------------------------------------------------------------------
# wing


def _gauss_legendre_3d(sd, g, n=400):
    """int J g dw for the 3d density by a Gauss-Legendre rule in theta,
    a second oracle for `band_integral`."""
    x, w = np.polynomial.legendre.leggauss(n)
    th = 0.25 * math.pi * (x + 1.0)
    om = sd["omega_max"] * np.sin(th)
    jac = sd["coupling"] * om**3 * sd["omega_max"] * np.cos(th) ** 2
    return float(np.sum(0.25 * math.pi * w * jac * g(om)))


def _wing_spectrum(grid, gamma, positions, weights):
    return np.sum(weights / (gamma**2 + (grid[:, None] - positions) ** 2), axis=1)


def wing():
    sd3 = {"kind": "3d", "coupling": 0.02, "omega_max": 3.0, "omega_min": 0.0}
    sd1 = {"kind": "1d", "coupling": 0.03, "omega_max": 3.0, "omega_min": 0.0003}
    temp = 2.0
    exponent = _gauss_legendre_3d(sd3, lambda w: 1.0 / np.tanh(w / (2 * temp)) / w**2)
    good = math.exp(-exponent)
    accepts(chk.check_dw_quad, good, sd3, temp)
    # an f_DW off by 1e-6 relative
    rejects(chk.check_dw_quad, good * (1 + 1e-6), sd3, temp)
    f0 = math.exp(-0.02 * 9.0 / 3.0)
    accepts(chk.check_dw_zero_temperature, f0, 0.02, 3.0)
    rejects(chk.check_dw_zero_temperature, f0 * (1 + 1e-6), 0.02, 3.0)
    temps, cs = np.array([0.0, 1.0, 2.0]), np.array([0.01, 0.02])
    table = np.exp(-np.outer(1.0 + temps, cs))
    accepts(chk.check_dw_monotone, temps, cs, table)
    bad = table.copy()
    bad[2, 0] = bad[1, 0]
    rejects(chk.check_dw_monotone, temps, cs, bad)

    for sd in (sd3, sd1):
        shift = chk.band_integral(sd, lambda w: 1.0 / w)
        accepts(chk.check_polaron_shift, shift, sd)
        rejects(chk.check_polaron_shift, shift * (1 + 1e-6), sd)

    # a zero-phonon line plus a one-phonon wing on (0, 3]
    gamma = 0.05
    grid = np.linspace(-3.0, 4.5, 751)
    pos = np.concatenate(([0.0], np.linspace(0.01, 3.0, 300)))
    wts = np.concatenate(([0.8], np.full(300, 0.2 / 300)))
    spec = _wing_spectrum(grid, gamma, pos, wts)
    mean = float(np.sum(wts * pos))
    var = float(np.sum(wts * (pos - mean) ** 2))
    accepts(chk.check_wing_sum_rule, grid, spec, gamma, mean, var)
    rejects(chk.check_wing_sum_rule, grid, 1.05 * spec, gamma, mean, var)
    rejects(chk.check_wing_sum_rule, grid, 0.85 * spec, gamma, mean, var)
    accepts(chk.check_red_leakage, grid, spec, gamma)
    mirrored = _wing_spectrum(grid, gamma, -pos, wts)
    rejects(chk.check_red_leakage, grid, mirrored, gamma)

    tau = np.linspace(0.0, 10.0, 201)
    corr = np.exp(0.3 * (np.cos(tau) - 1.0) - 0.3j * np.sin(tau))
    accepts(chk.check_correlation, corr.real, corr.imag)
    rejects(chk.check_correlation, 1.001 * corr.real, 1.001 * corr.imag)
    grown = corr * np.exp(1e-3 * tau)
    rejects(chk.check_correlation, grown.real, grown.imag)


# ---------------------------------------------------------------------------
# cavity


def _transmission(grid, g_eff, gamma, kappa):
    t = kappa / (g_eff**2 / (gamma - 1j * grid) + kappa - 1j * grid)
    return t, np.abs(t) ** 2


def cavity():
    grid = np.linspace(-0.6, 0.6, 4001)
    g, lam, nbar, f_dw = 0.3, 0.3, 0.2, 0.9
    g_eff = g * math.sqrt(math.exp(-lam**2 * (1 + 2 * nbar)) * f_dw)
    _, t2 = _transmission(grid, g_eff, 0.02, 0.02)
    accepts(chk.check_splitting, grid, t2, g, lam, nbar, f_dw)
    # a polariton splitting scaled by 1.2
    _, t2 = _transmission(grid, 1.2 * g_eff, 0.02, 0.02)
    rejects(chk.check_splitting, grid, t2, g, lam, nbar, f_dw)

    g, kappa, gamma, lam, nbar, f_dw = 0.7, 2.0, 0.04, 0.8, 0.01, 0.4
    g_eff = g * math.sqrt(math.exp(-lam**2 * (1 + 2 * nbar)) * f_dw)
    grid = np.linspace(-0.6, 0.6, 1201)
    t, t2 = _transmission(grid, g_eff, gamma, kappa)
    accepts(chk.check_antiresonance, grid, t2, gamma, g, kappa, lam, nbar, f_dw)
    _, wide = _transmission(grid, 1.3 * g_eff, gamma, kappa)
    rejects(chk.check_antiresonance, grid, wide, gamma, g, kappa, lam, nbar, f_dw)
    accepts(chk.check_transmission, t.real, t.imag, t2)
    rejects(chk.check_transmission, t.real, t.imag, t2 * (1 + 1e-6))
    rejects(chk.check_transmission, 1.1 * t.real, 1.1 * t.imag, 1.21 * t2)


# ---------------------------------------------------------------------------
# lines


def lines():
    gamma = 0.025
    grid = np.linspace(-4.0, 6.0, 2001)
    comb = chk.comb(1.0, 0.0, 1.02, 0.1, gamma)
    if abs(np.sum(comb[:, 1]) - 1.0) > 1e-10:
        raise SelfTestFailed("comb weights do not sum to 1")
    pos, wt, wid = comb.T
    spec = np.sum(wt * (wid / gamma) / (wid**2 + (grid[:, None] - pos) ** 2), axis=1)
    accepts(chk.check_comb_sum_rule, grid, spec, comb, gamma)
    rejects(chk.check_comb_sum_rule, grid, 1.005 * spec, comb, gamma)
    accepts(chk.check_zero_detuning, grid, spec, 1.0, gamma)
    rejects(chk.check_zero_detuning, grid, 1.02 * spec, 1.0, gamma)

    mirror_grid = -grid[::-1]
    accepts(chk.check_mirror, grid, spec, mirror_grid, spec[::-1])
    rejects(chk.check_mirror, grid, spec, mirror_grid, np.roll(spec[::-1], 1))

    accepts(chk.check_forms_agree, spec, spec * (1 + 1e-4), 0.15, 0.5)
    rejects(chk.check_forms_agree, spec, spec + 2e-3 * np.max(spec), 0.15, 0.5)

    k_plus, nbar = 0.37, 1.7
    accepts(chk.check_detailed_balance, k_plus, k_plus * nbar / (nbar + 1), nbar)
    rejects(chk.check_detailed_balance, k_plus, k_plus * (nbar + 1e-6) / (nbar + 1),
            nbar)

    manifest = {"files": [{"file": "spectrum.csv", "sha256": "ab" * 32}]}
    other = {"files": [{"file": "spectrum.csv", "sha256": "ab" * 31 + "ac"}]}
    accepts(chk.check_manifests_equal, manifest, manifest)
    rejects(chk.check_manifests_equal, manifest, other)


def oracles():
    """The quadrature oracle against a Gauss-Legendre rule (3d, smooth)."""
    sd = {"kind": "3d", "coupling": 0.05, "omega_max": 3.0, "omega_min": 0.0}
    for temp in (0.5, 5.0):
        def g(w):
            return 1.0 / np.tanh(w / (2 * temp)) / w**2
        a = chk.band_integral(sd, lambda w: float(g(w)))
        b = _gauss_legendre_3d(sd, g)
        if abs(a / b - 1.0) > 1e-12:
            raise SelfTestFailed(f"quad oracle {a!r} vs Gauss-Legendre {b!r}")


SUITES = {"chain": (chain,), "wing": (oracles, wing), "cavity": (oracles, cavity),
          "lines": (lines,)}


def run(workload):
    for suite in SUITES[workload]:
        suite()


if __name__ == "__main__":
    for name in SUITES:
        run(name)
        print(f"{name}: checks accept right and reject wrong outputs")
    sys.exit(0)
