"""Correctness checks for the benchmark's workloads.

Each check takes outputs that vibrolang wrote (parsed into arrays and dicts)
and compares them with quantities computed here, apart from the program:
closed forms, adaptive `scipy.integrate.quad` integrals, an independently
built sideband comb, or properties the method must have.  A check returns a
short description of what it measured and raises `CheckFailed` otherwise.

Nothing here imports vibrolang.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate


class CheckFailed(Exception):
    """An output of the program disagrees with what the check expects."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path):
    """Columns of a vibrolang CSV artifact, keyed by header name."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _trapz(y, x):
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


# ---------------------------------------------------------------------------
# chain: energy envelopes of the RK4 trajectories


def envelope(t, energy, period):
    """Moving average of `energy` over one `period`, on the samples whose
    window lies inside the trajectory; returns (centre times, envelope)."""
    w = max(1, int(round(period / (t[1] - t[0]))))
    env = np.convolve(energy, np.full(w, 1.0 / w), mode="valid")
    lo = (w - 1) // 2
    return t[lo:lo + len(env)], env


def markov_rate(bath):
    """Gamma_m = omega_max (dk/k0)^2 / 4 of the chain, omega_max = 2 sqrt(k0/m0)."""
    omega_max = 2.0 * math.sqrt(bath["k0"] / bath["m0"])
    return omega_max * (bath["dk"] / bath["k0"]) ** 2 / 4.0


def fitted_rate(t, env, rate_guess):
    """Decay rate from a least-squares line through log(env) on
    [0.5, 2.5] / rate_guess."""
    sel = (t >= 0.5 / rate_guess) & (t <= 2.5 / rate_guess) & (env > 0)
    require(np.count_nonzero(sel) >= 3, "fit window holds fewer than 3 samples")
    slope = np.polyfit(t[sel], np.log(env[sel]), 1)[0]
    return -slope


def check_markov_envelope(t, energy, nu, gamma_m, bound=0.10):
    """One-period envelope of E(t)/E(0) against exp(-Gamma_m t)."""
    te, env = envelope(t, energy, 2.0 * math.pi / nu)
    rel = env / energy[0] / np.exp(-gamma_m * te) - 1.0
    rms = float(np.sqrt(np.mean(rel**2)))
    require(rms <= bound, f"envelope RMS relative error {rms:.4f} > {bound}")
    return f"envelope RMS relative error {rms:.4f}"


def check_suppressed_decay(t, energy, nu, gamma_m, t_end=100.0):
    """Band-edge vibron: fitted rate < 0.7 Gamma_m and
    E(t_end)/E(0) >= 2 exp(-Gamma_m t_end)."""
    te, env = envelope(t, energy, 2.0 * math.pi / nu)
    rate = fitted_rate(te, env, gamma_m)
    require(rate < 0.7 * gamma_m,
            f"fitted rate {rate:.4g} >= 0.7 Gamma_m = {0.7 * gamma_m:.4g}")
    i_end = int(np.argmin(np.abs(t - t_end)))
    kept = energy[i_end] / energy[0]
    floor = 2.0 * math.exp(-gamma_m * t[i_end])
    require(kept >= floor, f"E({t[i_end]:.4g})/E(0) = {kept:.4g} < {floor:.4g}")
    return f"rate/Gamma_m {rate / gamma_m:.4f}, E(end)/E(0) {kept:.4f}"


def check_protected_mode(t, e_minus, nu, keep=0.95):
    """Subradiant pair: the E- envelope never falls below `keep` of its
    first value.  (The bare-quadrature energy breathes by about nu_s/(2 nu)
    within each period, so E-(0) itself is no reference.)"""
    _, env = envelope(t, e_minus, 2.0 * math.pi / nu)
    kept = float(np.min(env) / env[0])
    require(kept >= keep, f"E- envelope keeps {kept:.4f} < {keep}")
    return f"E- envelope keeps {kept:.4f}"


def check_superradiant_rate(t, e_plus, nu, gamma_m, tol=0.20):
    """Superradiant pair: the E+ envelope decays at 2 Gamma_m within `tol`."""
    te, env = envelope(t, e_plus, 2.0 * math.pi / nu)
    ratio = fitted_rate(te, env, 2.0 * gamma_m) / (2.0 * gamma_m)
    require(abs(ratio - 1.0) <= tol, f"E+ rate / 2 Gamma_m = {ratio:.4f}")
    return f"E+ rate / 2 Gamma_m {ratio:.4f}"


# ---------------------------------------------------------------------------
# phonon band integrals by adaptive quadrature


def band_integral(sd, g):
    """int_{omega_min}^{omega_max} J(w) g(w) dw by `quad`, with J the 1d or 3d
    density c w^p sqrt(wm^2 - w^2)/wm.

    w = wm sin(theta) removes the square-root band edge; the theta range is
    cut into decades above its lower end so that the 1/w^k growth of g near
    a small infrared cutoff stays resolved.
    """
    wm = sd["omega_max"]
    p = 1 if sd["kind"] == "1d" else 3
    c = sd["coupling"]

    def f(th):
        w = wm * math.sin(th)
        return c * w**p * wm * math.cos(th) ** 2 * g(w)

    lo = math.asin(min(1.0, sd.get("omega_min", 0.0) / wm))
    hi = math.pi / 2.0
    edges = [lo]
    if lo > 0:
        while edges[-1] * 10.0 < hi:
            edges.append(edges[-1] * 10.0)
    edges.append(hi)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        total += val
    return total


def _coth_half(temperature):
    if temperature == 0:
        return lambda w: 1.0
    return lambda w: 1.0 / math.tanh(w / (2.0 * temperature))


def debye_waller_quad(sd, temperature):
    """f_DW = exp(-int J coth(beta w/2)/w^2 dw)."""
    coth = _coth_half(temperature)
    return math.exp(-band_integral(sd, lambda w: coth(w) / w**2))


def polaron_shift_closed(sd):
    """int J/w dw in closed form, for 3d with omega_min = 0 and for 1d."""
    c, wm, w0 = sd["coupling"], sd["omega_max"], sd.get("omega_min", 0.0)
    if sd["kind"] == "3d":
        require(w0 == 0.0, "3d closed form assumes omega_min = 0")
        return c * math.pi * wm**3 / 16.0

    def primitive(w):
        return 0.5 * (w * math.sqrt(wm**2 - w**2) + wm**2 * math.asin(w / wm))

    return c / wm * (primitive(wm) - primitive(w0))


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_dw_zero_temperature(f_dw, coupling, omega_max, rtol=1e-10):
    """3d density at T = 0: f_DW = exp(-c omega_max^2 / 3)."""
    want = math.exp(-coupling * omega_max**2 / 3.0)
    err = _rel(f_dw, want)
    require(err <= rtol, f"f_DW(T=0) {f_dw!r} vs {want!r} (rel {err:.2e})")
    return f"f_DW(T=0) rel error {err:.1e}"


def check_dw_quad(f_dw, sd, temperature, rtol=1e-8):
    """f_DW against an independent quadrature of int J coth/w^2."""
    want = debye_waller_quad(sd, temperature)
    err = _rel(f_dw, want)
    require(err <= rtol, f"f_DW(T={temperature:g}) {f_dw!r} vs quad {want!r} "
                         f"(rel {err:.2e})")
    return f"f_DW(T={temperature:.4g}) rel error {err:.1e}"


def check_dw_monotone(temps, couplings, table):
    """f_DW strictly decreases in T (rows) and in the coupling (columns);
    table[i, j] is f_DW at temps[i] and couplings[j]."""
    require(np.all(np.diff(temps) > 0) and np.all(np.diff(couplings) > 0),
            "temperatures and couplings must be increasing")
    require(np.all(np.diff(table, axis=0) < 0), "f_DW does not strictly "
            "decrease with temperature")
    require(np.all(np.diff(table, axis=1) < 0), "f_DW does not strictly "
            "decrease with coupling")
    return f"f_DW strictly decreasing on a {table.shape[0]}x{table.shape[1]} table"


def check_polaron_shift(shift, sd, rtol=1e-10):
    want = polaron_shift_closed(sd)
    err = _rel(shift, want)
    require(err <= rtol, f"polaron shift {shift!r} vs closed form {want!r} "
                         f"(rel {err:.2e})")
    return f"polaron shift rel error {err:.1e}"


# ---------------------------------------------------------------------------
# spectra: sum rule, red-side leakage, correlation bounds


def outside_weight(pos, width, lo, hi):
    """Share of a unit Lorentzian (centre pos, half-width width) outside [lo, hi]."""
    return 1.0 - (np.arctan((hi - pos) / width)
                  - np.arctan((lo - pos) / width)) / math.pi


def grid_area(grid, values, gamma):
    """Area of P_e/eta^2 over the grid times gamma/pi: the captured weight."""
    return _trapz(values, grid) * gamma / math.pi


def check_wing_sum_rule(grid, values, gamma, mean, variance, tol=2e-3):
    """Sum rule of a continuum spectrum: area * gamma/pi = 1 - missing weight.

    The missing weight is the Lorentzian tails beyond the grid ends, averaged
    over the line positions.  It is at least the tail of a line at the grid
    centre, and, by Chebyshev's inequality on positions of the given mean
    and variance, at most max_{|p-mean|<=d} tail(p) + variance/d^2.
    """
    lo, hi = float(grid[0]), float(grid[-1])
    area = grid_area(grid, values, gamma)
    m_lo = float(outside_weight(0.5 * (lo + hi), gamma, lo, hi))
    m_hi = 1.0
    for d in np.linspace(0.05, hi - lo, 400):
        p = np.linspace(mean - d, mean + d, 201)
        m_hi = min(m_hi, float(np.max(outside_weight(p, gamma, lo, hi)))
                   + variance / d**2)
    require(1.0 - m_hi - tol <= area <= 1.0 - m_lo + tol,
            f"captured weight {area:.5f} outside [{1 - m_hi:.5f}, "
            f"{1 - m_lo:.5f}]")
    return f"captured weight {area:.4f} in [{1 - m_hi:.4f}, {1 - m_lo:.4f}]"


def wing_moments(sd, temperature):
    """Mean and variance of the phonon line positions: int J/w and
    int J coth(beta w/2)."""
    coth = _coth_half(temperature)
    return (band_integral(sd, lambda w: 1.0 / w),
            band_integral(sd, coth))


def check_red_leakage(grid, values, gamma, bound=0.01):
    """At T = 0 every line sits at a detuning >= 0 and the weights sum to 1,
    so for D < 0 the spectrum cannot exceed 1/(gamma^2 + D^2).  The weight
    above that envelope on the red side must stay below `bound`."""
    red = grid <= 0
    excess = np.maximum(values[red] - 1.0 / (gamma**2 + grid[red] ** 2), 0.0)
    leak = _trapz(excess, grid[red]) * gamma / math.pi
    require(leak <= bound, f"red-side leakage {leak:.4g} > {bound}")
    return f"red-side leakage {leak:.2e}"


def check_correlation(re, im, tol=1e-12):
    """Emitted phonon correlation: C(0) = 1 and |C| <= 1."""
    c0 = complex(re[0], im[0])
    peak = float(np.max(np.hypot(re, im)))
    require(abs(c0 - 1.0) <= tol, f"C(0) = {c0}")
    require(peak <= 1.0 + tol, f"max |C| = {peak!r} > 1")
    return f"C(0) = 1, max |C| - 1 = {peak - 1.0:.1e}"


# ---------------------------------------------------------------------------
# discrete sideband comb, built here from its definition


def comb(lam, nbar, nu_p, gamma_p, gamma, tail=1e-12):
    """(position, weight, width) of the vibronic comb: Poisson(lam^2(1+2nbar))
    over the order n, binomial split of n into emissions/absorptions l with
    odds nbar:(nbar+1); line at (n-2l) nu', width gamma + n Gamma'/2."""
    s = lam**2 * (1.0 + 2.0 * nbar)
    q = nbar / (1.0 + 2.0 * nbar)
    rows = []
    n, cum = 0, 0.0
    while cum < 1.0 - tail and n < 10_000:
        pn = math.exp(-s + n * math.log(s) - math.lgamma(n + 1)) if s > 0 \
            else float(n == 0)
        for l in range(n + 1):
            w = pn * math.comb(n, l) * q**l * (1.0 - q) ** (n - l)
            if w > 0:
                rows.append(((n - 2 * l) * nu_p, w, gamma + 0.5 * n * gamma_p))
        cum += pn
        n += 1
    return np.array(rows)


def check_comb_sum_rule(grid, values, lines, gamma, tol=1e-3):
    """Area * gamma/pi equals the comb's weight captured inside the grid."""
    pos, wt, wid = lines.T
    want = float(np.sum(wt * (1.0 - outside_weight(pos, wid, grid[0], grid[-1]))))
    area = grid_area(grid, values, gamma)
    require(abs(area - want) <= tol,
            f"captured weight {area:.6f} vs comb {want:.6f}")
    return f"captured weight {area:.5f} vs comb {want:.5f}"


def check_zero_detuning(grid, values, lam, gamma, rtol=0.01):
    """n = 0: P_e(0)/eta^2 = e^{-lam^2}/gamma^2 within `rtol`."""
    i0 = int(np.argmin(np.abs(grid)))
    require(abs(grid[i0]) < 1e-12, "grid has no zero-detuning point")
    ratio = values[i0] / (math.exp(-lam**2) / gamma**2)
    require(abs(ratio - 1.0) <= rtol, f"zero-detuning ratio {ratio:.5f}")
    return f"zero-detuning ratio {ratio:.5f}"


def check_mirror(abs_grid, abs_values, em_grid, em_values):
    """Mirror emission is exactly absorption at -D."""
    require(np.array_equal(em_grid, -abs_grid[::-1]), "emission grid is not "
            "the mirrored absorption grid")
    require(np.array_equal(em_values, abs_values[::-1]), "emission values are "
            "not the absorption values at -D")
    return "emission(D) == absorption(-D) exactly"


def check_forms_agree(disc, bessel, lam, nbar, tol=1e-3):
    """Discrete double sum and Bessel resummation agree to `tol` of the peak
    where 2 lam^2 sqrt(nbar(nbar+1)) <= 0.1."""
    arg = 2.0 * lam**2 * math.sqrt(nbar * (nbar + 1.0))
    require(arg <= 0.1, f"validity argument {arg:.3g} > 0.1")
    err = float(np.max(np.abs(disc - bessel)) / np.max(np.abs(disc)))
    require(err <= tol, f"discrete vs Bessel max difference {err:.2e} of peak")
    return f"discrete vs Bessel {err:.1e} of peak (arg {arg:.3f})"


def check_detailed_balance(kappa_plus, kappa_minus, nbar, rtol=1e-12):
    """Main-text rate form: kappa_-/kappa_+ = nbar/(nbar+1)."""
    want = nbar / (nbar + 1.0)
    got = kappa_minus / kappa_plus
    require(abs(got - want) <= rtol * max(want, 1e-300),
            f"kappa-/kappa+ {got!r} vs {want!r}")
    return f"kappa-/kappa+ = nbar/(nbar+1) at nbar {nbar:.4g}"


def check_manifests_equal(first, second):
    """Two runs of one config list the same files with the same sha256."""
    a = [(f["file"], f["sha256"]) for f in first["files"]]
    b = [(f["file"], f["sha256"]) for f in second["files"]]
    require(len(a) > 0, "manifest lists no files")
    require(a == b, "manifests differ between two runs of one config")
    return f"{len(a)} artifacts byte-identical across reruns"


# ---------------------------------------------------------------------------
# cavity transmission


def peaks(grid, values, min_frac=0.05):
    """Local maxima refined by a three-point parabola, as (position, height)."""
    out = []
    top = float(np.max(values))
    for i in range(1, len(values) - 1):
        y0, y1, y2 = values[i - 1], values[i], values[i + 1]
        if y1 >= y0 and y1 > y2 and y1 >= min_frac * top:
            den = y0 - 2.0 * y1 + y2
            s = 0.0 if den == 0 else 0.5 * (y0 - y2) / den
            out.append((grid[i] + s * (grid[i + 1] - grid[i]),
                        y1 - 0.25 * (y0 - y2) * s))
    return out


def check_splitting(grid, abs_t2, g, lam, nbar, f_dw, tol=0.05):
    """Polariton splitting 2 g sqrt(f_FC f_DW), f_FC = e^{-lam^2(1+2nbar)}."""
    top = sorted(peaks(grid, abs_t2), key=lambda p: -p[1])[:2]
    require(len(top) == 2, "fewer than two polariton peaks")
    split = abs(top[0][0] - top[1][0])
    want = 2.0 * g * math.sqrt(math.exp(-lam**2 * (1.0 + 2.0 * nbar)) * f_dw)
    err = split / want - 1.0
    require(abs(err) <= tol, f"splitting {split:.5f} vs {want:.5f} "
                             f"({err:+.2%})")
    return f"splitting {split:.5f} vs 2 g_eff {want:.5f} ({err:+.2%})"


def dip_half_width(grid, values):
    """Half-width at half depth of the transmission minimum, the reference
    level being the largest value on the grid."""
    i0 = int(np.argmin(values))
    half = 0.5 * (float(np.max(values)) + values[i0])
    left = np.nonzero(values[:i0] >= half)[0]
    right = np.nonzero(values[i0:] >= half)[0]
    require(len(left) > 0 and len(right) > 0, "dip not bracketed by the grid")
    il, ir = left[-1], i0 + right[0]
    xl = np.interp(half, [values[il + 1], values[il]], [grid[il + 1], grid[il]])
    xr = np.interp(half, [values[ir - 1], values[ir]], [grid[ir - 1], grid[ir]])
    return 0.5 * (xr - xl)


def check_antiresonance(grid, abs_t2, gamma, g, kappa, lam, nbar, f_dw,
                        tol=0.10):
    """Purcell antiresonance: half-width gamma (1 + C_eff) with
    C_eff = g_eff^2/(kappa gamma), and a depth reduced from the bare
    two-level dip |T(0)|^2 = 1/(1 + g^2/(kappa gamma))^2."""
    g_eff2 = g**2 * math.exp(-lam**2 * (1.0 + 2.0 * nbar)) * f_dw
    want = gamma * (1.0 + g_eff2 / (kappa * gamma))
    hw = dip_half_width(grid, abs_t2)
    err = hw / want - 1.0
    require(abs(err) <= tol, f"dip half-width {hw:.5f} vs {want:.5f} "
                             f"({err:+.2%})")
    bare = 1.0 / (1.0 + g**2 / (kappa * gamma)) ** 2
    floor = float(np.min(abs_t2))
    require(floor > bare, f"dip floor {floor:.4g} not above the bare "
                          f"two-level floor {bare:.4g}")
    return f"dip half-width {err:+.2%} off gamma(1+C_eff), floor {floor:.3g} " \
           f"> bare {bare:.3g}"


def check_transmission(re, im, abs_t2, rtol=1e-10):
    """0 <= |T|^2 <= 1 and re^2 + im^2 = |T|^2."""
    require(np.all(abs_t2 >= 0) and np.all(abs_t2 <= 1.0 + rtol),
            f"|T|^2 outside [0, 1]: [{np.min(abs_t2)!r}, {np.max(abs_t2)!r}]")
    err = float(np.max(np.abs(re**2 + im**2 - abs_t2) / np.maximum(abs_t2, 1e-300)))
    require(err <= rtol, f"re^2 + im^2 differs from |T|^2 by {err:.2e}")
    return f"|T|^2 in [0,1], re^2+im^2 rel error {err:.1e}"
