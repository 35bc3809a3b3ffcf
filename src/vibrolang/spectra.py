"""Absorption/emission lineshapes: vibronic sidebands, phonon wings,
Franck-Condon and Debye-Waller factors, and the time-dependent dephasing
rate.

All spectra are reported as steady-state excited-state population per unit
drive intensity, P_e/eta^2, as a function of the probe detuning from the
(polaron-shifted) electronic transition.  The reference normalization is
the bare two-level resonance value P_0/eta^2 = 1/gamma^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import special
from .errors import (
    DivergenceError,
    DomainError,
    ResolutionError,
    TruncationError,
)
from .kernels import (
    KernelParams,
    _band_rule,
    momentum_correlation,
    relaxation_params,
)
from .model import MoleculeParams, SpectralDensity, ThermalState

_TAIL_TARGET = 1e-8
_ORDER_CAP = 250


# ---------------------------------------------------------------------------
# scalar factors


def franck_condon(lam, nbar=0.0):
    """Zero-phonon-line weight reduction from the vibron, e^{-lam^2 (1+2 nbar)}."""
    if lam < 0 or nbar < 0:
        raise DomainError("need lam >= 0 and nbar >= 0")
    return math.exp(-lam * lam * (1.0 + 2.0 * nbar))


def _density_rule(sd: SpectralDensity, thermal: ThermalState, t_max):
    """Nodes omega_i and weights J(omega_i) domega_i of `kernels._band_rule`
    on [omega_min, omega_max] for phases up to omega t_max, graded from
    omega_min toward the 1d integrands' 1/omega or 1/omega^2 peak at 0 or,
    with omega_min = 0, toward the pole 2 pi i T of coth(beta omega/2)."""
    if sd.infrared_divergent and thermal.temperature > 0:
        raise DivergenceError("1d spectral density with omega_min = 0 at "
                              "T > 0: the thermal band integrals diverge")
    th_lo = math.asin(sd.omega_min / sd.omega_max)
    d = th_lo or math.asinh(2.0 * math.pi * thermal.temperature
                            / sd.omega_max) or math.inf
    omega, dw = _band_rule(sd.omega_max, t_max,
                           [(th_lo, d), (0.5 * math.pi, math.inf)])
    return omega, spectral_density(omega, sd) * dw


def spectral_density(omega, sd: SpectralDensity):
    """J(omega): lam*w*sqrt(wm^2-w^2)/wm (1d) or lam*w^3*sqrt(wm^2-w^2)/wm (3d);
    zero outside [omega_min, omega_max]."""
    omega = np.asarray(omega, dtype=float)
    inband = (omega >= sd.omega_min) & (omega <= sd.omega_max)
    root = np.sqrt(np.where(inband, sd.omega_max**2 - omega**2, 0.0))
    p = 1 if sd.kind == "1d" else 3
    out = np.where(inband, sd.coupling * omega**p * root / sd.omega_max, 0.0)
    return out if out.ndim else float(out)


def debye_waller(sd: SpectralDensity, thermal: ThermalState):
    """f_DW = exp[- int J(w)/w^2 coth(beta w/2) dw].

    On `_density_rule` (panels at most pi/8 wide, graded toward omega = 0):
    80 nodes for a 3d density, 300 for the 1d density with omega_min =
    1e-4 omega_max; within 1.2e-13 of adaptive quadrature (tolerance 1e-13)
    at T = 0.3 to 1.0.
    """
    if sd.coupling == 0:
        return 1.0
    if sd.infrared_divergent:
        raise DivergenceError(
            "1d spectral density with omega_min = 0: the Debye-Waller "
            "integral diverges logarithmically at the infrared end"
        )
    omega, big_w = _density_rule(sd, thermal, 0.0)
    coth = thermal.coth_half_beta(omega)
    return float(np.exp(-np.sum(big_w * coth / omega**2)))


def polaron_shift(sd: SpectralDensity):
    """Electronic frequency renormalization int J(w)/w dw, on
    `_density_rule` as `debye_waller`; within 4e-16 of adaptive quadrature
    for the 3d and the regularized 1d density."""
    if sd.coupling == 0:
        return 0.0
    omega, big_w = _density_rule(sd, ThermalState(0.0), 0.0)
    return float(np.sum(big_w / omega))


# ---------------------------------------------------------------------------
# correlation functions


def displacement_correlation_vibron(tau, molecule: MoleculeParams,
                                    kp: KernelParams,
                                    thermal: ThermalState):
    """Vibron displacement correlation <B(tau) B^dag(0)> =
    exp[-2 lam^2 (<P^2> - <P(tau)P(0)>)].

    Decays from 1 at tau = 0 to the Franck-Condon factor at long delay.
    """
    nbar = thermal.occupation(kp.nu)
    corr = momentum_correlation(tau, kp, thermal)
    out = np.exp(-2.0 * molecule.lam * molecule.lam * ((nbar + 0.5) - corr))
    return out if np.ndim(out) else complex(out)


def _even_grid(x, name):
    """(x as a 1-D array, its spacing h, whether x was a scalar) for a grid
    x_k = x_0 + k h.  Raises DomainError when a point strays from the line
    through the ends by more than 1e-12 of the grid's largest magnitude, a
    bound every np.linspace and np.arange grid meets by many orders."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(x)
    h = (x[-1] - x[0]) / (n - 1) if n > 1 else 0.0
    if n > 2:
        stray = np.max(np.abs(x - (x[0] + h * np.arange(n))))
        if stray > 1e-12 * max(abs(x[0]), abs(x[-1])):
            raise DomainError(f"{name} grid is not evenly spaced")
    return x, h, scalar


# Gaussian gridding of `_phase_sum`: each node is spread onto 2 _SPREAD
# points of a grid at least _OVERSAMPLE times finer than the output.  There
# truncation and aliasing stay below 1e-17 of sum |w|, and the band edge's
# deconvolution magnifies rounding by at most e^{pi/1.875} = 5.3, where an
# oversampling of 2 would give e^{4 pi/3} = 66.
_SPREAD = 16
_OVERSAMPLE = 3


def _phase_sum(t, h, omega, weights, mirror=None):
    """S_j = sum_i weights_i e^{i omega_i t_j} on the even grid t_j = t_0 + j h,
    plus sum_i mirror_i e^{-i omega_i t_j} where `mirror` is given.

    A type-1 nonuniform FFT by Gaussian gridding (Dutt & Rokhlin 1993;
    Greengard & Lee 2004).  Source i sits at x_i = omega_i h, u_i = x_i M /
    2 pi steps into a periodic grid of M points on [0, 2 pi).  With
    c = n // 2, S_{c+k} = sum_i v_i e^{i k x_i} over the centred modes
    -c <= k < n - c, v_i = weights_i e^{i (omega_i t_0 + c x_i)}; c x_i is
    taken from u_i's integer and fractional parts, so that at every j the
    phase is rounded as little as omega_i t_j is.  Each v_i is spread by
    e^{-(x - x_i)^2 / 4 tau} onto the 2 _SPREAD grid points nearest x_i;
    one FFT gives the grid's Fourier coefficients, and dividing by the
    Gaussian's, sqrt(tau/pi) e^{-k^2 tau}, leaves S.  The mirror source at
    -u_i = (-floor u_i - 1) + (1 - frac u_i) reuses node i's spread at
    offsets 1 - o, its row reversed, and the conjugate of its phase.  M is
    at least _OVERSAMPLE n, rounded up to a fast FFT length, and
    tau = pi _SPREAD / (n^2 r (r - 1/2)) follows the actual oversampling
    r = M/n.  `np.bincount` accumulates in input order and numpy's FFT is
    single-threaded, so the bytes do not depend on the thread count.
    """
    n, half = len(t), len(t) // 2
    size = max(2 * _SPREAD, special.next_fast_len(_OVERSAMPLE * n))
    tau = math.pi * _SPREAD / (size * (size - 0.5 * n))
    u = omega * (h * size / (2.0 * math.pi))
    base = np.floor(u).astype(np.int64)
    frac = u - base
    phase = np.exp(1j * (omega * t[0] + (2.0 * math.pi / size)
                         * ((half * base) % size + half * frac)))
    offset = np.arange(1 - _SPREAD, _SPREAD + 1)
    spread = np.exp(-(math.pi**2 / (size * size * tau))
                    * (offset - frac[:, None]) ** 2)

    def gridded(idx, spread, src):
        idx = (idx % size).ravel()
        return np.bincount(idx, (spread * src.real[:, None]).ravel(),
                           minlength=size) \
            + 1j * np.bincount(idx, (spread * src.imag[:, None]).ravel(),
                               minlength=size)

    grid = gridded(base[:, None] + offset, spread, weights * phase) \
        if np.any(weights) else np.zeros(size, dtype=complex)
    if mirror is not None:
        grid += gridded(offset - 1 - base[:, None], spread[:, ::-1],
                        mirror * phase.conj())
    k = np.arange(-half, n - half)
    return np.fft.ifft(grid)[k % size] \
        * (math.sqrt(math.pi / tau) * np.exp(tau * k * k))


def phonon_correlation(tau, sd: SpectralDensity, thermal: ThermalState):
    """Phonon displacement correlation <D(tau) D^dag(0)> =
    exp[ int J(w)/w^2 (coth(beta w/2)(cos w tau - 1) - i sin w tau) dw ]
    on an evenly spaced tau grid (scalar in, scalar out).

    |value| <= 1; tends to the Debye-Waller factor at long delay.  On
    `_density_rule`, 12 rad of phase omega_max max|tau| dtheta a panel:
    1,580 nodes at omega_max max|tau| = 600 (3d); a 12x finer rule moves
    the exponent by under 4e-15 of its largest value.  The exponent is
    S(tau) - W, W = sum w_re and S = sum w_re cos(omega tau) - i w_im
    sin(omega tau), w_re = J coth(beta omega/2) domega/omega^2 and w_im =
    J domega/omega^2.  S is one `_phase_sum`, sum 1/2 [(w_re - w_im)
    e^{i omega tau} + (w_re + w_im) e^{-i omega tau}] on the nodes +-omega
    (the first all 0 at T = 0 and then not gridded), O(N_omega + N_tau log
    N_tau) operations, within 1e-13 of sum |w| of the dense (tau x omega)
    sums.
    """
    tau, h, scalar = _even_grid(tau, "tau")
    if sd.coupling == 0 or len(tau) == 0:
        out = np.ones(len(tau), dtype=complex)
    else:
        omega, big_w = _density_rule(sd, thermal, float(np.max(np.abs(tau))))
        w_re = big_w * thermal.coth_half_beta(omega) / omega**2
        w_im = big_w / omega**2
        s = _phase_sum(tau, h, omega, 0.5 * (w_re - w_im),
                       0.5 * (w_re + w_im))
        out = np.exp(s - np.sum(w_re))
    return complex(out[0]) if scalar else out


def dephasing_rate(t, sd: SpectralDensity, thermal: ThermalState):
    """Instantaneous dephasing rate int J(w)/w coth(beta w/2) sin(w t) dw on
    an evenly spaced t grid (scalar in, scalar out).

    Grows linearly at short times and, for the 3d density, decays to zero
    through oscillatory cancellation at long times.  On `_density_rule`,
    sized and graded as in `phonon_correlation`; the band sum is the
    nonuniform FFT `_phase_sum`, within 1e-13 of sum |w| of the dense sum.
    """
    t, h, scalar = _even_grid(t, "t")
    if sd.coupling == 0 or len(t) == 0:
        out = np.zeros(len(t))
    else:
        omega, big_w = _density_rule(sd, thermal, float(np.max(np.abs(t))))
        w_eff = big_w * thermal.coth_half_beta(omega) / omega
        out = _phase_sum(t, h, omega, w_eff).imag
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# discrete line spectra


@dataclass
class LineSpectrum:
    """Lorentzian comb and its response

        H(D) = sum_lines w / (width - i (D - pos)) = sum_lines w / (sigma - i D),

    sigma = width + i pos, read as Re H/gamma = P_e/eta^2 by absorption and
    as H by the cavity.  `response` cuts a grid of over 256 points into
    panels (centre c, half-width r) and sums a panel's far lines,
    |sigma - i c| >= 3 r, through one local expansion of 36 terms,
    truncated below 3^-36 of their sum w/|sigma - i D|: H stays within
    64 eps sum w/|sigma - i D| of the sum over every line.

    lines    : array of shape (L, 3) with columns (position, weight, width);
               positions are detunings from the zero-phonon line
    gamma    : radiative half-linewidth (sets the P_e normalization)
    """

    lines: np.ndarray
    gamma: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lines = np.asarray(self.lines, dtype=float)
        if self.lines.ndim != 2 or self.lines.shape[1] != 3:
            raise DomainError("lines must have shape (L, 3)")
        if not np.all(np.isfinite(self.lines)):
            raise DomainError("line positions, weights and widths must be "
                              "finite")
        if np.any(self.lines[:, 1] < 0):
            raise DomainError("line weights must be >= 0")
        if np.any(self.lines[:, 2] <= 0):
            raise DomainError("line widths must be > 0")

    def response(self, detuning):
        """H at any detunings (a scalar is a one-point grid, and gives a
        complex scalar), as sum_lines w (width + i x)/(width^2 + x^2),
        x = D - pos, in real arithmetic.

        A grid of one panel or a comb of at most _TERMS lines goes through
        `_line_rows` whole.  Else the sorted points are cut into panels of
        at most _PANEL (centre c, half-width r), and the lines far from a
        panel, |sigma - i c| >= _FAR r, give one local expansion in
        u = (D - c)/r,

            H_far(D) = sum_{t < _TERMS} a_t (i u)^t,
            a_t = r^t sum_far w (sigma - i c)^(-t-1),

        whose tail, sum_far w/(sigma - i D) (i r u/(sigma - i c))^_TERMS, is
        below 3^-36 = 6.7e-18 of sum_far w/|sigma - i D|.  The near lines,
        or all where a panel has at most _TERMS far ones, go through
        `_line_rows`.  Memory stays bounded by blocks of panels, and no
        reduction goes through BLAS, so the bytes do not depend on the
        thread count."""
        detuning = np.asarray(detuning, dtype=float)
        flat = detuning.ravel()
        out = np.empty(len(flat), dtype=complex)
        panels = -(-len(flat) // _PANEL)
        if panels < 2 or len(self.lines) <= _TERMS:
            _line_rows(flat, self.lines, out)
        else:
            _panel_sum(flat, self.lines, panels, out)
        out = out.reshape(detuning.shape)
        return out if out.ndim else complex(out)

    def evaluate(self, detuning):
        """P_e/eta^2 = Re H/gamma."""
        return self.response(detuning).real / self.gamma


# (detuning x line) elements that `_line_rows`, and (panel x line) ones that
# `_panel_sum`, form at once: 512 kB per real temporary, whatever the size
# of the comb (larger blocks measured slower).  A line is far from a panel
# of _PANEL points at |sigma - i c| >= _FAR r, where |i r u/(sigma - i c)|
# <= 1/3, so _TERMS terms leave a tail below 3^-36 = 6.7e-18 of the far
# lines' sum w/|sigma - i D|
_LINE_BLOCK = 1 << 16
_PANEL = 256
_FAR = 3.0
_TERMS = 36


def _line_rows(x_rows, lines, out):
    """out = sum_lines w (width + i x)/(width^2 + x^2), x = D - pos, at each
    detuning of `x_rows`, in blocks of rows; each row is reduced as in a
    single pass, so the values depend neither on the blocks nor on the
    other rows.  At D = +-inf, Re H is 0 and Im H is NaN (inf * 0)."""
    pos, wt, wid = lines.T
    wid2 = wid * wid
    rows = max(1, _LINE_BLOCK // max(len(pos), 1))
    for i in range(0, len(x_rows), rows):
        x = x_rows[i:i + rows, None] - pos
        f = x * x
        f += wid2
        np.divide(wt, f, out=f)
        with np.errstate(invalid="ignore"):
            x *= f
        out.imag[i:i + rows] = np.sum(x, axis=-1)
        f *= wid
        out.real[i:i + rows] = np.sum(f, axis=-1)


def _panel_sum(flat, lines, panels, out):
    """`LineSpectrum.response` on `panels` panels of `flat`'s sorted points,
    written into `out` in the order of `flat`."""
    m, size = len(flat), -(-len(flat) // panels)
    edges = np.arange(panels + 1) * m // panels
    # (panels x size) indices of the sorted points; a short panel repeats
    # its last point
    idx = np.argsort(flat, kind="stable")[
        np.minimum(edges[:-1, None] + np.arange(size), edges[1:, None] - 1)]
    d = flat[idx]
    c, r = 0.5 * (d[:, -1] + d[:, 0]), 0.5 * (d[:, -1] - d[:, 0])
    # a panel holding a non-finite point is summed directly
    bad = ~np.isfinite(r)
    c[bad] = r[bad] = 0.0
    pos, wt, wid = lines.T
    step = max(1, _LINE_BLOCK // len(pos))
    for k in range(0, panels, step):
        ck, rk = c[k:k + step, None], r[k:k + step, None]
        x = pos - ck
        f = x * x
        f += wid * wid
        far = f >= (_FAR * rk) ** 2
        expand = (np.count_nonzero(far, axis=1) > _TERMS) & (rk[:, 0] > 0)
        far &= expand[:, None]
        # with s = sigma - i c = width + i x: p = w/s, z = i r/s
        g = np.where(far, wt, 0.0) / f
        p = wid * g - 1j * (x * g)
        np.divide(rk, f, out=f)
        z = x * f + 1j * (wid * f)
        coef = np.empty((_TERMS, len(x)), dtype=complex)
        for t in range(_TERMS):
            np.add.reduce(p, axis=1, out=coef[t])
            p *= z
        # a_t (i u)^t = (a_t i^t) u^t: Horner in real u, on the real and
        # imaginary parts side by side
        u = np.where(expand[:, None], d[k:k + step] - ck, 0.0) \
            / np.where(rk > 0, rk, 1.0)
        a = np.stack((coef.real, coef.imag), axis=1)[..., None]
        y = np.repeat(a[-1], size, axis=2)
        for t in range(_TERMS - 2, -1, -1):
            y *= u
            y += a[t]
        for j in range(len(x)):
            h = np.empty(size, dtype=complex)
            _line_rows(d[k + j], lines[~far[j]], h)
            if expand[j]:
                h.real += y[0, j]
                h.imag += y[1, j]
            out[idx[k + j]] = h


def choose_n_max(lam, nbar):
    """Truncation order ceil(s) + 10 sqrt(s) + 10, s = lam^2 (1 + 2 nbar),
    capped at 250, whose comb (31,626 pairs) and its (grid x lines)
    evaluation stay in memory.  Below the cap the weight tail is at most
    2e-20; a capped order with a tail over 1e-8 raises TruncationError."""
    s = lam * lam * (1.0 + 2.0 * nbar)  # inf, not OverflowError
    n_max = min(int(math.ceil(s) + 10.0 * math.sqrt(s) + 10), _ORDER_CAP) \
        if s < _ORDER_CAP else _ORDER_CAP
    if _weight_tail(lam, nbar, n_max) > _TAIL_TARGET:
        raise TruncationError(
            f"weight tail did not close below 1e-8 by order {_ORDER_CAP}")
    return n_max


def _weight_tail(lam, nbar, n_max):
    """1 - sum_{n<=n_max} sum_l w(n, l) (exact completeness complement)."""
    s = lam * lam * (1.0 + 2.0 * nbar)  # NaN at lam = 0, nbar = 1e308
    return special.poisson_tail(n_max, s) if s > 0 else 0.0


def _sideband_comb(lam, nbar, n_max):
    """(n, l, w) of the vibron's Franck-Condon comb to order n_max:
    n - l Stokes and l anti-Stokes quanta with weight

        w = e^{-s} (lam^2 (nbar+1))^{n-l}/(n-l)! (lam^2 nbar)^l/l!,

    s = lam^2 (1 + 2 nbar), a product of two Poisson terms, formed in log
    space so that no factor over- or underflows.  Pairs run n = 0..n_max,
    l = 0..n; zero weights are dropped.
    """
    n, l = np.tril_indices(n_max + 1)
    stokes, anti = lam**2 * (nbar + 1.0), lam**2 * nbar
    w = np.exp(special.log_poisson(n - l, stokes)
               + special.log_poisson(l, anti))
    keep = w > 0
    return n[keep], l[keep], w[keep]


def vibron_lines(lam, nbar, nu_p, gamma_p, gamma, n_max):
    """(position, weight, width) rows of the vibronic sideband comb to order
    n_max: weight w(n, l) of `_sideband_comb` at detuning (n-2l) nu', width
    gamma + n Gamma'/2."""
    n, l, w = _sideband_comb(lam, nbar, n_max)
    return np.column_stack(((n - 2 * l) * nu_p, w, gamma + 0.5 * n * gamma_p))


def absorption_discrete(molecule: MoleculeParams, kp: KernelParams,
                        thermal: ThermalState) -> LineSpectrum:
    """Vibronic sideband comb, whose absorption spectrum is a double sum of
    Lorentzian lines,

    P_e/eta^2 = sum_{n,l} w(n,l) (gamma + n Gamma'/2)/gamma
                / [ (gamma + n Gamma'/2)^2 + (Delta - (n-2l) nu')^2 ].

    Its meta holds nbar, nu', Gamma', the order n_max of `choose_n_max`
    and the weight tail beyond it; `response_route` reads its reach from
    n_max nu'.
    """
    nu_p, gamma_p = relaxation_params(kp)
    nbar = thermal.occupation(kp.nu)
    lam = molecule.lam
    n_max = choose_n_max(lam, nbar)
    lines = vibron_lines(lam, nbar, nu_p, gamma_p, molecule.gamma, n_max)
    return LineSpectrum(lines=lines, gamma=molecule.gamma,
                        meta={"nbar": nbar, "nu_prime": nu_p,
                              "gamma_prime": gamma_p, "n_max": n_max,
                              "tail": _weight_tail(lam, nbar, n_max)})


def absorption_bessel(molecule: MoleculeParams, kp: KernelParams,
                      thermal: ThermalState) -> LineSpectrum:
    """Single-index sideband resummation: the comb's weights summed over
    equal k = n - 2l, the Skellam weights

    w_k = f_FC ((nbar+1)/nbar)^{k/2} I_k(2 lam^2 sqrt(nbar(nbar+1))),

    lines at k nu' with width gamma + |k| Gamma'/2.  Valid when
    2 lam^2 sqrt(nbar(nbar+1)) << 1; a warning flags the opposite case.
    """
    lam = molecule.lam
    # at lam = 0 the one line k = 0 reads nu' and Gamma' only times 0
    nu_p, gamma_p = relaxation_params(kp) if lam > 0 else (0.0, 0.0)
    nbar = thermal.occupation(kp.nu)
    arg = 2.0 * lam * lam * math.sqrt(nbar * (nbar + 1.0))
    if arg > 0.1:
        warnings.warn(
            "2 lam^2 sqrt(nbar(nbar+1)) > 0.1: single-sum Bessel form outside "
            "its stated validity",
            stacklevel=2,
        )
    n, l, w = _sideband_comb(lam, nbar, choose_n_max(lam, nbar))
    k = n - 2 * l
    k_lo = k.min()
    wk = np.bincount(k - k_lo, weights=w)
    k = np.flatnonzero(wk) + k_lo
    lines = np.column_stack((k * nu_p, wk[k - k_lo],
                             molecule.gamma + 0.5 * np.abs(k) * gamma_p))
    return LineSpectrum(lines=lines, gamma=molecule.gamma,
                        meta={"nbar": nbar, "validity_arg": arg})


# ---------------------------------------------------------------------------
# continuum (correlation-transform) spectra


def response_transform(detuning, corr, gamma, dt):
    """One-sided damped transform H(Delta) = int_0^T e^{(i Delta - gamma) tau}
    C(tau) d tau for a correlation sampled as corr[j] = C(j dt), on an evenly
    spaced detuning grid (scalar in, scalar out).

    Composite Simpson along the time axis.  With Delta_k = Delta_0 + k d and
    theta = d dt, H_k = sum_j x_j e^{i theta k j} is a chirp-z transform,
    evaluated by Bluestein's convolution: kj = (k^2 + j^2 - (k-j)^2)/2.
    The chirp e^{i theta j^2/2} is built from its exact phase, not as a
    power of e^{i theta}, whose rounding the power magnifies.
    """
    detuning, step, scalar = _even_grid(detuning, "detuning")
    m = len(detuning)
    if m == 0:
        return np.empty(0, dtype=complex)
    corr = np.asarray(corr, dtype=complex)
    n = len(corr) if len(corr) % 2 else len(corr) - 1  # Simpson: odd count
    simpson = np.full(n, 2.0)
    simpson[1::2] = 4.0
    simpson[[0, -1]] = 1.0
    t = np.arange(n) * dt
    x = corr[:n] * (dt / 3.0 * simpson) \
        * np.exp((1j * detuning[0] - gamma) * t)
    j = np.arange(max(n, m), dtype=float)
    chirp = np.exp(0.5j * (step * dt) * j * j)
    size = special.next_fast_len(n + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    conv = np.fft.ifft(np.fft.fft(x * chirp[:n], size) * np.fft.fft(kernel))
    out = chirp[:m] * conv[:m]
    return complex(out[0]) if scalar else out


# the most points a config's grids and the full route's time grid may have:
# a run keeps each point's values in a few float64 arrays and its CSV row as
# text, about 190 bytes a point (an absorption run of 10^6 points peaks
# 178 MiB above its start), so 10^7 points take about 2 GB; numpy refuses
# 2^60 points outright
GRID_MAX = 10**7

# the wing's longest time horizon in units of 1/gamma, and the tail it may
# leave: e^{-gamma T} = e^-12
_HORIZON = 12.0


class TimeGrid(NamedTuple):
    """The wing's time grid: n points at step dt to the horizon t_horizon,
    and the a priori bound on the wing's damped tail beyond it."""

    dt: float
    n: int
    t_horizon: float
    tail_bound: float


class Response(NamedTuple):
    """One point's molecular response as `response_route` builds it: its
    objects (kp and sd where they couple, else None), its zero-phonon comb,
    the wing's `TimeGrid` (None without a density), f_FC and f_DW."""

    detuning: np.ndarray
    molecule: MoleculeParams
    kp: KernelParams | None
    sd: SpectralDensity | None
    thermal: ThermalState
    comb: LineSpectrum
    steps: TimeGrid | None
    f_fc: float
    f_dw: float


def _band_variation(sd: SpectralDensity, thermal: ThermalState):
    """(V, W) on `debye_waller`'s rule, W = -ln f_DW and V the sum over
    g = J coth(beta omega/2)/omega^2 and J/omega^2 of |g(omega_min)| +
    |g(omega_max)| + TV(g), the total variation taken over the band's ends
    and the rule's nodes (exact where g is monotone between neighbours).
    Integration by parts gives |int g e^{i omega tau} domega| <= V/|tau|
    for each, so the exponent S(tau) - W of `phonon_correlation` stays
    within V/tau of -W."""
    omega, big_w = _density_rule(sd, thermal, 0.0)
    x = np.concatenate(([sd.omega_min], omega, [sd.omega_max]))
    with np.errstate(invalid="ignore", divide="ignore"):
        g_im = spectral_density(x, sd) / x**2
        g_re = g_im * thermal.coth_half_beta(x)
    if sd.omega_min == 0:  # 3d: J/omega^2 -> 0, J coth/omega^2 -> 2 T lam
        g_im[0], g_re[0] = 0.0, 2.0 * thermal.temperature * sd.coupling
    v = sum(abs(g[0]) + abs(g[-1]) + float(np.sum(np.abs(np.diff(g))))
            for g in (g_re, g_im))
    return v, float(np.sum(big_w * thermal.coth_half_beta(omega) / omega**2))


def _wing_horizon(sd: SpectralDensity, thermal: ThermalState, gamma):
    """(T, bound, W): the shortest T = k/(2 gamma), k = 1 .. 2 _HORIZON, whose

        bound = min(f_DW expm1(V/T), 1 - f_DW) e^{-gamma T} <= e^{-_HORIZON},

    V and f_DW = e^-W of `_band_variation`.  For tau >= T
    it bounds e^{-gamma tau} |B (D - f_DW)|: |B| <= 1, |D - f_DW| <= 1 - f_DW
    everywhere and <= f_DW expm1(V/tau) by `_band_variation`.  At k =
    2 _HORIZON the bound holds whatever V, and with omega_min = 0 on a 1d
    density (W and V infinite, f_DW = 0) T is that cap."""
    if sd.infrared_divergent:
        return _HORIZON / gamma, math.exp(-_HORIZON), math.inf
    v, w = _band_variation(sd, thermal)
    f = math.exp(-w)

    def bound(gt):  # at T = gt/gamma
        x = v * gamma / gt
        # f expm1(x) >= 1 - f once f e^x >= 1
        zpl = 1.0 - f if x >= w else min(
            f * math.expm1(x) if x < 700 else math.exp(x - w), 1.0 - f)
        return zpl * math.exp(-gt)

    gt = next(0.5 * k for k in range(1, int(2 * _HORIZON) + 1)
              if bound(0.5 * k) <= math.exp(-_HORIZON))
    return gt / gamma, bound(gt), w


def response_route(detuning, molecule: MoleculeParams,
                   kp: KernelParams | None, sd: SpectralDensity | None,
                   thermal: ThermalState) -> Response:
    """The `Response` of one point, every choice of its route made once.

    The comb is `absorption_discrete`'s where a vibron couples (lam > 0
    with a kernel), else the one line 1/(gamma - i Delta), and f_FC is
    `franck_condon`'s at the kernel's nu.  Without a coupled density (no
    sd, or coupling 0) f_DW = 1 and there is no wing.  Else f_DW = e^-W of
    `_wing_horizon`, `debye_waller`'s sum (0 where the 1d density
    diverges), and the wing runs to that horizon, the shortest whose a
    priori tail bound is e^-12, at the dt that resolves the fastest of
    32 gamma, nu and omega_max, made finer where needed so that the Nyquist
    band pi/dt covers the grid's largest |detuning| plus the comb's reach,
    its order `choose_n_max` times nu'; a coarser dt folds the comb's far
    sidebands onto the grid.  Raises RegimeError where a coupled vibron has
    no pole (nu', Gamma'), TruncationError where its comb cannot close and
    ResolutionError where the wing needs over 10^7 points."""
    detuning = np.asarray(detuning, dtype=float)
    gamma = molecule.gamma
    f_fc = franck_condon(molecule.lam, thermal.occupation(kp.nu)) \
        if kp is not None else 1.0
    kp = kp if molecule.lam > 0 else None
    comb = absorption_discrete(molecule, kp, thermal) if kp is not None \
        else LineSpectrum(lines=[[0.0, 1.0, gamma]], gamma=gamma)
    if sd is None or sd.coupling == 0:
        return Response(detuning, molecule, kp, None, thermal, comb, None,
                        f_fc, 1.0)
    scales = [32.0 * gamma, sd.omega_max]
    reach = float(np.max(np.abs(detuning), initial=0.0))
    if kp is not None:
        scales.append(kp.nu)
        reach += comb.meta["n_max"] * comb.meta["nu_prime"]
    dt = 1.0 / (8.0 * max(scales))
    if reach * dt > math.pi:
        dt = math.pi / reach
    t_horizon, bound, big_w = _wing_horizon(sd, thermal, gamma)
    n = int(np.ceil(t_horizon / dt)) + 1
    if n > GRID_MAX:
        raise ResolutionError(
            f"the time grid needs {n} points (dt {dt:.3g} to "
            f"{t_horizon * gamma:g}/gamma), more than {GRID_MAX}")
    return Response(detuning, molecule, kp, sd, thermal, comb,
                    TimeGrid(dt, n, t_horizon, bound), f_fc,
                    float(np.exp(-big_w)))


def molecular_response(route: Response):
    """Complex molecular response H(Delta) of a `response_route`, the damped
    transform of the product correlation B D = <B B^dag><D D^dag>, each
    factor present when its coupling is; absorption reads it as Re H/gamma,
    the cavity as H.  It is split as the paper splits a lineshape,

        H = f_DW C(Delta) + int_0^T e^{(i Delta - gamma) tau} B (D - f_DW),

    into the zero-phonon part and the phonon wing.  C is the route's comb,
    whose response the pole form's B generates exactly, summed with no
    horizon and no Simpson images.  Returns (H, meta):

    - no density couples (no time grid): f_DW = 1 and no wing, H = C.
      meta: n_lines and the comb's meta.
    - a density couples: f_DW is the route's, D is `phonon_correlation`
      on the route's time grid, and the wing goes through
      `response_transform` on that grid.  meta adds dt, t_horizon, the
      tail bound at T and the measured |D(T) - f_DW| (wing_tail).
    """
    detuning, molecule, kp, sd, thermal, spec, steps, _, f_dw = route
    comb = spec.response(detuning)
    meta = {"n_lines": len(spec.lines), **spec.meta}
    if steps is None:
        return comb, meta
    t = np.arange(steps.n) * steps.dt
    wing = phonon_correlation(t, sd, thermal) - f_dw
    meta.update(dt=steps.dt, t_horizon=steps.t_horizon,
                tail_bound=steps.tail_bound, wing_tail=float(abs(wing[-1])))
    if kp is not None:
        wing *= displacement_correlation_vibron(t, molecule, kp, thermal)
    h = response_transform(detuning, wing, molecule.gamma, steps.dt)
    return (h + f_dw * comb if f_dw > 0 else h), meta


def check_resolution(detuning_grid, gamma):
    """Raise ResolutionError where a detuning grid step, ascending or
    descending, exceeds gamma, the zero-phonon line's half width, so the
    line falls between points."""
    if len(detuning_grid) > 1 \
            and np.min(np.abs(np.diff(detuning_grid))) > gamma:
        raise ResolutionError(
            "detuning grid spacing exceeds gamma: zero-phonon line "
            "unresolvable")


def absorption_full(route: Response):
    """Full absorption spectrum P_e/eta^2 including vibronic sidebands and
    phonon wings, Re H/gamma of `molecular_response`, with detuning measured
    from the polaron-shifted transition.  Returns (values, meta), meta the
    response's with the route's f_FC and f_DW and the polaron shift."""
    h, meta = molecular_response(route)
    values = np.real(np.atleast_1d(h)) / route.molecule.gamma
    shift = polaron_shift(route.sd) if route.sd is not None else 0.0
    meta.update(f_FC=route.f_fc, f_DW=route.f_dw, polaron_shift=shift)
    return values, meta


def mirror_emission(detuning, values):
    """Emission spectrum as the mirror image of absorption about the ZPL.

    Maps detuning D to -D and reorders ascending; involutive.
    """
    detuning = np.asarray(detuning, dtype=float)
    values = np.asarray(values, dtype=float)
    new_det = 0.0 - detuning  # the mirror of D = 0 is +0.0, not -0.0
    order = np.argsort(new_det)
    return new_det[order], values[order]
