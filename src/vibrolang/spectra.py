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

import numpy as np
from scipy import integrate, special

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
_TAIL_HARD = 1e-6
# rows of t per (rows x band nodes) phase block in the band integrals
_ROW_CHUNK = 512


# ---------------------------------------------------------------------------
# scalar factors


def franck_condon(lam, nbar=0.0):
    """Zero-phonon-line weight reduction from the vibron, e^{-lam^2 (1+2 nbar)}."""
    if lam < 0 or nbar < 0:
        raise DomainError("need lam >= 0 and nbar >= 0")
    return math.exp(-lam**2 * (1.0 + 2.0 * nbar))


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
    1e-4 omega_max; within 6e-14 of adaptive quadrature at T = 0.3 to 1.0.
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
    `_density_rule` as `debye_waller`; within 3e-16 of adaptive quadrature
    for the 3d and the regularized 1d density."""
    if sd.coupling == 0:
        return 0.0
    omega, big_w = _density_rule(sd, ThermalState(0.0), 0.0)
    return float(np.sum(big_w / omega))


# ---------------------------------------------------------------------------
# correlation functions


def displacement_correlation_vibron(tau, molecule, kp: KernelParams,
                                    thermal: ThermalState, markovian=False):
    """Vibron displacement correlation <B(tau) B^dag(0)> =
    exp[-2 lam^2 (<P^2> - <P(tau)P(0)>)].

    `molecule` may be a MoleculeParams or the bare coupling lam.  Decays from
    1 at tau = 0 to the Franck-Condon factor at long delay.
    """
    lam = molecule.lam if isinstance(molecule, MoleculeParams) else float(molecule)
    nbar = thermal.occupation(kp.nu) if thermal.temperature > 0 else 0.0
    corr = momentum_correlation(tau, kp, thermal, markovian=markovian)
    out = np.exp(-2.0 * lam**2 * ((nbar + 0.5) - corr))
    return out if np.ndim(out) else complex(out)


def phonon_correlation(tau, sd: SpectralDensity, thermal: ThermalState):
    """Phonon displacement correlation <D(tau) D^dag(0)> =
    exp[ int J(w)/w^2 (coth(beta w/2)(cos w tau - 1) - i sin w tau) dw ].

    |value| <= 1; tends to the Debye-Waller factor at long delay and T = 0.
    On `_density_rule`, 12 rad of phase omega_max max|tau| dtheta a panel:
    1,580 nodes at omega_max max|tau| = 600 (3d); a 12x finer rule moves
    the exponent by under 4e-15 of its largest value.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if sd.coupling == 0:
        out = np.ones(len(tau), dtype=complex)
        return out if len(out) > 1 else complex(out[0])
    tmax = float(np.max(np.abs(tau))) if len(tau) else 0.0
    omega, big_w = _density_rule(sd, thermal, tmax)
    coth = thermal.coth_half_beta(omega)
    w_re = big_w * coth / omega**2
    w_im = big_w / omega**2
    out = np.empty(len(tau), dtype=complex)
    for lo in range(0, len(tau), _ROW_CHUNK):
        tt = tau[lo:lo + _ROW_CHUNK, None]
        phase = omega[None, :] * tt
        expo = (np.cos(phase) - 1.0) @ w_re - 1j * (np.sin(phase) @ w_im)
        out[lo:lo + _ROW_CHUNK] = np.exp(expo)
    return out if len(out) > 1 else complex(out[0])


def dephasing_rate(t, sd: SpectralDensity, thermal: ThermalState):
    """Instantaneous dephasing rate int J(w)/w coth(beta w/2) sin(w t) dw.

    Grows linearly at short times and, for the 3d density, decays to zero
    through oscillatory cancellation at long times.  On `_density_rule`,
    sized and graded as in `phonon_correlation`.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if sd.coupling == 0:
        out = np.zeros(len(t))
        return out if len(out) > 1 else float(out[0])
    tmax = float(np.max(np.abs(t))) if len(t) else 0.0
    omega, big_w = _density_rule(sd, thermal, tmax)
    w_eff = big_w * thermal.coth_half_beta(omega) / omega
    out = np.empty(len(t))
    for lo in range(0, len(t), _ROW_CHUNK):
        out[lo:lo + _ROW_CHUNK] = \
            np.sin(t[lo:lo + _ROW_CHUNK, None] * omega[None, :]) @ w_eff
    return out if len(out) > 1 else float(out[0])


def single_mode_dephasing_rate(t, lam_k, omega_k, thermal: ThermalState):
    """Time-averaged dephasing rate of one phonon mode,
    lam_k^2 (2 nbar + 1) (1 - cos(w_k t))/t, with short-time law
    lam_k^2 (nbar + 1/2) w_k^2 t."""
    t = np.asarray(t, dtype=float)
    nbar = thermal.occupation(omega_k) if thermal.temperature > 0 else 0.0
    small = np.abs(omega_k * t) < 1e-6
    safe = np.where(small, 1.0, t)
    out = np.where(
        small,
        lam_k**2 * (nbar + 0.5) * omega_k**2 * t,
        lam_k**2 * (2.0 * nbar + 1.0) * (1.0 - np.cos(omega_k * safe)) / safe,
    )
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# discrete line spectra


@dataclass
class LineSpectrum:
    """Lorentzian comb spectrum.

    lines    : array of shape (L, 3) with columns (position, weight, width);
               positions are detunings from the zero-phonon line
    gamma    : radiative half-linewidth (sets the P_e normalization)
    grid     : detuning grid to sample the spectrum on (optional)
    values   : P_e/eta^2 on the grid, filled in when a grid is given
    """

    lines: np.ndarray
    gamma: float
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lines = np.asarray(self.lines, dtype=float)
        if np.any(self.lines[:, 1] < 0):
            raise DomainError("line weights must be >= 0")
        if np.any(self.lines[:, 2] <= 0):
            raise DomainError("line widths must be > 0")
        if self.grid is not None:
            self.grid = np.asarray(self.grid, dtype=float)
            self.values = self.evaluate(self.grid)

    def evaluate(self, detuning):
        """P_e/eta^2 = sum_lines w * width/gamma / (width^2 + (D - pos)^2)."""
        detuning = np.asarray(detuning, dtype=float)
        pos, wt, wid = self.lines.T
        out = np.sum(
            wt * (wid / self.gamma)
            / (wid**2 + (detuning[..., None] - pos) ** 2),
            axis=-1,
        )
        return out if out.ndim else float(out)


def line_weight_L(n, lam, nbar):
    """Poisson-like vibronic weight L(n) = f_FC lam^(2n)/n! (1+2nbar)^0...

    L(n) = e^{-lam^2(1+2nbar)} lam^(2n)/n!  (the thermal binomial carries the
    remaining (1+2nbar)^n so that sum_n L(n) sum_l B(n,l) = 1 exactly).
    """
    n = np.asarray(n)
    return franck_condon(lam, nbar) * lam ** (2 * n) / special.factorial(n)


def thermal_binomial_B(n, l, nbar):
    """B(n, l) = C(n, l) (nbar+1)^(n-l) nbar^l."""
    n = np.asarray(n)
    l = np.asarray(l)
    return special.comb(n, l) * (nbar + 1.0) ** (n - l) * nbar**l


def choose_n_max(lam, nbar):
    """Truncation order from Poisson concentration, grown until the combined
    weight tail drops below 1e-8."""
    s = lam**2 * (1.0 + 2.0 * nbar)
    n_max = int(math.ceil(s) + 10.0 * math.sqrt(s) + 10)
    while _weight_tail(lam, nbar, n_max) > _TAIL_TARGET:
        n_max = int(n_max * 1.5) + 1
        if n_max > 100_000:
            raise TruncationError("weight tail did not close below 1e-8")
    return n_max

def _weight_tail(lam, nbar, n_max):
    """1 - sum_{n<=n_max} L(n) (1+2nbar)^n (exact completeness complement)."""
    s = lam**2 * (1.0 + 2.0 * nbar)
    # P(Poisson(s) >= n_max+1) = regularized lower incomplete gamma P(n_max+1, s)
    return float(special.gammainc(n_max + 1, s)) if s > 0 else 0.0


def vibron_lines(lam, nbar, nu_p, gamma_p, gamma, n_max=None):
    """(position, weight, width) triples of the vibronic sideband comb:
    weight L(n) B(n, l) at detuning (n-2l) nu', width gamma + n Gamma'/2."""
    if n_max is None:
        n_max = choose_n_max(lam, nbar)
    else:
        tail = _weight_tail(lam, nbar, n_max)
        if tail > _TAIL_HARD:
            raise TruncationError(
                f"weight tail {tail:.2e} at n_max={n_max} exceeds 1e-6"
            )
    rows = []
    for n in range(n_max + 1):
        ln = float(line_weight_L(n, lam, nbar))
        for l in range(n + 1):
            w = ln * float(thermal_binomial_B(n, l, nbar))
            if w == 0.0:
                continue
            rows.append(((n - 2 * l) * nu_p, w, gamma + 0.5 * n * gamma_p))
    return np.array(rows) if rows else np.array([(0.0, 1.0, gamma)])


def absorption_discrete(detuning_grid, molecule: MoleculeParams,
                        kp: KernelParams, thermal: ThermalState,
                        n_max=None, markovian=False) -> LineSpectrum:
    """Vibronic absorption spectrum as a double sum of Lorentzian lines,

    P_e/eta^2 = sum_{n,l} L(n) B(n,l) (gamma + n Gamma'/2)/gamma
                / [ (gamma + n Gamma'/2)^2 + (Delta - (n-2l) nu')^2 ].
    """
    nu_p, gamma_p = relaxation_params(kp, markovian=markovian)
    nbar = thermal.occupation(kp.nu) if thermal.temperature > 0 else 0.0
    lines = vibron_lines(molecule.lam, nbar, nu_p, gamma_p, molecule.gamma,
                         n_max=n_max)
    n_used = int(round(2.0 * (np.max(lines[:, 2]) - molecule.gamma) / gamma_p)) \
        if gamma_p > 0 else len(lines)
    return LineSpectrum(lines=lines, gamma=molecule.gamma, grid=detuning_grid,
                        meta={"nbar": nbar, "nu_prime": nu_p,
                              "gamma_prime": gamma_p,
                              "tail": _weight_tail(molecule.lam, nbar, n_used)})


def absorption_bessel(detuning_grid, molecule: MoleculeParams,
                      kp: KernelParams, thermal: ThermalState,
                      n_max=None, markovian=False) -> LineSpectrum:
    """Single-index sideband resummation with modified-Bessel weights,

    w_n = f_FC ((nbar+1)/nbar)^{n/2} I_n(2 lam^2 sqrt(nbar(nbar+1))),

    lines at n nu' with width gamma + |n| Gamma'/2.  Valid when
    2 lam^2 sqrt(nbar(nbar+1)) << 1; a warning flags the opposite case.
    """
    nu_p, gamma_p = relaxation_params(kp, markovian=markovian)
    nbar = thermal.occupation(kp.nu) if thermal.temperature > 0 else 0.0
    lam = molecule.lam
    arg = 2.0 * lam**2 * math.sqrt(nbar * (nbar + 1.0))
    if arg > 0.1:
        warnings.warn(
            "2 lam^2 sqrt(nbar(nbar+1)) > 0.1: single-sum Bessel form outside "
            "its stated validity",
            stacklevel=2,
        )
    if n_max is None:
        n_max = choose_n_max(lam, nbar)
    fc = franck_condon(lam, nbar)
    rows = []
    if nbar == 0.0:
        for n in range(n_max + 1):
            w = fc * lam ** (2 * n) / math.factorial(n)
            if w > 0:
                rows.append((n * nu_p, w, molecule.gamma + 0.5 * n * gamma_p))
    else:
        ratio = (nbar + 1.0) / nbar
        for n in range(-n_max, n_max + 1):
            w = fc * ratio ** (n / 2.0) * float(special.iv(n, arg))
            if w > 0:
                rows.append((n * nu_p, w,
                             molecule.gamma + 0.5 * abs(n) * gamma_p))
    return LineSpectrum(lines=np.array(rows), gamma=molecule.gamma,
                        grid=detuning_grid,
                        meta={"nbar": nbar, "validity_arg": arg})


def absorption_multimode_discrete(detuning_grid, molecule: MoleculeParams,
                                  mode_table, thermal: ThermalState,
                                  n_max=None) -> LineSpectrum:
    """Brute-force oracle: product over up to 4 explicit phonon/vibron modes.

    `mode_table` is a sequence of (omega_k, lam_k, gamma_k_ph) rows.  The
    spectrum is the multi-index sum with weights prod_k L_k(n_k) B_k(n_k,l_k),
    line positions sum_k (n_k - 2 l_k) omega_k and widths
    gamma + sum_k n_k gamma_k_ph (each mode correlation decays as
    e^{-gamma_k_ph |tau|}).  A single mode with gamma_ph = Gamma'/2 reduces to
    absorption_discrete.
    """
    mode_table = [tuple(map(float, row)) for row in mode_table]
    if len(mode_table) > 4:
        raise DomainError("multimode oracle limited to 4 modes (combinatorics)")
    per_mode = []
    for (wk, lk, gk) in mode_table:
        nb = thermal.occupation(wk) if thermal.temperature > 0 else 0.0
        nm = choose_n_max(lk, nb) if n_max is None else n_max
        rows = []
        for n in range(nm + 1):
            ln = float(line_weight_L(n, lk, nb))
            for l in range(n + 1):
                w = ln * float(thermal_binomial_B(n, l, nb))
                if w > 0:
                    rows.append(((n - 2 * l) * wk, w, n * gk))
        per_mode.append(rows)
    # outer product of the per-mode combs
    combo = [(0.0, 1.0, molecule.gamma)]
    for rows in per_mode:
        combo = [
            (p0 + p1, w0 * w1, g0 + g1)
            for (p0, w0, g0) in combo
            for (p1, w1, g1) in rows
            if w0 * w1 > 1e-14
        ]
    return LineSpectrum(lines=np.array(combo), gamma=molecule.gamma,
                        grid=detuning_grid, meta={"modes": mode_table})


# ---------------------------------------------------------------------------
# continuum (correlation-transform) spectra


def response_transform(detuning, corr, gamma, dt, chunk=64):
    """One-sided damped transform H(Delta) = int_0^T e^{(i Delta - gamma) tau}
    C(tau) d tau for a correlation sampled as corr[j] = C(j dt).

    Composite Simpson along the time axis, chunked over the detuning grid.
    """
    detuning = np.atleast_1d(np.asarray(detuning, dtype=float))
    corr = np.asarray(corr, dtype=complex)
    n = len(corr)
    if n % 2 == 0:  # Simpson wants an odd number of samples
        corr = corr[:-1]
        n -= 1
    t = np.arange(n) * dt
    damped = corr * np.exp(-gamma * t)
    out = np.empty(len(detuning), dtype=complex)
    for lo in range(0, len(detuning), chunk):
        phase = np.exp(1j * np.outer(detuning[lo:lo + chunk], t))
        out[lo:lo + chunk] = integrate.simpson(phase * damped, dx=dt, axis=-1)
    return out if len(out) > 1 else complex(out[0])


def _correlation_response(detuning, molecule: MoleculeParams,
                          kp: KernelParams | None, sd: SpectralDensity | None,
                          thermal: ThermalState, markovian, t_horizon, dt):
    """Damped transform of the product correlation <B B^dag><D D^dag>,
    each factor present when its coupling is.

    dt resolves the fastest of 32 gamma, nu and omega_max; the horizon
    defaults to 12/gamma.  Returns (H(detuning), dt, t_horizon).
    """
    gamma = molecule.gamma
    scales = [32.0 * gamma]
    if molecule.lam > 0 and kp is not None:
        scales.append(kp.nu)
    if sd is not None and sd.coupling > 0:
        scales.append(sd.omega_max)
    if dt is None:
        dt = min(2.0 * math.pi / (32.0 * max(scales)),
                 1.0 / (8.0 * max(scales)))
    if t_horizon is None:
        t_horizon = 12.0 / gamma
    n = int(np.ceil(t_horizon / dt)) + 1
    t = np.arange(n) * dt
    corr = np.ones(n, dtype=complex)
    if molecule.lam > 0 and kp is not None:
        corr *= displacement_correlation_vibron(t, molecule, kp, thermal,
                                                markovian=markovian)
    if sd is not None and sd.coupling > 0:
        corr *= phonon_correlation(t, sd, thermal)
    return response_transform(detuning, corr, gamma, dt), dt, t_horizon


def absorption_full(detuning_grid, molecule: MoleculeParams,
                    kp: KernelParams | None, sd: SpectralDensity | None,
                    thermal: ThermalState, markovian=False,
                    t_horizon=None, dt=None):
    """Full absorption spectrum P_e/eta^2 including vibronic sidebands and
    phonon wings, via the damped transform of the product correlation
    <B B^dag><D D^dag>.

    Detuning is measured from the polaron-shifted transition.  Returns
    (values, meta) with meta carrying the time grid and factors.
    """
    detuning_grid = np.asarray(detuning_grid, dtype=float)
    gamma = molecule.gamma
    if len(detuning_grid) > 1:
        if float(np.min(np.diff(detuning_grid))) > gamma:
            raise ResolutionError(
                "detuning grid spacing exceeds gamma: zero-phonon line "
                "unresolvable"
            )
    h, dt, t_horizon = _correlation_response(
        detuning_grid, molecule, kp, sd, thermal, markovian, t_horizon, dt)
    values = np.real(np.atleast_1d(h)) / gamma
    meta = {
        "dt": dt,
        "t_horizon": t_horizon,
        "f_FC": franck_condon(
            molecule.lam,
            thermal.occupation(kp.nu) if (kp is not None and
                                          thermal.temperature > 0) else 0.0,
        ) if kp is not None else 1.0,
        "f_DW": debye_waller(sd, thermal) if (sd is not None and
                                              not sd.infrared_divergent)
        else None,
        "polaron_shift": polaron_shift(sd) if sd is not None else 0.0,
    }
    return values, meta


def mirror_emission(detuning, values, zpl=0.0):
    """Emission spectrum as the mirror image of absorption about the ZPL.

    Maps detuning D to 2*zpl - D and reorders ascending; involutive.
    """
    detuning = np.asarray(detuning, dtype=float)
    values = np.asarray(values, dtype=float)
    new_det = 2.0 * zpl - detuning
    order = np.argsort(new_det)
    return new_det[order], values[order]
