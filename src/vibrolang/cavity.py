"""Cavity transmission with the full molecular response, effective Rabi
splitting, Purcell antiresonance, and polariton cross-talk rates.

All frequency axes are probe detunings delta = omega - omega0 from the
(shifted) molecular transition; the cavity enters through its own detuning
delta_c = omega_c - omega0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import KernelParams, relaxation_params
from .model import MoleculeParams, SpectralDensity, ThermalState
from .spectra import (
    _correlation_response,
    _line_sum,
    absorption_discrete,
    debye_waller,
    franck_condon,
)


@dataclass(frozen=True, kw_only=True)
class CavityParams:
    """Single-mode cavity coupled to the molecule.

    delta_c : cavity detuning omega_c - omega0
    kappa   : cavity half-linewidth
    g       : Jaynes-Cummings coupling
    """

    delta_c: float = 0.0
    kappa: float
    g: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise DomainError("kappa must be > 0")
        if self.g < 0:
            raise DomainError("g must be >= 0")


def molecular_response(detuning, molecule: MoleculeParams, kp: KernelParams,
                       thermal: ThermalState, sd: SpectralDensity | None = None,
                       markovian=False):
    """Complex molecular response H(delta).

    Without phonons (sd=None) this is the sum over the vibron's sideband
    comb (`spectra.vibron_lines`, the lines of `absorption_discrete`)

        H = sum_{n,l} w(n,l) / [ (gamma + n Gamma'/2) - i(delta-(n-2l)nu') ],

    so Re H/gamma is the discrete absorption spectrum; it reduces to the
    two-level 1/(gamma - i delta) at lam = 0.  With a phonon spectral
    density the damped transform of the product correlation
    <B B^dag><D D^dag> is used instead, on the time grid that
    `absorption_full` uses.
    """
    detuning = np.asarray(detuning, dtype=float)
    if sd is None or sd.coupling == 0:
        if molecule.lam == 0:
            out = 1.0 / (molecule.gamma - 1j * detuning)
            return out if out.ndim else complex(out)
        lines = absorption_discrete(None, molecule, kp, thermal,
                                    markovian=markovian).lines
        out = _line_sum(detuning, lines,
                        lambda d, pos, wt, wid: wt / (wid - 1j * (d - pos)))
        return out if out.ndim else complex(out)
    return _correlation_response(detuning, molecule, kp, sd, thermal,
                                 markovian)[0]


def transmission(detuning, cavity: CavityParams, molecule: MoleculeParams,
                 kp: KernelParams, thermal: ThermalState,
                 sd: SpectralDensity | None = None, markovian=False):
    """Normalized cavity transmission amplitude

        T(delta) = kappa / [ g^2 H(delta) + kappa - i(delta - delta_c) ],

    returned as (T, |T|^2).  g = 0 gives the bare cavity Lorentzian.
    """
    detuning = np.asarray(detuning, dtype=float)
    if cavity.g > 0:
        _, gamma_p = relaxation_params(kp, markovian=markovian)
        if gamma_p < cavity.kappa:
            warnings.warn(
                "Gamma' < kappa: vibrational relaxation slower than the "
                "cavity; factorized response is approximate",
                stacklevel=2,
            )
        h = molecular_response(detuning, molecule, kp, thermal, sd=sd,
                               markovian=markovian)
    else:
        h = 0.0
    den = cavity.g**2 * h + cavity.kappa - 1j * (detuning - cavity.delta_c)
    t_amp = cavity.kappa / den
    return t_amp, np.abs(t_amp) ** 2


def effective_rabi(g, f_fc, f_dw=1.0):
    """g_eff = g sqrt(f_FC * f_DW): Rabi coupling of the zero-phonon line,
    0 when either factor vanishes."""
    if not (0 <= f_fc <= 1 and 0 <= f_dw <= 1):
        raise DomainError("Franck-Condon / Debye-Waller factors must be in [0,1]")
    return g * math.sqrt(f_fc * f_dw)


def effective_rabi_from_params(cavity: CavityParams, molecule: MoleculeParams,
                               thermal: ThermalState, nu,
                               sd: SpectralDensity | None = None):
    """g_eff with f_FC from (lam, nbar(nu)) and f_DW from the spectral density;
    f_DW = 0 where the Debye-Waller exponent diverges (1d, omega_min = 0)."""
    nbar = thermal.occupation(nu)
    f_fc = franck_condon(molecule.lam, nbar)
    f_dw = 1.0 if sd is None else 0.0 if sd.infrared_divergent \
        else debye_waller(sd, thermal)
    return effective_rabi(cavity.g, f_fc, f_dw)


def peak_positions(grid, values):
    """Local maxima of at least 5% of the largest value, refined by
    quadratic (three-point) interpolation."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    vmax = float(np.max(values))
    peaks = []
    for i in range(1, len(values) - 1):
        if values[i] >= values[i - 1] and values[i] > values[i + 1] \
                and values[i] >= 0.05 * vmax:
            y0, y1, y2 = values[i - 1], values[i], values[i + 1]
            den = y0 - 2.0 * y1 + y2
            shift = 0.0 if den == 0 else 0.5 * (y0 - y2) / den
            h = grid[i + 1] - grid[i]
            peaks.append((grid[i] + shift * h,
                          y1 - 0.25 * (y0 - y2) * shift))
    return peaks


def peak_separation(grid, values):
    """Separation of the two highest interpolated local maxima."""
    peaks = peak_positions(grid, values)
    if len(peaks) < 2:
        raise DomainError("fewer than two peaks found")
    top = sorted(peaks, key=lambda p: -p[1])[:2]
    return abs(top[0][0] - top[1][0])


def dip_width(grid, values, background=None):
    """Half-width of a transmission antiresonance at half depth.

    Finds the minimum, takes `background` (default: max of the values) as the
    reference level, and measures the half-width where the curve crosses
    (background + depth_floor)/2 on each side, linearly interpolated.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    i0 = int(np.argmin(values))
    floor = values[i0]
    bg = float(np.max(values)) if background is None else background
    half = 0.5 * (bg + floor)
    # walk outward to the half-depth crossings
    left = right = None
    for i in range(i0, 0, -1):
        if values[i - 1] >= half:
            f = (half - values[i]) / (values[i - 1] - values[i])
            left = grid[i] + f * (grid[i - 1] - grid[i])
            break
    for i in range(i0, len(values) - 1):
        if values[i + 1] >= half:
            f = (half - values[i]) / (values[i + 1] - values[i])
            right = grid[i] + f * (grid[i + 1] - grid[i])
            break
    if left is None or right is None:
        raise DomainError("dip half-depth crossings not bracketed by the grid")
    return 0.5 * (right - left)


def polariton_rates(molecule: MoleculeParams, kp: KernelParams,
                    thermal: ThermalState, omega_plus, omega_minus,
                    form="two-term"):
    """Vibration-mediated polariton cross-talk rates (kappa_plus, kappa_minus).

    The near-resonant single-term forms,

        kappa_+ = (lam^2 nu^2 Gamma_m / 4) (nbar+1) /
                  [ (Gamma_m/2)^2 + (D - nu)^2 ],          D = omega_+ - omega_-,
        kappa_- = same with nbar,

    obey kappa_-/kappa_+ = nbar/(nbar+1) exactly.  The default "two-term"
    form adds the counter-rotating +nu denominator with the thermal factors
    swapped, so kappa_+ >= kappa_- always.
    """
    lam, nu, gm = molecule.lam, kp.nu, kp.gamma_m
    delta = omega_plus - omega_minus
    if delta <= 0:
        raise DomainError("omega_plus must exceed omega_minus")
    if lam * nu >= delta:
        warnings.warn(
            "lam*nu >= polariton splitting: perturbative cross-talk rates "
            "outside their validity",
            stacklevel=2,
        )
    nbar = thermal.occupation(nu)
    pref = 0.25 * lam**2 * nu**2 * gm
    lor_m = 1.0 / ((0.5 * gm) ** 2 + (delta - nu) ** 2)
    if form == "main-text":
        return pref * (nbar + 1.0) * lor_m, pref * nbar * lor_m
    if form == "two-term":
        lor_p = 1.0 / ((0.5 * gm) ** 2 + (delta + nu) ** 2)
        k_plus = pref * ((nbar + 1.0) * lor_m + nbar * lor_p)
        k_minus = pref * (nbar * lor_m + (nbar + 1.0) * lor_p)
        return k_plus, k_minus
    raise DomainError(f"unknown rate form {form!r}")


def polariton_populations(t_grid, init, gamma_pm, rates):
    """Closed-form solution of the polariton rate equations

        dP_U/dt = -(2 gamma_+ + kappa_+) P_U + kappa_- P_L,
        dP_L/dt = -(2 gamma_- + kappa_-) P_L + kappa_+ P_U,

    by eigen-decomposition of the 2x2 rate matrix.  Returns (P_U(t), P_L(t)).
    """
    k_plus, k_minus = rates
    if k_plus < 0 or k_minus < 0:
        raise DomainError("rates must be >= 0")
    g_plus, g_minus = gamma_pm
    t_grid = np.asarray(t_grid, dtype=float)
    m = np.array([
        [-(2.0 * g_plus + k_plus), k_minus],
        [k_plus, -(2.0 * g_minus + k_minus)],
    ])
    evals, vecs = np.linalg.eig(m)
    coef = np.linalg.solve(vecs, np.asarray(init, dtype=float))
    sol = (vecs * coef) @ np.exp(np.outer(evals, t_grid))
    return sol[0], sol[1]


def hybridized_decay(kappa, gamma):
    """gamma_+- = (kappa + gamma)/2 of both polaritons at resonance."""
    return 0.5 * (kappa + gamma)
