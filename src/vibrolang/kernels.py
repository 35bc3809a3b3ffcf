"""Brownian memory kernels, susceptibility, thermal spectrum and momentum
correlations of a vibron coupled to the 1D phonon band.

Fourier convention (non-unitary, angular frequency):
    f(omega) = int f(t) exp(+i omega t) dt,
    f(t)     = (1/2pi) int f(omega) exp(-i omega t) domega.
With this choice the closed-form kernel transforms hold without stray
sqrt(2pi) factors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, RegimeError
from .model import ThermalState

# below this value of omega_max*t the J1(x)/x kernels switch to their series
_SMALL_X = 1e-3

# `_band_rule`: its one Gauss-Legendre panel on [-1, 1], built once; the
# largest phase omega_max t_max dtheta across a panel; the widest panel
_PANEL_X, _PANEL_W = special.roots_legendre(20)
_PANEL_PHASE = 12.0
_PANEL_WIDEST = math.pi / 8.0


@dataclass(frozen=True)
class KernelParams:
    """Parameters of the continuum memory kernel.

    gamma_m   : Markovian decay rate
    omega_max : phonon band edge
    nu        : vibron frequency
    """

    gamma_m: float
    omega_max: float
    nu: float

    def __post_init__(self):
        if self.gamma_m < 0:
            raise DomainError("gamma_m must be >= 0")
        if self.omega_max <= 0 or self.nu <= 0:
            raise DomainError("omega_max and nu must be > 0")
        if self.gamma_m > self.nu:
            warnings.warn(
                "gamma_m > nu: good-oscillator assumption violated",
                stacklevel=2,
            )


def _order(d):
    """Bessel order s of the kernel of two molecules d sites apart."""
    if d < 0 or int(d) != d:
        raise DomainError("site separation d must be an integer >= 0")
    return 2 * int(d) if d else 1


def _j1_over_x(x):
    """J1(x)/x with the series limit 1/2 - x^2/16 + x^4/384 near x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SMALL_X
    safe = np.where(small, 1.0, x)
    return np.where(small, 0.5 - x**2 / 16.0 + x**4 / 384.0,
                    special.j1(safe) / safe)


def gamma_time(t, kp: KernelParams, d=0):
    """Causal memory kernel Gamma_d(t) = Gamma_m s J_s(omega_max t)/t for
    t >= 0, zero for t < 0: s = 1 for a molecule's own kernel (d = 0), whose
    Gamma_0(0) is the limit Gamma_m omega_max / 2, and s = 2d for the mutual
    kernel of two molecules d lattice sites apart, which vanishes at t = 0."""
    s = _order(d)
    t = np.asarray(t, dtype=float)
    x = kp.omega_max * np.abs(t)
    # special.j1, not jv(1, x), which is 2e-12 off near the zeros of J1
    bessel = _j1_over_x(x) if s == 1 else \
        special.jv(s, x) / np.where(x == 0, 1.0, x)
    val = kp.gamma_m * s * kp.omega_max * bessel
    out = np.where(t >= 0, val, 0.0)
    return out if out.ndim else float(out)


def gamma_freq(omega, kp: KernelParams, d=0):
    """Fourier transform of `gamma_time`, Gamma_d(omega) = Gamma_m u^s.

    In band (|omega| <= omega_max) u = e^{i theta}, theta =
    arcsin(omega/omega_max), so that |Gamma_d| = Gamma_m and
        Gamma_0 = Gamma_m [sqrt(omega_max^2-omega^2) + i omega] / omega_max.
    Out of band u = i [omega -/+ sqrt(omega^2-omega_max^2)] / omega_max
    (upper sign for omega > omega_max) continues it, with no real part.
    """
    s = _order(d)
    omega = np.asarray(omega, dtype=float)
    wm = kp.omega_max
    inband = np.abs(omega) <= wm
    root_in = np.sqrt(np.where(inband, wm**2 - omega**2, 0.0))
    root_out = np.sqrt(np.where(inband, 0.0, omega**2 - wm**2))
    reactive = omega - np.sign(omega) * root_out
    out = kp.gamma_m * root_in / wm + 1j * (kp.gamma_m * reactive / wm)
    if s > 1:
        out = out * ((root_in + 1j * reactive) / wm) ** (s - 1)
    return out if out.ndim else complex(out)


def susceptibility(omega, kp: KernelParams):
    """Mechanical susceptibility chi(omega) = -i omega /
    [nu^2 - omega^2 - i Gamma(omega) omega]."""
    omega = np.asarray(omega, dtype=float)
    den = kp.nu * kp.nu - omega**2 - 1j * gamma_freq(omega, kp) * omega
    out = -1j * omega / den
    return out if out.ndim else complex(out)


def thermal_spectrum(omega, kp: KernelParams, thermal: ThermalState):
    """Phonon-noise spectrum S_th = Gamma_r(omega) omega [coth(b w/2)+1]/nu.

    Non-negative, vanishes outside the band; at T = 0 reduces to
    2 Gamma_r(omega) omega/nu for omega > 0 and 0 otherwise.
    """
    omega = np.asarray(omega, dtype=float)
    gr = np.real(gamma_freq(omega, kp))
    if thermal.temperature == 0:
        occ = np.where(omega > 0, 2.0 * omega, 0.0)
    else:
        # omega*(coth(beta omega/2)+1) = 2 omega/(1 - exp(-beta omega)),
        # written with expm1 so that neither sign cancels; the cold
        # negative side underflows to 0.  -> 2T + omega as omega -> 0
        x = omega / thermal.temperature
        tiny = np.abs(x) < 2e-8
        safe = np.where(tiny, 1.0, x)
        with np.errstate(over="ignore"):
            occ = np.where(
                tiny,
                2.0 * thermal.temperature + omega,
                2.0 * omega / -np.expm1(-safe),
            )
    out = gr * occ / kp.nu
    return out if out.ndim else float(out)


def effective_params(kp: KernelParams):
    """Pole-approximation frequency and decay rate in the non-Markovian regime.

    nu' = sqrt(nu^2 + Gamma_i(nu) nu),  Gamma' = Gamma_r(nu').
    Requires omega_max > nu.  Leading order in Gamma_m/nu: the single pole
    drops the non-resonant part of the spectrum (see `momentum_correlation`
    for the resulting error).
    """
    if kp.omega_max <= kp.nu:
        raise RegimeError(
            "effective_params requires omega_max > nu (pole approximation)"
        )
    gamma_i_nu = kp.gamma_m * kp.nu / kp.omega_max
    nu_prime = np.sqrt(kp.nu**2 + gamma_i_nu * kp.nu)
    gamma_prime = float(np.real(gamma_freq(float(nu_prime), kp)))
    return float(nu_prime), gamma_prime


def relaxation_params(kp: KernelParams, markovian=False):
    """(nu', Gamma') from the pole approximation, or simply (nu, Gamma_m)
    when `markovian` is set (used e.g. when the vibron lies above the band)."""
    if markovian:
        return kp.nu, kp.gamma_m
    return effective_params(kp)


def momentum_correlation(tau, kp: KernelParams, thermal: ThermalState,
                         markovian=False):
    """Closed-form two-time momentum correlation <P(t) P(t - tau)>,

    [(nbar + 1/2) cos(nu' tau) - (i/2) sin(nu' tau)] exp(-Gamma' |tau| / 2).

    Leading order in Gamma_m/nu; (nu', Gamma') come from `relaxation_params`,
    so they are (nu, Gamma_m) when `markovian` is set.  Against
    `momentum_correlation_numeric` at omega_max = 1.3 nu, the relative L2
    error over [0, 6/Gamma'] is about 1.27 Gamma_m/nu at T = 0
    and 0.99 Gamma_m/nu at nbar = 1.
    """
    nu_p, gamma_p = relaxation_params(kp, markovian=markovian)
    nbar = thermal.occupation(kp.nu)
    tau = np.asarray(tau, dtype=float)
    out = ((nbar + 0.5) * np.cos(nu_p * tau) - 0.5j * np.sin(nu_p * tau)) * np.exp(
        -0.5 * gamma_p * np.abs(tau)
    )
    return out if out.ndim else complex(out)


def _band_rule(omega_max, t_max, breaks):
    """Nodes and weights for int f(omega) domega over the band: 20-point
    Gauss-Legendre panels in theta = arcsin(omega/omega_max), uniform, at
    most pi/8 wide and at most 12 rad of phase omega_max t_max dtheta.

    `breaks` holds ascending (theta, d) panel edges, the first and last
    bounding the interval; d is the distance in theta to the nearest
    singularity of f (inf for none), and the panels next to the edge start
    at width d and double."""
    h = _PANEL_WIDEST
    if t_max > 0:
        h = min(h, _PANEL_PHASE / (omega_max * t_max))

    def grade(d, reach):
        out = [0.0]
        while 0 < d < h and out[-1] + d < reach:
            out.append(out[-1] + d)
            d *= 2.0
        return np.array(out)

    edges = []
    for (a, da), (b, db) in zip(breaks[:-1], breaks[1:]):
        left, right = grade(da, 0.5 * (b - a)), grade(db, 0.5 * (b - a))
        n = max(1, math.ceil((b - a - left[-1] - right[-1]) / h))
        edges += [a + left[:-1],
                  np.linspace(a + left[-1], b - right[-1], n + 1)[:-1],
                  b - right[:0:-1]]
    edges = np.concatenate(edges + [[breaks[-1][0]]])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    theta = (mid[:, None] + half[:, None] * _PANEL_X).ravel()
    w_theta = (half[:, None] * _PANEL_W).ravel()
    return omega_max * np.sin(theta), omega_max * np.cos(theta) * w_theta


def momentum_correlation_numeric(tau, kp: KernelParams, thermal: ThermalState):
    """Band-integral oracle for <P(t) P(t - tau)>:

    (1/2pi) int_{-omega_max}^{omega_max} e^{-i omega tau}
            |chi(omega)|^2 S_th(omega) domega,

    on `_band_rule` with edges at 0 (the T = 0 kink; graded toward the pole
    2 pi i T of S_th at T > 0) and at the susceptibility peaks +-nu' (graded
    toward their half-width Gamma'/2).  Within 3e-13 of adaptive quadrature
    (tol 1e-9) at Gamma_m = 0.1, 0.01, omega_max = 1.3 nu, T = 0, nbar = 1.
    """
    wm = kp.omega_max
    try:
        nu_p, _ = effective_params(kp)
    except RegimeError:
        nu_p = kp.nu
    th_p = math.asin(min(nu_p / wm, 0.999))
    d_p = kp.gamma_m / (2.0 * wm)  # Gamma_r/2 = Gamma_m cos(theta)/2 in omega
    d_0 = math.asinh(2.0 * math.pi * thermal.temperature / wm) or math.inf
    tau = np.asarray(tau, dtype=float)
    omega, dw = _band_rule(wm, float(np.max(np.abs(tau), initial=0.0)), [
        (-0.5 * math.pi, math.inf), (-th_p, d_p), (0.0, d_0), (th_p, d_p),
        (0.5 * math.pi, math.inf)])
    f = np.abs(susceptibility(omega, kp)) ** 2 \
        * thermal_spectrum(omega, kp, thermal) * dw / (2.0 * np.pi)
    out = np.exp(-1j * np.multiply.outer(tau, omega)) @ f
    return out if out.ndim else complex(out)
