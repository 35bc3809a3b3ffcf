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
from scipy import integrate, special

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
    nu_tilde  : crystal-shifted vibron frequency (defaults to nu; the
                susceptibility uses nu*nu_tilde in its denominator)
    """

    gamma_m: float
    omega_max: float
    nu: float
    nu_tilde: float | None = None

    def __post_init__(self):
        if self.gamma_m < 0:
            raise DomainError("gamma_m must be >= 0")
        if self.omega_max <= 0 or self.nu <= 0:
            raise DomainError("omega_max and nu must be > 0")
        if self.nu_tilde is None:
            object.__setattr__(self, "nu_tilde", self.nu)
        if self.gamma_m > self.nu:
            warnings.warn(
                "gamma_m > nu: good-oscillator assumption violated",
                stacklevel=2,
            )


def _j1_over_x(x):
    """J1(x)/x with the series limit 1/2 - x^2/16 + x^4/384 near x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SMALL_X
    safe = np.where(small, 1.0, x)
    out = np.where(small, 0.5 - x**2 / 16.0 + x**4 / 384.0,
                   special.j1(safe) / safe)
    return out


def gamma_time(t, kp: KernelParams):
    """Causal memory kernel Gamma(t) = Gamma_m J1(omega_max t)/t for t >= 0.

    Gamma(0) is the limit Gamma_m omega_max / 2; zero for t < 0.
    """
    t = np.asarray(t, dtype=float)
    x = kp.omega_max * np.abs(t)
    val = kp.gamma_m * kp.omega_max * _j1_over_x(x)
    out = np.where(t >= 0, val, 0.0)
    return out if out.ndim else float(out)


def gamma_freq(omega, kp: KernelParams):
    """Fourier transform of the memory kernel.

    In band (|omega| <= omega_max):
        Gamma_m [sqrt(omega_max^2-omega^2) + i omega] / omega_max.
    Out of band the real part vanishes and the branch
        i Gamma_m [omega -/+ sqrt(omega^2-omega_max^2)] / omega_max
    (upper sign for omega > omega_max) continues the imaginary part.
    """
    omega = np.asarray(omega, dtype=float)
    wm = kp.omega_max
    inband = np.abs(omega) <= wm
    root_in = np.sqrt(np.where(inband, wm**2 - omega**2, 0.0))
    root_out = np.sqrt(np.where(inband, 0.0, omega**2 - wm**2))
    real = kp.gamma_m * root_in / wm
    imag = kp.gamma_m * (omega - np.sign(omega) * root_out) / wm
    out = real + 1j * imag
    return out if out.ndim else complex(out)


def collective_gamma_time(t, j: int, kp: KernelParams):
    """Mutual kernel Gamma_12(t) = Gamma_m 4j J_{4j}(omega_max t)/t, t >= 0,
    for two molecules 2j lattice sites apart."""
    if j < 1 or int(j) != j:
        raise DomainError("half-separation j must be a positive integer")
    t = np.asarray(t, dtype=float)
    x = kp.omega_max * np.abs(t)
    n = 4 * int(j)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = kp.gamma_m * n * kp.omega_max * special.jv(n, x) / np.where(x == 0, 1.0, x)
    val = np.where(x == 0, 0.0, val)  # J_n(x)/x -> 0 for n >= 2
    out = np.where(t >= 0, val, 0.0)
    return out if out.ndim else float(out)


def collective_gamma_freq(omega, j: int, kp: KernelParams):
    """In-band Fourier transform of the mutual kernel,

    Gamma_12(omega) = Gamma_m [ T_{4j}(x) - i U_{4j-1}(x) sqrt(1-x^2) ],
    x = omega/omega_max.  With theta = arcsin(x) this is
    Gamma_m [cos(4j theta) + i sin(4j theta)], the exact transform of
    4j J_{4j}(omega_max t)/t under the package sign convention, so
    |Gamma_12(omega)| = Gamma_m identically in band.  The out-of-band
    continuation is not defined here and is refused.
    """
    if j < 1 or int(j) != j:
        raise DomainError("half-separation j must be a positive integer")
    omega = np.asarray(omega, dtype=float)
    x = omega / kp.omega_max
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise DomainError("collective kernel transform defined in band only")
    x = np.clip(x, -1.0, 1.0)
    n = 4 * int(j)
    out = kp.gamma_m * (
        special.eval_chebyt(n, x)
        - 1j * special.eval_chebyu(n - 1, x) * np.sqrt(1.0 - x**2)
    )
    return out if out.ndim else complex(out)


def susceptibility(omega, kp: KernelParams):
    """Mechanical susceptibility chi(omega) = -i omega /
    [nu*nu_tilde - omega^2 - i Gamma(omega) omega]."""
    omega = np.asarray(omega, dtype=float)
    den = kp.nu * kp.nu_tilde - omega**2 - 1j * gamma_freq(omega, kp) * omega
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
    nbar = thermal.occupation(kp.nu) if thermal.temperature > 0 else 0.0
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


def kernel_fourier_numeric(omega, kp: KernelParams, j=None, t_max=None):
    """Numeric transform of gamma_time (j=None) or collective_gamma_time (j>=1).

    The t^{-3/2} Bessel tail makes a finite window adequate: the truncation
    error falls off as t_max^{-3/2} after oscillatory cancellation.
    """
    if t_max is None:
        t_max = 400.0 / kp.omega_max
    if j is None:
        f = lambda t: gamma_time(t, kp)
    else:
        f = lambda t: collective_gamma_time(t, j, kp)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    w_fast = kp.omega_max + float(np.max(np.abs(omega)))
    n = int(np.ceil(t_max * 60 * w_fast / (2 * np.pi)))  # 60 per cycle
    n += n % 2
    t = np.linspace(0.0, t_max, n + 1)
    ft = f(t)
    phase = np.exp(1j * np.outer(omega, t))
    vals = integrate.simpson(phase * ft, x=t, axis=-1)
    return vals if len(vals) > 1 else complex(vals[0])

