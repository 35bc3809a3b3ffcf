"""Reference formulas that only the tests call: a numeric kernel transform,
the band form of the Markovian rate, a single-mode dephasing rate and
first-order scattering amplitudes on the chain."""

import numpy as np
from scipy import integrate

from vibrolang import (
    DiscreteBath,
    DomainError,
    KernelParams,
    ThermalState,
    chain_eigenmodes,
    gamma_time,
    vibron_phonon_couplings,
)


def kernel_fourier_numeric(omega, kp: KernelParams, d=0, t_max=None):
    """Numeric transform of gamma_time for a site separation d.

    The t^{-3/2} Bessel tail makes a finite window adequate: the truncation
    error falls off as t_max^{-3/2} after oscillatory cancellation.
    """
    if t_max is None:
        t_max = 400.0 / kp.omega_max
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    w_fast = kp.omega_max + float(np.max(np.abs(omega)))
    n = int(np.ceil(t_max * 60 * w_fast / (2 * np.pi)))  # 60 per cycle
    n += n % 2
    t = np.linspace(0.0, t_max, n + 1)
    ft = gamma_time(t, kp, d)
    phase = np.exp(1j * np.outer(omega, t))
    vals = integrate.simpson(phase * ft, x=t, axis=-1)
    return vals if len(vals) > 1 else complex(vals[0])


def markov_rate_band_form(bath: DiscreteBath):
    """Gamma_m = dk^2 omega_max / (4 k0^2); identical to derived_markov_params
    when mu = m0."""
    return bath.dk**2 * bath.omega_max / (4.0 * bath.k0**2)


def single_mode_dephasing_rate(t, lam_k, omega_k, thermal: ThermalState):
    """Time-averaged dephasing rate of one phonon mode,
    lam_k^2 (2 nbar + 1) (1 - cos(w_k t))/t, with short-time law
    lam_k^2 (nbar + 1/2) w_k^2 t."""
    t = np.asarray(t, dtype=float)
    nbar = thermal.occupation(omega_k)
    small = np.abs(omega_k * t) < 1e-6
    safe = np.where(small, 1.0, t)
    out = np.where(
        small,
        lam_k**2 * (nbar + 0.5) * omega_k**2 * t,
        lam_k**2 * (2.0 * nbar + 1.0) * (1.0 - np.cos(omega_k * safe)) / safe,
    )
    return out if out.ndim else float(out)


def dyson_first_order(t: float, bath: DiscreteBath, nu: float):
    """First-order scattering amplitudes at time t.

    Returns (amp_down, amp_up): amplitudes onto |0_nu, 1_k> and |2_nu, 1_k>,

        amp_down_k = alpha_k (e^{i(omega_k - nu)t} - 1)/(omega_k - nu),
        amp_up_k   = sqrt(2) alpha_k (e^{i(omega_k + nu)t} - 1)/(omega_k + nu),

    with the resonant limit i alpha_k t when omega_k = nu.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    w = chain_eigenmodes(bath)
    a = vibron_phonon_couplings(bath, nu, w)

    def amp(delta):
        res = np.abs(delta) < 1e-12
        safe = np.where(res, 1.0, delta)
        return np.where(res, 1j * t, (np.exp(1j * safe * t) - 1.0) / safe)

    return a * amp(w - nu), np.sqrt(2.0) * a * amp(w + nu)
