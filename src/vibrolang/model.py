"""Physical parameter types, 1D-chain normal modes and derived couplings.

Units: hbar = k_B = 1 throughout.  Frequencies are angular and carried in
whatever unit the caller chooses (the bundled presets use rad/ps, i.e.
"THz" in the loose spectroscopic sense, so that 3D electron-phonon
couplings are in ps^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

@dataclass(frozen=True, kw_only=True)
class MoleculeParams:
    """Electronic transition + single vibron of a guest molecule.

    gamma  : radiative half-linewidth
    nu     : vibron frequency
    lam    : dimensionless vibronic coupling (sqrt of the Huang-Rhys factor)
    """

    gamma: float
    nu: float
    lam: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise DomainError("gamma must be > 0")
        if self.nu <= 0:
            raise DomainError("nu must be > 0")
        if self.lam < 0:
            raise DomainError("lambda must be >= 0")


@dataclass(frozen=True)
class ThermalState:
    """Bath temperature (k_B = 1)."""

    temperature: float

    def __post_init__(self):
        if self.temperature < 0:
            raise DomainError("temperature must be >= 0")

    def occupation(self, omega):
        """Bose-Einstein occupancy n(omega); exactly 0 at T = 0."""
        omega = np.asarray(omega, dtype=float)
        if np.any(omega <= 0):
            raise DomainError("occupation requires omega > 0")
        if self.temperature == 0:
            return np.zeros_like(omega) if omega.ndim else 0.0
        n = 1.0 / np.expm1(omega / self.temperature)
        return n if omega.ndim else float(n)

    def coth_half_beta(self, omega):
        """coth(beta*omega/2) = 1 + 2*n(|omega|), sign-odd in omega.

        At T = 0 this is sign(omega)."""
        omega = np.asarray(omega, dtype=float)
        if self.temperature == 0:
            out = np.sign(omega)
        else:
            x = omega / (2.0 * self.temperature)
            # tanh is well conditioned everywhere; avoid overflow of cosh/sinh
            with np.errstate(divide="ignore"):
                out = 1.0 / np.tanh(x)
            out = np.where(x == 0, np.inf, out)
        return out if out.ndim else float(out)

    @classmethod
    def from_occupation(cls, nbar, omega):
        """Temperature at which mode `omega` has occupancy `nbar`."""
        if nbar < 0:
            raise DomainError("nbar must be >= 0")
        if nbar == 0:
            return cls(0.0)
        return cls(omega / np.log1p(1.0 / nbar))


@dataclass(frozen=True)
class DiscreteBath:
    """Finite 1D chain of 2N+1 host cells with an embedded molecule.

    n_cells  : N (chain has 2N+1 bulk sites, molecule at site N+1)
    k0       : host-host spring constant
    m0       : host atom mass
    dk       : coupling asymmetry Delta k (left/right molecule-host springs)
    mu       : reduced molecular mass (continuum reduction assumes mu = m0)
    qfactor  : phonon quality factor omega_k / gamma_k^ph (inf = undamped)
    """

    n_cells: int
    k0: float
    m0: float
    dk: float
    mu: float | None = None
    qfactor: float = np.inf
    temperature: float = 0.0

    def __post_init__(self):
        if self.mu is None:
            object.__setattr__(self, "mu", self.m0)
        if self.n_cells < 1:
            raise DomainError("n_cells must be >= 1")
        if min(self.k0, self.m0, self.mu) <= 0:
            raise DomainError("k0, m0 and mu must be > 0")
        if self.qfactor <= 0:
            raise DomainError("qfactor must be > 0 (or inf)")
        if self.temperature < 0:
            raise DomainError("temperature must be >= 0")

    @property
    def omega_max(self):
        return 2.0 * np.sqrt(self.k0 / self.m0)


@dataclass(frozen=True)
class SpectralDensity:
    """Electron-phonon spectral density J(omega).

    kind      : "1d" or "3d"
    coupling  : lambda_e-ph (dimensionless for 1d, [time^2] for 3d)
    omega_max : band edge
    omega_min : infrared cutoff of either form
    """

    kind: str
    coupling: float
    omega_max: float
    omega_min: float = 0.0

    def __post_init__(self):
        if self.kind not in ("1d", "3d"):
            raise DomainError("kind must be '1d' or '3d'")
        if self.coupling < 0:
            raise DomainError("coupling must be >= 0")
        if not 0 <= self.omega_min < self.omega_max:
            raise DomainError("need 0 <= omega_min < omega_max")

    @property
    def infrared_divergent(self):
        """1D with omega_min = 0 makes the Debye-Waller integral diverge."""
        return self.kind == "1d" and self.omega_min == 0.0 and self.coupling > 0


def chain_eigenmodes(bath: DiscreteBath) -> np.ndarray:
    """Eigenfrequencies omega_k = omega_max sin(pi k / (2(2N+2))), k=1..2N+1."""
    n = bath.n_cells
    k = np.arange(1, 2 * n + 2)
    return bath.omega_max * np.sin(np.pi * k / (2.0 * (2 * n + 2)))


def vibron_phonon_couplings(bath: DiscreteBath, nu, site=0) -> np.ndarray:
    """Couplings alpha_k between a vibron at site N+1+site and each chain mode.

    alpha_k = 2 dk sqrt(1/(N+1)) cos(pi k (N+1+site)/(2N+2)) sin(pi k/(2N+2))
              u_zpm x_zpm,
    with u_zpm = (2 m0 omega_k)^(-1/2), x_zpm = (2 mu nu)^(-1/2).
    Vanishes where the cosine does, k (N+1+site) = N+1 mod 2N+2; at the
    central site (site = 0) that is every odd k (parity selection).
    """
    n = bath.n_cells
    if int(site) != site or abs(site) > n:
        raise DomainError(f"site offset {site} is not an integer in [-N, N]")
    omega = chain_eigenmodes(bath)
    x_zpm = 1.0 / np.sqrt(2.0 * bath.mu * nu)
    u_zpm = 1.0 / np.sqrt(2.0 * bath.m0 * omega)
    k, m = np.arange(1, 2 * n + 2), n + 1
    geometry = (2.0 * np.sqrt(1.0 / m) * reduced_sincos(k, m + site, 0.0, m)[1]
                * reduced_sincos(k, 1, 0.0, m)[0])
    return bath.dk * geometry * u_zpm * x_zpm


def reduced_sincos(k, n, delta, m):
    """(sin, cos) of n q, q = pi k/(2m) + delta, for integers k, n, m: the
    multiple of pi/2 nearest n pi k/(2m) comes off exactly, so each value
    keeps its relative accuracy near its zeros; at delta = 0 the zeros come
    out as exact (signed) zeros."""
    r = (k * n) % (4 * m)
    j = (2 * r + m) // (2 * m)
    x = np.pi * (r - j * m) / (2 * m) + n * delta
    s, c = np.sin(x), np.cos(x)
    odd = j % 2 == 1
    s, c = np.where(odd, c, s), np.where(odd, s, c)
    j %= 4
    return np.where(j >= 2, -s, s), np.where((j == 1) | (j == 2), -c, c)


def derived_markov_params(bath: DiscreteBath, nu):
    """Crystal-induced shift nu_s and Markovian rate Gamma_m of the chain.

    nu_s    = dk^2 / (2 k0 mu nu)   (equivalently nu dk^2/(2 k0 k_M))
    Gamma_m = 2 nu nu_s / omega_max
    """
    if nu <= 0:
        raise DomainError("nu must be > 0")
    nu_s = bath.dk**2 / (2.0 * bath.k0 * bath.mu * nu)
    gamma_m = 2.0 * nu * nu_s / bath.omega_max
    return nu_s, gamma_m
