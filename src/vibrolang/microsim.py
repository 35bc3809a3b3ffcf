"""Classical microscopic dynamics of vibrons coupled to the discrete phonon
chain, plus first-order scattering amplitudes.

The linear equations of motion of M vibrons (m = 1..M) are

    Qdot_m = nu P_m,     Pdot_m = -nu Q_m + sum_k alpha_mk q_k,
    qdot_k = omega_k p_k,
    pdot_k = -omega_k q_k + sum_m alpha_mk Q_m - gamma_k^ph p_k,

integrated with fixed-step RK4 (the system is linear; the stability region
is well characterized and RK4 keeps the brute-force oracle simple).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, InstabilityError, VariantError
from .model import (
    DiscreteBath,
    build_chain,
    chain_eigenmodes,
    vibron_phonon_couplings,
)


@dataclass(frozen=True)
class TrajectoryConfig:
    """Integration settings.

    dt        : fixed RK4 step; must satisfy dt <= 2 pi / (20 omega_max)
    t_max     : horizon
    q0, p0    : initial vibron quadratures (one value, or one per molecule)
    thermal_phonons : sample phonon initial conditions from the classical
                      thermal distribution instead of starting at rest
    seed      : RNG seed recorded for reproducibility
    store_every : keep every n-th step in the output
    """

    dt: float | None = None
    t_max: float = 10.0
    q0: float | tuple[float, ...] = 1.0
    p0: float | tuple[float, ...] = 0.0
    thermal_phonons: bool = False
    seed: int = 0
    store_every: int = 1

    def resolved_dt(self, omega_max: float) -> float:
        dt = self.dt if self.dt is not None else 2.0 * np.pi / (40.0 * omega_max)
        if dt > 2.0 * np.pi / (20.0 * omega_max):
            raise ConfigError(
                f"dt={dt:g} exceeds the stability bound 2pi/(20 omega_max)"
            )
        if self.t_max <= 0:
            raise ConfigError("t_max must be > 0")
        return dt


@dataclass
class Trajectory:
    """Sampled trajectory of the vibron observables.

    For single-molecule runs Q, P, E have shape (nt,); for M molecules they
    have shape (M, nt), one row per molecule.  Pair runs also carry
    e_plus/e_minus, the energies of the collective quadratures
    (Q1 +- Q2)/sqrt(2), (P1 +- P2)/sqrt(2).
    """

    times: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    E: np.ndarray
    e_plus: np.ndarray | None = None
    e_minus: np.ndarray | None = None
    total_energy: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def pair(self) -> bool:
        return self.Q.ndim == 2

    def to_csv(self) -> str:
        """Columns t, then Q_m,P_m for each molecule, then E_1..E_M, then
        Eplus,Eminus for a pair."""
        Q, P, E = (np.atleast_2d(x) for x in (self.Q, self.P, self.E))
        m = len(Q)
        header = ["t"]
        cols = [self.times]
        for i in range(m):
            header += ["Q%d" % (i + 1), "P%d" % (i + 1)]
            cols += [Q[i], P[i]]
        header += ["E%d" % (i + 1) for i in range(m)]
        cols += list(E)
        if m == 2:
            header += ["Eplus", "Eminus"]
            cols += [self.e_plus, self.e_minus]
        fmt = ",".join(["%.12e"] * len(cols)) + "\n"
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for row in np.column_stack(cols).tolist():
            buf.write(fmt % tuple(row))
        return buf.getvalue()


def _thermal_phonon_sample(rng, omega, temperature):
    """Classical equipartition draw: q_k, p_k ~ N(0, T/omega_k) in the
    dimensionless quadratures where H_k = omega_k (p_k^2 + q_k^2)/2."""
    if temperature <= 0:
        return np.zeros_like(omega), np.zeros_like(omega)
    sig = np.sqrt(temperature / omega)
    return rng.normal(0.0, sig), rng.normal(0.0, sig)


def _rk4(deriv, y0, dt, n_steps, store_every, observers):
    """Fixed-step RK4 with in-loop observation; returns stacked observer rows."""
    y = np.array(y0, dtype=float)
    n_out = n_steps // store_every + 1
    out = np.empty((n_out, len(observers(y))), dtype=float)
    out[0] = observers(y)
    row = 1
    for step in range(1, n_steps + 1):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * dt * k1)
        k3 = deriv(y + 0.5 * dt * k2)
        k4 = deriv(y + dt * k3)
        y += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % store_every == 0:
            out[row] = observers(y)
            row += 1
    return out[:row]


def simulate(nu: float, bath: DiscreteBath, sites,
             cfg: TrajectoryConfig) -> Trajectory:
    """Integrate M identical vibrons at chain sites N+1+s, s in `sites`.

    `sites` holds distinct integer offsets from the central cell: (0,) is a
    single molecule at the centre, (-j, j) a pair at N+1 -+ j.  Initial
    quadratures may be given per molecule as tuples in `cfg`.  Raises
    InstabilityError if the summed vibron energy is not finite or exceeds
    10x its initial value (a symptom of a step-size/stability failure in
    this passive model).
    """
    if not isinstance(bath, DiscreteBath):
        raise VariantError("simulate requires a discrete bath")
    if len(sites) == 0 or len(set(sites)) != len(sites):
        raise DomainError("sites must be non-empty and distinct")
    w = chain_eigenmodes(bath)
    A = np.array([vibron_phonon_couplings(bath, nu, w, site=s) for s in sites])
    gph = np.zeros_like(w) if np.isinf(bath.qfactor) else w / bath.qfactor

    dt = cfg.resolved_dt(bath.omega_max)
    n_steps = int(np.ceil(cfg.t_max / dt))
    m, nm = A.shape

    try:
        q0 = np.broadcast_to(np.asarray(cfg.q0, dtype=float), (m,))
        p0 = np.broadcast_to(np.asarray(cfg.p0, dtype=float), (m,))
    except ValueError as exc:
        raise ConfigError("q0 and p0 take one value or one per molecule") \
            from exc
    rng = np.random.default_rng(cfg.seed)
    q0ph, p0ph = (
        _thermal_phonon_sample(rng, w, bath.temperature)
        if cfg.thermal_phonons
        else (np.zeros(nm), np.zeros(nm))
    )
    y0 = np.concatenate((q0, p0, q0ph, p0ph))

    # np.dot, not @: at fig3 size the (M,) x (M, n_modes) product is about
    # 4x faster through np.dot
    def deriv(y):
        Q = y[:m]
        P = y[m:2 * m]
        q = y[2 * m:2 * m + nm]
        p = y[2 * m + nm:]
        dy = np.empty_like(y)
        dy[:m] = nu * P
        dy[m:2 * m] = -nu * Q + np.dot(A, q)
        dy[2 * m:2 * m + nm] = w * p
        dy[2 * m + nm:] = -w * q + np.dot(Q, A) - gph * p
        return dy

    def observers(y):
        Q = y[:m]
        P = y[m:2 * m]
        q = y[2 * m:2 * m + nm]
        p = y[2 * m + nm:]
        e_vib = 0.5 * (Q * Q + P * P)
        h_tot = (
            nu * np.sum(e_vib)
            + 0.5 * np.sum(w * (q * q + p * p))
            - np.dot(Q, np.dot(A, q))
        )
        return np.concatenate((Q, P, e_vib, [h_tot]))

    rows = _rk4(deriv, y0, dt, n_steps, cfg.store_every, observers)
    times = np.arange(len(rows)) * dt * cfg.store_every
    Q, P, E = rows[:, :m].T, rows[:, m:2 * m].T, rows[:, 2 * m:3 * m].T
    e_sum = np.sum(E, axis=0)
    if not np.all(np.isfinite(e_sum)):
        raise InstabilityError("vibron energy is not finite")
    if e_sum[0] > 0 and np.max(e_sum) > 10.0 * e_sum[0]:
        raise InstabilityError("vibron energy grew beyond 10x its initial value")
    e_plus = e_minus = None
    if m == 2:
        e_plus = 0.25 * ((Q[0] + Q[1]) ** 2 + (P[0] + P[1]) ** 2)
        e_minus = 0.25 * ((Q[0] - Q[1]) ** 2 + (P[0] - P[1]) ** 2)
    if m == 1:
        Q, P, E = Q[0], P[0], E[0]
    return Trajectory(
        times=times, Q=Q, P=P, E=E, e_plus=e_plus, e_minus=e_minus,
        total_energy=rows[:, 3 * m],
        meta={"dt": dt, "seed": cfg.seed, "n_modes": nm,
              "sites": [int(s) for s in sites]},
    )


def dyson_first_order(t: float, bath: DiscreteBath, nu: float):
    """First-order scattering amplitudes at time t.

    Returns (amp_down, amp_up): amplitudes onto |0_nu, 1_k> and |2_nu, 1_k>,

        amp_down_k = alpha_k (e^{i(omega_k - nu)t} - 1)/(omega_k - nu),
        amp_up_k   = sqrt(2) alpha_k (e^{i(omega_k + nu)t} - 1)/(omega_k + nu),

    with the resonant limit i alpha_k t when omega_k = nu.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    chain = build_chain(bath, nu)
    w = chain.frequencies
    a = chain.alpha

    def amp(delta):
        res = np.abs(delta) < 1e-12
        safe = np.where(res, 1.0, delta)
        return np.where(res, 1j * t, (np.exp(1j * safe * t) - 1.0) / safe)

    return a * amp(w - nu), np.sqrt(2.0) * a * amp(w + nu)


def energy_envelope(times, energy, period):
    """Centered moving average of `energy` over one fast-oscillation `period`.

    The bare-quadrature energy (Q^2 + P^2)/2 of a host-renormalized vibron
    breathes at twice the shifted frequency with relative amplitude of order
    nu_s / (2 nu); averaging over one period extracts the decay envelope.
    Returns (times_valid, envelope) restricted to samples whose averaging
    window lies fully inside the trajectory, so there is no edge bias.
    """
    times = np.asarray(times, dtype=float)
    energy = np.asarray(energy, dtype=float)
    if len(times) < 2:
        raise DomainError("need at least two samples")
    dt = times[1] - times[0]
    w = max(1, int(round(period / dt)))
    if w >= len(energy):
        raise DomainError("averaging period exceeds the trajectory length")
    kernel = np.full(w, 1.0 / w)
    env = np.convolve(energy, kernel, mode="valid")
    lo = (w - 1) // 2
    return times[lo:lo + len(env)], env


def fit_decay_rate(times, energy, gamma_guess, window=(0.5, 2.5)):
    """Exponential decay rate by linear least squares on log E over the
    window [window[0]/gamma_guess, window[1]/gamma_guess]."""
    times = np.asarray(times, dtype=float)
    energy = np.asarray(energy, dtype=float)
    t_lo = window[0] / gamma_guess
    t_hi = window[1] / gamma_guess
    sel = (times >= t_lo) & (times <= t_hi) & (energy > 0)
    if np.count_nonzero(sel) < 3:
        raise DomainError("fit window contains fewer than 3 usable samples")
    slope, _ = np.polyfit(times[sel], np.log(energy[sel]), 1)
    return -slope
