"""Classical microscopic dynamics of vibrons coupled to the discrete phonon
chain.

The linear equations of motion of M vibrons (m = 1..M) are

    Qdot_m = nu P_m,     Pdot_m = -nu Q_m + sum_k alpha_mk q_k,
    qdot_k = omega_k p_k,
    pdot_k = -omega_k q_k + sum_m alpha_mk Q_m - gamma_k^ph p_k,

integrated with fixed-step RK4 (the system is linear; the stability region
is well characterized and RK4 keeps the brute-force oracle simple).

Undamped runs of one vibron or of a mirror pair (-j, j) are not stepped:
their RK4 map is evaluated mode by mode from the normal modes of the
arrowhead matrix of the chain (`_mode_rows`), which gives the loop's own
trajectory up to rounding at any stored step.  Damped runs and every other
site set go through the loop (`_rk4`), which stays the oracle.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, InstabilityError
from .model import DiscreteBath, chain_eigenmodes, vibron_phonon_couplings


@dataclass(frozen=True)
class TrajectoryConfig:
    """Integration settings.

    dt        : fixed RK4 step; must satisfy 0 < dt <= 2 pi / (20 omega_max)
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
        if not dt > 0:
            raise ConfigError(f"dt={dt:g} must be > 0")
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


# rows of the (root x pole) and (time x mode) tables worked at once, which
# keeps the normal-mode route's memory at a few hundred kB per table
_ROWS = 16


def _secular(head, d, z, xi, eta):
    """Normal modes of the arrowhead K = [[head, z^T], [z, diag(d)]] (d
    strictly increasing, z nonzero) and the modal coordinates a = V^T xi,
    b = V^T eta of a state whose head component comes first.

    Root i of f(lam) = head - lam - sum z^2/(d - lam) lies between poles
    d_{i-1} and d_i (d_{-1} = -inf, d_n = inf) and is sought in
    tau = lam - o, o its left pole (d_0 for the root below the spectrum):
    four bisection steps, then rational steps that match f and f' with a
    pole at tau = 0 and, inside the spectrum, one at the right pole that
    also takes the -lam slope; a step that leaves the bracket bisects, and
    a root freezes once its step is below a few ulp.  Returns lam, the head
    components v0 = (-1/f'(lam))^(1/2) and (a, b), with the eigenvector
    components v0 z_k/(lam - d_k).
    """
    n = len(d)
    if n == 0:
        return np.array([head]), np.ones(1), xi[:1], eta[:1]
    zz = z * z
    reach = np.sqrt(np.sum(zz))
    out = np.empty((4, n + 1))
    for first in range(0, n + 1, _ROWS):
        i = np.arange(first, min(first + _ROWS, n + 1))
        o = d[np.maximum(i - 1, 0)]
        gap = d[np.minimum(i, n - 1)] - o
        inner = (i > 0) & (i < n)
        # poles left of each root: all before the block, part of the block
        near = slice(first, first + len(i))
        left = np.arange(n)[near] < i[:, None]
        delta = d - o[:, None]
        # beyond the spectrum f changes sign within sqrt(sum z^2) of
        # min(head, d_0) below and of max(head, d_{n-1}) above
        lo = np.where(i == 0, -(max(d[0] - head, 0.0) + reach), 0.0)
        hi = np.where(i == n, max(head - d[-1], 0.0) + reach, gap)
        tau = 0.5 * (lo + hi)
        done = np.zeros(len(i), dtype=bool)
        for it in range(100):  # a guard: fig3's roots froze within 10
            r = 1.0 / (delta - tau[:, None])
            r2 = r * r
            f = head - o - tau - r @ zz
            slope = 1.0 + r2 @ zz
            wl = r2[:, :first] @ zz[:first] + (r2[:, near] * left) @ zz[near]
            lo = np.where(f > 0, tau, lo)
            hi = np.where(f < 0, tau, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                p = tau * tau * np.where(inner, wl, slope)
                q = (gap - tau) ** 2 * (slope - wl)
                c = f - p / tau + np.where(inner, q / (gap - tau), 0.0)
                a = c * gap - p - q
                root = np.sqrt(a * a + 4.0 * c * p * gap)
                step = np.where(
                    inner,
                    np.where(a <= 0, 2.0 * p * gap / (root - a),
                             (a + root) / (2.0 * c)),
                    -p / c)
            done |= (it >= 4) & (np.abs(step - tau) <= 4e-16 * np.abs(tau))
            bad = (it < 4) | ~((step > lo) & (step < hi))
            step = np.where(bad, 0.5 * (lo + hi), step)
            if done.all():
                break
            tau = np.where(done, tau, step)
        v0 = 1.0 / np.sqrt(slope)
        out[:, i] = (o + tau, v0, v0 * (xi[0] - r @ (z * xi[1:])),
                     v0 * (eta[0] - r @ (z * eta[1:])))
    return out


def _map_powers(lam, h, n):
    """Tables (C, S, D), rows n, columns lam, with G^n = [[C, S], [-lam S, C]]
    and D = det G^n, for the RK4 map G = [[c, s], [-lam s, c]] of one
    normal mode xi'' = -lam xi: c = 1 - x/2 + x^2/24, s = h(1 - x/6),
    x = h^2 lam."""
    x = h * h * lam
    c = 1.0 - x / 2.0 + x * x / 24.0
    s = h * (1.0 - x / 6.0)
    r = np.sqrt(np.abs(lam))
    n = n[:, None]
    # det G = c^2 + lam s^2 = 1 + x^3 (x - 8)/576, without the cancellation
    log_det = np.log1p(x ** 3 * (x - 8.0) / 576.0)
    half = np.exp(0.5 * n * log_det)
    phi = np.arctan2(s * r, c)
    C = half * np.cos(n * phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        S = half * np.sin(n * phi) / r
        if np.any(lam <= 0):
            # real eigenvalues c -+ s r: growth, the chain is unstable
            j = lam <= 0
            up, down = (c[j] + s[j] * r[j]) ** n, (c[j] - s[j] * r[j]) ** n
            C[:, j] = 0.5 * (up + down)
            S[:, j] = np.where(r[j] > 0, 0.5 * (up - down) / r[j],
                               n * s[j] * c[j] ** (n - 1))
    return C, S, half * half


def _mode_rows(nu, w, A, y0, dt, n_steps, store_every):
    """Observer rows (Q, P, E, h_tot) of the undamped RK4 loop, evaluated
    mode by mode instead of step by step.

    In xi = (Q/sqrt(nu), q/sqrt(omega)), eta = xi' the chain is
    xi'' = -K xi with K the arrowhead of head nu^2, diagonal omega_k^2 and
    border -sqrt(nu omega_k) beta_k; RK4 is covariant under that change of
    variables, so it steps each normal mode of K with the map of
    `_map_powers`.  A holds one vibron's couplings, or a mirror pair's,
    which agree on even k and are opposite on odd k: (Q1 +- Q2)/sqrt(2)
    then couple to the even and to the odd modes with beta = sqrt(2) alpha.
    Modes with beta_k = 0 are deflated; they enter h_tot alone.  Returns the
    rows and the largest |sum v0^2 - 1| of the arrowheads solved.
    """
    m, nm = A.shape
    q0, p0, qph, pph = np.split(y0, [m, 2 * m, 2 * m + nm])
    xi, eta = qph / np.sqrt(w), pph * np.sqrt(w)
    if m == 1:
        blocks = [(np.ones(1), A[0])]
    else:
        even = np.arange(1, nm + 1) % 2 == 0
        blocks = [(np.array([1.0, sign]) / np.sqrt(2.0),
                   np.where(even == (sign > 0), np.sqrt(2.0) * A[0], 0.0))
                  for sign in (1.0, -1.0)]
    free = np.ones(nm, dtype=bool)
    parts, errors = [], [0.0]  # (lam, load, a, b) per block of modes
    for u, beta in blocks:
        k = beta != 0
        free &= ~k
        x0 = np.concatenate(([u @ q0 / np.sqrt(nu)], xi[k]))
        e0 = np.concatenate(([u @ p0 * np.sqrt(nu)], eta[k]))
        if not (np.any(x0) or np.any(e0)):
            continue  # this parity block starts, and stays, at rest
        roots, v0, ak, bk = _secular(nu * nu, w[k] ** 2,
                                     -np.sqrt(nu * w[k]) * beta[k], x0, e0)
        errors.append(abs(np.sum(v0 * v0) - 1.0))
        parts.append((roots, np.outer(u, v0), ak, bk))
    free &= (xi != 0) | (eta != 0)
    parts.append((w[free] ** 2, np.zeros((m, np.count_nonzero(free))),
                  xi[free], eta[free]))
    lam, load, a, b = (np.concatenate(x, axis=-1) for x in zip(*parts))
    steps = np.arange(0, n_steps + 1, store_every)
    rows = np.empty((len(steps), 3 * m + 1))
    energy = 0.5 * (lam * a * a + b * b)
    la, lb, lla = (load * a).T, (load * b).T, (load * lam * a).T
    for first in range(0, len(steps), _ROWS):
        blk = slice(first, first + _ROWS)
        C, S, D = _map_powers(lam, dt, steps[blk])
        rows[blk, :m] = np.sqrt(nu) * (C @ la + S @ lb)
        rows[blk, m:2 * m] = (C @ lb - S @ lla) / np.sqrt(nu)
        rows[blk, -1] = D @ energy
    rows[:, 2 * m:3 * m] = 0.5 * (rows[:, :m] ** 2 + rows[:, m:2 * m] ** 2)
    return rows, float(max(errors))


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

    meta = {"dt": dt, "n_steps": n_steps, "seed": cfg.seed, "n_modes": nm,
            "sites": [int(s) for s in sites]}
    mirror_pair = m == 2 and sites[0] == -sites[1]
    if np.isinf(bath.qfactor) and (m == 1 or mirror_pair):
        rows, meta["weight_sum_error"] = _mode_rows(
            nu, w, A, y0, dt, n_steps, cfg.store_every)
        meta["propagator"] = "modes"
    else:
        rows = _rk4(deriv, y0, dt, n_steps, cfg.store_every, observers)
        meta["propagator"] = "rk4"
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
        meta=meta,
    )


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


def fit_decay_rate(times, energy, gamma_guess):
    """Exponential decay rate by linear least squares on log E over the
    window [0.5/gamma_guess, 2.5/gamma_guess]."""
    times = np.asarray(times, dtype=float)
    energy = np.asarray(energy, dtype=float)
    t_lo = 0.5 / gamma_guess
    t_hi = 2.5 / gamma_guess
    sel = (times >= t_lo) & (times <= t_hi) & (energy > 0)
    if np.count_nonzero(sel) < 3:
        raise DomainError("fit window contains fewer than 3 usable samples")
    slope, _ = np.polyfit(times[sel], np.log(energy[sel]), 1)
    return -slope
