"""Classical microscopic dynamics of vibrons coupled to the discrete phonon
chain.

The linear equations of motion of M vibrons (m = 1..M) are

    Qdot_m = nu P_m,     Pdot_m = -nu Q_m + sum_k alpha_mk q_k,
    qdot_k = omega_k p_k,
    pdot_k = -omega_k q_k + sum_m alpha_mk Q_m - gamma_k^ph p_k,

integrated with fixed-step RK4 at dt = 2 pi / (40 max(omega_max, nu)), 40
steps per period of the fastest of the band edge and the vibron (the system
is linear; the stability region is well characterized and RK4 keeps the
brute-force oracle simple).  The phonons start at rest at bath temperature
0 and from a classical thermal draw, seeded by `TrajectoryConfig.seed`,
above it.  The trajectory is the RK4 step loop's up to rounding, but no run
steps it; the loop stays in the tests as the oracle.  Two routes evaluate
its map:

- Undamped runs of one vibron or of a mirror pair (-j, j) take
  `_mode_rows`: the map mode by mode from the normal modes of the
  arrowhead matrix of the chain.  The powers of each mode's map factor
  as e^{(n0 + j s) mu} = e^{n0 mu} e^{j s mu}, so one (rows x modes)
  table of e^{j s mu} per run and one matrix product per block of stored
  rows give every row (`_modal_rows`).
- Every other run (damped, or of any other site set) takes `_map_rows`:
  the phonon block of the map is one 2x2 matrix per mode, and the vibrons
  see the phonons only through 4M projections, so the store_every steps
  between two stored rows compose into per-mode 2x2 blocks, two
  (4M x 2 n_modes) tables and one small vibron matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InstabilityError
from .model import DiscreteBath, chain_eigenmodes, vibron_phonon_couplings


@dataclass(frozen=True, kw_only=True)
class TrajectoryConfig:
    """Integration settings.

    t_max     : horizon, > 0
    q0, p0    : initial vibron quadratures (one value, or one per molecule)
    seed      : seed of the phonons' thermal draw, >= 0; the phonons start
                at rest at bath temperature 0 and from a classical thermal
                draw above it
    store_every : keep every n-th step in the output, >= 1
    """

    t_max: float
    q0: float | tuple[float, ...] = 1.0
    p0: float | tuple[float, ...] = 0.0
    seed: int = 0
    store_every: int = 1

    def __post_init__(self):
        if not self.t_max > 0:
            raise DomainError("t_max must be > 0")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.store_every < 1:
            raise DomainError("store_every must be >= 1")

    def start(self, m: int):
        """Initial (Q, P) of m molecules, each of shape (m,)."""
        try:
            return tuple(np.broadcast_to(np.asarray(x, dtype=float), (m,))
                         for x in (self.q0, self.p0))
        except ValueError as exc:
            raise DomainError("q0 and p0 take one value or one per "
                              "molecule") from exc


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
        table = np.column_stack(cols)
        rows = (",".join(["%.12e"] * len(cols)) + "\n") * len(table)
        return ",".join(header) + "\n" + rows % tuple(table.ravel().tolist())


def _thermal_phonon_sample(rng, omega, temperature):
    """Classical equipartition draw: q_k, p_k ~ N(0, T/omega_k) in the
    dimensionless quadratures where H_k = omega_k (p_k^2 + q_k^2)/2; the
    chain at rest, with nothing drawn, at T <= 0."""
    if temperature <= 0:
        return np.zeros_like(omega), np.zeros_like(omega)
    sig = np.sqrt(temperature / omega)
    return rng.normal(0.0, sig), rng.normal(0.0, sig)


# roots of the (root x pole) tables of `_secular` worked at once: 320 kB
# a table for a fig3 block of 1,251 poles
_ROWS = 32


def _secular(head, d, z, xi, eta):
    """Normal modes of the arrowhead K = [[head, z^T], [z, diag(d)]] (d
    strictly increasing, z nonzero) and the modal coordinates a = V^T xi,
    b = V^T eta of a state whose head component comes first.

    Root i of f(lam) = head - lam - sum z^2/(d - lam) lies between poles
    d_{i-1} and d_i (d_{-1} = -inf, d_n = inf) and is sought in
    tau = lam - o, o its left pole (d_0 for the root below the spectrum):
    from the midpoint of its bracket, rational steps that match f and f'
    with a pole at tau = 0 and, inside the spectrum, one at the right pole
    that also takes the -lam slope; a step that leaves the bracket bisects.
    A root freezes once |f| is within f's rounding bound (the stopping rule
    of LAPACK's dlaed4), once its bracket is a few ulp wide, or once its
    step is.  Returns lam, the head components v0 = (-1/f'(lam))^(1/2),
    (a, b), with the eigenvector components v0 z_k/(lam - d_k), and the
    most iterations a block of roots took.
    """
    n = len(d)
    if n == 0:
        return np.array([head]), np.ones(1), xi[:1], eta[:1], 0
    zz = z * z
    reach = np.sqrt(np.sum(zz))
    eps = np.finfo(float).eps
    out = np.empty((4, n + 1))
    iterations = 0
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
        for it in range(100):  # a guard: fig3's blocks froze within 8
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
            # f's rounding bound, with sum |r| z^2 <= reach ||r z||
            # = reach (slope - 1)^(1/2) by Cauchy-Schwarz
            noise = np.abs(head - o) + np.abs(tau) + reach * np.sqrt(slope - 1)
            done |= ((np.abs(f) <= 8 * eps * noise)
                     | (hi - lo <= 8 * eps * np.abs(tau))
                     | (np.abs(step - tau) <= 4e-16 * np.abs(tau)))
            step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            if done.all():
                break
            tau = np.where(done, tau, step)
        iterations = max(iterations, it)
        v0 = 1.0 / np.sqrt(slope)
        out[:, i] = (o + tau, v0, v0 * (xi[0] - r @ (z * xi[1:])),
                     v0 * (eta[0] - r @ (z * eta[1:])))
    return (*out, iterations)


# stored rows per block of `_modal_rows`: its complex (rows x modes) table
# takes 16 B per entry, 1.3 MB for a fig3 run's 1,252 modes
_BLOCK = 64


def _modal_rows(nu, lam, load, a, b, h, n_rows, s):
    """Observer rows (Q, P, E) at steps 0, s, .., (n_rows - 1) s of
    normal modes xi'' = -lam xi, each stepped with its RK4 map
    G = [[c, s_h], [-lam s_h, c]]: c = 1 - x/2 + x^2/24, s_h = h(1 - x/6),
    x = h^2 lam.  Mode k starts at (a_k, b_k); load (M, modes) maps the
    modes to the vibron coordinates Q/sqrt(nu), P sqrt(nu).

    For lam > 0, G has eigenvalues e^{+-mu}, mu = log_det/2 + i phi with
    log_det = log det G and phi = arg(c + i s_h r), r = sqrt(lam), and
    G^n = [[C, S], [-lam S, C]] with C + i r S = e^{n mu}.  So a mode's
    part of Q/sqrt(nu) at step n is Re e^{n mu} (a - i b/r) times its load,
    and of P sqrt(nu) Re e^{n mu} (b + i r a).  Rows come in blocks of
    _BLOCK from n0 = first s: one table E[j, k] = e^{j s mu_k}, built once,
    times the coupling columns with e^{n0 mu} folded in, gives a block in
    one complex product and one exp per mode.  Modes with lam <= 0 (an
    unstable chain) have real eigenvalues c -+ s_h r; their Q and P take
    the direct powers.
    """
    m = len(load)
    x = h * h * lam
    c = 1.0 - x / 2.0 + x * x / 24.0
    sh = h * (1.0 - x / 6.0)
    r = np.sqrt(np.abs(lam))
    # det G = c^2 + lam s_h^2 = 1 + x^3 (x - 8)/576, without the
    # cancellation
    log_det = np.log1p(x ** 3 * (x - 8.0) / 576.0)
    real = lam <= 0
    cx = ~real
    la, lb = load * a, load * b
    mu = 0.5 * log_det[cx] + 1j * np.arctan2(sh[cx] * r[cx], c[cx])
    coef = np.vstack((np.sqrt(nu) * (la[:, cx] - 1j * lb[:, cx] / r[cx]),
                      (lb[:, cx] + 1j * r[cx] * la[:, cx]) / np.sqrt(nu))).T
    E = s * np.arange(min(_BLOCK, n_rows))[:, None] * mu
    np.exp(E, out=E)
    rows = np.empty((n_rows, 3 * m))
    for first in range(0, n_rows, _BLOCK):
        k, n0 = min(_BLOCK, n_rows - first), first * s
        blk = slice(first, first + k)
        rows[blk, :2 * m] = (E[:k] @ (np.exp(n0 * mu)[:, None] * coef)).real
        if np.any(real):
            n = (n0 + s * np.arange(k))[:, None]
            cr, sr, rr = c[real], sh[real], r[real]
            up, down = (cr + sr * rr) ** n, (cr - sr * rr) ** n
            C = 0.5 * (up + down)
            with np.errstate(divide="ignore", invalid="ignore"):
                S = np.where(rr > 0, 0.5 * (up - down) / rr,
                             n * sr * cr ** (n - 1))
            lr, br, lar = la[:, real].T, lb[:, real].T, (lam * la)[:, real].T
            rows[blk, :m] += np.sqrt(nu) * (C @ lr + S @ br)
            rows[blk, m:2 * m] += (C @ br - S @ lar) / np.sqrt(nu)
    rows[:, 2 * m:] = 0.5 * (rows[:, :m] ** 2 + rows[:, m:2 * m] ** 2)
    return rows


def _mode_rows(nu, w, A, y0, dt, n_steps, store_every):
    """Observer rows (Q, P, E) of the undamped RK4 loop, evaluated
    mode by mode instead of step by step.

    In xi = (Q/sqrt(nu), q/sqrt(omega)), eta = xi' the chain is
    xi'' = -K xi with K the arrowhead of head nu^2, diagonal omega_k^2 and
    border -sqrt(nu omega_k) beta_k; RK4 is covariant under that change of
    variables, so it steps each normal mode of K with the map of
    `_modal_rows`.  A holds one vibron's couplings, or a mirror pair's,
    which agree on even k and are opposite on odd k: (Q1 +- Q2)/sqrt(2)
    then couple to the even and to the odd modes with beta = sqrt(2) alpha.
    Modes with beta_k = 0 are deflated: the vibrons never see them.  Returns
    the rows, the largest |sum v0^2 - 1| of the arrowheads solved and the
    most iterations `_secular` took for a block of their roots.
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
    # (lam, load, a, b) per block of modes, after an empty block that stands
    # for the vibrons' rows when every block starts, and stays, at rest
    none = np.empty(0)
    parts, errors = [(none, np.empty((m, 0)), none, none)], [0.0]
    iterations = 0
    for u, beta in blocks:
        k = beta != 0
        x0 = np.concatenate(([u @ q0 / np.sqrt(nu)], xi[k]))
        e0 = np.concatenate(([u @ p0 * np.sqrt(nu)], eta[k]))
        if not (np.any(x0) or np.any(e0)):
            continue  # this parity block starts, and stays, at rest
        roots, v0, ak, bk, its = _secular(
            nu * nu, w[k] ** 2, -np.sqrt(nu * w[k]) * beta[k], x0, e0)
        errors.append(abs(np.sum(v0 * v0) - 1.0))
        iterations = max(iterations, its)
        parts.append((roots, np.outer(u, v0), ak, bk))
    lam, load, a, b = (np.concatenate(x, axis=-1) for x in zip(*parts))
    rows = _modal_rows(nu, lam, load, a, b, dt, n_steps // store_every + 1,
                       store_every)
    return rows, float(max(errors)), iterations


# steps composed into one map of `_map_rows`: its two tables hold
# 4 M _STEPS rows of 2 n_modes values, 512 kB for one molecule on a
# 500-cell chain
_STEPS = 8


def _horner4(X, eye):
    """sum_{j<=4} X^j/j!, the RK4 polynomial, for stacked square X."""
    out = eye
    for j in (4, 3, 2, 1):
        out = eye + (X / j) @ out
    return out


def _step_map(nu, A, Dp, h):
    """F with [v'; g] = F [v; c] for one RK4 step of the chain.

    v = (Q, P); c = (c_0, .., c_3), c_a = A (D^a ph)_q, holds what the
    vibrons see of the phonons ph = (q, p), with D = [[0, w], [-w, -gamma]]
    per mode; the step adds sum_a D^a (0, A^T g_a) to p(hD) ph.  The RK4
    polynomial is taken of the generator on (v, pi, xi), where pi_b is the
    projection c_b of the part of ph grown from ph alone and xi_a the
    weight of D^a (0, A^T .) in the part fed back by the vibrons: dv/dt
    moves P by pi_0 + sum_a K_a xi_a, K_a = A diag(D^a_qp) A^T, pi shifts
    down, xi shifts up and xi_0 takes Q.  Four powers of the generator
    never reach pi_4 or xi_4, so both are dropped.  Dp holds D^a, a <= 3.
    """
    m = len(A)
    eye = np.eye(m)
    # (M x M) blocks: Q, P, pi_0..pi_3, xi_0..xi_3
    J = np.zeros((10, m, 10, m))
    J[0, :, 1] = nu * eye
    J[1, :, 0] = -nu * eye
    J[1, :, 2] = eye
    for a in range(4):
        J[1, :, 6 + a] = (A * Dp[a, :, 0, 1]) @ A.T
    for b in range(3):
        J[2 + b, :, 3 + b] = eye
        J[7 + b, :, 6 + b] = eye
    J[6, :, 0] = eye
    G = _horner4(h * J.reshape(10 * m, 10 * m), np.eye(10 * m))
    return G[np.r_[:2 * m, 6 * m:10 * m], :6 * m]


def _composed_map(nu, A, D, h, s):
    """(F_s, R_s, U_s, L^s) of s RK4 steps with L = p(hD) per mode.

    With c_{n,a} = A (D^a L^n ph)_q for n < s, s steps are
    [v_s; g] = F_s [v; c] and ph_s = L^s ph + sum_{n,a} L^{s-1-n} D^a
    (0, A^T g_{n,a}).  Each step sees the free projections c_n plus those
    of the earlier steps' feedback, R L^k U; F_s chains the one-step map
    through them.  R_s maps ph to c, and U_s^T maps g to the fed-back
    phonons: both are (4 M s, 2 n_modes) tables, rows (n, a, m), columns
    q then p.  L^s is (2, 2, n_modes).
    """
    m, nm = A.shape
    eye = np.broadcast_to(np.eye(2), D.shape)
    Dp = [eye]
    for _ in range(3):
        Dp.append(D @ Dp[-1])
    Dp = np.array(Dp)                                    # (4, nm, 2, 2)
    Lp = [eye, _horner4(h * D, eye)]
    for _ in range(s - 1):
        Lp.append(Lp[1] @ Lp[-1])
    Lp = np.array(Lp)                                    # (s + 1, nm, 2, 2)
    rq = (Dp[:, :, :1] @ Lp[:s, None])[..., 0, :]        # (s, 4, nm, 2)
    up = (Lp[s - 1::-1, None] @ Dp[..., 1:])[..., 0]
    R, U = ((x.transpose(0, 1, 3, 2)[:, :, None] * A[:, None])
            .reshape(4 * m * s, 2 * nm) for x in (rq, up))
    # R L^k U, k < s - 1: entry (a, b) per mode is rq[k, a] . Dp[b]_p
    t = np.einsum("kaxi,bxi->kabx", rq[:s - 1], Dp[..., 1])
    feed = np.einsum("mx,kabx,nx->kambn", A, t, A).reshape(-1, 4 * m, 4 * m)
    F = _step_map(nu, A, Dp, h)
    n_in = 2 * m + 4 * m * s
    V = np.eye(2 * m, n_in)
    gs = []
    for n in range(s):
        c = np.zeros((4 * m, n_in))
        c[:, 2 * m + 4 * m * n:2 * m + 4 * m * (n + 1)] = np.eye(4 * m)
        for j, g in enumerate(gs):
            c += feed[n - 1 - j] @ g
        V, g = np.split(F @ np.vstack((V, c)), [2 * m])
        gs.append(g)
    return np.vstack([V] + gs), R, U, np.moveaxis(Lp[s], 0, -1).copy()


def _map_rows(nu, w, A, gph, y0, dt, n_steps, store_every):
    """Observer rows (Q, P, E) of the RK4 loop, a stored row at a
    time: each row applies the composed maps of `_composed_map` over
    chunks of at most _STEPS steps."""
    m, nm = A.shape
    D = np.zeros((nm, 2, 2))
    D[:, 0, 1], D[:, 1, 0], D[:, 1, 1] = w, -w, -gph
    chunks = [_STEPS] * (store_every // _STEPS) + [store_every % _STEPS]
    maps = {s: _composed_map(nu, A, D, dt, s) for s in set(chunks) if s}
    plan = [maps[s] for s in chunks if s]
    n_rows = n_steps // store_every + 1
    v, ph = y0[:2 * m], y0[2 * m:].reshape(2, nm)
    vs = np.empty((n_rows, 2 * m))
    for row in range(n_rows):
        if row:
            for F, R, U, Ls in plan:
                z = F @ np.concatenate((v, R @ ph.ravel()))
                v = z[:2 * m]
                ph = (Ls[:, 0] * ph[0] + Ls[:, 1] * ph[1]
                      + (z[2 * m:] @ U).reshape(2, nm))
        vs[row] = v
    Q, P = vs[:, :m], vs[:, m:]
    return np.column_stack((vs, 0.5 * (Q * Q + P * P)))


def _setup(nu, bath, sites, cfg):
    """Chain frequencies w, couplings A (M, n_modes), phonon damping gph,
    initial state y0 = (Q, P, q, p), step and step count of a run."""
    if len(sites) == 0 or len(set(sites)) != len(sites):
        raise DomainError("sites must be non-empty and distinct")
    w = chain_eigenmodes(bath)
    A = np.array([vibron_phonon_couplings(bath, nu, w, site=s) for s in sites])
    gph = np.zeros_like(w) if np.isinf(bath.qfactor) else w / bath.qfactor

    dt = 2.0 * np.pi / (40.0 * max(bath.omega_max, nu))
    n_steps = int(np.ceil(cfg.t_max / dt))
    q0, p0 = cfg.start(len(A))
    q0ph, p0ph = _thermal_phonon_sample(np.random.default_rng(cfg.seed), w,
                                        bath.temperature)
    return w, A, gph, np.concatenate((q0, p0, q0ph, p0ph)), dt, n_steps


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
    w, A, gph, y0, dt, n_steps = _setup(nu, bath, sites, cfg)
    m, nm = A.shape
    meta = {"dt": dt, "n_steps": n_steps, "seed": cfg.seed, "n_modes": nm,
            "sites": [int(s) for s in sites]}
    mirror_pair = m == 2 and sites[0] == -sites[1]
    if np.isinf(bath.qfactor) and (m == 1 or mirror_pair):
        rows, meta["weight_sum_error"], meta["secular_iterations"] = (
            _mode_rows(nu, w, A, y0, dt, n_steps, cfg.store_every))
        meta["propagator"] = "modes"
    else:
        rows = _map_rows(nu, w, A, gph, y0, dt, n_steps, cfg.store_every)
        meta["propagator"] = "rk4"
    times = np.arange(len(rows)) * dt * cfg.store_every
    Q, P, E = rows[:, :m].T, rows[:, m:2 * m].T, rows[:, 2 * m:].T
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
    return Trajectory(times=times, Q=Q, P=P, E=E, e_plus=e_plus,
                      e_minus=e_minus, meta=meta)


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
