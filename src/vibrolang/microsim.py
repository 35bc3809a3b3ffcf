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
  arrowhead matrix of the chain (a pair's splits by parity into two).
  `_secular` finds each normal mode as a root of the arrowhead's secular
  equation in O(1) per root and iteration: the chain is uniform with
  fixed ends, so the equation's sum over every pole is the lattice
  resolvent in closed form (`_Strain`).  The powers of each mode's map
  factor as e^{(n0 + j s) mu} = e^{n0 mu} e^{j s mu}, so one
  (rows x modes) table of e^{j s mu} per run and one matrix product per
  block of stored rows give every row (`_modal_rows`).
- Every other run (damped, or of any other site set) takes `_map_rows`:
  the phonon block of the map is one 2x2 matrix per mode, and the vibrons
  see the phonons only through 4M projections, so the store_every steps
  between two stored rows compose into per-mode 2x2 blocks, two
  (4M x 2 n_modes) tables and one small vibron matrix.  It steps only the
  felt modes, those some vibron couples to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InstabilityError
from .model import (
    DiscreteBath,
    chain_eigenmodes,
    reduced_sincos,
    vibron_phonon_couplings,
)
from .text import csv_rows


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
    have shape (M, nt), one row per molecule.  Runs of two molecules also
    carry e_plus/e_minus, the energies of the collective quadratures
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
        """True at any M >= 2; e_plus/e_minus exist only at M = 2."""
        return self.Q.ndim == 2

    def to_csv(self) -> bytes:
        """CSV bytes of columns t, then Q_m,P_m for each molecule, then
        E_1..E_M, then Eplus,Eminus for a pair."""
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
        return (",".join(header) + "\n").encode("ascii") \
            + csv_rows(np.column_stack(cols))


def _thermal_phonon_sample(rng, omega, temperature):
    """Classical equipartition draw: q_k, p_k ~ N(0, T/omega_k) in the
    dimensionless quadratures where H_k = omega_k (p_k^2 + q_k^2)/2; the
    chain at rest, with nothing drawn, at T <= 0."""
    if temperature <= 0:
        return np.zeros_like(omega), np.zeros_like(omega)
    sig = np.sqrt(temperature / omega)
    return rng.normal(0.0, sig), rng.normal(0.0, sig)


@dataclass(frozen=True)
class _Strain:
    """S(lam) = sum_k z_k^2/(d_k - lam) of one arrowhead of `_mode_rows`,
    from the chain's lattice resolvent in O(1) per lam, so all n roots of
    the secular equation cost O(n) an iteration (cf. Livne & Brandt, SIAM
    J. Matrix Anal. Appl. 24, 2002).

    On the chain of 2m - 1 sites (m = N + 1) with fixed ends, mode k has
    angle theta_k = pi k/(2m), d_k = 4c sin^2(theta_k/2), c = k0/m0, and
    shape phi_k(a) = m^(-1/2) sin(a theta_k).  A vibron at site m + s sees
    the strain g_k = phi_k(m+s+1) - phi_k(m+s-1), and z_k^2 = scale w g_k^2,
    scale = dk^2/(4 m0 mu), with weight w = 1 for one vibron and 2 on the
    modes of a mirror pair's block.  Odd k are the chain's symmetric modes
    and even k its antisymmetric ones, so with cos q = 1 - lam/(2c) and
    t = |s| the resolvent's parity blocks fold the strain's two sites into

        sum_{k even} g_k^2/(d_k - lam) = (cos q + P_e)/c,
            P_e = -2 sin q cos(qt) cos(q(m - t))/sin(qm),
        sum_{k odd} g_k^2/(d_k - lam) = (cos q + P_o)/c,
            P_o = 2 sin q sin(qt) cos(q(m - t))/cos(qm),

    for t >= 1; at t = 0 the odd modes decouple and the even sum is
    (2 cos q + P_e)/c.  So S = scale (2 cos q + w_e P_e + w_o P_o)/c, with
    `weights` (w_e, w_o) = (1, 1) for one vibron, (2, 0) and (0, 2) for a
    pair's even and odd block.  Where the strain misses a mode (a deflated
    pole), cos(qt) cos(q(m - t)) or sin(qt) cos(q(m - t)) has a double
    zero and the pole cancels.

    Inside the band (0 < lam < 4c) each part is evaluated in the angle
    q = theta_k + delta of its nearest zero of sin(qm) or cos(qm), with
    sin(delta/2) = (lam - d_k)/(4c sin((q + theta_k)/2)), and its
    denominator is then +-sin(m delta) exactly (`reduced_sincos`); lam - d_k
    comes from tau, the offset of lam from the pole d_o it is measured from,
    and the exact offset d_k - d_o = 4c sin((theta_k - theta_o)/2)
    sin((theta_k + theta_o)/2).  Outside it q = i kappa below the band and
    pi + i kappa above, and every ratio is taken in decaying exponentials
    e_n = exp(-2 kappa n), so nothing overflows: sigma (2 cos q + sum w P)
    = 2 e^-kappa - sinh(kappa) Y, sigma = +1 below and -1 above, with
    Y = w_e Y_e + w_o Y_o, each parity's part from e_t, e_(m-t) and e_m.

    Rounding: each factor of a part carries at most a few eps of relative
    error, or a few eps absolute from its argument's n delta (|n delta| <=
    pi), and the denominator a few eps relative, so S is correct to 16 eps
    times `bound`: scale/c (2|cos q| + sum w 2|sin q/sin(qm)| (or
    cos(qm))) inside the band, scale/c (2 e^-kappa + sinh(kappa) |Y|)
    outside.  S' = sum z^2/(d - lam)^2 is the derivative in lam of the
    same forms; near q = 0 or pi, away from every pole, its terms cancel
    to within about eps/(m q)^2 (or eps/(m (pi - q))^2).
    """

    c: float
    m: int
    t: int
    scale: float
    weights: tuple

    def exact_weights(self, modes):
        """z_k^2 of `modes` (1-based) from the exact strain."""
        m = self.m
        g = (2.0 / np.sqrt(m) * reduced_sincos(modes, m + self.t, 0.0, m)[1]
             * reduced_sincos(modes, 1, 0.0, m)[0])
        return self.scale * np.where(modes % 2, self.weights[1],
                                     self.weights[0]) * g * g

    def offset(self, k, ko):
        """d_k - d_ko, exact to rounding."""
        m4 = 4 * self.m
        return (4.0 * self.c * np.sin(np.pi * (k - ko) / m4)
                * np.sin(np.pi * (k + ko) / m4))

    def __call__(self, ko, tau):
        """S, S' and S's rounding bound at lam = d_ko + tau."""
        h = np.pi * ko / (4 * self.m)
        x2 = np.sin(h) ** 2 + tau / (4.0 * self.c)
        cx2 = np.cos(h) ** 2 - tau / (4.0 * self.c)
        band = (x2 > 0) & (cx2 > 0)
        out = np.empty((3, len(tau)))
        if np.any(band):
            out[:, band] = self._band(ko[band], tau[band], x2[band],
                                      cx2[band])
        if not np.all(band):
            out[:, ~band] = self._outside(x2[~band], cx2[~band])
        return out * (self.scale / self.c)

    def _band(self, ko, tau, x2, cx2):
        c, m, t = self.c, self.m, self.t
        x, cx = np.sqrt(x2), np.sqrt(cx2)
        u = np.arctan2(x, cx) * (4 * m / np.pi)  # q in units of pi/(2m)
        sq, cq = 2.0 * x * cx, cx2 - x2  # sin q, cos q
        s, bound = 2.0 * cq, 2.0 * np.abs(cq)
        ds = np.full_like(tau, -1.0 / c)
        for par, w in enumerate(self.weights):
            if not w or (par and not t):
                continue
            k = np.clip(2 * np.round((u - par) / 2).astype(int) + par,
                        2 - par, 2 * m - 2 + par)
            y = np.pi * k / (4 * m)
            delta = 2.0 * np.arcsin(
                (tau - self.offset(k, ko)) / (4.0 * c)
                / (x * np.cos(y) + cx * np.sin(y)))
            # lam can sit on a deflated pole exactly, at the midpoint of
            # its bracket; the part's limit there is its value a hair off
            delta[delta == 0] = 1e-30 / m
            sm, cm = reduced_sincos(k, m, delta, m)
            st, ct = reduced_sincos(k, t, delta, m)
            sb, cb = reduced_sincos(k, m - t, delta, m)
            if par:
                a, da, den, dden, sign = st, t * ct, cm, -m * sm, 1.0
            else:
                a, da, den, dden, sign = ct, -t * st, sm, m * cm, -1.0
            s += w * sign * 2.0 * sq * a * cb / den
            ds += w * sign * (cq / sq * a * cb / den
                              + (da * cb - a * (m - t) * sb) / den
                              - a * cb * dden / den ** 2) / c
            bound += w * 2.0 * np.abs(sq / den)
        return s, ds, bound

    def _outside(self, x2, cx2):
        m, t = self.m, self.t
        below = x2 <= 0
        # kappa is kept off 0, where lam sits on a band edge exactly
        kappa = np.maximum(
            2.0 * np.arcsinh(np.sqrt(np.where(below, -x2, -cx2))), 1e-100)
        e_m, e_t, e_b = (np.exp(-2.0 * kappa * n) for n in (m, t, m - t))
        y = dy = 0.0
        for sign, w in zip((1.0, -1.0), self.weights):  # even, odd modes
            if not w:
                continue
            den = -np.expm1(-2.0 * kappa * m) if sign > 0 else 1.0 + e_m
            part = (e_b + sign * (e_t + 2.0 * e_m)) / den
            y = y + w * part
            dy = dy + w * (-2.0 * ((m - t) * e_b
                                   + sign * (t * e_t + 2.0 * m * e_m)
                                   + sign * m * e_m * part)) / den
        sh, decay = np.sinh(kappa), np.exp(-kappa)
        v = 2.0 * decay - sh * y
        dv = (2.0 * decay + np.cosh(kappa) * y + sh * dy) / (2.0 * self.c * sh)
        return np.where(below, v, -v), dv, 2.0 * decay + sh * np.abs(y)


# roots of the (root x pole) table of `_secular`'s coordinates at T > 0
# worked at once: 320 kB a table for a fig3 block of 1,251 poles
_ROWS = 32


def _secular(head, d, z, xi, eta, strain, modes):
    """Normal modes of the arrowhead K = [[head, z^T], [z, diag(d)]] (d
    strictly increasing, z nonzero, d_k the chain's pole of mode
    `modes`[k]) and the modal coordinates a = V^T xi, b = V^T eta of a
    state whose head component comes first.

    Root i of f(lam) = head - lam - sum z^2/(d - lam) lies between poles
    d_{i-1} and d_i (d_{-1} = -inf, d_n = inf) and is sought in
    tau = lam - o, o its left pole (d_0 for the root below the spectrum).
    f and f' take O(1) per root: `strain` sums every pole in closed form,
    and the bracket's own poles are swapped for their terms from d and z,
    so f's poles and residues are the arrowhead's as given, and the
    closed form's terms come off at the same tau.  From the midpoint of
    its bracket each root takes rational steps of Li's fixed-weight method
    (LAPACK Working Note 89): the weight z^2 of the nearer pole is kept, a
    pole at the other end (none outside the spectrum) takes the rest of
    f', and a constant the rest of f; a step that leaves the bracket
    bisects.  A root freezes, and leaves the roots still worked, once |f|
    is within f's rounding bound 16 eps (|head - o| + |tau| + B), B the
    closed form's bound (`_Strain`) plus the swapped terms, the stopping
    rule of LAPACK's dlaed4; once its bracket is a few ulp wide; or once
    its step is.  Returns lam, the head components v0 = (-1/f'(lam))^(1/2),
    (a, b), with the eigenvector components v0 z_k/(lam - d_k), and the
    most iterations a root took.
    """
    n = len(d)
    if n == 0:
        return np.array([head]), np.ones(1), xi[:1], eta[:1], 0
    zz = z * z
    eps = np.finfo(float).eps
    i = np.arange(n + 1)
    left, right = np.maximum(i - 1, 0), np.minimum(i, n - 1)
    o, ko, inner = d[left], modes[left], (i > 0) & (i < n)
    # the bracket's own poles, each at its offset from o: their terms from
    # d and z in, the closed form's out
    exact = strain.exact_weights(modes)
    near = np.stack((zz[left] - exact[left], np.where(inner, zz[right], 0.0),
                     -np.where(inner, exact[right], 0.0)))
    pole = np.stack((np.zeros(n + 1), d[right] - o,
                     strain.offset(modes[right], ko)))
    # beyond the spectrum f changes sign within sqrt(sum z^2) of
    # min(head, d_0) below and of max(head, d_{n-1}) above
    reach = np.sqrt(np.sum(zz))
    lo = np.where(i == 0, -(max(d[0] - head, 0.0) + reach), 0.0)
    hi = np.where(i == n, max(head - d[-1], 0.0) + reach, pole[1])
    tau = 0.5 * (lo + hi)
    slope = np.empty(n + 1)
    iterations = 0
    work = i
    for it in range(100):  # a guard: fig3's roots froze within 8
        t, g, inn = tau[work], pole[1, work], inner[work]
        s, ds, bound = strain(ko[work], t)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = near[:, work] / (pole[:, work] - t)
            s += np.sum(r, axis=0)
            ds += np.sum(r / (pole[:, work] - t), axis=0)
        f = head - o[work] - t - s
        slope[work] = sl = 1.0 + ds
        lo[work] = l = np.where(f > 0, t, lo[work])
        hi[work] = h = np.where(f < 0, t, hi[work])
        # the model c + p/tau - q/(g - tau) matches f and f': the nearer
        # pole keeps its weight z^2 and the other takes the rest of f'
        wl, wr = zz[left[work]], np.where(inn, zz[right[work]], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rest_l = np.maximum(sl - wr / (g - t) ** 2, 0.0) * t * t
            rest_r = np.maximum(sl - wl / (t * t), 0.0) * (g - t) ** 2
            keep_left = t < g - t
            p = np.where(inn, np.where(keep_left, wl, rest_l), t * t * sl)
            q = np.where(inn, np.where(keep_left, rest_r, wr), 0.0)
            c = f - p / t + np.where(inn, q / (g - t), 0.0)
            a = c * g - p - q
            root = np.sqrt(a * a + 4.0 * c * p * g)
            step = np.where(inn, np.where(a <= 0, 2.0 * p * g / (root - a),
                                          (a + root) / (2.0 * c)), -p / c)
        noise = (np.abs(head - o[work]) + np.abs(t) + bound
                 + np.sum(np.abs(r), axis=0))
        done = ((np.abs(f) <= 16 * eps * noise)
                | (h - l <= 8 * eps * np.abs(t))
                | (np.abs(step - t) <= 4e-16 * np.abs(t)))
        step = np.where((step > l) & (step < h), step, 0.5 * (l + h))
        tau[work] = np.where(done, t, step)
        iterations = it
        work = work[~done]
        if not len(work):
            break
    v0 = 1.0 / np.sqrt(slope)
    if not (np.any(xi[1:]) or np.any(eta[1:])):
        return o + tau, v0, v0 * xi[0], v0 * eta[0], iterations
    a, b = np.empty(n + 1), np.empty(n + 1)
    for first in range(0, n + 1, _ROWS):
        rows = slice(first, first + _ROWS)
        r = 1.0 / ((d - o[rows, None]) - tau[rows, None])
        a[rows] = v0[rows] * (xi[0] - r @ (z * xi[1:]))
        b[rows] = v0[rows] * (eta[0] - r @ (z * eta[1:]))
    return o + tau, v0, a, b, iterations


def _factor_tables(mu, n, stride):
    """(hi, lo) with e^{j stride mu} = hi[j // b] lo[j % b] for j < n, b =
    len(lo) = ceil(sqrt(n)): about 2 sqrt(n) exps per mode instead of n.

    Rounding: each factor is the exp of its own rounded argument, so an
    entry is within about 3 eps of e^{x_hi + x_lo} relative (two exps and
    a product).  x_hi + x_lo is j stride mu within |j stride mu| eps/2, as
    np.exp(j stride mu)'s own rounded argument is, so an entry is within
    (3 + |j stride mu|) eps of np.exp(j stride mu) relative.
    """
    b = int(np.ceil(np.sqrt(n)))
    lo = np.exp(stride * np.arange(b)[:, None] * mu)
    hi = np.exp(stride * b * np.arange(-(-n // b))[:, None] * mu)
    return hi, lo


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
    one complex product.  E and the block factors e^{n0 mu} are products
    of two `_factor_tables` entries, about 16 + 2 sqrt(blocks) exps per
    mode in all.  Modes with lam <= 0 (an unstable chain) have real
    eigenvalues c -+ s_h r; their Q and P take the direct powers.
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
    hi, lo = _factor_tables(mu, min(_BLOCK, n_rows), s)
    E = (hi[:, None] * lo).reshape(-1, len(mu))
    b_hi, b_lo = _factor_tables(mu, -(-n_rows // _BLOCK), _BLOCK * s)
    rows = np.empty((n_rows, 3 * m))
    for i, first in enumerate(range(0, n_rows, _BLOCK)):
        k, n0 = min(_BLOCK, n_rows - first), first * s
        blk = slice(first, first + k)
        f = b_hi[i // len(b_lo)] * b_lo[i % len(b_lo)]
        rows[blk, :2 * m] = (E[:k] @ (f[:, None] * coef)).real
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


def _blocks(bath, site, A):
    """(u, beta, strain) of each arrowhead of one vibron at `site` (A one
    row of couplings) or of the mirror pair (site, -site) (two rows): the
    pair's (Q1 +- Q2)/sqrt(2), u, couple to the even and to the odd modes
    with beta = sqrt(2) alpha, as their couplings agree on even k and are
    opposite on odd k."""
    def strain(weights):
        return _Strain(c=bath.k0 / bath.m0, m=bath.n_cells + 1,
                       t=abs(int(site)),
                       scale=bath.dk ** 2 / (4.0 * bath.m0 * bath.mu),
                       weights=weights)
    if len(A) == 1:
        return [(np.ones(1), A[0], strain((1, 1)))]
    even = np.arange(1, A.shape[1] + 1) % 2 == 0
    return [(np.array([1.0, sign]) / np.sqrt(2.0),
             np.where(even == (sign > 0), np.sqrt(2.0) * A[0], 0.0),
             strain((2, 0) if sign > 0 else (0, 2)))
            for sign in (1.0, -1.0)]


def _mode_rows(nu, bath, site, w, A, y0, dt, n_steps, store_every):
    """Observer rows (Q, P, E) of the undamped RK4 loop, evaluated
    mode by mode instead of step by step.

    In xi = (Q/sqrt(nu), q/sqrt(omega)), eta = xi' the chain is
    xi'' = -K xi with K the arrowhead of head nu^2, diagonal omega_k^2 and
    border -sqrt(nu omega_k) beta_k; RK4 is covariant under that change of
    variables, so it steps each normal mode of K with the map of
    `_modal_rows`.  A holds the couplings of one vibron at `site`, or of a
    mirror pair (site, -site), whose blocks `_blocks` splits by parity.
    Modes with beta_k = 0 are deflated: the vibrons never see them.
    Returns the rows, the largest |sum v0^2 - 1| of the arrowheads solved
    and the most iterations `_secular` took for a root of them.
    """
    m, nm = A.shape
    q0, p0, qph, pph = np.split(y0, [m, 2 * m, 2 * m + nm])
    xi, eta = qph / np.sqrt(w), pph * np.sqrt(w)
    # (lam, load, a, b) per block of modes, after an empty block that stands
    # for the vibrons' rows when every block starts, and stays, at rest
    none = np.empty(0)
    parts, errors = [(none, np.empty((m, 0)), none, none)], [0.0]
    iterations = 0
    for u, beta, strain in _blocks(bath, site, A):
        k = beta != 0
        x0 = np.concatenate(([u @ q0 / np.sqrt(nu)], xi[k]))
        e0 = np.concatenate(([u @ p0 * np.sqrt(nu)], eta[k]))
        if not (np.any(x0) or np.any(e0)):
            continue  # this parity block starts, and stays, at rest
        roots, v0, ak, bk, its = _secular(
            nu * nu, w[k] ** 2, -np.sqrt(nu * w[k]) * beta[k], x0, e0,
            strain, np.flatnonzero(k) + 1)
        errors.append(abs(np.sum(v0 * v0) - 1.0))
        iterations = max(iterations, its)
        parts.append((roots, np.outer(u, v0), ak, bk))
    lam, load, a, b = (np.concatenate(x, axis=-1) for x in zip(*parts))
    rows = _modal_rows(nu, lam, load, a, b, dt, n_steps // store_every + 1,
                       store_every)
    return rows, float(max(errors)), iterations


# steps composed into one map of `_map_rows`: its two tables each hold
# 4 M _STEPS rows of 2 values per felt mode, 256 kB for one molecule at
# the centre of a 500-cell chain (500 of its 1,001 modes felt)
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
    chunks of at most _STEPS steps.  Only the felt modes, those some
    vibron couples to, are stepped: a mode with a zero column of A never
    feeds back into a vibron, and no row reads the phonons."""
    m = len(A)
    felt = np.any(A != 0, axis=0)
    ph = y0[2 * m:].reshape(2, -1)[:, felt]
    A, w, gph = A[:, felt], w[felt], gph[felt]
    nm = len(w)
    D = np.zeros((nm, 2, 2))
    D[:, 0, 1], D[:, 1, 0], D[:, 1, 1] = w, -w, -gph
    chunks = [_STEPS] * (store_every // _STEPS) + [store_every % _STEPS]
    maps = {s: _composed_map(nu, A, D, dt, s) for s in set(chunks) if s}
    plan = [maps[s] for s in chunks if s]
    n_rows = n_steps // store_every + 1
    v = y0[:2 * m]
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
    A = np.array([vibron_phonon_couplings(bath, nu, site=s) for s in sites])
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
            "modes_felt": int(np.count_nonzero(np.any(A != 0, axis=0))),
            "sites": [int(s) for s in sites]}
    mirror_pair = m == 2 and sites[0] == -sites[1]
    if np.isinf(bath.qfactor) and (m == 1 or mirror_pair):
        rows, meta["weight_sum_error"], meta["secular_iterations"] = (
            _mode_rows(nu, bath, sites[0], w, A, y0, dt, n_steps,
                       cfg.store_every))
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
