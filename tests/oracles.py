"""Reference formulas that only the tests call: the memory kernel in time
(scipy's Bessel functions) and its numeric transform, the band form of the
Markovian rate, a single-mode dephasing rate, the brute-force multimode
sideband spectrum, the comb response summed over every line at every
point, the molecular response as the transform of the whole product
correlation, first-order scattering amplitudes on the chain, the chain's RK4
step loop, the normal modes of a chain arrowhead from its secular equation
summed pole by pole, the powers of one normal mode's RK4 map each from its
own exp, cos and sin, and the per-value CSV and polyline formatters that
the one-`%` emitters replace."""

import io

import numpy as np
from scipy import integrate, special

from vibrolang import (
    DiscreteBath,
    DomainError,
    KernelParams,
    MoleculeParams,
    ThermalState,
)
from vibrolang.kernels import _order
from vibrolang.model import chain_eigenmodes, vibron_phonon_couplings
from vibrolang.spectra import (
    LineSpectrum,
    _sideband_comb,
    displacement_correlation_vibron,
    phonon_correlation,
    response_transform,
)

# below this value of omega_max*t the J1(x)/x kernels switch to their series
_SMALL_X = 1e-3


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


def absorption_multimode_discrete(molecule: MoleculeParams, mode_table,
                                  thermal: ThermalState) -> LineSpectrum:
    """Brute-force oracle: product over up to 4 explicit phonon/vibron modes.

    `mode_table` is a sequence of (omega_k, lam_k, gamma_k_ph) rows.  The
    spectrum is the multi-index sum with weights prod_k w_k(n_k, l_k) of
    each mode's `_sideband_comb`, line positions sum_k (n_k - 2 l_k) omega_k
    and widths gamma + sum_k n_k gamma_k_ph (each mode correlation decays as
    e^{-gamma_k_ph |tau|}); products of weight 1e-14 or less are pruned.  A
    single mode with gamma_ph = Gamma'/2 reduces to absorption_discrete.
    """
    mode_table = [tuple(map(float, row)) for row in mode_table]
    if len(mode_table) > 4:
        raise DomainError("multimode oracle limited to 4 modes (combinatorics)")
    pos, wt, wid = np.zeros(1), np.ones(1), np.full(1, molecule.gamma)
    for (wk, lk, gk) in mode_table:
        nb = thermal.occupation(wk)
        n, l, w = _sideband_comb(lk, nb)
        wt = np.multiply.outer(wt, w).ravel()
        keep = wt > 1e-14
        pos = np.add.outer(pos, (n - 2 * l) * wk).ravel()[keep]
        wid = np.add.outer(wid, n * gk).ravel()[keep]
        wt = wt[keep]
    return LineSpectrum(lines=np.column_stack((pos, wt, wid)),
                        gamma=molecule.gamma, meta={"modes": mode_table})


def line_response(lines, detuning):
    """H(D) = sum_lines w/(width - i (D - pos)) for lines (position, weight,
    width), as `LineSpectrum.response` summed it before its panel split:
    every line at every point, in real arithmetic, in blocks of detuning
    rows, each row reduced as in a single pass.  A scalar detuning gives a
    complex scalar."""
    detuning = np.asarray(detuning, dtype=float)
    pos, wt, wid = np.asarray(lines, dtype=float).T
    wid2 = wid * wid
    flat = detuning.ravel()
    out = np.empty(len(flat), dtype=complex)
    rows = max(1, (1 << 16) // max(len(pos), 1))
    for i in range(0, len(flat), rows):
        x = flat[i:i + rows, None] - pos
        f = x * x
        f += wid2
        np.divide(wt, f, out=f)
        x *= f
        out.imag[i:i + rows] = np.sum(x, axis=-1)
        f *= wid
        out.real[i:i + rows] = np.sum(f, axis=-1)
    out = out.reshape(detuning.shape)
    return out if out.ndim else complex(out)


def whole_product_response(detuning, molecule: MoleculeParams,
                           kp: KernelParams | None, sd, thermal: ThermalState,
                           dt, t_horizon):
    """H(Delta) as the composite-Simpson transform of the whole product
    B(tau) D(tau) at step dt to t_horizon, each factor present when its
    coupling is: the molecular response before its zero-phonon comb was
    split off (dt of `spectra.response_route`, t_horizon 12/gamma), and
    the fine reference at a smaller step and a longer horizon."""
    t = np.arange(int(np.ceil(t_horizon / dt)) + 1) * dt
    corr = np.ones(len(t), dtype=complex)
    if molecule.lam > 0 and kp is not None:
        corr *= displacement_correlation_vibron(t, molecule, kp, thermal)
    corr *= phonon_correlation(t, sd, thermal)
    return response_transform(detuning, corr, molecule.gamma, dt)


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
    a = vibron_phonon_couplings(bath, nu)

    def amp(delta):
        res = np.abs(delta) < 1e-12
        safe = np.where(res, 1.0, delta)
        return np.where(res, 1j * t, (np.exp(1j * safe * t) - 1.0) / safe)

    return a * amp(w - nu), np.sqrt(2.0) * a * amp(w + nu)


# roots of the (root x pole) tables of `secular` worked at once: 320 kB
# a table for a fig3 block of 1,251 poles
_ROWS = 32


def secular(head, d, z, xi, eta):
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


def rk4_rows(nu, w, A, gph, y0, dt, n_steps, store_every):
    """Observer rows (Q, P, E, h_tot) of the chain stepped with fixed-step
    RK4, one step at a time, every `store_every`-th step kept.

    The state is y = (Q, P, q, p) of M vibrons with couplings A (M, n_modes)
    to chain modes of frequencies w and damping gph:

        Qdot = nu P,     Pdot = -nu Q + A q,
        qdot = w p,      pdot = -w q + A^T Q - gph p.
    """
    m, nm = A.shape

    # np.dot, not @: at fig3 size the (M,) x (M, n_modes) product is about
    # 4x faster through np.dot
    def deriv(y):
        Q, P, q, p = np.split(y, [m, 2 * m, 2 * m + nm])
        dy = np.empty_like(y)
        dy[:m] = nu * P
        dy[m:2 * m] = -nu * Q + np.dot(A, q)
        dy[2 * m:2 * m + nm] = w * p
        dy[2 * m + nm:] = -w * q + np.dot(Q, A) - gph * p
        return dy

    def observers(y):
        Q, P, q, p = np.split(y, [m, 2 * m, 2 * m + nm])
        e_vib = 0.5 * (Q * Q + P * P)
        h_tot = (nu * np.sum(e_vib) + 0.5 * np.sum(w * (q * q + p * p))
                 - np.dot(Q, np.dot(A, q)))
        return np.concatenate((Q, P, e_vib, [h_tot]))

    y = np.array(y0, dtype=float)
    out = np.empty((n_steps // store_every + 1, 3 * m + 1))
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
    return out


def map_powers(lam, h, n):
    """Tables (C, S), rows n, columns lam, with G^n = [[C, S], [-lam S, C]]
    for the RK4 map G = [[c, s], [-lam s, c]] of one
    normal mode xi'' = -lam xi: c = 1 - x/2 + x^2/24, s = h(1 - x/6),
    x = h^2 lam; each power from its own exp, cos and sin."""
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
    return C, S


def modal_rows(nu, lam, load, a, b, h, n_rows, s):
    """`microsim._modal_rows` from the direct powers of `map_powers` at
    every stored step."""
    C, S = map_powers(lam, h, np.arange(n_rows) * s)
    la, lb, lla = (load * a).T, (load * b).T, (load * lam * a).T
    Q = np.sqrt(nu) * (C @ la + S @ lb)
    P = (C @ lb - S @ lla) / np.sqrt(nu)
    return np.column_stack((Q, P, 0.5 * (Q * Q + P * P)))


def csv_per_value(header, columns):
    """CSV bytes and row count with one `%.12e` call per cell."""
    buf = io.StringIO()
    buf.write(header + "\n")
    cols = [np.asarray(c) for c in columns]
    for row in zip(*cols):
        buf.write(",".join("%.12e" % v for v in row) + "\n")
    return buf.getvalue().encode("ascii"), len(cols[0])


def trajectory_csv_per_row(traj):
    """`Trajectory.to_csv`'s bytes with one `%` per row."""
    Q, P, E = (np.atleast_2d(x) for x in (traj.Q, traj.P, traj.E))
    m = len(Q)
    header = ["t"]
    cols = [traj.times]
    for i in range(m):
        header += ["Q%d" % (i + 1), "P%d" % (i + 1)]
        cols += [Q[i], P[i]]
    header += ["E%d" % (i + 1) for i in range(m)]
    cols += list(E)
    if m == 2:
        header += ["Eplus", "Eminus"]
        cols += [traj.e_plus, traj.e_minus]
    fmt = ",".join(["%.12e"] * len(cols)) + "\n"
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in np.column_stack(cols).tolist():
        buf.write(fmt % tuple(row))
    return buf.getvalue().encode("ascii")


def polyline_points(x, y, px, py):
    """Polyline "x,y" pairs with px/py called and formatted point by point."""
    return " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
