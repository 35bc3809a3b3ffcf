"""Chain runs: conservation, the normal-mode route and the composed RK4 map
against the RK4 step loop, decay fits, CSV output."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibrolang import (
    DiscreteBath,
    InstabilityError,
    Trajectory,
    TrajectoryConfig,
    simulate,
)
from vibrolang.cli import load_preset
from vibrolang.microsim import (
    _BLOCK,
    _Strain,
    _blocks,
    _factor_tables,
    _map_rows,
    _mode_rows,
    _modal_rows,
    _secular,
    _setup,
    energy_envelope,
    fit_decay_rate,
)
from vibrolang.model import chain_eigenmodes, vibron_phonon_couplings

from oracles import dyson_first_order, modal_rows, rk4_rows, secular


def _bath(n=80, k0=12.25, gamma_m=0.05, **kw):
    omega_max = 2.0 * np.sqrt(k0)
    dk = k0 * np.sqrt(4.0 * gamma_m / omega_max)
    return DiscreteBath(n_cells=n, k0=k0, m0=1.0, dk=dk, **kw)


def _fig3_bath():
    return DiscreteBath(n_cells=1250, k0=144.0, m0=1.0, dk=8.313843876330611)


def _arrowhead(bath, site, sign=None, nu=1.0):
    """(d, z, strain, modes) of an arrowhead `_mode_rows` solves: one
    molecule's for sign None, else the mirror pair (site, -site)'s even
    block for sign +1 and its odd block for -1."""
    w = chain_eigenmodes(bath)
    A = np.array([vibron_phonon_couplings(bath, nu, site=site)])
    if sign is not None:
        A = np.vstack((A, vibron_phonon_couplings(bath, nu, site=-site)))
    _, beta, strain = _blocks(bath, site, A)[0 if sign is None or sign > 0
                                             else 1]
    k = beta != 0
    return (w[k] ** 2, -np.sqrt(nu * w[k]) * beta[k], strain,
            np.flatnonzero(k) + 1)


def _loop_energy_drift(nu, bath, sites, cfg):
    """Largest relative drift of the total energy of the RK4 step loop at
    the step and from the state that `simulate` takes."""
    h = rk4_rows(nu, *_setup(nu, bath, sites, cfg), cfg.store_every)[:, -1]
    return np.max(np.abs(h - h[0])) / h[0]


class TestIntegration:
    def test_total_energy_conserved_undamped(self):
        bath = _bath(n=120)
        cfg = TrajectoryConfig(t_max=20.0)
        assert _loop_energy_drift(1.0, bath, (0,), cfg) < 1e-5

    def test_total_energy_conserved_undamped_three_molecules(self):
        bath = _bath(n=120)
        cfg = TrajectoryConfig(t_max=20.0)
        traj = simulate(1.0, bath, (-3, 0, 3), cfg)
        assert traj.Q.shape == traj.E.shape == (3, len(traj.times))
        assert _loop_energy_drift(1.0, bath, (-3, 0, 3), cfg) < 1e-5
        header = traj.to_csv().decode("ascii").split("\n", 1)[0]
        assert header == "t,Q1,P1,Q2,P2,Q3,P3,E1,E2,E3"

    def test_vibron_energy_decays(self):
        bath = _bath(n=200)
        traj = simulate(1.0, bath, (0,), TrajectoryConfig(t_max=30.0))
        assert traj.E[-1] < 0.5 * traj.E[0]

    @pytest.mark.parametrize("qfactor, propagator",
                             [(float("inf"), "modes"), (50.0, "rk4")])
    def test_vibron_above_band_keeps_its_energy(self, qfactor, propagator):
        # nu = 8 far above a band of omega_max = 1: the vibron decouples and
        # keeps its energy.  A step sized by omega_max alone, 2 pi/40, left
        # E(t_max)/E(0) = 0.0032 by RK4 damping; the step resolves the
        # vibron too
        bath = DiscreteBath(n_cells=40, k0=0.25, m0=1.0, dk=0.05,
                            qfactor=qfactor)
        cfg = TrajectoryConfig(t_max=20.0)
        traj = simulate(8.0, bath, (0,), cfg)
        assert traj.meta["propagator"] == propagator
        assert traj.E[-1] >= 0.99 * traj.E[0]
        # the step loop at 1/16 of the step
        w, A, gph, y0, dt, n_steps = _setup(8.0, bath, (0,), cfg)
        fine = rk4_rows(8.0, w, A, gph, y0, dt / 16, 16 * n_steps,
                        16 * cfg.store_every)[:, 0]
        assert np.max(np.abs(traj.Q - fine)) <= 2e-3 * np.max(np.abs(fine))

    def test_deterministic_given_seed(self):
        bath = _bath(n=30, temperature=2.0)
        cfg = TrajectoryConfig(t_max=3.0, seed=7)
        a = simulate(1.0, bath, (0,), cfg)
        b = simulate(1.0, bath, (0,), cfg)
        np.testing.assert_array_equal(a.Q, b.Q)
        np.testing.assert_array_equal(a.P, b.P)

    def test_seed_changes_thermal_run(self):
        bath = _bath(n=30, temperature=2.0)
        a = simulate(1.0, bath, (0,), TrajectoryConfig(t_max=3.0, seed=1))
        b = simulate(1.0, bath, (0,), TrajectoryConfig(t_max=3.0, seed=2))
        assert np.any(a.Q != b.Q)

    def test_instability_detected(self):
        # a stiff 10-cell chain (dk = 316) holding a nu = 1 vibron: the
        # vibron energy grows from the first steps, the same at a quarter of
        # the step, so the growth is in the equations, not in RK4.  It passes
        # 10x E(0) near t = 0.6, so the run stops on the growth check long
        # before the energy turns non-finite
        bath = _bath(n=10, k0=10000.0)
        cfg = TrajectoryConfig(t_max=2.0, store_every=50)
        with pytest.raises(InstabilityError, match="10x"):
            simulate(1.0, bath, (0,), cfg)

    def test_non_finite_energy_detected(self):
        # NaN compares false against the 10x bound; it must still be caught
        bath = _bath(n=20)
        cfg = TrajectoryConfig(t_max=1.0, q0=float("nan"))
        with pytest.raises(InstabilityError):
            simulate(1.0, bath, (0,), cfg)


class TestPair:
    def test_collective_energy_partition(self):
        bath = _bath(n=60)
        traj = simulate(
            1.0, bath, (-1, 1), TrajectoryConfig(t_max=5.0, q0=(1.0, -1.0))
        )
        assert traj.pair
        # E+ + E- = E1 + E2 for quadratic energies
        np.testing.assert_allclose(
            traj.e_plus + traj.e_minus, traj.E[0] + traj.E[1], rtol=1e-10
        )

    def test_antisymmetric_start_loads_minus_mode(self):
        bath = _bath(n=60)
        traj = simulate(
            1.0, bath, (-1, 1), TrajectoryConfig(t_max=1.0, q0=(1.0, -1.0))
        )
        assert traj.e_minus[0] > 0.99 * (traj.e_plus[0] + traj.e_minus[0])

    def test_protected_mode_outlives_superradiant_mode(self):
        gamma_m, omega_max = 0.05, 14.0
        k0 = (omega_max / 2.0) ** 2
        bath = DiscreteBath(
            n_cells=400, k0=k0, m0=1.0,
            dk=k0 * np.sqrt(4.0 * gamma_m / omega_max),
        )
        cfg_m = TrajectoryConfig(t_max=20.0, q0=(1.0, -1.0), store_every=4)
        cfg_p = TrajectoryConfig(t_max=20.0, q0=(1.0, 1.0), store_every=4)
        tr_m = simulate(1.0, bath, (-1, 1), cfg_m)
        tr_p = simulate(1.0, bath, (-1, 1), cfg_p)
        assert tr_m.e_minus[-1] > 2.0 * tr_p.e_plus[-1]


def _columns(traj):
    """Q_m, P_m, E_m, then E+ and E- of a pair."""
    cols = [c for x in (traj.Q, traj.P, traj.E) for c in np.atleast_2d(x)]
    if traj.e_plus is not None:
        cols += [traj.e_plus, traj.e_minus]
    return cols


def _rk4_oracle(nu, bath, sites, cfg):
    """`_columns` of the RK4 step loop run from the state `simulate` starts."""
    rows = rk4_rows(nu, *_setup(nu, bath, sites, cfg), cfg.store_every)
    m = len(sites)
    Q, P = rows[:, :m].T, rows[:, m:2 * m].T
    cols = list(rows[:, :3 * m].T)
    if m == 2:
        cols += [0.25 * ((Q[0] + Q[1]) ** 2 + (P[0] + P[1]) ** 2),
                 0.25 * ((Q[0] - Q[1]) ** 2 + (P[0] - P[1]) ** 2)]
    return cols


def _assert_same_run(traj, oracle, rel, per_column=False):
    """Every column of `traj` within rel of the oracle's column scale, or of
    the largest scale of all columns."""
    pairs = list(zip(_columns(traj), oracle, strict=True))
    scales = [np.max(np.abs(b)) for _, b in pairs]
    for (a, b), scale in zip(pairs, scales):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= rel * (scale if per_column
                                              else max(scales))


def _assert_modes_match_loop(nu, bath, sites, cfg, rel):
    traj = simulate(nu, bath, sites, cfg)
    assert traj.meta["propagator"] == "modes"
    assert traj.meta["weight_sum_error"] < 1e-13
    assert traj.meta["secular_iterations"] <= 10
    _assert_same_run(traj, _rk4_oracle(nu, bath, sites, cfg), rel)


class TestNormalModes:
    """Undamped single and mirror-pair runs take the normal-mode route; the
    RK4 loop is its oracle."""

    @pytest.mark.parametrize("thermal", [False, True])
    @pytest.mark.parametrize("sites, q0, p0", [
        ((-1, 1), (0.7, -0.3), (0.2, 0.4)),
        ((1, -1), (0.7, -0.3), (0.2, 0.4)),
        ((-2, 2), (1.0, -1.0), 0.0),
        ((0,), 1.0, 0.4),
        ((3,), 0.5, -0.8),
    ])
    def test_matches_rk4_loop(self, sites, q0, p0, thermal):
        # the chain starts at rest at T = 0 and from a thermal draw above it
        bath = _bath(n=200, temperature=1.5 if thermal else 0.0)
        cfg = TrajectoryConfig(t_max=15.0, q0=q0, p0=p0, store_every=3,
                               seed=3)
        _assert_modes_match_loop(1.0, bath, sites, cfg, 1e-12)

    def test_uncoupled_vibron_matches_rk4_loop(self):
        # dk = 0 deflates every mode: the arrowhead is its head alone
        bath = DiscreteBath(n_cells=20, k0=12.25, m0=1.0, dk=0.0,
                            temperature=1.0)
        cfg = TrajectoryConfig(t_max=3.0, q0=(1.0, 0.5), p0=0.2)
        _assert_modes_match_loop(1.0, bath, (-1, 1), cfg, 1e-12)

    @pytest.mark.parametrize("q0", [(1.0, -1.0), (1.0, 1.0)])
    def test_fig3_pair_matches_rk4_loop(self, q0):
        # each start loads one parity block of fig3's pair, and its roots
        # freeze within 5 iterations (8 when the outer roots took one pole)
        bath = _fig3_bath()
        cfg = TrajectoryConfig(t_max=20.0, q0=q0, store_every=8)
        _assert_modes_match_loop(1.0, bath, (-1, 1), cfg, 1e-10)
        assert simulate(1.0, bath, (-1, 1),
                        cfg).meta["secular_iterations"] <= 5

    # with a freeze on the step size alone, fig3's even block and the odd
    # block of sites (-1, 1) on 200 cells ran a 16-root block to the guard
    # of 100 iterations: at f's rounding floor the step never fell that low.
    # Site 2 on 200 cells deflates one mode, at the midpoint of its bracket;
    # a vibron at nu = 8 puts a root above the band.
    @pytest.mark.parametrize("bath, site, sign, nu", [
        (_bath(n=300), 0, None, 1.0),
        (_fig3_bath(), -1, 1.0, 1.0),
        (_fig3_bath(), -1, -1.0, 1.0),
        (_bath(n=200), -3, -1.0, 1.0),
        (_bath(n=200), -1, -1.0, 1.0),
        (_fig3_bath(), 0, None, 1.0),
        (_bath(n=200), 2, None, 1.0),
        (_bath(n=200), 0, None, 8.0),
    ], ids=["n300-one", "fig3-even", "fig3-odd", "n200-sites3-odd",
            "n200-sites1-odd", "fig3-one", "n200-site2-one", "n200-nu8-one"])
    def test_secular_roots_match_eigh(self, bath, site, sign, nu):
        d, z, strain, modes = _arrowhead(bath, site, sign, nu)
        rng = np.random.default_rng(0)
        xi, eta = rng.normal(size=(2, len(d) + 1))
        lam, v0, a, b, iterations = _secular(nu * nu, d, z, xi, eta, strain,
                                             modes)
        K = np.diag(np.concatenate(([nu * nu], d)))
        K[0, 1:] = K[1:, 0] = z
        ref, V = np.linalg.eigh(K)
        V *= np.sign(V[0])
        assert len(d) >= 200
        assert iterations <= (5 if bath.n_cells == 1250 else 10)
        np.testing.assert_allclose(lam, ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))
        np.testing.assert_allclose(v0 ** 2, V[0] ** 2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a, V.T @ xi, rtol=0, atol=1e-10)
        np.testing.assert_allclose(b, V.T @ eta, rtol=0, atol=1e-10)
        # the solver that summed every pole at every iteration finds them too
        np.testing.assert_allclose(secular(nu * nu, d, z, xi, eta)[0], lam,
                                   rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    def test_fig3_pair_memory_bounded(self):
        bath = _fig3_bath()
        cfg = TrajectoryConfig(t_max=150.0, q0=(1.0, -1.0), store_every=8)
        tracemalloc.start()
        try:
            traj = simulate(1.0, bath, (-1, 1), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.meta["propagator"] == "modes"
        assert peak < 8 * 2**20

    def test_damped_and_triple_runs_take_rk4(self):
        cfg = TrajectoryConfig(t_max=1.0)
        assert simulate(1.0, _bath(n=20, qfactor=50.0), (0,),
                        cfg).meta["propagator"] == "rk4"
        assert simulate(1.0, _bath(n=20), (-2, 0, 2),
                        cfg).meta["propagator"] == "rk4"
        assert simulate(1.0, _bath(n=20), (-2, 1),
                        cfg).meta["propagator"] == "rk4"
        assert simulate(1.0, _bath(n=20), (-2, 2, 0),
                        cfg).meta["propagator"] == "rk4"


class TestStrainSum:
    """The closed-form sum of `_Strain` against the direct sum over the
    chain's exact poles and weights."""

    @pytest.mark.parametrize("bath, site, weights", [
        (_bath(n=200), 0, (1, 1)),
        (_bath(n=200), 2, (1, 1)),
        (_bath(n=200), 3, (2, 0)),
        (_fig3_bath(), 1, (0, 2)),
    ], ids=["n200-one-site0", "n200-one-site2", "n200-pair3-even",
            "fig3-pair1-odd"])
    def test_matches_direct_sum(self, bath, site, weights):
        m, c = bath.n_cells + 1, bath.k0 / bath.m0
        strain = _Strain(c=c, m=m, t=abs(site),
                         scale=bath.dk ** 2 / (4.0 * bath.m0 * bath.mu),
                         weights=weights)
        k = np.arange(1, 2 * m)
        # cos(pi r/(2m)) from a sine of an argument within pi/2, so small
        # couplings keep their relative accuracy
        r = (k * (m + site)) % (4 * m)
        cos = np.where(r <= 2 * m, np.sin(np.pi * (m - r) / (2 * m)),
                       np.sin(np.pi * (r - 3 * m) / (2 * m)))
        g = 2.0 / np.sqrt(m) * cos * np.sin(np.pi * k / (2 * m))
        zz = strain.scale * np.where(k % 2, *weights[::-1]) * g * g
        top = 2 * m - 1
        d = 4.0 * c * np.sin(np.pi * k / (4 * m)) ** 2
        pole = [kk for kk in (m - 1, m, m + 1) if zz[kk - 1]][0]
        gap = d[pole] - d[pole - 1]
        # (pole lam is measured from, lam): below the band, near 0, within
        # 1e-9 gap of a pole on either side, near and above 4c, and on
        # mode m where the strain misses it (site 2)
        points = [(1, -5.0), (1, -1e-3), (1, 1e-3), (1, 0.37 * d[0]),
                  (pole, d[pole - 1] + 1e-9 * gap),
                  (pole, d[pole - 1] - 1e-9 * gap),
                  (top, 4.0 * c - 1e-3), (top, 4.0 * c + 1e-3),
                  (top, 4.0 * c + 7.0), (top, 100.0 * c)]
        if not zz[m - 1]:
            points.append((m - 1, 2.0 * c))
        eps = np.finfo(float).eps
        for ko, lam in points:
            tau = lam - d[ko - 1]
            # d_k - lam from the exact offsets of the poles to d_ko
            den = (4.0 * c * np.sin(np.pi * (k - ko) / (4 * m))
                   * np.sin(np.pi * (k + ko) / (4 * m)) - tau)
            terms = zz / den
            s, ds, bound = (x[0] for x in strain(np.array([ko]),
                                                  np.array([tau])))
            # the closed form is good to 16 eps bound (`_Strain`), the
            # direct pairwise sum to (3 + log2(2m)) eps of sum |terms|
            absum = np.sum(np.abs(terms))
            assert abs(s - np.sum(terms)) <= 16 * eps * (bound + absum), (
                ko, lam, abs(s - np.sum(terms)) / (eps * absum))
            np.testing.assert_allclose(ds, np.sum(terms / den), rtol=1e-12)


class TestModalRows:
    """The normal-mode route's rows from one table of factorised powers per
    run against each power from its own exp, cos and sin."""

    @pytest.mark.parametrize("unstable", [(), (0.0, -1e-4)],
                             ids=["stable", "with-lam<=0"])
    @pytest.mark.parametrize("n_rows", [10, 2 * _BLOCK + 5],
                             ids=["below-one-block", "partial-last-block"])
    @pytest.mark.parametrize("store_every", [1, 8])
    def test_matches_direct_powers(self, store_every, n_rows, unstable):
        rng = np.random.default_rng(1)
        lam = np.concatenate((rng.uniform(0.01, 4.0, 300), unstable))
        rng.shuffle(lam)
        load = rng.normal(size=(2, len(lam)))
        a, b = rng.normal(size=(2, len(lam)))
        args = (1.3, lam, load, a, b, 0.05, n_rows, store_every)
        rows, ref = _modal_rows(*args), modal_rows(*args)
        assert n_rows < _BLOCK or n_rows % _BLOCK
        assert rows.shape == ref.shape == (n_rows, 6)
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.abs(rows - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("store_every", [1, 8])
    @pytest.mark.parametrize("n_rows", [1, 7, 64, 65, 1338])
    def test_factor_tables_match_exp(self, n_rows, store_every):
        # the exponents of fig3's RK4 map: mu = log_det/2 + i phi for modes
        # across its band, lam up to 4 k0/m0 = 576
        h, lam = 2.0 * np.pi / 960.0, np.linspace(1e-3, 576.0, 257)
        x = h * h * lam
        c, s_h = 1.0 - x / 2.0 + x * x / 24.0, h * (1.0 - x / 6.0)
        mu = (0.5 * np.log1p(x ** 3 * (x - 8.0) / 576.0)
              + 1j * np.arctan2(s_h * np.sqrt(lam), c))
        eps = np.finfo(float).eps
        # `_modal_rows`' row table and its block factors
        for n, stride in ((min(_BLOCK, n_rows), store_every),
                          (-(-n_rows // _BLOCK), _BLOCK * store_every)):
            hi, lo = _factor_tables(mu, n, stride)
            assert len(hi) + len(lo) <= 2 * np.ceil(np.sqrt(n))
            j = np.arange(n)
            arg = stride * j[:, None] * mu
            ref = np.exp(arg)
            err = np.abs(hi[j // len(lo)] * lo[j % len(lo)] - ref)
            assert np.all(err <= (3.0 + np.abs(arg)) * eps * np.abs(ref))

    def test_unstable_chain_matches_rk4_loop(self):
        # the chain of test_instability_detected: its vibron sits almost
        # wholly in the one mode with lam < 0, which the direct powers take
        bath = _bath(n=10, k0=10000.0)
        cfg = TrajectoryConfig(t_max=2.0, store_every=50)
        w, A, gph, y0, dt, n_steps = _setup(1.0, bath, (0,), cfg)
        rows, _, _ = _mode_rows(1.0, bath, 0, w, A, y0, dt, n_steps,
                                cfg.store_every)
        ref = rk4_rows(1.0, w, A, gph, y0, dt, n_steps,
                       cfg.store_every)[:, :3]
        assert np.max(ref[:, 2]) > 10.0 * ref[0, 2]
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.abs(rows - ref) <= 1e-12 * scale)


class TestComposedMap:
    """Damped runs and every site set but one site or a mirror pair take the
    RK4 map composed over several stored rows, or over parts of one long
    row; the step loop is its oracle."""

    @pytest.mark.parametrize("store_every", [1, 3, 4, 8, 50])
    @pytest.mark.parametrize("qfactor, sites, q0, p0", [
        (50.0, (0,), 1.0, 0.4),
        (50.0, (-1, 1), (0.7, -0.3), (0.2, 0.4)),
        (20.0, (-2, 1), (0.7, -0.3), 0.0),
        (float("inf"), (-2, 0, 1), (1.0, -0.5, 0.3), 0.1),
    ])
    def test_matches_rk4_loop(self, qfactor, sites, q0, p0, store_every):
        bath = _bath(n=100, qfactor=qfactor)
        # 673 steps: no stride but 1 divides them
        cfg = TrajectoryConfig(t_max=15.1, q0=q0, p0=p0,
                               store_every=store_every)
        traj = simulate(1.0, bath, sites, cfg)
        assert traj.meta["propagator"] == "rk4"
        assert store_every == 1 or traj.meta["n_steps"] % store_every
        _assert_same_run(traj, _rk4_oracle(1.0, bath, sites, cfg), 1e-12,
                         per_column=True)

    @pytest.mark.parametrize("sites", [(0,), (-2, 0, 1)])
    def test_thermal_run_matches_rk4_loop(self, sites):
        bath = _bath(n=100, qfactor=50.0, temperature=1.5)
        cfg = TrajectoryConfig(t_max=15.0, q0=0.5, store_every=4, seed=3)
        traj = simulate(1.0, bath, sites, cfg)
        assert traj.meta["propagator"] == "rk4"
        _assert_same_run(traj, _rk4_oracle(1.0, bath, sites, cfg), 1e-12,
                         per_column=True)

    @pytest.mark.parametrize("temperature", [0.0, 1.5])
    @pytest.mark.parametrize("sites, q0", [((-2, 2), (0.7, -0.3)),
                                           ((-2, 0, 2), (1.0, -0.5, 0.3))])
    def test_mode_felt_by_no_molecule_matches_rk4_loop(self, sites, q0,
                                                        temperature):
        # sites -2, 0 and 2 all miss mode k = 101 of 201: the map drops
        # it, and the step loop steps it with every other mode
        bath = _bath(n=100, qfactor=50.0, temperature=temperature)
        cfg = TrajectoryConfig(t_max=15.0, q0=q0, p0=0.1, store_every=4,
                               seed=3)
        traj = simulate(1.0, bath, sites, cfg)
        assert traj.meta["propagator"] == "rk4"
        assert (traj.meta["n_modes"], traj.meta["modes_felt"]) == (201, 200)
        _assert_same_run(traj, _rk4_oracle(1.0, bath, sites, cfg), 1e-12,
                         per_column=True)

    @pytest.mark.parametrize("sites, q0", [((0,), 1.0),
                                           ((-2, 0, 1), (1.0, -0.5, 0.3))])
    def test_last_map_steps_past_the_horizon(self, sites, q0):
        # 669 steps, 223 rows after the first: one map's rows (21 for one
        # molecule, 4 for three) do not divide them, so the last map's
        # rows past n_steps are dropped
        bath = _bath(n=100, qfactor=50.0)
        cfg = TrajectoryConfig(t_max=15.0, q0=q0, p0=0.1, store_every=3)
        traj = simulate(1.0, bath, sites, cfg)
        n_rows = traj.meta["n_steps"] // 3 + 1
        k = traj.meta["map_rows"]
        assert traj.meta["map_steps"] == 3 * k and k >= 2 and (n_rows - 1) % k
        np.testing.assert_array_equal(
            traj.times, np.arange(n_rows) * traj.meta["dt"] * 3)
        _assert_same_run(traj, _rk4_oracle(1.0, bath, sites, cfg), 1e-12,
                         per_column=True)

    @pytest.mark.parametrize("sites, q0", [((0,), 1.0),
                                           ((-2, 0, 1), (1.0, -0.5, 0.3))])
    def test_rows_longer_than_one_map(self, sites, q0):
        # a row of 100 steps spans maps of at most 64 steps for one
        # molecule feeling 100 modes and 13 for three feeling 201
        bath = _bath(n=100, qfactor=50.0)
        cfg = TrajectoryConfig(t_max=15.0, q0=q0, p0=0.1, store_every=100)
        traj = simulate(1.0, bath, sites, cfg)
        assert traj.meta["map_rows"] == 1
        assert traj.meta["map_steps"] == (64 if len(sites) == 1 else 13)
        _assert_same_run(traj, _rk4_oracle(1.0, bath, sites, cfg), 1e-12,
                         per_column=True)

    @pytest.mark.parametrize("store_every, steps", [(3, 6), (8, 8), (64, 8)])
    def test_map_of_eight_steps_whatever_its_tables_hold(self, store_every,
                                                         steps):
        # three molecules feel all 401 modes of 200 cells, where the table
        # budget alone allows maps of 6 steps: a row of 8 or more steps
        # still takes maps of 8, and shorter rows share maps of 6
        bath = _bath(n=200, qfactor=50.0)
        cfg = TrajectoryConfig(t_max=10.0, q0=(1.0, -0.5, 0.3), p0=0.1,
                               store_every=store_every)
        traj = simulate(1.0, bath, (-2, 0, 1), cfg)
        assert traj.meta["modes_felt"] == 401
        assert traj.meta["map_steps"] == steps
        assert traj.meta["map_rows"] == max(steps // store_every, 1)
        _assert_same_run(traj, _rk4_oracle(1.0, bath, (-2, 0, 1), cfg),
                         1e-12, per_column=True)

    def test_growing_chain_drops_overflowing_rows_unread(self):
        # couplings of dk = 1e6 make the step loop grow Q about 4 decades a
        # step, here from 1e-150: the 66 stored rows stay finite, the 63
        # rows of the second 64-step map past n_steps overflow, and the
        # run still stops on the growth check, at the step loop's row
        bath = DiscreteBath(n_cells=100, k0=12.25, m0=1.0, dk=1e6,
                            qfactor=50.0)
        cfg = TrajectoryConfig(t_max=64.5 * 2.0 * np.pi / 280.0, q0=1e-150)
        setup = _setup(1.0, bath, (0,), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows, steps, k = _map_rows(1.0, *setup, 1)
            with pytest.raises(InstabilityError, match="10x"):
                simulate(1.0, bath, (0,), cfg)
        assert (len(rows), steps, k) == (66, 64, 64)
        with np.errstate(over="ignore", invalid="ignore"):
            whole = _map_rows(1.0, *setup[:-1], 2 * k, 1)[0]
        assert not np.all(np.isfinite(whole))
        ref = rk4_rows(1.0, *setup, 1)[:, :3]
        assert np.all(np.isfinite(ref))
        assert (np.argmax(rows[:, 2] > 10.0 * rows[0, 2])
                == np.argmax(ref[:, 2] > 10.0 * ref[0, 2]))
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.abs(rows - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("sites, store_every", [((0,), None),
                                                    ((-2, 0, 1), 64)])
    def test_fig2c_memory_bounded(self, sites, store_every):
        # the full fig2c preset, and a triple on its bath whose rows span
        # eight composed maps
        preset = load_preset("fig2c")
        bath = DiscreteBath(**preset["bath"])
        traj_cfg = dict(preset["trajectory"])
        if store_every is not None:
            traj_cfg.update(store_every=store_every, q0=(1.0, -0.5, 0.3))
        cfg = TrajectoryConfig(**traj_cfg)
        tracemalloc.start()
        try:
            traj = simulate(preset["nu"], bath, sites, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.meta["propagator"] == "rk4"
        assert peak < 8 * 2**20


class TestCsv:
    def test_single_schema(self):
        bath = _bath(n=20)
        traj = simulate(1.0, bath, (0,), TrajectoryConfig(t_max=1.0))
        text = traj.to_csv().decode("ascii")
        lines = text.strip().split("\n")
        assert lines[0] == "t,Q1,P1,E1"
        parsed = np.array(
            [[float(x) for x in ln.split(",")] for ln in lines[1:]]
        )
        np.testing.assert_allclose(parsed[:, 0], traj.times, rtol=1e-12)
        np.testing.assert_allclose(parsed[:, 3], traj.E, rtol=1e-12)

    def test_pair_schema(self):
        bath = _bath(n=20)
        traj = simulate(
            1.0, bath, (-1, 1), TrajectoryConfig(t_max=1.0, q0=(1.0, 1.0))
        )
        lines = traj.to_csv().decode("ascii").strip().split("\n")
        assert lines[0] == "t,Q1,P1,Q2,P2,E1,E2,Eplus,Eminus"
        assert len(lines[1].split(",")) == 9

    def test_csv_round_trip_bytes(self):
        bath = _bath(n=20)
        traj = simulate(1.0, bath, (0,), TrajectoryConfig(t_max=1.0))
        text = traj.to_csv().decode("ascii")
        lines = text.strip().split("\n")
        rebuilt = lines[0] + "\n" + "\n".join(
            ",".join("%.12e" % float(x) for x in ln.split(","))
            for ln in lines[1:]
        ) + "\n"
        assert rebuilt == text


class TestAnalysis:
    def test_fit_decay_rate_exact_exponential(self):
        t = np.linspace(0.0, 100.0, 2000)
        e = 3.0 * np.exp(-0.07 * t)
        np.testing.assert_allclose(
            fit_decay_rate(t, e, 0.07), 0.07, rtol=1e-10
        )

    def test_energy_envelope_removes_oscillation(self):
        t = np.linspace(0.0, 50.0, 5000)
        e = np.exp(-0.05 * t) * (1.0 + 0.1 * np.cos(2.0 * np.pi * t))
        tv, env = energy_envelope(t, e, 1.0)
        ref = np.exp(-0.05 * tv)
        assert np.max(np.abs(env / ref - 1.0)) < 5e-3

    def test_dyson_scattering_is_resonance_dominated(self):
        bath = _bath(n=400, gamma_m=0.05)
        omega = chain_eigenmodes(bath)
        down, up = dyson_first_order(10.0, bath, 1.0)
        # the resonant (omega_k ~ nu) channel collects the largest amplitude
        # and grows linearly in t; the counter-rotating channel stays bounded
        k_star = np.argmax(np.abs(down))
        assert abs(omega[k_star] - 1.0) < 0.15
        d5, u5 = dyson_first_order(5.0, bath, 1.0)
        assert np.max(np.abs(down)) > 1.5 * np.max(np.abs(d5))
        assert np.max(np.abs(up)) < 2.0 * np.max(np.abs(u5))
