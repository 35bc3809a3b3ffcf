"""The benchmark's four workloads: the CLI invocations each one makes and the
checks it runs on their outputs.

Every workload is built from the bundled presets.  The seed draws only values
that leave the amount of work unchanged (initial amplitudes, temperatures,
couplings, occupations, relaxation rates); grid sizes, horizons and node
counts are fixed.  Where a preset is too large for a run of a few tens of
seconds it is shortened, and README.md lists every change.
"""

from __future__ import annotations

import copy
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import checks as chk

@dataclass
class Invocation:
    """One `vibrolang <command> --config <name>.json --out <name>/` call."""

    name: str
    config: dict
    fmt: str = "csv"


@dataclass
class Workload:
    invocations: list
    # (label, callable(out_dir) -> detail string); a check raises
    # chk.CheckFailed when an output is wrong
    checks: list = field(default_factory=list)


def load_presets(src_dir):
    folder = os.path.join(src_dir, "vibrolang", "presets")
    return {name[:-5]: chk.read_json(os.path.join(folder, name))
            for name in sorted(os.listdir(folder)) if name.endswith(".json")}


def preset_call(name, sweep=None, fmt="csv", label=None):
    """A bundled preset run through the `preset` command; `sweep` =
    (axis, values) replaces the preset's own sweep."""
    cfg = {"command": "preset", "name": name}
    if sweep is not None:
        cfg["sweep"] = {"axis": sweep[0], "values": list(sweep[1])}
    return Invocation(label or name, cfg, fmt)


def derived(presets, name, changes, label=None, fmt="csv"):
    """A preset's config with dotted keys set or (value None) removed."""
    cfg = copy.deepcopy(presets[name])
    for key, value in changes.items():
        *path, leaf = key.split(".")
        node = cfg
        for part in path:
            node = node[part]
        if value is None:
            node.pop(leaf, None)
        else:
            node[leaf] = value
    return Invocation(label or name, cfg, fmt)


def build(workload, seed, presets):
    """The Workload for `workload` and `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, presets)


# ---------------------------------------------------------------------------
# chain: RK4 integration of the vibron(s) against the host chain


def _chain(rng, presets):
    amp = rng.uniform(0.5, 2.0)
    # fig3 is cut from t_max 150 to 70, where the E+ fit window
    # [0.5, 2.5]/(2 Gamma_m) = [12.5, 62.5] still fits.
    calls = [preset_call("fig2c", ("trajectory.q0", [amp])),
             preset_call("fig2d", ("trajectory.q0", [amp])),
             derived(presets, "fig3", {"trajectory.t_max": 70.0})]

    return Workload(calls, [
        ("fig2c Markovian envelope", lambda out: chk.check_markov_envelope(
            *_traj(out, "fig2c", 0, "E1"), presets["fig2c"]["nu"],
            chk.markov_rate(presets["fig2c"]["bath"]))),
        ("fig2d band-edge suppression", lambda out: chk.check_suppressed_decay(
            *_traj(out, "fig2d", 0, "E1"), presets["fig2d"]["nu"],
            chk.markov_rate(presets["fig2d"]["bath"]),
            presets["fig2d"]["trajectory"]["t_max"])),
        ("fig3 protected E-", lambda out: chk.check_protected_mode(
            *_traj(out, "fig3", 0, "Eminus"), presets["fig3"]["nu"])),
        ("fig3 superradiant E+", lambda out: chk.check_superradiant_rate(
            *_traj(out, "fig3", 1, "Eplus"), presets["fig3"]["nu"],
            chk.markov_rate(presets["fig3"]["bath"]))),
    ])


def _traj(out, name, index, column):
    d = chk.read_csv(os.path.join(out, name, "p%03d_trajectory.csv" % index))
    return d["t"], d[column]


# ---------------------------------------------------------------------------
# wing: phonon wings and Debye-Waller factors (many small band integrals)


def _wing(rng, presets):
    t_a = rng.uniform(0.3, 1.0)
    couplings = [rng.uniform(0.01, 0.05), rng.uniform(0.06, 0.1)]
    # fig5a and fig5b run one temperature each (T > 0 for the 1d density,
    # T = 0 for the 3d one), and fig5c is cut from 10 couplings x 53
    # temperatures (530 Debye-Waller calls) to 2 x 5 on the same range.
    fig5c = derived(presets, "fig5c",
                    {"temp_grid.n": 5,
                     "sweep": {"axis": "sd.coupling", "values": couplings}})
    calls = [preset_call("fig5a", ("temperature", [t_a])),
             preset_call("fig5b", ("temperature", [0.0])),
             fig5c]
    sd_a, sd_b = presets["fig5a"]["sd"], presets["fig5b"]["sd"]
    gamma_a, gamma_b = presets["fig5a"]["gamma"], presets["fig5b"]["gamma"]
    tg = fig5c.config["temp_grid"]
    temps = [tg["min"] + i * (tg["max"] - tg["min"]) / (tg["n"] - 1)
             for i in range(tg["n"])]

    def meta(out, name, i):
        return chk.read_json(os.path.join(out, name, "p%03d_spectrum.meta.json" % i))

    def spectrum(out, name, i):
        d = chk.read_csv(os.path.join(out, name, "p%03d_spectrum.csv" % i))
        return d["detuning"], d["value"]

    def corr(out, name, i):
        d = chk.read_csv(os.path.join(out, name, "p%03d_correlation.csv" % i))
        return d["re_corr"], d["im_corr"]

    def sum_rule(out, name, i, sd, temp, gamma):
        mean, var = chk.wing_moments(sd, temp)
        return chk.check_wing_sum_rule(*spectrum(out, name, i), gamma, mean, var)

    def dw_table(out):
        cols = [chk.read_csv(os.path.join(out, "fig5c", "p%03d_debye_waller.csv" % j))
                for j in range(len(couplings))]
        for col in cols:
            chk.require(np.allclose(col["temperature"], temps, rtol=0, atol=1e-9),
                        "Debye-Waller temperatures differ from the config grid")
        return np.array(temps), np.column_stack([col["f_dw"] for col in cols])

    def dw_zero(out):
        t, table = dw_table(out)
        notes = [chk.check_dw_zero_temperature(table[0, j], cj, sd_b["omega_max"])
                 for j, cj in enumerate(couplings)]
        notes.append(chk.check_dw_zero_temperature(
            meta(out, "fig5b", 0)["f_DW"], sd_b["coupling"], sd_b["omega_max"]))
        return "; ".join(notes)

    def dw_quad(out):
        t, table = dw_table(out)
        for j, cj in enumerate(couplings):
            sd = dict(presets["fig5c"]["sd"], coupling=cj)
            for i in range(1, len(t)):
                chk.check_dw_quad(table[i, j], sd, t[i])
        return f"{(len(t) - 1) * len(couplings)} values within 1e-8 of quad"

    def monotone(out):
        t, table = dw_table(out)
        return chk.check_dw_monotone(t, np.array(couplings), table)

    return Workload(calls, [
        ("fig5c/fig5b f_DW(T=0) closed form", dw_zero),
        ("fig5c f_DW(T>0) against quad", dw_quad),
        ("fig5c f_DW monotone in T and coupling", monotone),
        ("fig5a polaron shift (1d)", lambda out: chk.check_polaron_shift(
            meta(out, "fig5a", 0)["polaron_shift"], sd_a)),
        ("fig5b polaron shift (3d)", lambda out: chk.check_polaron_shift(
            meta(out, "fig5b", 0)["polaron_shift"], sd_b)),
        ("fig5a sum rule", lambda out: sum_rule(out, "fig5a", 0, sd_a, t_a,
                                                   gamma_a)),
        ("fig5b T=0 sum rule", lambda out: sum_rule(out, "fig5b", 0, sd_b,
                                                       0.0, gamma_b)),
        ("fig5b T=0 red-side leakage", lambda out: chk.check_red_leakage(
            *spectrum(out, "fig5b", 0), gamma_b)),
        ("fig5a correlation bounds", lambda out: chk.check_correlation(
            *corr(out, "fig5a", 0))),
        ("fig5b correlation bounds", lambda out: chk.check_correlation(
            *corr(out, "fig5b", 0))),
    ])


# ---------------------------------------------------------------------------
# cavity: transmission through a cavity holding the phonon-dressed molecule


def _cavity(rng, presets):
    temp_c = rng.uniform(1.0, 1.6)
    # the splitting's distance from 2 g_eff grows with nbar and gamma (3.3%
    # at nbar 0.5, 7.2% at nbar 3 for gamma 0.08), so nbar stays <= 0.5
    nbar_b = rng.uniform(0.0, 0.5)
    # gamma sets the time horizon 12/gamma of the correlation transform, so
    # the work falls as 1/gamma^2: fig6c runs at gamma 0.06 (preset 0.01,
    # 32 s) and one fig6b point at gamma 0.08 (preset 0.02, 16 s a point).
    fig6c = derived(presets, "fig6c", {"molecule.gamma": 0.06, "temperature": temp_c})
    fig6b = derived(presets, "fig6b",
                    {"molecule.gamma": 0.08, "nbar": nbar_b, "sweep": None})
    calls = [fig6c, fig6b]

    def transmission(out, name):
        return chk.read_csv(os.path.join(out, name, "transmission.csv"))

    def splitting(out):
        cfg = fig6b.config
        mol, sd = cfg["molecule"], cfg["sd"]
        temp = mol["nu"] / math.log1p(1.0 / nbar_b)
        d = transmission(out, "fig6b")
        return chk.check_splitting(d["detuning"], d["abs_T2"], cfg["cavity"]["g"],
                                   mol["lam"], nbar_b, chk.debye_waller_quad(sd, temp))

    def antiresonance(out):
        cfg = fig6c.config
        mol, cav = cfg["molecule"], cfg["cavity"]
        nbar = 1.0 / math.expm1(mol["nu"] / temp_c)
        d = transmission(out, "fig6c")
        return chk.check_antiresonance(
            d["detuning"], d["abs_T2"], mol["gamma"], cav["g"], cav["kappa"],
            mol["lam"], nbar, chk.debye_waller_quad(cfg["sd"], temp_c))

    def bounds(out, name):
        d = transmission(out, name)
        return chk.check_transmission(d["re_T"], d["im_T"], d["abs_T2"])

    return Workload(calls, [
        ("fig6b polariton splitting", splitting),
        ("fig6c Purcell antiresonance", antiresonance),
        ("fig6b |T|^2 bounds", lambda out: bounds(out, "fig6b")),
        ("fig6c |T|^2 bounds", lambda out: bounds(out, "fig6c")),
    ])


# ---------------------------------------------------------------------------
# lines: many small discrete-line configs, dominated by per-config overhead


def _lines(rng, presets):
    gamma_ms = sorted(rng.uniform(0.025, 0.4) for _ in range(8))
    gamma_m_bessel = rng.uniform(0.05, 0.2)
    nbars = sorted(rng.uniform(0.1, 4.0) for _ in range(12))
    svg = "csv+svg"
    # lam and nbar fix the comb size, so they stay fixed.  At 2 lam^2
    # sqrt(nbar(nbar+1)) = 0.039 the two forms differ by at most 3.1e-4 of
    # the peak for gamma_m in [0.05, 0.2]; at 0.087 they differ by up to
    # 1.5e-3, so the 1e-3 agreement does not reach the 0.1 validity edge.
    small = {"method": "discrete", "molecule.lam": 0.15, "nbar": 0.5,
             "kernel.gamma_m": gamma_m_bessel, "emit_mirror": None}
    polariton = {
        "command": "polariton", "molecule": dict(presets["fig6a"]["molecule"]),
        "kernel": dict(presets["fig6a"]["kernel"]), "omega_plus": 0.3,
        "omega_minus": -0.3, "kappa": presets["fig6a"]["cavity"]["kappa"],
        "nbar": 0.0, "form": "main-text", "t_grid": {"max": 50.0, "n": 501},
        "sweep": {"axis": "nbar", "values": nbars},
    }
    calls = [
        preset_call("fig4a", fmt=svg),
        preset_call("fig4b", fmt=svg),
        preset_call("fig4c", fmt=svg),
        preset_call("fig4d", ("kernel.gamma_m", gamma_ms), svg),
        preset_call("fig6a", fmt=svg),
        derived(presets, "fig4c", small, "discrete", svg),
        derived(presets, "fig4c", dict(small, method="bessel"), "bessel", svg),
        Invocation("polariton", polariton, svg),
        preset_call("fig4c", fmt=svg, label="rerun_a"),
        preset_call("fig4c", fmt=svg, label="rerun_b"),
    ]

    def spectrum(out, name, prefix=""):
        d = chk.read_csv(os.path.join(out, name, prefix + "spectrum.csv"))
        return d["detuning"], d["value"]

    def comb_rule(out, name, prefix, mol, nbar):
        meta = chk.read_json(os.path.join(out, name, prefix + "spectrum.meta.json"))
        grid, values = spectrum(out, name, prefix)
        lines = chk.comb(mol["lam"], nbar, meta["nu_prime"], meta["gamma_prime"],
                         mol["gamma"])
        return chk.check_comb_sum_rule(grid, values, lines, mol["gamma"])

    def sum_rules(out):
        notes = []
        p4a, p4d = presets["fig4a"], presets["fig4d"]
        for i, nbar in enumerate(p4a["sweep"]["values"]):
            notes.append(comb_rule(out, "fig4a", "p%03d_" % i, p4a["molecule"], nbar))
        notes.append(comb_rule(out, "fig4b", "", presets["fig4b"]["molecule"], 0.0))
        for i in range(len(gamma_ms)):
            notes.append(comb_rule(out, "fig4d", "p%03d_" % i, p4d["molecule"],
                                   p4d["nbar"]))
        return f"{len(notes)} spectra within 1e-3 of the comb; {notes[0]}"

    def zero_detuning(out):
        mol = presets["fig4b"]["molecule"]
        a = chk.check_zero_detuning(*spectrum(out, "fig4b"), mol["lam"], mol["gamma"])
        mol = presets["fig4a"]["molecule"]
        b = chk.check_zero_detuning(*spectrum(out, "fig4a", "p000_"), mol["lam"],
                                    mol["gamma"])
        return f"fig4b {a}; fig4a {b}"

    def mirror(out):
        em = chk.read_csv(os.path.join(out, "fig4c", "emission.csv"))
        return chk.check_mirror(*spectrum(out, "fig4c"), em["detuning"], em["value"])

    def forms(out):
        _, disc = spectrum(out, "discrete")
        _, bes = spectrum(out, "bessel")
        return chk.check_forms_agree(disc, bes, small["molecule.lam"], small["nbar"])

    def balance(out):
        for i, nbar in enumerate(nbars):
            meta = chk.read_json(os.path.join(out, "polariton",
                                              "p%03d_polariton.meta.json" % i))
            chk.check_detailed_balance(meta["kappa_plus"], meta["kappa_minus"], nbar)
        return f"kappa-/kappa+ = nbar/(nbar+1) at {len(nbars)} occupations"

    def rerun(out):
        return chk.check_manifests_equal(
            chk.read_json(os.path.join(out, "rerun_a", "manifest.json")),
            chk.read_json(os.path.join(out, "rerun_b", "manifest.json")))

    def fig6a_bounds(out):
        for i in range(len(presets["fig6a"]["sweep"]["values"])):
            d = chk.read_csv(os.path.join(out, "fig6a", "p%03d_transmission.csv" % i))
            chk.check_transmission(d["re_T"], d["im_T"], d["abs_T2"])
        return "fig6a |T|^2 in [0, 1] at every occupation"

    return Workload(calls, [
        ("n=0 zero-detuning value", zero_detuning),
        ("comb sum rule", sum_rules),
        ("mirror emission", mirror),
        ("discrete vs Bessel", forms),
        ("main-text detailed balance", balance),
        ("byte-identical rerun", rerun),
        ("fig6a |T|^2 bounds", fig6a_bounds),
    ])


_BUILDERS = {"chain": _chain, "wing": _wing, "cavity": _cavity, "lines": _lines}
