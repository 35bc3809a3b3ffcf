"""Command-line front end: JSON config ingestion, figure presets, parameter
sweeps, CSV/SVG artifact emission with a checksum manifest.

Usage:
    vibrolang <command> --config <path> [--out <dir>] [--format csv|csv+svg]
              [--seed <u64>]

Commands: relaxation, collective, absorption, phonon-wing, cavity,
polariton, preset.  Only relaxation and collective (or a preset of one)
take --seed, the one spelling of the seed of the chain's thermal draw (0
without it), which the bath's temperature alone asks for.  The points of a
sweep are computed one after another.  Exit codes: 0 ok, 1 numeric
failure, 2 config failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import hashlib
import json
import os
import sys
from importlib import resources

import numpy as np

from . import cavity as cavity_mod
from . import kernels, microsim, spectra, svg
from .errors import ConfigError, DomainError, RegimeError, VibrolangError
from .model import (
    DiscreteBath,
    MoleculeParams,
    SpectralDensity,
    ThermalState,
    derived_markov_params,
)
from .text import csv_rows

# the commands whose runs read --seed: the chain's thermal phonon draws
SEEDED = ("relaxation", "collective")


def validate_config(cfg):
    """`cfg` itself if it is an object that names a known command; every
    other key is typed and checked as the points are built (`build_config`)."""
    if not isinstance(cfg, dict) or "command" not in cfg:
        raise ConfigError("config must be an object with a 'command' key")
    if cfg["command"] not in COMMANDS:
        raise ConfigError(f"unknown command {cfg['command']!r}")
    return cfg


def load_config(path):
    """The parsed JSON of a config file; `run_config` validates it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def load_preset(name):
    try:
        text = (resources.files("vibrolang") / "presets" / f"{name}.json") \
            .read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise ConfigError(f"unknown preset {name!r}") from exc
    return validate_config(json.loads(text))


# ---------------------------------------------------------------------------
# config -> domain objects


def _finite(value):
    """Whether a config value is a number within the range of a float; a
    boolean, NaN or infinity is not."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# the kinds of config value, each with its name and its test: the
# annotations of the fields that sections fill, then those of other keys; a
# None default stands for a value the config leaves out, so null is none
_KINDS = {
    "float": ("a finite number", _finite),
    "float | None": ("a finite number", _finite),
    "int": ("an integer", lambda v: _finite(v) and v == int(v)),
    "bool": ("a boolean", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "float | tuple[float, ...]": ("a finite number or an array of them",
                                  lambda v: _finite(v) or type(v) is list
                                  and all(map(_finite, v))),
    "float or 'inf'": ("a finite number or 'inf'",
                       lambda v: v == "inf" or _finite(v)),
    "tuple[float, float]": ("an array of two finite numbers",
                            lambda v: type(v) is list and len(v) == 2
                            and all(map(_finite, v))),
    "section": ("an object", lambda v: isinstance(v, dict)),
    "list": ("an array", lambda v: type(v) is list),
}
# the default of a key that must be given, as of a field without one
_REQUIRED = dataclasses.MISSING


class _Reads(dict):
    """A config point, or a section of it, that records in the dict `read`
    the dotted key of every value read from it, with the arguments after
    the key of a typed read and None for another.  A section is read as a
    new _Reads over a copy of it that records into the same dict; `key` is
    its own dotted key, empty for the point."""

    def __init__(self, items, read, key=""):
        super().__init__(items)
        self._read, self.key = read, key

    def _dotted(self, key):
        return f"{self.key}.{key}" if self.key else key

    def __getitem__(self, key):
        dotted = self._dotted(key)
        self._read.setdefault(dotted, None)
        value = super().__getitem__(key)
        return _Reads(value, self._read, dotted) \
            if isinstance(value, dict) else value

    def typed(self, key, kind, default=_REQUIRED, choices=None, above=None):
        """The value of `key`, checked to be of `kind` (a key of _KINDS), one
        of `choices` and greater than `above` where these are given; if the
        key is not given, `default`, without which it is a config error."""
        dotted = self._dotted(key)
        if key not in self:
            if default is _REQUIRED:
                raise ConfigError(f"config field {dotted}: required, not "
                                  "given")
            return default
        self._read[dotted] = kind, default, choices, above
        value, (name, test) = self[key], _KINDS[kind]
        if not test(value):
            raise ConfigError(f"config field {dotted}: {value!r} is not "
                              f"{name}")
        if kind == "int":  # an integral float is handed on as an int
            value = int(value)
        elif kind in ("float", "float | None"):  # and an int as a float
            value = float(value)
        if choices is not None and value not in choices:
            raise ConfigError(f"config field {dotted}: {value!r} is not one "
                              f"of {list(choices)}")
        if above is not None and not value > above:
            raise ConfigError(f"config field {dotted}: {value!r} must be > "
                              f"{above!r}")
        return value


def _keys(node, prefix=""):
    """Dotted key of every value in a config, each section before its keys."""
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _keys(value, f"{prefix}{key}.")


def _refuse_unread(node, read):
    """A config error for the first key of config `node` that is not in
    `read`: the run's files would be the same without it."""
    key = next((key for key in _keys(node) if key not in read), None)
    if key is not None:
        raise ConfigError(f"config field {key} is not read with the other "
                          f"settings given: remove {key.split('.')[-1]!r}")


def _domain(key, make, *args, **kwargs):
    """make(*args, **kwargs), where a domain rule that the value of config
    `key` breaks, or a regime it leaves, is a config error, not a numeric
    failure."""
    try:
        return make(*args, **kwargs)
    except (DomainError, RegimeError) as exc:
        raise ConfigError(f"config field {key}: {exc}") from exc


def _build(make, section, **fixed):
    """Dataclass `make` from a config section and the fields `fixed`.  The
    section gives each other field by its name, of the kind its annotation
    names and above any bound in its metadata, and must give each field
    without a default; a key that is not such a field is left unread."""
    given = {f.name: section.typed(f.name, f.type, f.default,
                                   above=f.metadata.get("above"))
             for f in dataclasses.fields(make) if f.name not in fixed}
    return _domain(section.key, make, **given, **fixed)


@dataclasses.dataclass(frozen=True)
class _Grid:
    """A grid, temp_grid or t_grid section: n points from min to max."""

    min: float
    max: float
    n: int = dataclasses.field(metadata={"above": 0})

    def __post_init__(self):
        if self.n > spectra.GRID_MAX:
            raise DomainError(f"n must be at most {spectra.GRID_MAX}")

    def points(self):
        return np.linspace(self.min, self.max, self.n)


def _molecule_kernel_thermal(cfg):
    """Molecule, memory kernel and bath state of the absorption, cavity and
    polariton commands; nbar, when given, is the vibron's occupancy."""
    mol = _build(MoleculeParams, cfg.typed("molecule", "section"))
    nbar = cfg.typed("nbar", "float", None)
    if nbar is not None:
        thermal = _domain("nbar", ThermalState.from_occupation, nbar, mol.nu)
    else:
        thermal = _domain("temperature", ThermalState,
                          cfg.typed("temperature", "float", 0.0))
    kp = _build(kernels.KernelParams, cfg.typed("kernel", "section"),
                nu=mol.nu, markovian=cfg.typed("markovian", "bool", False))
    return mol, kp, thermal


def _grid(cfg, key):
    """Points of the grid section at `key` of a config."""
    return _build(_Grid, cfg.typed(key, "section")).points()


# ---------------------------------------------------------------------------
# artifacts


@dataclasses.dataclass
class Artifact:
    """One output file, its bytes, plus an optional plot description for
    SVG emission."""

    name: str
    data: bytes
    rows: int
    curves: list | None = None
    labels: tuple = ("x", "y")
    logy: bool = False


def _csv(header, columns):
    """Header line, then one `%.12e` row per sample (`text.csv_rows`), as
    bytes."""
    table = np.column_stack(columns)
    return (header + "\n").encode("ascii") + csv_rows(table), len(table)


def _json_bytes(payload):
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n") \
        .encode("utf-8")


def _meta_artifact(name, payload):
    return Artifact(name, _json_bytes(payload), rows=0)


def _propagation(traj):
    """How a chain run was propagated: step, step count, route, the chain's
    modes and how many of them a vibron couples to, and on the normal-mode
    route the most iterations a secular root took and the largest
    |sum v0^2 - 1| of its arrowheads."""
    return {k: traj.meta[k] for k in ("dt", "n_steps", "propagator",
                                      "n_modes", "modes_felt",
                                      "secular_iterations",
                                      "weight_sum_error") if k in traj.meta}


def _bath_trajectory(cfg, seed, n_molecules, **start):
    """Bath and trajectory settings of a chain run of `n_molecules`, with
    the start checked; the seed is --seed's (0 without it), and a
    collective excitation overrides the trajectory section's start."""
    section = cfg.typed("bath", "section")
    bath = _build(DiscreteBath, section, qfactor=float(
        section.typed("qfactor", "float or 'inf'", "inf")))
    traj = cfg.typed("trajectory", "section")
    tcfg = _build(microsim.TrajectoryConfig, traj, seed=seed or 0, **start)
    _domain(traj.key, tcfg.start, n_molecules)
    return bath, tcfg


def _handle_relaxation(cfg, seed):
    nu = cfg.typed("nu", "float", above=0)
    bath, tcfg = _bath_trajectory(cfg, seed, 1)

    def run():
        traj = microsim.simulate(nu, bath, (0,), tcfg)
        _, gm = derived_markov_params(bath, nu)
        e_th = traj.E[0] * np.exp(-gm * traj.times)
        data, rows = _csv("t,E_theory", [traj.times, e_th])
        return [
            Artifact("trajectory.csv", traj.to_csv(), len(traj.times),
                     curves=[(traj.times, traj.E, "E_nu")],
                     labels=("t", "E"), logy=True),
            Artifact("theory.csv", data, rows,
                     curves=[(traj.times, e_th, "exp(-Gamma_m t)")],
                     labels=("t", "E"), logy=True),
            _meta_artifact("run.meta.json",
                           {"gamma_m": gm, "omega_max": bath.omega_max,
                            "config": cfg, "seed": tcfg.seed,
                            **_propagation(traj)}),
        ]
    return run


def _handle_collective(cfg, seed):
    nu, j = cfg.typed("nu", "float", above=0), cfg.typed("j", "int", above=0)
    sign = {"plus": 1.0, "minus": -1.0}.get(
        cfg.typed("excite", "str", None, choices=("plus", "minus")))
    start = {} if sign is None else {"q0": (1.0, sign), "p0": (0.0, 0.0)}
    bath, tcfg = _bath_trajectory(cfg, seed, 2, **start)
    if j > bath.n_cells:
        raise ConfigError(f"j={j} exceeds bath.n_cells={bath.n_cells}: the "
                          "pair sits at N+1 -+ j")

    def run():
        traj = microsim.simulate(nu, bath, (-j, j), tcfg)
        return [
            Artifact("trajectory.csv", traj.to_csv(), len(traj.times),
                     curves=[(traj.times, traj.e_plus, "E+"),
                             (traj.times, traj.e_minus, "E-")],
                     labels=("t", "E"), logy=False),
            _meta_artifact("run.meta.json",
                           {"config": cfg, "seed": tcfg.seed, "j": j,
                            **_propagation(traj)}),
        ]
    return run


def _handle_absorption(cfg, seed):
    mol, kp, thermal = _molecule_kernel_thermal(cfg)
    grid = _grid(cfg, "grid")
    method = cfg.typed("method", "str", "discrete",
                       choices=("discrete", "bessel", "full"))
    mirror = cfg.typed("emit_mirror", "bool", False)
    sd = _build(SpectralDensity, cfg.typed("sd", "section")) \
        if method == "full" and "sd" in cfg else None
    spectra.check_resolution(grid, mol.gamma)
    # the vibron's pole and comb, and the time grid with an sd
    if method == "bessel":
        spec = _domain("kernel.omega_max", spectra.absorption_bessel, mol, kp,
                       thermal)
    else:
        route = _domain("kernel.omega_max", spectra.response_route, grid,
                        mol, kp, sd, thermal)

    def run():
        if method == "bessel":
            values = spec.evaluate(grid)
            meta = {"n_lines": len(spec.lines), **spec.meta}
        else:
            values, meta = spectra.absorption_full(route)
        meta.update(config=cfg, method=method)
        data, rows = _csv("detuning,value", [grid, values])
        out = [Artifact("spectrum.csv", data, rows,
                        curves=[(grid, values, "P_e/eta^2")],
                        labels=("detuning", "P_e/eta^2")),
               _meta_artifact("spectrum.meta.json", meta)]
        if mirror:
            mg, mv = spectra.mirror_emission(grid, values)
            mdata, mrows = _csv("detuning,value", [mg, mv])
            out.append(Artifact("emission.csv", mdata, mrows,
                                curves=[(mg, mv, "emission")],
                                labels=("detuning", "value")))
        return out
    return run


def _handle_phonon_wing(cfg, seed):
    sd = _build(SpectralDensity, cfg.typed("sd", "section"))
    if cfg.typed("observable", "str", "spectrum",
                 choices=("spectrum", "debye-waller")) == "debye-waller":
        temps = _grid(cfg, "temp_grid") if "temp_grid" in cfg \
            else _Grid(0.0, 4.0, 41).points()
        states = [_domain("temp_grid", ThermalState, t) for t in temps]

        def debye_waller():
            vals = np.array([spectra.debye_waller(sd, s) for s in states])
            data, rows = _csv("temperature,f_dw", [temps, vals])
            return [Artifact("debye_waller.csv", data, rows,
                             curves=[(temps, vals, "f_DW")],
                             labels=("T", "f_DW")),
                    _meta_artifact("debye_waller.meta.json", {"config": cfg})]
        return debye_waller
    thermal = _domain("temperature", ThermalState,
                      cfg.typed("temperature", "float", 0.0))
    mol = _domain("gamma", MoleculeParams,
                  gamma=cfg.typed("gamma", "float", 0.05), nu=1.0, lam=0.0)
    grid = _grid(cfg, "grid") if "grid" in cfg else np.linspace(
        -sd.omega_max, 2.0 * sd.omega_max, 1201)
    spectra.check_resolution(grid, mol.gamma)
    # the correlation's step: the transform's, or the band's where the
    # density does not couple and the correlation is 1
    route = spectra.response_route(grid, mol, None, sd, thermal)
    dt = route.steps.dt if route.steps else 1.0 / (8.0 * sd.omega_max)

    def run():
        values, meta = spectra.absorption_full(route)
        data, rows = _csv("detuning,value", [grid, values])
        t = np.arange(0.0, 30.0 / sd.omega_max, dt)
        corr = np.atleast_1d(spectra.phonon_correlation(t, sd, thermal))
        cdata, crows = _csv("t,re_corr,im_corr", [t, corr.real, corr.imag])
        return [Artifact("spectrum.csv", data, rows,
                         curves=[(grid, values, "P_e/eta^2")],
                         labels=("detuning", "P_e/eta^2"), logy=True),
                _meta_artifact("spectrum.meta.json", {"config": cfg, **meta}),
                Artifact("correlation.csv", cdata, crows,
                         curves=[(t, corr.real, "Re"), (t, corr.imag, "Im")],
                         labels=("t", "corr"))]
    return run


def _handle_cavity(cfg, seed):
    mol, kp, thermal = _molecule_kernel_thermal(cfg)
    cav = _build(cavity_mod.CavityParams, cfg.typed("cavity", "section"))
    sd = _build(SpectralDensity, cfg.typed("sd", "section")) \
        if "sd" in cfg else None
    grid = _grid(cfg, "grid")
    # the molecular response: its pole, comb and times
    route = _domain("kernel.omega_max", spectra.response_route, grid, mol,
                    kp, sd, thermal) if cav.g > 0 else None

    def run():
        t_amp, t2, meta = cavity_mod.transmission(grid, cav, route)
        g_eff = cavity_mod.effective_rabi(cav.g, route.f_fc, route.f_dw) \
            if route else 0.0
        data, rows = _csv("detuning,re_T,im_T,abs_T2",
                          [grid, np.real(t_amp), np.imag(t_amp), t2])
        return [
            Artifact("transmission.csv", data, rows,
                     curves=[(grid, t2, "|T|^2")],
                     labels=("detuning", "|T|^2")),
            _meta_artifact("transmission.meta.json",
                           {"config": cfg, "g_eff": g_eff, **meta}),
        ]
    return run


def _handle_polariton(cfg, seed):
    mol, kp, thermal = _molecule_kernel_thermal(cfg)
    form = cfg.typed("form", "str", "two-term",
                     choices=("two-term", "main-text"))
    tg = cfg.typed("t_grid", "section")
    t = _build(_Grid, tg, min=0.0,
               max=tg.typed("max", "float", above=0)).points()
    omega_minus = cfg.typed("omega_minus", "float")
    omegas = cfg.typed("omega_plus", "float"), omega_minus
    if not omegas[0] > omega_minus:
        raise ConfigError("config field omega_plus: must be > omega_minus")
    kappa = cfg.typed("kappa", "float", above=0)
    init = cfg.typed("init", "tuple[float, float]", [1.0, 0.0])
    k_plus, k_minus = cavity_mod.polariton_rates(mol, kp, thermal, *omegas,
                                                 form=form)
    if not np.all(np.isfinite((k_plus, k_minus))):
        raise ConfigError("config field molecule: cross-talk rates "
                          f"({k_plus!r}, {k_minus!r}) are not finite")

    def run():
        g_pm = cavity_mod.hybridized_decay(kappa, mol.gamma)
        p_u, p_l = cavity_mod.polariton_populations(
            t, init, (g_pm, g_pm), (k_plus, k_minus))
        data, rows = _csv("t,P_U,P_L", [t, p_u, p_l])
        return [
            Artifact("polariton.csv", data, rows,
                     curves=[(t, p_u, "P_U"), (t, p_l, "P_L")],
                     labels=("t", "population")),
            _meta_artifact("polariton.meta.json",
                           {"config": cfg, "kappa_plus": k_plus,
                            "kappa_minus": k_minus, "form": form}),
        ]
    return run


# Each handler builds one point's domain objects and reads every key that
# its computation uses, so every config error of the point is raised here;
# the computation it returns makes the point's artifacts and raises only
# numeric errors, so nothing exits 2 once computing has started.
_HANDLERS = {
    "relaxation": _handle_relaxation,
    "collective": _handle_collective,
    "absorption": _handle_absorption,
    "phonon-wing": _handle_phonon_wing,
    "cavity": _handle_cavity,
    "polariton": _handle_polariton,
}
COMMANDS = (*_HANDLERS, "preset")


def _build_point(cmd, point, seed):
    """The computation of one config point, built by the command's handler,
    which types and checks each key as it reads it, and what it read (see
    _Reads).  A given key that the handler left unread is a config error."""
    read = {}
    reads = _Reads(point, read)
    reads.typed("command", "str", choices=(cmd,))
    run = _HANDLERS[cmd](reads, seed)
    _refuse_unread(point, read)
    return run, read


# ---------------------------------------------------------------------------
# run / sweep plumbing


def _pop_sweep(cfg):
    """The sweep section of a config, taken out of it, or None without one;
    it names an axis and a list of values."""
    read = {}
    sweep = _Reads(cfg, read).typed("sweep", "section", None)
    if sweep is not None:
        sweep.typed("axis", "str")
        sweep.typed("values", "list")
        _refuse_unread({"sweep": cfg["sweep"]}, read)
    return cfg.pop("sweep", None)


def _set_axis(cfg, axis, value):
    *sections, leaf = axis.split(".")
    node = cfg
    for key in sections:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigError(f"sweep axis {axis!r} does not resolve")
    if isinstance(node.get(leaf), (dict, list)):
        raise ConfigError(f"sweep axis {axis!r} is not a scalar parameter")
    if not isinstance(value, (int, float, str, bool)):
        raise ConfigError("sweep values must be scalars")
    node[leaf] = value
    return cfg


def _check_swept(cfg, axis, read):
    """Check the value at a sweep's `axis` in config `cfg`, which every point
    replaces, alone by the typed read `read[axis]` of a point: not against
    the other keys, nor at a default where `cfg` leaves it out."""
    *sections, leaf = axis.split(".")  # resolved by _set_axis
    functools.reduce(_Reads.__getitem__, sections,
                     _Reads(cfg, {})).typed(leaf, *read[axis])


def _write(out_dir, name, data, rows=0):
    """Write the bytes of one file through a temporary file in the same
    directory, moved into place with os.replace, so that a failed write
    leaves the old file intact and no temporary file behind.  Returns its
    manifest entry."""
    path = os.path.join(out_dir, name)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return {"file": name, "sha256": hashlib.sha256(data).hexdigest(),
            "rows": rows}


def _emit(artifacts, out_dir, fmt, prefix=""):
    entries = []
    for art in artifacts:
        name = prefix + art.name
        entries.append(_write(out_dir, name, art.data, art.rows))
        if fmt == "csv+svg" and art.curves is not None:
            doc = svg.line_plot(art.curves, *art.labels, logy=art.logy)
            entries.append(_write(out_dir, os.path.splitext(name)[0] + ".svg",
                                  doc.encode("utf-8")))
    return entries


def build_config(cfg, seed=None):
    """Check a config, plain or swept, and build every point: returns the
    config without its sweep, the sweep (or None) and one computation per
    point.  Every config error is raised here, before any point computes,
    so that it is reported whatever the other points would do.  A preset
    config names a bundled config, whose own sweep a sweep given with the
    name replaces.  `seed` is the trajectory seed of the commands in SEEDED
    (0 when None); any other command refuses it."""
    cfg = copy.deepcopy(validate_config(cfg))
    sweep = _pop_sweep(cfg)
    if cfg["command"] == "preset":
        read = {"command": None}
        name = _Reads(cfg, read).typed("name", "str")
        _refuse_unread(cfg, read)
        cfg = load_preset(name)
        own = _pop_sweep(cfg)
        sweep = own if sweep is None else sweep
    points = [cfg] if sweep is None else [
        _set_axis(copy.deepcopy(cfg), sweep["axis"], value)
        for value in sweep["values"]]
    cmd = cfg["command"]
    if seed is not None and cmd not in SEEDED:
        raise ConfigError(f"--seed is not read by the {cmd!r} command")
    # a sweep of no values runs nothing, but its config is still built
    built = [_build_point(cmd, point, seed) for point in points or [cfg]]
    if sweep is not None and points:
        _check_swept(cfg, sweep["axis"], built[0][1])
    return cfg, sweep, [run for run, _ in built[:len(points)]]


def run_config(cfg, out_dir, fmt="csv", seed=None):
    """Build a config (`build_config`), refuse an `out_dir` that is empty, a
    file or beneath a file, compute its points one after another, and only then
    make `out_dir` and write the files, so a run that fails writes nothing.
    A plain run is a sweep of one point with no file prefix.  Returns the
    manifest."""
    cfg, sweep, runs = build_config(cfg, seed)
    if not out_dir:
        raise ConfigError("--out is empty")
    # the nearest part of the path that exists must be a directory
    base = os.path.abspath(out_dir)
    while not os.path.exists(base):
        base = os.path.dirname(base)
    if not os.path.isdir(base):
        raise ConfigError(f"--out {out_dir!r}: {base!r} exists and is not "
                          "a directory")
    results = [run() for run in runs]
    manifest = {"command": cfg["command"], "config": cfg,
                "seed": seed, "files": []}
    prefixes = [""]
    if sweep is not None:
        manifest["sweep"] = sweep
        prefixes = ["p%03d_" % i for i in range(len(runs))]
    os.makedirs(out_dir, exist_ok=True)
    for prefix, artifacts in zip(prefixes, results):
        manifest["files"] += _emit(artifacts, out_dir, fmt, prefix)
    _write(out_dir, "manifest.json", _json_bytes(manifest))
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(prog="vibrolang", description=(
        "Vibrational relaxation, vibronic lineshapes and cavity polariton "
        "observables for molecules in crystals."))
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--format", choices=["csv", "csv+svg"], default="csv")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if not isinstance(cfg, dict) or cfg.get("command") != args.command:
            build_config(cfg)  # what is wrong with the config comes first
            raise ConfigError(f"config command {cfg['command']!r} does not "
                              f"match CLI command {args.command!r}")
        run_config(cfg, args.out, fmt=args.format, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VibrolangError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
