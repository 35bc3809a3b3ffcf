"""Command-line front end: JSON config ingestion, figure presets, parameter
sweeps, CSV/SVG artifact emission with a checksum manifest.

Usage:
    vibrolang <command> --config <path> [--out <dir>] [--format csv|csv+svg]
              [--seed <u64>] [--threads <n>]

Commands: relaxation, collective, absorption, phonon-wing, cavity,
polariton, preset.  Only relaxation and collective (or a preset of one)
take --seed.  Exit codes: 0 ok, 1 numeric failure, 2 config failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import dataclasses
import hashlib
import json
import math
import os
import sys
from importlib import resources

import numpy as np
import jsonschema

from . import cavity as cavity_mod
from . import kernels, microsim, spectra, svg
from .errors import ConfigError, DomainError, VibrolangError
from .model import (
    DiscreteBath,
    MoleculeParams,
    SpectralDensity,
    ThermalState,
    derived_markov_params,
)

# the commands whose runs read --seed: the chain's thermal phonon draws
SEEDED = ("relaxation", "collective")

# ---------------------------------------------------------------------------
# config schemas

_NUM = {"type": "number"}
_POSNUM = {"type": "number", "exclusiveMinimum": 0}
_POSINT = {"type": "integer", "minimum": 1}
_BOOL = {"type": "boolean"}


def _obj(props, required=()):
    return {
        "type": "object",
        "properties": props,
        "required": list(required),
        "additionalProperties": False,
    }


# JSON type of each annotation of a section's dataclass; a None default
# stands for a value the config leaves out, so null is not a config value
_JSON = {
    "float": _NUM, "float | None": _NUM, "int": {"type": "integer"},
    "bool": _BOOL, "str": {"type": "string"},
    "float | tuple[float, ...]": {"anyOf": [_NUM, {"type": "array",
                                                   "items": _NUM}]},
}


def _section(make, supplied=(), **types):
    """Schema of a config section that `_build` passes to dataclass `make`:
    one property per field, typed by its annotation unless `types` names
    it, required where the field has no default.  The fields in `supplied`
    come from elsewhere in the config and are not section keys."""
    fields = [f for f in dataclasses.fields(make) if f.name not in supplied]
    return _obj({f.name: types.get(f.name) or _JSON[f.type] for f in fields},
                required=[f.name for f in fields
                          if f.default is dataclasses.MISSING
                          and f.default_factory is dataclasses.MISSING])


_BATH = _section(DiscreteBath, qfactor={"anyOf": [_NUM, {"const": "inf"}]})
_TRAJ = _section(microsim.TrajectoryConfig)
_MOL = _section(MoleculeParams)
_KERNEL = _section(kernels.KernelParams, supplied=("nu", "markovian"))
_SD = _section(SpectralDensity)

_GRID = _obj({"min": _NUM, "max": _NUM, "n": _POSINT},
             required=("min", "max", "n"))

_SWEEP = _obj({"axis": {"type": "string"}, "values": {"type": "array"}},
              required=("axis", "values"))


def _command(cmd, required, **props):
    """(cmd, schema) of a command's config: its keys `props`, of which
    `required` must be given, the `command` key naming it and a `sweep`."""
    return cmd, _obj({"command": {"const": cmd}, **props, "sweep": _SWEEP},
                     required=("command", *required))


_SCHEMAS = dict([
    _command("relaxation", ("nu", "bath", "trajectory"), nu=_POSNUM,
             bath=_BATH, trajectory=_TRAJ, theory_overlay=_BOOL),
    _command("collective", ("nu", "bath", "j", "trajectory"), nu=_POSNUM,
             bath=_BATH, j=_POSINT, excite={"enum": ["plus", "minus"]},
             trajectory=_TRAJ),
    _command("absorption", ("molecule", "kernel", "grid"), molecule=_MOL,
             kernel=_KERNEL, temperature=_NUM, nbar=_NUM, markovian=_BOOL,
             method={"enum": ["discrete", "bessel", "full"]}, sd=_SD,
             grid=_GRID, emit_mirror=_BOOL),
    _command("phonon-wing", ("sd",), gamma=_NUM, sd=_SD, temperature=_NUM,
             observable={"enum": ["spectrum", "debye-waller"]}, grid=_GRID,
             temp_grid=_GRID, emit_correlation=_BOOL),
    _command("cavity", ("molecule", "kernel", "cavity", "grid"),
             molecule=_MOL, kernel=_KERNEL,
             cavity=_section(cavity_mod.CavityParams), sd=_SD,
             temperature=_NUM, nbar=_NUM, markovian=_BOOL, grid=_GRID),
    _command("polariton", ("molecule", "kernel", "omega_plus", "omega_minus",
                           "kappa", "t_grid"),
             molecule=_MOL, kernel=_KERNEL, omega_plus=_NUM,
             omega_minus=_NUM, kappa=_NUM, temperature=_NUM, nbar=_NUM,
             form={"enum": ["two-term", "main-text"]},
             init={"type": "array", "items": _NUM, "minItems": 2,
                   "maxItems": 2},
             t_grid=_obj({"max": _NUM, "n": _POSINT}, required=("max", "n"))),
    _command("preset", ("name",), name={"type": "string"}),
])
COMMANDS = tuple(_SCHEMAS)


# built once: jsonschema.validate would check each schema against the
# metaschema again on every call
_VALIDATORS = {cmd: jsonschema.validators.validator_for(schema)(schema)
               for cmd, schema in _SCHEMAS.items()}


def _non_finite_path(node, path=()):
    """Path of the first NaN or infinite number in a parsed config, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            found = _non_finite_path(node[key], path + (key,))
            if found is not None:
                return found
    return None


def validate_config(cfg):
    """`cfg` itself if it has a known command, meets its schema and holds
    only finite numbers; which keys a point reads is checked when it is
    built."""
    if not isinstance(cfg, dict) or "command" not in cfg:
        raise ConfigError("config must be an object with a 'command' key")
    cmd = cfg["command"]
    if cmd not in _SCHEMAS:
        raise ConfigError(f"unknown command {cmd!r}")
    exc = jsonschema.exceptions.best_match(_VALIDATORS[cmd].iter_errors(cfg))
    if exc is not None:
        path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {exc.message}") from exc
    bad = _non_finite_path(cfg)
    if bad is not None:
        path = ".".join(str(p) for p in bad)
        raise ConfigError(f"config field {path}: numbers must be finite")
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


class _Reads(dict):
    """A config point, or a section of it, that adds to the set `read` the
    dotted key of every value read from it.  A section is read as a new
    _Reads over a copy of it that records into the same set."""

    def __init__(self, items, read, prefix=""):
        super().__init__(items)
        self._read, self._prefix = read, prefix

    def __getitem__(self, key):
        self._read.add(self._prefix + key)
        value = super().__getitem__(key)
        return _Reads(value, self._read, f"{self._prefix}{key}.") \
            if isinstance(value, dict) else value

    def get(self, key, default=None):
        return self[key] if key in self else default


def _keys(node, prefix=""):
    """Dotted key of every value in a config, each section before its keys."""
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _keys(value, f"{prefix}{key}.")


def _build(make, section, **fixed):
    """make(**section) with the keys of `fixed` added or overriding: every
    key of a config section is the name of a field of the dataclass it
    builds, and the dataclass holds the defaults.  The keys that `fixed`
    overrides are left unread.  A domain rule that a config value breaks is
    a config error, not a numeric failure."""
    try:
        return make(**{k: section[k] for k in section if k not in fixed},
                    **fixed)
    except DomainError as exc:
        raise ConfigError(f"config value out of domain: {exc}") from exc


def _molecule_kernel_thermal(cfg):
    """Molecule, memory kernel and bath state of the absorption, cavity and
    polariton commands; nbar, when given, is the vibron's occupancy."""
    mol = _build(MoleculeParams, cfg["molecule"])
    if "nbar" in cfg:
        thermal = _build(ThermalState.from_occupation, {"nbar": cfg["nbar"]},
                         omega=mol.nu)
    else:
        thermal = _build(ThermalState,
                         {"temperature": cfg.get("temperature", 0.0)})
    return mol, _build(kernels.KernelParams, cfg["kernel"], nu=mol.nu,
                       markovian=cfg.get("markovian", False)), thermal


def _grid_from(cfg):
    return np.linspace(cfg["min"], cfg["max"], cfg["n"])


# ---------------------------------------------------------------------------
# artifacts


class Artifact:
    """One output file plus an optional plot description for SVG emission."""

    def __init__(self, name, text, rows, curves=None, labels=("x", "y"),
                 logy=False):
        self.name = name
        self.text = text
        self.rows = rows
        self.curves = curves
        self.labels = labels
        self.logy = logy


def _csv(header, columns):
    """Header line, then one `%.12e` row per sample, all rows in one `%`."""
    table = np.column_stack(columns)
    rows = (",".join(["%.12e"] * table.shape[1]) + "\n") * len(table)
    return header + "\n" + rows % tuple(table.ravel().tolist()), len(table)


def _meta_artifact(name, payload):
    return Artifact(name, json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    rows=0)


def _propagation(traj):
    """How a chain run was propagated: step, step count and route."""
    return {k: traj.meta[k] for k in ("dt", "n_steps", "propagator")}


def _bath_trajectory(cfg, seed, n_molecules, **start):
    """Bath and trajectory settings of a chain run of `n_molecules`, with
    the step and the start checked; --seed and a collective excitation
    override the trajectory section."""
    section = cfg["bath"]
    bath = _build(DiscreteBath, section,
                  qfactor=float(section.get("qfactor", "inf")))
    traj = cfg["trajectory"]
    # --seed overrides trajectory.seed, which then counts as read; traj is
    # a copy of the section, so the config keeps its own seed
    if seed is not None:
        traj["seed"] = seed
    tcfg = _build(microsim.TrajectoryConfig, traj, **start)
    tcfg.resolved_dt(bath.omega_max)
    tcfg.start(n_molecules)
    return bath, tcfg


def _handle_relaxation(cfg, seed):
    nu = cfg["nu"]
    bath, tcfg = _bath_trajectory(cfg, seed, 1)
    overlay = cfg.get("theory_overlay", True)

    def run():
        traj = microsim.simulate(nu, bath, (0,), tcfg)
        _, gm = derived_markov_params(bath, nu)
        out = [Artifact("trajectory.csv", traj.to_csv(), len(traj.times),
                        curves=[(traj.times, traj.E, "E_nu")],
                        labels=("t", "E"), logy=True)]
        if overlay:
            e_th = traj.E[0] * np.exp(-gm * traj.times)
            text, rows = _csv("t,E_theory", [traj.times, e_th])
            out.append(Artifact("theory.csv", text, rows,
                                curves=[(traj.times, e_th, "exp(-Gamma_m t)")],
                                labels=("t", "E"), logy=True))
        out.append(_meta_artifact("run.meta.json",
                                  {"gamma_m": gm, "omega_max": bath.omega_max,
                                   "config": cfg, "seed": tcfg.seed,
                                   **_propagation(traj)}))
        return out
    return run


def _handle_collective(cfg, seed):
    nu, j = cfg["nu"], cfg["j"]
    sign = {"plus": 1.0, "minus": -1.0}.get(cfg.get("excite"))
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
    grid = _grid_from(cfg["grid"])
    method = cfg.get("method", "discrete")
    mirror = cfg.get("emit_mirror", False)
    sd = _build(SpectralDensity, cfg["sd"]) \
        if method == "full" and "sd" in cfg else None
    if method == "full":
        spectra.check_resolution(grid, mol.gamma)
    else:  # the order of the sideband comb
        spectra.choose_n_max(mol.lam, thermal.occupation(kp.nu))

    def run():
        meta = {"config": cfg, "method": method}
        if method in ("discrete", "bessel"):
            absorb = {"discrete": spectra.absorption_discrete,
                      "bessel": spectra.absorption_bessel}[method]
            spec = absorb(grid, mol, kp, thermal)
            values = spec.values
            meta.update({"n_lines": len(spec.lines), **spec.meta})
        else:
            values, full_meta = spectra.absorption_full(grid, mol, kp, sd,
                                                        thermal)
            meta.update(full_meta)
        text, rows = _csv("detuning,value", [grid, values])
        out = [Artifact("spectrum.csv", text, rows,
                        curves=[(grid, values, "P_e/eta^2")],
                        labels=("detuning", "P_e/eta^2")),
               _meta_artifact("spectrum.meta.json", meta)]
        if mirror:
            mg, mv = spectra.mirror_emission(grid, values)
            mtext, mrows = _csv("detuning,value", [mg, mv])
            out.append(Artifact("emission.csv", mtext, mrows,
                                curves=[(mg, mv, "emission")],
                                labels=("detuning", "value")))
        return out
    return run


def _handle_phonon_wing(cfg, seed):
    sd = _build(SpectralDensity, cfg["sd"])
    if cfg.get("observable", "spectrum") == "debye-waller":
        tg = cfg.get("temp_grid", {"min": 0.0, "max": 4.0, "n": 41})
        temps = np.linspace(tg["min"], tg["max"], tg["n"])
        states = [_build(ThermalState, {"temperature": t}) for t in temps]

        def debye_waller():
            vals = np.array([spectra.debye_waller(sd, s) for s in states])
            text, rows = _csv("temperature,f_dw", [temps, vals])
            return [Artifact("debye_waller.csv", text, rows,
                             curves=[(temps, vals, "f_DW")],
                             labels=("T", "f_DW")),
                    _meta_artifact("debye_waller.meta.json", {"config": cfg})]
        return debye_waller
    thermal = _build(ThermalState,
                     {"temperature": cfg.get("temperature", 0.0)})
    mol = _build(MoleculeParams, {"gamma": cfg.get("gamma", 0.05)},
                 nu=1.0, lam=0.0)
    grid = _grid_from(cfg["grid"]) if "grid" in cfg else np.linspace(
        -sd.omega_max, 2.0 * sd.omega_max, 1201)
    spectra.check_resolution(grid, mol.gamma)
    correlation = cfg.get("emit_correlation", False)

    def run():
        values, meta = spectra.absorption_full(grid, mol, None, sd, thermal)
        text, rows = _csv("detuning,value", [grid, values])
        out = [Artifact("spectrum.csv", text, rows,
                        curves=[(grid, values, "P_e/eta^2")],
                        labels=("detuning", "P_e/eta^2"), logy=True),
               _meta_artifact("spectrum.meta.json", {"config": cfg, **meta})]
        if correlation:
            t = np.arange(0.0, 30.0 / sd.omega_max, meta["dt"])
            corr = np.atleast_1d(spectra.phonon_correlation(t, sd, thermal))
            ctext, crows = _csv("t,re_corr,im_corr",
                                [t, corr.real, corr.imag])
            out.append(Artifact("correlation.csv", ctext, crows,
                                curves=[(t, corr.real, "Re"),
                                        (t, corr.imag, "Im")],
                                labels=("t", "corr")))
        return out
    return run


def _handle_cavity(cfg, seed):
    mol, kp, thermal = _molecule_kernel_thermal(cfg)
    cav = _build(cavity_mod.CavityParams, cfg["cavity"])
    sd = _build(SpectralDensity, cfg["sd"]) if "sd" in cfg else None
    grid = _grid_from(cfg["grid"])
    if cav.g > 0 and (sd is None or sd.coupling == 0):
        # the molecular response is the sideband comb: its order
        spectra.choose_n_max(mol.lam, thermal.occupation(kp.nu))

    def run():
        t_amp, t2 = cavity_mod.transmission(grid, cav, mol, kp, thermal,
                                            sd=sd)
        g_eff = cavity_mod.effective_rabi_from_params(cav, mol, thermal, sd=sd)
        text, rows = _csv("detuning,re_T,im_T,abs_T2",
                          [grid, np.real(t_amp), np.imag(t_amp), t2])
        return [
            Artifact("transmission.csv", text, rows,
                     curves=[(grid, t2, "|T|^2")],
                     labels=("detuning", "|T|^2")),
            _meta_artifact("transmission.meta.json",
                           {"config": cfg, "g_eff": g_eff}),
        ]
    return run


def _handle_polariton(cfg, seed):
    mol, kp, thermal = _molecule_kernel_thermal(cfg)
    form = cfg.get("form", "two-term")
    t = np.linspace(0.0, cfg["t_grid"]["max"], cfg["t_grid"]["n"])
    omegas = cfg["omega_plus"], cfg["omega_minus"]
    kappa, init = cfg["kappa"], cfg.get("init", [1.0, 0.0])

    def run():
        k_plus, k_minus = cavity_mod.polariton_rates(mol, kp, thermal, *omegas,
                                                     form=form)
        g_pm = cavity_mod.hybridized_decay(kappa, mol.gamma)
        p_u, p_l = cavity_mod.polariton_populations(
            t, init, (g_pm, g_pm), (k_plus, k_minus))
        text, rows = _csv("t,P_U,P_L", [t, p_u, p_l])
        return [
            Artifact("polariton.csv", text, rows,
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


def _build_point(cmd, point, seed):
    """The computation of one validated config point, built by the
    command's handler.  A given key that the handler left unread is a
    config error: the run's files would be the same without it."""
    read = {"command"}
    run = _HANDLERS[cmd](_Reads(point, read), seed)
    unread = next((key for key in _keys(point) if key not in read), None)
    if unread is not None:
        raise ConfigError(f"config field {unread} is not read with the "
                          "other settings given")
    return run


# ---------------------------------------------------------------------------
# run / sweep plumbing


def _set_axis(cfg, axis, value):
    parts = axis.split(".")
    node = cfg
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"sweep axis {axis!r} does not resolve")
        node = node[p]
    if not isinstance(node, dict):
        raise ConfigError(f"sweep axis {axis!r} does not resolve")
    leaf = parts[-1]
    if leaf in node and isinstance(node[leaf], (dict, list)):
        raise ConfigError(f"sweep axis {axis!r} is not a scalar parameter")
    if not isinstance(value, (int, float, str, bool)):
        raise ConfigError("sweep values must be scalars")
    node[leaf] = value
    return cfg


def _write(out_dir, name, text, rows=0):
    """Write one file through a temporary file in the same directory, moved
    into place with os.replace, so that a failed write leaves the old file
    intact and no temporary file behind.  Returns its manifest entry."""
    path = os.path.join(out_dir, name)
    tmp = f"{path}.{os.getpid()}.tmp"
    data = text.encode("utf-8")
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
        entries.append(_write(out_dir, name, art.text, art.rows))
        if fmt == "csv+svg" and art.curves is not None:
            doc = svg.line_plot(art.curves, xlabel=art.labels[0],
                                ylabel=art.labels[1], logy=art.logy)
            entries.append(_write(out_dir, os.path.splitext(name)[0] + ".svg",
                                  doc))
    return entries


def build_config(cfg, seed=None):
    """Validate a config, plain or swept, and build every point: returns the
    config without its sweep, the sweep (or None) and one computation per
    point.  Every config error is raised here, before any point computes,
    so that it is reported whatever the other points would do.  `seed`
    overrides the trajectory seed of the commands in SEEDED; any other
    command refuses it."""
    cfg = copy.deepcopy(validate_config(cfg))
    if cfg["command"] == "preset":
        sweep = cfg.get("sweep")
        cfg = load_preset(cfg["name"])
        if sweep is not None:
            cfg["sweep"] = sweep
    sweep = cfg.pop("sweep", None)
    points = [cfg] if sweep is None else [
        validate_config(_set_axis(copy.deepcopy(cfg), sweep["axis"], value))
        for value in sweep["values"]]
    if seed is not None and cfg["command"] not in SEEDED:
        raise ConfigError(f"--seed is not read by the {cfg['command']!r} "
                          "command")
    return cfg, sweep, [_build_point(cfg["command"], point, seed)
                        for point in points]


def run_config(cfg, out_dir, fmt="csv", seed=None, threads=1):
    """Build a config (`build_config`), compute its points, serially or on
    `threads` workers, and only then make `out_dir` and write the files, so
    a run that fails writes nothing.  A plain run is a sweep of one point
    with no file prefix.  Returns the manifest."""
    cfg, sweep, runs = build_config(cfg, seed)
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            results = list(pool.map(lambda run: run(), runs))
    else:
        results = [run() for run in runs]
    manifest = {"command": cfg["command"], "config": cfg,
                "seed": seed, "files": []}
    prefixes = [""]
    if sweep is not None:
        manifest["sweep"] = {"axis": sweep["axis"], "values": sweep["values"]}
        prefixes = ["p%03d_" % i for i in range(len(runs))]
    os.makedirs(out_dir, exist_ok=True)
    for prefix, artifacts in zip(prefixes, results):
        manifest["files"] += _emit(artifacts, out_dir, fmt, prefix)
    _write(out_dir, "manifest.json",
           json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vibrolang",
        description="Vibrational relaxation, vibronic lineshapes and cavity "
                    "polariton observables for molecules in crystals.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--format", choices=["csv", "csv+svg"], default="csv")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads {args.threads} must be >= 1")
        cfg = load_config(args.config)
        if not isinstance(cfg, dict) or cfg.get("command") != args.command:
            validate_config(cfg)  # what is wrong with the config comes first
            raise ConfigError(
                f"config command {cfg['command']!r} does not match CLI "
                f"command {args.command!r}"
            )
        run_config(cfg, args.out, fmt=args.format, seed=args.seed,
                   threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VibrolangError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
