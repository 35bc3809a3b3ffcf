"""Command-line front end: JSON config ingestion, figure presets, parameter
sweeps, CSV/SVG artifact emission with a checksum manifest.

Usage:
    vibrolang <command> --config <path> [--out <dir>] [--format csv|csv+svg]
              [--seed <u64>] [--threads <n>]

Commands: relaxation, collective, absorption, phonon-wing, cavity,
polariton, preset.  Exit codes: 0 ok, 1 numeric failure, 2 config failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import hashlib
import io
import json
import math
import os
import sys
from importlib import resources

import numpy as np
import jsonschema

from . import cavity as cavity_mod
from . import kernels, microsim, spectra, svg
from .errors import ConfigError, DomainError, TruncationError, VibrolangError
from .model import (
    DiscreteBath,
    MoleculeParams,
    SpectralDensity,
    ThermalState,
    derived_markov_params,
)

COMMANDS = (
    "relaxation", "collective", "absorption", "phonon-wing",
    "cavity", "polariton", "preset",
)

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


_BATH = _obj(
    {
        "n_cells": _POSINT,
        "k0": _NUM,
        "m0": _NUM,
        "dk": _NUM,
        "mu": _NUM,
        "qfactor": {"anyOf": [_NUM, {"const": "inf"}]},
        "temperature": _NUM,
    },
    required=("n_cells", "k0", "m0", "dk"),
)

_TRAJ = _obj(
    {
        "dt": _NUM,
        "t_max": _NUM,
        "q0": {"anyOf": [_NUM, {"type": "array", "items": _NUM}]},
        "p0": {"anyOf": [_NUM, {"type": "array", "items": _NUM}]},
        "thermal_phonons": _BOOL,
        "seed": {"type": "integer", "minimum": 0},
        "store_every": _POSINT,
    },
    required=("t_max",),
)

_MOL = _obj(
    {"gamma": _NUM, "nu": _NUM, "lam": _NUM},
    required=("gamma", "nu", "lam"),
)

_KERNEL = _obj({"gamma_m": _NUM, "omega_max": _NUM},
               required=("gamma_m", "omega_max"))

_SD = _obj(
    {"kind": {"enum": ["1d", "3d"]}, "coupling": _NUM, "omega_max": _NUM,
     "omega_min": _NUM},
    required=("kind", "coupling", "omega_max"),
)

_GRID = _obj({"min": _NUM, "max": _NUM, "n": _POSINT},
             required=("min", "max", "n"))

_SWEEP = _obj({"axis": {"type": "string"}, "values": {"type": "array"}},
              required=("axis", "values"))

_SCHEMAS = {
    "relaxation": _obj(
        {
            "command": {"const": "relaxation"},
            "nu": _POSNUM,
            "bath": _BATH,
            "trajectory": _TRAJ,
            "theory_overlay": _BOOL,
            "sweep": _SWEEP,
        },
        required=("command", "nu", "bath", "trajectory"),
    ),
    "collective": _obj(
        {
            "command": {"const": "collective"},
            "nu": _POSNUM,
            "bath": _BATH,
            "j": _POSINT,
            "excite": {"enum": ["plus", "minus"]},
            "trajectory": _TRAJ,
            "sweep": _SWEEP,
        },
        required=("command", "nu", "bath", "j", "trajectory"),
    ),
    "absorption": _obj(
        {
            "command": {"const": "absorption"},
            "molecule": _MOL,
            "kernel": _KERNEL,
            "temperature": _NUM,
            "nbar": _NUM,
            "markovian": _BOOL,
            "method": {"enum": ["discrete", "bessel", "full"]},
            "sd": _SD,
            "grid": _GRID,
            "emit_mirror": _BOOL,
            "sweep": _SWEEP,
        },
        required=("command", "molecule", "kernel", "grid"),
    ),
    "phonon-wing": _obj(
        {
            "command": {"const": "phonon-wing"},
            "gamma": _NUM,
            "sd": _SD,
            "temperature": _NUM,
            "observable": {"enum": ["spectrum", "debye-waller"]},
            "grid": _GRID,
            "temp_grid": _GRID,
            "emit_correlation": _BOOL,
            "sweep": _SWEEP,
        },
        required=("command", "sd"),
    ),
    "cavity": _obj(
        {
            "command": {"const": "cavity"},
            "molecule": _MOL,
            "kernel": _KERNEL,
            "cavity": _obj(
                {"delta_c": _NUM, "kappa": _NUM, "g": _NUM},
                required=("kappa", "g"),
            ),
            "sd": _SD,
            "temperature": _NUM,
            "nbar": _NUM,
            "markovian": _BOOL,
            "grid": _GRID,
            "sweep": _SWEEP,
        },
        required=("command", "molecule", "kernel", "cavity", "grid"),
    ),
    "polariton": _obj(
        {
            "command": {"const": "polariton"},
            "molecule": _MOL,
            "kernel": _KERNEL,
            "omega_plus": _NUM,
            "omega_minus": _NUM,
            "kappa": _NUM,
            "temperature": _NUM,
            "nbar": _NUM,
            "form": {"enum": ["two-term", "main-text"]},
            "init": {"type": "array", "items": _NUM,
                     "minItems": 2, "maxItems": 2},
            "t_grid": _obj({"max": _NUM, "n": _POSINT}, required=("max", "n")),
            "sweep": _SWEEP,
        },
        required=("command", "molecule", "kernel", "omega_plus",
                  "omega_minus", "kappa", "t_grid"),
    ),
    "preset": _obj(
        {"command": {"const": "preset"}, "name": {"type": "string"},
         "sweep": _SWEEP},
        required=("command", "name"),
    ),
}


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
    if "sweep" in cfg:  # run_config checks each sweep point
        return cfg
    # a key that the other settings leave unread is refused, not ignored
    dw = cfg.get("observable") == "debye-waller"
    unread = {"temperature": dw or "nbar" in cfg,
              "sd": cmd == "absorption" and cfg.get("method") != "full",
              "gamma": dw, "grid": dw, "emit_correlation": dw,
              "temp_grid": cmd == "phonon-wing" and not dw,
              **dict.fromkeys(("trajectory.q0", "trajectory.p0"),
                              "excite" in cfg)}
    given = set(cfg) | {"trajectory." + k for k in cfg.get("trajectory", ())}
    for key, unused in unread.items():
        if unused and key in given:
            raise ConfigError(f"config field {key} is not read with the "
                              "other settings given")
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(cfg)


def load_preset(name):
    try:
        text = (resources.files("vibrolang") / "presets" / f"{name}.json") \
            .read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise ConfigError(f"unknown preset {name!r}") from exc
    return validate_config(json.loads(text))


# ---------------------------------------------------------------------------
# config -> domain objects


def _build(make, section, **fixed):
    """make(**section) with the keys of `fixed` added or overriding: every
    key of a config section is the name of a field of the dataclass it
    builds, and the dataclass holds the defaults.  A domain rule that a
    config value breaks is a config error, not a numeric failure."""
    try:
        return make(**{**section, **fixed})
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
    return mol, _build(kernels.KernelParams, cfg["kernel"], nu=mol.nu), thermal


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
    buf = io.StringIO()
    buf.write(header + "\n")
    cols = [np.asarray(c) for c in columns]
    for row in zip(*cols):
        buf.write(",".join("%.12e" % v for v in row) + "\n")
    return buf.getvalue(), len(cols[0])


def _meta_artifact(name, payload):
    return Artifact(name, json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    rows=0)


def _propagation(traj):
    """How a chain run was propagated: step, step count and route."""
    return {k: traj.meta[k] for k in ("dt", "n_steps", "propagator")}


def _bath_trajectory(cfg, seed, **start):
    """Bath and trajectory settings of the chain commands; --seed and a
    collective excitation override the trajectory section."""
    return (_build(DiscreteBath, cfg["bath"],
                   qfactor=float(cfg["bath"].get("qfactor", "inf"))),
            _build(microsim.TrajectoryConfig, cfg["trajectory"], **start,
                   **({} if seed is None else {"seed": seed})))


def _handle_relaxation(cfg, seed):
    nu = cfg["nu"]
    bath, tcfg = _bath_trajectory(cfg, seed)
    traj = microsim.simulate(nu, bath, (0,), tcfg)
    _, gm = derived_markov_params(bath, nu)
    out = [Artifact("trajectory.csv", traj.to_csv(), len(traj.times),
                    curves=[(traj.times, traj.E, "E_nu")],
                    labels=("t", "E"), logy=True)]
    if cfg.get("theory_overlay", True):
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


def _handle_collective(cfg, seed):
    sign = {"plus": 1.0, "minus": -1.0}.get(cfg.get("excite"))
    start = {} if sign is None else {"q0": (1.0, sign), "p0": (0.0, 0.0)}
    bath, tcfg = _bath_trajectory(cfg, seed, **start)
    if cfg["j"] > bath.n_cells:
        raise ConfigError(f"j={cfg['j']} exceeds bath.n_cells="
                          f"{bath.n_cells}: the pair sits at N+1 -+ j")
    traj = microsim.simulate(cfg["nu"], bath, (-cfg["j"], cfg["j"]), tcfg)
    return [
        Artifact("trajectory.csv", traj.to_csv(), len(traj.times),
                 curves=[(traj.times, traj.e_plus, "E+"),
                         (traj.times, traj.e_minus, "E-")],
                 labels=("t", "E"), logy=False),
        _meta_artifact("run.meta.json",
                       {"config": cfg, "seed": tcfg.seed, "j": cfg["j"],
                        **_propagation(traj)}),
    ]


def _handle_absorption(cfg, seed):
    mol, kp, thermal = _molecule_kernel_thermal(cfg)
    grid = _grid_from(cfg["grid"])
    method = cfg.get("method", "discrete")
    markovian = cfg.get("markovian", False)
    meta = {"config": cfg, "method": method}
    if method in ("discrete", "bessel"):
        absorb = {"discrete": spectra.absorption_discrete,
                  "bessel": spectra.absorption_bessel}[method]
        spec = absorb(grid, mol, kp, thermal, markovian=markovian)
        values = spec.values
        meta.update({"n_lines": len(spec.lines), **spec.meta})
    else:
        sd = _build(SpectralDensity, cfg["sd"]) if "sd" in cfg else None
        values, full_meta = spectra.absorption_full(grid, mol, kp, sd, thermal,
                                                    markovian=markovian)
        meta.update(full_meta)
    text, rows = _csv("detuning,value", [grid, values])
    out = [Artifact("spectrum.csv", text, rows,
                    curves=[(grid, values, "P_e/eta^2")],
                    labels=("detuning", "P_e/eta^2")),
           _meta_artifact("spectrum.meta.json", meta)]
    if cfg.get("emit_mirror", False):
        mg, mv = spectra.mirror_emission(grid, values)
        mtext, mrows = _csv("detuning,value", [mg, mv])
        out.append(Artifact("emission.csv", mtext, mrows,
                            curves=[(mg, mv, "emission")],
                            labels=("detuning", "value")))
    return out


def _handle_phonon_wing(cfg, seed):
    sd = _build(SpectralDensity, cfg["sd"])
    thermal = _build(ThermalState,
                     {"temperature": cfg.get("temperature", 0.0)})
    observable = cfg.get("observable", "spectrum")
    out = []
    if observable == "debye-waller":
        tg = cfg.get("temp_grid", {"min": 0.0, "max": 4.0, "n": 41})
        temps = np.linspace(tg["min"], tg["max"], tg["n"])
        vals = np.array([spectra.debye_waller(
            sd, _build(ThermalState, {"temperature": t})) for t in temps])
        text, rows = _csv("temperature,f_dw", [temps, vals])
        out.append(Artifact("debye_waller.csv", text, rows,
                            curves=[(temps, vals, "f_DW")],
                            labels=("T", "f_DW")))
        out.append(_meta_artifact("debye_waller.meta.json", {"config": cfg}))
        return out
    mol = _build(MoleculeParams, {"gamma": cfg.get("gamma", 0.05)},
                 nu=1.0, lam=0.0)
    grid = _grid_from(cfg["grid"]) if "grid" in cfg else np.linspace(
        -sd.omega_max, 2.0 * sd.omega_max, 1201)
    values, meta = spectra.absorption_full(grid, mol, None, sd, thermal)
    text, rows = _csv("detuning,value", [grid, values])
    out.append(Artifact("spectrum.csv", text, rows,
                        curves=[(grid, values, "P_e/eta^2")],
                        labels=("detuning", "P_e/eta^2"), logy=True))
    out.append(_meta_artifact("spectrum.meta.json", {"config": cfg, **meta}))
    if cfg.get("emit_correlation", False):
        t = np.arange(0.0, 30.0 / sd.omega_max, meta["dt"])
        corr = np.atleast_1d(spectra.phonon_correlation(t, sd, thermal))
        ctext, crows = _csv("t,re_corr,im_corr", [t, corr.real, corr.imag])
        out.append(Artifact("correlation.csv", ctext, crows,
                            curves=[(t, corr.real, "Re"),
                                    (t, corr.imag, "Im")],
                            labels=("t", "corr")))
    return out


def _handle_cavity(cfg, seed):
    mol, kp, thermal = _molecule_kernel_thermal(cfg)
    cav = _build(cavity_mod.CavityParams, cfg["cavity"])
    sd = _build(SpectralDensity, cfg["sd"]) if "sd" in cfg else None
    grid = _grid_from(cfg["grid"])
    t_amp, t2 = cavity_mod.transmission(
        grid, cav, mol, kp, thermal, sd=sd,
        markovian=cfg.get("markovian", False),
    )
    g_eff = cavity_mod.effective_rabi_from_params(cav, mol, thermal, mol.nu,
                                                  sd=sd)
    text, rows = _csv("detuning,re_T,im_T,abs_T2",
                      [grid, np.real(t_amp), np.imag(t_amp), t2])
    return [
        Artifact("transmission.csv", text, rows,
                 curves=[(grid, t2, "|T|^2")],
                 labels=("detuning", "|T|^2")),
        _meta_artifact("transmission.meta.json",
                       {"config": cfg, "g_eff": g_eff}),
    ]


def _handle_polariton(cfg, seed):
    mol, kp, thermal = _molecule_kernel_thermal(cfg)
    form = cfg.get("form", "two-term")
    k_plus, k_minus = cavity_mod.polariton_rates(
        mol, kp, thermal, cfg["omega_plus"], cfg["omega_minus"], form=form)
    g_pm = cavity_mod.hybridized_decay(cfg["kappa"], mol.gamma)
    t = np.linspace(0.0, cfg["t_grid"]["max"], cfg["t_grid"]["n"])
    p_u, p_l = cavity_mod.polariton_populations(
        t, cfg.get("init", [1.0, 0.0]), (g_pm, g_pm), (k_plus, k_minus))
    text, rows = _csv("t,P_U,P_L", [t, p_u, p_l])
    return [
        Artifact("polariton.csv", text, rows,
                 curves=[(t, p_u, "P_U"), (t, p_l, "P_L")],
                 labels=("t", "population")),
        _meta_artifact("polariton.meta.json",
                       {"config": cfg, "kappa_plus": k_plus,
                        "kappa_minus": k_minus, "form": form}),
    ]


_HANDLERS = {
    "relaxation": _handle_relaxation,
    "collective": _handle_collective,
    "absorption": _handle_absorption,
    "phonon-wing": _handle_phonon_wing,
    "cavity": _handle_cavity,
    "polariton": _handle_polariton,
}


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
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return {"file": name, "sha256": hashlib.sha256(text.encode()).hexdigest(),
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


def run_config(cfg, out_dir, fmt="csv", seed=None, threads=1):
    """Execute a validated config; returns the manifest dict."""
    cfg = copy.deepcopy(cfg)
    if cfg["command"] == "preset":
        inner = load_preset(cfg["name"])
        if "sweep" in cfg:
            inner["sweep"] = cfg["sweep"]
        return run_config(inner, out_dir, fmt=fmt, seed=seed, threads=threads)
    os.makedirs(out_dir, exist_ok=True)
    handler = _HANDLERS[cfg["command"]]
    sweep = cfg.pop("sweep", None)
    manifest = {"command": cfg["command"], "config": cfg,
                "seed": seed, "files": []}
    if sweep is None:
        validate_config(cfg)
        manifest["files"] = _emit(handler(cfg, seed), out_dir, fmt)
    else:
        points = []
        for i, value in enumerate(sweep["values"]):
            sub = _set_axis(copy.deepcopy(cfg), sweep["axis"], value)
            validate_config(sub)
            points.append((i, value, sub))
        manifest["sweep"] = {"axis": sweep["axis"], "values": sweep["values"]}

        def one(point):
            i, value, sub = point
            return i, value, _emit(handler(sub, seed), out_dir, fmt,
                                   prefix="p%03d_" % i)

        if threads > 1:
            with concurrent.futures.ThreadPoolExecutor(
                    max_workers=threads) as pool:
                results = list(pool.map(one, points))
        else:
            results = [one(p) for p in points]
        results.sort(key=lambda r: r[0])
        for i, value, entries in results:
            manifest["files"].extend(entries)
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
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    threads = args.threads
    try:
        if threads is None:
            env = os.environ.get("VIBROLANG_THREADS", "1")
            try:
                threads = int(env)
            except ValueError:
                raise ConfigError(
                    f"VIBROLANG_THREADS={env!r} is not an integer") from None
        cfg = load_config(args.config)
        if cfg["command"] != args.command:
            raise ConfigError(
                f"config command {cfg['command']!r} does not match CLI "
                f"command {args.command!r}"
            )
        run_config(cfg, args.out, fmt=args.format, seed=args.seed,
                   threads=max(1, threads))
    except (ConfigError, TruncationError) as exc:
        # a sideband comb that cannot close for the config's values
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VibrolangError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
