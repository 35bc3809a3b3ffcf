"""CLI plumbing: config validation, artifact emission, manifests, sweeps,
determinism, exit codes."""

import copy
import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
import types
from importlib import resources

import numpy as np
import pytest

from vibrolang import cli, spectra
from vibrolang.cli import load_preset, main, run_config, validate_config
from vibrolang.cavity import CavityParams, effective_rabi
from vibrolang.errors import ConfigError
from vibrolang.kernels import KernelParams
from vibrolang.microsim import TrajectoryConfig
from vibrolang.model import (
    DiscreteBath,
    MoleculeParams,
    SpectralDensity,
    ThermalState,
)
from vibrolang.spectra import (
    absorption_bessel,
    absorption_full,
    debye_waller,
    franck_condon,
    molecular_response,
    response_route,
)


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _set(cfg, key, value):
    """A copy of `cfg` with `value` at the dotted `key`."""
    cfg = copy.deepcopy(cfg)
    *sections, leaf = key.split(".")
    node = cfg
    for section in sections:
        node = node[section]
    node[leaf] = value
    return cfg


SMALL_RELAXATION = {
    "command": "relaxation",
    "nu": 1.0,
    "bath": {"n_cells": 40, "k0": 12.25, "m0": 1.0, "dk": 2.0706279240848657,
             "qfactor": "inf", "temperature": 0.0},
    "trajectory": {"t_max": 4.0, "store_every": 4},
}

SMALL_COLLECTIVE = {
    "command": "collective",
    "nu": 1.0,
    "j": 1,
    "excite": "minus",
    "bath": SMALL_RELAXATION["bath"],
    "trajectory": SMALL_RELAXATION["trajectory"],
}

SMALL_ABSORPTION = {
    "command": "absorption",
    "molecule": {"gamma": 0.025, "nu": 1.0, "lam": 0.5},
    "kernel": {"gamma_m": 0.1, "omega_max": 1.3},
    "grid": {"min": -2.0, "max": 3.0, "n": 201},
    "nbar": 0.0,
}

SMALL_CAVITY = {
    "command": "cavity",
    "molecule": {"gamma": 0.02, "nu": 6.0, "lam": 0.8},
    "kernel": {"gamma_m": 0.48, "omega_max": 3.0},
    "cavity": {"kappa": 0.5, "g": 0.7},
    "grid": {"min": -2.0, "max": 2.0, "n": 101},
    "markovian": True,
}


SMALL_POLARITON = {
    "command": "polariton",
    "molecule": {"gamma": 0.02, "nu": 6.0, "lam": 0.3},
    "kernel": {"gamma_m": 0.48, "omega_max": 3.0},
    "omega_plus": 3.0, "omega_minus": -3.0, "kappa": 1.0,
    "nbar": 1.0,
    "t_grid": {"max": 5.0, "n": 50},
}

SMALL_DEBYE_WALLER = {
    "command": "phonon-wing",
    "sd": {"kind": "3d", "coupling": 0.02, "omega_max": 3.0},
    "observable": "debye-waller",
    "temp_grid": {"min": 0.0, "max": 1.0, "n": 3},
}

SMALL_WING = {
    "command": "phonon-wing",
    "sd": {"kind": "3d", "coupling": 0.02, "omega_max": 3.0},
    "grid": {"min": -1.0, "max": 2.0, "n": 301},
}

PRESET_FILES = sorted(
    (entry.name[:-len(".json")], entry)
    for entry in (resources.files("vibrolang") / "presets").iterdir()
    if entry.name.endswith(".json"))

# the RK4 step of each chain preset, 2 pi/(40 omega_max): its vibron lies
# inside the band (nu <= omega_max)
CHAIN_PRESET_DT = {"fig2c": 2.0 * math.pi / 280.0,
                   "fig2d": 2.0 * math.pi / 40.0,
                   "fig3": 2.0 * math.pi / 960.0}

# (n_modes, modes_felt) of each chain preset: a vibron at the centre of the
# chain misses its 501 odd modes, and the pair at -+1 feels every mode
CHAIN_PRESET_MODES = {"fig2c": (1001, 500), "fig2d": (1001, 500),
                      "fig3": (2501, 2501)}


# (config, dotted key) of keys that runs no longer read
REMOVED_KEYS = [
    (SMALL_ABSORPTION, "molecule.omega0"),
    (SMALL_ABSORPTION, "molecule.eta_l"),
    (SMALL_CAVITY, "cavity.eta_c"),
    (SMALL_ABSORPTION, "kernel.nu_tilde"),
    (SMALL_RELAXATION, "bath.ktot"),
    (SMALL_RELAXATION, "bath.dx"),
    # the bath's temperature alone decides the thermal draws
    (SMALL_RELAXATION, "trajectory.thermal_phonons"),
    # relaxation always writes theory.csv
    (SMALL_RELAXATION, "theory_overlay"),
    # a chain run's step is 2 pi/(40 max(omega_max, nu)), and its seed
    # --seed's
    (SMALL_RELAXATION, "trajectory.dt"),
    (SMALL_RELAXATION, "trajectory.seed"),
    # a phonon-wing spectrum always writes correlation.csv
    (SMALL_WING, "emit_correlation"),
]

UNREAD_KEYS = [
    pytest.param(SMALL_ABSORPTION, "sd",
                 {"kind": "3d", "coupling": 0.02, "omega_max": 3.0},
                 id="absorption-sd"),
    pytest.param(SMALL_ABSORPTION, "temperature", 5.0,
                 id="absorption-temperature"),
    pytest.param(dict(SMALL_CAVITY, nbar=0.5), "temperature", 5.0,
                 id="cavity-temperature"),
    pytest.param(SMALL_POLARITON, "temperature", 5.0,
                 id="polariton-temperature"),
    pytest.param(SMALL_DEBYE_WALLER, "temperature", 1.0, id="dw-temperature"),
    pytest.param(SMALL_DEBYE_WALLER, "gamma", 0.05, id="dw-gamma"),
    pytest.param(SMALL_DEBYE_WALLER, "grid",
                 {"min": -1.0, "max": 2.0, "n": 31}, id="dw-grid"),
    pytest.param(SMALL_WING, "temp_grid", {"min": 0.0, "max": 1.0, "n": 3},
                 id="spectrum-temp_grid"),
    pytest.param(SMALL_COLLECTIVE, "trajectory.q0", [1.0, 1.0],
                 id="excite-q0"),
    pytest.param(SMALL_COLLECTIVE, "trajectory.p0", [0.5, 0.0],
                 id="excite-p0"),
]

BATH_OUT_OF_DOMAIN = [("mu", 0.0), ("mu", -1.0), ("temperature", -1.0)]

# (preset, nbar) whose sideband comb cannot close within its order cap
UNCLOSABLE_COMBS = [("fig4b", 1e300), ("fig6a", 1e300), ("fig4b", 4e4)]

UNREAD_SEEDS = [
    pytest.param(SMALL_ABSORPTION, "-1", id="absorption-negative"),
    pytest.param(SMALL_ABSORPTION, "3", id="absorption"),
    pytest.param(SMALL_WING, "3", id="phonon-wing"),
    pytest.param({"command": "preset", "name": "fig4a"}, "3",
                 id="preset-fig4a"),
]

SWEEP_1D_WING = {
    "command": "phonon-wing",
    "sd": {"kind": "1d", "coupling": 0.05, "omega_max": 3.0},
    "temperature": 2.0,
    "gamma": 0.05,
    "grid": {"min": -1.0, "max": 2.0, "n": 301},
    "sweep": {"axis": "sd.omega_min", "values": [3e-4, 0.0]},
}

FAILED_RUNS = [
    # the second point's grid spacing 0.1 exceeds its gamma 0.05
    pytest.param(dict(SMALL_WING, grid={"min": -1.0, "max": 2.0, "n": 31},
                      sweep={"axis": "gamma", "values": [0.2, 0.05]}), 2,
                 id="coarse-grid-sweep"),
    pytest.param(dict(SMALL_ABSORPTION,
                      sweep={"axis": "molecule.gamma",
                             "values": [0.025, -1.0]}), 2,
                 id="negative-gamma-sweep"),
    # the second point's 1d band integrals diverge at T > 0
    pytest.param(SWEEP_1D_WING, 1, id="divergent-sweep"),
    pytest.param(dict(SMALL_RELAXATION,
                      trajectory={"t_max": 4.0, "store_every": 0}), 2,
                 id="store_every-0"),
    # trajectory.seed is a removed key; a negative --seed is the
    # seed-flag-negative row of CONFIG_ERRORS
    pytest.param(dict(SMALL_RELAXATION,
                      trajectory={"t_max": 4.0, "seed": -1}), 2,
                 id="seed-negative"),
    pytest.param(dict(SMALL_RELAXATION, trajectory={"store_every": 4}), 2,
                 id="t_max-missing"),
    pytest.param(dict(SMALL_WING, sd=dict(SMALL_WING["sd"], kind="2d")), 2,
                 id="kind-2d"),
    # the first point's 1d band integrals diverge at T > 0, and the
    # second's omega_min 5 exceeds omega_max 3: the config error wins
    pytest.param(dict(SWEEP_1D_WING, sweep={"axis": "sd.omega_min",
                                            "values": [0.0, 5.0]}), 2,
                 id="config-error-after-divergent-point"),
    # the first point's 1d band integrals diverge at T > 0, and the
    # second's grid spacing 0.1 exceeds its gamma 0.05
    pytest.param(dict(SWEEP_1D_WING, grid={"min": -1.0, "max": 2.0, "n": 31},
                      sweep={"axis": "gamma", "values": [0.2, 0.05]}), 2,
                 id="coarse-grid-after-divergent-point"),
    # the first point's vibron energy overflows, and the second's
    # store_every 0 stores no step
    pytest.param(dict(SMALL_RELAXATION,
                      trajectory=dict(SMALL_RELAXATION["trajectory"],
                                      q0=1e200),
                      sweep={"axis": "trajectory.store_every",
                             "values": [4, 0]}),
                 2, id="store_every-0-after-overflowing-point"),
]

# sha256 of the trajectory.csv of SMALL_RELAXATION at bath temperature 1.0,
# by --seed (None: seed 0), on the normal-mode route by
# factorised powers; the bytes written when a trajectory.thermal_phonons flag
# asked for the thermal draw (by the direct powers) differ from these in two
# cells per seed, by one unit in the last printed digit.  Secular roots
# frozen at f's rounding floor moved 1 of the 180 cells at seed 0 and 3 at
# seed 3 by one unit in the last printed digit, at most 1.0e-14 of a
# column's scale.  The secular equation from the chain's closed-form
# resolvent moved 1 cell at seed 0 and 3 at seed 3 again, at most 1.2e-15
# of a column's scale.  Couplings from the exactly reduced angle moved 1
# cell per seed, P1 at t = 0, whose exact value is 0 (8.7e-17 -> 9.9e-17
# and 1.8e-16 -> 1.5e-16, at most 3.2e-17 of the column's scale)
THERMAL_TRAJECTORY_SHA256 = {
    None: "90b21b979affbcb2cf4a5801a492756a8d6b7a6e3c09b7a3c9de096116932e82",
    3: "30ba06dfe976e5789e589b0bcb9a57db5291e0756a40660ab4e8d55bccd1c1c6",
}

# keys of integer fields, each with a config that reads it and an int value
INTEGER_KEYS = [
    pytest.param(SMALL_COLLECTIVE, "j", 1, id="j"),
    pytest.param(SMALL_ABSORPTION, "grid.n", 201, id="grid.n"),
    pytest.param(SMALL_DEBYE_WALLER, "temp_grid.n", 3, id="temp_grid.n"),
    pytest.param(SMALL_POLARITON, "t_grid.n", 50, id="t_grid.n"),
    # a damped chain runs the RK4 route, which slices by store_every
    pytest.param(_set(SMALL_RELAXATION, "bath.qfactor", 50),
                 "trajectory.store_every", 4, id="damped-store_every"),
]

# a value that breaks a domain rule of a section's dataclass, of nbar, of a
# temperature or of a temp_grid point, and the message the config exits 2
# with
DOMAIN_RULES = [
    (SMALL_CAVITY, "cavity.kappa", 0.0, "cavity: kappa must be > 0"),
    (SMALL_CAVITY, "cavity.g", -1.0, "cavity: g must be >= 0"),
    (SMALL_RELAXATION, "trajectory.t_max", 0.0,
     "trajectory: t_max must be > 0"),
    (SMALL_ABSORPTION, "kernel.gamma_m", -0.1, "kernel: gamma_m must be >= 0"),
    (SMALL_ABSORPTION, "kernel.omega_max", 0.0,
     "kernel: omega_max and nu must be > 0"),
    (SMALL_ABSORPTION, "molecule.lam", -1.0, "molecule: lambda must be >= 0"),
    (SMALL_ABSORPTION, "molecule.nu", 0.0, "molecule: nu must be > 0"),
    (SMALL_ABSORPTION, "nbar", -1.0, "nbar: nbar must be >= 0"),
    (SMALL_WING, "temperature", -1.0,
     "temperature: temperature must be >= 0"),
    (SMALL_WING, "sd.coupling", -0.01, "sd: coupling must be >= 0"),
    (SMALL_DEBYE_WALLER, "temp_grid.min", -1.0,
     "temp_grid: temperature must be >= 0"),
]

# every config that exits 2 in this file, with the --seed it is given and a
# substring its message must hold (or None); the errors of the command line
# itself (an unreadable file, an unknown or mismatched command) have no
# config to build
CONFIG_ERRORS = [
    pytest.param(dict(SMALL_RELAXATION, unexpected=1), None, None,
                 id="unexpected-key"),
    pytest.param({k: v for k, v in SMALL_RELAXATION.items() if k != "bath"},
                 None, None, id="bath-missing"),
    pytest.param(_set(load_preset("fig4b"), "kernel.gamma_m", math.nan), None,
                 None, id="nan"),
    pytest.param(dict(SMALL_ABSORPTION,
                      sweep={"axis": "nbar", "values": [0.0, math.nan]}),
                 None, None, id="nan-sweep-value"),
    pytest.param(_set(SMALL_ABSORPTION, "molecule.gamma", -0.1), None, None,
                 id="negative-gamma"),
    pytest.param(_set(SMALL_ABSORPTION, "molecule.nu", math.inf), None, None,
                 id="infinite-nu"),
    *[pytest.param(_set(cfg, key, value), None, f"config field {expect}",
                   id=f"domain-{cfg['command']}-{key}-{value:g}")
      for cfg, key, value, expect in DOMAIN_RULES],
    *[pytest.param({k: v for k, v in load_preset(preset).items()
                    if k != "sweep"} | {"nbar": nbar}, None, None,
                   id=f"unclosable-comb-{preset}-{nbar:g}")
      for preset, nbar in UNCLOSABLE_COMBS],
    # grid spacing 0.1 against the default gamma 0.05: the zero-phonon line
    # cannot be resolved, and both values come from the config
    pytest.param(dict(SMALL_WING, grid={"min": -1.0, "max": 2.0, "n": 31}),
                 None, "grid spacing exceeds gamma", id="coarse-grid"),
    # the same grid from its top down: every step is negative
    pytest.param(dict(SMALL_WING, grid={"min": 2.0, "max": -1.0, "n": 31}),
                 None, "grid spacing exceeds gamma",
                 id="coarse-grid-descending"),
    # and every absorption method: discrete and Bessel ran this grid
    *[pytest.param(dict(SMALL_ABSORPTION, method=method,
                        grid={"min": -2.0, "max": 3.0, "n": 51}), None,
                   "grid spacing exceeds gamma", id=f"coarse-grid-{method}")
      for method in ("discrete", "bessel")],
    pytest.param(dict(SMALL_RELAXATION, nu=-1.0), None, None,
                 id="negative-nu-relaxation"),
    pytest.param(dict(SMALL_COLLECTIVE, nu=-1.0), None, None,
                 id="negative-nu-collective"),
    pytest.param(dict(SMALL_COLLECTIVE,
                      j=SMALL_RELAXATION["bath"]["n_cells"] + 1), None, None,
                 id="pair-beyond-chain"),
    # two initial values for one molecule
    pytest.param(_set(SMALL_RELAXATION, "trajectory.q0", [1.0, 0.5]), None,
                 None, id="start-per-molecule-mismatch"),
    *[pytest.param(_set(cfg, key, 1.0), None, repr(key.split(".")[-1]),
                   id=f"removed-{key.split('.')[-1]}")
      for cfg, key in REMOVED_KEYS],
    *[pytest.param(_set(*param.values), None,
                   f"config field {param.values[1]} ", id=f"unread-{param.id}")
      for param in UNREAD_KEYS],
    # mu <= 0 gave a NaN vibron energy (exit 1), a negative temperature a
    # run from rest (exit 0)
    *[pytest.param(_set(SMALL_RELAXATION, f"bath.{key}", value), None, key,
                   id=f"bath-{key}-{value:g}")
      for key, value in BATH_OUT_OF_DOMAIN],
    # --seed is checked with the trajectory section it completes
    pytest.param(SMALL_RELAXATION, -1, "seed", id="seed-flag-negative"),
    *[pytest.param(param.values[0], int(param.values[1]), "--seed",
                   id=f"unread-seed-{param.id}") for param in UNREAD_SEEDS],
    *[pytest.param(param.values[0], None, None, id=param.id)
      for param in FAILED_RUNS if param.values[1] == 2],
    pytest.param(dict(SMALL_ABSORPTION,
                      sweep={"axis": "grid", "values": [1.0]}), None,
                 "is not a scalar parameter", id="non-scalar-sweep-axis"),
    pytest.param(dict(SMALL_ABSORPTION,
                      sweep={"axis": "nosuch.gamma", "values": [1.0]}), None,
                 "does not resolve", id="sweep-axis-missing-section"),
    pytest.param(dict(SMALL_ABSORPTION,
                      sweep={"axis": "nbar.x", "values": [1.0]}), None,
                 "does not resolve", id="sweep-axis-through-scalar"),
    pytest.param(dict(SMALL_ABSORPTION,
                      sweep={"axis": "nbar", "values": [[1.0]]}), None,
                 "sweep values must be scalars", id="sweep-value-list"),
    # every point replaces nbar, but the config without its sweep is a run
    pytest.param(dict(SMALL_ABSORPTION, nbar="x",
                      sweep={"axis": "nbar", "values": [0.0]}), None,
                 "config field nbar: ", id="swept-key-of-wrong-kind"),
    pytest.param(dict(SMALL_ABSORPTION,
                      sweep={"axis": "nbar", "values": [0.0], "extra": 1}),
                 None, "'extra'", id="sweep-unknown-key"),
    # each point gives kappa, but the config without its sweep must too
    pytest.param(dict({k: v for k, v in SMALL_POLARITON.items()
                       if k != "kappa"},
                      sweep={"axis": "kappa", "values": [1.0]}), None,
                 "config field kappa: required", id="swept-key-missing"),
    pytest.param(dict(_set(SMALL_ABSORPTION, "grid.n", 0),
                      sweep={"axis": "grid.n", "values": [201]}), None,
                 "config field grid.n: 0 must be > 0",
                 id="swept-key-out-of-bound"),
    pytest.param(dict(SMALL_ABSORPTION,
                      sweep={"axis": "command", "values": ["relaxation"]}),
                 None, "config field command: ", id="sweep-axis-command"),
    pytest.param({"command": "preset", "name": "fig4a", "extra": 1}, None,
                 "'extra'", id="preset-unknown-key"),
    *[pytest.param(_set(param.values[0], param.values[1], 2.5), None,
                   f"config field {param.values[1]}: 2.5 is not an integer",
                   id=f"fractional-{param.id}") for param in INTEGER_KEYS],
    # a negative kappa grew P_L to 89.5 by t = 5, a negative t_grid.max
    # gave populations of 1e46, and omega_plus <= omega_minus was a numeric
    # error although both values come from the config
    pytest.param(_set(SMALL_POLARITON, "kappa", -1.0), None,
                 "config field kappa: ", id="polariton-kappa-negative"),
    pytest.param(_set(SMALL_POLARITON, "t_grid.max", -5.0), None,
                 "config field t_grid.max: ", id="polariton-t_max-negative"),
    pytest.param(_set(SMALL_POLARITON, "omega_plus",
                      SMALL_POLARITON["omega_minus"]), None,
                 "config field omega_plus: ",
                 id="polariton-omega_plus-not-above-omega_minus"),
    # lam^2 overflows to inf, where it raised OverflowError: the comb's
    # order is capped and its weight tail cannot close, which the vibron
    # correlation of the full method and of a cavity with phonons sums too
    *[pytest.param(_set(cfg, "molecule.lam", 1e300), None,
                   "weight tail did not close", id=f"lam-1e300-{name}")
      for name, cfg in [
          ("absorption", SMALL_ABSORPTION),
          ("cavity", SMALL_CAVITY),
          ("absorption-full", dict(SMALL_ABSORPTION, method="full")),
          ("cavity-sd", dict(SMALL_CAVITY, sd=SMALL_WING["sd"]))]],
    # and the closed-form cross-talk rates are not finite
    pytest.param(_set(SMALL_POLARITON, "molecule.lam", 1e300), None,
                 "cross-talk rates (inf, inf) are not finite",
                 id="lam-1e300-polariton"),
    # g**2 raised OverflowError while the point computed
    pytest.param(_set(SMALL_CAVITY, "cavity.g", 1e300), None,
                 "config field cavity: g^2 = inf is not finite",
                 id="cavity-g-1e300"),
    # a vibron above the band has no pole (nu', Gamma'); effective_params
    # refused it while the point computed, with exit 1
    *[pytest.param(cfg, None, "config field kernel.omega_max: ",
                   id=f"nu-above-band-{name}")
      for name, cfg in [
          ("absorption", _set(SMALL_ABSORPTION, "molecule.nu", 2.0)),
          ("cavity", dict(SMALL_CAVITY, markovian=False))]],
    # np.linspace raised ValueError for 1e300 points
    *[pytest.param(_set(SMALL_ABSORPTION, "grid.n", n), None,
                   "config field grid: n must be at most 10000000",
                   id=f"grid-n-{n:g}") for n in (1e300, 10**7 + 1)],
    pytest.param(_set(SMALL_ABSORPTION, "grid.min", -10**400), None,
                 "is not a finite number", id="grid-min-beyond-float"),
    # the wing's time grid with a coupled sd, at least 1/(2 gamma) long at a
    # step that keeps the comb's reach inside its Nyquist band, would pass
    # 10^7 points
    *[pytest.param(cfg, None, "the time grid needs", id=f"time-grid-{name}")
      for name, cfg in [
          ("absorption-full", dict(
              SMALL_ABSORPTION, method="full", sd=SMALL_WING["sd"],
              molecule={"gamma": 1e-7, "nu": 1.0, "lam": 2.0},
              grid={"min": -4e-5, "max": 4e-5, "n": 1001})),
          ("phonon-wing", dict(
              SMALL_WING, gamma=1e-6,
              grid={"min": -4e-4, "max": 4e-4, "n": 1001})),
          ("cavity-sd", dict(
              SMALL_CAVITY, sd=SMALL_WING["sd"],
              molecule=dict(SMALL_CAVITY["molecule"], gamma=1e-7),
              grid={"min": -4e-5, "max": 4e-5, "n": 1001}))]],
]


class TestValidation:
    def test_float_key_hands_on_a_float(self):
        # a 301-digit integer is within float range: the grid gets -1e300,
        # where np.linspace failed on an object array
        grid = cli._Reads({"min": -10**300, "max": 3, "n": 5}, {}, "grid")
        points = cli._build(cli._Grid, grid).points()
        assert points.dtype == float and points[0] == -1e300

    def test_unknown_key_rejected(self):
        bad = dict(SMALL_RELAXATION, unexpected=1)
        with pytest.raises(ConfigError, match="'unexpected'"):
            cli.build_config(bad)

    def test_missing_required_rejected(self):
        bad = {k: v for k, v in SMALL_RELAXATION.items() if k != "bath"}
        with pytest.raises(ConfigError, match="config field bath: required"):
            cli.build_config(bad)

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"command": "frobnicate"})

    def test_all_presets_validate(self):
        names = ["fig2c", "fig2d", "fig3", "fig4a", "fig4b", "fig4c", "fig4d",
                 "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c"]
        for name in names:
            cfg = load_preset(name)
            assert cfg["command"] in (
                "relaxation", "collective", "absorption", "phonon-wing",
                "cavity", "polariton",
            )

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("fig99")

    @pytest.mark.parametrize("cfg, section, make, supplied", [
        (SMALL_RELAXATION, "bath", DiscreteBath, ()),
        (SMALL_ABSORPTION, "molecule", MoleculeParams, ()),
        (SMALL_ABSORPTION, "kernel", KernelParams, ("nu", "markovian")),
        (SMALL_WING, "sd", SpectralDensity, ()),
        (SMALL_CAVITY, "cavity", CavityParams, ()),
        (SMALL_RELAXATION, "trajectory", TrajectoryConfig, ("seed",)),
    ], ids=["bath", "molecule", "kernel", "sd", "cavity", "trajectory"])
    def test_section_builds_its_dataclass(self, cfg, section, make, supplied):
        # a section is passed to its dataclass field by field: a field
        # without a default that the CLI does not supply must be given, and
        # a key that is not a field the section gives is refused
        required = [f.name for f in dataclasses.fields(make)
                    if f.name not in supplied
                    and f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        assert required
        for name in required:
            left_out = copy.deepcopy(cfg)
            del left_out[section][name]
            with pytest.raises(ConfigError) as refused:
                cli.build_config(left_out)
            assert f"config field {section}.{name}: required" \
                in str(refused.value)
        for key in ("not_a_field", *supplied):
            with pytest.raises(ConfigError) as refused:
                cli.build_config(_set(cfg, f"{section}.{key}", 1.0))
            assert repr(key) in str(refused.value)


class TestExitCodes:
    def test_ok(self, tmp_path):
        cfg = _write(tmp_path, SMALL_ABSORPTION)
        assert main(["absorption", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0

    def test_malformed_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["absorption", "--config", str(p),
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "manifest.json").exists()

    def test_command_mismatch_is_config_error(self, tmp_path):
        cfg = _write(tmp_path, SMALL_ABSORPTION)
        assert main(["relaxation", "--config", cfg,
                     "--out", str(tmp_path)]) == 2

    def test_numeric_failure_exit_code(self, tmp_path):
        # infrared-divergent 1d wing at T > 0 surfaces as a numeric error
        cfg = _write(tmp_path, {
            "command": "phonon-wing",
            "sd": {"kind": "1d", "coupling": 0.05, "omega_max": 3.0},
            "temperature": 2.0,
            "gamma": 0.05,
            "grid": {"min": -1.0, "max": 2.0, "n": 301},
        })
        assert main(["phonon-wing", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1


    def _config_error(self, tmp_path, cfg, capsys):
        path = _write(tmp_path, cfg)
        code = main([cfg["command"], "--config", path,
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err and err.startswith("config error")
        return err

    @pytest.mark.parametrize("preset, nbar", UNCLOSABLE_COMBS,
                             ids=["fig4b", "fig6a", "fig4b-nbar4e4"])
    def test_unclosable_comb_is_config_error(self, tmp_path, capsys, preset,
                                             nbar):
        # lam^2 (1 + 2 nbar) so large that the sideband comb's weight tail
        # cannot close within its order cap; the uncapped first guess at
        # nbar = 4e4 is order 82,839, about 3.4e9 (n, l) pairs
        cfg = load_preset(preset)
        cfg.pop("sweep", None)
        cfg["nbar"] = nbar
        start = time.perf_counter()
        self._config_error(tmp_path, cfg, capsys)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("cfg, key", REMOVED_KEYS,
                             ids=[key.split(".")[-1]
                                  for _, key in REMOVED_KEYS])
    def test_removed_key_is_config_error(self, tmp_path, capsys, cfg, key):
        # keys that once reached no output, or are no longer settings, are
        # refused, not ignored
        name = key.split(".")[-1]
        err = self._config_error(tmp_path, _set(cfg, key, 1.0), capsys)
        assert f"config field {key} " in err and repr(name) in err

    def test_seed_flag_reaches_chain_preset(self, tmp_path):
        path = _write(tmp_path, {"command": "preset", "name": "fig2d"})
        assert main(["preset", "--config", path, "--out",
                     str(tmp_path / "o"), "--seed", "3"]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        meta = json.loads((tmp_path / "o" / "run.meta.json").read_text())
        assert manifest["seed"] == meta["seed"] == 3

    def _cavity_g_eff(self, tmp_path, cfg):
        path = _write(tmp_path, cfg)
        assert main(["cavity", "--config", path,
                     "--out", str(tmp_path / "o")]) == 0
        meta = tmp_path / "o" / "transmission.meta.json"
        return json.loads(meta.read_text())["g_eff"]

    def test_vanishing_franck_condon_factor_gives_zero_g_eff(self, tmp_path):
        # e^{-lam^2 (1 + 2 nbar)} underflows to 0 at this occupancy
        cfg = dict(SMALL_CAVITY, nbar=1e300,
                   cavity=dict(SMALL_CAVITY["cavity"], g=0.0))
        assert self._cavity_g_eff(tmp_path, cfg) == 0.0

    def test_divergent_debye_waller_exponent_gives_zero_g_eff(self, tmp_path):
        # a 1d density with omega_min = 0 has f_DW = 0 at T = 0, and full
        # absorption's meta records the same f_DW
        cfg = load_preset("fig6c")
        cfg["sd"] = {"kind": "1d", "coupling": 0.03, "omega_max": 3.0}
        cfg["temperature"] = 0.0
        assert self._cavity_g_eff(tmp_path, cfg) == 0.0
        path = _write(tmp_path, dict(SMALL_ABSORPTION, method="full",
                                     sd=cfg["sd"]), "absorb.json")
        out = tmp_path / "a"
        assert main(["absorption", "--config", path, "--out", str(out)]) == 0
        meta = json.loads((out / "spectrum.meta.json").read_text())
        assert meta["f_DW"] == 0.0


class TestFailedRunWritesNothing:
    @pytest.mark.parametrize("cfg, code", FAILED_RUNS)
    def test_exit_code_and_no_files(self, tmp_path, capsys, cfg, code):
        path = _write(tmp_path, cfg)
        out = tmp_path / "o"
        rc = main([cfg["command"], "--config", path, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == code, err
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys,
                                               monkeypatch):
        # refused before any point computes (a point that computed would
        # call None), and the file is left as it is
        out = tmp_path / "o"
        out.write_bytes(b"kept")
        monkeypatch.setattr(cli.spectra, "molecular_response", None)
        path = _write(tmp_path, SMALL_ABSORPTION)
        rc = main(["absorption", "--config", path, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("config error: --out ")
        assert "Traceback" not in err
        assert out.read_bytes() == b"kept"

    @pytest.mark.parametrize("out", ["afile/sub/deeper", ""],
                             ids=["beneath-a-file", "empty"])
    def test_out_no_directory_can_take_is_config_error(self, tmp_path, capsys,
                                                       monkeypatch, out):
        # os.makedirs would raise after every point computed; the path is
        # refused before any does
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_bytes(b"kept")
        monkeypatch.setattr(cli.spectra, "molecular_response", None)
        path = _write(tmp_path, SMALL_ABSORPTION)
        rc = main(["absorption", "--config", path, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("config error: --out ")
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["afile", "cfg.json"]
        assert (tmp_path / "afile").read_bytes() == b"kept"

    def test_existing_out_dir_left_as_is(self, tmp_path):
        out = tmp_path / "o"
        run_config(SMALL_ABSORPTION, str(out))
        before = {p: (out / p).read_bytes() for p in os.listdir(out)}
        cfg = dict(SMALL_ABSORPTION,
                   sweep={"axis": "molecule.gamma", "values": [0.05, -1.0]})
        with pytest.raises(ConfigError):
            run_config(cfg, str(out))
        assert {p: (out / p).read_bytes() for p in os.listdir(out)} == before


class TestValidateOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(cfg):
            seen.append(cfg["command"])
            return validate_config(cfg)

        monkeypatch.setattr(cli, "validate_config", counting)
        return seen

    @pytest.mark.parametrize("cfg, expected", [
        (SMALL_ABSORPTION, ["absorption"]),
        ({"command": "preset", "name": "fig4b"}, ["preset", "absorption"]),
        (dict(SMALL_ABSORPTION, sweep={"axis": "nbar", "values": [0.0, 1.0]}),
         ["absorption"]),
    ], ids=["plain", "preset", "sweep"])
    def test_cli_validates_each_config_once(self, tmp_path, calls, cfg,
                                            expected):
        path = _write(tmp_path, cfg)
        assert main([cfg["command"], "--config", path,
                     "--out", str(tmp_path / "o")]) == 0
        assert calls == expected

    def test_library_config_is_validated(self, tmp_path, calls):
        run_config(SMALL_ABSORPTION, str(tmp_path / "a"))
        assert calls == ["absorption"]
        with pytest.raises(ConfigError, match="unexpected"):
            run_config(dict(SMALL_ABSORPTION, unexpected=1),
                       str(tmp_path / "b"))
        assert not (tmp_path / "b").exists()

    def test_invalid_config_reported_before_command_mismatch(self, tmp_path,
                                                            capsys):
        path = _write(tmp_path, dict(SMALL_ABSORPTION, unexpected=1))
        assert main(["relaxation", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "unexpected" in capsys.readouterr().err


class TestBuildStep:
    @pytest.mark.parametrize("cfg, seed, expect", CONFIG_ERRORS)
    def test_config_error_raised_while_building(self, tmp_path, capsys, cfg,
                                                seed, expect):
        # building every point through its handler, with none of the
        # returned computations called, raises the error the CLI reports,
        # and the run makes no --out
        with pytest.raises(ConfigError) as built:
            cli.build_config(cfg, seed)
        out = tmp_path / "o"
        argv = [cfg["command"], "--config", _write(tmp_path, cfg),
                "--out", str(out)]
        assert main(argv + ([] if seed is None else ["--seed", str(seed)])) \
            == 2
        assert capsys.readouterr().err == f"config error: {built.value}\n"
        assert expect is None or expect in str(built.value)
        assert not out.exists()


class TestArtifacts:
    def test_relaxation_outputs_and_checksums(self, tmp_path):
        out = tmp_path / "out"
        manifest = run_config(SMALL_RELAXATION, str(out))
        assert [e["file"] for e in manifest["files"]] == [
            "trajectory.csv", "theory.csv", "run.meta.json"]
        for entry in manifest["files"]:
            data = (out / entry["file"]).read_text()
            assert hashlib.sha256(data.encode()).hexdigest() == entry["sha256"]
        header = (out / "trajectory.csv").read_text().split("\n", 1)[0]
        assert header == "t,Q1,P1,E1"
        meta = json.loads((out / "run.meta.json").read_text())
        assert {"gamma_m", "omega_max", "config", "seed", "dt", "n_steps",
                "propagator"} <= set(meta)

    @pytest.mark.parametrize("cfg, propagator", [
        (SMALL_RELAXATION, "modes"),
        (SMALL_COLLECTIVE, "modes"),
        (dict(SMALL_RELAXATION,
              bath=dict(SMALL_RELAXATION["bath"], qfactor=50.0)), "rk4"),
    ], ids=["relaxation", "collective", "damped"])
    def test_run_meta_records_propagation(self, tmp_path, cfg, propagator):
        run_config(cfg, str(tmp_path))
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        assert meta["propagator"] == propagator
        assert meta["n_steps"] == math.ceil(
            cfg["trajectory"]["t_max"] / meta["dt"])
        # 81 modes on 40 cells; a vibron at the centre misses the 41 odd ones
        assert (meta["n_modes"], meta["modes_felt"]) == (
            (81, 81) if cfg["command"] == "collective" else (81, 40))
        # the normal-mode route also records how its secular roots fared
        modal = {"secular_iterations", "weight_sum_error"}
        assert (modal <= set(meta)) == (propagator == "modes")
        if propagator == "modes":
            assert 0 < meta["secular_iterations"] <= 10
            assert 0 <= meta["weight_sum_error"] < 1e-13

    def test_byte_identical_reruns(self, tmp_path):
        # a chain run; fig5a's 1d density at two temperatures, whose
        # response and emitted correlation rest on band sums; and a sweep
        # of sideband combs
        configs = {
            "relaxation": SMALL_RELAXATION,
            "wing": dict(load_preset("fig5a"), sweep={
                "axis": "temperature", "values": [0.0, 0.62]}),
            "absorption": dict(SMALL_ABSORPTION, sweep={
                "axis": "nbar", "values": [0.0, 0.5, 1.0, 2.0]}),
        }
        for name, cfg in configs.items():
            written = []
            for rerun in ("a", "b"):
                out = tmp_path / name / rerun
                run_config(cfg, str(out))
                written.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert written[0] == written[1], name
        assert (tmp_path / "wing" / "a" / "p001_correlation.csv").exists()

    def test_thermal_draws_follow_bath_temperature(self, tmp_path):
        # a bath above T = 0 starts the chain from a thermal draw; a
        # trajectory flag once had to ask for it, and without the flag the
        # run wrote the bytes of T = 0
        def trajectory(name, cfg, *flags):
            out = tmp_path / name
            assert main(["relaxation", "--config", _write(tmp_path, cfg),
                         "--out", str(out), *flags]) == 0
            return (out / "trajectory.csv").read_bytes()

        warm = _set(SMALL_RELAXATION, "bath.temperature", 1.0)
        drawn = {None: trajectory("warm", warm),
                 3: trajectory("seed-3", warm, "--seed", "3")}
        assert drawn[None] != trajectory("cold", SMALL_RELAXATION)
        assert drawn[None] != drawn[3]
        assert {seed: hashlib.sha256(data).hexdigest()
                for seed, data in drawn.items()} == THERMAL_TRAJECTORY_SHA256

    def test_failed_manifest_write_keeps_old_manifest(self, tmp_path,
                                                      monkeypatch):
        out = tmp_path / "out"
        run_config(SMALL_ABSORPTION, str(out))
        before = (out / "manifest.json").read_bytes()
        listing = sorted(os.listdir(out))
        real_open = open

        def failing_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if "w" in mode and \
                    os.path.basename(path).startswith("manifest.json"):
                def write(text):
                    raise OSError("disk full")
                fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            run_config(SMALL_ABSORPTION, str(out))
        assert (out / "manifest.json").read_bytes() == before
        assert sorted(os.listdir(out)) == listing

    @pytest.mark.parametrize("name, entry", PRESET_FILES,
                             ids=[name for name, _ in PRESET_FILES])
    def test_bundled_preset_runs(self, tmp_path, name, entry):
        cfg = json.loads(entry.read_text(encoding="utf-8"))
        out = tmp_path / name
        assert main([cfg["command"], "--config", str(entry), "--out",
                     str(out), "--format", "csv+svg"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"]
        for item in manifest["files"]:
            data = (out / item["file"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == item["sha256"]
            if item["file"].endswith("run.meta.json"):
                meta = json.loads(data)
                assert meta["dt"] == CHAIN_PRESET_DT[name]
                assert (meta["n_modes"], meta["modes_felt"]) == \
                    CHAIN_PRESET_MODES[name]
        assert (name in CHAIN_PRESET_DT) == any(
            item["file"].endswith("run.meta.json")
            for item in manifest["files"])

    @pytest.mark.parametrize("cfg, key, value", INTEGER_KEYS)
    def test_integral_float_integer_key(self, tmp_path, cfg, key, value):
        # an integral float in an integer field runs as the int does
        written = []
        for spelling in (value, float(value)):
            out = tmp_path / repr(spelling)
            path = _write(tmp_path, _set(cfg, key, spelling))
            assert main([cfg["command"], "--config", path,
                         "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert written[0] and written[0] == written[1]

    def test_svg_emission(self, tmp_path):
        out = tmp_path / "out"
        manifest = run_config(SMALL_ABSORPTION, str(out), fmt="csv+svg")
        names = {e["file"] for e in manifest["files"]}
        assert "spectrum.svg" in names
        assert (out / "spectrum.svg").read_text().startswith("<svg")

    def test_absorption_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        run_config(SMALL_ABSORPTION, str(out))
        lines = (out / "spectrum.csv").read_text().strip().split("\n")
        assert lines[0] == "detuning,value"
        assert len(lines) == 1 + 201
        # every data cell round-trips through %.12e exactly
        for ln in lines[1:3]:
            for cell in ln.split(","):
                assert "%.12e" % float(cell) == cell

    @pytest.mark.parametrize("method, sd", [
        ("full", None), ("full", SMALL_WING["sd"]), ("discrete", None)],
        ids=["no-sd", "sd-3d", "discrete"])
    def test_absorption_full_method(self, tmp_path, method, sd):
        # the CLI writes what absorption_full computes on the same objects,
        # for discrete absorption too
        cfg = dict(SMALL_ABSORPTION, method=method)
        if sd is not None:
            cfg["sd"] = sd
        out = tmp_path / "o"
        assert main(["absorption", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        mol = MoleculeParams(**cfg["molecule"])
        values, meta = absorption_full(response_route(
            np.linspace(-2.0, 3.0, 201), mol,
            KernelParams(**cfg["kernel"], nu=mol.nu),
            None if sd is None else SpectralDensity(**sd),
            ThermalState.from_occupation(cfg["nbar"], mol.nu)))
        table = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(
            table[:, 1], [float("%.12e" % v) for v in values])
        written = json.loads((out / "spectrum.meta.json").read_text())
        route = ("dt", "t_horizon", "tail_bound", "wing_tail") \
            if sd is not None else ()
        for key in (*route, "n_lines", "nbar", "nu_prime", "gamma_prime",
                    "tail", "f_FC", "f_DW", "polaron_shift"):
            assert written[key] == meta[key]
        assert written["method"] == method

    @pytest.mark.parametrize("sd", [None, SMALL_WING["sd"]],
                             ids=["no-sd", "sd-3d"])
    def test_cavity_meta_records_the_response(self, tmp_path, sd):
        # transmission.meta.json carries molecular_response's meta: the
        # comb's, and with an sd the wing's dt, horizon and tails
        cfg = dict(SMALL_CAVITY) if sd is None else dict(SMALL_CAVITY, sd=sd)
        out = tmp_path / "o"
        assert main(["cavity", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        mol = MoleculeParams(**cfg["molecule"])
        _, meta = molecular_response(response_route(
            np.linspace(-2.0, 2.0, 101), mol,
            KernelParams(**cfg["kernel"], nu=mol.nu, markovian=True),
            None if sd is None else SpectralDensity(**sd), ThermalState(0.0)))
        written = json.loads((out / "transmission.meta.json").read_text())
        assert {key: written[key] for key in meta} == meta
        assert ("tail_bound" in written) == (sd is not None)

    def test_zero_phonon_factors_of_the_route(self, tmp_path):
        # at T > 0 with an sd, the cavity's g_eff and full absorption's
        # f_FC and f_DW are franck_condon's and debye_waller's, exactly
        th, sd = ThermalState(0.7), SpectralDensity(**SMALL_WING["sd"])
        cavity = dict(SMALL_CAVITY, sd=SMALL_WING["sd"], temperature=0.7)
        absorb = {k: v for k, v in SMALL_ABSORPTION.items() if k != "nbar"}
        absorb.update(method="full", sd=SMALL_WING["sd"], temperature=0.7)
        metas = {}
        for cfg, name in ((cavity, "transmission"), (absorb, "spectrum")):
            out = tmp_path / name
            assert main([cfg["command"], "--config",
                         _write(tmp_path, cfg, f"{name}.json"),
                         "--out", str(out)]) == 0
            metas[name] = json.loads(
                (out / f"{name}.meta.json").read_text())
        mol = cavity["molecule"]
        f_fc = franck_condon(mol["lam"], th.occupation(mol["nu"]))
        assert metas["transmission"]["g_eff"] == effective_rabi(
            cavity["cavity"]["g"], f_fc, debye_waller(sd, th))
        mol = absorb["molecule"]
        assert metas["spectrum"]["f_FC"] == franck_condon(
            mol["lam"], th.occupation(mol["nu"]))
        assert metas["spectrum"]["f_DW"] == debye_waller(sd, th) < 1.0

    def test_absorption_bessel_method(self, tmp_path):
        # the CLI writes what the Bessel comb evaluates on the same grid,
        # cell by cell, and the comb's meta
        cfg = dict(SMALL_ABSORPTION, method="bessel", nbar=0.01)
        out = tmp_path / "o"
        assert main(["absorption", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        mol = MoleculeParams(**cfg["molecule"])
        spec = absorption_bessel(
            mol, KernelParams(**cfg["kernel"], nu=mol.nu),
            ThermalState.from_occupation(cfg["nbar"], mol.nu))
        rows = (out / "spectrum.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[1] for row in rows] == [
            "%.12e" % v for v in spec.evaluate(np.linspace(-2.0, 3.0, 201))]
        written = json.loads((out / "spectrum.meta.json").read_text())
        assert written["n_lines"] == len(spec.lines) > 1
        for key in ("nbar", "validity_arg"):
            assert written[key] == spec.meta[key]
        assert written["validity_arg"] > 0
        assert written["method"] == "bessel"

    @pytest.mark.parametrize("command, cfg, gamma", [
        ("absorption", dict(SMALL_ABSORPTION, method="full",
                            molecule={"gamma": 0.025, "nu": 2.0,
                                      "lam": 0.0}), 0.025),
        ("phonon-wing", dict(_set(SMALL_WING, "sd.coupling", 0.0),
                             gamma=0.05), 0.05),
        ("absorption", dict(SMALL_ABSORPTION, method="discrete",
                            molecule={"gamma": 0.025, "nu": 2.0,
                                      "lam": 0.0}), 0.025),
        ("absorption", dict(SMALL_ABSORPTION, method="bessel",
                            molecule={"gamma": 0.025, "nu": 2.0,
                                      "lam": 0.0}), 0.025),
    ], ids=["full-lam-0-nu-above-band", "wing-zero-coupling",
            "discrete-lam-0-nu-above-band", "bessel-lam-0-nu-above-band"])
    def test_uncoupled_full_route_is_one_line(self, tmp_path, command, cfg,
                                              gamma):
        # nothing couples to the line, so the response is the two-level
        # 1/(gamma - i D): no vibron pole (nu is above omega_max), no time
        # grid
        out = tmp_path / "o"
        assert main([command, "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        det, value = np.loadtxt(out / "spectrum.csv", delimiter=",",
                                skiprows=1).T
        np.testing.assert_allclose(value, 1.0 / (gamma**2 + det**2),
                                   rtol=1e-11)

    def test_two_level_cavity_needs_no_pole(self, tmp_path):
        # at lam = 0 nothing relaxes the vibron, so one above the band
        # (nu 2 over omega_max 1.3, no markovian) is no reason to refuse
        # the run: the response is the one line 1/(gamma - i D)
        cfg = {k: v for k, v in SMALL_CAVITY.items() if k != "markovian"}
        cfg = _set(_set(_set(cfg, "molecule.lam", 0.0), "molecule.nu", 2.0),
                   "kernel.omega_max", 1.3)
        out = tmp_path / "o"
        assert main(["cavity", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        det, re_t, im_t, t2 = np.loadtxt(out / "transmission.csv",
                                         delimiter=",", skiprows=1).T
        gamma = cfg["molecule"]["gamma"]
        kappa, g = cfg["cavity"]["kappa"], cfg["cavity"]["g"]
        t = kappa / (g * g / (gamma - 1j * det) + kappa - 1j * det)
        np.testing.assert_allclose(re_t + 1j * im_t, t, rtol=1e-11)
        np.testing.assert_allclose(t2, np.abs(t) ** 2, rtol=1e-11)

    def test_wing_default_grid(self, tmp_path):
        # with no grid the wing spans [-omega_max, 2 omega_max] in 1,201 rows
        cfg = {k: v for k, v in SMALL_WING.items() if k != "grid"}
        manifest = run_config(cfg, str(tmp_path))
        rows = {e["file"]: e["rows"] for e in manifest["files"]}
        assert rows["spectrum.csv"] == 1201 and rows["correlation.csv"]
        table = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",",
                           skiprows=1)
        assert table.shape == (1201, 2)
        assert (table[0, 0], table[-1, 0]) == (-3.0, 6.0)

    def test_debye_waller_default_temperatures(self, tmp_path):
        # with no temp_grid the Debye-Waller factor is written on T = 0..4
        # in 41 rows
        cfg = {k: v for k, v in SMALL_DEBYE_WALLER.items()
               if k != "temp_grid"}
        manifest = run_config(cfg, str(tmp_path))
        rows = {e["file"]: e["rows"] for e in manifest["files"]}
        assert rows["debye_waller.csv"] == 41
        temps = np.linspace(0.0, 4.0, 41)
        sd = SpectralDensity(**cfg["sd"])
        table = np.loadtxt(tmp_path / "debye_waller.csv", delimiter=",",
                           skiprows=1)
        np.testing.assert_array_equal(table, [
            [float("%.12e" % t),
             float("%.12e" % debye_waller(sd, ThermalState(t)))]
            for t in temps])

    def test_cavity_csv_schema(self, tmp_path):
        cfg = {
            "command": "cavity",
            "molecule": {"gamma": 0.02, "nu": 6.0, "lam": 0.0},
            "kernel": {"gamma_m": 0.48, "omega_max": 3.0},
            "cavity": {"kappa": 0.5, "g": 0.0},
            "grid": {"min": -2.0, "max": 2.0, "n": 101},
            "markovian": True,
        }
        out = tmp_path / "out"
        run_config(cfg, str(out))
        lines = (out / "transmission.csv").read_text().strip().split("\n")
        assert lines[0] == "detuning,re_T,im_T,abs_T2"

    def test_polariton_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        run_config(SMALL_POLARITON, str(out))
        lines = (out / "polariton.csv").read_text().strip().split("\n")
        assert lines[0] == "t,P_U,P_L"
        meta = json.loads((out / "polariton.meta.json").read_text())
        assert meta["kappa_plus"] > meta["kappa_minus"] > 0


class TestOneRoutePerPoint:
    # the points of each preset whose response couples a phonon density,
    # and the band rules that spectra builds for them: the route's, D's
    # exponent's, and for a wing spectrum its polaron shift's and
    # correlation.csv's
    COUPLED_POINTS = {"fig5a": 3, "fig5b": 3, "fig6b": 4, "fig6c": 1}
    BAND_RULES = {"fig5a": 12, "fig5b": 12, "fig6b": 8, "fig6c": 2}

    def test_each_point_builds_its_route_once(self, tmp_path, monkeypatch):
        calls = {}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in ("_wing_horizon", "_band_rule"):
            monkeypatch.setattr(spectra, name,
                                counting(name, getattr(spectra, name)))
        for name, entry in PRESET_FILES:
            calls.update(_wing_horizon=0, _band_rule=0)
            assert main(["preset", "--config",
                         _write(tmp_path, {"command": "preset", "name": name}),
                         "--out", str(tmp_path / name)]) == 0
            assert calls["_wing_horizon"] == \
                self.COUPLED_POINTS.get(name, 0), name
            if name in self.BAND_RULES:
                assert calls["_band_rule"] == self.BAND_RULES[name], name


class TestSweep:
    def test_sweep_prefixes_and_order(self, tmp_path):
        cfg = dict(SMALL_ABSORPTION,
                   sweep={"axis": "nbar", "values": [0.0, 1.0, 2.0]})
        out = tmp_path / "out"
        manifest = run_config(cfg, str(out))
        names = [e["file"] for e in manifest["files"]]
        assert "p000_spectrum.csv" in names
        assert "p002_spectrum.csv" in names
        assert manifest["sweep"]["values"] == [0.0, 1.0, 2.0]
        # manifest ordering follows input order
        idx = [names.index(f"p{i:03d}_spectrum.csv") for i in range(3)]
        assert idx == sorted(idx)

    def test_sweep_nested_axis(self, tmp_path):
        cfg = dict(SMALL_ABSORPTION,
                   sweep={"axis": "molecule.lam", "values": [0.2, 0.4]})
        manifest = run_config(cfg, str(tmp_path / "out"))
        assert len([e for e in manifest["files"]
                    if e["file"].endswith("spectrum.csv")]) == 2

    def test_swept_key_left_out_is_not_checked_at_its_default(self, tmp_path,
                                                              capsys):
        # grid spacing 0.1 is below each point's gamma; the default gamma
        # 0.05, which no point runs, would not resolve it
        cfg = dict(SMALL_WING, grid={"min": -1.0, "max": 2.0, "n": 31},
                   sweep={"axis": "gamma", "values": [0.2, 0.3]})
        out = tmp_path / "out"
        code = main(["phonon-wing", "--config", _write(tmp_path, cfg),
                     "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert {"p000_spectrum.csv", "p001_spectrum.csv"} <= set(
            os.listdir(out))

    def test_swept_key_is_checked_alone(self, tmp_path):
        # the given omega_plus is below omega_minus, but every point
        # replaces it with one above
        cfg = dict(SMALL_POLARITON, omega_plus=-5.0,
                   sweep={"axis": "omega_plus", "values": [3.0, 4.0]})
        manifest = run_config(cfg, str(tmp_path / "out"))
        assert [e["file"] for e in manifest["files"]
                if e["file"].endswith(".csv")] == [
            "p000_polariton.csv", "p001_polariton.csv"]

    def test_sweep_non_scalar_axis_rejected(self, tmp_path):
        cfg = dict(SMALL_ABSORPTION,
                   sweep={"axis": "grid", "values": [1.0]})
        with pytest.raises(ConfigError):
            run_config(cfg, str(tmp_path / "out"))

    def test_preset_sweep_override(self, tmp_path):
        # a sweep given with a preset replaces the preset's own: one
        # p%03d_ set of the plain run's files per value, in the manifest
        sweep = {"axis": "molecule.lam", "values": [0.5, 0.8]}
        plain = run_config({k: v for k, v in load_preset("fig4a").items()
                            if k != "sweep"}, str(tmp_path / "plain"))
        manifest = run_config({"command": "preset", "name": "fig4a",
                               "sweep": sweep}, str(tmp_path / "swept"))
        assert manifest["sweep"] == sweep
        names = [e["file"] for e in plain["files"]]
        assert names == ["spectrum.csv", "spectrum.meta.json"]
        assert [e["file"] for e in manifest["files"]] == [
            f"p{i:03d}_{name}" for i in range(2) for name in names]
        for i, lam in enumerate(sweep["values"]):
            meta = json.loads((tmp_path / "swept" / f"p{i:03d}_spectrum"
                               ".meta.json").read_text())
            assert meta["config"]["molecule"]["lam"] == lam

    def test_single_value_sweep_equals_run(self, tmp_path):
        swept = dict(SMALL_ABSORPTION,
                     sweep={"axis": "nbar", "values": [0.0]})
        m_sweep = run_config(swept, str(tmp_path / "a"))
        m_plain = run_config(SMALL_ABSORPTION, str(tmp_path / "b"))
        s1 = next(e["sha256"] for e in m_sweep["files"]
                  if e["file"].endswith("spectrum.csv"))
        s2 = next(e["sha256"] for e in m_plain["files"]
                  if e["file"].endswith("spectrum.csv"))
        assert s1 == s2


def _run_python(code):
    """Exit code of `python -c code` with this checkout's package first on
    the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                      os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode


class TestImports:
    # each adds 0.2 to 0.5 s to the start of every CLI run
    @pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate",
                                        "jsonschema", "scipy"])
    def test_cli_import_leaves_out(self, module):
        assert _run_python("import sys, vibrolang.cli; "
                           f"sys.exit({module!r} in sys.modules)") == 0

    def test_package_import_leaves_out_scipy(self):
        assert _run_python("import sys, vibrolang; "
                           "sys.exit('scipy' in sys.modules)") == 0

    def test_root_namespace(self):
        # the root holds the parameter, result and error types and the
        # functions a command's handler calls to make its files
        import vibrolang
        public = {name for name, value in vars(vibrolang).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)}
        assert public == {
            "CavityParams", "ConfigError", "DiscreteBath", "DivergenceError",
            "DomainError", "InstabilityError", "KernelParams",
            "MoleculeParams", "RegimeError", "ResolutionError",
            "SpectralDensity", "ThermalState", "Trajectory",
            "TrajectoryConfig", "TruncationError", "VibrolangError",
            "absorption_bessel", "absorption_full", "debye_waller",
            "derived_markov_params", "mirror_emission", "phonon_correlation",
            "polariton_populations", "polariton_rates", "simulate",
            "transmission"}

    @pytest.mark.parametrize("module, name", [
        ("model", "chain_eigenmodes"), ("model", "vibron_phonon_couplings"),
        ("kernels", "gamma_freq"), ("kernels", "effective_params"),
        ("kernels", "momentum_correlation"),
        ("spectra", "absorption_discrete"), ("spectra", "dephasing_rate"),
        ("spectra", "franck_condon"), ("spectra", "molecular_response"),
        ("spectra", "polaron_shift"), ("spectra", "spectral_density"),
        ("cavity", "effective_rabi")])
    def test_module_name_not_at_root(self, module, name):
        import vibrolang
        assert callable(getattr(importlib.import_module(f"vibrolang.{module}"),
                                name))
        assert not hasattr(vibrolang, name)

    def test_commands_run_without_scipy(self, tmp_path):
        # numpy is the one runtime dependency: with scipy unimportable,
        # a small config of each command exits 0
        configs = [SMALL_RELAXATION, SMALL_COLLECTIVE, SMALL_ABSORPTION,
                   SMALL_WING, SMALL_CAVITY, SMALL_POLARITON]
        assert {c["command"] for c in configs} \
            == set(cli.COMMANDS) - {"preset"}
        argvs = [[cfg["command"], "--config",
                  _write(tmp_path, cfg, f"{cfg['command']}.json"),
                  "--out", str(tmp_path / cfg["command"])]
                 for cfg in configs]
        assert _run_python(
            "import sys; sys.modules['scipy'] = None\n"
            "import warnings; warnings.simplefilter('ignore')\n"
            "from vibrolang import cli\n"
            f"sys.exit(max(cli.main(argv) for argv in {argvs!r}))") == 0


class TestReproduceScript:
    def test_chain_and_line_presets_with_seed(self, tmp_path):
        # --seed reaches fig2d (relaxation) and is kept from fig4a
        # (absorption), which would refuse it
        root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                          os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "scripts",
                                          "reproduce_figures.py"),
             "--out", str(tmp_path), "--only", "fig2d", "fig4a",
             "--seed", "3"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        for name in ("fig2d", "fig4a"):
            manifest = json.loads((tmp_path / name / "manifest.json")
                                  .read_text())
            assert manifest["files"]
            assert manifest["seed"] == (3 if name == "fig2d" else None)
