"""CLI plumbing: config validation, artifact emission, manifests, sweeps,
determinism, exit codes."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import numpy as np
import pytest

from vibrolang import cli
from vibrolang.cli import (
    _SCHEMAS,
    load_preset,
    main,
    run_config,
    validate_config,
)
from vibrolang.cavity import CavityParams
from vibrolang.errors import ConfigError
from vibrolang.kernels import KernelParams
from vibrolang.microsim import TrajectoryConfig
from vibrolang.model import DiscreteBath, MoleculeParams, SpectralDensity


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


SMALL_RELAXATION = {
    "command": "relaxation",
    "nu": 1.0,
    "bath": {"n_cells": 40, "k0": 12.25, "m0": 1.0, "dk": 2.0706279240848657,
             "qfactor": "inf", "temperature": 0.0},
    "trajectory": {"t_max": 4.0, "store_every": 4},
    "theory_overlay": True,
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


class TestValidation:
    def test_unknown_key_rejected(self):
        bad = dict(SMALL_RELAXATION, unexpected=1)
        with pytest.raises(ConfigError):
            validate_config(bad)

    def test_missing_required_rejected(self):
        bad = {k: v for k, v in SMALL_RELAXATION.items() if k != "bath"}
        with pytest.raises(ConfigError):
            validate_config(bad)

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

    def test_schemas_are_valid(self):
        for schema in _SCHEMAS.values():
            jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("section, make, supplied", [
        ("bath", DiscreteBath, ()),
        ("molecule", MoleculeParams, ()),
        ("kernel", KernelParams, ("nu",)),
        ("sd", SpectralDensity, ()),
        ("cavity", CavityParams, ()),
        ("trajectory", TrajectoryConfig, ()),
    ], ids=["bath", "molecule", "kernel", "sd", "cavity", "trajectory"])
    def test_section_builds_its_dataclass(self, section, make, supplied):
        # a section is passed to its dataclass key for key, so every key
        # must be a field, and every field the schema may leave out must
        # have its default on the dataclass or be supplied by the CLI
        fields = dataclasses.fields(make)
        no_default = {f.name for f in fields
                      if f.default is dataclasses.MISSING
                      and f.default_factory is dataclasses.MISSING}
        schemas = [cmd["properties"][section] for cmd in _SCHEMAS.values()
                   if section in cmd["properties"]]
        assert schemas
        for schema in schemas:
            assert set(schema["properties"]) <= {f.name for f in fields}
            assert no_default <= set(schema["required"]) | set(supplied)


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

    def test_nan_is_config_error(self, tmp_path, capsys):
        cfg = load_preset("fig4b")
        cfg["kernel"]["gamma_m"] = float("nan")
        self._config_error(tmp_path, cfg, capsys)
        assert not (tmp_path / "o").exists()

    def test_nan_sweep_value_is_config_error(self, tmp_path, capsys):
        cfg = dict(SMALL_ABSORPTION,
                   sweep={"axis": "nbar", "values": [0.0, float("nan")]})
        self._config_error(tmp_path, cfg, capsys)

    def test_negative_gamma_is_config_error(self, tmp_path, capsys):
        cfg = copy.deepcopy(SMALL_ABSORPTION)
        cfg["molecule"]["gamma"] = -0.1
        self._config_error(tmp_path, cfg, capsys)

    def test_infinite_nu_is_config_error(self, tmp_path, capsys):
        cfg = copy.deepcopy(SMALL_ABSORPTION)
        cfg["molecule"]["nu"] = float("inf")
        self._config_error(tmp_path, cfg, capsys)

    @pytest.mark.parametrize("preset, nbar",
                             [("fig4b", 1e300), ("fig6a", 1e300),
                              ("fig4b", 4e4)],
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

    def test_negative_nu_relaxation_is_config_error(self, tmp_path, capsys):
        self._config_error(tmp_path, dict(SMALL_RELAXATION, nu=-1.0), capsys)

    def test_negative_nu_collective_is_config_error(self, tmp_path, capsys):
        self._config_error(tmp_path, dict(SMALL_COLLECTIVE, nu=-1.0), capsys)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_non_positive_dt_is_config_error(self, tmp_path, capsys, dt):
        cfg = copy.deepcopy(SMALL_RELAXATION)
        cfg["trajectory"]["dt"] = dt
        self._config_error(tmp_path, cfg, capsys)

    def test_pair_beyond_chain_is_config_error(self, tmp_path, capsys):
        cfg = dict(SMALL_COLLECTIVE, j=SMALL_RELAXATION["bath"]["n_cells"] + 1)
        self._config_error(tmp_path, cfg, capsys)

    @pytest.mark.parametrize("cfg, section, key", [
        (SMALL_ABSORPTION, "molecule", "omega0"),
        (SMALL_ABSORPTION, "molecule", "eta_l"),
        (SMALL_CAVITY, "cavity", "eta_c"),
        (SMALL_ABSORPTION, "kernel", "nu_tilde"),
        (SMALL_RELAXATION, "bath", "ktot"),
        (SMALL_RELAXATION, "bath", "dx"),
    ], ids=["omega0", "eta_l", "eta_c", "nu_tilde", "ktot", "dx"])
    def test_removed_key_is_config_error(self, tmp_path, capsys, cfg,
                                         section, key):
        # keys that once reached no output are refused, not ignored
        cfg = copy.deepcopy(cfg)
        cfg[section][key] = 1.0
        assert repr(key) in self._config_error(tmp_path, cfg, capsys)

    @pytest.mark.parametrize("cfg, key, value", [
        (SMALL_ABSORPTION, "sd",
         {"kind": "3d", "coupling": 0.02, "omega_max": 3.0}),
        (SMALL_ABSORPTION, "temperature", 5.0),
        (dict(SMALL_CAVITY, nbar=0.5), "temperature", 5.0),
        (SMALL_POLARITON, "temperature", 5.0),
        (SMALL_DEBYE_WALLER, "temperature", 1.0),
        (SMALL_DEBYE_WALLER, "gamma", 0.05),
        (SMALL_DEBYE_WALLER, "grid", {"min": -1.0, "max": 2.0, "n": 31}),
        (SMALL_DEBYE_WALLER, "emit_correlation", True),
        (SMALL_WING, "temp_grid", {"min": 0.0, "max": 1.0, "n": 3}),
        (SMALL_COLLECTIVE, "trajectory.q0", [1.0, 1.0]),
        (SMALL_COLLECTIVE, "trajectory.p0", [0.5, 0.0]),
    ], ids=["absorption-sd", "absorption-temperature", "cavity-temperature",
            "polariton-temperature", "dw-temperature", "dw-gamma", "dw-grid",
            "dw-emit_correlation", "spectrum-temp_grid", "excite-q0",
            "excite-p0"])
    def test_unread_key_is_config_error(self, tmp_path, capsys, cfg, key,
                                        value):
        # the other settings leave the key unread, so the run would write
        # the bytes of the run without it
        cfg = copy.deepcopy(validate_config(cfg))
        *section, leaf = key.split(".")
        (cfg[section[0]] if section else cfg)[leaf] = value
        assert f"config field {key} " in self._config_error(tmp_path, cfg,
                                                            capsys)

    @pytest.mark.parametrize("key, value", [
        ("mu", 0.0), ("mu", -1.0), ("temperature", -1.0)])
    def test_bath_out_of_domain_is_config_error(self, tmp_path, capsys, key,
                                                value):
        # mu <= 0 gave a NaN vibron energy (exit 1), a negative temperature
        # a run from rest (exit 0)
        cfg = copy.deepcopy(SMALL_RELAXATION)
        cfg["bath"][key] = value
        cfg["trajectory"]["thermal_phonons"] = True
        assert key in self._config_error(tmp_path, cfg, capsys)

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
        # a 1d density with omega_min = 0 has f_DW = 0 at T = 0
        cfg = load_preset("fig6c")
        cfg["sd"] = {"kind": "1d", "coupling": 0.03, "omega_max": 3.0}
        cfg["temperature"] = 0.0
        assert self._cavity_g_eff(tmp_path, cfg) == 0.0


class TestArtifacts:
    def test_relaxation_outputs_and_checksums(self, tmp_path):
        out = tmp_path / "out"
        manifest = run_config(SMALL_RELAXATION, str(out))
        names = {e["file"] for e in manifest["files"]}
        assert {"trajectory.csv", "theory.csv", "run.meta.json"} <= names
        for entry in manifest["files"]:
            data = (out / entry["file"]).read_text()
            assert hashlib.sha256(data.encode()).hexdigest() == entry["sha256"]
        header = (out / "trajectory.csv").read_text().split("\n", 1)[0]
        assert header == "t,Q1,P1,E1"

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

    def test_relaxation_meta_without_overlay(self, tmp_path):
        cfg = dict(SMALL_RELAXATION, theory_overlay=False)
        names = {e["file"] for e in run_config(cfg, str(tmp_path))["files"]}
        assert "theory.csv" not in names and "run.meta.json" in names
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        assert {"gamma_m", "omega_max", "config", "seed", "dt", "n_steps",
                "propagator"} <= set(meta)

    def test_byte_identical_reruns(self, tmp_path):
        m1 = run_config(SMALL_RELAXATION, str(tmp_path / "a"))
        m2 = run_config(SMALL_RELAXATION, str(tmp_path / "b"))
        for e1, e2 in zip(m1["files"], m2["files"]):
            assert e1["sha256"] == e2["sha256"]
        t1 = (tmp_path / "a" / "trajectory.csv").read_bytes()
        t2 = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert t1 == t2

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
                     str(out), "--format", "csv"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"]
        for item in manifest["files"]:
            data = (out / item["file"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == item["sha256"]

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

    def test_sweep_non_scalar_axis_rejected(self, tmp_path):
        cfg = dict(SMALL_ABSORPTION,
                   sweep={"axis": "grid", "values": [1.0]})
        with pytest.raises(ConfigError):
            run_config(cfg, str(tmp_path / "out"))

    def test_sweep_threads_same_artifacts(self, tmp_path):
        cfg = dict(SMALL_ABSORPTION,
                   sweep={"axis": "nbar", "values": [0.0, 0.5, 1.0, 2.0]})
        m1 = run_config(cfg, str(tmp_path / "a"), threads=1)
        m4 = run_config(cfg, str(tmp_path / "b"), threads=4)
        sums1 = {e["file"]: e["sha256"] for e in m1["files"]}
        sums4 = {e["file"]: e["sha256"] for e in m4["files"]}
        assert sums1 == sums4

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


class TestImports:
    # each adds 0.2 to 0.5 s to the start of every CLI run
    @pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate"])
    def test_cli_import_leaves_out(self, module):
        code = ("import sys, vibrolang.cli; "
                f"sys.exit({module!r} in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                          os.environ.get("PYTHONPATH")])))
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=120).returncode == 0


class TestEnvThreads:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VIBROLANG_THREADS", "2")
        cfg = _write(tmp_path, SMALL_ABSORPTION)
        assert main(["absorption", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0

    def test_non_integer_env_is_config_error(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("VIBROLANG_THREADS", "two")
        cfg = _write(tmp_path, SMALL_ABSORPTION)
        code = main(["absorption", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err and err.startswith("config error")
