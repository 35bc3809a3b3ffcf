"""CLI plumbing: config validation, artifact emission, manifests, sweeps,
determinism, exit codes."""

import copy
import hashlib
import json
import os

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
from vibrolang.errors import ConfigError


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

SMALL_ABSORPTION = {
    "command": "absorption",
    "molecule": {"gamma": 0.025, "nu": 1.0, "lam": 0.5},
    "kernel": {"gamma_m": 0.1, "omega_max": 1.3},
    "grid": {"min": -2.0, "max": 3.0, "n": 201},
    "nbar": 0.0,
}


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

    def test_negative_nu_relaxation_is_config_error(self, tmp_path, capsys):
        self._config_error(tmp_path, dict(SMALL_RELAXATION, nu=-1.0), capsys)

    def test_negative_nu_collective_is_config_error(self, tmp_path, capsys):
        cfg = {"command": "collective", "nu": -1.0, "j": 1, "excite": "minus",
               "bath": SMALL_RELAXATION["bath"],
               "trajectory": SMALL_RELAXATION["trajectory"]}
        self._config_error(tmp_path, cfg, capsys)


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
        cfg = {
            "command": "polariton",
            "molecule": {"gamma": 0.02, "nu": 6.0, "lam": 0.3},
            "kernel": {"gamma_m": 0.48, "omega_max": 3.0},
            "omega_plus": 3.0, "omega_minus": -3.0, "kappa": 1.0,
            "nbar": 1.0,
            "t_grid": {"max": 5.0, "n": 50},
        }
        out = tmp_path / "out"
        run_config(cfg, str(out))
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


class TestEnvThreads:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VIBROLANG_THREADS", "2")
        cfg = _write(tmp_path, SMALL_ABSORPTION)
        assert main(["absorption", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
