"""Spans around vibrolang's public functions, installed from outside the
program for the benchmark's traced runs.

Every public function of the traced modules is replaced, in every vibrolang
module namespace that refers to it (cavity imports spectra's functions by
name), by a wrapper that records a span (name, start, end, parent, counts).
Spans are kept in memory; `Tracer.layer_metrics` turns the spans of one round
into per-layer self times and work counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

MODULES = ("spectra", "cavity", "microsim", "model", "cli", "svg")

# span name of functions that together form one layer
ALIASES = {
    "microsim.simulate_single": "microsim.simulate",
    "microsim.simulate_pair": "microsim.simulate",
    "model.build_chain": "model.chain",
    "model.chain_eigenmodes": "model.chain",
    "model.pair_vibron_phonon_couplings": "model.chain",
    "model.vibron_phonon_couplings": "model.chain",
    "model.electron_phonon_couplings": "model.chain",
}

# per-line weight helpers that vibron_lines calls thousands of times a round:
# left unwrapped, so that their time counts as the line comb's
UNTRACED = {"spectra.line_weight_L", "spectra.thermal_binomial_B"}

# layers whose self times make up the covered share of the traced wall time
LAYERS = (
    "spectra.band_nodes", "spectra.phonon_correlation", "spectra.debye_waller",
    "spectra.polaron_shift", "spectra.response_transform",
    "spectra.displacement_correlation_vibron", "spectra.vibron_lines",
    "spectra.line_eval", "cavity.molecular_response", "cavity.transmission",
    "microsim.simulate", "model.chain", "microsim.to_csv", "cli.validate_config",
    "cli.run_config", "svg.line_plot",
)

# per-layer metrics: name -> unit; the benchmark reports all of them
PER_LAYER = {
    "spectra.band_nodes.s": "s",
    "spectra.band_nodes.calls": "count",
    "spectra.band_nodes.nodes": "count",
    "spectra.phonon_correlation.s": "s",
    "spectra.phonon_correlation.calls": "count",
    "spectra.phonon_correlation.evals": "count",
    "spectra.debye_waller.s": "s",
    "spectra.debye_waller.calls": "count",
    "spectra.polaron_shift.s": "s",
    "spectra.response_transform.s": "s",
    "spectra.response_transform.calls": "count",
    "spectra.response_transform.points": "count",
    "spectra.displacement_correlation_vibron.s": "s",
    "spectra.vibron_lines.s": "s",
    "spectra.vibron_lines.lines": "count",
    "spectra.line_eval.s": "s",
    "spectra.line_eval.points": "count",
    "cavity.molecular_response.s": "s",
    "cavity.transmission.s": "s",
    "microsim.simulate.s": "s",
    "microsim.simulate.steps": "count",
    "microsim.simulate.state_dim": "count",
    "model.chain.s": "s",
    "microsim.to_csv.s": "s",
    "cli.validate_config.s": "s",
    "cli.validate_config.calls": "count",
    "cli.run_config.self_s": "s",
    "cli.bytes_written": "bytes",
    "svg.line_plot.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.covered_share": "ratio",
}


# work counts read from a call's arguments and result
def _nodes(args, kwargs, result):
    return {"nodes": int(args[0])}


def _corr_points(args, kwargs, result):
    return {"n_tau": int(np.size(args[0]))}


def _transform_points(args, kwargs, result):
    return {"points": int(np.size(args[0])) * int(np.size(args[1]))}


def _line_count(args, kwargs, result):
    return {"lines": len(result)}


def _eval_points(args, kwargs, result):
    return {"points": len(args[0].lines) * int(np.size(args[1]))}


def _steps(args, kwargs, result):
    cfg = kwargs.get("cfg", args[-1])
    n_mol = 2 if result.pair else 1
    return {"steps": int(math.ceil(cfg.t_max / result.meta["dt"])),
            "state_dim": 2 * n_mol + 2 * int(result.meta["n_modes"])}


COUNTERS = {
    "spectra.band_nodes": _nodes,
    "spectra.phonon_correlation": _corr_points,
    "spectra.response_transform": _transform_points,
    "spectra.vibron_lines": _line_count,
    "spectra.line_eval": _eval_points,
    "microsim.simulate": _steps,
}


class _SpecialProxy:
    """Stands in for `scipy.special` inside spectra, so that only the
    Legendre node generation called from spectra is traced."""

    def __init__(self, special, roots_legendre):
        self._special = special
        self.roots_legendre = roots_legendre

    def __getattr__(self, name):
        return getattr(self._special, name)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, counts]
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the public functions of the traced modules (and the two
        methods that are layers of their own) wherever vibrolang refers to
        them."""
        pkg = importlib.import_module("vibrolang")
        mods = {m: importlib.import_module(f"vibrolang.{m}") for m in MODULES}
        namespaces = [pkg] + [mod for name, mod in sys.modules.items()
                              if name.startswith("vibrolang.")]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in UNTRACED:
                    continue
                wrapped = self.wrap(ALIASES.get(name, name), fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapped)
        spectra = mods["spectra"]
        self._patch(spectra.LineSpectrum, "evaluate",
                    self.wrap("spectra.line_eval", spectra.LineSpectrum.evaluate))
        self._patch(mods["microsim"].Trajectory, "to_csv",
                    self.wrap("microsim.to_csv", mods["microsim"].Trajectory.to_csv))
        special = spectra.special
        self._patch(spectra, "special", _SpecialProxy(
            special, self.wrap("spectra.band_nodes", special.roots_legendre)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, first, wall_s):
        """Per-layer self times and counts of the spans from index `first` on;
        a span's self time is its duration less that of its child spans."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        child_nodes = [0] * len(spans)
        for rec in spans:
            parent = rec[3] - first
            if parent >= 0:
                child_time[parent] += rec[2] - rec[1]
                if rec[0] == "spectra.band_nodes":
                    child_nodes[parent] += rec[4]["nodes"]
        out = {k: 0.0 if unit == "s" else 0 for k, unit in PER_LAYER.items()
               if not k.startswith(("trace.", "cli.bytes"))}
        self_time = {}
        for i, (name, start, end, _, counts) in enumerate(spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            if name == "spectra.phonon_correlation":
                out["spectra.phonon_correlation.evals"] += counts["n_tau"] * child_nodes[i]
            elif name == "microsim.simulate":
                out["microsim.simulate.steps"] += counts["steps"]
                out["microsim.simulate.state_dim"] = max(
                    out["microsim.simulate.state_dim"], counts["state_dim"])
            elif counts:
                for key, value in counts.items():
                    out[f"{name}.{key}"] += value
        for layer in LAYERS:
            key = f"{layer}.self_s" if layer == "cli.run_config" else f"{layer}.s"
            out[key] = self_time.get(layer, 0.0)
        out["trace.covered_share"] = sum(self_time.get(l, 0.0) for l in LAYERS) / wall_s
        return out

    def dump(self):
        """Spans as JSON-ready dicts."""
        return [{"name": n, "start": s, "end": e, "parent": p, "counts": c}
                for n, s, e, p, c in self.spans]
