"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install()`` replaces module attributes that the program looks up at
call time (``_kernels.riccati_sweep`` in susy, ``cost_and_gradient`` in
hologram, ``design_potential`` in pipeline, ...) with wrappers that record a
span: name, start, end, parent and a few computed counts. Spans stay in memory;
``write`` dumps them at the end. ``layer_metrics`` turns a list of spans into
the per-layer rows.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

import primepot._kernels as kernels
import primepot.hologram as hologram
import primepot.pipeline as pipeline
import primepot.scattering as scattering
import primepot.susy as susy
import workloads


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _riccati(fn, args, kwargs, out):
    return {"nodes": int(len(args[0]))}


def _scan(fn, args, kwargs, out):
    return {"cells": int(len(args[0])), "energies": int(len(args[2]))}


def _cost_grad(fn, args, kwargs, out):
    return {"m": int(args[0].m)}


def _optimize(fn, args, kwargs, out):
    return {"iters": int(out.history.size - 1), "failed": bool(out.line_search_failed)}


def _solve(fn, args, kwargs, out):
    return {"n": int(args[0].values.size)}


def _invert(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {"samples": a["samples"], "panels": a["panels"], "nodes": a["nodes_per_panel"]}


def _pipeline(fn, args, kwargs, out):
    return {"artifact_bytes": sum(os.path.getsize(p) for p in out.files.values())}


# (module, attribute, span name, counts) looked up by the program at call time
PATCHES = (
    (kernels, "riccati_sweep", "_kernels.riccati_sweep", _riccati),
    (kernels, "transfer_scan", "_kernels.transfer_scan", _scan),
    (susy, "chain_step", "susy.chain_step", None),
    (pipeline, "design_potential", "susy.design_potential", None),
    (scattering, "design_potential", "susy.design_potential", None),
    (pipeline, "bound_states", "eigensolver.bound_states", _solve),
    (pipeline, "compare_spectrum", "eigensolver.compare_spectrum", None),
    (scattering, "windowed_max_transmission", "scattering.windowed_max_transmission", None),
    (hologram, "cost_and_gradient", "hologram.cost_and_gradient", _cost_grad),
    (pipeline, "optimize_phase", "hologram.optimize_phase", _optimize),
    (pipeline, "potential_to_target", "hologram.potential_to_target", None),
    (pipeline, "make_state", "hologram.make_state", None),
    (pipeline, "propagate", "hologram.propagate", None),
    (pipeline, "sr_intensity_error", "hologram.sr_intensity_error", None),
    (pipeline, "extract_profile", "hologram.extract_profile", None),
)
# called by the benchmark's workloads, which also look them up at call time
ENTRY_POINTS = (
    (workloads, "run_pipeline", "pipeline.run_pipeline", _pipeline),
    (workloads, "build_filter_apparatus", "scattering.build_filter_apparatus", None),
    (workloads, "filter_lucky_prime", "scattering.filter_lucky_prime", None),
    (workloads, "invert_to_potential", "semiclassical.invert_to_potential", _invert),
    (workloads, "profile_to_potential", "semiclassical.profile_to_potential", None),
)
# counts derived from array sizes rather than counted events
COMPUTED = {
    "susy.nodes_swept",
    "kernels.transfer_scan.cell_energies",
    "eigensolver.matrix_n",
    "scattering.energies_per_verdict",
    "scattering.cell_energies_per_verdict",
    "hologram.fft_points",
    "semiclassical.dos_calls",
    "semiclassical.moebius_terms",
}
NAMED = {name for _, _, name, _ in PATCHES + ENTRY_POINTS}
HOLOGRAM_STAGE = {
    "hologram.potential_to_target",
    "hologram.make_state",
    "hologram.optimize_phase",
    "hologram.propagate",
    "hologram.sr_intensity_error",
    "hologram.extract_profile",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts", "children")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = None
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)


class Tracer:
    """Single-threaded span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched = []

    @contextmanager
    def region(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, perf_counter())
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        def wrapper(*args, **kwargs):
            with self.region(name) as span:
                out = fn(*args, **kwargs)
            if counts is not None:
                span.counts = counts(fn, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for module, attr, name, counts in PATCHES + ENTRY_POINTS:
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(name, original, counts))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else index[id(s.parent)],
                "counts": s.counts,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def descendants(span):
    """Every span below `span`, depth first."""
    for child in span.children:
        yield child
        yield from descendants(child)


def _mean(values):
    return statistics.fmean(values) if values else None


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer rows from the spans under one root; a layer with no spans is left out."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    get = lambda name: by_name.get(name, [])  # noqa: E731
    out = {}

    designs = get("susy.design_potential")
    if designs:
        out["susy.design_s"] = _mean([s.duration for s in designs])
    steps = get("susy.chain_step")
    if steps:
        out["susy.chain_steps"] = len(steps)
        out["susy.step_s"] = _mean([s.duration for s in steps])
    sweeps = get("_kernels.riccati_sweep")
    if sweeps:
        out["susy.nodes_swept"] = sum(s.counts["nodes"] for s in sweeps)
        out["kernels.riccati_sweep.calls"] = len(sweeps)
        out["kernels.riccati_sweep.busy_s"] = sum(s.duration for s in sweeps)
    scans = get("_kernels.transfer_scan")
    if scans:
        out["kernels.transfer_scan.calls"] = len(scans)
        out["kernels.transfer_scan.busy_s"] = sum(s.duration for s in scans)
        out["kernels.transfer_scan.cell_energies"] = sum(
            s.counts["cells"] * s.counts["energies"] for s in scans
        )
    solves = get("eigensolver.bound_states")
    if solves:
        out["eigensolver.solves"] = len(solves)
        out["eigensolver.solve_s"] = _mean([s.duration for s in solves])
        out["eigensolver.matrix_n"] = sum(s.counts["n"] for s in solves)

    verdicts = get("scattering.filter_lucky_prime")
    if verdicts:
        per = [list(descendants(v)) for v in verdicts]
        v_scans = [[d for d in ds if d.name == "_kernels.transfer_scan"] for ds in per]
        windows = [sum(d.name == "scattering.windowed_max_transmission" for d in ds) for ds in per]
        out["scattering.verdict_s"] = _mean([v.duration for v in verdicts])
        out["scattering.scans_per_verdict"] = _mean([len(s) for s in v_scans])
        out["scattering.energies_per_verdict"] = _mean(
            [sum(d.counts["energies"] for d in s) for s in v_scans]
        )
        out["scattering.cell_energies_per_verdict"] = _mean(
            [sum(d.counts["cells"] * d.counts["energies"] for d in s) for s in v_scans]
        )
        out["scattering.confirm_checks"] = sum(max(n - 1, 0) for n in windows)
    apparatus = get("scattering.build_filter_apparatus")
    if apparatus:
        out["scattering.apparatus_s"] = _mean([s.duration for s in apparatus])

    grads = get("hologram.cost_and_gradient")
    if grads:
        out["hologram.cost_grad_calls"] = len(grads)
        out["hologram.cost_grad_s"] = _mean([s.duration for s in grads])
        out["hologram.fft_points"] = sum(2 * (2 * s.counts["m"]) ** 2 for s in grads)
        for m in (64, 256):
            at_m = [s.duration for s in grads if s.counts["m"] == m]
            if at_m:
                out[f"hologram.cost_grad_s.m{m}"] = _mean(at_m)
    optimizes = get("hologram.optimize_phase")
    if optimizes:
        calls = sum(sum(d.name == "hologram.cost_and_gradient" for d in descendants(o)) for o in optimizes)
        iters = sum(o.counts["iters"] for o in optimizes)
        out["hologram.iters"] = iters
        out["hologram.backtracks"] = calls - iters - len(optimizes)
        out["hologram.line_search_failed"] = sum(o.counts["failed"] for o in optimizes)

    inversions = get("semiclassical.invert_to_potential")
    if inversions:
        dos = sum((s.counts["samples"] - 1) * s.counts["panels"] * s.counts["nodes"] for s in inversions)
        out["semiclassical.invert_s"] = _mean([s.duration for s in inversions])
        out["semiclassical.dos_calls"] = dos
        out["semiclassical.moebius_terms"] = dos * workloads.SC_TERMS

    runs = get("pipeline.run_pipeline")
    if runs:
        stages = {
            "pipeline.stage.design_s": {"susy.design_potential"},
            "pipeline.stage.hologram_s": HOLOGRAM_STAGE,
            "pipeline.stage.solve_s": {"eigensolver.bound_states", "eigensolver.compare_spectrum"},
        }
        for metric, names in stages.items():
            # mean over the runs that reached the stage
            times = [[c.duration for c in r.children if c.name in names] for r in runs]
            if any(times):
                out[metric] = _mean([sum(t) for t in times if t])
        out["pipeline.io_s"] = _mean([r.self_time for r in runs])
        written = [r.counts["artifact_bytes"] for r in runs if r.counts]  # runs that completed
        if written:
            out["pipeline.artifact_bytes"] = _mean(written)
    return out


def self_time_table(root: Span) -> dict[str, float]:
    """Self time per span name under `root`; the root's own self time is 'remainder'."""
    table: dict[str, float] = {}
    for s in descendants(root):
        key = s.name if s.name in NAMED else "remainder"
        table[key] = table.get(key, 0.0) + s.self_time
    table["remainder"] = table.get("remainder", 0.0) + root.self_time
    return table


def layer_roll_up(root: Span) -> dict[str, float]:
    """Self time per layer under `root`; kernels count toward the layer that called them."""
    table: dict[str, float] = {"remainder": root.self_time}
    for s in descendants(root):
        owner = s
        while owner is not None and owner.name.startswith("_kernels."):
            owner = owner.parent
        layer = owner.name.split(".")[0] if owner is not None and owner.name in NAMED else "remainder"
        table[layer] = table.get(layer, 0.0) + s.self_time
    return table
