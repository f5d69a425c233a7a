import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_bench_spans_name_existing_attributes(monkeypatch):
    # the benchmark's tracer wraps these attributes by name at install time;
    # a renamed or deleted one would only fail in its traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    hooks = spans.PATCHES + spans.ENTRY_POINTS
    missing = [(module.__name__, attr) for module, attr, _, _ in hooks if not hasattr(module, attr)]
    assert len(hooks) >= 20
    assert missing == []


def _workload_config_keywords() -> set[str]:
    """Every keyword the benchmark's workloads pass to PipelineConfig."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return {
        keyword.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PipelineConfig"
        for keyword in node.keywords
    }


def test_bench_call_contract():
    # the benchmark calls these as bound below; a changed signature or a
    # missing attribute would only fail in its runs, so no design or scan
    # runs here, only the binding and the attribute reads
    from primepot import _kernels, backend_name
    from primepot.hologram import HologramState, OptimizeResult
    from primepot.pipeline import PipelineConfig
    from primepot.scattering import FilterApparatus, transmission
    from primepot.semiclassical import SemiclassicalProfile, invert_to_potential
    from primepot.susy import design_potential

    def bind(fn, *args, **kwargs):
        return inspect.signature(fn).bind(*args, **kwargs)

    inversion = bind(invert_to_potential, "dos", 2.0, 100.0, 400)
    inversion.apply_defaults()
    assert {"samples", "panels", "nodes_per_panel"} <= inversion.arguments.keys()
    bind(transmission, "potential", "energies", "c")
    bind(design_potential, "levels", "grid")
    bind(_kernels.riccati_sweep, "q", "h", "c")
    bind(_kernels.transfer_scan, "cells", "h", "energies", "c", "v_lead")
    bind(SemiclassicalProfile, v_values="v", x_values="x", e0=2.0, kinetic_scale="c")
    keywords = _workload_config_keywords()
    assert {"sequence", "half_width", "spacing", "hologram", "holo_m", "holo_iters", "seed", "outdir"} <= keywords
    bind(PipelineConfig, **dict.fromkeys(keywords))

    assert isinstance(FilterApparatus.kinetic_scale, float)
    assert callable(FilterApparatus.composed)
    assert "w_max" in {f.name for f in fields(FilterApparatus)}
    assert hasattr(HologramState, "m")
    assert {"history", "line_search_failed"} <= {f.name for f in fields(OptimizeResult)}
    assert callable(backend_name)
