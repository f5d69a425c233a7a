import importlib
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
