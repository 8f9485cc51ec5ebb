"""The benchmark under bench/ reaches the program by name; every name it uses
must resolve, so removing or renaming one cannot silently break a traced run."""

import importlib
import importlib.util
import re
from pathlib import Path

import aoqmap
import aoqmap.cli  # noqa: F401  (bench/workloads.py calls api.cli.main)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(obj, dotted: str):
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("aoqmap_bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for home, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(home), attr)), f"{home}.{attr}"
    for module in spans.MODULES:
        importlib.import_module(module)


def test_workload_api_names_resolve():
    names = set(re.findall(r"\bapi\.(\w+(?:\.\w+)*)", (BENCH / "workloads.py").read_text()))
    assert "cli.main" in names
    for dotted in sorted(names):
        _resolve(aoqmap, dotted)
