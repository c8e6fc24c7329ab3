"""What the benchmark in ``perfbench/`` reads of ``bchlab`` still exists.

The benchmark's own tests run only with ``python3 -m pytest perfbench``, so a
rename or deletion here would otherwise surface only when the benchmark runs.
"""

import ast
import importlib.util
from pathlib import Path

from bchlab import harness
from bchlab.field import build_field

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sites_resolve():
    sites = _load("spans")._SITES
    assert sites
    for module, attr, _, _ in sites:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_resolve_cap_default_exists():
    assert isinstance(harness.AnalyzeOptions().resolve_cap_q, int)


def test_set_up_field_attributes_exist():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (set_up,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "set_up"]
    touched = {
        n.attr
        for n in ast.walk(set_up)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "ctx"
    }
    assert {"digits", "add_table", "mul_table", "neg_table", "inv_table"} <= touched
    ctx = build_field(2, 2)
    for attr in touched:
        assert getattr(ctx, attr) is not None, attr
