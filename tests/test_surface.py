"""The names outside code relies on: every ``__all__`` entry of an ``evseen``
module exists and has a caller outside the tests, and every function
``benchmark/spans.py`` wraps by name resolves the way its ``Tracer.install``
looks it up."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import evseen

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "benchmark" / "spans.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(evseen.__path__))

# exported for users, with no caller in the program or the benchmark; the
# acceptance criteria or the pinned tests run each of them
API_WITHOUT_PIPELINE_CALLER = {
    "match_score": "reads a registration's score back from its one (bias, length) cell",
    "render_raw": "one frame of the formation chain; the noisy-readout pin holds its shot-noise path",
    "apply_isp": "one frame's demosaic; the noisy-readout pin holds it",
    "read_pgm": "criterion 12 round-trips RAW frames through PGM",
    "write_pgm": "criterion 12 round-trips RAW frames through PGM",
    "read_events_csv": "criterion 12 round-trips events through CSV",
    "write_imu_csv": "criterion 12 round-trips IMU sequences through CSV",
    "loss": "criterion 7 checks the training-loss identities on images",
    "CALIBRATION_CONFIG": "criterion 11 counts the shipped configuration's parameters",
}


def wrapped() -> list[tuple[str, str]]:
    """(owner, attribute) of each benchmark-wrapped function, read from the file as it is."""
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(owner, attr) for owner, attr, *_ in module.WRAPPED]


@pytest.mark.parametrize("owner, attr", wrapped())
def test_benchmark_wrapped_function_resolves(owner, attr):
    mod_name, _, cls_name = owner.partition(".")
    home = importlib.import_module(f"evseen.{mod_name}")
    if cls_name:
        assert callable(vars(getattr(home, cls_name))[attr])
    else:
        assert callable(getattr(home, attr))


def loaded_names() -> set[str]:
    """Every name read, bare or as an attribute, in the program (outside the
    package's ``__init__``) and in the benchmark (outside its tests)."""
    files = [p for p in (ROOT / "src" / "evseen").glob("*.py") if p.name != "__init__.py"]
    files += [p for p in (ROOT / "benchmark").glob("*.py") if not p.name.startswith("test_")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_tests():
    exported = [(m, n) for m in MODULES for n in getattr(importlib.import_module(f"evseen.{m}"), "__all__", ())]
    used = loaded_names() | {attr for _, attr in wrapped()} | set(API_WITHOUT_PIPELINE_CALLER)
    assert [f"{m}.{n}" for m, n in exported if n not in used] == []
    assert sorted(set(API_WITHOUT_PIPELINE_CALLER) - {n for _, n in exported}) == []  # no stale allowlist entry


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"evseen.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
