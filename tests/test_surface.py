"""The names outside code relies on: every ``__all__`` entry of an ``evseen``
module exists, and every function ``benchmark/spans.py`` wraps by name resolves
the way its ``Tracer.install`` looks it up."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import evseen

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


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


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(evseen.__path__)))
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"evseen.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
