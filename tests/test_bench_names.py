"""The benchmark child looks entkit functions up by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_CHILD_PY = Path(__file__).resolve().parents[1] / "bench" / "child.py"


@pytest.fixture(scope="module")
def child():
    # Loaded under another name, so the child's ``main`` does not run.
    spec = importlib.util.spec_from_file_location("entkit_bench_child", _CHILD_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_loader_resolves(child):
    for owner, name in child.LOADERS:
        assert callable(getattr(importlib.import_module(f"entkit.{owner}"), name, None)), \
            f"entkit.{owner}.{name}"


def test_every_traced_method_resolves(child):
    for owner, cls_name, methods in child.METHODS:
        cls = getattr(importlib.import_module(f"entkit.{owner}"), cls_name)
        for name in methods:
            assert callable(getattr(cls, name, None)), f"entkit.{owner}.{cls_name}.{name}"


def test_counted_entity_row_lookup_resolves():
    assert callable(importlib.import_module("entkit.scorer")._ent_row)
