"""The benchmark child looks entkit functions up by name; each must exist."""

import importlib

import pytest

from conftest import bench_module


@pytest.fixture(scope="module")
def child():
    return bench_module("child")


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
