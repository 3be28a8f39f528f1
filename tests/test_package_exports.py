"""Every name a ``repro`` package lists in ``__all__`` must resolve."""

import importlib
import pathlib

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).parent
PACKAGES = ["repro"] + sorted(
    f"repro.{p.parent.name}" for p in ROOT.glob("*/__init__.py")
)


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_resolves_all(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats"
    namespace = {}
    exec(f"from {name} import *", namespace)
    missing = [n for n in exported if n not in namespace]
    assert not missing, f"{name}.__all__ names missing: {missing}"
