"""Every exported name resolves, so a deletion that leaves a stale entry
in an ``__all__`` list fails here rather than at a user's import."""

import importlib
import pkgutil

import pytest

import mhslab

MODULES = ["mhslab"] + [
    f"mhslab.{m.name}" for m in pkgutil.iter_modules(mhslab.__path__) if not m.name.startswith("_")
]


def test_every_module_is_listed():
    assert set(MODULES) >= {
        "mhslab",
        "mhslab.bernoulli",
        "mhslab.cli",
        "mhslab.compositions",
        "mhslab.congruences",
        "mhslab.exactnum",
        "mhslab.identities",
        "mhslab.mhs",
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate entries"
    assert [n for n in exported if not hasattr(module, n)] == []
