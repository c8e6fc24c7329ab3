"""Every name in each ``bchlab`` module's ``__all__`` resolves, so a deleted
function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import bchlab

MODULES = ["bchlab"] + [
    f"bchlab.{info.name}"
    for info in pkgutil.iter_modules(bchlab.__path__)
    if info.name != "__main__"
]


def test_every_library_module_is_listed():
    assert sorted(MODULES) == [
        "bchlab",
        "bchlab.bch",
        "bchlab.cosets",
        "bchlab.distance",
        "bchlab.field",
        "bchlab.gflin",
        "bchlab.harness",
        "bchlab.polynomial",
        "bchlab.theory",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
