import importlib
import pkgutil

import pytest

import maccretive

MODULES = sorted(info.name for info in pkgutil.iter_modules(maccretive.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"maccretive.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_modules_declare_their_public_names():
    declared = [
        name for name in MODULES
        if hasattr(importlib.import_module(f"maccretive.{name}"), "__all__")
    ]
    assert set(declared) >= {
        "funcspace", "relations", "derivative", "blockop", "impedance1d", "evolution"
    }
