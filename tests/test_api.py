import importlib
import pkgutil

import pytest

import plbc

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(plbc.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module", ["plbc"] + ["plbc." + name for name in SUBMODULES])
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, missing

