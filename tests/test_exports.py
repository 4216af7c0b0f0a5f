import importlib
import pkgutil

import pytest

import accretive_flows

MODULES = ["accretive_flows"] + [
    f"accretive_flows.{info.name}" for info in pkgutil.iter_modules(accretive_flows.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_export(module):
    # a name left in __all__ after its definition is deleted fails here
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = getattr(importlib.import_module(module), "__all__", None)
    if exported is not None:
        assert set(exported) <= namespace.keys()
