import importlib
import pkgutil
import re
from pathlib import Path

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


README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_python_block_runs():
    # the documented library API stays in step with the package
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
