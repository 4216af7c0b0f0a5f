import ast
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


SRC_FILES = sorted(p for p in Path(accretive_flows.__file__).parent.glob("*.py")
                   if p.name != "__init__.py")  # its imports are re-exports


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, skipping ``__future__``
    imports and the names listed in its ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_flags_an_unread_name():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nnp.zeros(1)\n"
    assert _unused_imports(source) == ["math (line 2)"]
