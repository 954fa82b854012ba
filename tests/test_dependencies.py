"""numpy stays the only runtime dependency: every module under ``src/``
imports only the package itself, numpy and the standard library. And every
name the README's code imports from the package, and every name a package
module exports in ``__all__``, resolves."""

import ast
import importlib
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"
ALLOWED = {"tradelab", "numpy", *sys.stdlib_module_names}


def _top_level_imports(path: Path):
    """(line, top-level package) of each absolute import in the module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import stays in the package
            yield node.lineno, node.module.partition(".")[0]


def test_src_imports_only_numpy_and_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    foreign = [f"{path.relative_to(SRC)}:{line} imports {name}"
               for path in modules for line, name in _top_level_imports(path) if name not in ALLOWED]
    assert not foreign, foreign


def test_the_walk_sees_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\nfrom . import sibling\nfrom numpy import array\n"
                      "def f():\n    import pandas.api\n")
    assert [name for _, name in _top_level_imports(module) if name not in ALLOWED] == ["pandas"]


def test_readme_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    imports = [(node.module, alias.name) for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert ("tradelab", "a2c_train") in imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing


def test_every_exported_name_resolves():
    modules = [".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
               for path in sorted(SRC.rglob("*.py"))]
    exported = [(module, name) for module in modules
                for name in getattr(importlib.import_module(module), "__all__", ())]
    assert ("tradelab.analytics", "load_report") in exported
    missing = [f"{module}.{name}" for module, name in exported if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing
