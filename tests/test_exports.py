"""The package's export list and the demos' imports name things that exist."""

import ast
import importlib
from pathlib import Path

import pytest

import dpknn

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in dpknn.__all__ if not hasattr(dpknn, name)]
    assert missing == []
    assert len(set(dpknn.__all__)) == len(dpknn.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_from_dpknn_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dpknn"
        for alias in node.names
    ]
    assert imported, f"{demo.name} imports nothing from dpknn"
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
