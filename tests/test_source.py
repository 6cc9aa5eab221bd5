"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import chebotarev

SRC = Path(__file__).resolve().parents[1] / "src" / "chebotarev"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so runtime invariants must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


@pytest.mark.parametrize("name", chebotarev.__all__)
def test_public_names_resolve(name):
    # a removed export must also leave __all__, which a plain import never checks
    assert hasattr(chebotarev, name)
