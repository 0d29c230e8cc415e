"""The package's modules import each other in one direction only:
network_model -> admittance_assembly -> {mass_oracle, rational_fit} ->
mai_core -> cli_reporting, with no import between mass_oracle and
rational_fit (the oracle and the impedance route share only Y's module)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "impedmodal"
# a module may import only modules of a lower rank
RANK = {"network_model": 0, "admittance_assembly": 1, "mass_oracle": 2, "rational_fit": 2,
        "mai_core": 3, "cli_reporting": 4}


def package_imports(source: str) -> set:
    """The package modules that ``source`` imports, in any import form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "impedmodal":  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("impedmodal."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("impedmodal."))
    return found


def test_import_forms_are_all_read():
    source = ("from .a import x\nfrom . import b as bb, c\nfrom impedmodal import d\n"
              "from impedmodal.e import y\nimport impedmodal.f\nimport numpy\n")
    assert package_imports(source) == {"a", "b", "c", "d", "e", "f"}


def test_every_module_has_a_rank():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(RANK)


@pytest.mark.parametrize("module", sorted(RANK))
def test_imports_follow_the_layering(module):
    imports = package_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert imports <= set(RANK), imports
    upward = sorted(m for m in imports if RANK[m] >= RANK[module])
    assert not upward, f"{module} imports {upward}, which is not below it"
