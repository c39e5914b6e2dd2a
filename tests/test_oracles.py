"""The layout of the tests, read from the source: each reference lives once, in
oracles.py, which takes no more of twistrank than gf and spaces, and no test
module imports another."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def parse(name):
    return ast.parse((TESTS / name).read_text(encoding="utf-8"))


def imported(name):
    """Each module the file imports, and module.name for each name it imports."""
    for node in ast.walk(parse(name)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def defined(name):
    """The functions, classes and plain names the module binds at its top level."""
    body = parse(name).body
    return ({node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            | {target.id for node in body if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)})


def test_no_test_module_imports_another():
    assert [(path.name, module) for path in sorted(TESTS.glob("test_*.py"))
            for module in imported(path.name)
            if any(part.startswith("test_") for part in module.split("."))] == []


def test_oracles_import_only_gf_and_spaces_from_twistrank():
    used = {".".join(module.split(".")[:2]) for module in imported("oracles.py")
            if module.split(".")[0] == "twistrank"}
    assert used == {"twistrank.gf", "twistrank.spaces"}


def test_no_test_module_redefines_an_oracle():
    shared = defined("oracles.py")
    assert {path.name: defined(path.name) & shared for path in sorted(TESTS.glob("*.py"))
            if path.name != "oracles.py" and defined(path.name) & shared} == {}
