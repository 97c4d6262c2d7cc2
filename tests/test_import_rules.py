"""The package's import rules, read from its source.

A module keeps its underscore-prefixed names to itself: no `truncflow` module imports one from
another, so whatever two modules share is public.  The command-line front end runs no
finite-difference check, so `cli.py` imports nothing from `oracle`.
"""

import ast
from pathlib import Path

import truncflow

PACKAGE = Path(truncflow.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def package_imports(path: Path) -> list[tuple[str, str]]:
    """The (module, name) pairs that the module at `path` imports from the package: `module` is
    the dotted path below `truncflow` ("" for the package itself), `name` the imported name, or
    "" for a plain `import truncflow.<module>`."""
    pairs = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "truncflow"):
            parts = (node.module or "").split(".")
            module = ".".join(parts if node.level else parts[1:])
            pairs += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs += [(alias.name.partition(".")[2], "") for alias in node.names
                      if alias.name.split(".")[0] == "truncflow"]
    return pairs


def test_the_rules_see_the_modules():
    assert {path.stem for path in MODULES} >= {"cli", "flows", "integrate", "measures", "model", "oracle"}
    assert ("measures", "TrainingSet") in package_imports(PACKAGE / "flows.py")


def test_no_module_imports_another_modules_private_name():
    private = [(path.name, module, name) for path in MODULES for module, name in package_imports(path)
               if any(part.startswith("_") for part in (*module.split("."), name) if part)]
    assert private == []


def test_cli_imports_nothing_from_the_oracle():
    pairs = package_imports(PACKAGE / "cli.py")
    assert [(module, name) for module, name in pairs if "oracle" in (module.split(".")[0], name)] == []
