"""The package's import rules, read from its source.

A module keeps its underscore-prefixed names to itself: no `truncflow` module imports one from
another, so whatever two modules share is public.  The command-line front end runs no
finite-difference check, so `cli.py` imports nothing from `oracle`.  The integrator plans no
sweep, so `integrate.py` takes from `flows` only the fields, the collapsed state with its
invariant, and the two mask-set types.  The validating wrappers
(`OrthogonalMatrix`, `AntisymmetricMatrix`, `LayerParams`) are built at a fixed list of sites,
which may only shrink.
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


def test_integrate_takes_from_flows_only_fields_and_mask_sets():
    # the integrator hands mask sets to the fields and plans no sweep itself: a plan, or anything
    # else of flows' that decides how a field sweeps, stays behind these names
    names = sorted(name for module, name in package_imports(PACKAGE / "integrate.py") if module == "flows")
    assert names == ["CollapsedState", "FrozenMasks", "GroupMasks", "collapsed_rhs", "conserved_quantity",
                     "effective_rhs", "general_rhs", "group_rhs"]


WRAPPERS = ("OrthogonalMatrix", "AntisymmetricMatrix", "LayerParams")

# Every site in the package that builds a validating wrapper: (module, enclosing function, class).
# State is meant to travel as arrays and meet the wrappers only at its edges, so a change may
# remove a site from this list but not add one.
WRAPPER_SITES = [
    ("manifold", "antisym_project", "AntisymmetricMatrix"),
    ("manifold", "expm_antisym", "OrthogonalMatrix"),
    ("manifold", "polar_decompose", "OrthogonalMatrix"),
    ("manifold", "retract", "OrthogonalMatrix"),
    ("model", "LayerParams.with_updates", "LayerParams"),
    ("model", "ModelState.layers", "LayerParams"),
    ("model", "ModelState.layers", "OrthogonalMatrix"),
    ("oracle", "_fd_layer", "AntisymmetricMatrix"),
    ("oracle", "_fd_layer", "OrthogonalMatrix"),
    ("oracle", "reference_integrate", "OrthogonalMatrix"),
    ("oracle", "reference_integrate.advance", "AntisymmetricMatrix"),
    ("scenarios", "check_collapse_hypotheses", "AntisymmetricMatrix"),
]


def wrapper_sites(path: Path) -> list[tuple[str, str, str]]:
    """The (module, enclosing function, class) of every call in the module at `path` that builds
    one of WRAPPERS, by name or as an attribute; the function is dotted through its enclosing
    classes and functions, "" at module level."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in WRAPPERS:
                    sites.append((path.stem, ".".join(scope), name))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return sites


def test_wrappers_are_built_only_at_the_listed_sites():
    assert sorted(site for path in MODULES for site in wrapper_sites(path)) == WRAPPER_SITES
