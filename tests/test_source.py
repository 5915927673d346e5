"""Source hygiene: every name a module of the package imports is used
there, and the package exports a fixed set of public names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prodex"
#: `__init__.py` imports to re-export, so only the other modules are read
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """{bound name: line} of every import, `from __future__` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    """Names read in code, quoted annotations included; comments and
    docstrings do not count."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_the_check_sees_a_name_used_only_in_a_comment():
    tree = ast.parse("from x import A, B\n"
                     "def f(a: 'B'):\n"
                     "    pass  # A\n")
    assert set(imported_names(tree)) - used_names(tree) == {"A"}


def private_definitions(tree: ast.Module) -> dict:
    """{name: line} of every function, method and class whose name has
    one leading underscore."""
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def referenced_names(tree: ast.Module) -> set:
    """Names read in code, as a name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_private_definition_is_referenced():
    trees = {m: ast.parse((PACKAGE / m).read_text(encoding="utf-8"))
             for m in MODULES}
    referenced = set().union(*map(referenced_names, trees.values()))
    unreferenced = {f"{module}:{line} {name}"
                    for module, tree in trees.items()
                    for name, line in private_definitions(tree).items()
                    if name not in referenced}
    assert not unreferenced, f"private definitions nothing reads: " \
                             f"{sorted(unreferenced)}"


def test_the_check_sees_a_private_method_left_behind():
    tree = ast.parse("class A:\n"
                     "    def _kept(self): pass\n"
                     "    def _left(self): pass\n"
                     "    def run(self): return self._kept()\n")
    assert set(private_definitions(tree)) - referenced_names(tree) == {
        "_left"}


#: every name `prodex/__init__.py` binds for its users; public names stay,
#: so a change that drops or renames one must show up here
PUBLIC_NAMES = {
    "ClassVerdict", "ConstantMeasureTail", "ConstantSymbol",
    "CoordinateMeasure", "CoordinateSpace", "Cylinder", "DescribedPoint",
    "DiscountedSum", "ExpectationResult", "FinitisticProfile", "GameSpec",
    "GeometricWeights", "HullEstimate", "HybridMeasure", "Interval",
    "LazyPoint", "MartingaleTrace", "PeriodicMeasuresTail", "PeriodicSymbols",
    "PointSpec", "ProdexError", "ProductIndicator", "ProductMeasure",
    "Scenario", "SpaceFamily", "StrongApproxResult", "TailFunction",
    "ValueBounds", "VerificationReport", "WeakApproxCertificate",
    "__version__", "agreement_index", "as_fraction", "bernoulli_measure",
    "best_response_value", "classify", "constant_point",
    "construct_weak_zero", "cylinder_sum", "dirac_measure", "eval_function",
    "exact_expectation_product_indicator", "expect", "find_strong_approx",
    "formula_tail", "g_n", "hull_estimate", "load_scenario", "modify_point",
    "naming_game_exploit", "naming_game_value", "osc_bound",
    "parse_scenario", "point_coordinate", "purify",
    "resolve_coordinate_measure", "trace", "uniform_measure", "verify_strong",
    "verify_weak", "weak_zero_from_sample",
}


def test_the_package_exports_its_public_names():
    import prodex

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    assert bound == PUBLIC_NAMES
    assert all(hasattr(prodex, name) for name in PUBLIC_NAMES)
