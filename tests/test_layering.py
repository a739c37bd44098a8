"""The package layer graph of ``src/repro``, enforced.

Every ``repro.*`` import under ``src/repro`` — module level, inside a
function, or under ``if TYPE_CHECKING:`` — is read with :mod:`ast` and
mapped to a package edge.  An edge passes when the target lies below
the source in :data:`LAYERS` (the transitive closure of the declared
dependencies) or is a leaf open to all.  Anything else fails, unless it
is listed in :data:`EXCEPTIONS` with its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Each package and the packages directly below it.
LAYERS = {
    "sim": (),
    "net": ("sim",),
    "comm": ("net",),
    "frameworks": ("sim",),
    "core": ("comm", "frameworks"),
    "models": (),
    "obs": (),
    "invariants": (),
    "analysis": ("frameworks", "models"),
    "cluster": ("net", "models"),
    "faults": ("net", "cluster"),
    "recovery": ("faults",),
    "training": ("core", "recovery", "obs"),
    "tuning": ("training",),
    "experiments": ("tuning", "analysis", "invariants"),
    "perf": ("experiments",),
    "cli": ("perf",),
    "__main__": ("cli",),
}

#: Modules any package may import.
LEAVES = {"errors", "units", "_version"}

#: Edges that break the DAG on purpose.  Each is allowed only under
#: ``if TYPE_CHECKING:``, so it never runs.
EXCEPTIONS = {
    ("recovery", "training"): (
        "the control planes annotate the TrainingJob they steer; "
        "training installs them, so a runtime import would be a cycle"
    ),
    ("faults", "training"): (
        "apply_fault_plan annotates the TrainingJob it faults; "
        "training calls it, so a runtime import would be a cycle"
    ),
}


def _below(package):
    """Every package reachable downward from ``package``."""
    seen, stack = set(), list(LAYERS.get(package, ()))
    while stack:
        lower = stack.pop()
        if lower not in seen:
            seen.add(lower)
            stack.extend(LAYERS[lower])
    return seen


def _package(module):
    """``repro.net.link`` → ``net``; ``repro`` itself → ``""``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(path):
    """``(lineno, module, type_only)`` for each ``repro`` import in a file."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    tree = ast.parse(path.read_text(), str(path))
    found = []

    def visit(node, type_only):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = list(parts[: len(parts) - node.level]) if node.level else []
            modules = [".".join(base + ([node.module] if node.module else []))]
        else:
            modules = []
        for module in modules:
            if module == "repro" or module.startswith("repro."):
                found.append((node.lineno, module, type_only))
        for child in ast.iter_child_nodes(node):
            guarded = (
                isinstance(node, ast.If)
                and _is_type_checking(node.test)
                and child in node.body
            )
            visit(child, type_only or guarded)

    visit(tree, False)
    return found


def _source_package(path):
    rel = path.relative_to(SRC)
    return rel.parts[0] if len(rel.parts) > 1 else rel.stem


def _edges():
    for path in sorted(SRC.rglob("*.py")):
        source = _source_package(path)
        for lineno, module, type_only in _imports(path):
            target = _package(module)
            if target != source:
                yield f"{path.relative_to(SRC)}:{lineno}", source, target, type_only


def test_declared_layers_form_a_dag():
    for package in LAYERS:
        assert package not in _below(package), f"{package} sits below itself"


def test_every_package_is_declared():
    # The root ``repro/__init__.py`` and the leaves may import leaves only.
    packages = {_source_package(path) for path in SRC.rglob("*.py")}
    undeclared = packages - set(LAYERS) - LEAVES - {"__init__"}
    assert not undeclared, f"declare {sorted(undeclared)} in LAYERS"


def test_imports_follow_the_layer_graph():
    bad = []
    used = set()
    for where, source, target, type_only in _edges():
        if target in LEAVES or target in _below(source):
            continue
        if (source, target) in EXCEPTIONS and type_only:
            used.add((source, target))
            continue
        bad.append(f"{where}: {source} -> {target}")
    assert not bad, "imports against the layer graph:\n" + "\n".join(bad)
    assert used == set(EXCEPTIONS), "stale EXCEPTIONS entries"


@pytest.mark.parametrize("source, target", sorted(EXCEPTIONS))
def test_exceptions_break_the_declared_order(source, target):
    # An exception that the DAG already allows is dead weight.
    assert target not in _below(source)
