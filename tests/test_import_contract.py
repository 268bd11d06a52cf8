"""Architectural import-layering contract.

The package stack is layered bottom-up: no package may import from a
layer above it (``engines -> core -> rules/storage -> sim -> runtime``,
with ``errors`` at the bottom and the CLI at the top).  The test walks
every module's AST, so violations are caught even in rarely-executed
code paths.  Imports guarded by ``if TYPE_CHECKING:`` are exempt — they
break cycles for annotations only and vanish at runtime.

Two extra contracts guard the pluggable-runtime boundary: engines may
construct against :mod:`repro.runtime` protocols only (no
``repro.sim`` imports anywhere under ``repro/engines/``), and the
runtime layer itself may not statically import any backend (the
``"sim"`` backend is resolved lazily by name in the factory).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: package -> layer rank; a module may only import repro packages of a
#: strictly lower rank (or its own package).
LAYERS = {
    "errors": 0,
    "runtime": 1,
    "sim": 2,
    "rules": 2,
    "model": 3,
    "obs": 3,
    "storage": 4,
    "core": 5,
    "engines": 6,
    "workloads": 7,
    "laws": 7,
    "analysis": 8,
    "service": 9,
    "cli": 10,
    "__main__": 11,
}


def top_package(module_path: Path) -> str:
    """``repro/<pkg>/...`` or ``repro/<pkg>.py`` -> ``<pkg>``."""
    relative = module_path.relative_to(SRC / "repro")
    return relative.parts[0].removesuffix(".py")


def runtime_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, dotted-module) pairs for every import that exists at
    runtime — ``if TYPE_CHECKING:`` bodies are pruned before the walk."""

    def is_type_checking(test: ast.expr) -> bool:
        return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )

    found: list[tuple[int, str]] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and is_type_checking(child.test):
                for orelse in child.orelse:
                    walk(orelse)
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    found.append((child.lineno, alias.name))
            elif isinstance(child, ast.ImportFrom):
                if child.level == 0 and child.module:
                    found.append((child.lineno, child.module))
            else:
                walk(child)

    walk(tree)
    return found


def collect_violations() -> list[str]:
    violations = []
    for module_path in sorted((SRC / "repro").rglob("*.py")):
        package = top_package(module_path)
        if package == "__init__":  # repro/__init__.py re-exports the API
            continue
        rank = LAYERS[package]
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        for lineno, imported in runtime_imports(tree):
            parts = imported.split(".")
            if parts[0] != "repro" or len(parts) < 2:
                continue
            target = parts[1]
            if target == package:
                continue
            target_rank = LAYERS.get(target)
            if target_rank is None:
                violations.append(
                    f"{module_path.relative_to(SRC)}:{lineno} imports unknown "
                    f"package repro.{target} — add it to LAYERS"
                )
            elif target_rank >= rank:
                violations.append(
                    f"{module_path.relative_to(SRC)}:{lineno} "
                    f"({package}, layer {rank}) imports repro.{target} "
                    f"(layer {target_rank}): upward or sideways import"
                )
    return violations


def test_every_package_is_ranked():
    packages = {
        top_package(p)
        for p in (SRC / "repro").rglob("*.py")
        if top_package(p) != "__init__"
    }
    assert packages <= set(LAYERS), f"unranked packages: {packages - set(LAYERS)}"


def test_no_upward_imports():
    violations = collect_violations()
    assert not violations, "\n".join(violations)


def test_engines_never_import_sim():
    """Engines construct against the repro.runtime protocols only: the
    simulated backend is one implementation among several, resolved by
    name through the runtime factory.  No module under repro/engines/
    may import repro.sim (TYPE_CHECKING-only imports included — the
    annotation surface must stay backend-neutral too)."""
    engines = SRC / "repro" / "engines"
    violations = []
    for module_path in sorted(engines.rglob("*.py")):
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            for name in names:
                if name == "repro.sim" or name.startswith("repro.sim."):
                    violations.append(
                        f"{module_path.relative_to(SRC)}:{node.lineno} "
                        f"imports {name}: engines must depend on "
                        f"repro.runtime protocols only"
                    )
    assert not violations, "\n".join(violations)


def test_runtime_layer_has_no_static_backend_imports():
    """repro.runtime must not statically import repro.sim: backends
    register with the factory as lazy ``module:attr`` strings, so the
    protocol layer stays below every implementation."""
    runtime_pkg = SRC / "repro" / "runtime"
    violations = []
    for module_path in sorted(runtime_pkg.rglob("*.py")):
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        for lineno, imported in runtime_imports(tree):
            if imported == "repro.sim" or imported.startswith("repro.sim."):
                violations.append(
                    f"{module_path.relative_to(SRC)}:{lineno} imports "
                    f"{imported}: the runtime layer must not depend on a "
                    f"backend"
                )
    assert not violations, "\n".join(violations)


def test_engines_subpackage_layering():
    """Within repro.engines: the shared runtime layer imports no engine
    module, and the architecture packages never import each other —
    except parallel, which is documented to extend centralized."""
    engines = SRC / "repro" / "engines"
    subpkgs = ("centralized", "parallel", "distributed", "runtime")
    allowed_peer = {("parallel", "centralized")}
    violations = []
    for module_path in sorted(engines.rglob("*.py")):
        relative = module_path.relative_to(engines)
        owner = relative.parts[0].removesuffix(".py")
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        for lineno, imported in runtime_imports(tree):
            parts = imported.split(".")
            if parts[:2] != ["repro", "engines"] or len(parts) < 3:
                continue
            target = parts[2]
            if target not in subpkgs or target == owner:
                continue
            if owner == "runtime":
                violations.append(
                    f"runtime/{relative.name}:{lineno} imports "
                    f"repro.engines.{target}: the shared layer must stay "
                    f"architecture-free"
                )
            elif owner in subpkgs and (owner, target) not in allowed_peer:
                if target == "runtime":
                    continue  # everyone may use the shared layer
                violations.append(
                    f"{relative}:{lineno} ({owner}) imports "
                    f"repro.engines.{target}: architectures must not couple"
                )
    assert not violations, "\n".join(violations)


#: Authority calls that decide what a coordination op does.
AUTHORITY_CALLS = frozenset({
    "report_completion", "request_clearance",
    "report_target_executed", "dependents_of",
})


def test_only_coord_drives_the_authorities():
    """The three architectures share one coordination protocol: what an
    op does at an authority is decided in ``engines/coord.py`` alone, and
    the engines only choose where an op is applied and how its grants are
    delivered.  No other module under repro/engines/ may call the
    authority methods that apply an op."""
    engines = SRC / "repro" / "engines"
    violations = []
    for module_path in sorted(engines.rglob("*.py")):
        if module_path == engines / "coord.py":
            continue
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in AUTHORITY_CALLS
            ):
                violations.append(
                    f"{module_path.relative_to(SRC)}:{node.lineno} calls "
                    f".{node.func.attr}(): apply coordination ops through "
                    f"AuthorityBundle in engines/coord.py"
                )
    assert not violations, "\n".join(violations)
