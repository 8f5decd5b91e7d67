"""Every public top-level function of ``lrcs_cdti`` has a use in the
program itself: the package or the benchmark harness in ``perfbench/``.
Tests do not count, so a function that only tests call fails here
unless it is allowed below, with its reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lrcs_cdti"

# (module, function): why it stays without a caller in the program
ALLOWED = {
    ("datamodel", "load_mask"):
        "reads the sampling_mask container that `cli sample` writes",
    ("datamodel", "save_coils"):
        "writes the coil_maps container that `cli recon --coils` reads",
    ("encoding", "save_kspace"):
        "writes the kspace container that `cli recon --kspace` reads",
    ("phantom", "load_ground_truth"):
        "reads the ground_truth container that `cli phantom` writes",
    ("transforms", "group_l12_norm"):
        "the penalty ||Psi U V||_{1,2} that ROADMAP item 5 adds to the run report",
}


def _references(path: Path, modules: set[str]) -> set[tuple[str, str]]:
    """(module, name) pairs that the source file ``path`` refers to: a bare
    name in its own package module, an attribute of an imported package
    module, a name imported from one, and the ``"module.name"`` strings
    and ``("module", "name")`` pairs that name traced functions."""
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent == PACKAGE else None
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("lrcs_cdti"):
                continue
            sub = base.removeprefix("lrcs_cdti").lstrip(".")
            for alias in node.names:
                if not sub and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif sub in modules:
                    refs.add((sub, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            refs.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and own is not None:
            refs.add((own, node.id))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.count(".") == 1:
            refs.add(tuple(node.value.split(".")))
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.elts):
            refs.add((node.elts[0].value, node.elts[1].value))
    return refs


def unreferenced_functions() -> set[tuple[str, str]]:
    """Public top-level functions of the package that no module of the
    package (re-exports in ``__init__`` aside) and no harness module of
    ``perfbench/`` refers to."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    modules = {p.stem for p in sources}
    defined = {(p.stem, node.name) for p in sources
               for node in ast.parse(p.read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in sources + sorted((ROOT / "perfbench").glob("*.py")):
        used |= _references(path, modules)
    return defined - used


def test_every_public_function_runs_in_the_program():
    assert unreferenced_functions() == set(ALLOWED)
