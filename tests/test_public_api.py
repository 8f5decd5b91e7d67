"""Every public top-level function of ``lrcs_cdti``, and every public
attribute of its public classes, has a use in the program itself: the
package or the benchmark harness in ``perfbench/``.  Tests do not count,
so a function or attribute that only tests use fails here unless it is
allowed below, with its reason.

The attributes of a class are its dataclass (annotated) fields, its
properties and its methods.  One counts as used when the program reads
an attribute of that name, ``obj.name`` or ``getattr(obj, "name")``, on
any object: the scan does not know the type of ``obj``.  So an attribute
that shares its name with one that is read elsewhere passes even when
nothing reads it; that hid the unread ``TensorField.spatial_dims`` behind
``CasoratiSeries.spatial_dims`` and ``EncodingModel.spatial_dims``.

Every setting, too, has a second value in use: each defaulted parameter
of a public top-level function, and each init field with a plain default
of a public dataclass, is given a value somewhere in the program.  A
value counts as given by a keyword of that name or a positional argument
at its position in a call to the function or class that owns the
setting (found by the name called), or by an attribute store of that
name.  A keyword counts at its owner's calls alone: counted at any call,
it hid ``encoding.coil_kspace``'s unset ``phase`` behind the ``phase``
keyword of other calls.  A setting the program never changes is a
constant in all but name, and should be one.  Fields with a
``default_factory`` (containers filled in place), ``init=False`` fields
and ``ClassVar``s are not settings.  The JSON configs are exempt:
the fields of ``PhantomConfig``, ``ExperimentPlan`` and ``SolverConfig``
are the keys of the user's params and plan files, which
``config_from_json`` passes as ``cls(**obj)``.

Every table, last, is written by ``datamodel.write_table``: no other code
of the package names ``csv.writer`` or ``csv.DictWriter``, so a number
has one text form in every CSV file."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lrcs_cdti"

# (module, function): why it stays without a caller in the program
ALLOWED = {}

# (module, class, attribute): why it stays without a reader the scan sees
ALLOWED_ATTRIBUTES = {}

# (module, function or class, parameter or field): why the program keeps
# it a setting although it never sets it
ALLOWED_SETTINGS = {
    ("encoding", "coil_kspace", "phase"):
        "the program simulates from the phased series (pipeline.acquisition_inputs); "
        "the tests and the benchmark's tracer self-test pass the phase map, and the "
        "parameter goes when that self-test stops passing it",
    ("encoding", "EncodingModel", "phase"):
        "the program adds a phase with encoding.with_phase, which shares the "
        "phase-free model's coil and line fields; the tests build phased models "
        "directly as its oracle, and the benchmark's tracer self-test passes None",
}

# the JSON configs, whose fields the user sets (see the module notes)
CONFIG_CLASSES = {("phantom", "PhantomConfig"), ("pipeline", "ExperimentPlan"),
                  ("recon", "SolverConfig")}


def _sources() -> list[Path]:
    return [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]


def _program() -> list[Path]:
    """The package modules and the harness modules of ``perfbench/``."""
    return _sources() + sorted((ROOT / "perfbench").glob("*.py"))


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
    sources = _sources()
    modules = {p.stem for p in sources}
    defined = {(p.stem, node.name) for p in sources
               for node in ast.parse(p.read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in _program():
        used |= _references(path, modules)
    return defined - used


def public_attributes() -> set[tuple[str, str, str]]:
    """(module, class, attribute) for the annotated fields, properties and
    methods of the package's public top-level classes."""
    out = set()
    for path in _sources():
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                elif isinstance(node, ast.FunctionDef):
                    name = node.name
                else:
                    continue
                if not name.startswith("_"):
                    out.add((path.stem, cls.name, name))
    return out


def read_attribute_names() -> set[str]:
    """Names the program reads as attributes: ``obj.name`` in a load and
    ``getattr(obj, "name", ...)`` with a literal name."""
    names = set()
    for path in _program():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "getattr" and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant):
                names.add(node.args[1].value)
    return names


def unread_attributes() -> set[tuple[str, str, str]]:
    names = read_attribute_names()
    return {attr for attr in public_attributes() if attr[2] not in names}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def _init_field(node: ast.AnnAssign) -> tuple[bool, bool]:
    """(whether the field is a parameter of the dataclass's __init__,
    whether it is one with a plain default): a ClassVar and an
    ``init=False`` field are no parameter, and a ``default_factory``
    field has no plain default."""
    if "ClassVar" in ast.unparse(node.annotation):
        return False, False
    value = node.value
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return True, value is not None
    kw = {k.arg: k.value for k in value.keywords}
    if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
        return False, False
    return True, "default" in kw


def settings() -> dict[tuple[str, str, str], int | None]:
    """The defaulted parameters of the package's public top-level functions
    and the plain-default init fields of its public dataclasses (the JSON
    configs aside), as (module, function or class, name), each with its
    position in the call (None for a keyword-only parameter)."""
    out = {}
    for path in _sources():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out[(path.stem, node.name, arg.arg)] = i
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out[(path.stem, node.name, arg.arg)] = None
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_") \
                    and _is_dataclass(node) \
                    and (path.stem, node.name) not in CONFIG_CLASSES:
                index = 0
                for stmt in node.body:
                    if not (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        continue
                    init, plain_default = _init_field(stmt)
                    if plain_default:
                        out[(path.stem, node.name, stmt.target.id)] = index
                    index += init
    return out


def unset_settings() -> set[tuple[str, str, str]]:
    """Settings the program never gives a value: no call to a function or
    class of that name passes a keyword of the setting's name or an
    argument at its position, and no statement stores an attribute of
    that name.  Like the scans above, this one goes by name alone: a call
    counts by the name it calls, whatever module it is bound in."""
    keywords, stores, positional = defaultdict(set), set(), defaultdict(int)
    for path in _program():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                keywords[name].update(k.arg for k in node.keywords if k.arg)
                positional[name] = max(positional[name], len(node.args))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stores.add(node.attr)
    return {key for key, index in settings().items()
            if key[2] not in keywords[key[1]] and key[2] not in stores
            and not (index is not None and positional[key[1]] > index)}


def csv_writer_uses() -> set[tuple[str, str]]:
    """(module, top-level function or class) of every ``csv.writer`` and
    ``csv.DictWriter`` in the package, named as an attribute of ``csv``
    or imported from it; "" for module level."""
    writers = {"writer", "DictWriter"}
    out = set()
    for path in _sources():
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in writers
                        and isinstance(node.value, ast.Name) and node.value.id == "csv"
                        or isinstance(node, ast.ImportFrom) and node.module == "csv"
                        and any(a.name in writers for a in node.names)):
                    out.add((path.stem, getattr(top, "name", "")))
    return out


def test_every_public_function_runs_in_the_program():
    assert unreferenced_functions() == set(ALLOWED)


def test_every_public_attribute_is_read_in_the_program():
    assert unread_attributes() == set(ALLOWED_ATTRIBUTES)


def test_every_setting_is_set_in_the_program():
    assert unset_settings() == set(ALLOWED_SETTINGS)


def test_the_setting_scan_sees_parameters_and_init_fields():
    found = settings()
    assert found[("recon", "preliminary", "scale")] == 5         # parameter
    assert found[("encoding", "EncodingModel", "phase")] == 2    # dataclass field
    assert found[("dti", "TensorField", "n_clamped")] == 5
    for exempt in [("recon", "RunReport", "delta_u"),            # default_factory
                   ("encoding", "EncodingModel", "dtype"),       # ClassVar
                   ("transforms", "WaveletSpec", "plan"),        # init=False
                   ("recon", "SolverConfig", "max_iters"),       # JSON config
                   ("pipeline", "ExperimentPlan", "threads"),
                   ("phantom", "PhantomConfig", "snr")]:
        assert exempt not in found


def test_the_scan_sees_fields_properties_and_methods():
    found = public_attributes()
    assert ("recon", "ReconResult", "series") in found          # field
    assert ("recon", "SolverConfig", "cg_max_iters") in found   # field with default
    assert ("datamodel", "CasoratiSeries", "n_columns") in found  # property
    assert ("recon", "RunReport", "to_json") in found           # method
    assert ("datamodel", "PhaseMap", "from_angles") in found    # classmethod
    assert not any(name.startswith("_") for _, _, name in found)
    assert not any(cls.startswith("_") for _, cls, _ in found)


def test_only_write_table_writes_csv():
    assert csv_writer_uses() == {("datamodel", "write_table")}
