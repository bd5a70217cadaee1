"""Every name the package exports, and every function, class and method it
defines, has a caller outside the tests, and every dataclass field a reader.

A name counts as used when the name its object was defined under (so
``e_step`` is looked up as ``_e_step_array``) is read by code in a module
of ``src/vmfcl`` other than ``__init__.py``, or in ``demos/``, ``tools/``
or ``perfbench/``: as a name, an attribute or an imported name in the
parsed source. Docstrings, comments and the name's own ``def`` or
``class`` line do not count. A perfbench patch site counts too: an entry of
``PATCHES`` in ``perfbench/tracing.py`` names the attribute it wraps in a
string, and the benchmark calls it through that wrapper. Dunder methods are
exempt, as the interpreter calls them. Code that no run, demo, tool or
benchmark reads either gets such a caller or leaves the package. A field
counts as read when code in those places loads an attribute of its name.
The README's "Library layout" table names every export in its module's row.
"""

import ast
import re
from pathlib import Path

import vmfcl

ROOT = Path(__file__).resolve().parents[1]


def code_names(tree: ast.AST) -> set[str]:
    """The names a module's code reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def patched_names() -> set[str]:
    """The attributes ``perfbench/tracing.py`` lists in ``PATCHES``, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            return {entry.elts[1].value for entry in node.value.elts}
    raise AssertionError("perfbench/tracing.py assigns no PATCHES list")


def caller_trees() -> list[ast.AST]:
    """The parsed modules that callers are read from (see the module docstring)."""
    package = [p for p in (ROOT / "src" / "vmfcl").glob("*.py") if p.name != "__init__.py"]
    outside = [p for d in ("demos", "tools", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in package + outside]


def caller_names() -> set[str]:
    return set().union(*map(code_names, caller_trees()))


def unused_exports(names: set[str]) -> list[str]:
    return [e for e in vmfcl.__all__ if getattr(vmfcl, e).__name__ not in names]


def test_every_export_has_a_caller_outside_the_tests():
    assert unused_exports(caller_names() | patched_names()) == []


def test_only_patch_sites_call_these_exports():
    # text matches (docstrings, comments, the PATCHES strings) are not code callers
    assert unused_exports(caller_names()) == ["accuracy", "clf_loss", "distill_loss"]


def definitions() -> list[str]:
    """``module.name`` of every module-level function and class of ``src/vmfcl``, and
    ``module.Class.name`` of every method, dunders left out."""
    found = []
    for path in sorted((ROOT / "src" / "vmfcl").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                found.append(f"{path.stem}.{node.name}")
                found += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            elif isinstance(node, ast.FunctionDef):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_every_definition_has_a_caller_outside_the_tests():
    defs = definitions()
    assert len(defs) > 100  # the walk reached the package
    names = caller_names() | patched_names()
    assert [d for d in defs if d.rpartition(".")[2] not in names] == []


# SessionReport's fields are the report's JSON contract: to_dict writes every one of
# them through getattr, so no code reads them as attributes one by one.
FIELD_RULE_EXEMPT = {"bench.SessionReport"}


def dataclass_fields() -> list[str]:
    """``module.Class.field`` of every field of every ``@dataclass`` class of ``src/vmfcl``."""
    found = []
    for path in sorted((ROOT / "src" / "vmfcl").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", [])]
            if isinstance(node, ast.ClassDef) and any(getattr(d, "id", None) == "dataclass" for d in decorators):
                found += [f"{path.stem}.{node.name}.{f.target.id}" for f in node.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return found


def attribute_reads() -> set[str]:
    """The attribute names that the callers' code loads."""
    return {node.attr for tree in caller_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_outside_the_tests():
    found = dataclass_fields()
    assert len(found) > 50  # the walk reached the package
    reads = attribute_reads()
    assert [f for f in found
            if f.rpartition(".")[0] not in FIELD_RULE_EXEMPT and f.rpartition(".")[2] not in reads] == []


def readme_layout_rows() -> dict[str, str]:
    """The README's "Library layout" rows: module name -> its contents cell."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return dict(re.findall(r"^\| `(vmfcl\.\w+)` \| (.*) \|$", readme, re.MULTILINE))


def test_readme_layout_names_every_export_in_its_module_row():
    rows = readme_layout_rows()
    assert len(rows) >= 8  # the table was found
    # a name is listed as `name` or as a call, `name(...)`
    assert [e for e in vmfcl.__all__
            if not re.search(rf"`{e}[`(]", rows.get(getattr(vmfcl, e).__module__, ""))] == []
