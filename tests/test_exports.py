"""Every name the package exports has a caller outside the tests.

An export counts as used when the name its object was defined under (so
``e_step`` is looked up as ``_e_step_array``) appears in a module of
``src/vmfcl`` other than ``__init__.py``, not on its own ``def`` or
``class`` line, or anywhere in ``demos/``, ``tools/`` or ``perfbench/``.
Code that no run, demo, tool or benchmark reads either gets such a caller
or leaves the package.
"""

import re
from pathlib import Path

import vmfcl

ROOT = Path(__file__).resolve().parents[1]


def caller_sources() -> list[str]:
    package = [p for p in (ROOT / "src" / "vmfcl").glob("*.py") if p.name != "__init__.py"]
    outside = [p for d in ("demos", "tools", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return [p.read_text(encoding="utf-8") for p in package + outside]


def test_every_export_has_a_caller_outside_the_tests():
    sources = caller_sources()
    unused = []
    for export in vmfcl.__all__:
        name = re.escape(getattr(vmfcl, export).__name__)
        use = re.compile(rf"^(?![ \t]*(?:def|class)[ \t]+{name}\b).*\b{name}\b", re.MULTILINE)
        if not any(use.search(text) for text in sources):
            unused.append(export)
    assert unused == []
