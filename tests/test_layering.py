"""The package's module graph, read from the source.

The library modules compute; ``cli`` names the reports and renders them
through ``reporting``.  Each module's imports of its sibling modules are read
from its syntax tree and compared with the intended graph, so a module that
starts writing reports, or a report helper that reaches into the library,
fails here.
"""
from __future__ import annotations

import ast
from pathlib import Path

import figprimes

PACKAGE = Path(figprimes.__file__).resolve().parent

#: module -> the sibling modules it imports
INTENDED = {
    "__init__": {"additive", "curves", "equations", "errors", "figurate", "intkernel", "powerful"},
    "errors": set(),
    "intkernel": {"errors"},
    "figurate": {"errors", "intkernel"},
    "additive": {"errors", "figurate", "intkernel"},
    "equations": {"errors", "intkernel"},
    "curves": {"equations", "errors", "intkernel"},
    "powerful": {"errors", "intkernel"},
    "reporting": set(),
    "cli": {
        "additive", "curves", "equations", "errors", "figurate", "intkernel", "powerful",
        "reporting",
    },
}


def sibling_imports(path: Path) -> set[str]:
    """The figprimes modules a source file imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != "figprimes" and not module.startswith("figprimes."):
                    continue
                module = module.removeprefix("figprimes").lstrip(".")
            # from . import x and from figprimes import x name modules
            found.update([module.split(".")[0]] if module else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("figprimes."))
    return found


def test_sibling_imports_match_the_graph():
    actual = {p.stem: sibling_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert actual == INTENDED
