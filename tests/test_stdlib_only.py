"""The package promises to run on the standard library alone: every import
in ``src/quantkmeans`` must name a standard-library module or the package
itself.  Its star import must also resolve every exported name."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quantkmeans"


def test_every_import_is_standard_library_or_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in
                        sys.stdlib_module_names | {"quantkmeans"}]
    assert foreign == []


def test_star_import_resolves_every_exported_name():
    import quantkmeans

    namespace: dict = {}
    exec("from quantkmeans import *", namespace)
    assert [name for name in quantkmeans.__all__
            if name not in namespace] == []
