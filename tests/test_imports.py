"""The library has no runtime dependencies: every module under
`mixedgraphs` imports only the standard library and its own package."""

import ast
import sys
from pathlib import Path

import mixedgraphs


def test_library_imports_only_the_standard_library():
    modules = sorted(Path(mixedgraphs.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "mixedgraphs" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert not foreign, foreign
