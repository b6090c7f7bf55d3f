"""The library has no runtime dependencies: every module under
`mixedgraphs` imports only the standard library and its own package. Nor
does it keep dead private helpers: every private module-level function or
class is used by code somewhere in the package. And every source file, of
the package, its tests and its benchmark, keeps to the grammar of Python
3.10, the oldest version `pyproject.toml` allows."""

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


def test_every_private_function_and_class_is_used():
    # a use is a name or attribute in code outside the definition itself:
    # docstrings and imports do not count
    defined, used = [], set()
    for path in sorted(Path(mixedgraphs.__file__).parent.rglob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = top.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.append(f"{path.name}:{top.lineno}: {own}")
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    assert defined
    unused = [d for d in defined if d.rpartition(" ")[2] not in used]
    assert not unused, unused


def test_every_source_file_parses_as_python_3_10():
    root = Path(__file__).resolve().parent.parent
    files = sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
