"""Every module-level import in the package, the scripts and the tests is
used.  Only the standard library's ast is needed, so the check runs with
the rest of the suite."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p.relative_to(ROOT).as_posix()
               for folder in ("src/diagonals", "scripts", "tests")
               for p in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that nothing in the module
    reads; a name listed in __all__ counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations such as -> "Ideal"
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                inner = ast.parse(note.value, mode="eval")
                read |= {n.id for n in ast.walk(inner)
                         if isinstance(n, ast.Name)}
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_checker_flags_an_unused_import():
    source = ("import math\nimport os\nfrom json import dumps, loads\n"
              "from pathlib import Path\n"
              "def f(x: 'Path') -> int:\n"
              "    'math'\n"
              "    return os.sep + loads(x)\n")
    assert unused_imports(source) == [(1, "math"), (3, "dumps")]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_module_level_import(path):
    assert unused_imports((ROOT / path).read_text()) == []
