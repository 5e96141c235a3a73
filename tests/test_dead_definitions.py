"""Every function, class, method and module-level assignment in the
package is referenced outside its own definition, somewhere in the
package, the scripts or the benchmark: the tests reach the package only
through names that the package itself runs.  Only the standard library's
ast is needed, so the check runs with the rest of the suite."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/diagonals"
SEARCHED = (PACKAGE, "scripts", "perfbench", "tests")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree) -> list:
    """(qualified name, name, first line, last line) of every function,
    class, method and module-level assignment; dunder names are left out."""
    found = []

    def add(qual, name, node):
        if not _dunder(name):
            found.append((qual, name, node.lineno, node.end_lineno))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            add(node.name, node.name, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        add(f"{node.name}.{item.name}", item.name, item)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        add(name.id, name.id, node)
    return found


def references(tree) -> list:
    """(name, line, bare) of every name read, attribute, imported name, and
    part of a string that is a dotted identifier, such as "WeylGroup.act";
    bare marks a name read."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, False))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(part, node.lineno, False)
                    for alias in node.names for part in alias.name.split(".")]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            out += [(part, node.lineno, False)
                    for part in node.value.split(".")]
    return out


def dead_definitions(package: dict, searched: dict) -> list:
    """"module.name" of each definition in package (path -> source) that
    no reference in searched (path -> source) names outside the lines of
    that definition.  A bare name read never reaches a method, so only an
    attribute, an import or a dotted string references one: a local
    variable that shares a method's name does not keep it alive."""
    seen: dict = {}
    for path, source in searched.items():
        for name, line, bare in references(ast.parse(source)):
            seen.setdefault(name, []).append((path, line, bare))
    dead = []
    for path, source in package.items():
        for qual, name, first, last in definitions(ast.parse(source)):
            method = "." in qual
            if all((p == path and first <= line <= last) or (method and bare)
                   for p, line, bare in seen.get(name, ())):
                dead.append(f"{Path(path).stem}.{qual}")
    return sorted(dead)


def _sources(folders) -> dict:
    return {p.relative_to(ROOT).as_posix(): p.read_text()
            for folder in folders for p in sorted((ROOT / folder).glob("*.py"))}


def test_checker_flags_an_unreferenced_definition():
    module = ("LIMIT = 3\nSPARE: int = 4\n"
              "def f(n):\n    return f(n - 1) if n else LIMIT\n"
              "def g():\n    pass\n"
              "class C:\n"
              "    def used(self):\n        return 1\n"
              "    def idle(self):\n        return self.idle()\n"
              "    def hidden(self):\n        return 2\n"
              "    def __repr__(self):\n        return ''\n")
    # a local variable named like a method reads as a bare name only
    user = ("from m import C\nC().used()\nTARGET = 'm.g'\n"
            "def h(hidden):\n    return hidden\n")
    assert dead_definitions({"m.py": module}, {"m.py": module, "u.py": user}) \
        == ["m.C.hidden", "m.C.idle", "m.SPARE", "m.f"]


def test_every_definition_is_referenced():
    assert dead_definitions(_sources([PACKAGE]), _sources(SEARCHED)) == []


def test_definitions_only_the_tests_use_are_listed():
    # no definition is kept for the tests alone: oracles and helpers that
    # only the tests need live under tests/
    outside_tests = [folder for folder in SEARCHED if folder != "tests"]
    assert dead_definitions(_sources([PACKAGE]), _sources(outside_tests)) \
        == []
