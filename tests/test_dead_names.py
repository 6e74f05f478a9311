"""No dead names in the package: every private name a module defines at top
level, and every name it imports, is referenced in src/; every public method
or property of a class in src/, and every public function a module defines
at top level, is read in src/ or perfbench/ (whose tracer wraps public
functions and methods by name), not only by the tests; every field of a
record in src/ (a ``namedtuple`` or a name in ``__slots__``) is read as an
attribute in src/ or perfbench/."""

import ast
from pathlib import Path

import tauforge

SRC = Path(tauforge.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def _bound_at_top(tree):
    """(private names defined, names imported) at module level, with lines."""
    private, imported = [], []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(((alias.asname or alias.name).split(".")[0], node.lineno))
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        private += [(name, node.lineno) for name in names
                    if name.startswith("_") and not name.startswith("__")]
    return private, imported


def _referenced(tree):
    """Names read anywhere in the tree, as plain names or attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unreferenced_private_names_or_imports():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    anywhere = set().union(*(_referenced(tree) for tree in trees.values()))
    dead = []
    for filename, tree in trees.items():
        private, imported = _bound_at_top(tree)
        used_here = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        dead += ["%s:%d private %s" % (filename, line, name) for name, line in private if name not in anywhere]
        dead += ["%s:%d import %s" % (filename, line, name) for name, line in imported if name not in used_here]
    assert dead == []


def _public_methods(tree):
    """(class, method, line) for every public method or property of a
    top-level class."""
    return [(node.name, item.name, item.lineno)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")]


def _attributes_read(files):
    return {node.attr for path in files for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def test_no_unread_public_methods():
    read = _attributes_read(sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("**/*.py")))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        dead += ["%s:%d %s.%s" % (path.name, line, cls, name)
                 for cls, name, line in _public_methods(ast.parse(path.read_text())) if name not in read]
    assert dead == []


def _record_fields(tree):
    """(class, field, line) for every field of a top-level record: a name in
    the ``__slots__`` of a class, or a field of a ``namedtuple(name, fields)``
    call, the fields given as a list or tuple of strings or as one string."""
    fields = []
    for node in tree.body:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "namedtuple"
                    and len(sub.args) == 2):
                names = ast.literal_eval(sub.args[1])
                names = names.replace(",", " ").split() if isinstance(names, str) else names
                fields += [(sub.args[0].value, name, sub.lineno) for name in names]
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.Assign) and len(item.targets) == 1
                        and getattr(item.targets[0], "id", None) == "__slots__"):
                    fields += [(node.name, name, item.lineno) for name in ast.literal_eval(item.value)]
    return fields


def _unread_fields(paths, read):
    return ["%s:%d %s.%s" % (path.name, line, cls, name)
            for path in paths for cls, name, line in _record_fields(ast.parse(path.read_text()))
            if name not in read]


def test_no_unread_record_fields():
    read = _attributes_read(sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("**/*.py")))
    assert _unread_fields(sorted(SRC.glob("*.py")), read) == []


def test_the_record_guard_sees_a_planted_unread_field(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("from collections import namedtuple\n"
                       "Pair = namedtuple('Pair', 'left right')\n"
                       "class Box(namedtuple('Box', ['width', 'depth'])):\n"
                       "    __slots__ = ()\n"
                       "class Cell:\n"
                       "    __slots__ = ('value', 'note')\n")
    read = {"left", "right", "width", "value"}
    assert _unread_fields([planted], read) == ["planted.py:3 Box.depth", "planted.py:6 Cell.note"]


def test_no_public_functions_only_tests_read():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("**/*.py"))
    read = set().union(*(_referenced(ast.parse(path.read_text())) for path in files))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        dead += ["%s:%d %s" % (path.name, node.lineno, node.name)
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not node.name.startswith("_") and node.name not in read]
    assert dead == []
