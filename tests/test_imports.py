"""Every name a package module imports is used in that module, and every
name it defines is used somewhere in the package.

__init__.py re-exports what it imports, and `from __future__` imports are
directives, so both are left out. A name kept on purpose carries
`# noqa: F401` on its import line; the one such name is sat.allen_related,
which the benchmark's tracer patches to time the relation listing.
"""

import ast
from pathlib import Path

import hslogic

PACKAGE = Path(hslogic.__file__).parent


def _unused_imports(path):
    """(name, line, marked) for each imported name the module never reads;
    marked says whether its import line carries # noqa: F401."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((name, alias.lineno))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    return [(name, line, "# noqa: F401" in lines[line - 1])
            for name, line in imported if name not in read]


def test_every_imported_name_is_used():
    unused, kept = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, line, marked in _unused_imports(path):
            if marked:
                kept.append((path.name, name))
            else:
                unused.append("%s:%d %s" % (path.name, line, name))
    assert unused == []
    assert kept == [("sat.py", "allen_related")]


def _defined(tree):
    """(name, line) for each name the module's top-level statements bind
    by def, class or assignment; imports are _unused_imports' part."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, sub.lineno


def test_every_defined_name_is_read_or_exported():
    # read: loaded by name in any package module; exported: imported by
    # __init__.py, which makes it public
    read, exported, defined = set(), set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom) \
                    and path.name == "__init__.py":
                exported.update(alias.asname or alias.name
                                for alias in node.names)
        if path.name != "__init__.py":
            defined += [(path.name, name, line)
                        for name, line in _defined(tree)]
    assert ["%s:%d %s" % (module, line, name)
            for module, name, line in defined
            if name not in read and name not in exported] == []
