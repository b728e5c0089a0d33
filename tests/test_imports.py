"""Every name a package module imports is used in that module, and every
name it defines is used somewhere in the package.

__init__.py re-exports what it imports, and `from __future__` imports are
directives, so both are left out. A name kept on purpose carries
`# noqa: F401` on its import line; the only such names are sat's
allen_related, canonical_interval, letters_of and modal_depth, which the
benchmark's tracer (bench/tracing.py) patches by name to time or count
them. Every name the tracer patches must exist where it patches it, or a
traced run fails before its first query.
"""

import ast
from pathlib import Path

import hslogic
import hslogic.atlas
import hslogic.checking
import hslogic.models
import hslogic.sat

PACKAGE = Path(hslogic.__file__).parent
TRACING = PACKAGE.parent.parent / "bench" / "tracing.py"


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
    assert kept == [("sat.py", "allen_related"),
                    ("sat.py", "canonical_interval"), ("sat.py", "letters_of"),
                    ("sat.py", "modal_depth")]


def _patched():
    """(owner, name) for every _patch(owner, "name", ...) call in the
    tracer's install, with its local module aliases and the loops over
    owners and names expanded."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")

    def values(node, env):
        if isinstance(node, ast.Constant):
            return [node.value]
        if isinstance(node, ast.Name):
            return env.get(node.id, [])
        if isinstance(node, ast.Attribute):
            return [getattr(v, node.attr) for v in values(node.value, env)]
        if isinstance(node, ast.Tuple):
            return [v for elt in node.elts for v in values(elt, env)]
        return []

    out = []

    def visit(stmts, env):
        for st in stmts:
            if isinstance(st, ast.For):
                visit(st.body, {**env, st.target.id: values(st.iter, env)})
                continue
            if isinstance(st, ast.Assign) \
                    and isinstance(st.targets[0], ast.Tuple):
                for target, value in zip(st.targets[0].elts, st.value.elts):
                    env[target.id] = values(value, env)
            for call in ast.walk(st):
                if isinstance(call, ast.Call) \
                        and isinstance(call.func, ast.Attribute) \
                        and call.func.attr == "_patch":
                    out.extend((owner, name)
                               for owner in values(call.args[0], env)
                               for name in values(call.args[1], env))

    visit(install.body, {"hslogic": [hslogic]})
    return out


def test_every_name_the_tracer_patches_exists():
    patched = _patched()
    assert [(getattr(owner, "__name__", owner), name)
            for owner, name in patched if not hasattr(owner, name)] == []
    on_sat = {name for owner, name in patched if owner is hslogic.sat}
    assert {"modal_depth", "canonical_interval", "metrics", "letters_of",
            "fragment_of", "mc_periodic", "mc_finite", "allen_related",
            "Solver"} <= on_sat


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
