"""Every public function, class, method and constant of quadop is used by
quadop, and so is every private module-level function, class and constant.

A public name (no leading underscore) defined at the top level of a module,
by def, class or assignment, or as a method of a top-level class, must be
referenced somewhere in the package as a name or an attribute; a name that
a module lists in `__all__` counts as referenced.  A helper only tests call
is API that no command runs, so it should be deleted together with its
tests.  A private name (one leading underscore) defined at the top level of
a module, by def, class or assignment, must be read somewhere in the
package: a private helper, table or tag that nothing reads is dead code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quadop"


def _trees():
    return [ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.rglob("*.py"))]


def _names(node):
    """The names a top-level statement defines by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _public(name):
    return not name.startswith("_")


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _exported(node):
    """The names a top-level `__all__ = [...]` lists: a module's public
    interface counts as read."""
    if "__all__" not in _names(node):
        return []
    return [e.value for e in node.value.elts]


def _defined_and_used():
    public, private, used = [], [], set()
    for tree in _trees():
        for node in tree.body:
            names = _names(node)
            private.extend(n for n in names if _private(n))
            public.extend((n, n) for n in names if _public(n))
            used.update(_exported(node))
            if isinstance(node, ast.ClassDef) and _public(node.name):
                public.extend(("%s.%s" % (node.name, m.name), m.name)
                              for m in node.body
                              if isinstance(m, (ast.FunctionDef, ast.ClassDef))
                              and _public(m.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return public, private, used


def unused_public_names():
    public, _, used = _defined_and_used()
    return sorted(q for q, name in public if name not in used)


def unused_private_names():
    _, private, used = _defined_and_used()
    return sorted(name for name in private if name not in used)


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names() == []


def test_every_private_module_level_name_is_read_in_the_package():
    assert unused_private_names() == []
