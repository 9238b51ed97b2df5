"""Every public function, class and method of quadop is used by quadop, and so
is every private module-level function, class and constant.

A public name (no leading underscore) defined at the top level of a module,
or as a method of a top-level class, must be referenced somewhere in the
package as a name or an attribute.  A helper only tests call is API that no
command runs, so it should be deleted together with its tests.  A private
name (one leading underscore) defined at the top level of a module, by def,
class or assignment, must be read somewhere in the package: a private
helper, table or tag that nothing reads is dead code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quadop"


def _trees():
    return [ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.rglob("*.py"))]


def _public(node):
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def _private_names(node):
    """The private names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _defined_and_used():
    public, private, used = [], [], set()
    for tree in _trees():
        for node in tree.body:
            private.extend(_private_names(node))
            if not _public(node):
                continue
            public.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                public.extend(("%s.%s" % (node.name, m.name), m.name)
                              for m in node.body if _public(m))
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
