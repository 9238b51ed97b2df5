"""Every public function, class and method of quadop is used by quadop.

A public name (no leading underscore) defined at the top level of a module,
or as a method of a top-level class, must be referenced somewhere in the
package as a name or an attribute.  A helper only tests call is API that no
command runs, so it should be deleted together with its tests.
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


def unused_public_names():
    defined, used = [], set()
    for tree in _trees():
        for node in tree.body:
            if not _public(node):
                continue
            defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(("%s.%s" % (node.name, m.name), m.name)
                               for m in node.body if _public(m))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(q for q, name in defined if name not in used)


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names() == []
