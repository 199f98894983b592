"""Everything ``src/setnet`` defines is named by the program: its modules and
the benchmark under ``bench/``. A function, class or method that only the
tests call belongs in ``tests/helpers.py``.

Names are read with ``ast``, so a name in a docstring or comment does not
count as a use, and one inside an f-string does. A top-level function or
class counts as named by a bare name or an attribute of that name; a method
only by an attribute, ``.name``, since a bare name of the same spelling is
some other function or variable. Dunder methods are called by Python itself
and are left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "setnet").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def definitions(path):
    """(qualified name, bare name, whether a method) of each top-level
    function and class in ``path``, and of each non-dunder method of its
    top-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, defs):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not (member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{node.name}.{member.name}", member.name, True


def used_names(paths):
    """(every bare name loaded or stored, every attribute name accessed) in
    ``paths``."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_definition_in_src_is_named_by_the_program():
    names, attributes = used_names(PROGRAM)
    unused = [
        f"{path.stem}.{qualified}"
        for path in SOURCES
        for qualified, name, method in definitions(path)
        if name not in attributes and (method or name not in names)
    ]
    assert unused == []


def test_a_method_is_named_only_as_an_attribute(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "class A:\n"
        "    def called(self):\n"
        "        return f'{self.quoted}'\n"
        "    def quoted(self):\n"
        "        pass\n"
        "    def shadowed(self):\n"
        "        pass\n"
        "def shadowed():\n"
        "    return A().called()\n"
        "shadowed()\n"
    )
    names, attributes = used_names([src])
    method_uses = {q for q, name, method in definitions(src) if method and name in attributes}
    assert method_uses == {"A.called", "A.quoted"}
    assert "shadowed" in names and "shadowed" not in attributes
