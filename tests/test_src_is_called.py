"""Everything ``src/setnet`` defines is named by the program: its modules and
the benchmark under ``bench/``. A function, class or method that only the
tests call belongs in ``tests/helpers.py``.

Names are read with ``tokenize``, so a name in a docstring or comment does
not count as a use. Dunder methods are called by Python itself and are left
out.
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "setnet").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def definitions(path):
    """(qualified name, bare name) of each top-level function and class in
    ``path``, and of each non-dunder method of its top-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not (member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{node.name}.{member.name}", member.name


def used_names(paths):
    """Every NAME token in ``paths`` except the name a ``def`` or ``class``
    statement introduces."""
    names = set()
    for path in paths:
        with tokenize.open(path) as fh:
            previous = None
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    names.add(tok.string)
                previous = tok.string if tok.type == tokenize.NAME else None
    return names


def test_every_definition_in_src_is_named_by_the_program():
    used = used_names(PROGRAM)
    unused = [
        f"{path.stem}.{qualified}"
        for path in SOURCES
        for qualified, name in definitions(path)
        if name not in used
    ]
    assert unused == []
