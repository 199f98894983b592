"""Every error class in ``setnet.errors`` is raised somewhere in ``src/setnet``:
a class that nothing raises names an exit code no run can return.

Classes and raises are read with ``ast``. A class belongs to the taxonomy
when it derives, directly or through another class of ``errors.py``, from
``SetNetError``; the base class itself is left out, since the CLI catches it
as the root of the others. A raise counts when it names the class, as
``raise Name(...)``, ``raise Name`` or ``raise module.Name(...)``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "setnet"
BASE = "SetNetError"


def taxonomy(path):
    """The names of the classes in ``path`` that derive from ``BASE``."""
    found = {BASE}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id in found for b in node.bases):
            found.add(node.name)
    return found - {BASE}


def raised_names(paths):
    """The name of every class raised by a ``raise`` statement in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised_in_src():
    classes = taxonomy(SRC / "errors.py")
    assert "DimensionError" in classes
    assert sorted(classes - raised_names(sorted(SRC.glob("*.py")))) == []


def test_a_class_without_a_raiser_is_reported(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text(
        "class SetNetError(Exception):\n    exit_code = 1\n"
        "class UsageError(SetNetError):\n    exit_code = 2\n"
        "class NarrowUsageError(UsageError):\n    pass\n"
        "class BudgetError(SetNetError):\n    exit_code = 5\n"
        "class Unrelated(Exception):\n    pass\n"
    )
    program = tmp_path / "program.py"
    program.write_text(
        "from . import errors\n"
        "from .errors import NarrowUsageError, UsageError\n"
        "def f(x):\n"
        "    if x:\n        raise UsageError('bad')\n"
        "    try:\n        pass\n    except NarrowUsageError:\n        raise\n"
        "    raise errors.NarrowUsageError\n"
        "# raise BudgetError('a comment is not a raise')\n"
    )
    assert taxonomy(errors) == {"UsageError", "NarrowUsageError", "BudgetError"}
    assert taxonomy(errors) - raised_names([program]) == {"BudgetError"}
