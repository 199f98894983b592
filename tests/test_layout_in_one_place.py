"""A packed batch's layout is worked out in one place: ``autodiff.Segments``,
made once per batch. So no ``np.repeat``, ``np.cumsum`` or ``.cumsum`` call
appears in ``autodiff.py``, ``layers.py`` or ``train.py`` outside that class,
and scattered layout code cannot creep back into the set ops or the layers.

Calls are read with ``ast``, so a name in a docstring or comment does not
count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "setnet"
GUARDED = ("autodiff.py", "layers.py", "train.py")


def layout_calls(path):
    """(line, call) of each ``np.repeat``, ``np.cumsum`` or ``<any>.cumsum``
    call in ``path`` outside a class named ``Segments``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Segments":
            inside.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside or not isinstance(node.func, ast.Attribute):
            continue
        func = node.func
        on_np = isinstance(func.value, ast.Name) and func.value.id == "np"
        if func.attr == "cumsum" or (func.attr == "repeat" and on_np):
            found.append((node.lineno, ast.unparse(func)))
    return sorted(found)


def test_the_layout_is_worked_out_only_in_segments():
    assert {name: layout_calls(SRC / name) for name in GUARDED} == {name: [] for name in GUARDED}


def test_segments_holds_the_layout_calls():
    # the guard is not vacuous: the calls it forbids elsewhere are in Segments
    tree = ast.parse((SRC / "autodiff.py").read_text(encoding="utf-8"))
    segments = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "Segments")
    calls = {ast.unparse(n.func) for n in ast.walk(segments) if isinstance(n, ast.Call)}
    assert {"np.cumsum", "np.repeat"} <= calls


def test_a_layout_call_outside_segments_is_found(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import numpy as np\n"
        "class Segments:\n"
        "    def spread(self, a, cards):\n"
        "        return np.repeat(a, cards, axis=0), np.cumsum(cards)\n"
        "def op(a, cards):\n"
        "    '''np.repeat(a, cards) in a docstring is not a call'''\n"
        "    bounds = cards.cumsum()\n"
        "    return np.repeat(a, cards, axis=0), a.repeat(2), bounds\n"
    )
    assert layout_calls(src) == [(7, "cards.cumsum"), (8, "np.repeat")]
