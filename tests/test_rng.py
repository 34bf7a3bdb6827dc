import ast
from pathlib import Path

import numpy as np
import pytest

from trafficlab.rng import substream


def test_substream_is_deterministic():
    a = substream(7, 3).random(8)
    b = substream(7, 3).random(8)
    assert np.array_equal(a, b)


def test_substreams_with_different_indices_differ():
    a = substream(7, 1).random(8)
    b = substream(7, 2).random(8)
    assert not np.array_equal(a, b)


def test_index_tuple_is_not_flattened_into_the_seed():
    # (7, 1) and (71,) must be unrelated streams
    a = substream(7, 1).random(8)
    b = substream(71).random(8)
    assert not np.array_equal(a, b)


def test_trailing_zero_indices_name_one_stream():
    # SeedSequence pads its entropy with zeros, as the substream docstring says
    a = substream(5).random(8)
    assert np.array_equal(a, substream(5, 0).random(8))
    assert np.array_equal(a, substream(5, 0, 0).random(8))


def test_deeper_indices_give_fresh_streams():
    a = substream(0, 1, 2).random(8)
    b = substream(0, 1, 3).random(8)
    c = substream(0, 1).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_negative_master_seed_rejected():
    with pytest.raises(ValueError):
        substream(-1)


MAKERS = {"default_rng", "SeedSequence", "RandomState"}


def maker_references(path):
    """(enclosing function, line) of each reference in the module at path
    to numpy's default_rng, SeedSequence or RandomState, or import of one."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        named = (node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name)
                 else None)
        imported = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
        if named in MAKERS or MAKERS & set(imported):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_substream_makes_a_generator():
    sources = (Path(__file__).resolve().parent.parent / "src" / "trafficlab").glob("*.py")
    assert {where for path in sources for where, _ in maker_references(path)} == {"rng.substream"}


def test_the_route_check_sees_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\nfrom numpy.random import SeedSequence\n"
                    "def f(seed):\n    return np.random.default_rng(seed)\n"
                    "class C:\n    def g(self):\n        return numpy.random.RandomState(0)\n")
    assert maker_references(path) == [("m", 2), ("m.f", 4), ("m.C.g", 7)]
