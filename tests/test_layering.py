"""No ``src/vgram`` module reaches into another one's private names.

A ``_``-prefixed module-level name is its module's own decision (a table
layout, a helper's arithmetic); another module that imports it, or
reads it as an attribute, has to know that decision too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vgram"

# (module, name) reads allowed across modules. tensor._make is the
# tape-node constructor: an op defined outside tensor, dmv_graph's one
# chart node, needs it to put its result and backward on the tape.
EXEMPT = {("tensor", "_make")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str, own: str) -> set:
    """(module, name) of each private name of another vgram module that
    ``source``, module ``own``, imports or reads as an attribute."""
    tree = ast.parse(source)
    modules = {}    # local name -> the vgram module it is bound to
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "vgram" and len(parts) == 2 and alias.asname:
                    modules[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "vgram":
            for alias in node.names:
                if node.module == "vgram":
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.add((node.module.split(".")[1], alias.name))

    def module_of(expr):
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id == "vgram":
            return expr.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            module = module_of(node.value)
            if module is not None:
                found.add((module, node.attr))
    return {(module, name) for module, name in found if module != own}


def test_no_module_reads_another_modules_private_names():
    reads = {path.stem: private_reads(path.read_text(), path.stem)
             for path in sorted(SRC.glob("*.py"))}
    assert "dmv_graph" in reads and "chart" in reads
    crossing = {stem: found - EXEMPT for stem, found in reads.items() if found - EXEMPT}
    assert crossing == {}
    # an exemption nothing uses any more is dropped
    assert set().union(*reads.values()) == EXEMPT


def test_every_form_of_reach_is_found():
    source = """
import vgram.chart as C
import vgram.tensor
from vgram import data, model as M
from vgram.core import _first, Token, __name__
from vgram.align import _second as second

def f():
    from vgram.config import _third
    return C._a, vgram.tensor._b, data._c, M._d, C.public, C.__doc__, _own._e
"""
    assert private_reads(source, "metrics") == {
        ("core", "_first"), ("align", "_second"), ("config", "_third"),
        ("chart", "_a"), ("tensor", "_b"), ("data", "_c"), ("model", "_d")}
    assert ("chart", "_a") not in private_reads(source, "chart")
