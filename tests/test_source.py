"""Checks on the package source itself."""

import ast
from pathlib import Path

import qfox

SRC = Path(qfox.__file__).parent


def test_no_tuple_of_a_generator_expression():
    """tuple(<generator>) allocates for 10 items and resizes, and CPython
    then frees the finished tuple onto the free list of its final size,
    which it was never taken from.  Every call leaves one more tuple on a
    free list (up to 2000 per size), so a long run of polynomial arithmetic
    grows the resident set until a gc.collect().  tuple([...]) is sized from
    the list and reuses the free list."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and node.args
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
