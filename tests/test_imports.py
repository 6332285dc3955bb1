import ast
import pathlib
import sys

import simpcat

MODULES = sorted(pathlib.Path(simpcat.__file__).parent.glob("*.py"))


def imported_names(tree):
    """(module, bound name) for each import in the module: the module is
    None for a relative import, which names a simpcat module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            module = None if node.level else node.module
            for alias in node.names:
                yield module, alias.asname or alias.name


def test_modules_import_only_stdlib_and_simpcat_and_use_every_name():
    # the library has no runtime dependencies, and a refactor leaves no
    # import behind
    assert MODULES
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for module, name in imported_names(tree):
            if module is not None:
                root = module.split(".")[0]
                assert root in sys.stdlib_module_names or \
                    root == "simpcat", (path.name, module)
            assert name in used, (path.name, name)


def getitem_lines(tree):
    """The lines that name some x.__getitem__: passed to map, it composes
    index tables by hand."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr == "__getitem__"})


def test_segal_composes_index_tables_only_through_tcompose():
    # segal composes every index table through delta.tcompose, the one
    # composition of the library; neither map(x.__getitem__, ...) nor a
    # bound x.__getitem__ handed on may come back
    assert getitem_lines(ast.parse(
        "y = list(map(a.__getitem__, b))\nget = c.__getitem__\n")) == [1, 2]
    path = pathlib.Path(simpcat.__file__).parent / "segal.py"
    assert getitem_lines(ast.parse(path.read_text())) == []
