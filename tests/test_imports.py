import ast
import pathlib
import re
import sys

import simpcat

ROOT = pathlib.Path(simpcat.__file__).parents[2]
MODULES = sorted(pathlib.Path(simpcat.__file__).parent.glob("*.py"))
README = ROOT / "README.md"
# the code outside src/ that calls the library and reads its fields
READERS = [path for directory in ("tests", "perfbench")
           for path in sorted((ROOT / directory).glob("*.py"))]


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


def unreached(sources, readme):
    """(file, name) for each top-level function and class of sources
    ({file name: source}) that no other top-level statement of sources
    uses and no code span of readme names.

    A Name uses the definition its module binds to it: its own, or the
    one a `from .m import name [as alias]` brings in.  An Attribute m.name
    uses name of m only where `from . import m` binds m, so a method or
    attribute that shares a function's name does not count."""
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`",
                                                        readme))))
    users = {}  # (module, name) -> the top-level statements that use it
    definitions = []
    for name, source in sorted(sources.items()):
        module, tree = name[:-3], ast.parse(source)
        bound, modules = {}, {}  # local name -> (module, name); -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        bound[alias.asname or alias.name] = (node.module,
                                                             alias.name)
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    used = bound.get(node.id, (module, node.id))
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id in modules:
                    used = (modules[node.value.id], node.attr)
                else:
                    continue
                users.setdefault(used, set()).add(statement)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((name, statement))
    return [(name, node.name) for name, node in definitions
            if node.name not in named
            and not users.get((name[:-3], node.name), set()) - {node}]


def test_src_keeps_only_what_the_system_reaches():
    # every top-level function and class is used elsewhere in src/ or
    # named in the README tour, so code that nothing reaches cannot stay
    example = ("def f():\n    return f()\n\n\ndef g():\n    return h()\n"
               "\n\ndef h():\n    pass\n\n\nclass K:\n    pass\n")
    assert unreached({"m.py": example}, "") == [("m.py", "f"), ("m.py", "g"),
                                                ("m.py", "K")]
    assert unreached({"m.py": example}, "`f()`, `g` and `K`") == []
    # a function is not used by a method, or a call of one, that shares
    # its name, nor by a name of another module; it is used through an
    # import, under an alias too, and as an attribute of its module
    shadowed = ("def size():\n    pass\n\n\ndef top():\n    pass\n\n\n"
                "def low():\n    pass\n")
    user = ("from . import m\nfrom .m import low as floor\n\n\n"
            "class K:\n    def size(self):\n        return self.size()\n"
            "\n    def top(self):\n        return floor(), m.top\n\n\n"
            "def size():\n    return K().size(), K.top\n")
    assert unreached({"m.py": shadowed, "n.py": user}, "`K`") == [
        ("m.py", "size"), ("n.py", "size")]
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreached(sources, README.read_text()) == []


def methods(tree):
    """{method node: its class} for each function defined in a class
    body."""
    return {node: cls for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef)}


def unset_defaults(sources, readers):
    """(file, function, parameter) for each parameter default of the
    functions and methods of sources ({file name: source}) that no call
    in sources or readers sets to another value.

    A call names its function by the last name of its callee: f(...),
    m.f(...) and x.f(...) call every f, and K(...) calls K.__init__.  It
    sets a parameter by keyword, by position (self and cls not counted),
    or through *args or **kwargs; passing the default's own expression
    does not set it."""
    calls = {}  # callee name -> the calls of that name
    for source in list(sources.values()) + list(readers.values()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                calls.setdefault(name, []).append(node)

    def sets(call, position, name, default):
        if any(k.arg is None for k in call.keywords) or \
                any(isinstance(a, ast.Starred) for a in call.args):
            return True
        given = [k.value for k in call.keywords if k.arg == name]
        if position is not None:
            given += call.args[position:position + 1]
        return any(ast.dump(v) != ast.dump(default) for v in given)
    found = []
    for file, source in sorted(sources.items()):
        tree = ast.parse(source)
        owner = methods(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            name, callee = node.name, node.name
            if node in owner:
                positional = positional[1:]
                name = "%s.%s" % (owner[node].name, node.name)
                if node.name == "__init__":
                    callee = owner[node].name
            first = len(positional) - len(args.defaults)
            defaults = [(first + i, arg.arg, default) for i, (arg, default)
                        in enumerate(zip(positional[first:], args.defaults))]
            defaults += [(None, arg.arg, default) for arg, default
                         in zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None]
            found += [(file, name, arg) for position, arg, default in defaults
                      if not any(sets(call, position, arg, default)
                                 for call in calls.get(callee, ()))]
    return found


def test_src_has_no_parameter_default_that_no_call_sets():
    # a default that every call leaves alone is a constant in disguise
    toy = ("def f(a, b=1, *, c=None):\n    pass\n\n\n"
           "class K:\n    def __init__(self, x, y=0):\n        pass\n\n"
           "    def m(self, z=2):\n        pass\n")
    assert unset_defaults({"m.py": toy}, {"t.py": "f(0, 1, c=None)\nK(1)\n"}
                          ) == [("m.py", "f", "b"), ("m.py", "f", "c"),
                                ("m.py", "K.__init__", "y"),
                                ("m.py", "K.m", "z")]
    assert unset_defaults({"m.py": toy}, {"t.py": "f(0, 2)\nf(0, **kw)\n"
                                          "K(1, *rest)\nk.m(z=3)\n"}) == []
    sources = {path.name: path.read_text() for path in MODULES}
    readers = {str(path): path.read_text() for path in READERS}
    assert unset_defaults(sources, readers) == []


def unread_fields(sources, readers):
    """(file, class, attribute) for each attribute that a method of
    sources stores on self and that no code of sources or readers loads,
    on any object."""
    loaded = {node.attr
              for source in list(sources.values()) + list(readers.values())
              for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    found = set()
    for file, source in sorted(sources.items()):
        for method, cls in methods(ast.parse(source)).items():
            found.update((file, cls.name, node.attr)
                         for node in ast.walk(method)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Store)
                         and getattr(node.value, "id", None) == "self"
                         and node.attr not in loaded)
    return sorted(found)


def test_src_stores_no_field_that_nothing_reads():
    # a field nothing loads is data the system carries for no one
    toy = ("class K:\n    def __init__(self, a):\n        self.a = a\n"
           "        self.b = a\n        self.c = 0\n\n"
           "    def f(self):\n        self.c += 1\n        return self.a\n")
    assert unread_fields({"m.py": toy}, {}) == [("m.py", "K", "b"),
                                                ("m.py", "K", "c")]
    assert unread_fields({"m.py": toy}, {"t.py": "print(k.b, k.c)\n"}) == []
    sources = {path.name: path.read_text() for path in MODULES}
    readers = {str(path): path.read_text() for path in READERS}
    assert unread_fields(sources, readers) == []


def fincategory_calls(sources):
    """(file, line) for each call of FinCategory in sources ({file name:
    source}) outside nerve_cat.py and the loader category_from_dict of
    formats.py, by its callee's last name."""
    found = []
    for file, source in sorted(sources.items()):
        tree = ast.parse(source)
        allowed = set()
        for node in tree.body:
            if file == "nerve_cat.py" or (
                    file == "formats.py" and
                    getattr(node, "name", None) == "category_from_dict"):
                allowed.update(ast.walk(node))
        found += [(file, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and node not in allowed
                  and getattr(node.func, "id", getattr(
                      node.func, "attr", None)) == "FinCategory"]
    return found


def test_only_nerve_cat_and_the_loader_build_a_fincategory():
    # a category given by a composition rule is built by
    # nerve_cat.generated, and a document by formats.category_from_dict;
    # a composition table filled by hand elsewhere may not come back
    toy = ("def category_from_dict(d):\n    return FinCategory(d)\n\n\n"
           "def f():\n    return nerve_cat.FinCategory()\n")
    assert fincategory_calls({"formats.py": toy, "nerve_cat.py": toy,
                              "m.py": toy}) == [("formats.py", 6),
                                                ("m.py", 2), ("m.py", 6)]
    sources = {path.name: path.read_text() for path in MODULES}
    assert fincategory_calls(sources) == []
