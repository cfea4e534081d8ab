import ast
from pathlib import Path

import balancedgraphs as bg

SOURCES = sorted(Path(bg.__file__).parent.glob("*.py"))


def test_no_tuple_built_from_a_generator():
    # tuple(<generator>) starts at 10 slots and resizes; CPython keeps freed
    # tuples of up to 20 slots on per-size free lists (2000 each) that only
    # a full collection empties, so a long run of CLI calls parks thousands
    # of them and peak_rss_mb grows.  tuple([...]) allocates the final size.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found


def test_no_module_uses_functools_cached_property():
    # on Python 3.11 its first read takes a lock, several times the cost of
    # _record.cached, which stores the value the same way without one
    found = [p.name for p in SOURCES if "cached_property" in p.read_text(encoding="utf-8")]
    assert SOURCES and not found, found


def test_one_integer_rule():
    # an integer is a value of type exactly int (see _documents); a second
    # predicate such as isinstance(x, int) admits bools and IntEnum members,
    # so readers and constructors would disagree on what they accept
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "is_int":
                found.append(f"{path.name}:{node.lineno} defines is_int")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            types = node.args[1:2]
            if types and isinstance(types[0], ast.Tuple):
                types = types[0].elts
            if name == "is_int" or (
                name == "isinstance"
                and any(isinstance(t, ast.Name) and t.id == "int" for t in types)
            ):
                found.append(f"{path.name}:{node.lineno} calls {name}")
    assert SOURCES and not found, found


def test_records_own_equality_and_unchecked_construction():
    # every value type is a _record.Record: equality, hashing and building a
    # value without its checks are defined there once, and no function
    # takes a switch that turns a constructor's checks off
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if path.name != "_record.py" and node.name in ("__eq__", "__hash__", "_unchecked"):
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if any(a is not None and a.arg == "check" for a in params):
                found.append(f"{path.name}:{node.lineno} {node.name} takes check")
    assert SOURCES and not found, found


def test_no_module_reads_another_modules_private_names():
    # a module's underscore names are its own: another module reading one,
    # as module._name or through from .module import _name, depends on a
    # decision the owner may change without looking outside itself
    modules = {path.stem for path in SOURCES}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()  # names this module binds to other package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        bound.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.append(f"{path.name}:{node.lineno} imports {alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
            ):
                found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert SOURCES and not found, found
