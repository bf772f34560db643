"""The package root: each public name is listed once, in its module's __all__."""

import ast
import inspect
from pathlib import Path

import qchar
from qchar import affine, identities, qseries, quadform

MODULES = (qseries, quadform, affine, identities)
PROGRAM = (Path(qchar.__file__).parent, Path(__file__).resolve().parent.parent / "perfbench")


def test_root_exports_the_module_lists_once():
    names = [name for module in MODULES for name in module.__all__]
    # no name in two modules, so no star import shadows another
    assert len(names) == len(set(names))
    assert sorted(qchar.__all__) == sorted(names + ["__version__"])
    assert len(qchar.__all__) == 34
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qchar, name) is getattr(module, name), name


def references(node, own=frozenset()):
    """The names a syntax tree reads: loaded names, attributes and name strings.

    __all__ lists are skipped, and so is a def's or a class's use of its own
    name inside its body.  Strings count because getattr tables name
    functions by string; a string standing alone as a statement is a
    docstring, prose that calls nothing, and is skipped.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        own = own | {node.name}
    if isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    ):
        return
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        name = None
    if name is not None and name not in own:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from references(child, own)


def program_references() -> set:
    read = set()
    for root in PROGRAM:
        for path in sorted(root.glob("*.py")):
            read.update(references(ast.parse(path.read_text(), str(path))))
    return read


def test_every_export_has_a_caller_in_the_program():
    # a public name that only the tests call belongs with the tests; the
    # version string is metadata for installers and readers, not a program path
    unused = sorted(set(qchar.__all__) - {"__version__"} - program_references())
    assert unused == []


def test_every_public_method_has_a_caller_in_the_program():
    # methods, staticmethods and properties of the exported classes, matched
    # by name like the exports; dataclass fields are data, not methods
    read = program_references()
    unused = []
    for name in qchar.__all__:
        cls = getattr(qchar, name)
        if not inspect.isclass(cls):
            continue
        fields = getattr(cls, "__dataclass_fields__", {})
        for attr in vars(cls):
            if not attr.startswith("_") and attr not in fields and attr not in read:
                unused.append(f"{name}.{attr}")
    assert unused == []
