import ast
import pathlib
import sys

import coldpa

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def test_package_imports_only_stdlib_numpy_and_scipy():
    # coldpa's only third-party dependencies are numpy and scipy
    src = pathlib.Path(coldpa.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in ALLOWED]
    assert not found, f"imports outside stdlib, numpy and scipy: {found}"


def test_every_imported_name_is_used():
    # no linter is part of the toolchain; this is the unused-import check
    src = pathlib.Path(coldpa.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    bound[a.asname or a.name.partition(".")[0]] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for a in node.names:
                    bound[a.asname or a.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["__all__"]):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}"
                   for name, line in bound.items() if name not in used]
    assert not unused, f"imported names never used: {unused}"


# module-level names that package code never reads, kept on purpose
UNCALLED_ALLOWED = {
    # the closed form test_kinetic_energy_of_momentum_features compares to
    ("units.py", "kinetic_energy"),
}


def test_every_private_definition_is_used():
    # a module-level function or class outside coldpa.__all__ must be read
    # somewhere in the package, or it is a path that nothing takes; so must
    # every method and property other than a dunder, read as an attribute
    # by the package or the benchmark scripts (a local variable of the same
    # name does not count, nor does a test)
    src = pathlib.Path(coldpa.__file__).parent
    bench = pathlib.Path(__file__).parent.parent / "bench"
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))}
    pkg = [node for tree in trees.values() for node in ast.walk(tree)]
    scripts = [node for path in sorted(bench.glob("*.py"))
               if not path.name.startswith("test_")
               for node in ast.walk(ast.parse(path.read_text(), str(path)))]
    attrs = {node.attr for node in pkg + scripts
             if isinstance(node, ast.Attribute)}
    read = {node.id for node in pkg if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in pkg if isinstance(node, ast.Attribute)}
    dead = [f"{name}:{node.lineno} {node.name}"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in coldpa.__all__ and node.name not in read
            and (name, node.name) not in UNCALLED_ALLOWED]
    dead += [f"{name}:{node.lineno} {cls.name}.{node.name}"
             for name, tree in trees.items() for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef)
             and not (node.name.startswith("__") and node.name.endswith("__"))
             and node.name not in attrs]
    assert not dead, f"definitions nothing outside the tests uses: {dead}"


def test_every_checked_lapack_routine_has_a_failure_case():
    # each routine spectrum names in a failure message is made to fail once
    src = pathlib.Path(coldpa.__file__).parent / "spectrum.py"
    checked = {node.args[1].value
               for node in ast.walk(ast.parse(src.read_text(), str(src)))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_check"}
    test = pathlib.Path(__file__).parent / "test_spectrum.py"
    cases = set()
    for node in ast.walk(ast.parse(test.read_text(), str(test))):
        if (isinstance(node, ast.FunctionDef) and node.name
                == "test_lapack_failure_names_routine_and_channel"):
            for deco in node.decorator_list:
                cases |= {case[0] for case in
                          ast.literal_eval(deco.args[1])}
    missing = sorted(checked - cases)
    assert checked and not missing, (
        f"LAPACK routines with no failure case: {missing}")


def test_propagation_has_one_lanczos():
    # the propagator's own Lanczos serves both its exponentials and its
    # spectral top, so it takes nothing from scipy.sparse.linalg (ARPACK)
    src = pathlib.Path(coldpa.__file__).parent / "propagation.py"
    found = []
    for node in ast.walk(ast.parse(src.read_text(), str(src))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append(node.module)
    assert "scipy" in {name.partition(".")[0] for name in found}
    assert not [name for name in found
                if name.startswith("scipy.sparse.linalg")], found
