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
