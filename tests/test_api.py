"""The package exports the API the README documents, src/ holds no function
or class, public or private, that nothing in the package uses and nothing
exports, no module reads the environment or starts threads, none but signals
forms the drive u B^T, and none imports scipy when it is loaded."""

import ast
from collections import Counter
from pathlib import Path

import wellposed

DOCUMENTED = [
    "CertificateIncompleteError",
    "DimensionError",
    "DomainError",
    "HorizonError",
    "InternalError",
    "PreconditionError",
    "SchemaError",
    "SpectrumError",
    "StabilityError",
    "WellposedError",
    "DiagonalGenerator",
    "SpectralSystem",
    "build_system",
    "describe_system",
    "HeatConfig",
    "build_heat_system",
    "reconstruct_temperature",
    "certify_system",
    "canonical_json",
    "verify_resolvent_entries",
    "Signal",
    "read_signal_csv",
    "write_signal_csv",
    "ExtendedState",
    "step_extended_state",
    "save_extended_state",
    "load_extended_state",
    "observe_trajectory",
    "control_to_state",
    "input_output_map",
    "semigroup_law_residual",
]


def unused_definitions(package_dir: Path, exported) -> list[str]:
    """module.name of each top-level def or class in package_dir, public or
    private, and module.Class.name of each public method of a public class,
    that is not in exported and that no module of the package, __init__
    aside, names anywhere but in its own definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}

    def names(node) -> Counter:
        return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                       for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))

    used = sum((names(tree) for stem, tree in trees.items() if stem != "__init__"), Counter())

    found = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((f"{stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [(f"{stem}.{node.name}.{method.name}", method) for method in node.body
                          if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")]
    return [where for where, node in found
            if node.name not in exported and used[node.name] == names(node)[node.name]]


def _private(where: str) -> bool:
    return where.rsplit(".", 1)[-1].startswith("_")


def test_all_is_the_documented_api():
    assert sorted(wellposed.__all__) == sorted(DOCUMENTED)
    assert len(set(wellposed.__all__)) == len(wellposed.__all__)
    for name in wellposed.__all__:
        assert hasattr(wellposed, name), name


def test_every_public_definition_is_used_or_exported():
    package_dir = Path(wellposed.__file__).parent
    assert [where for where in unused_definitions(package_dir, DOCUMENTED)
            if not _private(where)] == []


def test_every_private_definition_is_used():
    # a private helper left behind when its last caller goes, such as a
    # second in-place spelling of a formula, fails here
    package_dir = Path(wellposed.__file__).parent
    assert list(filter(_private, unused_definitions(package_dir, DOCUMENTED))) == []


def test_unused_definitions_sees_orphans(tmp_path):
    # a helper named only inside its own body, or only where it is defined,
    # is an orphan; one named by another module, or exported, is not
    (tmp_path / "__init__.py").write_text("from .a import _orphan, api\n")
    (tmp_path / "a.py").write_text(
        "def _orphan(n):\n    return _orphan(n - 1) if n else 0\n\n"
        "def _helper():\n    return 1\n\n"
        "def api():\n    return 2\n\n"
        "class _Box:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import _helper\n\nX = _helper()\n")
    assert unused_definitions(tmp_path, ["api"]) == ["a._orphan", "a._Box"]


def test_no_environment_or_thread_knobs():
    # every setting is a parameter or a constant: no module reads os.environ
    # or os.getenv, or imports concurrent.futures or threading
    package_dir = Path(wellposed.__file__).parent
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name in ("environ", "getenv")
                      or name.split(".")[0] in ("concurrent", "threading")]
    assert found == []


def test_no_module_forms_the_drive():
    # signals' kernels take the control matrix and form the drive u B^T a
    # block of rows at a time: no other module multiplies by <expr>.control.T
    package_dir = Path(wellposed.__file__).parent
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                right = node.right
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
                right = node.value
            else:
                continue
            if (isinstance(right, ast.Attribute) and right.attr == "T"
                    and isinstance(right.value, ast.Attribute)
                    and right.value.attr == "control"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_top_level_scipy_import():
    # scipy is imported inside the one function that reads it, so that
    # `import wellposed` loads none of it; a function body runs only when called
    package_dir = Path(wellposed.__file__).parent
    found = []
    for path in sorted(package_dir.glob("*.py")):
        stack = list(ast.parse(path.read_text()).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []
