"""The package exports the API the README documents, src/ holds no public
function or class that nothing in the package uses and nothing exports, no
module reads the environment or starts threads, and none imports scipy when
it is loaded."""

import ast
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


def unused_public_definitions(package_dir: Path, exported) -> list[str]:
    """module.name of each public top-level def or class in package_dir, and
    module.Class.name of each public method of a public class, that is not in
    exported and that no module of the package, __init__ aside, names anywhere
    but in its own definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}
    used = set()
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)

    def public(nodes, kinds):
        return [node for node in nodes if isinstance(node, kinds)
                and not node.name.startswith("_")]

    found = []
    for stem, tree in trees.items():
        for node in public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            found.append((f"{stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [(f"{stem}.{node.name}.{method.name}", method.name)
                          for method in public(node.body, ast.FunctionDef)]
    return [where for where, name in found if name not in exported and name not in used]


def test_all_is_the_documented_api():
    assert sorted(wellposed.__all__) == sorted(DOCUMENTED)
    assert len(set(wellposed.__all__)) == len(wellposed.__all__)
    for name in wellposed.__all__:
        assert hasattr(wellposed, name), name


def test_every_public_definition_is_used_or_exported():
    package_dir = Path(wellposed.__file__).parent
    assert unused_public_definitions(package_dir, DOCUMENTED) == []


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
