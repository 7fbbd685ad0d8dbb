"""The package exports the API the README documents, and src/ holds no public
function or class that nothing in the package uses and nothing exports."""

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
    """module.name of each public top-level def or class in package_dir that
    is not in exported and that no module of the package, __init__ aside,
    names anywhere but in its own definition."""
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
    return [f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in exported and node.name not in used]


def test_all_is_the_documented_api():
    assert sorted(wellposed.__all__) == sorted(DOCUMENTED)
    assert len(set(wellposed.__all__)) == len(wellposed.__all__)
    for name in wellposed.__all__:
        assert hasattr(wellposed, name), name


def test_every_public_definition_is_used_or_exported():
    package_dir = Path(wellposed.__file__).parent
    assert unused_public_definitions(package_dir, DOCUMENTED) == []
