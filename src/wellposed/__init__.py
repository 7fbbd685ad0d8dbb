"""Block-semigroup simulation and p-well-posedness certification for diagonal
systems with boundary-type control and observation.

The package models a truncated diagonal generator with control columns,
observation rows, and feedthrough; simulates the associated block semigroup on
(past outputs) x (state) x (future inputs); and certifies 2-well-posedness by
combining admissibility Gram matrices, a Fourier multiplier scan, and Laplace
transform consistency checks into one deterministic certificate document.

The names below are the documented API; every other function lives in its
submodule (spectral, signals, laxphillips, admissibility, system, laplace,
heat, certificate).
"""

from .certificate import canonical_json, certify_system
from .errors import (
    CertificateIncompleteError,
    DimensionError,
    DomainError,
    HorizonError,
    InternalError,
    PreconditionError,
    SchemaError,
    SpectrumError,
    StabilityError,
    WellposedError,
)
from .heat import HeatConfig, build_heat_system, reconstruct_temperature
from .laplace import verify_resolvent_entries
from .laxphillips import (
    ExtendedState,
    control_to_state,
    input_output_map,
    load_extended_state,
    observe_trajectory,
    save_extended_state,
    semigroup_law_residual,
    step_extended_state,
)
from .signals import Signal, read_signal_csv, write_signal_csv
from .spectral import DiagonalGenerator
from .system import SpectralSystem, build_system, describe_system

__version__ = "0.1.0"

__all__ = [
    "CertificateIncompleteError",
    "DiagonalGenerator",
    "DimensionError",
    "DomainError",
    "ExtendedState",
    "HeatConfig",
    "HorizonError",
    "InternalError",
    "PreconditionError",
    "SchemaError",
    "Signal",
    "SpectralSystem",
    "SpectrumError",
    "StabilityError",
    "WellposedError",
    "build_heat_system",
    "build_system",
    "canonical_json",
    "certify_system",
    "control_to_state",
    "describe_system",
    "input_output_map",
    "load_extended_state",
    "observe_trajectory",
    "read_signal_csv",
    "reconstruct_temperature",
    "save_extended_state",
    "semigroup_law_residual",
    "step_extended_state",
    "verify_resolvent_entries",
    "write_signal_csv",
]
