"""Boundary-controlled heat segment on [0, pi] in cosine-mode coordinates.

The Neumann Laplacian diagonalizes over e_n(s) = sqrt(eps_n/pi) cos(n s)
(eps_0 = 1, eps_n = 2), which turns the two boundary inputs and the midpoint
temperature reading into explicit row/column sequences. Everything here is
spectral; physical profiles exist only for display via
reconstruct_temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import DiagonalGenerator
from .system import HeatTail, SpectralSystem, _is_count

# relative distance from -n^2 at which a probe lies on the spectrum; the
# certificate's tolerance ledger records it
_SPECTRUM_TOL = 1e-12


@dataclass(frozen=True)
class HeatConfig:
    """Truncation order and spectral shift."""

    n_modes: int = 64
    lambda0: float = 1.0

    def __post_init__(self):
        if not _is_count(self.n_modes):
            raise DomainError(f"n_modes must be an integer >= 1, got {self.n_modes!r}")
        if not self.lambda0 > 0:
            raise DomainError(f"lambda0 must be > 0, got {self.lambda0}")


def mode_weights(n_modes: int) -> np.ndarray:
    """sqrt(eps_n / pi) for n = 0..N-1."""
    eps = np.full(n_modes, 2.0)
    eps[0] = 1.0
    return np.sqrt(eps / math.pi)


def build_heat_system(cfg: HeatConfig) -> SpectralSystem:
    """Shifted heat system: alpha_n = -lambda0 - n^2, two boundary inputs,
    one midpoint output, zero feedthrough."""
    n = np.arange(cfg.n_modes)
    w = mode_weights(cfg.n_modes)
    alpha = -(cfg.lambda0 + n.astype(float) ** 2) + 0j
    control = np.stack([-w, ((-1.0) ** n) * w], axis=1)
    observation = np.where(n % 2 == 0, ((-1.0) ** (n // 2)) * w, 0.0)[None, :]
    feedthrough = np.zeros((1, 2))
    gen = DiagonalGenerator(alpha, shift=cfg.lambda0, k=1.0, omega=-cfg.lambda0)
    return SpectralSystem(gen, control, observation, feedthrough,
                          tail=HeatTail(cfg.lambda0, channels=2),
                          exact=False, builtin="heat")


def reconstruct_temperature(x, s_grid) -> np.ndarray:
    """Temperature profile sum_n x_n e_n(s) on the sample points s_grid."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise DomainError(f"mode vector must be 1-d, got shape {x.shape}")
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    n = np.arange(x.shape[0])
    basis = mode_weights(x.shape[0])[None, :] * np.cos(np.outer(s, n))
    return basis @ x

