"""Diagonal generator, its semigroup and its resolvent.

State vectors are plain complex numpy arrays of length N (the truncation
order). All operations are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SpectrumError, StabilityError


def as_state(x, n: int | None = None) -> np.ndarray:
    """Validate a state vector: 1-d, finite entries, optional length check."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1:
        raise DimensionError(f"state vector must be 1-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("state vector has non-finite entries")
    if n is not None and arr.shape[0] != n:
        raise DimensionError(f"state vector has length {arr.shape[0]}, expected {n}")
    return arr


@dataclass(frozen=True)
class DiagonalGenerator:
    """Diagonal generator with eigenvalues alpha_n and stability bound K*e^(omega*t).

    The eigenvalues are stored in already-shifted, exponentially stable form:
    Re(alpha_n) <= omega < 0. ``shift`` records the rescaling lambda0 >= 0 that
    produced them, so reports can name both the original and shifted system.
    """

    eigenvalues: np.ndarray
    shift: float = 0.0
    k: float = 1.0
    omega: float = -1.0

    def __post_init__(self):
        # NaN fails every comparison, so each bound states what must hold; a
        # declared shift is checked before the eigenvalues it produced
        if not (np.isfinite(self.k) and self.k >= 1.0):
            raise DomainError(f"stability constant K must be finite and >= 1, got {self.k}")
        if not (np.isfinite(self.shift) and self.shift >= 0.0):
            raise DomainError(f"shift must be finite and >= 0, got {self.shift}")
        eig = np.asarray(self.eigenvalues, dtype=complex)
        if eig.ndim != 1 or eig.size == 0:
            raise DimensionError("eigenvalues must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(eig)):
            raise DomainError("eigenvalues must be finite")
        if not self.omega < 0:
            raise StabilityError(f"omega must be negative, got {self.omega}")
        if np.max(eig.real) > self.omega:
            raise StabilityError(
                f"Re(alpha) <= omega violated: max Re(alpha) = {np.max(eig.real)}, "
                f"omega = {self.omega} (declare a shift that stabilizes the spectrum)"
            )
        eig.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def order(self) -> int:
        return self.eigenvalues.shape[0]


def semigroup_apply(gen: DiagonalGenerator, t: float, x) -> np.ndarray:
    """Apply T(t): entrywise e^(alpha_n t) x_n. Requires t >= 0."""
    if t < 0:
        raise DomainError(f"semigroup time must be >= 0, got {t}")
    xv = as_state(x, gen.order)
    return np.exp(gen.eigenvalues * t) * xv


def resolvent_apply(gen: DiagonalGenerator, lam: complex, x) -> np.ndarray:
    """Apply R(lambda, A): entrywise x_n / (lambda - alpha_n).

    Only the half-plane Re(lambda) > omega is admitted; it contains no
    eigenvalue, so the division below is always well defined.
    """
    lam = complex(lam)
    if not lam.real > gen.omega:
        raise SpectrumError(
            f"lambda = {lam} outside the resolvent half-plane Re(lambda) > {gen.omega}"
        )
    xv = as_state(x, gen.order)
    return xv / (lam - gen.eigenvalues)
