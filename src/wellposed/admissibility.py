"""Admissibility constants for p = 2 via Gram matrices, and the global
constants that extend them from one window [0, t0] to all times.

The observation constant bounds the squared-norm integral (the p-th power),
while the control constant bounds the norm itself; the global formulas below
take the constants exactly in those units, so the asymmetry is kept verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalError, PreconditionError, StabilityError
from .signals import phi1
from .system import MultiplierReport, SpectralSystem

_MAX_GRAM_ORDER = 4096


@dataclass(frozen=True)
class PairInterval:
    """Sandwich for the input-output operator norm: the true value lies in
    [lower, upper]; certificates use the upper end."""

    lower: float
    upper: float


@dataclass(frozen=True)
class GlobalConstants:
    m_c: float
    m_b: float
    m_bc: float


@dataclass(frozen=True)
class AdmissibilityReport:
    t0: float
    p: float
    m_obs: float
    m_ctl: float
    m_pair: PairInterval
    constants: GlobalConstants
    k: float
    omega: float


def _pair_kernel(w: np.ndarray, t0: float) -> np.ndarray:
    # (e^(w t0) - 1)/w, stable near w = 0
    if np.any(np.abs(w) == 0.0):
        raise InternalError("eigenvalue pair sum hit zero despite stability")
    return t0 * phi1(w * t0)


def observation_gram(sys: SpectralSystem, t0: float) -> tuple[np.ndarray, float]:
    """Gram matrix of s -> C e^(As) on [0, t0] and its largest eigenvalue M_obs,
    the smallest constant with int_0^t0 ||C e^(As) x||^2 ds <= M_obs ||x||^2."""
    if not t0 > 0:
        raise DomainError(f"t0 must be > 0, got {t0}")
    if sys.n_modes > _MAX_GRAM_ORDER:
        raise DomainError(f"Gram path supports up to {_MAX_GRAM_ORDER} modes")
    alpha = sys.gen.eigenvalues
    w = np.conj(alpha)[:, None] + alpha[None, :]
    gram = (sys.observation.conj().T @ sys.observation) * _pair_kernel(w, t0)
    gram = 0.5 * (gram + gram.conj().T)
    m_obs = float(max(np.linalg.eigvalsh(gram)[-1], 0.0))
    return gram, m_obs


def control_gram(sys: SpectralSystem, t0: float) -> tuple[np.ndarray, float]:
    """Gram matrix of the reachability map on [0, t0] and M_ctl, the smallest
    constant with ||int_0^t0 e^(A(t0-r)) B u(r) dr|| <= M_ctl ||u||_2."""
    if not t0 > 0:
        raise DomainError(f"t0 must be > 0, got {t0}")
    if sys.n_modes > _MAX_GRAM_ORDER:
        raise DomainError(f"Gram path supports up to {_MAX_GRAM_ORDER} modes")
    alpha = sys.gen.eigenvalues
    w = alpha[:, None] + np.conj(alpha)[None, :]
    gram = (sys.control @ sys.control.conj().T) * _pair_kernel(w, t0)
    gram = 0.5 * (gram + gram.conj().T)
    m_ctl = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    return gram, m_ctl


def pair_constant(scan: MultiplierReport | None) -> PairInterval:
    """Norm sandwich for the input-output operator at p = 2: by Plancherel it
    equals the essential sup of the multiplier symbol, which the scan brackets
    as [gridSup, upperBound]."""
    if scan is None:
        raise PreconditionError("pair constant needs a multiplier scan")
    return PairInterval(scan.grid_sup, scan.upper_bound)


def global_constants(m_obs: float, m_ctl: float, m_pair: float, k: float,
                     omega: float, p: float = 2.0, t0: float = 1.0) -> GlobalConstants:
    """Window-uniform constants built from the [0, t0] constants:

        M_C  = M_obs + M_obs K^p / (1 - e^(p omega t0))
        M_B  = M_ctl K + M_ctl K / (1 - e^(omega t0))
        M_BC = M_pair + M_C^(1/p) M_B K / (1 - e^(omega))

    M_BC is stated for the unit window (t0 = 1 normalization); reports carry
    the normalization alongside the value.
    """
    if omega >= 0:
        raise StabilityError(f"omega must be negative, got {omega}")
    if not t0 > 0:
        raise DomainError(f"t0 must be > 0, got {t0}")
    if k < 1:
        raise DomainError(f"K must be >= 1, got {k}")
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if min(m_obs, m_ctl, m_pair) < 0:
        raise DomainError("local constants must be >= 0")
    m_c = m_obs + m_obs * k**p / (1.0 - math.exp(p * omega * t0))
    m_b = m_ctl * k + m_ctl * k / (1.0 - math.exp(omega * t0))
    m_bc = m_pair + m_c ** (1.0 / p) * m_b * k / (1.0 - math.exp(omega))
    return GlobalConstants(m_c, m_b, m_bc)


def admissibility_report(sys: SpectralSystem, t0: float,
                         scan: MultiplierReport | None,
                         p: float = 2.0) -> AdmissibilityReport:
    """Assemble the local constants and their global extensions in one report."""
    _, m_obs = observation_gram(sys, t0)
    _, m_ctl = control_gram(sys, t0)
    pair = pair_constant(scan)
    consts = global_constants(m_obs, m_ctl, pair.upper, sys.gen.k,
                              sys.gen.omega, p, t0)
    return AdmissibilityReport(t0, p, m_obs, m_ctl, pair, consts,
                               sys.gen.k, sys.gen.omega)
