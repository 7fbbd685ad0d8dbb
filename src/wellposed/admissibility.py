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
from .system import MultiplierReport, SpectralSystem

_MAX_GRAM_ORDER = 4096

# Grams up to this order keep the dense eigensolver; larger ones use Lanczos
_DENSE_EIG_ORDER = 64

# relative shift above the Lanczos value that the Cholesky guard checks
_GUARD_REL = 1e-11


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


def _check_window(sys: SpectralSystem, t0: float) -> None:
    if not t0 > 0:
        raise DomainError(f"t0 must be > 0, got {t0}")
    if sys.n_modes > _MAX_GRAM_ORDER:
        raise DomainError(f"Gram path supports up to {_MAX_GRAM_ORDER} modes")


def _gram_kernel(alpha: np.ndarray, t0: float) -> np.ndarray:
    """K_ij = int_0^t0 e^(w_ij s) ds with w_ij = conj(alpha_i) + alpha_j, the
    observation Gram's kernel; the control Gram's is exactly its conjugate.

    K_ij = (conj(e_i) e_j - 1)/w_ij from the N exponentials e = e^(alpha t0),
    so no N x N exponential is formed, except where the numerator
    |conj(e_i) e_j - 1| is below 1/2: it cancels there, and expm1(w_ij t0)/w_ij
    takes those entries.
    """
    w = np.conj(alpha)[:, None] + alpha[None, :]
    if np.any(w == 0.0):
        raise InternalError("eigenvalue pair sum hit zero despite stability")
    e = np.exp(alpha * t0)
    kernel = np.conj(e)[:, None] * e[None, :]
    kernel -= 1.0
    small = np.abs(kernel) < 0.5
    if np.any(small):
        kernel[small] = np.expm1(w[small] * t0)
    kernel /= w
    return kernel


def _top_eigenvalue(gram: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian Gram.

    Orders up to _DENSE_EIG_ORDER use the dense eigensolver. Larger ones take
    the Lanczos (ARPACK) Ritz value theta and keep it only if the Cholesky
    factorisation of theta (1 + _GUARD_REL) I - G succeeds, which shows that
    no eigenvalue lies above that shift (Rump, Acta Numerica 2010). An
    unconverged or rejected theta falls back to the dense eigensolver.
    """
    n = gram.shape[0]
    if not np.any(gram):
        return 0.0
    if n > _DENSE_EIG_ORDER:
        # imported here: scipy.sparse.linalg would slow every package import
        from scipy.linalg import LinAlgError, cho_factor
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        # a fixed start vector keeps the value deterministic
        v0 = np.random.default_rng(0).standard_normal(n).astype(gram.dtype)
        try:
            theta = float(eigsh(gram, k=1, which="LA", v0=v0, tol=0,
                                return_eigenvectors=False)[0])
            shifted = np.negative(gram, order="F")
            shifted[np.diag_indices(n)] += theta * (1.0 + _GUARD_REL)
            cho_factor(shifted, overwrite_a=True, check_finite=False)
            return theta
        except (ArpackNoConvergence, LinAlgError):
            pass
    return float(np.linalg.eigvalsh(gram)[-1])


def _gram(outer: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, float]:
    gram = outer * kernel
    gram = 0.5 * (gram + gram.conj().T)
    return gram, max(_top_eigenvalue(gram), 0.0)


def observation_gram(sys: SpectralSystem, t0: float, *,
                     _kernel: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Gram matrix of s -> C e^(As) on [0, t0] and its largest eigenvalue M_obs,
    the smallest constant with int_0^t0 ||C e^(As) x||^2 ds <= M_obs ||x||^2.

    ``_kernel`` is the kernel admissibility_report shares between the Grams."""
    _check_window(sys, t0)
    kernel = _gram_kernel(sys.gen.eigenvalues, t0) if _kernel is None else _kernel
    return _gram(sys.observation.conj().T @ sys.observation, kernel)


def control_gram(sys: SpectralSystem, t0: float, *,
                 _kernel: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Gram matrix of the reachability map on [0, t0] and M_ctl, the smallest
    constant with ||int_0^t0 e^(A(t0-r)) B u(r) dr|| <= M_ctl ||u||_2.

    ``_kernel`` is the kernel admissibility_report shares between the Grams,
    already conjugated."""
    _check_window(sys, t0)
    if _kernel is None:
        _kernel = np.conj(_gram_kernel(sys.gen.eigenvalues, t0))
    gram, top = _gram(sys.control @ sys.control.conj().T, _kernel)
    return gram, math.sqrt(top)


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
    _check_window(sys, t0)
    # one kernel for both Grams; [1] drops each Gram as soon as it is read
    kernel = _gram_kernel(sys.gen.eigenvalues, t0)
    m_obs = observation_gram(sys, t0, _kernel=kernel)[1]
    m_ctl = control_gram(sys, t0, _kernel=np.conj(kernel, out=kernel))[1]
    pair = pair_constant(scan)
    consts = global_constants(m_obs, m_ctl, pair.upper, sys.gen.k,
                              sys.gen.omega, p, t0)
    return AdmissibilityReport(t0, p, m_obs, m_ctl, pair, consts,
                               sys.gen.k, sys.gen.omega)
