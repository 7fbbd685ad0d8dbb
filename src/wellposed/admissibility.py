"""Admissibility constants for p = 2 via Gram matrices, and the global
constants that extend them from one window [0, t0] to all times.

The observation constant bounds the squared-norm integral (the p-th power),
while the control constant bounds the norm itself; the global formulas below
take the constants exactly in those units, so the asymmetry is kept verbatim.

Both local constants come from the top eigenvalue of a Gram
G = int_0^t0 (R e^(As))^H (R e^(As)) ds, with R = C for the observation Gram
and R = B^T for the control Gram. The latter is the conjugate of the
reachability Gram, with the same spectrum. One dense eigensolve gives it, on
the smaller of two Hermitian forms. If a composite Gauss-Legendre rule on
[0, t0] (``_gauss_rule``) needs Q nodes with Q r < N, for the r rows of R,
it is F F^H of the (Q r x N) factor F whose rows are
sqrt(w_q) R_k o e^(alpha s_q). F is formed one block of modes at a time,
and each block F_c adds F_c F_c^H into the lower triangle of one (Q r)^2
matrix, the only part eigvalsh reads, in panels of rows. So the stage holds
that matrix, one block and eigvalsh's work copy, and no N x N array.
Otherwise it is G = (R^H R) o K itself, with the exact kernel K, built in row
blocks into one N x N array; eigvalsh then holds a work copy of it. M_obs
and M_ctl are floating-point estimates, not proven bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalError, PreconditionError, StabilityError
from .signals import row_blocks
from .system import MultiplierReport, SpectralSystem

_MAX_GRAM_ORDER = 4096

# nodes per panel of the composite Gauss-Legendre rule
_GAUSS_POINTS = 16


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
    if not (math.isfinite(t0) and t0 > 0):
        raise DomainError(f"t0 must be finite and > 0, got {t0}")
    if sys.n_modes > _MAX_GRAM_ORDER:
        raise DomainError(f"Gram path supports up to {_MAX_GRAM_ORDER} modes")


def _gauss_rule(alpha: np.ndarray, t0: float,
                n_rows: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Nodes and weights of a composite _GAUSS_POINTS-point Gauss-Legendre
    rule on [0, t0] for the pair exponentials e^(w s), w = conj(alpha_i) +
    alpha_j, or None once its Q nodes would make Q n_rows >= N.

    The first panel is [0, min(t0, 1/(2 max|alpha|))], so |w| h <= 1 there.
    Each later panel is as long as its start, so every e^(w s) decays
    geometrically from panel to panel, and none is longer than
    8/max|Im alpha|, 16 radians of the fastest pair oscillation. The loop
    stops at N/(_GAUSS_POINTS n_rows) panels, whatever t0 max|Im alpha| is.
    """
    top_im = float(np.max(np.abs(alpha.imag)))
    cap = 8.0 / top_im if top_im > 0 else math.inf
    first = 0.5 / float(np.max(np.abs(alpha)))
    max_panels = (alpha.shape[0] - 1) // (_GAUSS_POINTS * n_rows)
    edges = [0.0]
    while edges[-1] < t0:
        if len(edges) > max_panels:
            return None
        edges.append(min(t0, edges[-1] + min(max(edges[-1], first), cap)))
    x, w = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    half = 0.5 * np.diff(edges)
    nodes = (np.array(edges[:-1]) + half)[:, None] + half[:, None] * x
    return nodes.ravel(), (half[:, None] * w).ravel()


def _kernel_gram(rows: np.ndarray, alpha: np.ndarray, t0: float) -> np.ndarray:
    """G = (R^H R) o K, the Gram of s -> R e^(As) on [0, t0], with the exact
    kernel K_ij = int_0^t0 e^(w_ij s) ds, w_ij = conj(alpha_i) + alpha_j.

    K_ij = (conj(e_i) e_j - 1)/w_ij from the N exponentials e = e^(alpha t0),
    so no N x N exponential is formed, except where the numerator
    |conj(e_i) e_j - 1| is below 1/2: it cancels there, and expm1(w_ij t0)/w_ij
    takes those entries. G is built in blocks of rows (signals.row_blocks)
    straight into its N x N array, so besides G only block-sized arrays are
    held.
    """
    n = alpha.shape[0]
    e = np.exp(alpha * t0)
    gram = np.empty((n, n), dtype=complex)
    for r0, r1 in row_blocks(n, n):
        w = np.conj(alpha[r0:r1])[:, None] + alpha[None, :]
        if np.any(w == 0.0):
            raise InternalError("eigenvalue pair sum hit zero despite stability")
        block = np.multiply.outer(np.conj(e[r0:r1]), e, out=gram[r0:r1])
        block -= 1.0
        small = np.abs(block) < 0.5
        if np.any(small):
            block[small] = np.expm1(w[small] * t0)
        block /= w
        block *= np.conj(rows[:, r0:r1]).T @ rows
    return gram


def _top_eigenvalue(rows: np.ndarray, alpha: np.ndarray, t0: float) -> float:
    """Largest eigenvalue of the Gram of s -> R e^(As) on [0, t0], from one
    dense eigensolve: of F F^H when the Gauss rule's factor F has fewer rows
    than N, of the kernel-side Gram otherwise; F is formed in blocks of
    modes (signals.row_blocks)."""
    if not np.any(rows):
        return 0.0
    rule = _gauss_rule(alpha, t0, rows.shape[0])
    if rule is None:
        matrix = _kernel_gram(rows, alpha, t0)
    else:
        nodes, weights = rule
        roots = np.sqrt(weights)[:, None]
        height = nodes.size * rows.shape[0]
        matrix = np.zeros((height, height), dtype=complex)
        panels = row_blocks(height, height)
        for c0, c1 in row_blocks(alpha.shape[0], height):
            decay = np.exp(np.outer(nodes, alpha[c0:c1]))
            decay *= roots
            factor = (decay[:, None, :] * rows[:, c0:c1]).reshape(height, c1 - c0)
            adjoint = factor.conj().T
            # eigvalsh reads only the lower triangle
            for r0, r1 in panels:
                matrix[r0:r1, :r1] += factor[r0:r1] @ adjoint[:, :r1]
    return max(float(np.linalg.eigvalsh(matrix)[-1]), 0.0)


def observation_gram(sys: SpectralSystem, t0: float) -> float:
    """M_obs, the largest eigenvalue of the Gram of s -> C e^(As) on [0, t0]:
    the smallest constant with int_0^t0 ||C e^(As) x||^2 ds <= M_obs ||x||^2."""
    _check_window(sys, t0)
    return _top_eigenvalue(sys.observation, sys.gen.eigenvalues, t0)


def control_gram(sys: SpectralSystem, t0: float) -> float:
    """M_ctl, the smallest constant with
    ||int_0^t0 e^(A(t0-r)) B u(r) dr|| <= M_ctl ||u||_2: the square root of
    the top eigenvalue of the reachability Gram, the conjugate of the Gram of
    s -> B^T e^(As)."""
    _check_window(sys, t0)
    return math.sqrt(_top_eigenvalue(sys.control.T, sys.gen.eigenvalues, t0))


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
    if not (math.isfinite(t0) and t0 > 0):
        raise DomainError(f"t0 must be finite and > 0, got {t0}")
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
    pair = pair_constant(scan)
    m_obs = observation_gram(sys, t0)
    m_ctl = control_gram(sys, t0)
    consts = global_constants(m_obs, m_ctl, pair.upper, sys.gen.k,
                              sys.gen.omega, p, t0)
    return AdmissibilityReport(t0, p, m_obs, m_ctl, pair, consts,
                               sys.gen.k, sys.gen.omega)
