"""Independent evaluations used only to cross-check the production paths.

The state map is integrated by parts and shares no convolution kernel with
`control_to_state`; the input-output map is integrated by parts twice for
smooth inputs, so its one convolution is of v'' rather than v. The heat rod's
Dirichlet kernels are closed forms that the heat system's control columns
must reproduce mode by mode. The Grams are formed whole, with a kernel per
Gram, and their constants taken from the full dense spectrum; the Gauss
rule's factor is also formed whole and multiplied by its adjoint in one
product. The m13 symbol is contracted by einsum over the whole resolvent,
without the scan's mode-pair matrix, and its grid sup is also taken by the
unpruned block loop the branch-and-bound scan replaced. The kernels phi1
and phi2 each form their own exp, where signals._phis shares one.
"""

import cmath
import math

import numpy as np

import wellposed.system
from wellposed.admissibility import _gauss_rule
from wellposed.errors import DomainError, PreconditionError, SpectrumError
from wellposed.heat import _SPECTRUM_TOL
from wellposed.signals import (
    _GRID_REL_TOL,
    _PHI_SERIES_SWITCH,
    _PHI_TERMS,
    Signal,
    exp_conv_blocks,
    resample,
    values_at,
)


def _phi(z, coef, closed):
    # the closed form, or below |z| = _PHI_SERIES_SWITCH the Taylor series by
    # Horner's rule, each with its own exp: signals._phis must give the same bits
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = np.abs(arr) < _PHI_SERIES_SWITCH
    if np.any(small):
        acc = np.full_like(arr[small], coef[-1])
        for c in coef[-2::-1]:
            acc = acc * arr[small] + c
        out[small] = acc
    if np.any(~small):
        out[~small] = closed(arr[~small])
    return out[0] if scalar else out


def phi1(z):
    """phi1(z) = (e^z - 1)/z, the exponential-integrator kernel of order 1."""
    coef = [1.0 / math.factorial(j + 1) for j in range(_PHI_TERMS)]
    return _phi(z, coef, lambda w: (np.exp(w) - 1.0) / w)


def phi2(z):
    """phi2(z) = (e^z - 1 - z)/z^2, the exponential-integrator kernel of order 2."""
    coef = [1.0 / math.factorial(j + 2) for j in range(_PHI_TERMS)]
    return _phi(z, coef, lambda w: (np.exp(w) - 1.0 - w) / (w * w))


def conv_trajectory(alpha, b, u, n_steps):
    """The rows of signals.exp_conv_blocks gathered into one (n_steps + 1, N) array."""
    return np.concatenate(list(exp_conv_blocks(alpha, b, u, n_steps)))


def control_to_state_ibp(sys, t, u):
    """State reached from rest, via one integration by parts on the support
    [a, b] of u in [0, t]:

        (1/alpha) (e^(alpha (t-a)) v(a) - e^(alpha (t-b)) v(b))
            + (1/alpha) int_a^b e^(alpha (t-r)) v'(r) dr,

    with v the channel-mixed input and v' its per-segment slope. Agrees with
    control_to_state to rounding on piecewise-linear inputs.
    """
    alpha = sys.gen.eigenvalues
    v = Signal(u.t0, u.dt, u.samples @ sys.control.T)
    tol = _GRID_REL_TOL
    out = np.zeros(sys.n_modes, dtype=complex)
    a = max(0.0, v.t0)
    b = min(t, v.end)
    if b <= a + tol * v.dt or v.n_samples < 2:
        return out
    va = values_at(v, [a])[0]
    vb = values_at(v, [b])[0]
    boundary = (np.exp(alpha * (t - a)) * va - np.exp(alpha * (t - b)) * vb) / alpha

    slopes = np.diff(v.samples, axis=0) / v.dt
    n = v.n_samples
    ka = min(max(int(np.ceil((a - v.t0) / v.dt - tol)), 0), n - 1)
    kb = min(max(int(np.floor((b - v.t0) / v.dt + tol)), 0), n - 1)
    r_ka = v.t0 + ka * v.dt
    r_kb = v.t0 + kb * v.dt

    def _kernel(r0, r1):
        # int_{r0}^{r1} e^(alpha (t - r)) dr
        h = r1 - r0
        return np.exp(alpha * (t - r1)) * h * phi1(alpha * h)

    parts = np.zeros_like(out)
    if ka > kb:
        seg = min(max(int(np.floor((a - v.t0) / v.dt + tol)), 0), n - 2)
        parts += slopes[seg] * _kernel(a, b)
    else:
        if a < r_ka - tol * v.dt:
            parts += slopes[ka - 1] * _kernel(a, r_ka)
        if kb > ka:
            r_right = v.t0 + v.dt * np.arange(ka + 1, kb + 1)
            decay = np.exp(np.outer(t - r_right, alpha))
            parts += np.sum(decay * slopes[ka:kb], axis=0) * (v.dt * phi1(alpha * v.dt))
        if b > r_kb + tol * v.dt:
            parts += slopes[kb] * _kernel(r_kb, b)
    return boundary + parts / alpha


def input_output_map_intxp(sys, t, u, dt=None):
    """input_output_map's output block for smooth inputs vanishing to first
    order at 0, integrated by parts twice: per mode,

        -v(tau)/alpha - v'(tau)/alpha^2 + (1/alpha^2) int_0^tau e^(alpha (tau-r)) v''(r) dr,

    with v', v'' reconstructed by second-order differences on the same grid,
    so it agrees with input_output_map to O(dt^2).
    """
    if dt is None:
        dt = u.dt
    steps = max(1, round(t / dt))
    h = t / steps
    uvals = resample(u, 0.0, h, steps + 1).samples
    if np.any(uvals[0] != 0):
        raise PreconditionError(
            "twice-integrated path requires u(0) = 0 (and smooth u with u'(0) = 0)"
        )
    alpha = sys.gen.eigenvalues
    v = uvals @ sys.control.T
    v1 = np.gradient(v, h, axis=0, edge_order=2)
    v2 = np.gradient(v1, h, axis=0, edge_order=2)
    conv2 = conv_trajectory(alpha, np.eye(sys.n_modes), Signal(0.0, h, v2), steps)
    inv = 1.0 / alpha[None, :]
    traj = -v * inv - v1 * inv**2 + conv2 * inv**2
    return Signal(-t, h, traj @ sys.observation.T + uvals @ sys.feedthrough.T)


def dirichlet_eval(lam: complex, s: float) -> tuple[complex, complex]:
    """Kernels of the Dirichlet operator at lambda: the harmonic lifts q0, q1
    with q0'(0) = 1, q0'(pi) = 0 and q1'(0) = 0, q1'(pi) = 1.

    q0(s) = -cosh(z (pi - s)) / (z sinh(z pi)), q1(s) = cosh(z s) / (z sinh(z pi)),
    z = sqrt(lambda). Both are even in z, so the principal branch is used.
    Rewritten over e^(-z .) so nothing overflows for large |lambda|.
    """
    lam = complex(lam)
    if not 0.0 <= s <= math.pi:
        raise DomainError(f"s must lie in [0, pi], got {s}")
    near = round(math.sqrt(max(0.0, -lam.real)))
    if abs(lam + near * near) <= _SPECTRUM_TOL * max(1.0, abs(lam)):
        raise SpectrumError(f"lambda = {lam} lies on the unshifted spectrum -n^2")
    z = cmath.sqrt(lam)
    den = 1.0 - cmath.exp(-2.0 * z * math.pi)
    q0 = -(cmath.exp(-z * s) + cmath.exp(-z * (2.0 * math.pi - s))) / (z * den)
    q1 = (cmath.exp(-z * (math.pi - s)) + cmath.exp(-z * (math.pi + s))) / (z * den)
    return q0, q1


def dense_grams(sys, t0):
    """The observation and control Grams, built apart, each kernel
    t0 phi1(w t0) formed entry by entry from its own pair sums w, and each
    Gram symmetrised."""
    alpha = sys.gen.eigenvalues

    def gram(outer, w):
        g = outer * (t0 * phi1(w * t0))
        return 0.5 * (g + g.conj().T)

    return (gram(sys.observation.conj().T @ sys.observation,
                 np.conj(alpha)[:, None] + alpha[None, :]),
            gram(sys.control @ sys.control.conj().T,
                 alpha[:, None] + np.conj(alpha)[None, :]))


def dense_gram_constants(sys, t0):
    """M_obs and M_ctl from the dense Grams and the full spectrum of the
    dense eigensolver."""
    g_obs, g_ctl = dense_grams(sys, t0)

    def top(gram):
        return float(max(np.linalg.eigvalsh(gram)[-1], 0.0))

    return top(g_obs), math.sqrt(top(g_ctl))


def factor_gram_constants(sys, t0):
    """M_obs and M_ctl from F F^H, with each Gram's Gauss-rule factor F, of
    (Q r x N) rows sqrt(w_q) R_k o e^(alpha s_q), formed whole and F F^H
    taken in one product."""
    alpha = sys.gen.eigenvalues

    def top(rows):
        nodes, weights = _gauss_rule(alpha, t0, rows.shape[0])
        decay = np.exp(np.outer(nodes, alpha))
        decay *= np.sqrt(weights)[:, None]
        factor = (decay[:, None, :] * rows).reshape(-1, alpha.shape[0])
        return float(max(np.linalg.eigvalsh(factor @ factor.conj().T)[-1], 0.0))

    return top(sys.observation), math.sqrt(top(sys.control.T))


def m13_einsum(sys, gammas):
    """m13(gamma) = C R(i gamma, A_{-1}) B as one einsum over the (G, N)
    resolvent, shape (G, K, M)."""
    gammas = np.asarray(gammas, dtype=float)
    res = 1.0 / (1j * gammas[:, None] - sys.gen.eigenvalues[None, :])
    return np.einsum("kn,gn,nm->gkm", sys.observation, res, sys.control, optimize=True)


def m13_full_scan_sup(sys, gamma_max, steps):
    """Grid sup of ||m13||_2 from every block of the scan's layout, blocks of
    _SCAN_ELEMENTS // N >= 2 rows, with no block skipped."""
    grid = np.linspace(-gamma_max, gamma_max, steps)
    size = max(2, wellposed.system._SCAN_ELEMENTS // sys.n_modes)
    bounds = [*range(0, steps - 1, size), steps]
    return max(
        float(np.max(np.linalg.svd(wellposed.system._m13(sys, grid[lo:hi]),
                                   compute_uv=False)[:, 0]))
        for lo, hi in zip(bounds, bounds[1:]))
