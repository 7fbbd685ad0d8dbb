"""Laplace transforms of sampled signals with certified error budgets, and
frequency-domain consistency checks for the resolvent identities.

Each check compares a numerical transform of time-domain samples against the
closed rational expression in the resolvent; the residual is accepted only
when it fits inside an explicit quadrature-plus-truncation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .signals import (
    _GRID_REL_TOL,
    Signal,
    exp_conv_blocks,
    exp_segment_integral,
    phi1,
    phi2,
    resample,
    row_blocks,
    segment_weights,
    values_at,
)
from .spectral import as_state, resolvent_apply
from .system import SpectralSystem

# safety factor on the a-posteriori second-difference quadrature estimate
_QUAD_SAFETY = 2.0


@dataclass(frozen=True)
class EntryResidual:
    """One resolvent identity: max residual against its error budget."""

    name: str
    residual: float
    quad_budget: float
    tail_budget: float
    passed: bool


@dataclass(frozen=True)
class ResolventCheck:
    lam: complex
    t_max: float
    dt: float
    s_values: tuple[float, ...]
    entries: tuple[EntryResidual, ...]

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)


def laplace_transform(sig: Signal, lam: complex,
                      tail: tuple[float, float, float] | None = None
                      ) -> tuple[np.ndarray, float]:
    """Integrate e^(-lam r) against the piecewise-linear signal over r >= 0.

    The segment integrals are exact for the interpolant, so the only error is
    what the samples fail to see.  ``tail`` declares how the underlying
    function continues beyond the grid as ``(k, omega, amplitude)`` with
    ||s(r)|| <= amplitude * k * e^(omega r); the returned bound

        k * e^((omega - Re lam) T) / (Re lam - omega) * amplitude

    then majorizes the discarded integral over r > T.  ``tail=None`` asserts
    the function vanishes there, making the transform exact up to sampling.
    """
    lam = complex(lam)
    if tail is not None:
        k_t, omega_t, amp_t = float(tail[0]), float(tail[1]), float(tail[2])
        if k_t <= 0 or amp_t < 0:
            raise DomainError("tail envelope needs k > 0 and amplitude >= 0")
        if lam.real <= 0:
            raise DomainError(
                f"Re(lambda) must be > 0 when the signal continues, got {lam}")
        if lam.real <= omega_t:
            raise DomainError(
                f"Re(lambda) = {lam.real} does not dominate tail rate {omega_t}")
    value = np.zeros(sig.width, dtype=complex)
    a = max(0.0, sig.t0)
    b = sig.end
    if b > a + _GRID_REL_TOL * sig.dt:
        h = sig.dt
        knots = sig.times()
        ka = int(np.ceil((a - sig.t0) / h - _GRID_REL_TOL))
        if knots[ka] > a + _GRID_REL_TOL * h:
            # partial head segment [a, knots[ka]]
            value += exp_segment_integral(lam, 0.0, a, knots[ka], values_at(sig, [a])[0],
                                          sig.samples[ka])
        if ka < sig.n_samples - 1:
            w = lam * h
            weights = segment_weights(sig.samples[ka:], h, phi1(w), phi2(w))
            factors = np.exp(-lam * knots[ka + 1:])
            value += np.sum(factors[:, None] * weights, axis=0)
    if tail is None:
        return value, 0.0
    return value, _tail_bound(lam, max(b, 0.0), k_t, omega_t, amp_t)


def _tail_bound(lam: complex, t_end: float, k: float, omega: float,
                amp: float) -> float:
    """Transform of the envelope amp * k * e^(omega r) over r > t_end."""
    return float(k * np.exp((omega - lam.real) * t_end) / (lam.real - omega) * amp)


def _free_output_transform(alpha: np.ndarray, c: np.ndarray, x: np.ndarray,
                           s: float, t_max: float, dt: float, lam: complex,
                           omega: float, amp: float
                           ) -> tuple[np.ndarray, float, float]:
    """Transform of t -> C e^(A (t+s)) x over [-s, t_max] with budgets.

    Modes stiffer than the grid would defeat the second-difference error
    estimate, so the initial layer is integrated on a fine sub-grid sized so
    that past the splice every mode is either grid-resolved (|Re a| dt <= 1/2)
    or damped below e^(-12) of its initial amplitude.
    """
    stiff = float(np.max(-alpha.real))
    horizon = t_max + s
    pieces: list[tuple[float, float, int]] = []
    if stiff * dt > 0.5:
        t_split = min(24.0 * dt, horizon)
        n1 = max(1, int(math.ceil(t_split * 4.0 * stiff)))
        pieces.append((-s, t_split / n1, n1))
        if t_split < horizon * (1.0 - 1e-12):
            n2 = max(1, int(round((horizon - t_split) / dt)))
            pieces.append((-s + t_split, (horizon - t_split) / n2, n2))
    else:
        n = max(1, int(round(horizon / dt)))
        pieces.append((-s, horizon / n, n))
    value = np.zeros(c.shape[0], dtype=complex)
    quad = 0.0
    tail = 0.0
    for i, (t0, h, n) in enumerate(pieces):
        grid = t0 + h * np.arange(n + 1)
        # only the K outputs are stored; the (rows, N) modes live one block at a time
        y = np.empty((n + 1, c.shape[0]), dtype=complex)
        for a, b in row_blocks(n + 1, alpha.shape[0]):
            y[a:b] = (np.exp(np.outer(grid[a:b] + s, alpha)) * x) @ c.T
        last = i == len(pieces) - 1
        piece_tail = (1.0, omega, amp) if last else None
        v, tb = laplace_transform(Signal(t0, h, y), lam, piece_tail)
        value += v
        quad += _quad_budget(y, grid, h, lam)
        if last:
            tail = tb
    return value, quad, tail


def _second_differences(samples: np.ndarray, grid: np.ndarray, lam: complex
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Second differences at the interior knots of samples (dt^2 f'' there)
    and the kernel decay e^(-Re lam t) at those knots."""
    d2 = samples[2:] - 2.0 * samples[1:-1] + samples[:-2]
    decay = np.exp(-lam.real * np.maximum(grid[1:-1], 0.0))
    return d2, decay


def _quad_budget(samples: np.ndarray, grid: np.ndarray, dt: float,
                 lam: complex) -> float:
    """A-posteriori bound on the sampling error of the transform, taken over
    the worst component.

    The interpolation error on one segment is about (dt^3/12) f'' times the
    kernel; second differences estimate dt^2 f'', and summing their moduli
    with a safety factor covers sign changes and kinks alike.
    """
    if samples.shape[0] < 3:
        return 0.0
    d2, decay = _second_differences(samples, grid, lam)
    total = float(np.max(np.sum(np.abs(d2) * decay[:, None], axis=0)))
    return _QUAD_SAFETY * (dt / 12.0) * total


def verify_resolvent_entries(sys: SpectralSystem, lam: complex, x, u: Signal,
                             t_max: float, dt: float,
                             s_values: tuple[float, ...] = (0.0, -0.5, -1.0)
                             ) -> ResolventCheck:
    """Check the three nontrivial block transforms against their resolvent
    closed forms at one frequency.

    r12: the observation block of the evolved state at each fixed offset s,
         transformed in t, against e^(lam s) C R(lam, A) x.
    r23: the controlled state against R(lam, A) B u_hat(lam).
    r13: the input-output block at fixed s against
         e^(lam s) (C R(lam, A) B u_hat(lam) + D u_hat(lam)).

    The input keeps its support inside the sampled horizon so the exponential
    tail envelopes stay valid.

    No (steps, N) array is held. The forced trajectory comes from
    exp_conv_blocks one block of rows at a time, and each block is folded in
    before the next is formed: its K output rows go into the one (steps + 1, K)
    array that r13 reads by prefix; r23's Laplace terms are added to a running
    N-vector that seeds the block's axis-0 sum, so the total is the same
    row-by-row sum as over the whole trajectory (numpy sums axis 0 row by row
    when N > 1; a single mode's column is summed pairwise within each block and
    can differ in the last bits); each interior row's ||d2|| * decay goes into
    one (steps - 1) vector that is summed once at the end; and only the rows
    the tail envelopes need are kept. The free outputs of r12, including the
    stiff fine sub-grid, are formed in row blocks too. The drive u B^T is formed
    over the input's support only, since past it g_k is zero.
    """
    lam = complex(lam)
    if lam.real <= 0:
        raise DomainError(f"probe frequency needs Re(lambda) > 0, got {lam}")
    if not t_max > 0 or not dt > 0:
        raise DomainError("t_max and dt must be positive")
    x = as_state(x, sys.n_modes)
    if u.width != sys.n_inputs:
        raise DimensionError(f"input has {u.width} channels, system expects {sys.n_inputs}")
    s_values = tuple(float(s) for s in s_values)
    for s in s_values:
        if s > 0 or -s >= t_max:
            raise DomainError(f"offsets must satisfy -t_max < s <= 0, got {s}")
    horizon = t_max + min(s_values)
    if u.t0 < -_GRID_REL_TOL or u.end > horizon + _GRID_REL_TOL:
        raise DomainError(
            f"input support must lie inside [0, {horizon}] so decay envelopes apply")

    alpha = sys.gen.eigenvalues
    # any rate above the true one is a valid envelope; flooring at -1 keeps
    # the declared amplitudes finite for stiff spectra
    omega = max(sys.gen.omega, -1.0)
    c = sys.observation
    col_norm = np.linalg.norm(c, axis=0)
    # both sides must see the same interpolant, so the closed forms read the
    # input through its dt-grid sampling (identical to u on aligned grids)
    u_fine = resample(u, 0.0, dt, int(round(horizon / dt)) + 1)
    u_hat, _ = laplace_transform(u_fine, lam)
    state_hat = resolvent_apply(sys.gen, lam, sys.control @ u_hat)

    # r12: free evolution observed at fixed offsets
    res12 = quad12 = tail12 = 0.0
    ok12 = True
    closed_state = c @ resolvent_apply(sys.gen, lam, x)
    amp12 = float(np.sum(col_norm * np.abs(x)))
    for s in s_values:
        num, qb, tb = _free_output_transform(alpha, c, x, s, t_max, dt, lam,
                                             omega, amp12 * np.exp(omega * s))
        residual = float(np.max(np.abs(num - np.exp(lam * s) * closed_state)))
        res12, quad12, tail12 = max(res12, residual), max(quad12, qb), max(tail12, tb)
        ok12 = ok12 and residual <= qb + tb

    # r23 and r13: one forced trajectory, streamed in row blocks
    steps = int(round(t_max / dt))
    r13_steps = [int(round((t_max + s) / dt)) for s in s_values]
    u_grid = resample(u, 0.0, dt, steps + 1).samples
    # past the input's last nonzero sample the drive is zero and forms no g_k
    live = np.flatnonzero(np.any(u_grid != 0.0, axis=1))
    n_drive = min(int(live[-1]) + 2, steps + 1) if live.size else 1
    drive = Signal(0.0, dt, u_grid[:n_drive] @ sys.control.T)
    y = u_grid @ sys.feedthrough.T
    w = lam * dt
    p1, p2 = phi1(w), phi2(w)
    num23 = np.zeros(sys.n_modes, dtype=complex)
    curv23 = np.empty(max(steps - 1, 0))
    ends = {}
    back = np.empty((0, sys.n_modes), dtype=complex)
    k0 = 0
    for block in exp_conv_blocks(alpha, drive, steps):
        k1 = k0 + block.shape[0]
        y[k0:k1] += block @ c.T
        for k in r13_steps + [steps]:
            if k0 <= k < k1:
                ends[k] = block[k - k0].copy()
        # the window adds the two rows before the block, which its first
        # segment and second differences reach back to
        window = np.concatenate([back, block])
        w0 = k0 - back.shape[0]
        first = max(k0, 1)
        terms = np.empty((k1 - first + 1, sys.n_modes), dtype=complex)
        terms[0] = num23
        np.multiply(np.exp(-lam * (dt * np.arange(first, k1)))[:, None],
                    segment_weights(window[first - 1 - w0:], dt, p1, p2), out=terms[1:])
        num23 = np.sum(terms, axis=0)
        d2, decay = _second_differences(window, dt * np.arange(w0, k1), lam)
        curv23[w0:w0 + d2.shape[0]] = np.linalg.norm(d2, axis=1) * decay
        back = window[-2:]
        k0 = k1

    # r23: controlled state transformed componentwise
    t_end = dt * steps
    amp23 = float(np.linalg.norm(ends[steps])) * np.exp(-omega * t_end)
    tail23 = _tail_bound(lam, t_end, 1.0, omega, amp23)
    res23 = float(np.linalg.norm(num23 - state_hat))
    # _quad_budget's estimate, with the norm over modes in place of the worst component
    quad23 = _QUAD_SAFETY * (dt / 12.0) * float(np.sum(curv23))
    ok23 = res23 <= quad23 + tail23

    # r13: forced output block at fixed offsets
    res13 = quad13 = tail13 = 0.0
    ok13 = True
    closed_out = c @ state_hat + sys.feedthrough @ u_hat
    for s, steps_s in zip(s_values, r13_steps):
        grid = -s + dt * np.arange(steps_s + 1)
        y_s = y[:steps_s + 1]
        amp13 = float(np.sum(col_norm * np.abs(ends[steps_s]))) * np.exp(-omega * grid[-1])
        num, tb = laplace_transform(Signal(-s, dt, y_s), lam, (1.0, omega, amp13))
        residual = float(np.max(np.abs(num - np.exp(lam * s) * closed_out)))
        qb = _quad_budget(y_s, grid, dt, lam)
        res13, quad13, tail13 = max(res13, residual), max(quad13, qb), max(tail13, tb)
        ok13 = ok13 and residual <= qb + tb

    entries = (
        EntryResidual("r12", res12, quad12, tail12, ok12),
        EntryResidual("r23", res23, quad23, tail23, ok23),
        EntryResidual("r13", res13, quad13, tail13, ok13),
    )
    return ResolventCheck(lam, float(t_max), float(dt), s_values, entries)
