"""Laplace transforms of sampled signals with certified error budgets, and
frequency-domain consistency checks for the resolvent identities.

Each check compares a numerical transform of time-domain samples against the
closed rational expression in the resolvent; the residual is accepted only
when it fits inside an explicit quadrature-plus-truncation budget.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .signals import (
    _GRID_REL_TOL,
    _forced_rows,
    _live_width,
    _phis,
    Signal,
    exp_conv_blocks,
    resample,
    sample_free_output,
    segment_weights,
)
from .spectral import as_state, resolvent_apply
from .system import SpectralSystem

# safety factor on the a-posteriori second-difference quadrature estimate
_QUAD_SAFETY = 2.0

# offsets s at which r12 and r13 observe the output blocks
_S_VALUES = (0.0, -0.5, -1.0)

# dt steps spanned by the fine initial layer of r12's free output on stiff spectra
_LAYER_STEPS = 24


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


def laplace_transform(sig: Signal, lam: complex) -> np.ndarray:
    """Integrate e^(-lam r) against the piecewise-linear signal over its grid,
    which must start at t0 >= 0, taking it to vanish past the grid. The segment
    integrals are exact for the interpolant, so the only error is what the
    samples fail to see; _tail_bound bounds the transform of a continuation."""
    lam = complex(lam)
    if sig.t0 < 0:
        raise DomainError(f"signal must start at t0 >= 0, got {sig.t0}")
    return _transform_sum(_weights(sig.samples, sig.dt, lam), sig.t0, sig.dt, lam)


def _weights(samples: np.ndarray, h: float, lam: complex) -> np.ndarray:
    # the transform's segment integrals without their e^(-lam r1) factors
    _, p1, p2 = _phis(lam * h)
    return segment_weights(samples, h, p1, p2)


def _transform_sum(weights: np.ndarray, t0: float, h: float, lam: complex) -> np.ndarray:
    # the sum of each segment's weight times e^(-lam r1), r1 = t0 + h k its end
    factors = np.exp(-lam * (t0 + h * np.arange(1, weights.shape[0] + 1)))
    return np.sum(factors[:, None] * weights, axis=0)


def _tail_bound(lam: complex, t_end: float, omega: float, amp: float) -> float:
    """Transform of the envelope amp * e^(omega r) over r > t_end, Re lam > omega,
    which majorizes that of a signal with ||s(r)|| <= amp * e^(omega r) there."""
    return float(np.exp((omega - lam.real) * t_end) / (lam.real - omega) * amp)


def _layer_steps(alpha: np.ndarray, dt: float) -> int:
    # the dt steps of _free_output's fine initial layer: _LAYER_STEPS when a
    # mode is stiffer than the grid, max |Re alpha| dt > 1/2, and none otherwise
    return _LAYER_STEPS if float(np.max(-alpha.real)) * dt > 0.5 else 0


def _free_output(alpha: np.ndarray, c: np.ndarray, x: np.ndarray, t_max: float,
                 dt: float) -> list[tuple[float, float, np.ndarray]]:
    """Samples of tau -> C e^(A tau) x on [0, t_max] as pieces (tau0, h, y).

    Modes stiffer than the grid would defeat the second-difference error
    estimate, so the initial layer [0, 24 dt] is sampled on a fine sub-grid
    sized so that past it every mode is either grid-resolved (|Re a| dt <= 1/2)
    or damped below e^(-12) of its initial amplitude. The rest steps by dt.
    Each piece is signals.sample_free_output's, the sampler the Lax-Phillips
    maps run.
    """
    k0 = _layer_steps(alpha, dt)
    t_split = k0 * dt
    grids = [(t_split, dt, int(round(t_max / dt)) - k0 + 1)]
    if k0:
        n1 = int(math.ceil(t_split * 4.0 * float(np.max(-alpha.real))))
        grids.insert(0, (0.0, t_split / n1, n1 + 1))
    return [(tau0, h, sample_free_output(alpha, c, x, tau0, h, n)) for tau0, h, n in grids]


def _offset_entry(name: str, pieces: list[tuple[float, float, np.ndarray]],
                  closed: np.ndarray, amps: list[float], lam: complex,
                  omega: float, t_max: float, dt: float) -> EntryResidual:
    """Residual and budgets of a block of tau = t + s, sampled as ``pieces`` on
    [0, t_max] as _free_output returns them, against e^(lam s) closed at each
    offset s in _S_VALUES. Offset s reads the last, dt-grid piece up to
    round((t_max + s)/dt) dt, and amps[i] is the tail envelope past it.

    The transform of piece y at offset s is laplace_transform's of
    Signal(tau0 - s, h, y): its checks, segment weights and |second
    differences| do not depend on s, so each piece forms them once and every
    offset reads them by prefix. Only the factors e^(-lam (tau - s)), the
    decay of the quadrature budget and the sums are formed per offset."""
    formed = []
    for tau0, h, y in pieces:
        if not np.all(np.isfinite(y)):
            raise DomainError("samples must be finite")
        formed.append((tau0, h, _weights(y, h, lam), np.abs(_second_differences(y))))
    *layer, (tau_last, _, weights_last, curv_last) = formed
    k0 = int(round(tau_last / dt))
    rows = []
    for s, amp in zip(_S_VALUES, amps):
        n = int(round((t_max + s) / dt)) - k0 + 1
        runs = layer + [(tau_last, dt, weights_last[:n - 1], curv_last[:max(n - 2, 0)])]
        value, qb = np.zeros(closed.shape, dtype=complex), 0.0
        for tau0, h, weights, curv in runs:
            value += _transform_sum(weights, tau0 - s, h, lam)
            qb += _quad_budget(curv, tau0 - s, h, lam)
        # the end of the last run, (tau_last - s) + (n - 1) dt, as Signal.end forms it
        tb = _tail_bound(lam, tau_last - s + (n - 1) * dt, omega, amp)
        rows.append((float(np.max(np.abs(value - np.exp(lam * s) * closed))), qb, tb))
    residual, quad, tail = (max(col) for col in zip(*rows))
    return EntryResidual(name, residual, quad, tail, all(r <= q + t for r, q, t in rows))


def _check_grid(sys: SpectralSystem, t_max: float, dt: float) -> float:
    """Return the shortest offset horizon t_max - 1, or raise DomainError if it
    or dt is not finite and positive, or if the spectrum is stiffer than the
    grid and the horizon cannot hold _free_output's layer [0, 24 dt]."""
    for label, value in (("dt", dt), ("t_max", t_max)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{label} must be finite and > 0, got {value}")
    horizon = t_max + min(_S_VALUES)
    if not horizon > 0:
        raise DomainError(f"t_max must exceed {-min(_S_VALUES)}, got {t_max}")
    if horizon < _layer_steps(sys.gen.eigenvalues, dt) * dt:
        raise DomainError(f"dt = {dt} is too coarse for this stiff spectrum: its initial "
                          f"layer {_LAYER_STEPS} dt must fit in t_max - 1 = {horizon}")
    return horizon


def _check_inputs(sys: SpectralSystem, probes, x, u: Signal, t_max: float,
                  dt: float) -> tuple[list[complex], float, np.ndarray]:
    """Check a resolvent check's probes, one or more, each finite with
    Re(lambda) > 0, its grid (see _check_grid), state x and input u, whose
    support must lie in [0, t_max - 1]; return the probes, that horizon and x."""
    lams = [complex(lam) for lam in probes]
    if not (lams and all(cmath.isfinite(lam) and lam.real > 0 for lam in lams)):
        raise DomainError(f"lambda_probes must hold finite lambda, Re(lambda) > 0, got {probes}")
    horizon = _check_grid(sys, t_max, dt)
    x = as_state(x, sys.n_modes)
    if u.width != sys.n_inputs:
        raise DimensionError(f"input has {u.width} channels, system expects {sys.n_inputs}")
    if u.t0 < -_GRID_REL_TOL or u.end > horizon + _GRID_REL_TOL:
        raise DomainError(
            f"input support must lie inside [0, {horizon}] so decay envelopes apply")
    return lams, horizon, x


def _second_differences(x: np.ndarray) -> np.ndarray:
    # x_{k+1} - 2 x_k + x_{k-1} at the interior rows of x, formed in place as
    # (-2 x_k + x_{k+1}) + x_{k-1}, which rounds the same
    d2 = np.multiply(-2.0, x[1:-1])
    np.add(d2, x[2:], out=d2)
    return np.add(d2, x[:-2], out=d2)


def _quad_budget(curv: np.ndarray, t0: float, h: float, lam: complex) -> float:
    """A-posteriori bound on the sampling error of the transform of samples on
    the grid t0 + h k, taken over the worst component, from the moduli
    ``curv`` of their second differences at the interior knots.

    The interpolation error on one segment is about (h^3/12) f'' times the
    kernel; second differences estimate h^2 f'', and summing their moduli
    with a safety factor covers sign changes and kinks alike.
    """
    if curv.shape[0] == 0:
        return 0.0
    decay = np.exp(-lam.real * np.maximum(t0 + h * np.arange(1, curv.shape[0] + 1), 0.0))
    total = float(np.max(np.sum(curv * decay[:, None], axis=0)))
    return _QUAD_SAFETY * (h / 12.0) * total


def verify_resolvent_entries(sys: SpectralSystem, probes, x, u: Signal,
                             t_max: float, dt: float) -> list[ResolventCheck]:
    """Check the three nontrivial block transforms against their resolvent
    closed forms at each frequency in ``probes``; return one ResolventCheck
    per probe, in the order given.

    r12: the observation block of the evolved state at each fixed offset s
         in _S_VALUES, transformed in t, against e^(lam s) C R(lam, A) x.
    r23: the controlled state against R(lam, A) B u_hat(lam).
    r13: the input-output block at fixed s against
         e^(lam s) (C R(lam, A) B u_hat(lam) + D u_hat(lam)).

    The input keeps its support inside the sampled horizon so the exponential
    tail envelopes stay valid. r12 and r13 depend on tau = t + s only, so each
    is sampled once in tau and read at every offset by prefix.

    The trajectories do not depend on lambda, so they are formed once for all
    probes: r12's free output, the forced trajectory with r13's output rows,
    the rows the tail envelopes need and r23's second-difference norms. Per
    probe run only the transforms, the closed forms, r23's running sum and
    the budgets, each with the operations of a one-probe call, so a check
    keeps its bits whichever probes come with it.

    No (steps, N) array is held: the forced trajectory comes from
    exp_conv_blocks one block of rows at a time. Each block adds its K output
    rows to r13's (steps + 1, K) samples, seeds each probe's r23 axis-0 sum
    with its running N-vector (the same row-by-row sum as over the whole
    trajectory when N > 1; one mode's column is summed pairwise per block and
    can differ in the last bits), stores each interior row's ||d2|| for one
    _quad_budget per probe at the end, and keeps only the rows the tail
    envelopes need. The kernel forms the drive u B^T per block over u's
    support, found on u's rows (see signals).

    r23's passes run with the operations and order of the sums over the
    whole trajectory. Once the rows they read are all free decay, where a
    +0.0 mode stays +0.0 (see exp_conv_blocks), they stop at the last live
    column, but keep two columns at least, since numpy sums a one-column
    array pairwise; the squared moduli of d2 are still summed over all N
    modes, in np.linalg.norm's pairwise order. numpy pays per row on a narrow
    view of a wider array, so the passes run on contiguous arrays only: each
    block after the first is copied at its live width, after the two rows
    before it that the first segment and second differences reach back to,
    into one array, and each pass forms its result in a new one. The output
    product block @ C^T stays at full width, since BLAS sums a narrower
    product in another order. So every residual and budget keeps its bits.

    r12 and r13 read each piece's segment weights and second differences,
    formed once per probe, at every offset (see _offset_entry).
    """
    lams, horizon, x = _check_inputs(sys, probes, x, u, t_max, dt)

    alpha = sys.gen.eigenvalues
    # any rate above the true one is a valid envelope; flooring at -1 keeps
    # the declared amplitudes finite for stiff spectra
    omega = max(sys.gen.omega, -1.0)
    c = sys.observation
    col_norm = np.linalg.norm(c, axis=0)
    # both sides must see the same interpolant, so the closed forms read the
    # input through its dt-grid sampling (identical to u on aligned grids)
    steps = int(round(t_max / dt))
    u_grid = resample(u, 0.0, dt, steps + 1)
    head = Signal(0.0, dt, u_grid.samples[:round(horizon / dt) + 1])
    u_hats = [laplace_transform(head, lam) for lam in lams]

    # r12: free evolution at fixed offsets, freed with the input's head
    # before the forced trajectory streams
    amp12 = float(np.sum(col_norm * np.abs(x)))
    pieces = _free_output(alpha, c, x, t_max, dt)
    entries12 = [_offset_entry("r12", pieces, c @ resolvent_apply(sys.gen, lam, x),
                               [amp12 * np.exp(omega * s) for s in _S_VALUES],
                               lam, omega, t_max, dt) for lam in lams]
    del head, pieces

    # r23 and r13: one forced trajectory, streamed in row blocks
    r13_steps = [int(round((t_max + s) / dt)) for s in _S_VALUES]
    n_drive = _forced_rows(u_grid, steps) + 1  # the rows that may hold a g_k
    y = u_grid.samples @ sys.feedthrough.T
    n = sys.n_modes
    # per probe: the segment integrals' phi1 and phi2 at lam dt, and r23's running sum
    sums23 = [(lam, *_phis(lam * dt)[1:], np.zeros(n, dtype=complex)) for lam in lams]
    curv23 = np.empty((max(steps - 1, 0), 1))
    ends = {}
    k0, wide = 0, n
    for block in exp_conv_blocks(alpha, sys.control, u_grid, steps):
        k1 = k0 + block.shape[0]
        y[k0:k1] += block @ c.T
        for k in r13_steps + [steps]:
            if k0 <= k < k1:
                ends[k] = block[k - k0].copy()
        if k0 == 0:
            # |d2|^2, with room for the one row more the last block may hold (see row_blocks)
            sq = np.zeros((k1 + 1, n))
        elif k0 > n_drive:
            # every row from back[0] on is free decay: stop at its last live
            # column. sq keeps the dead ones at zero for np.linalg.norm's sum.
            width = max(_live_width(back[0]), min(2, n))
            sq[:, width:wide] = 0.0
            wide = width
        # the rows the passes read, at the live width: the first block's own,
        # and each later block's after the two rows before it, which its first
        # segment and second differences reach back to
        v = np.concatenate((back[:, :wide], block[:, :wide])) if k0 else block
        # the segments ending at rows first..k1-1 and the second differences
        # at knots lo..k1-2, with the operations and order of the passes over
        # the whole trajectory
        first, lo = max(k0, 1), max(k0 - 1, 1)
        for lam, p1, p2, num23 in sums23:
            sums = np.empty((k1 - first + 1, wide), dtype=complex)
            sums[0] = num23[:wide]
            np.multiply(np.exp(-lam * (dt * np.arange(first, k1)))[:, None],
                        segment_weights(v[min(k0, 1):], dt, p1, p2), out=sums[1:])
            num23[:wide] = np.sum(sums, axis=0)
        d2 = _second_differences(v)
        nd = d2.shape[0]
        sq[:nd, :wide] = np.multiply(np.conjugate(d2), d2, out=d2).real
        curv23[lo - 1:lo - 1 + nd, 0] = np.sqrt(np.add.reduce(sq[:nd], axis=1))
        # at the live width: past it the next block's rows stay zero
        back = block[-2:, :wide].copy()
        k0 = k1
    del block, v, sums, d2, back, sq  # r13 runs without the loop's arrays

    t_end = dt * steps
    amp23 = float(np.linalg.norm(ends[steps])) * np.exp(-omega * t_end)
    amps13 = [float(np.sum(col_norm * np.abs(ends[k]))) * np.exp(-omega * (-s + dt * k))
              for s, k in zip(_S_VALUES, r13_steps)]
    checks = []
    for (lam, _, _, num23), u_hat, entry12 in zip(sums23, u_hats, entries12):
        state_hat = resolvent_apply(sys.gen, lam, sys.control @ u_hat)
        # r23: controlled state transformed componentwise
        tail23 = _tail_bound(lam, t_end, omega, amp23)
        res23 = float(np.linalg.norm(num23 - state_hat))
        # the norm over modes in place of the worst component
        quad23 = _quad_budget(curv23, 0.0, dt, lam)
        entry23 = EntryResidual("r23", res23, quad23, tail23, res23 <= quad23 + tail23)
        # r13: forced output block at fixed offsets
        entry13 = _offset_entry("r13", [(0.0, dt, y)], c @ state_hat + sys.feedthrough @ u_hat,
                                amps13, lam, omega, t_max, dt)
        checks.append(ResolventCheck(lam, float(t_max), float(dt), _S_VALUES,
                                     (entry12, entry23, entry13)))
    return checks
