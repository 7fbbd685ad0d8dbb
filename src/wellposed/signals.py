"""Uniform-grid piecewise-linear signals and exact exponential-kernel quadrature.

Every convolution against e^(alpha t) in this package reduces to the one
segment integral

    int_{r0}^{r1} e^(alpha (T - r)) u(r) dr
        = e^(alpha (T - r1)) * h * (u0 * phi1(alpha h) + (u1 - u0) * phi2(alpha h)),

h = r1 - r0, which is exact for the linear interpolant of (u0, u1). All
discretization error therefore comes from representing a signal on its grid,
never from quadrature.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SchemaError

# Below this |z| the closed forms (e^z-1)/z, (e^z-1-z)/z^2 cancel; the Taylor
# tail beyond 18 terms is < 1e-22 on |z| < 0.5.
_PHI_SERIES_SWITCH = 0.5
_PHI_TERMS = 18
_PHI1_COEF = [1.0 / math.factorial(j + 1) for j in range(_PHI_TERMS)]
_PHI2_COEF = [1.0 / math.factorial(j + 2) for j in range(_PHI_TERMS)]

_GRID_REL_TOL = 1e-9

# rows x columns of one block in the routines that stream over time, so the
# memory of a block does not grow with the number of modes
_BLOCK_ELEMENTS = 1 << 16

# anchors of exp_conv_final whose partial segments are formed at once, so its
# (anchors, N) temporaries stay a few blocks of rows
_ANCHOR_ROWS = 64


def _phi_series(z: np.ndarray, coef) -> np.ndarray:
    acc = np.full_like(z, coef[-1])
    for c in coef[-2::-1]:
        acc = acc * z + c
    return acc


def _phi(z, coef, closed):
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = np.abs(arr) < _PHI_SERIES_SWITCH
    if np.any(small):
        out[small] = _phi_series(arr[small], coef)
    if np.any(~small):
        out[~small] = closed(arr[~small])
    return out[0] if scalar else out


def phi1(z):
    """phi1(z) = (e^z - 1)/z, the exponential-integrator kernel of order 1."""
    return _phi(z, _PHI1_COEF, lambda w: (np.exp(w) - 1.0) / w)


def phi2(z):
    """phi2(z) = (e^z - 1 - z)/z^2, the exponential-integrator kernel of order 2."""
    return _phi(z, _PHI2_COEF, lambda w: (np.exp(w) - 1.0 - w) / (w * w))


def exp_segment_integral(alpha, T, r0, r1, u0, u1):
    """Exact value of int_{r0}^{r1} e^(alpha (T - r)) u(r) dr, u linear on [r0, r1].

    Only r0 < r1 is required; T is the kernel anchor and may lie anywhere.
    The arguments broadcast against each other, so one call integrates many
    segments.
    """
    h = r1 - r0
    if not np.all(h > 0):
        raise DomainError(f"segment requires r0 < r1, got [{r0}, {r1}]")
    w = alpha * h
    return np.exp(alpha * (T - r1)) * _segment(h, u0, u1, phi1(w), phi2(w))


def _segment(h, u0, u1, p1, p2):
    # the segment integral without its e^(alpha (T - r1)) factor
    return h * (u0 * p1 + (u1 - u0) * p2)


def segment_weights(v: np.ndarray, h: float, p1, p2) -> np.ndarray:
    """h * (v_k p1 + (v_{k+1} - v_k) p2) for each segment between consecutive rows of v.

    With p1 = phi1(alpha h) and p2 = phi2(alpha h) these are the exact segment
    integrals above without their e^(alpha (T - r1)) factor. Returns one row
    fewer than v.
    """
    return _segment(h, v[:-1], v[1:], p1, p2)


def row_blocks(n_rows: int, width: int) -> list[tuple[int, int]]:
    """Consecutive [start, stop) row ranges covering n_rows rows of the given
    width, each of about _BLOCK_ELEMENTS elements.

    Every range has at least two rows unless n_rows == 1: numpy multiplies a
    one-row matrix through BLAS's dot rather than its matrix path, which
    rounds differently, so a product taken range by range would no longer
    reproduce the rows of the whole product.
    """
    rows = max(2, _BLOCK_ELEMENTS // max(width, 1))
    starts = list(range(0, n_rows, rows))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_rows]))


@dataclass(frozen=True)
class Signal:
    """Piecewise-linear vector signal on the uniform grid t0 + k*dt, zero outside."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if not self.dt > 0:
            raise DomainError(f"dt must be > 0, got {self.dt}")
        arr = np.asarray(self.samples)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DimensionError(f"samples must be (n, d) with n >= 1, got {arr.shape}")
        arr = np.array(arr, dtype=arr.dtype if np.iscomplexobj(arr) else float, copy=True)
        if not np.all(np.isfinite(arr)):
            raise DomainError("samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def end(self) -> float:
        return self.t0 + (self.n_samples - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)


def values_at(sig: Signal, ts) -> np.ndarray:
    """Interpolant values at times ts, zero outside the grid. Shape (len(ts), d)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n, d = sig.samples.shape
    pos = (ts - sig.t0) / sig.dt
    inside = (pos >= -_GRID_REL_TOL) & (pos <= n - 1 + _GRID_REL_TOL)
    if n == 1:
        out = np.where(inside[:, None], sig.samples[0], 0.0)
        return out.astype(sig.samples.dtype)
    k = np.clip(np.floor(pos).astype(int), 0, n - 2)
    frac = np.clip(pos - k, 0.0, 1.0)
    vals = (1.0 - frac)[:, None] * sig.samples[k] + frac[:, None] * sig.samples[k + 1]
    vals[~inside] = 0.0
    return vals


def resample(sig: Signal, t0: float, dt: float, n: int) -> Signal:
    """Sample the interpolant onto a new grid.

    On the signal's own grid (same t0 and dt) the samples are copied and
    zero-padded, so the result is exact whatever n is.
    """
    if n < 1:
        raise DimensionError(f"resample needs n >= 1, got {n}")
    if t0 == sig.t0 and dt == sig.dt:
        out = np.zeros((n, sig.width), dtype=sig.samples.dtype)
        out[:sig.n_samples] = sig.samples[:n]
        return Signal(t0, dt, out)
    return Signal(t0, dt, values_at(sig, t0 + dt * np.arange(n)))


def lp_norm(sig: Signal, p: float) -> float:
    """Lp norm of the interpolant over the grid support.

    Simpson per segment, which is exact for p = 2 (the integrand is then
    piecewise quadratic); other p are quadrature approximations in the same
    rule.
    """
    if p < 1:
        raise DomainError(f"Lp norm requires p >= 1, got {p}")
    if sig.n_samples < 2:
        return 0.0
    a = sig.samples[:-1]
    b = sig.samples[1:]
    mid = 0.5 * (a + b)

    def _pow(x):
        return np.linalg.norm(x, axis=1) ** p

    total = (sig.dt / 6.0) * np.sum(_pow(a) + 4.0 * _pow(mid) + _pow(b))
    return float(total ** (1.0 / p))


def _paired(alpha: np.ndarray, sig: Signal) -> None:
    if sig.width != alpha.shape[0]:
        raise DimensionError(
            f"signal width {sig.width} does not match {alpha.shape[0]} modes"
        )


def exp_conv_final(alpha, sig: Signal, t) -> np.ndarray:
    """int_0^T e^(alpha_n (T - r)) v_n(r) dr for each anchor T in t, v_n the
    paired column of sig.

    Exact on the interpolant (zero outside the grid), so the integral runs
    over [max(0, t0), min(T, end)]. One trajectory of the exp_conv_blocks
    recurrence, from the first knot of that interval to the last knot any
    anchor needs, gives the integral up to each knot. An anchor takes the row
    at the knot at or below its clipped limit, decays it to T and adds its
    partial segments before the first knot and after that knot, formed
    _ANCHOR_ROWS anchors at a time. An anchor within _GRID_REL_TOL * dt of a
    knot is taken at the knot. Returns shape (N,) for a scalar t and
    (len(t), N) for a 1-d array.
    """
    alpha = np.asarray(alpha, dtype=complex)
    _paired(alpha, sig)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DimensionError(f"anchors must be a scalar or 1-d, got shape {ts.shape}")
    if np.any(ts < 0):
        raise DomainError(f"upper limit must be >= 0, got {np.min(ts)}")
    n, dt, tol = sig.n_samples, sig.dt, _GRID_REL_TOL * sig.dt
    T = np.atleast_1d(ts)
    knot = sig.t0 + np.clip(np.rint((T - sig.t0) / dt), 0, n - 1) * dt
    T = np.where(np.abs(T - knot) <= tol, knot, T)
    a = max(0.0, sig.t0)
    b = np.minimum(T, sig.end)
    ka = min(max(int(np.ceil((a - sig.t0) / dt - _GRID_REL_TOL)), 0), n - 1)
    kb = np.clip(np.floor((b - sig.t0) / dt + _GRID_REL_TOL).astype(int), 0, n - 1)
    r_ka = sig.t0 + ka * dt
    r_kb = sig.t0 + kb * dt
    live = b > a + tol
    # row of the recurrence from knot ka, or -1 when no knot lies in [a, b]
    rows = np.where(live & (kb >= ka), kb - ka, -1)

    last = int(np.max(rows, initial=0))
    # a grid that starts at 0 is its own drive, without a shifted copy
    drive = sig if sig.t0 == 0.0 else Signal(0.0, dt, sig.samples[ka:ka + last + 1])
    out = exp_conv_trajectory(alpha, drive, last)[np.maximum(rows, 0)]
    out[rows < 0] = 0.0
    head = live & (a < r_ka - tol)
    tail = (rows >= 0) & (b > r_kb + tol)
    va = values_at(sig, [a])
    for lo in range(0, T.shape[0], _ANCHOR_ROWS):
        c = np.arange(lo, min(lo + _ANCHOR_ROWS, T.shape[0]))
        i = c[(rows[c] >= 0) & (T[c] != r_kb[c])]
        out[i] *= np.exp(np.outer(T[i] - r_kb[i], alpha))
        # [a, first knot], or [a, b] when no knot lies between them
        i = c[head[c]]
        v1 = np.where(rows[i, None] >= 0, sig.samples[ka], values_at(sig, b[i]))
        out[i] += exp_segment_integral(alpha, T[i, None], a, np.minimum(b, r_ka)[i, None],
                                       va, v1)
        # [knot at or below b, b]
        i = c[tail[c]]
        out[i] += exp_segment_integral(alpha, T[i, None], r_kb[i, None], b[i, None],
                                       sig.samples[kb[i]], values_at(sig, b[i]))
    return out if ts.ndim else out[0]


def exp_conv_blocks(alpha, sig: Signal, n_steps: int):
    """Yield x(k dt) = int_0^{k dt} e^(alpha (k dt - r)) v(r) dr on sig's grid,
    k = 0..n_steps, as consecutive blocks of rows (see row_blocks).

    Evaluated by the exact one-step recurrence x_{k+1} = e^(alpha dt) x_k + g_k,
    stepped in time and vectorised over modes. Each block forms its own segment
    integrals g_k and carries its last row into the next, so no
    (n_steps + 1, N) array is held. Requires sig.t0 == 0; the arguments are
    checked on the call, before the first block.
    """
    alpha = np.asarray(alpha, dtype=complex)
    _paired(alpha, sig)
    if sig.t0 != 0.0:
        raise DomainError(f"trajectory convolution requires grid start 0, got {sig.t0}")
    if n_steps < 0:
        raise DomainError(f"n_steps must be >= 0, got {n_steps}")
    return _conv_blocks(alpha, sig, n_steps)


def _conv_blocks(alpha: np.ndarray, sig: Signal, n_steps: int):
    w = alpha * sig.dt
    p1 = phi1(w)
    p2 = phi2(w)
    decay = np.exp(w)
    nseg = min(n_steps, sig.n_samples - 1)
    carry = None
    for k0, k1 in row_blocks(n_steps + 1, alpha.shape[0]):
        block = np.zeros((k1 - k0, alpha.shape[0]), dtype=complex)
        # row k holds g_{k-1} until the step below turns it into x_k
        lo, hi = max(k0, 1), min(k1, nseg + 1)
        if hi > lo:
            block[lo - k0:hi - k0] = segment_weights(sig.samples[lo - 1:hi], sig.dt, p1, p2)
        rows = list(block)
        if k0 > 1:
            rows[0] += decay * carry
        # x_0 = 0 and x_1 = g_0 take no step
        start = 1 if k0 == 0 else 0
        for prev, cur in zip(rows[start:], rows[start + 1:]):
            cur += decay * prev
        carry = block[-1].copy()
        yield block


def exp_conv_trajectory(alpha, sig: Signal, n_steps: int) -> np.ndarray:
    """The rows of exp_conv_blocks gathered into one (n_steps + 1, N) array;
    a trajectory that fits in one block is that block, not a copy of it."""
    blocks = exp_conv_blocks(alpha, sig, n_steps)
    if len(row_blocks(n_steps + 1, sig.width)) == 1:
        return next(blocks)
    out = np.empty((n_steps + 1, sig.width), dtype=complex)
    k = 0
    for block in blocks:
        out[k:k + block.shape[0]] = block
        k += block.shape[0]
    return out


def _is_effectively_real(arr: np.ndarray) -> bool:
    return not np.iscomplexobj(arr) or not np.any(arr.imag != 0.0)


def write_signal_csv(path, sig: Signal) -> None:
    """Write `time,c0,c1,...` rows; complex data gets c0.re,c0.im,... columns.

    Every value is written with 17 significant digits, so it reads back
    exactly; rows end in CRLF, as the csv module writes them.
    """
    if _is_effectively_real(sig.samples):
        names = [f"c{j}" for j in range(sig.width)]
        values = sig.samples.real
    else:
        names = [f"c{j}.{part}" for j in range(sig.width) for part in ("re", "im")]
        values = np.stack([sig.samples.real, sig.samples.imag], axis=2)
    table = np.column_stack([sig.times(), values.reshape(sig.n_samples, -1)])
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=",".join(["time"] + names), comments="")


def read_signal_csv(path) -> Signal:
    """Read the `time,c0,c1,...` format; the step must be constant to 1e-9 relative."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0].strip() != "time":
        raise SchemaError(f"{path}: first column must be 'time'")
    header = [h.strip() for h in rows[0][1:]]
    if not header:
        raise SchemaError(f"{path}: no value columns")
    complex_pairs = all(h.endswith((".re", ".im")) for h in header)
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header) + 1:
            raise SchemaError(f"{path}: row {i} has {len(row)} fields, expected {len(header) + 1}")
        try:
            data.append([float(x) for x in row])
        except ValueError as exc:
            raise SchemaError(f"{path}: row {i}: {exc}") from None
    if len(data) < 2:
        raise SchemaError(f"{path}: need at least 2 rows to define the grid")
    arr = np.asarray(data, dtype=float)
    times = arr[:, 0]
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise SchemaError(f"{path}: times must be strictly increasing")
    dt = (times[-1] - times[0]) / (len(times) - 1)
    if np.max(np.abs(steps - dt)) > _GRID_REL_TOL * max(dt, 1.0):
        raise SchemaError(f"{path}: time step is not constant (relative tol 1e-9)")
    vals = arr[:, 1:]
    if complex_pairs:
        if vals.shape[1] % 2 != 0:
            raise SchemaError(f"{path}: unpaired .re/.im columns")
        vals = vals[:, 0::2] + 1j * vals[:, 1::2]
    return Signal(float(times[0]), float(dt), vals)
