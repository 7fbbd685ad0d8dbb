"""Uniform-grid piecewise-linear signals and exact exponential-kernel quadrature.

Every convolution against e^(alpha t) in this package reduces to the one
segment integral

    int_{r0}^{r1} e^(alpha (T - r)) u(r) dr
        = e^(alpha (T - r1)) * h * (u0 * phi1(alpha h) + (u1 - u0) * phi2(alpha h)),

h = r1 - r0, which is exact for the linear interpolant of (u0, u1). All
discretization error therefore comes from representing a signal on its grid,
never from quadrature. The kernels take the input u and the control matrix B
and form the drive u B^T a block of rows at a time, over u's support as found
on u's rows.
"""

from __future__ import annotations

import csv
import functools
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

# values formatted at once by write_signal_csv, so its per-value temporaries
# stay under about a megabyte
_CSV_BLOCK_VALUES = 4096

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
    # the segment integral without its e^(alpha (T - r1)) factor, formed in
    # place in an array of the arguments' full broadcast shape: the plain
    # expression's operations and operands, so its bits, with fewer temporaries
    out = np.asarray(np.multiply(np.subtract(u1, u0), p2))
    np.add(np.multiply(u0, p1), out, out=out)
    return np.multiply(h, out, out=out)


def segment_weights(v: np.ndarray, h: float, p1, p2) -> np.ndarray:
    """h * (v_k p1 + (v_{k+1} - v_k) p2) for each segment between consecutive rows of v.

    With p1 = phi1(alpha h) and p2 = phi2(alpha h) these are the exact segment
    integrals above without their e^(alpha (T - r1)) factor. Returns one row
    fewer than v.
    """
    return _segment(h, v[:-1], v[1:], p1, p2)


def _check_times(*times) -> None:
    for t in times:
        ts = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(ts) & (ts >= 0)):
            raise DomainError(f"time must be finite and >= 0, got {t}")


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
        if not math.isfinite(self.t0):
            raise DomainError(f"t0 must be finite, got {self.t0}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")
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
    k, frac, inside = _knots(sig, ts)
    if sig.n_samples == 1:
        out = np.where(inside[:, None], sig.samples[0], 0.0)
        return out.astype(sig.samples.dtype)
    return _blend(sig.samples[k], sig.samples[k + 1], frac, inside)


def _knots(sig: Signal, ts):
    # values_at's knot k at or below each time, weight of knot k + 1, grid mask
    pos = (np.atleast_1d(np.asarray(ts, dtype=float)) - sig.t0) / sig.dt
    inside = (pos >= -_GRID_REL_TOL) & (pos <= sig.n_samples - 1 + _GRID_REL_TOL)
    k = np.clip(np.floor(pos).astype(int), 0, max(sig.n_samples - 2, 0))
    return k, np.clip(pos - k, 0.0, 1.0), inside


def _blend(v0: np.ndarray, v1: np.ndarray, frac: np.ndarray, inside: np.ndarray) -> np.ndarray:
    vals = (1.0 - frac)[:, None] * v0 + frac[:, None] * v1
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


def exp_conv_final(alpha, b: np.ndarray, u: Signal, t) -> np.ndarray:
    """int_0^T e^(alpha_n (T - r)) v_n(r) dr for each anchor T in t, v = B u
    with B = b the N x M control matrix and u the M-channel input.

    Exact on the interpolant (zero outside the grid), so the integral runs
    over [max(0, t0), min(T, end)]. One exp_conv_blocks trajectory, from the
    first knot of that interval to the last knot any anchor needs, gives the
    integral up to each knot, with u's support found on u's rows. An anchor
    takes the row at the knot at or below its clipped limit as its block
    streams, decays it to T and adds its partial segments before the first
    knot and after that knot, _ANCHOR_ROWS anchors at a time from one product
    of u B^T at the knots they read. An anchor within _GRID_REL_TOL * dt of a
    knot is taken at the knot. Parts below 2.2e-308 read as +0.0, as in
    exp_conv_blocks, since decay to an anchor past the grid can reach them.
    Anchors must be finite and >= 0. Returns shape (N,) for a scalar t and
    (len(t), N) for a 1-d array.
    """
    alpha = np.asarray(alpha, dtype=complex)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DimensionError(f"anchors must be a scalar or 1-d, got shape {ts.shape}")
    _check_times(ts)
    n, dt, tol = u.n_samples, u.dt, _GRID_REL_TOL * u.dt
    T = np.atleast_1d(ts)
    knot = u.t0 + np.clip(np.rint((T - u.t0) / dt), 0, n - 1) * dt
    T = np.where(np.abs(T - knot) <= tol, knot, T)
    a = max(0.0, u.t0)
    end = np.minimum(T, u.end)
    ka = min(max(int(np.ceil((a - u.t0) / dt - _GRID_REL_TOL)), 0), n - 1)
    kb = np.clip(np.floor((end - u.t0) / dt + _GRID_REL_TOL).astype(int), 0, n - 1)
    r_ka = u.t0 + ka * dt
    r_kb = u.t0 + kb * dt
    live = end > a + tol
    # row of the recurrence from knot ka, or -1 when no knot lies in [a, end]
    rows = np.where(live & (kb >= ka), kb - ka, -1)

    last = int(np.max(rows, initial=0))
    order, k0 = np.argsort(rows), 0
    for block in exp_conv_blocks(alpha, b, Signal(0.0, dt, u.samples[ka:ka + last + 1]), last):
        if not k0:
            # made once the first block's segment integrals are freed
            out = np.zeros((T.shape[0], alpha.shape[0]), dtype=complex)
        lo, hi = np.searchsorted(rows[order], [k0, k0 + block.shape[0]])
        out[order[lo:hi]] = block[rows[order[lo:hi]] - k0]
        k0 += block.shape[0]
    del block  # no block outlives the stream
    head = live & (a < r_ka - tol)
    tail = (rows >= 0) & (end > r_kb + tol)
    for lo in range(0, T.shape[0], _ANCHOR_ROWS):
        c = np.arange(lo, min(lo + _ANCHOR_ROWS, T.shape[0]))
        i = c[(rows[c] >= 0) & (T[c] != r_kb[c])]
        out[i] *= np.exp(np.outer(T[i] - r_kb[i], alpha))
        c = c[head[c] | tail[c]]
        if not c.size:
            continue
        # u B^T at knots ka and kb, and at a and each limit as values_at blends
        # it, from one product of the two or more distinct knots' rows
        k, frac, inside = _knots(u, np.append(a, end[c]))
        knots, pick = np.unique(np.concatenate(([ka], kb[c], k, k + 1)), return_inverse=True)
        v, m = u.samples[knots] @ b.T, c.size + 1
        at_knot, at_time = v[pick[:m]], _blend(v[pick[m:2 * m]], v[pick[2 * m:]], frac, inside)
        # [a, first knot], or [a, end] when no knot lies between them
        i = head[c]
        if i.any():
            v1 = np.where(rows[c[i], None] >= 0, at_knot[0], at_time[1:][i])
            out[c[i]] += exp_segment_integral(alpha, T[c[i], None], a,
                                              np.minimum(end, r_ka)[c[i], None], at_time[:1], v1)
        # [knot at or below end, end]
        i = tail[c]
        out[c[i]] += exp_segment_integral(alpha, T[c[i], None], r_kb[c[i], None],
                                          end[c[i], None], at_knot[1:][i], at_time[1:][i])
    _floor(out)
    return out if ts.ndim else out[0]


def exp_conv_blocks(alpha, b: np.ndarray, u: Signal, n_steps: int):
    """Yield x(k dt) = int_0^{k dt} e^(alpha (k dt - r)) B u(r) dr on u's grid,
    k = 0..n_steps, as consecutive blocks of rows (see row_blocks), with
    B = b the N x M control matrix and u the M-channel input.

    Evaluated by the exact one-step recurrence x_{k+1} = e^(alpha dt) x_k + g_k,
    stepped in time and vectorised over modes. Each block forms its rows of
    the drive u B^T, their segment integrals g_k, and carries its last row
    into the next, so no (n_steps + 1, N) array is held. Past the row after
    u's last nonzero sample, a nonzero u_k with B u_k = 0 included, every g_k
    is zero: those free rows x_{k+1} = e^(alpha dt) x_k form no drive and take
    no Python step, but one multiply.accumulate per block, in place. They
    equal the stepped rows bit for bit on a real spectrum, and the rows keep
    their bits whatever zero tail u carries.

    Every real or imaginary part below the smallest normal float, 2.2e-308,
    is returned as +0.0, and the next block continues from the floored row.
    A block of free rows only runs its passes up to the last live column of
    the carried row: free decay maps +0.0 to +-0.0 and the floor writes +0.0
    back, so a zero column stays +0.0, and the columns past it keep the
    zeros the block was made of, with the same bits as passes over every
    column. Fewer than all live columns are formed in a contiguous array
    and then copied into the block, since numpy pays per row on a narrow
    view. A spectrum whose stiffest modes come last gains the most.
    Where e^(alpha dt) > 1/2, rounding holds a free decay at the smallest
    subnormal, 4.9e-324, while its true value falls far below it, so zero is
    the nearer value, and no later pass runs on the slow subnormal path.
    Layouts can differ by less than 2.3e-308 where a floored part of the
    carried row meets a term below 2e-292 in the next step: on a complex
    spectrum a cross term of e^(alpha dt) x_k, on a real one only a nonzero
    g_k that small, so a real spectrum under a drive of ordinary size keeps
    every bit.
    Requires u.t0 == 0; the arguments are checked on the call, before the
    first block.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if np.shape(b) != (alpha.shape[0], u.width):
        raise DimensionError(f"control matrix of shape {np.shape(b)} does not map "
                             f"{u.width} inputs to {alpha.shape[0]} modes")
    if u.t0 != 0.0:
        raise DomainError(f"trajectory convolution requires grid start 0, got {u.t0}")
    if n_steps < 0:
        raise DomainError(f"n_steps must be >= 0, got {n_steps}")
    return _conv_blocks(alpha, b, u, n_steps)


def _forced_rows(u: Signal, n_steps: int) -> int:
    # the last row of exp_conv_blocks with a g_k, the row after u's last
    # nonzero sample: found on the samples, not their count, so a zero tail
    # keeps the bits (a stepped and an accumulated free row can differ)
    live = np.flatnonzero(np.any(u.samples[:n_steps + 1] != 0.0, axis=1))
    return min(int(live[-1]) + 1, u.n_samples - 1) if live.size else 0


def _floor(arr: np.ndarray) -> None:
    # every real or imaginary part below the smallest normal float to +0.0;
    # putmask takes a third of the time of boolean indexing on the free blocks
    parts = arr.view(float)
    np.putmask(parts, np.abs(parts) < np.finfo(float).tiny, 0.0)


def _live_width(row: np.ndarray) -> int:
    # 1 + the index of the row's last nonzero entry, 0 if it has none
    live = np.flatnonzero(row)
    return int(live[-1]) + 1 if live.size else 0


def _decay_step(x: np.ndarray, decay: np.ndarray) -> np.ndarray:
    # x * decay as a 3-row accumulate forms it. On numpy 2.4.6 an accumulate
    # takes its scalar complex product over 3 rows or more but its vector
    # product, operands swapped, over exactly 2, and the two differ in the last
    # bit on complex spectra. numpy does not promise this choice of inner loop;
    # test_conv_blocks_match_single_block[{1,2}-complex] fails if it changes.
    return np.multiply.accumulate([x, decay, decay])[1]


def _step_rows(rows: list[np.ndarray], decay: np.ndarray) -> None:
    # x_k = decay x_{k-1} + g_{k-1} down rows that hold g_{k-1}; a function of
    # its own, so no row view outlives the call and keeps its block alive
    for prev, cur in zip(rows, rows[1:]):
        cur += decay * prev


def _conv_blocks(alpha: np.ndarray, b: np.ndarray, u: Signal, n_steps: int):
    w = alpha * u.dt
    p1 = phi1(w)
    p2 = phi2(w)
    decay = np.exp(w)
    # rows up to `forced` carry a g_k; every later row is free decay
    forced = _forced_rows(u, n_steps)
    carry = None
    for k0, k1 in row_blocks(n_steps + 1, alpha.shape[0]):
        block = np.zeros((k1 - k0, alpha.shape[0]), dtype=complex)
        # row k holds g_{k-1} until the step below turns it into x_k
        lo, hi = max(k0, 1), min(k1, forced + 1)
        if hi > lo:
            block[lo - k0:hi - k0] = segment_weights(u.samples[lo - 1:hi] @ b.T, u.dt, p1, p2)
        if hi > k0:
            if k0 > 1:
                block[0] += decay * carry
            # x_0 = 0 and x_1 = g_0 take no step
            _step_rows(list(block[1 if k0 == 0 else 0:hi - k0]), decay)
            live = block
            free = block[hi - k0 - 1:]
        else:
            # every row is free: a +0.0 column of the carry stays +0.0, so the
            # passes run on its live columns alone, and the rest of the block
            # keeps np.zeros. Fewer than all columns are formed in a contiguous
            # array of their own, since numpy pays per row on a narrow view.
            width = _live_width(carry)
            live = free = block if width == block.shape[1] else \
                np.empty((k1 - k0, width), dtype=complex)
            free[0] = _decay_step(carry[:width], decay[:width])
        rate = decay[:free.shape[1]]
        # the free rows, each from the one before, seeded by the row above them;
        # a 2-row accumulate would round differently (see _decay_step)
        if free.shape[0] == 2:
            free[1] = _decay_step(free[0], rate)
        elif free.shape[0] > 2:
            free[1:] = rate
            np.multiply.accumulate(free, axis=0, out=free)
        _floor(live)
        if live is not block:
            block[:, :live.shape[1]] = live
        # at the live width: past it the next block's columns stay zero
        carry = live[-1].copy()
        yield block


def sample_free_output(alpha, c, x, tau0: float, h: float, n: int) -> np.ndarray:
    """Samples of tau -> c e^(alpha tau) x, the output of the free decay of the
    diagonal state x, on the grid tau0 + h k, k = 0..n-1; shape (n, K).

    Only the K outputs are stored; the (rows, N) modes live one block of rows
    (see row_blocks) at a time. A block starting at tau_a is e^(alpha tau_a) x
    times one table of e^(alpha j h), shared by every block, so each row costs
    one complex product per mode, not one exp.
    """
    y = np.empty((n, c.shape[0]), dtype=complex)
    blocks = row_blocks(n, alpha.shape[0])
    # e^(alpha j h) for j below the longest block
    table = np.exp(np.outer(h * np.arange(max(b - a for a, b in blocks)), alpha))
    for a, b in blocks:
        y[a:b] = (table[:b - a] * (np.exp(alpha * (tau0 + h * a)) * x)) @ c.T
    return y


def _is_effectively_real(arr: np.ndarray) -> bool:
    return not np.iscomplexobj(arr) or not np.any(arr.imag != 0.0)


def write_signal_csv(path, sig: Signal) -> None:
    """Write `time,c0,c1,...` rows; complex data gets c0.re,c0.im,... columns.

    Every value is written as Python's `'%.17g'` writes it, byte for byte, so
    it reads back exactly; rows end in CRLF, as the csv module writes them.
    The digits are formed vectorised, about 4096 values (_CSV_BLOCK_VALUES)
    at a time, so the writer holds one block's temporaries whatever the
    table's size. A row holding a value the vectorised path cannot round for
    certain (a decimal tie, a subnormal, a magnitude outside about
    [1e-250, 1e270]) is written by Python's formatter instead.
    """
    real = _is_effectively_real(sig.samples)
    parts = ("",) if real else (".re", ".im")
    names = ["time"] + [f"c{j}{part}" for j in range(sig.width) for part in parts]
    times = sig.times()
    rows = max(1, _CSV_BLOCK_VALUES // len(names))
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\r\n").encode())
        for k in range(0, sig.n_samples, rows):
            v = sig.samples[k:k + rows]
            values = np.stack([v.real] if real else [v.real, v.imag], axis=2).reshape(len(v), -1)
            # as doubles: a long double value is written as '%.17g' would write it
            table = np.column_stack([times[k:k + rows], values]).astype(float, copy=False)
            fh.write(_csv_rows(table))


# A value x = D 10^(e - 16), D the 17-digit significand round(|x| 10^(16 - e)),
# is written from one canonical row of bytes that holds every character any
# %.17g layout of it can use, and a keep-mask picks the layout's bytes:
#   sign, "0.000", D's first digit, D's other 16 digits, ".", the 16 again,
#   the exponent as "e", its sign and 2 digits, then a third digit, ",", "\r\n"
# Fixed notation takes its integer digits from the first copy and its
# fraction from the second. Each copy is 4 aligned 4-digit words, and a byte
# that no layout keeps pads the row so they are.
_CSV_TEMPLATE = b"-0.000 0" + b"0" * 16 + b".   " + b"0" * 16 + b"e+000,\r\n"
_CSV_LEAD, _CSV_WORDS, _CSV_EXP = 7, (2, 7), 11  # D's first digit, word of each copy and of "e"
# layouts: fixed notation at e = -4..16, scientific with 2 or 3 exponent digits
_CSV_LAYOUTS = 23
# |x| range of the vectorised path: every product and Dekker split below stays
# normal and finite there
_CSV_RANGE = (1e-250, 1e270)
# a fraction of |x| 10^(16 - e) within this of 1/2 goes to Python's formatter:
# the computed fraction is off by less than 1e-14, and an exact tie rounds half
# to even, which the vectorised path does not decide
_CSV_TIE_GUARD = 1e-9
_CSV_SCALES = range(16 - 275, 16 + 255)  # the exponents s of the 10^s table
_CSV_EXPONENTS = range(-400, 400)  # the exponents e of the "e+XX" word table


@functools.cache
def _csv_tables():
    # built on first use, not at import: 10^s as an exact (hi, lo) pair with
    # hi's Dekker halves, "0000".."9999" as 4-byte words with the number of
    # trailing zeros of each, the exponents as a word and a fifth byte, and
    # the keep-masks as words
    pow10 = []
    for s in _CSV_SCALES:
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den
        m, d = hi.as_integer_ratio()
        pow10.append((hi, (num * d - m * den) / (den * d)))
    hi, lo = np.array(pow10).T
    hh, hl = _split(hi)
    # int16 and uint8, so that building them does not raise the process's peak
    i = np.arange(10000, dtype=np.int16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    words = (48 + digits).view(np.uint32)[:, 0]
    zeros = np.sum([i % 10 ** k == 0 for k in range(1, 5)], axis=0, dtype=np.uint8)
    exps = np.frombuffer(b"".join(b"e%+04d" % e if abs(e) > 99 else b"e%+03d " % e
                                  for e in _CSV_EXPONENTS), dtype=np.uint8).reshape(-1, 5)

    # keep-mask per (layout, significant digits, sign, last column)
    layout, nd, neg, last = np.ix_(range(_CSV_LAYOUTS), range(1, 18), range(2), range(2))
    e = layout - 4
    fixed = layout < 21
    small = fixed & (e < 0)
    point = np.where(fixed, e, 0)  # the digit the point follows, unless small
    keep = [neg == 1, small, small] + [small & (e <= -2 - k) for k in range(3)]
    keep += [False, True]
    keep += [np.where(small, j < nd, j <= point) for j in range(1, 17)]
    keep += [~small & (nd - 1 > point)] + [False] * 3
    keep += [~small & (point < j) & (j < nd) for j in range(1, 17)]
    keep += [~fixed] * 4 + [layout == 22, last == 0, last == 1, last == 1]
    keep = np.stack(np.broadcast_arrays(*keep), axis=-1).reshape(-1, len(_CSV_TEMPLATE))
    return (hi, lo, hh, hl, words, zeros, np.ascontiguousarray(exps[:, :4]).view(np.uint32)[:, 0],
            exps[:, 4].copy(), (keep * np.uint8(255)).view(np.uint32), keep.sum(axis=1))


def _split(a):
    # Dekker's split of a into halves of 26 bits and 27 bits, a = ah + al
    c = 134217729.0 * a
    ah = c - (c - a)
    return ah, a - ah


def _scaled(x, s, tables):
    # x 10^s as floor and fraction, x 10^s < 9e18, from Dekker's exact product
    # of x and 10^s's head plus x times its tail
    hi, lo, hh, hl = (np.take(t, s - _CSV_SCALES[0]) for t in tables[:4])
    p = x * hi
    xh, xl = _split(x)
    r = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + x * lo
    whole = np.floor(r)
    return p.astype(np.int64) + whole.astype(np.int64), r - whole


def _csv_rows(table: np.ndarray) -> bytes:
    # the %.17g CSV rows of a float table: digits and layout vectorised, rows
    # with a value they cannot round for certain from Python's formatter
    tables = _csv_tables()
    words, zeros, exp_words, exp_bytes, masks, lengths = tables[4:]
    x = table.ravel()
    ax = np.abs(x)
    zero = x == 0.0
    fast = (ax >= _CSV_RANGE[0]) & (ax <= _CSV_RANGE[1])
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    d, frac = _scaled(ax, 16 - e, tables)
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < _CSV_TIE_GUARD)
    # log10 can miss e by one next to a power of ten, and D can round up to
    # 10^17: take those again at the exponent below or above
    shift = (d + (frac > 0.5) >= 10 ** 17).astype(np.int64) - (d < 10 ** 16)
    redo = np.flatnonzero(shift)
    if redo.size:
        e[redo] += shift[redo]
        d[redo], frac[redo] = _scaled(ax[redo], 16 - e[redo], tables)
        slow[redo] |= np.abs(frac[redo] - 0.5) < _CSV_TIE_GUARD
    d += frac > 0.5
    slow |= ~zero & ((d < 10 ** 16) | (d >= 10 ** 17))
    # a slow value's bytes are replaced with its row's, but their count must
    # be its layout's: in range, D writes no NUL
    np.clip(d, 10 ** 16, 10 ** 17 - 1, out=d)
    d[zero], e[zero] = 0, 0

    # D's last 16 digits in 4 groups, most significant first
    groups = np.empty((x.size, 4), dtype=np.int64)
    for j in range(3, -1, -1):
        q = d // 10000
        groups[:, j] = d - 10000 * q
        d = q
    # significant digits: 17 less D's trailing zeros, one for a zero
    tz, low = np.take(zeros, groups), groups == 0
    tz = tz[:, 3] + low[:, 3] * (tz[:, 2] + low[:, 2] * (tz[:, 1] + low[:, 1] * tz[:, 0]))
    nd = np.where(zero, 1, 17 - tz)
    layout = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
    last = np.zeros(table.shape, dtype=bool)
    last[:, -1] = True
    key = ((layout * 17 + nd - 1) * 2 + np.signbit(x)) * 2 + last.ravel()
    text = np.take(words, groups)
    del ax, frac, shift, groups, tz, low, nd, layout  # the rows of bytes below set the peak
    # an array over a bytearray, so its bytes are deleted below without a copy
    buf = bytearray(x.size * len(_CSV_TEMPLATE))
    canon = np.frombuffer(buf, dtype=np.uint8).reshape(x.size, -1)
    canon[:] = np.frombuffer(_CSV_TEMPLATE, dtype=np.uint8)
    for w in _CSV_WORDS:
        canon.view(np.uint32)[:, w:w + 4] = text
    canon[:, _CSV_LEAD] += d.astype(np.uint8)
    canon.view(np.uint32)[:, _CSV_EXP] = np.take(exp_words, e - _CSV_EXPONENTS[0])
    canon[:, 4 * _CSV_EXP + 4] = np.take(exp_bytes, e - _CSV_EXPONENTS[0])
    # the masked-out bytes become NUL, which no layout writes, and are deleted
    canon.view(np.uint32)[...] &= np.take(masks, key, axis=0)
    out = buf.translate(None, b"\0")
    if not slow.any():
        return out
    ends = np.cumsum(np.take(lengths, key).reshape(table.shape).sum(axis=1))
    pieces, start = [], 0
    for row in np.flatnonzero(slow.reshape(table.shape).any(axis=1)):
        pieces.append(out[start:ends[row - 1] if row else 0])
        pieces.append((",".join(format(v, ".17g") for v in table[row].tolist()) + "\r\n").encode())
        start = ends[row]
    pieces.append(out[start:])
    return b"".join(pieces)


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
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}: times and values must be finite")
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
