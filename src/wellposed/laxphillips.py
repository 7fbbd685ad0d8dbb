"""Block semigroup on the extended space (past outputs) x (state) x (future inputs).

The evolution acts upper-triangularly: the past-output component is left
shifted and the vacated window is filled with the fresh observation of the
state plus the input-output contribution; the state evolves by e^(At) plus the
controlled drift; the future input is left shifted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, DomainError, HorizonError, SchemaError
from .signals import (
    _GRID_REL_TOL,
    Signal,
    _check_times,
    exp_conv_blocks,
    exp_conv_final,
    lp_norm,
    read_signal_csv,
    resample,
    sample_free_output,
    values_at,
    write_signal_csv,
)
from .spectral import as_state, semigroup_apply
from .system import SpectralSystem, _entry

_ENVELOPE_SCHEMA = "wellposed.extended-state@1"


@dataclass(frozen=True)
class ExtendedState:
    """Triple (past output on [-T_w, 0], state, future input on [0, T_f])."""

    past_output: Signal
    state: np.ndarray
    future_input: Signal

    def __post_init__(self):
        object.__setattr__(self, "state", as_state(self.state))
        past, fut = self.past_output, self.future_input
        if abs(past.end) > _GRID_REL_TOL * max(1.0, -past.t0):
            raise DomainError(f"past output grid must end at 0, ends at {past.end}")
        if abs(fut.t0) > _GRID_REL_TOL * max(1.0, fut.end):
            raise DomainError(f"future input grid must start at 0, starts at {fut.t0}")

    @property
    def window(self) -> float:
        return -self.past_output.t0


def _check_dims(sys: SpectralSystem, xs: ExtendedState) -> None:
    if xs.past_output.width != sys.n_outputs:
        raise DimensionError(
            f"past output has width {xs.past_output.width}, system has "
            f"{sys.n_outputs} outputs"
        )
    if xs.future_input.width != sys.n_inputs:
        raise DimensionError(
            f"future input has width {xs.future_input.width}, system has "
            f"{sys.n_inputs} inputs"
        )
    as_state(xs.state, sys.n_modes)


def _span_grid(t: float, dt: float) -> tuple[int, float]:
    # a block's grid on [-t, 0]: the step nearest dt that fits t a whole number of times
    _check_times(t)
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    steps = max(1, round(t / dt))
    return steps, t / steps


def observe_trajectory(sys: SpectralSystem, t: float, x, dt: float) -> Signal:
    """Past-output block of the free evolution: s -> c . (e^(alpha (t+s)) x)
    sampled on [-t, 0] with target step dt by signals.sample_free_output, which
    holds O(rows K), not every mode at every sample; zero for t = 0."""
    steps, h = _span_grid(t, dt)
    xv = as_state(x, sys.n_modes)
    if t == 0:
        return Signal(0.0, dt, np.zeros((1, sys.n_outputs)))
    return Signal(-t, h, sample_free_output(sys.gen.eigenvalues, sys.observation, xv,
                                            0.0, h, steps + 1))


def control_to_state(sys: SpectralSystem, t, u: Signal) -> np.ndarray:
    """State reached from rest: x_n = sum_j b_nj int_0^t e^(alpha_n (t-r)) u_j(r) dr.

    t is one time or a 1-d array of them; returns shape (N,) or one row per
    time, as exp_conv_final does.
    """
    return exp_conv_final(sys.gen.eigenvalues, sys.control, u, t)


def input_output_map(sys: SpectralSystem, t: float, u: Signal,
                     dt: float | None = None) -> Signal:
    """Output block driven from rest on [-t, 0]:

        y(s) = c . int_0^{t+s} e^(alpha (t+s-r)) v(r) dr + D u(t+s),

    v = B u on u's support, found on u's rows; each exp_conv_blocks block of
    the exact recurrence adds its K output rows, so no N-wide array is held.
    """
    if dt is None:
        dt = u.dt
    steps, h = _span_grid(t, dt)
    if u.width != sys.n_inputs:
        raise DimensionError(f"input has width {u.width}, expected {sys.n_inputs}")
    if t == 0:
        return Signal(0.0, dt, np.zeros((1, sys.n_outputs)))
    uvals = resample(u, 0.0, h, steps + 1)
    y = np.concatenate([block @ sys.observation.T for block in
                        exp_conv_blocks(sys.gen.eigenvalues, sys.control, uvals, steps)])
    return Signal(-t, h, y + uvals.samples @ sys.feedthrough.T)


def step_extended_state(sys: SpectralSystem, t: float, xs: ExtendedState) -> ExtendedState:
    """Advance the extended state by t.

    Past output: left shift by t, with the vacated (-t, 0] filled by the fresh
    block c . x(t+s) + D u(t+s) of the driven trajectory; the junction sample
    at t+s = 0 keeps the shifted history. State: e^(At) x plus the controlled
    drift. Future input: left shift by t, zero once the window is exhausted.
    The past window length is fixed; a step larger than the window cannot be
    represented and raises a horizon error.
    """
    _check_times(t)
    _check_dims(sys, xs)
    if t == 0:
        return xs
    past, u = xs.past_output, xs.future_input
    window = xs.window
    if t > window * (1.0 + _GRID_REL_TOL):
        raise HorizonError(
            f"step t = {t} exceeds the past-output window {window}; "
            "enlarge the window"
        )
    x = as_state(xs.state, sys.n_modes)

    s_grid = past.times()
    new_past = np.zeros((s_grid.shape[0], sys.n_outputs), dtype=complex)
    old_region = s_grid <= -t + _GRID_REL_TOL * past.dt
    new_past[old_region] = values_at(past, t + s_grid[old_region])
    tau = t + s_grid[~old_region]
    # the drift at every fresh tau and, in the last row, at tau = t for the state
    drift = control_to_state(sys, np.append(tau, t), u)
    # the fresh samples lie on the past-output grid, from tau[0] by past.dt
    free = sample_free_output(sys.gen.eigenvalues, sys.observation, x, tau[0], past.dt,
                              tau.shape[0])
    new_past[~old_region] = (free + drift[:-1] @ sys.observation.T
                             + values_at(u, tau) @ sys.feedthrough.T)
    past_out = Signal(past.t0, past.dt, new_past)
    new_state = semigroup_apply(sys.gen, t, x) + drift[-1]

    qu = round(t / u.dt)
    if abs(t - qu * u.dt) <= _GRID_REL_TOL * max(1.0, t) and qu < u.n_samples - 1:
        fut = Signal(0.0, u.dt, u.samples[qu:])
    else:
        n_new = int(np.floor((u.end - t) / u.dt + _GRID_REL_TOL)) + 1
        if n_new < 2:
            # window exhausted: the zero-extended tail is the zero signal
            fut = Signal(0.0, u.dt, np.zeros((2, sys.n_inputs)))
        else:
            fut = Signal(0.0, u.dt, values_at(u, t + u.dt * np.arange(n_new)))
    return ExtendedState(past_out, new_state, fut)


def semigroup_law_residual(sys: SpectralSystem, t: float, s: float,
                           xs: ExtendedState) -> float:
    """Product-norm distance between the one-shot step by t+s and the two-step
    composition; the product norm is the max of the three component norms."""
    _check_times(t, s)
    one = step_extended_state(sys, t + s, xs)
    two = step_extended_state(sys, t, step_extended_state(sys, s, xs))

    d_past = lp_norm(Signal(one.past_output.t0, one.past_output.dt,
                            np.asarray(one.past_output.samples)
                            - two.past_output.samples), 2.0)
    d_state = float(np.linalg.norm(one.state - two.state))
    dt_u = one.future_input.dt
    n = max(one.future_input.n_samples, two.future_input.n_samples)
    grid = dt_u * np.arange(n)
    d_fut = lp_norm(Signal(0.0, dt_u,
                           values_at(one.future_input, grid)
                           - values_at(two.future_input, grid)), 2.0)
    return float(max(d_past, d_state, d_fut))


def save_extended_state(dir_path, xs: ExtendedState) -> Path:
    """Write past/future CSVs plus a JSON envelope referencing them; returns
    the envelope path. Degenerate single-sample signals cannot round-trip
    through CSV and are rejected."""
    if xs.past_output.n_samples < 2 or xs.future_input.n_samples < 2:
        raise SchemaError("signals need at least 2 samples to serialize")
    directory = Path(dir_path)
    directory.mkdir(parents=True, exist_ok=True)
    write_signal_csv(directory / "past_output.csv", xs.past_output)
    write_signal_csv(directory / "future_input.csv", xs.future_input)
    envelope = {
        "schema": _ENVELOPE_SCHEMA,
        "pastOutput": "past_output.csv",
        "futureInput": "future_input.csv",
        "state": [[float(z.real), float(z.imag)] for z in xs.state],
    }
    path = directory / "extended_state.json"
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    return path


def load_extended_state(envelope_path) -> ExtendedState:
    """Read an extended state written by save_extended_state."""
    path = Path(envelope_path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not isinstance(raw, dict) or raw.get("schema") != _ENVELOPE_SCHEMA:
        raise SchemaError(f"{path}: not an extended-state envelope")
    for key in ("pastOutput", "futureInput", "state"):
        if key not in raw:
            raise SchemaError(f"{path}: missing field {key!r}")
    for key in ("pastOutput", "futureInput"):
        # a bare name: nothing outside the envelope's directory is read
        name = raw[key]
        if not (isinstance(name, str) and name not in ("", "..") and Path(name).name == name):
            raise SchemaError(f"{path}: {key} must be a file name in the envelope's "
                              f"directory, got {name!r}")
    if not isinstance(raw["state"], list):
        raise SchemaError(f"{path}: state must be a list of [re, im] pairs")
    state = [_entry(v, f"{path}: state[{i}]") for i, v in enumerate(raw["state"])]
    past = read_signal_csv(path.parent / raw["pastOutput"])
    future = read_signal_csv(path.parent / raw["futureInput"])
    return ExtendedState(past, np.asarray(state, dtype=complex), future)
