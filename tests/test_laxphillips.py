import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cross_oracles import control_to_state_ibp, conv_trajectory, input_output_map_intxp
from wellposed import laplace, laxphillips, signals
from wellposed.certificate import _probe_input
from wellposed.errors import (
    DimensionError,
    DomainError,
    HorizonError,
    PreconditionError,
    SchemaError,
)
from wellposed.laxphillips import (
    ExtendedState,
    control_to_state,
    input_output_map,
    load_extended_state,
    observe_trajectory,
    save_extended_state,
    semigroup_law_residual,
    step_extended_state,
)
from wellposed.laplace import verify_resolvent_entries
from wellposed.signals import (
    Signal,
    exp_conv_final,
    lp_norm,
    resample,
    sample_free_output,
    values_at,
)
from wellposed.spectral import semigroup_apply
from wellposed.system import build_system

_E = math.e

_SCALAR = {
    "eigenvalues": [[-1.0, 0.0]],
    "control": [[[1.0, 0.0]]],
    "observation": [[[1.0, 0.0]]],
    "feedthrough": [[[0.0, 0.0]]],
}


def _scalar_sys(feedthrough=0.0):
    desc = dict(_SCALAR)
    desc["feedthrough"] = [[[feedthrough, 0.0]]]
    return build_system(desc)


def _const_u(value=1.0, end=1.0, dt=0.01, m=1):
    n = round(end / dt) + 1
    return Signal(0.0, dt, np.full((n, m), value))


def _heat(n=8):
    return build_system({"builtin": "heat", "modes": n})


def _heat_u(end=2.0, dt=1e-2):
    n = round(end / dt) + 1
    r = dt * np.arange(n)
    return Signal(0.0, dt, np.stack([np.sin(1.3 * r), np.cos(0.7 * r) - 1.0], axis=1))


def _rest_state(sys, window=2.0, dt=1e-2, u=None):
    n = round(window / dt) + 1
    past = Signal(-window, dt, np.zeros((n, sys.n_outputs)))
    if u is None:
        u = Signal(0.0, dt, np.zeros((2, sys.n_inputs)))
    return ExtendedState(past, np.zeros(sys.n_modes), u)


def test_observe_zero_time():
    sig = observe_trajectory(_scalar_sys(), 0.0, [1.0], 0.1)
    assert sig.n_samples == 1 and np.all(sig.samples == 0.0)
    assert lp_norm(sig, 2.0) == 0.0


def test_observe_scalar_oracle():
    sig = observe_trajectory(_scalar_sys(), 1.0, [1.0], 0.125)
    assert sig.t0 == -1.0 and sig.end == pytest.approx(0.0, abs=1e-15)
    assert values_at(sig, [0.0])[0, 0] == pytest.approx(1.0 / _E, rel=1e-14)
    assert values_at(sig, [-1.0])[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_observe_memory_holds_outputs_not_modes():
    # heat N = 256 over 10 001 samples: every mode at every sample would take
    # 41 MB; the sampler holds the outputs and a few blocks of rows x modes
    sys = _heat(256)
    x = np.random.default_rng(8).standard_normal(256)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sig = observe_trajectory(sys, 10.0, x, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sig.n_samples == 10001
    assert peak <= 8e6


def test_free_output_has_one_sampler(monkeypatch):
    # r12 (once per piece), observe_trajectory and the fresh block of a step
    # all sample the free output through the one function in signals
    real = signals.sample_free_output
    calls = []

    def spy(alpha, c, x, tau0, h, n):
        calls.append(n)
        return real(alpha, c, x, tau0, h, n)

    for module in (laplace, laxphillips):
        assert module.sample_free_output is real
        monkeypatch.setattr(module, "sample_free_output", spy)
    sys = _heat(16)
    xs = _heat_step_state(16, 1e-2, 4.0)
    # heat 16 at dt = 1e-2 has a stiff layer of 217 fine steps before its dt grid
    assert verify_resolvent_entries(sys, (1.0,), xs.state, xs.future_input,
                                    t_max=10.0, dt=1e-2)[0].passed
    assert calls == [218, 977]
    calls.clear()
    observe_trajectory(sys, 0.5, xs.state, 1e-2)
    assert calls == [51]
    calls.clear()
    step_extended_state(sys, 0.5, xs)
    assert calls == [50]


def test_observe_matches_pointwise_formula():
    sys = _heat()
    rng = np.random.default_rng(8)
    x = rng.standard_normal(8)
    sig = observe_trajectory(sys, 0.5, x, 1e-2)
    for s in (-0.5, -0.25, -0.1, 0.0):
        expect = sys.observation @ semigroup_apply(sys.gen, 0.5 + s, x)
        got = values_at(sig, [s])[0]
        np.testing.assert_allclose(got, expect, atol=1e-12)


def test_control_to_state_oracles():
    sys = _scalar_sys()
    assert control_to_state(sys, 0.0, _const_u())[0] == 0.0
    out = control_to_state(sys, 1.0, _const_u(1.0, end=1.0))
    assert out[0] == pytest.approx(1.0 - 1.0 / _E, rel=1e-13)
    ramp = Signal(0.0, 0.02, (0.02 * np.arange(51))[:, None])
    assert control_to_state(sys, 1.0, ramp)[0] == pytest.approx(1.0 / _E, rel=1e-13)


def test_ibp_oracles():
    sys = _scalar_sys()
    zero = Signal(0.0, 0.1, np.zeros((11, 1)))
    assert control_to_state_ibp(sys, 1.0, zero)[0] == 0.0
    out = control_to_state_ibp(sys, 1.0, _const_u(1.0, end=1.0))
    assert out[0] == pytest.approx(1.0 - 1.0 / _E, rel=1e-13)
    ramp = Signal(0.0, 0.02, (0.02 * np.arange(51))[:, None])
    assert control_to_state_ibp(sys, 1.0, ramp)[0] == pytest.approx(1.0 / _E, rel=1e-13)


def test_ibp_zero_extension_jump():
    # input supported on [0, 0.5] only; the parts formula must clip to [a, b]
    sys = _scalar_sys()
    u = _const_u(1.0, end=0.5, dt=0.05)
    expect = math.exp(-0.5) - math.exp(-1.0)
    assert control_to_state(sys, 1.0, u)[0] == pytest.approx(expect, rel=1e-13)
    assert control_to_state_ibp(sys, 1.0, u)[0] == pytest.approx(expect, rel=1e-13)


def test_ibp_matches_direct_on_random_inputs():
    sys = _heat(6)
    rng = np.random.default_rng(21)
    for trial in range(8):
        dt = rng.choice([0.01, 0.025, 0.04])
        n = rng.integers(20, 80)
        t0 = rng.choice([0.0, -0.3, 0.2])
        u = Signal(t0, dt, rng.standard_normal((n, 2)))
        t = float(rng.uniform(0.1, 2.5))
        a = control_to_state(sys, t, u)
        b = control_to_state_ibp(sys, t, u)
        scale = max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(a - b)) <= 1e-8 * scale


def test_io_map_zero_input():
    sig = input_output_map(_scalar_sys(), 1.0, _const_u(0.0))
    assert np.all(np.asarray(sig.samples) == 0.0)


def test_io_map_quadratic_oracle():
    # y(0) for u(r) = r^2: int_0^1 e^{-(1-r)} r^2 dr = 1 - 2/e
    dt = 1e-3
    r = dt * np.arange(1001)
    u = Signal(0.0, dt, (r**2)[:, None])
    sig = input_output_map(_scalar_sys(), 1.0, u)
    expect = 1.0 - 2.0 / _E
    assert values_at(sig, [0.0])[0, 0] == pytest.approx(expect, abs=1e-5)
    with_d = input_output_map(_scalar_sys(feedthrough=1.0), 1.0, u)
    assert values_at(with_d, [0.0])[0, 0] == pytest.approx(expect + 1.0, abs=1e-5)


def test_io_map_intxp_agrees_on_smooth_input():
    # u in W0: u(0) = u'(0) = 0
    sys = _heat(6)
    dt = 2e-3
    r = dt * np.arange(round(1.0 / dt) + 1)
    prof = (r**2) * (1.0 - r) ** 2
    u = Signal(0.0, dt, np.stack([prof, -prof], axis=1))
    direct = input_output_map(sys, 1.0, u)
    cross = input_output_map_intxp(sys, 1.0, u)
    diff = np.max(np.abs(np.asarray(direct.samples) - cross.samples))
    assert diff <= 50.0 * dt**2


def test_io_map_intxp_rejects_nonzero_start():
    sys = _scalar_sys()
    with pytest.raises(PreconditionError):
        input_output_map_intxp(sys, 1.0, _const_u(1.0))


def test_io_map_and_state_carry_no_subnormal_part():
    # e^(alpha dt) > 1/2 for alpha = -100 and -300 at dt = 1e-3, so round to
    # nearest would hold their free decay at the smallest subnormal; the
    # second output observes only those two modes
    sys = build_system({
        "eigenvalues": [-100.0, -300.0, -2.0],
        "control": [[1.0], [0.5], [0.3]],
        "observation": [[1.0, 0.7, 0.2], [1.0, 0.7, 0.0]],
    })
    dt = 1e-3
    r = dt * np.arange(1001)
    u = Signal(0.0, dt, (r**2 * (1.0 - r) ** 2)[:, None])

    def subnormal_parts(arr):
        parts = np.abs(np.asarray(arr).view(float))
        return int(np.count_nonzero((parts != 0.0) & (parts < np.finfo(float).tiny)))

    y = input_output_map(sys, 10.0, u).samples
    assert subnormal_parts(y) == 0 and y[-1, 1] == 0.0 and y[-1, 0] != 0.0
    states = control_to_state(sys, np.linspace(0.0, 10.0, 41), u)
    assert subnormal_parts(states) == 0 and np.all(states[-1, :2] == 0.0)


_TIME_CALLS = {
    "observe_trajectory": lambda sys, t: observe_trajectory(sys, t, [1.0], 0.1),
    "control_to_state": lambda sys, t: control_to_state(sys, [0.5, t], _const_u()),
    "input_output_map": lambda sys, t: input_output_map(sys, t, _const_u()),
    "step_extended_state": lambda sys, t: step_extended_state(sys, t, _rest_state(sys)),
    "semigroup_law_residual": lambda sys, t: semigroup_law_residual(sys, 0.5, t,
                                                                    _rest_state(sys)),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call", sorted(_TIME_CALLS))
def test_maps_reject_non_finite_and_negative_times(call, t):
    with pytest.raises(DomainError, match="finite and >= 0"):
        _TIME_CALLS[call](_scalar_sys(), t)


@pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan])
def test_maps_reject_non_finite_steps(dt):
    # dt = inf gave a 2-sample block at step t; NaN and -inf fail the same test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="dt must be finite and > 0"):
            input_output_map(_scalar_sys(), 1.0, _const_u(), dt=dt)
        with pytest.raises(DomainError, match="dt must be finite and > 0"):
            observe_trajectory(_scalar_sys(), 1.0, [1.0], dt)


def test_extended_state_validation():
    good_past = Signal(-1.0, 0.1, np.zeros((11, 1)))
    good_future = Signal(0.0, 0.1, np.zeros((11, 1)))
    ExtendedState(good_past, np.zeros(1), good_future)
    with pytest.raises(DomainError):
        ExtendedState(Signal(-1.0, 0.1, np.zeros((5, 1))), np.zeros(1), good_future)
    with pytest.raises(DomainError):
        ExtendedState(good_past, np.zeros(1), Signal(0.5, 0.1, np.zeros((3, 1))))


def test_step_zero_time_is_identity():
    sys = _scalar_sys()
    xs = _rest_state(sys)
    assert step_extended_state(sys, 0.0, xs) is xs


def test_step_free_evolution_matches_observe():
    sys = _heat()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8)
    dt = 1e-2
    xs = ExtendedState(Signal(-2.0, dt, np.zeros((201, 1))), x,
                       Signal(0.0, dt, np.zeros((2, 2))))
    out = step_extended_state(sys, 0.5, xs)
    observed = observe_trajectory(sys, 0.5, x, dt)
    # interior of the fresh block (the junction sample keeps shifted history)
    for s in (-0.4, -0.2, 0.0):
        np.testing.assert_allclose(values_at(out.past_output, [s])[0],
                                   values_at(observed, [s])[0], atol=1e-12)
    np.testing.assert_allclose(out.state, semigroup_apply(sys.gen, 0.5, x),
                               atol=1e-14)


def test_step_scalar_state_oracle():
    # e^{-1} + (1 - e^{-1}) = 1
    sys = _scalar_sys()
    u = _const_u(1.0, end=2.0, dt=0.01)
    xs = ExtendedState(Signal(-2.0, 0.01, np.zeros((201, 1))), [1.0], u)
    out = step_extended_state(sys, 1.0, xs)
    assert out.state[0] == pytest.approx(1.0, rel=1e-13)


def test_step_shifts_history_and_keeps_junction():
    sys = _scalar_sys()
    dt = 0.1
    hist = np.linspace(3.0, 5.0, 11)[:, None]  # past output ramp on [-1, 0]
    xs = ExtendedState(Signal(-1.0, dt, hist), [0.0],
                       Signal(0.0, dt, np.zeros((2, 1))))
    out = step_extended_state(sys, 0.3, xs)
    # s <= -0.3 gets the shifted history: past(t+s)
    for s in (-1.0, -0.7, -0.3):
        assert values_at(out.past_output, [s])[0, 0] == pytest.approx(
            values_at(xs.past_output, [s + 0.3])[0, 0], rel=1e-12)
    # fresh region from zero state and zero input is zero
    assert values_at(out.past_output, [-0.1])[0, 0] == 0.0


def test_step_future_shift_aligned():
    sys = _scalar_sys()
    dt = 0.1
    vals = np.arange(21, dtype=float)[:, None]
    xs = ExtendedState(Signal(-1.0, dt, np.zeros((11, 1))), [0.0],
                       Signal(0.0, dt, vals))
    out = step_extended_state(sys, 0.5, xs)
    fut = out.future_input
    assert fut.t0 == 0.0 and fut.n_samples == 16
    np.testing.assert_array_equal(np.asarray(fut.samples), vals[5:])


def _heat_step_state(n_modes, dt, window):
    n = round(window / dt) + 1
    r = dt * np.arange(n)
    u = Signal(0.0, dt, np.stack([np.sin(1.3 * r), np.cos(0.7 * r) - 1.0], axis=1))
    past = Signal(-window, dt, 0.1 * np.random.default_rng(1).standard_normal((n, 1)))
    x = np.random.default_rng(2).standard_normal(n_modes)
    return ExtendedState(past, x, u)


def test_step_on_grid_matches_trajectory_gather_bitwise():
    # an on-grid step whose input covers [0, t] reads every fresh sample off
    # one trajectory on the past-output grid, bit for bit
    sys = _heat(16)
    dt = 1e-2
    xs = _heat_step_state(16, dt, 4.0)
    for t in (0.01, 0.5, 1.37, 3.0, 4.0):
        out = step_extended_state(sys, t, xs)
        q = round(t / dt)
        s_grid = xs.past_output.times()
        fresh = s_grid > -t + 1e-9 * dt
        tau = t + s_grid[fresh]
        v = Signal(0.0, dt, resample(xs.future_input, 0.0, dt, q + 1).samples @ sys.control.T)
        traj = conv_trajectory(sys.gen.eigenvalues, np.eye(16), v, q)
        drift = traj[np.rint(tau / dt).astype(int)]
        free = sample_free_output(sys.gen.eigenvalues, sys.observation, xs.state,
                                  tau[0], dt, tau.shape[0])
        want = (free + drift @ sys.observation.T
                + values_at(xs.future_input, tau) @ sys.feedthrough.T)
        np.testing.assert_array_equal(out.past_output.samples[fresh], want)
        np.testing.assert_array_equal(out.past_output.samples[~fresh],
                                      values_at(xs.past_output, t + s_grid[~fresh]))


@pytest.mark.parametrize("t", [0.5, 0.503, 1.2345])
def test_step_runs_one_recurrence_and_no_scalar_kernel(monkeypatch, t):
    sys = _heat(8)
    xs = _heat_step_state(8, 1e-2, 2.0)
    passes, anchors = [], []
    blocks, final = signals.exp_conv_blocks, laxphillips.exp_conv_final

    def counted_blocks(*args):
        passes.append(args[3])
        return blocks(*args)

    def counted_final(alpha, b, u, t):
        anchors.append(np.ndim(t))
        return final(alpha, b, u, t)

    monkeypatch.setattr(signals, "exp_conv_blocks", counted_blocks)
    monkeypatch.setattr(laxphillips, "exp_conv_final", counted_final)
    step_extended_state(sys, t, xs)
    assert len(passes) == 1
    assert anchors == [1]


def test_off_grid_step_memory_not_above_per_sample_loop():
    # one off-grid step at heat N = 128: the per-sample exp_conv_final loop
    # this kernel replaced peaked at 3 389 802 bytes (tracemalloc, Python 3.11,
    # numpy 2.4.6)
    sys = _heat(128)
    xs = _heat_step_state(128, 1e-2, 4.0)
    step_extended_state(sys, 2.9061, xs)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        step_extended_state(sys, 2.9061, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3_389_802


def _random_mimo():
    # a complex spectrum under three channels, with two outputs and D != 0
    rng = np.random.default_rng(12)
    n, m, k = 6, 3, 2
    alpha = -rng.uniform(0.5, 60.0, n) + 1j * rng.uniform(-20.0, 20.0, n)

    def pairs(shape):
        return (np.stack([rng.standard_normal(shape), rng.standard_normal(shape)], axis=-1)
                .tolist())

    return build_system({"eigenvalues": [[float(a.real), float(a.imag)] for a in alpha],
                         "control": pairs((n, m)), "observation": pairs((k, n)),
                         "feedthrough": pairs((k, m))})


@pytest.mark.parametrize("case", ["heat", "mimo"])
@pytest.mark.parametrize("block_rows", [2, 3, None, "whole"])
@pytest.mark.parametrize("t0", [0.0, -0.137])
def test_maps_form_the_drive_with_the_bits_of_a_whole_drive(monkeypatch, case, block_rows, t0):
    # the kernel forms u B^T block by block and at the knots each partial
    # segment reads; the maps keep the bits of one N-wide drive u B^T convolved
    # through the identity, and of input_output_map's whole-trajectory product
    sys = _heat(8) if case == "heat" else _random_mimo()
    alpha, n = sys.gen.eigenvalues, sys.n_modes
    if block_rows == "whole":
        monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", 1 << 40)
    elif block_rows:
        monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", block_rows * n)
    rng = np.random.default_rng(5)
    dt = 0.05
    u = Signal(t0, dt, rng.standard_normal((60, sys.n_inputs)))
    drive = Signal(t0, dt, u.samples @ sys.control.T)
    knots = u.times()[u.times() >= 0]
    anchors = np.concatenate([knots, knots + dt * rng.uniform(0.05, 0.95, knots.shape),
                              [0.0, 0.3 * dt, u.end + 0.4 * dt, u.end + 2.0]])
    got = control_to_state(sys, anchors, u)
    want = exp_conv_final(alpha, np.eye(n), drive, anchors)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for t, h in [(2.0, dt), (2.0, 0.013)]:
        got = input_output_map(sys, t, u, h)
        steps = round(t / h)
        uvals = resample(u, 0.0, t / steps, steps + 1).samples
        traj = conv_trajectory(alpha, np.eye(n), Signal(0.0, t / steps, uvals @ sys.control.T),
                               steps)
        want = traj @ sys.observation.T + uvals @ sys.feedthrough.T
        assert np.array_equal(got.samples.view(np.uint64), want.view(np.uint64))


def _peak_bytes(call):
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_input_output_map_memory_holds_no_trajectory():
    # 10 001 steps over 256 heat modes: the whole trajectory alone would take
    # 41 MB and its N-wide drive another 41 MB; the map holds its K outputs
    sys = _heat(256)
    u = _probe_input(sys.n_inputs, 1e-3)
    assert _peak_bytes(lambda: input_output_map(sys, 10.0, u, 1e-3)) <= 8e6


def test_control_to_state_memory_holds_no_trajectory():
    # an input of 10 001 samples on 256 heat modes, one anchor: the trajectory
    # to it streams in blocks, and no N-wide drive is formed whole
    sys = _heat(256)
    r = 1e-3 * np.arange(10001)
    u = Signal(0.0, 1e-3, np.stack([np.sin(r), np.cos(2.0 * r)], axis=1))
    assert _peak_bytes(lambda: control_to_state(sys, 10.0, u)) <= 8e6


def test_step_future_exhausted_is_zero():
    sys = _scalar_sys()
    u = _const_u(1.0, end=0.4, dt=0.1)
    xs = ExtendedState(Signal(-1.0, 0.1, np.zeros((11, 1))), [0.0], u)
    out = step_extended_state(sys, 0.8, xs)
    assert np.all(np.asarray(out.future_input.samples) == 0.0)
    assert out.future_input.n_samples == 2


def test_step_window_overflow():
    sys = _scalar_sys()
    xs = _rest_state(sys, window=0.5)
    with pytest.raises(HorizonError):
        step_extended_state(sys, 0.6, xs)


def test_semigroup_law_zero_split():
    sys = _heat()
    xs = _rest_state(sys, window=1.0, u=_heat_u(end=1.0))
    assert semigroup_law_residual(sys, 0.4, 0.0, xs) == 0.0


def test_semigroup_law_exact_on_aligned_grids():
    sys = _scalar_sys()
    dt = 0.05
    xs = ExtendedState(Signal(-1.4, dt, np.zeros((29, 1))), [1.0],
                       Signal(0.0, dt, np.zeros((2, 1))))
    assert semigroup_law_residual(sys, 0.35, 0.35, xs) <= 1e-12


def test_semigroup_law_heat_generic():
    sys = _heat(16)
    dt = 1e-3
    u = _heat_u(end=2.0, dt=dt)
    rng = np.random.default_rng(5)
    n_past = round(2.0 / dt) + 1
    past = Signal(-2.0, dt, rng.standard_normal((n_past, 1)) * 0.1)
    xs = ExtendedState(past, rng.standard_normal(16), u)
    res = semigroup_law_residual(sys, 0.7, 0.4, xs)
    assert res <= 0.05 * dt**2


def test_semigroup_law_misaligned_second_order():
    # splitting times off the grid force interpolation; residual must be O(dt^2).
    # The state is driven from rest so the extended function has no junction
    # jump (a genuine jump costs O(sqrt(dt)) to represent piecewise-linearly
    # and is exactly reproduced only by grid-aligned steps).
    sys = _heat(6)
    residuals = []
    for dt in (2e-2, 1e-2):
        u = _heat_u(end=2.0, dt=dt)
        n_past = round(2.0 / dt) + 1
        past = Signal(-2.0, dt, np.zeros((n_past, 1)))
        xs = ExtendedState(past, np.zeros(6), u)
        t = 0.7 + dt / 3.0
        residuals.append(semigroup_law_residual(sys, t, 0.4, xs))
    assert residuals[0] <= 0.05 * (2e-2) ** 2
    assert residuals[1] <= 0.05 * (1e-2) ** 2
    # halving dt cuts the residual by roughly 4
    assert residuals[0] / max(residuals[1], 1e-300) > 2.5


def test_save_load_round_trip(tmp_path):
    sys = _heat(4)
    u = _heat_u(end=0.5, dt=0.05)
    past = Signal(-1.0, 0.05, np.random.default_rng(2).standard_normal((21, 1)))
    xs = ExtendedState(past, np.array([1.0, -2.0, 0.5, 0.0]) + 0.25j, u)
    env = save_extended_state(tmp_path, xs)
    back = load_extended_state(env)
    np.testing.assert_array_equal(back.state, xs.state)
    np.testing.assert_array_equal(np.asarray(back.past_output.samples),
                                  xs.past_output.samples)
    np.testing.assert_array_equal(np.asarray(back.future_input.samples),
                                  xs.future_input.samples)
    assert back.past_output.t0 == xs.past_output.t0


def test_save_rejects_degenerate_signals(tmp_path):
    xs = ExtendedState(Signal(-1.0, 0.1, np.zeros((11, 1))), [0.0],
                       Signal(0.0, 0.1, np.zeros((1, 1))))
    with pytest.raises(SchemaError):
        save_extended_state(tmp_path, xs)


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "extended_state.json"
    bad.write_text("{\"schema\": \"other\"}")
    with pytest.raises(SchemaError):
        load_extended_state(bad)
    bad.write_text("not json")
    with pytest.raises(SchemaError):
        load_extended_state(bad)


@pytest.mark.parametrize("field, value", [
    ("pastOutput", 5),
    ("state", 5),
    ("state", [["a", 1.0]]),
    ("state", [[[1.0], 1.0]]),
    ("state", [[True, 1.0]]),
], ids=["past-number", "state-number", "pair-string", "pair-nested", "pair-bool"])
def test_load_rejects_malformed_fields(tmp_path, field, value):
    xs = ExtendedState(Signal(-1.0, 0.5, np.zeros((3, 1))), [1.0],
                       Signal(0.0, 0.5, np.zeros((3, 1))))
    env = save_extended_state(tmp_path, xs)
    raw = json.loads(env.read_text())
    raw[field] = value
    env.write_text(json.dumps(raw))
    with pytest.raises(SchemaError):
        load_extended_state(env)


@pytest.mark.parametrize("field", ["pastOutput", "futureInput"])
@pytest.mark.parametrize("where", ["absolute", "parent", "sub", "dotdot", "empty"])
def test_load_reads_only_bare_file_names(tmp_path, field, where):
    # a name with a directory part would read a CSV outside the envelope's
    # directory; each such name is rejected, though the file it names exists
    xs = ExtendedState(Signal(-1.0, 0.5, np.zeros((3, 1))), [1.0],
                       Signal(0.0, 0.5, np.zeros((3, 1))))
    env = save_extended_state(tmp_path / "run", xs)
    for other in (tmp_path / "outside", tmp_path / "run" / "sub"):
        save_extended_state(other, xs)
    raw = json.loads(env.read_text())
    name = raw[field]
    raw[field] = {"absolute": str(tmp_path / "outside" / name), "parent": f"../outside/{name}",
                  "sub": f"sub/{name}", "dotdot": "..", "empty": ""}[where]
    env.write_text(json.dumps(raw))
    with pytest.raises(SchemaError, match=f"{field} must be a file name"):
        load_extended_state(env)
    # the bare name still loads
    raw[field] = name
    env.write_text(json.dumps(raw))
    assert load_extended_state(env).state.tolist() == [1.0]


def test_step_dimension_mismatch():
    sys = _heat(4)
    xs = _rest_state(_scalar_sys())
    with pytest.raises(DimensionError):
        step_extended_state(sys, 0.1, xs)
