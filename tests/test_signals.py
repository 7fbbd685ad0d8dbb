import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal import lfilter

import wellposed
from cross_oracles import conv_trajectory, phi1, phi2
from wellposed import signals
from wellposed.errors import DimensionError, DomainError, SchemaError
from wellposed.signals import (
    Signal,
    exp_conv_blocks,
    exp_conv_final,
    lp_norm,
    read_signal_csv,
    resample,
    row_blocks,
    values_at,
    write_signal_csv,
)

_E = math.e


def _eye(alpha):
    # the control matrix that drives each mode by its own input channel
    return np.eye(np.size(alpha))


def _ramp(n=11, dt=0.1, d=1):
    # u(r) = r on [0, (n-1) dt], replicated over d columns
    t = dt * np.arange(n)
    return Signal(0.0, dt, np.tile(t[:, None], (1, d)))


def exp_segment_integral(alpha, T, r0, r1, u0, u1):
    # int_{r0}^{r1} e^(alpha (T - r)) u(r) dr as exp_conv_final's partial
    # segments form it: _phis' kernels at alpha h, _segment, and the decay to T
    h = r1 - r0
    _, p1, p2 = signals._phis(alpha * h)
    return np.exp(alpha * (T - r1)) * signals._segment(h, u0, u1, p1, p2)


@pytest.mark.parametrize("z", [
    0.0, 0.3, -0.4999, 0.5, 0.5001, -0.7, 2.0, -50.0, 0.4999j, -0.5001j,
    -0.2 + 0.3j, 0.36 - 0.36j, -3.0 + 4.0j, 1e-12 - 1e-12j, -700.0 + 1.0j,
    np.array([0.0, 0.25, -0.5, 0.5 + 0.0j, -0.49 + 0.1j, 1.0 - 2.0j, -400.0 + 30.0j]),
    np.array([[0.1, 0.6], [-0.6j, -1e-3 + 0.4999j]]),
])
def test_phis_keep_the_separate_kernels_bits(z):
    # one exp for e^z, phi1 and phi2 gives the bits of the kernels that each
    # form their own, on both sides of the series switch at |z| = 0.5
    e, p1, p2 = signals._phis(z)
    for got, want in ((e, np.exp(np.asarray(z, dtype=complex))), (p1, phi1(z)), (p2, phi2(z))):
        assert np.shape(got) == np.shape(z) and np.asarray(got).dtype == complex
        assert np.array_equal(_bits(got), _bits(want))


def test_phi_values():
    assert phi1(0.0) == pytest.approx(1.0, abs=1e-15)
    assert phi2(0.0) == pytest.approx(0.5, abs=1e-15)
    assert phi1(1.0) == pytest.approx(_E - 1.0, rel=1e-15)
    assert phi2(1.0) == pytest.approx(_E - 2.0, rel=1e-14)
    assert phi2(-1.0) == pytest.approx(1.0 / _E, rel=1e-14)


def test_phi_branch_continuity():
    # series and closed form agree near the switch radius
    for z in (0.4999, 0.5001, 0.4999j, 0.5001j, -0.4999 + 0.001j):
        w = complex(z)
        closed1 = (np.exp(w) - 1.0) / w
        closed2 = (np.exp(w) - 1.0 - w) / w**2
        assert abs(phi1(w) - closed1) < 1e-13
        assert abs(phi2(w) - closed2) < 1e-13


def test_segment_integral_oracle():
    # int_0^1 e^{-(1-r)} r dr = phi2(-1) = 1/e
    val = exp_segment_integral(-1.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    assert val == pytest.approx(0.36787944117144233, abs=1e-15)


def test_segment_integral_constant():
    # int_0^1 e^{-(1-r)} dr = 1 - 1/e
    val = exp_segment_integral(-1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    assert val == pytest.approx(1.0 - 1.0 / _E, rel=1e-15)


def test_segment_integral_additive():
    alpha = -2.0 + 1.5j
    u = lambda r: 0.3 - 0.7 * r
    whole = exp_segment_integral(alpha, 2.0, 0.0, 1.0, u(0.0), u(1.0))
    split = exp_segment_integral(alpha, 2.0, 0.0, 0.4, u(0.0), u(0.4)) + \
        exp_segment_integral(alpha, 2.0, 0.4, 1.0, u(0.4), u(1.0))
    assert abs(whole - split) < 1e-12 * max(1.0, abs(whole))


def test_segment_integral_anchor_right_of_segment():
    # T = 0 < r0 is allowed (Laplace usage): int_1^2 e^{-r} dr
    val = exp_segment_integral(1.0, 0.0, 1.0, 2.0, 1.0, 1.0)
    assert val == pytest.approx(math.exp(-1.0) - math.exp(-2.0), rel=1e-14)


def test_signal_validation():
    with pytest.raises(DomainError):
        Signal(0.0, 0.0, np.ones(3))
    with pytest.raises(DomainError):
        Signal(0.0, 0.1, np.array([1.0, np.inf]))
    with pytest.raises(DimensionError):
        Signal(0.0, 0.1, np.ones((2, 2, 2)))
    sig = Signal(0.0, 0.1, np.ones(3))
    assert sig.samples.shape == (3, 1)
    with pytest.raises(ValueError):
        sig.samples[0, 0] = 2.0


@pytest.mark.parametrize("t0,dt,field", [
    (math.nan, 0.1, "t0"), (math.inf, 0.1, "t0"), (-math.inf, 0.1, "t0"),
    (0.0, math.inf, "dt"), (0.0, math.nan, "dt"),
])
def test_signal_rejects_non_finite_grid(t0, dt, field):
    # such a grid reached the maps as a bare ValueError or OverflowError, or,
    # with dt = inf, as zeros under RuntimeWarnings
    with pytest.raises(DomainError, match=field):
        Signal(t0, dt, np.ones(3))


def test_values_at_zero_outside():
    sig = _ramp()
    assert values_at(sig, [-0.5])[0, 0] == 0.0
    assert values_at(sig, [1.5])[0, 0] == 0.0
    assert values_at(sig, [0.55])[0, 0] == pytest.approx(0.55, abs=1e-12)
    vals = values_at(sig, [0.0, 0.25, 2.0])
    np.testing.assert_allclose(vals[:, 0], [0.0, 0.25, 0.0], atol=1e-12)


def test_resample_aligned_is_exact():
    sig = _ramp(n=11, dt=0.1)
    fine = resample(sig, 0.0, 0.05, 21)
    np.testing.assert_allclose(fine.samples[::2], sig.samples, atol=1e-13)
    np.testing.assert_allclose(fine.samples[1::2, 0], 0.05 + 0.1 * np.arange(10),
                               atol=1e-12)


def test_resample_own_grid_longer_pads_exactly():
    # dt * k / dt rounds below k at some k; the aligned path must not interpolate
    rng = np.random.default_rng(3)
    sig = Signal(0.0, 1e-3, rng.standard_normal((20001, 2)))
    out = resample(sig, 0.0, 1e-3, 40001).samples
    want = np.concatenate([sig.samples, np.zeros((20000, 2))])
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(resample(sig, 0.0, 1e-3, 5).samples, sig.samples[:5])


def test_lp_norm_linear_ramp():
    # ||r||_{L2(0,1)} = 1/sqrt(3), on any grid refinement
    for n in (2, 5, 101):
        sig = _ramp(n=n, dt=1.0 / (n - 1))
        assert lp_norm(sig, 2.0) == pytest.approx(0.5773502691896258, rel=1e-13)


def test_lp_norm_homogeneous_and_shift_invariant():
    rng = np.random.default_rng(12)
    sig = Signal(0.3, 0.05, rng.standard_normal((40, 2)))
    base = lp_norm(sig, 2.0)
    scaled = Signal(sig.t0, sig.dt, 3.5 * np.asarray(sig.samples))
    assert lp_norm(scaled, 2.0) == pytest.approx(3.5 * base, rel=1e-13)
    assert lp_norm(Signal(sig.t0 - 7.25, sig.dt, sig.samples), 2.0) == base


def test_lp_norm_p1_constant():
    sig = Signal(0.0, 0.5, np.ones(5))
    assert lp_norm(sig, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_lp_norm_rejects_small_p():
    with pytest.raises(DomainError):
        lp_norm(_ramp(), 0.5)


def test_conv_final_constant_input():
    # int_0^1 e^{-(1-r)} dr = 1 - 1/e, many segments
    sig = Signal(0.0, 0.125, np.ones(9))
    out = exp_conv_final([-1.0], np.eye(1), sig, 1.0)
    assert out[0] == pytest.approx(1.0 - 1.0 / _E, rel=1e-13)


def test_conv_final_partial_end_segment():
    # upper limit mid-segment: int_0^{0.6} e^{-(0.6-r)} dr = 1 - e^{-0.6}
    sig = Signal(0.0, 0.25, np.ones(5))
    out = exp_conv_final([-1.0], np.eye(1), sig, 0.6)
    assert out[0] == pytest.approx(1.0 - math.exp(-0.6), rel=1e-13)


def test_conv_final_zero_extension():
    # input supported on [0, 0.5] only: int_0^{0.5} e^{-(1-r)} dr
    sig = Signal(0.0, 0.1, np.ones(6))
    out = exp_conv_final([-1.0], np.eye(1), sig, 1.0)
    assert out[0] == pytest.approx(math.exp(-0.5) - math.exp(-1.0), rel=1e-13)


def test_conv_final_interval_inside_one_segment():
    # coarse grid, tiny window: both endpoints inside one segment
    sig = Signal(-1.0, 4.0, np.array([0.0, 4.0]))  # u(r) = r + 1 on [-1, 3]
    out = exp_conv_final([0.0 + 0j], np.eye(1), sig, 0.5)
    # int_0^{0.5} (r + 1) dr = 0.625
    assert out[0] == pytest.approx(0.625, rel=1e-13)


def test_conv_final_matches_ramp_oracle():
    # int_0^1 e^{-(1-r)} r dr = 1/e, across grid resolutions and modes
    for n in (2, 3, 9, 65):
        sig = _ramp(n=n, dt=1.0 / (n - 1), d=2)
        out = exp_conv_final([-1.0, -1.0 + 0.0j], np.eye(2), sig, 1.0)
        np.testing.assert_allclose(out, 1.0 / _E, rtol=1e-12)


def test_conv_final_width_mismatch():
    with pytest.raises(DimensionError):
        exp_conv_final([-1.0, -2.0], np.eye(2), _ramp(d=1), 1.0)


def _reference_conv_final(alpha, sig, t):
    # reference: the per-anchor kernel, one scalar anchor per call, that sums
    # e^(alpha (t - r_k)) g_k over whole segments and clips both partial ends
    alpha = np.asarray(alpha, dtype=complex)
    tol = signals._GRID_REL_TOL
    out = np.zeros(alpha.shape[0], dtype=complex)
    a = max(0.0, sig.t0)
    b = min(t, sig.end)
    if b <= a + tol * sig.dt:
        return out
    n = sig.n_samples
    ka = min(max(int(np.ceil((a - sig.t0) / sig.dt - tol)), 0), n - 1)
    kb = min(max(int(np.floor((b - sig.t0) / sig.dt + tol)), 0), n - 1)
    r_ka = sig.t0 + ka * sig.dt
    r_kb = sig.t0 + kb * sig.dt

    def _partial(r0, r1, v0, v1):
        h = r1 - r0
        w = alpha * h
        return np.exp(alpha * (t - r1)) * h * (v0 * phi1(w) + (v1 - v0) * phi2(w))

    if ka > kb:
        return out + _partial(a, b, values_at(sig, [a])[0], values_at(sig, [b])[0])
    if a < r_ka - tol * sig.dt:
        out += _partial(a, r_ka, values_at(sig, [a])[0], sig.samples[ka])
    if kb > ka:
        w = alpha * sig.dt
        v = sig.samples[ka:kb + 1]
        weights = sig.dt * (v[:-1] * phi1(w) + np.diff(v, axis=0) * phi2(w))
        r_right = sig.t0 + sig.dt * np.arange(ka + 1, kb + 1)
        out += np.sum(np.exp(np.outer(t - r_right, alpha)) * weights, axis=0)
    if b > r_kb + tol * sig.dt:
        out += _partial(r_kb, b, sig.samples[kb], values_at(sig, [b])[0])
    return out


_CONV_SPECTRA = {
    "real": np.array([-0.3, -1.0, -7.5]),
    "complex": np.array([-0.3 + 2.0j, -1.0 - 5.0j, -0.01 + 30.0j]),
    "stiff": np.array([-5000.0, -40.0 + 1.0j, -0.5]),
}


@pytest.mark.parametrize("spectrum", sorted(_CONV_SPECTRA))
@pytest.mark.parametrize("t0", [0.0, -0.3, 0.2, -1.0])
def test_conv_final_anchor_array_matches_per_anchor_reference(spectrum, t0):
    alpha = _CONV_SPECTRA[spectrum]
    rng = np.random.default_rng(int(100 * abs(t0)) + len(spectrum))
    dt = 0.07
    sig = Signal(t0, dt, rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3)))
    knots = sig.times()
    anchors = np.concatenate([
        knots[knots >= 0],                                 # on the grid
        knots[knots >= 0] + dt * rng.uniform(0.05, 0.95),  # off the grid
        [0.0, 0.3 * dt, max(0.0, t0) + 0.4 * dt],          # at and inside the first segment
        [sig.end + 0.5 * dt, sig.end + 3.0, 5.0],          # past the end
        rng.uniform(0.0, sig.end + 1.0, 200),              # more than one chunk of anchors
    ])
    if t0 > 0:
        anchors = np.append(anchors, [0.5 * t0, 0.0])      # before the support
    got = exp_conv_final(alpha, _eye(alpha), sig, anchors)
    want = np.stack([_reference_conv_final(alpha, sig, t) for t in anchors])
    assert got.shape == (anchors.shape[0], alpha.shape[0])
    # relative to each mode's largest value: an oscillating mode's small
    # values come from cancellation, where both sides lose the same digits
    err = np.max(np.abs(got - want) / np.max(np.abs(want), axis=0))
    assert err <= 1e-13
    for i in (0, 7, anchors.shape[0] - 1):
        np.testing.assert_array_equal(exp_conv_final(alpha, _eye(alpha), sig, anchors[i]), got[i])


_ANCHOR_PICKS = st.lists(st.tuples(st.sampled_from(["knot", "off", "past", "before"]),
                                    st.integers(0, 11), st.floats(0.05, 0.95)),
                          min_size=1, max_size=70)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(spectrum=st.sampled_from(sorted(_CONV_SPECTRA)), dt=st.floats(0.02, 0.4),
       start=st.integers(-5, 5), shift=st.one_of(st.just(0.0), st.floats(0.05, 0.95)),
       samples=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)),
                          elements=st.floats(-4.0, 4.0)),
       as_complex=st.booleans(), picks=_ANCHOR_PICKS)
def test_conv_final_matches_reference_on_any_anchor(spectrum, dt, start, shift, samples,
                                                   as_complex, picks):
    # u starts on the dt grid (shift 0) or off it, before or after r = 0, so
    # an anchor can have a head segment, a tail segment, both or neither;
    # anchors lie on knots, between them, past u's end and before its support
    alpha = _CONV_SPECTRA[spectrum]
    t0 = (start + shift) * dt
    sig = Signal(t0, dt, samples * (1.0 - 0.5j) if as_complex else samples)
    n = sig.n_samples
    spots = {"knot": lambda k, f: t0 + min(k, n - 1) * dt,
             "off": lambda k, f: t0 + (min(k, n - 1) + f) * dt,
             "past": lambda k, f: sig.end + 4.0 * f,
             "before": lambda k, f: f * t0}
    anchors = np.array([t for t in (spots[kind](k, f) for kind, k, f in picks) if t >= 0.0]
                       or [0.0])
    got = exp_conv_final(alpha, _eye(alpha), sig, anchors)
    want = np.stack([_reference_conv_final(alpha, sig, t) for t in anchors])
    # relative to each mode's largest value, as in the test above, with an
    # absolute floor for modes that decay below the normal range
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * scale + 1e-300)
    # an anchor's bits do not depend on the other anchors of its call. That
    # holds for two modes or more: with one, a scalar call's lone decay is
    # multiplied in place by numpy with its operands swapped, which can round
    # the last bit differently. Every spectrum here has three modes.
    for i, t in enumerate(anchors):
        np.testing.assert_array_equal(exp_conv_final(alpha, _eye(alpha), sig, t).view(np.uint64),
                                      got[i].view(np.uint64))


def test_conv_final_knot_anchor_is_trajectory_row():
    # an anchor on a knot, or within the grid tolerance of one, is taken at the knot
    rng = np.random.default_rng(4)
    alpha = _CONV_SPECTRA["stiff"]
    sig = Signal(0.0, 0.05, rng.standard_normal((21, 3)))
    traj = conv_trajectory(alpha, _eye(alpha), sig, 20)
    k = np.arange(21)
    np.testing.assert_array_equal(exp_conv_final(alpha, _eye(alpha), sig, 0.05 * k), traj)
    nudged = 0.05 * k + 1e-3 * signals._GRID_REL_TOL * 0.05
    np.testing.assert_array_equal(exp_conv_final(alpha, _eye(alpha), sig, nudged), traj)


def test_conv_final_rejects_bad_anchors():
    with pytest.raises(DomainError):
        exp_conv_final([-1.0], np.eye(1), _ramp(), [0.5, -0.1])
    # NaN and infinite anchors fail the same finite-and->=0 test as the
    # Lax-Phillips maps, instead of giving zeros after a cast warning
    for bad in (np.nan, np.inf, [0.5, np.nan, 1.0]):
        with pytest.raises(DomainError, match="finite"):
            exp_conv_final([-1.0, -2.0], np.eye(2), _ramp(d=2), bad)
    with pytest.raises(DimensionError):
        exp_conv_final([-1.0], np.eye(1), _ramp(), np.ones((2, 2)))
    assert exp_conv_final([-1.0], np.eye(1), _ramp(), np.array([])).shape == (0, 1)


def test_segment_integral_broadcasts_over_segments():
    alpha = np.array([-2.0 + 1.5j, -0.5])
    T = np.array([[2.0], [1.5]])
    r0, r1 = np.array([[0.0], [0.4]]), np.array([[1.0], [1.2]])
    u0, u1 = np.array([[0.3, 1.0], [-0.2, 2.0]]), np.array([[0.1, 1.0], [0.4, -1.0]])
    got = exp_segment_integral(alpha, T, r0, r1, u0, u1)
    for i in range(2):
        for j in range(2):
            want = exp_segment_integral(alpha[j], T[i, 0], r0[i, 0], r1[i, 0],
                                        u0[i, j], u1[i, j])
            assert got[i, j] == pytest.approx(want, rel=1e-15)


def _bits(arr):
    return np.atleast_1d(arr).view(np.uint64)


@pytest.mark.parametrize("case", ["real-u", "complex-u", "anchor-rows"])
def test_segment_keeps_the_plain_expression_bits(case):
    # _segment forms h (u0 p1 + (u1 - u0) p2) in place: the same operations
    # on the same operands, so the same bits and shape, whatever broadcasts
    rng = np.random.default_rng(3)
    alpha = -rng.uniform(0.1, 400.0, 37) + 1j * rng.uniform(-30.0, 30.0, 37)
    h = 1e-3
    if case == "real-u":
        # the kernel's drive: real samples, one phi per mode
        u0, u1 = rng.standard_normal((2, 200, 37))
        p1, p2 = phi1(alpha * h), phi2(alpha * h)
    elif case == "complex-u":
        # r23's rows: complex samples, one phi for the probe
        u0, u1 = rng.standard_normal((2, 200, 37)) + 1j * rng.standard_normal((2, 200, 37))
        p1, p2 = phi1((1.0 + 1.0j) * h), phi2((1.0 + 1.0j) * h)
    else:
        # exp_conv_final's first partial segments: one start row, a row per anchor
        h = rng.uniform(1e-4, 1e-2, (5, 1))
        u0, u1 = rng.standard_normal((1, 37)), rng.standard_normal((5, 37))
        p1, p2 = phi1(alpha * h), phi2(alpha * h)
    got = signals._segment(h, u0, u1, p1, p2)
    want = h * (u0 * p1 + (u1 - u0) * p2)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("shape", [(), (37,)])
def test_segment_integral_keeps_the_plain_expression_bits(shape):
    # samples narrower than the anchors' (5, 37) phi, and all-scalar arguments
    rng = np.random.default_rng(4)
    alpha = -rng.uniform(0.1, 400.0, shape) + 1j * rng.uniform(-30.0, 30.0, shape)
    T = rng.uniform(1.0, 2.0, (5, 1)) if shape else 1.5
    r0, r1 = 0.2, rng.uniform(0.3, 0.9, (5, 1)) if shape else 0.7
    u0, u1 = rng.standard_normal((2,) + shape)
    got = exp_segment_integral(alpha, T, r0, r1, u0, u1)
    h = r1 - r0
    p1, p2 = phi1(alpha * h), phi2(alpha * h)
    want = np.exp(alpha * (T - r1)) * (h * (u0 * p1 + (u1 - u0) * p2))
    assert np.shape(got) == np.shape(want) == np.broadcast_shapes(shape, np.shape(T))
    assert np.array_equal(_bits(got), _bits(want))


def test_conv_trajectory_matches_final():
    rng = np.random.default_rng(5)
    sig = Signal(0.0, 0.05, rng.standard_normal((21, 3)))
    alpha = np.array([-1.0, -2.0 + 3.0j, -10.0])
    traj = conv_trajectory(alpha, _eye(alpha), sig, 30)
    for k in (0, 1, 7, 20, 25, 30):
        direct = exp_conv_final(alpha, _eye(alpha), sig, k * 0.05)
        np.testing.assert_allclose(traj[k], direct, atol=1e-12)


def test_conv_trajectory_stiff_mode_stable():
    # very stiff decay must not overflow or lose positivity
    sig = Signal(0.0, 0.01, np.ones(101))
    alpha = np.array([-4226.0])
    traj = conv_trajectory(alpha, _eye(alpha), sig, 100)
    exact = (1.0 - np.exp(alpha[0] * 0.01 * np.arange(101))) / (-alpha[0])
    np.testing.assert_allclose(traj[:, 0], exact, rtol=1e-10, atol=1e-18)


def test_conv_trajectory_requires_zero_start():
    with pytest.raises(DomainError):
        conv_trajectory([-1.0], np.eye(1), Signal(0.5, 0.1, np.ones(3)), 2)


def _lfilter_trajectory(alpha, sig, n_steps):
    # reference: the same recurrence run as one IIR filter per mode
    alpha = np.asarray(alpha, dtype=complex)
    nmodes = alpha.shape[0]
    out = np.zeros((n_steps + 1, nmodes), dtype=complex)
    if n_steps == 0:
        return out
    w = alpha * sig.dt
    p1 = phi1(w)
    p2 = phi2(w)
    g = np.zeros((n_steps, nmodes), dtype=complex)
    nseg = min(n_steps, sig.n_samples - 1)
    if nseg > 0:
        v = sig.samples[:nseg + 1]
        g[:nseg] = sig.dt * (v[:-1] * p1[None, :] + np.diff(v, axis=0) * p2[None, :])
    decay = np.exp(w)
    for m in range(nmodes):
        out[1:, m] = lfilter([1.0], [1.0, -decay[m]], g[:, m])
    # the kernel's floor: parts below the smallest normal float read as +0.0
    parts = out.view(float)
    parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
    return out


_SPECTRA = {
    "real": np.array([-0.3, -1.0, -7.5, -40.0]),
    "complex": np.array([-0.3 + 2.0j, -1.0 - 5.0j, -7.5 + 0.5j, -0.01 + 30.0j]),
    "stiff": -(math.pi * np.arange(1, 5)) ** 4 + 0.0j,
}


def _drive(rng, n_samples, width, n_live):
    # random rows, zero from row n_live on
    samples = rng.standard_normal((n_samples, width))
    samples[n_live:] = 0.0
    return Signal(0.0, 0.05, samples)


# (n_samples, n_steps, n_live): a drive whose rows 12-20 are zero has free
# rows inside its own grid, past the row after its last nonzero sample
_LFILTER_CASES = [
    *(pytest.param(n, k, n, id=f"{n}-{k}")
      for n, k in [(21, 0), (21, 1), (21, 8), (21, 20), (21, 45), (1, 0), (1, 6)]),
    *(pytest.param(21, k, 12, id=f"21-{k}-zero-from-12") for k in (11, 12, 13, 14, 45)),
]


@pytest.mark.parametrize("spectrum", sorted(_SPECTRA))
@pytest.mark.parametrize("n_samples,n_steps,n_live", _LFILTER_CASES)
def test_conv_trajectory_matches_lfilter_reference(spectrum, n_samples, n_steps, n_live):
    alpha = _SPECTRA[spectrum]
    rng = np.random.default_rng(n_samples * 100 + n_steps)
    sig = _drive(rng, n_samples, alpha.shape[0], n_live)
    got = conv_trajectory(alpha, _eye(alpha), sig, n_steps)
    want = _lfilter_trajectory(alpha, sig, n_steps)
    assert got.shape == want.shape == (n_steps + 1, alpha.shape[0])
    if spectrum == "real":
        # the certificate's bytes rely on bit-identical trajectories here
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("spectrum", ["real", "stiff"])
@pytest.mark.parametrize("n_live", [21, 12])
def test_conv_trajectory_real_spectrum_keeps_every_bit(spectrum, n_live):
    # free decay that underflows to zero must give +0.0, as the step
    # 0 + e^(alpha dt) x_k does, so the bits match the sign of each zero too
    alpha = _SPECTRA[spectrum]
    sig = _drive(np.random.default_rng(1), 21, alpha.shape[0], n_live)
    got = conv_trajectory(alpha, _eye(alpha), sig, 45)
    want = _lfilter_trajectory(alpha, sig, 45)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n_rows,width", [(1, 4), (2, 4), (3, 1), (1000, 3), (10, 1 << 20)])
def test_row_blocks_cover_rows_with_two_row_minimum(n_rows, width):
    blocks = row_blocks(n_rows, width)
    assert blocks[0][0] == 0 and blocks[-1][1] == n_rows
    assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
    rows = [stop - start for start, stop in blocks]
    assert min(rows) >= min(2, n_rows)
    assert max(rows) <= max(3, signals._BLOCK_ELEMENTS // width + 1)


@pytest.mark.parametrize("spectrum", sorted(_SPECTRA))
@pytest.mark.parametrize("block_rows,n_live", [
    *(pytest.param(rows, 21, id=str(rows)) for rows in (1, 2, 3, 7)),
    # with the drive zero from row 12 the last forced row is 12: blocks of 2
    # and of 7 rows end one free row later, and blocks of 3 two rows later
    *(pytest.param(rows, 12, id=f"{rows}-zero-from-12") for rows in (2, 3, 7)),
])
def test_conv_blocks_match_single_block(monkeypatch, spectrum, block_rows, n_live):
    # the carried row makes the recurrence independent of where blocks break
    alpha = _SPECTRA[spectrum]
    rng = np.random.default_rng(block_rows)
    sig = _drive(rng, 21, alpha.shape[0], n_live)
    whole = conv_trajectory(alpha, _eye(alpha), sig, 45)
    monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", block_rows * alpha.shape[0])
    blocks = list(exp_conv_blocks(alpha, _eye(alpha), sig, 45))
    assert len(blocks) == len(row_blocks(46, alpha.shape[0])) > 1
    np.testing.assert_array_equal(np.concatenate(blocks), whole)
    np.testing.assert_array_equal(conv_trajectory(alpha, _eye(alpha), sig, 45), whole)


def _stuck_drive(dt=1e-3):
    # r^2 (1 - r)^2 on [0, 1] through b = (1, 0.5, 0.3)
    r = dt * np.arange(int(round(1.0 / dt)) + 1)
    return Signal(0.0, dt, np.outer(r**2 * (1.0 - r) ** 2, [1.0, 0.5, 0.3]))


@pytest.mark.parametrize("block_rows", [2, 7, 1001])
def test_conv_blocks_floor_stuck_subnormals_in_every_layout(monkeypatch, block_rows):
    # e^(alpha dt) > 1/2 for alpha = -100 and -300 at dt = 1e-3, so round to
    # nearest would hold their free decay at the smallest subnormal, 4.9e-324
    alpha = np.array([-100.0, -300.0, -2.0], dtype=complex)
    sig = _stuck_drive()
    whole = conv_trajectory(alpha, _eye(alpha), sig, 10000)
    monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", block_rows * alpha.shape[0])
    blocks = list(exp_conv_blocks(alpha, _eye(alpha), sig, 10000))
    assert len(blocks) == len(row_blocks(10001, alpha.shape[0])) > 1
    np.testing.assert_array_equal(np.concatenate(blocks).view(np.uint64), whole.view(np.uint64))
    parts = np.abs(whole.view(float))
    assert not np.any((parts != 0.0) & (parts < np.finfo(float).tiny))
    # the stuck modes end at +0.0, the resolved one does not
    assert np.array_equal(whole[-1, :2].view(np.uint64), np.zeros(4, dtype=np.uint64))
    assert whole[-1, 2].real > 0.0


# the stiffest modes come last and floor to +0.0 one after another once the
# drive ends at t = 1; at t = 10 only the first two are still live
_DYING_SPECTRA = {
    "real": np.array([-2.0, -40.0, -300.0, -1000.0, -4000.0]) + 0.0j,
    "complex": np.array([-2.0 + 3.0j, -40.0 - 20.0j, -300.0 + 50.0j, -1000.0 + 400.0j,
                         -4000.0 - 700.0j]),
}


@pytest.mark.parametrize("spectrum", sorted(_DYING_SPECTRA))
@pytest.mark.parametrize("block_rows", [2, 3, 7, None])
def test_conv_blocks_stop_at_last_live_column(monkeypatch, spectrum, block_rows):
    # a free block's passes stop at the carried row's last live column and
    # give the bits of the same passes over every column
    alpha = _DYING_SPECTRA[spectrum]
    n = alpha.shape[0]
    dt = 1e-3
    r = dt * np.arange(int(round(1.0 / dt)) + 1)
    weight = 1.0 - 0.5j if spectrum == "complex" else 1.0
    sig = Signal(0.0, dt, np.outer(r**2 * (1.0 - r) ** 2, np.linspace(1.0, 0.3, n)) * weight)
    if block_rows:
        monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", block_rows * n)
    real = signals._live_width
    widths = []

    def spy(row):
        widths.append(real(row))
        return widths[-1]

    monkeypatch.setattr(signals, "_live_width", spy)
    narrow = np.concatenate(list(exp_conv_blocks(alpha, _eye(alpha), sig, 10000)))
    monkeypatch.setattr(signals, "_live_width", lambda row: row.shape[0])
    full = np.concatenate(list(exp_conv_blocks(alpha, _eye(alpha), sig, 10000)))
    np.testing.assert_array_equal(narrow.view(np.uint64), full.view(np.uint64))
    assert np.array_equal(narrow[-1, 2:].view(np.uint64), np.zeros(6, dtype=np.uint64))
    assert np.all(narrow[-1, :2] != 0.0)
    # one block of 10 001 rows forms its free rows after its forced ones
    assert min(widths, default=n) == (2 if block_rows else n)


@pytest.mark.parametrize("spectrum", sorted(_DYING_SPECTRA))
@pytest.mark.parametrize("block_rows", [7, 250, None])
def test_free_output_rows_agree_across_layouts(monkeypatch, spectrum, block_rows):
    # each block starts from e^(alpha tau_a) x and steps by a table of
    # e^(alpha j h), so the rows round differently under each layout, and
    # from one exp per row: here by under 5e-14 relative over 40 001 rows to
    # t = 40. The resolvent check's r12 residual, a difference of their
    # transforms, moves by up to 5e-12 relative.
    alpha = _DYING_SPECTRA[spectrum]
    n = alpha.shape[0]
    c = np.stack([np.linspace(1.0, 0.3, n), np.linspace(-0.2, 0.9, n) * (1.0 + 0.5j)])
    x = np.linspace(1.0, 0.2, n) * (1.0 - 0.5j)
    want = (np.exp(np.outer(1e-3 * np.arange(40001), alpha)) * x) @ c.T
    if block_rows:
        monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", block_rows * n)
    got = signals.sample_free_output(alpha, c, x, 0.0, 1e-3, 40001)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("spectrum", sorted(_SPECTRA))
def test_conv_trajectory_ignores_zero_tail_of_drive(monkeypatch, spectrum):
    # a caller may trim the drive after its last nonzero sample or not: the
    # rows past it are free decay either way and keep their bits
    alpha = _SPECTRA[spectrum]
    sig = _drive(np.random.default_rng(0), 21, alpha.shape[0], 12)
    trimmed = Signal(0.0, sig.dt, sig.samples[:13])
    real = signals.segment_weights
    formed = []

    def spy(v, *args):
        formed.append(v.shape[0] - 1)
        return real(v, *args)

    monkeypatch.setattr(signals, "segment_weights", spy)
    got = conv_trajectory(alpha, _eye(alpha), sig, 45)
    # g_11 holds v_11, the last nonzero sample; g_12..g_19 are zero and not formed
    assert formed == [12]
    np.testing.assert_array_equal(got.view(np.uint64),
                                  conv_trajectory(alpha, _eye(alpha), trimmed, 45).view(np.uint64))


def test_conv_blocks_check_arguments_on_call():
    with pytest.raises(DomainError):
        exp_conv_blocks([-1.0], np.eye(1), Signal(0.5, 0.1, np.ones(3)), 2)
    with pytest.raises(DomainError):
        exp_conv_blocks([-1.0], np.eye(1), Signal(0.0, 0.1, np.ones(3)), -1)
    # the control matrix must map the input's channels to the modes
    with pytest.raises(DimensionError):
        exp_conv_blocks([-1.0, -2.0], np.ones((2, 2)), Signal(0.0, 0.1, np.ones(3)), 2)


def loaded_by_import(module: str) -> bool:
    """Whether `import wellposed` in a fresh interpreter loads module."""
    src = str(Path(wellposed.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, wellposed; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip() == "True"


def test_import_skips_scipy_signal():
    # scipy.signal would dominate the package's import time and memory
    assert not loaded_by_import("scipy.signal")


def test_import_skips_scipy_sparse_linalg():
    # scipy.sparse.linalg at import would add about 85 ms to every set-up
    assert not loaded_by_import("scipy.sparse.linalg")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    sig = Signal(-2.0, 0.125, rng.standard_normal((17, 3)))
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    back = read_signal_csv(path)
    assert back.t0 == sig.t0 and back.dt == sig.dt
    np.testing.assert_array_equal(back.samples, sig.samples)
    header = path.read_text().splitlines()[0]
    assert header == "time,c0,c1,c2"


def test_csv_round_trip_complex(tmp_path):
    sig = Signal(0.0, 0.5, np.array([[1.0 + 2.0j], [3.0 - 4.0j]]))
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    assert path.read_text().splitlines()[0] == "time,c0.re,c0.im"
    back = read_signal_csv(path)
    np.testing.assert_array_equal(back.samples, sig.samples)


def _reference_write_signal_csv(path, sig):
    # the per-value csv.writer writer that write_signal_csv replaced
    real = not np.iscomplexobj(sig.samples) or not np.any(sig.samples.imag != 0.0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if real:
            writer.writerow(["time"] + [f"c{j}" for j in range(sig.width)])
        else:
            writer.writerow(["time"] + [f"c{j}.{part}" for j in range(sig.width)
                                        for part in ("re", "im")])
        for k in range(sig.n_samples):
            row = [format(float(sig.t0 + k * sig.dt), ".17g")]
            for j in range(sig.width):
                v = sig.samples[k, j]
                parts = [v.real] if real else [v.real, v.imag]
                row.extend(format(float(x), ".17g") for x in parts)
            writer.writerow(row)


def test_csv_bytes_match_reference_writer(tmp_path):
    rng = np.random.default_rng(21)
    complex_zero_imag = rng.standard_normal((5, 2)) + 0j
    negative_zero_imag = np.array([[1.0 + 0j], [2.0 + 0j]])
    negative_zero_imag.imag[1, 0] = -0.0
    cases = [
        Signal(0.0, 0.01, rng.standard_normal((292, 128))
               + 1j * rng.standard_normal((292, 128))),
        Signal(0.0, 0.01, rng.standard_normal((401, 2))),
        Signal(-4.0, 0.01, 1e-300 * rng.standard_normal((401, 1))),
        Signal(0.1, 0.3, np.array([[-0.0, 5e-324], [1e308, -1e308], [0.0, -5e-324]])),
        Signal(0.0, 0.5, complex_zero_imag),
        Signal(0.0, 0.5, negative_zero_imag),
    ]
    for i, sig in enumerate(cases):
        want, got = tmp_path / f"want{i}.csv", tmp_path / f"got{i}.csv"
        _reference_write_signal_csv(want, sig)
        write_signal_csv(got, sig)
        assert got.read_bytes() == want.read_bytes(), i


def _assert_csv_bytes_match(tmp_path, sig):
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    _reference_write_signal_csv(want, sig)
    write_signal_csv(got, sig)
    assert got.read_bytes() == want.read_bytes()


# 10^k for every k a double reaches, with its two neighbours, of either sign
_NEAR_POWERS_OF_TEN = sorted({sign * float(np.nextafter(10.0 ** k, toward))
                              for k in range(-323, 309) for sign in (1.0, -1.0)
                              for toward in (0.0, 10.0 ** k, math.inf)} - {math.inf, -math.inf})
_CSV_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(_NEAR_POWERS_OF_TEN))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                          elements=_CSV_VALUES),
       t0=_CSV_VALUES, dt=st.floats(min_value=5e-324, max_value=1e300),
       as_complex=st.booleans())
def test_csv_bytes_match_reference_writer_on_any_finite_table(tmp_path, samples, t0, dt, as_complex):
    # subnormals, +-0.0, both neighbours of each power of ten; the times of a
    # huge t0 and dt may overflow to inf, which both writers print as "inf"
    if as_complex:
        samples = samples + 1j * samples[::-1]
    _assert_csv_bytes_match(tmp_path, Signal(t0, dt, samples))


def test_csv_bytes_match_reference_writer_on_random_bit_patterns(tmp_path):
    # 10^5 doubles of uniform exponent, many outside the vectorised range;
    # rows of 5 values, so about half the rows take the vectorised path
    rng = np.random.default_rng(23)
    values = rng.integers(0, 2 ** 64, (25000, 4), dtype=np.uint64).view(np.float64)
    values[~np.isfinite(values)] = 0.0
    _assert_csv_bytes_match(tmp_path, Signal(0.0, 0.01, values))


def test_csv_bytes_match_reference_writer_on_exact_ties(tmp_path):
    # odd m/4 in [1e15, 2.25e15] have 18 significant digits ending in 5, so
    # %.17g rounds them half to even: ...0.25 -> ...0.2 and ...0.75 -> ...0.8
    rng = np.random.default_rng(24)
    m = 2 * rng.integers(2 * 10 ** 15, 4.5 * 10 ** 15, (200, 3)) + 1
    ties = np.where(rng.random(m.shape) < 0.5, -1.0, 1.0) * m / 4.0
    ties[0, :2] = [1000000000000000.25, 1000000000000000.75]
    assert np.all(ties % 0.5 != 0.0)
    _assert_csv_bytes_match(tmp_path, Signal(0.0, 0.01, ties))
    assert b"1000000000000000.8," in (tmp_path / "got.csv").read_bytes()


def test_csv_bytes_match_reference_writer_with_fallback_rows_at_block_edges(tmp_path):
    # a subnormal, a tie and a huge value at the first and the last row of
    # blocks, and a table in which every row holds a value Python formats
    rng = np.random.default_rng(25)
    width = 7
    rows = signals._CSV_BLOCK_VALUES // (1 + width)
    values = rng.standard_normal((3 * rows + 5, width))
    for row, value in [(0, 5e-324), (rows - 1, 1000000000000000.75), (rows, -1e300),
                       (2 * rows - 1, -2.5e-310), (3 * rows + 4, 1e-320)]:
        values[row, row % width] = value
    _assert_csv_bytes_match(tmp_path, Signal(0.0, 0.01, values))
    values[:, 3] = 5e-324 * np.arange(1, values.shape[0] + 1)
    _assert_csv_bytes_match(tmp_path, Signal(0.0, 0.01, values))


def test_csv_writer_holds_one_block(tmp_path):
    # simulate's state table: the writer's peak stays a block's temporaries
    # above the signal it writes, where a formatter of the whole table at once
    # holds tens of megabytes
    sig = Signal(0.0, 0.01, np.random.default_rng(26).standard_normal((292, 128)))
    write_signal_csv(tmp_path / "warm.csv", sig)  # the tables are built on first use
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_signal_csv(tmp_path / "state.csv", sig)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


def test_csv_rejects_nonuniform_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,c0\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    with pytest.raises(SchemaError):
        read_signal_csv(path)


@pytest.mark.parametrize("shift, ok", [(5e-10, True), (5e-9, False)])
def test_csv_step_tolerance_is_absolute_below_unit_step(tmp_path, shift, ok):
    # at dt = 0.01 each step must lie within 1e-9 * max(dt, 1) = 1e-9 of dt,
    # not within 1e-9 * dt: a time moved by 5e-10 loads, one moved by 5e-9 does not
    times = 0.01 * np.arange(11)
    times[5] += shift
    path = tmp_path / "grid.csv"
    path.write_text("time,c0\n" + "".join(f"{float(t)!r},1.0\n" for t in times))
    if ok:
        assert read_signal_csv(path).dt == pytest.approx(0.01, rel=1e-12)
    else:
        with pytest.raises(SchemaError, match=r"not constant \(tol 1e-9 \* max\(dt, 1\)\)"):
            read_signal_csv(path)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,c0\n0.0,1.0\n0.1,1.0\n")
    with pytest.raises(SchemaError):
        read_signal_csv(path)


def test_csv_rejects_single_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,c0\n0.0,1.0\n")
    with pytest.raises(SchemaError):
        read_signal_csv(path)


def test_csv_rejects_non_finite_time(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,c0\n0.0,1.0\ninf,1.0\n")
    with pytest.raises(SchemaError):
        read_signal_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("header", ["c0", "c0.re,c0.im"])
def test_csv_rejects_non_finite_value_naming_the_file(tmp_path, value, header):
    path = tmp_path / "bad.csv"
    pad = ",0.0" if "," in header else ""
    path.write_text(f"time,{header}\n0.0,1.0{pad}\n0.1,{value}{pad}\n")
    with pytest.raises(SchemaError, match="bad.csv: times and values must be finite"):
        read_signal_csv(path)
