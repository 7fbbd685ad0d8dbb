"""Transform quadrature with error budgets, and resolvent identity checks."""

import math

import numpy as np
import pytest

import tracemalloc

from wellposed import laplace, signals
from wellposed.certificate import _probe_input, _probe_state
from wellposed.errors import DimensionError, DomainError
from wellposed.heat import HeatConfig, build_heat_system
from wellposed.laplace import ResolventCheck, laplace_transform, verify_resolvent_entries
from wellposed.signals import Signal, exp_conv_trajectory, resample
from wellposed.spectral import DiagonalGenerator, resolvent_apply
from wellposed.system import SpectralSystem


def scalar_system(alpha=-1.0, b=1.0, c=1.0, d=0.0):
    gen = DiagonalGenerator(np.array([alpha], dtype=complex), k=1.0,
                            omega=float(np.real(alpha)))
    return SpectralSystem(gen,
                          np.array([[b]], dtype=complex),
                          np.array([[c]], dtype=complex),
                          np.array([[d]], dtype=complex))


def poly_input(dt, width=1):
    # smooth input on [0, 1] with value and slope zero at the left end
    n = int(round(1.0 / dt))
    r = dt * np.arange(n + 1)
    base = r**2 * (1.0 - r) ** 2
    cols = [base * (-1.0) ** j for j in range(width)]
    return Signal(0.0, dt, np.stack(cols, axis=1))


class TestLaplaceTransform:
    def test_decaying_exponential(self):
        dt = 1e-3
        r = dt * np.arange(40001)
        sig = Signal(0.0, dt, np.exp(-r))
        value, tail = laplace_transform(sig, 1.0, tail=(-1.0, 1.0))
        assert abs(value[0] - 0.5) <= 2e-7
        assert 0.0 < tail < 1e-30

    def test_unit_step_exact(self):
        sig = Signal(0.0, 1.0, np.array([1.0, 1.0]))
        value, tail = laplace_transform(sig, 1.0)
        assert value[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert tail == 0.0

    def test_zero_signal(self):
        sig = Signal(0.0, 0.5, np.zeros((3, 2)))
        value, tail = laplace_transform(sig, 2.0)
        assert np.all(value == 0.0)
        assert tail == 0.0

    def test_complex_frequency_on_step(self):
        lam = 1.0 + 2.0j
        sig = Signal(0.0, 0.25, np.ones(5))
        value, _ = laplace_transform(sig, lam)
        assert value[0] == pytest.approx((1.0 - np.exp(-lam)) / lam, rel=1e-12)

    def test_ramp_exact(self):
        # piecewise-linear data is integrated exactly
        sig = Signal(0.0, 0.125, 0.125 * np.arange(9))
        value, _ = laplace_transform(sig, 2.0)
        expected = (1.0 - 3.0 * math.exp(-2.0)) / 4.0
        assert value[0] == pytest.approx(expected, rel=1e-13)

    def test_rejects_negative_start(self):
        with pytest.raises(DomainError):
            laplace_transform(Signal(-1.0, 0.5, np.ones(5)), 1.0)
        with pytest.raises(DomainError):
            laplace_transform(Signal(-0.25, 0.5, np.array([1.0, 2.0, 0.5])), 1.0)

    def test_left_half_plane_allowed_on_compact_support(self):
        sig = Signal(0.0, 1.0, np.array([1.0, 1.0]))
        value, tail = laplace_transform(sig, -1.0)
        assert value[0] == pytest.approx(math.e - 1.0, rel=1e-14)
        assert tail == 0.0

    def test_tail_requires_right_half_plane(self):
        sig = Signal(0.0, 1.0, np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            laplace_transform(sig, -1.0, tail=(-2.0, 1.0))
        with pytest.raises(DomainError):
            laplace_transform(sig, 0.1, tail=(0.5, 1.0))

    def test_tail_bound_is_honest(self):
        # truncating e^(-r) at T loses exactly e^(-2T)/2, below the bound
        lam = 1.0
        values = {}
        for t_end in (5.0, 10.0):
            dt = 1e-3
            r = dt * np.arange(int(round(t_end / dt)) + 1)
            sig = Signal(0.0, dt, np.exp(-r))
            value, tail = laplace_transform(sig, lam, tail=(-1.0, 1.0))
            assert abs(value[0] - 0.5) <= tail + 1e-6
            values[t_end] = (value[0], tail)
        assert values[10.0][1] < values[5.0][1]
        assert abs(values[5.0][0] - values[10.0][0]) <= values[5.0][1]


class TestVerifyResolventEntries:
    def test_scalar_system_all_entries_pass(self):
        sys = scalar_system(d=0.3)
        check = verify_resolvent_entries(sys, 1.0, [1.0], poly_input(1e-3),
                                         t_max=40.0, dt=1e-3)
        assert isinstance(check, ResolventCheck)
        assert [e.name for e in check.entries] == ["r12", "r23", "r13"]
        assert check.passed
        for entry in check.entries:
            assert entry.residual <= 1e-5
            assert entry.residual <= entry.quad_budget + entry.tail_budget

    def test_unit_input_matches_closed_resolvent(self):
        # u = 1 on [0, 1]: state transform is (1 - 1/e)/(lam + 1) at lam = 1
        sys = scalar_system()
        u = Signal(0.0, 1.0, np.array([1.0, 1.0]))
        check = verify_resolvent_entries(sys, 1.0, [0.0], u, t_max=40.0, dt=1e-3)
        r23 = check.entries[1]
        assert r23.passed
        assert r23.residual <= 1e-5

    def test_zero_input_zeroes_forced_entries(self):
        sys = scalar_system()
        u = Signal(0.0, 0.5, np.zeros((3, 1)))
        check = verify_resolvent_entries(sys, 2.0, [1.0], u, t_max=20.0, dt=1e-3)
        assert check.entries[1].residual == 0.0
        assert check.entries[2].residual == 0.0
        assert check.entries[0].residual > 0.0

    def test_zero_state_zeroes_free_entry(self):
        sys = scalar_system()
        check = verify_resolvent_entries(sys, 1.0, [0.0], poly_input(1e-3),
                                         t_max=20.0, dt=1e-3)
        assert check.entries[0].residual == 0.0

    def test_complex_probe_passes(self):
        sys = scalar_system(alpha=-1.0 + 2.0j, b=1.0 - 0.5j, c=0.7j, d=0.1)
        check = verify_resolvent_entries(sys, 1.0 + 1.0j, [1.0 - 1.0j],
                                         poly_input(1e-3), t_max=40.0, dt=1e-3)
        assert check.passed

    def test_heat_system_passes(self):
        sys = build_heat_system(HeatConfig(n_modes=16))
        u = poly_input(1e-3, width=2)
        check = verify_resolvent_entries(sys, 1.0, np.ones(16) / 4.0, u,
                                         t_max=40.0, dt=1e-3)
        assert check.passed
        for entry in check.entries:
            assert entry.quad_budget + entry.tail_budget <= 1e-4

    def test_one_forced_trajectory_per_check(self, monkeypatch):
        # r23 and every r13 offset fold in the blocks of a single trajectory pass
        real = laplace.exp_conv_blocks
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(laplace, "exp_conv_blocks", counting)
        sys = build_heat_system(HeatConfig(n_modes=8))
        check = verify_resolvent_entries(sys, 1.0, np.ones(8) / 4.0,
                                         poly_input(1e-2, width=2),
                                         t_max=10.0, dt=1e-2)
        assert check.s_values == (0.0, -0.5, -1.0)
        assert check.passed
        assert calls == [1000]

    def test_residuals_converge_second_order(self):
        sys = scalar_system(d=0.2)
        x = [0.8]
        residuals = {"r12": [], "r23": [], "r13": []}
        for dt in (4e-3, 2e-3, 1e-3):
            check = verify_resolvent_entries(sys, 1.0, x, poly_input(dt),
                                             t_max=10.0, dt=dt)
            for entry in check.entries:
                residuals[entry.name].append(entry.residual)
        for name, (r0, r1, r2) in residuals.items():
            assert r0 / r1 >= 3.5, name
            assert r1 / r2 >= 3.5, name

    def test_unresolved_stiff_spectrum_still_budgeted(self):
        # modes far stiffer than dt: the free-transient check must refine its
        # initial layer instead of trusting second differences blindly
        gen = DiagonalGenerator(np.array([-1.0, -500.0, -4000.0], dtype=complex),
                                k=1.0, omega=-1.0)
        sys = SpectralSystem(gen,
                             np.array([[1.0], [0.5], [0.25]], dtype=complex),
                             np.array([[1.0, 1.0, 1.0]], dtype=complex),
                             np.zeros((1, 1), dtype=complex))
        check = verify_resolvent_entries(sys, 1.0, [0.5, 0.3, 0.2],
                                         poly_input(1e-3), t_max=20.0, dt=1e-3)
        assert check.passed
        for entry in check.entries:
            assert entry.quad_budget + entry.tail_budget <= 1e-4

    def test_stiff_mode_amplitudes_stay_finite(self):
        sys = scalar_system(alpha=-50.0)
        check = verify_resolvent_entries(sys, 1.0, [1.0], poly_input(1e-4),
                                         t_max=10.0, dt=1e-4)
        assert check.passed
        for entry in check.entries:
            assert math.isfinite(entry.tail_budget)
            assert math.isfinite(entry.quad_budget)

    def test_validation(self):
        sys = scalar_system()
        u = poly_input(1e-2)
        with pytest.raises(DomainError):
            verify_resolvent_entries(sys, -1.0, [1.0], u, t_max=10.0, dt=1e-2)
        with pytest.raises(DomainError):
            verify_resolvent_entries(sys, 1.0, [1.0], u, t_max=0.8, dt=1e-2)
        late = Signal(5.0, 1.0, np.ones((7, 1)))
        with pytest.raises(DomainError):
            verify_resolvent_entries(sys, 1.0, [1.0], late, t_max=10.0, dt=1e-2)
        wide = Signal(0.0, 0.5, np.ones((3, 2)))
        with pytest.raises(DimensionError):
            verify_resolvent_entries(sys, 1.0, [1.0], wide, t_max=10.0, dt=1e-2)


def _reference_quad_budget(samples, grid, dt, lam, reduce):
    if samples.shape[0] < 3:
        return 0.0
    d2 = samples[2:] - 2.0 * samples[1:-1] + samples[:-2]
    decay = np.exp(-lam.real * np.maximum(grid[1:-1], 0.0))
    if reduce == "max":
        total = float(np.max(np.sum(np.abs(d2) * decay[:, None], axis=0)))
    else:
        total = float(np.sum(np.linalg.norm(d2, axis=1) * decay))
    return 2.0 * (dt / 12.0) * total


def _reference_free_output(alpha, c, x, s, t_max, dt, lam, omega, amp):
    stiff = float(np.max(-alpha.real))
    horizon = t_max + s
    pieces = []
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
    quad = tail = 0.0
    for i, (t0, h, n) in enumerate(pieces):
        grid = t0 + h * np.arange(n + 1)
        y = (np.exp(np.outer(grid + s, alpha)) * x) @ c.T
        last = i == len(pieces) - 1
        v, tb = laplace_transform(Signal(t0, h, y), lam, (omega, amp) if last else None)
        value += v
        quad += _reference_quad_budget(y, grid, h, lam, "max")
        if last:
            tail = tb
    return value, quad, tail


def _reference_check(sys, lam, x, u, t_max, dt, s_values=(0.0, -0.5, -1.0)):
    """The resolvent check as it was before streaming: whole (steps, N)
    trajectories and free outputs, one laplace_transform per entry. Returns
    (name, residual, quad, tail, passed) per entry."""
    lam = complex(lam)
    x = np.asarray(x, dtype=complex)
    horizon = t_max + min(s_values)
    alpha = sys.gen.eigenvalues
    omega = max(sys.gen.omega, -1.0)
    c = sys.observation
    col_norm = np.linalg.norm(c, axis=0)
    u_fine = resample(u, 0.0, dt, int(round(horizon / dt)) + 1)
    u_hat, _ = laplace_transform(u_fine, lam)
    state_hat = resolvent_apply(sys.gen, lam, sys.control @ u_hat)

    res12 = quad12 = tail12 = 0.0
    ok12 = True
    closed_state = c @ resolvent_apply(sys.gen, lam, x)
    amp12 = float(np.sum(col_norm * np.abs(x)))
    for s in s_values:
        num, qb, tb = _reference_free_output(alpha, c, x, s, t_max, dt, lam,
                                             omega, amp12 * np.exp(omega * s))
        residual = float(np.max(np.abs(num - np.exp(lam * s) * closed_state)))
        res12, quad12, tail12 = max(res12, residual), max(quad12, qb), max(tail12, tb)
        ok12 = ok12 and residual <= qb + tb

    steps = int(round(t_max / dt))
    u_grid = resample(u, 0.0, dt, steps + 1).samples
    traj = exp_conv_trajectory(alpha, Signal(0.0, dt, u_grid @ sys.control.T), steps)
    y = traj @ c.T + u_grid @ sys.feedthrough.T

    grid = dt * np.arange(steps + 1)
    amp23 = float(np.linalg.norm(traj[-1])) * np.exp(-omega * grid[-1])
    num23, tail23 = laplace_transform(Signal(0.0, dt, traj), lam, (omega, amp23))
    res23 = float(np.linalg.norm(num23 - state_hat))
    quad23 = _reference_quad_budget(traj, grid, dt, lam, "norm")

    res13 = quad13 = tail13 = 0.0
    ok13 = True
    closed_out = c @ state_hat + sys.feedthrough @ u_hat
    for s in s_values:
        steps = int(round((t_max + s) / dt))
        grid = -s + dt * np.arange(steps + 1)
        y_s = y[:steps + 1]
        amp13 = float(np.sum(col_norm * np.abs(traj[steps]))) * np.exp(-omega * grid[-1])
        num, tb = laplace_transform(Signal(-s, dt, y_s), lam, (omega, amp13))
        residual = float(np.max(np.abs(num - np.exp(lam * s) * closed_out)))
        qb = _reference_quad_budget(y_s, grid, dt, lam, "max")
        res13, quad13, tail13 = max(res13, residual), max(quad13, qb), max(tail13, tb)
        ok13 = ok13 and residual <= qb + tb
    return [("r12", res12, quad12, tail12, ok12),
            ("r23", res23, quad23, tail23, res23 <= quad23 + tail23),
            ("r13", res13, quad13, tail13, ok13)]


def _random_complex_system():
    rng = np.random.default_rng(11)
    n, m, k = 6, 2, 2
    alpha = -rng.uniform(0.5, 40.0, n) + 1j * rng.uniform(-20.0, 20.0, n)
    gen = DiagonalGenerator(alpha, k=1.0, omega=float(np.max(alpha.real)))

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return SpectralSystem(gen, draw((n, m)), draw((k, n)), draw((k, m)))


_BLOCK_CASES = {
    "heat8": lambda: build_heat_system(HeatConfig(n_modes=8)),
    "complex": _random_complex_system,
}


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
@pytest.mark.parametrize("block_rows", [1, 2, 7, 1001])
def test_streamed_check_matches_unstreamed_reference(monkeypatch, case, block_rows):
    # block boundaries anywhere, down to the two-row minimum, leave the check as it was
    sys = _BLOCK_CASES[case]()
    monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", block_rows * sys.n_modes)
    x = np.linspace(1.0, 0.2, sys.n_modes) * (1.0 - 0.5j)
    u = poly_input(1e-2, width=sys.n_inputs)
    lam = 1.0 + 0.5j
    check = verify_resolvent_entries(sys, lam, x, u, t_max=10.0, dt=1e-2)
    want = _reference_check(sys, lam, x, u, 10.0, 1e-2)
    for entry, (name, residual, quad, tail, passed) in zip(check.entries, want):
        assert entry.name == name
        assert entry.passed == passed, name
        np.testing.assert_allclose([entry.residual, entry.quad_budget, entry.tail_budget],
                                   [residual, quad, tail], rtol=1e-13, atol=0.0, err_msg=name)


def test_resolvent_check_memory_bounded():
    # the certificate's check on 256 heat modes over 40 001 steps: a whole
    # trajectory alone would take 164 MB
    sys = build_heat_system(HeatConfig(n_modes=256))
    x = _probe_state(sys.n_modes)
    u = _probe_input(sys.n_inputs, 1e-3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        check = verify_resolvent_entries(sys, 1.0, x, u, t_max=40.0, dt=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak < 96e6
