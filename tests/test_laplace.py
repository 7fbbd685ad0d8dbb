"""Transform quadrature with error budgets, and resolvent identity checks."""

import inspect
import math

import numpy as np
import pytest

import tracemalloc

from cross_oracles import conv_trajectory
from wellposed import laplace, signals
from wellposed.certificate import _probe_input, _probe_state
from wellposed.errors import DimensionError, DomainError
from wellposed.heat import HeatConfig, build_heat_system
from wellposed.laplace import ResolventCheck, laplace_transform, verify_resolvent_entries
from wellposed.signals import Signal, resample
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
        value = laplace_transform(sig, 1.0)
        tail = laplace._tail_bound(1.0, sig.end, -1.0, 1.0)
        assert abs(value[0] - 0.5) <= 2e-7
        assert 0.0 < tail < 1e-30

    def test_unit_step_exact(self):
        sig = Signal(0.0, 1.0, np.array([1.0, 1.0]))
        value = laplace_transform(sig, 1.0)
        assert value[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_zero_signal(self):
        sig = Signal(0.0, 0.5, np.zeros((3, 2)))
        value = laplace_transform(sig, 2.0)
        assert np.all(value == 0.0)

    def test_complex_frequency_on_step(self):
        lam = 1.0 + 2.0j
        sig = Signal(0.0, 0.25, np.ones(5))
        value = laplace_transform(sig, lam)
        assert value[0] == pytest.approx((1.0 - np.exp(-lam)) / lam, rel=1e-12)

    def test_ramp_exact(self):
        # piecewise-linear data is integrated exactly
        sig = Signal(0.0, 0.125, 0.125 * np.arange(9))
        value = laplace_transform(sig, 2.0)
        expected = (1.0 - 3.0 * math.exp(-2.0)) / 4.0
        assert value[0] == pytest.approx(expected, rel=1e-13)

    def test_rejects_negative_start(self):
        with pytest.raises(DomainError):
            laplace_transform(Signal(-1.0, 0.5, np.ones(5)), 1.0)
        with pytest.raises(DomainError):
            laplace_transform(Signal(-0.25, 0.5, np.array([1.0, 2.0, 0.5])), 1.0)

    def test_left_half_plane_allowed_on_compact_support(self):
        sig = Signal(0.0, 1.0, np.array([1.0, 1.0]))
        value = laplace_transform(sig, -1.0)
        assert value[0] == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_tail_bound_is_honest(self):
        # truncating e^(-r) at T loses exactly e^(-2T)/2, below the bound
        lam = 1.0
        values = {}
        for t_end in (5.0, 10.0):
            dt = 1e-3
            r = dt * np.arange(int(round(t_end / dt)) + 1)
            sig = Signal(0.0, dt, np.exp(-r))
            value = laplace_transform(sig, lam)
            tail = laplace._tail_bound(lam, sig.end, -1.0, 1.0)
            assert abs(value[0] - 0.5) <= tail + 1e-6
            values[t_end] = (value[0], tail)
        assert values[10.0][1] < values[5.0][1]
        assert abs(values[5.0][0] - values[10.0][0]) <= values[5.0][1]


class TestVerifyResolventEntries:
    def test_scalar_system_all_entries_pass(self):
        sys = scalar_system(d=0.3)
        check = verify_resolvent_entries(sys, (1.0,), [1.0], poly_input(1e-3),
                                         t_max=40.0, dt=1e-3)[0]
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
        check = verify_resolvent_entries(sys, (1.0,), [0.0], u, t_max=40.0, dt=1e-3)[0]
        r23 = check.entries[1]
        assert r23.passed
        assert r23.residual <= 1e-5

    def test_zero_input_zeroes_forced_entries(self):
        sys = scalar_system()
        u = Signal(0.0, 0.5, np.zeros((3, 1)))
        check = verify_resolvent_entries(sys, (2.0,), [1.0], u, t_max=20.0, dt=1e-3)[0]
        assert check.entries[1].residual == 0.0
        assert check.entries[2].residual == 0.0
        assert check.entries[0].residual > 0.0

    def test_zero_state_zeroes_free_entry(self):
        sys = scalar_system()
        check = verify_resolvent_entries(sys, (1.0,), [0.0], poly_input(1e-3),
                                         t_max=20.0, dt=1e-3)[0]
        assert check.entries[0].residual == 0.0

    def test_complex_probe_passes(self):
        sys = scalar_system(alpha=-1.0 + 2.0j, b=1.0 - 0.5j, c=0.7j, d=0.1)
        check = verify_resolvent_entries(sys, (1.0 + 1.0j,), [1.0 - 1.0j],
                                         poly_input(1e-3), t_max=40.0, dt=1e-3)[0]
        assert check.passed

    def test_heat_system_passes(self):
        sys = build_heat_system(HeatConfig(n_modes=16))
        u = poly_input(1e-3, width=2)
        check = verify_resolvent_entries(sys, (1.0,), np.ones(16) / 4.0, u,
                                         t_max=40.0, dt=1e-3)[0]
        assert check.passed
        for entry in check.entries:
            assert entry.quad_budget + entry.tail_budget <= 1e-4

    def test_one_forced_trajectory_per_check(self, monkeypatch):
        # r23 and every r13 offset fold in the blocks of a single trajectory pass
        real = laplace.exp_conv_blocks
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(laplace, "exp_conv_blocks", counting)
        sys = build_heat_system(HeatConfig(n_modes=8))
        check = verify_resolvent_entries(sys, (1.0,), np.ones(8) / 4.0,
                                         poly_input(1e-2, width=2),
                                         t_max=10.0, dt=1e-2)[0]
        assert check.s_values == (0.0, -0.5, -1.0)
        assert check.passed
        assert calls == [1000]

    def test_residuals_converge_second_order(self):
        sys = scalar_system(d=0.2)
        x = [0.8]
        residuals = {"r12": [], "r23": [], "r13": []}
        for dt in (4e-3, 2e-3, 1e-3):
            check = verify_resolvent_entries(sys, (1.0,), x, poly_input(dt),
                                             t_max=10.0, dt=dt)[0]
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
        check = verify_resolvent_entries(sys, (1.0,), [0.5, 0.3, 0.2],
                                         poly_input(1e-3), t_max=20.0, dt=1e-3)[0]
        assert check.passed
        for entry in check.entries:
            assert entry.quad_budget + entry.tail_budget <= 1e-4

    def test_stiff_mode_amplitudes_stay_finite(self):
        sys = scalar_system(alpha=-50.0)
        check = verify_resolvent_entries(sys, (1.0,), [1.0], poly_input(1e-4),
                                         t_max=10.0, dt=1e-4)[0]
        assert check.passed
        for entry in check.entries:
            assert math.isfinite(entry.tail_budget)
            assert math.isfinite(entry.quad_budget)

    def test_validation(self):
        sys = scalar_system()
        u = poly_input(1e-2)
        with pytest.raises(DomainError):
            verify_resolvent_entries(sys, (-1.0,), [1.0], u, t_max=10.0, dt=1e-2)
        with pytest.raises(DomainError):
            verify_resolvent_entries(sys, (1.0,), [1.0], u, t_max=0.8, dt=1e-2)
        with pytest.raises(DomainError):
            verify_resolvent_entries(sys, (1.0,), [1.0], u, t_max=math.inf, dt=1e-2)
        with pytest.raises(DomainError):
            verify_resolvent_entries(sys, (1.0,), [1.0], u, t_max=10.0, dt=math.inf)
        late = Signal(5.0, 1.0, np.ones((7, 1)))
        with pytest.raises(DomainError):
            verify_resolvent_entries(sys, (1.0,), [1.0], late, t_max=10.0, dt=1e-2)
        wide = Signal(0.0, 0.5, np.ones((3, 2)))
        with pytest.raises(DimensionError):
            verify_resolvent_entries(sys, (1.0,), [1.0], wide, t_max=10.0, dt=1e-2)

    @pytest.mark.parametrize("lam", [math.inf, complex(1.0, math.inf), math.nan,
                                     complex(math.nan, 1.0)])
    def test_rejects_non_finite_probe_up_front(self, monkeypatch, lam):
        # before any transform runs, with a message naming lambda
        def stage(*args, **kw):
            raise AssertionError("a transform ran")

        monkeypatch.setattr(laplace, "resample", stage)
        with pytest.raises(DomainError, match="finite lambda"):
            verify_resolvent_entries(scalar_system(), (lam,), [1.0], poly_input(1e-2),
                                     t_max=10.0, dt=1e-2)

    @pytest.mark.parametrize("n_modes, rows", [(8, [1001]), (16, [218, 977])])
    def test_free_output_sampled_once(self, monkeypatch, n_modes, rows):
        # every offset reads a prefix of one tau grid: heat 8 has no stiff
        # layer at dt = 1e-2 (50 dt <= 1/2), heat 16 has one of 217 steps.
        # The forced trajectory's own row_blocks calls are not counted.
        real = signals.row_blocks
        counted = []

        def counting(n_rows, width):
            if inspect.currentframe().f_back.f_code.co_name == "sample_free_output":
                counted.append(n_rows)
            return real(n_rows, width)

        monkeypatch.setattr(signals, "row_blocks", counting)
        sys = build_heat_system(HeatConfig(n_modes=n_modes))
        check = verify_resolvent_entries(sys, (1.0,), np.ones(n_modes) / 4.0,
                                         poly_input(1e-2, width=2),
                                         t_max=10.0, dt=1e-2)[0]
        assert check.passed
        assert counted == rows

    @pytest.mark.parametrize("case", ["heat16", "complex"])
    def test_free_output_table_matches_direct_exponentials(self, case):
        # heat 16 at dt = 1e-2 has a stiff layer of 217 fine steps before its dt grid
        sys = build_heat_system(HeatConfig(n_modes=16)) if case == "heat16" \
            else _random_complex_system()
        alpha, c = sys.gen.eigenvalues, sys.observation
        x = np.linspace(1.0, 0.2, sys.n_modes) * (1.0 - 0.5j)
        pieces = laplace._free_output(alpha, c, x, 10.0, 1e-2)
        assert [y.shape[0] for _, _, y in pieces] == ([218, 977] if case == "heat16" else [1001])
        for tau0, h, y in pieces:
            tau = tau0 + h * np.arange(y.shape[0])
            want = (np.exp(np.outer(tau, alpha)) * x) @ c.T
            np.testing.assert_allclose(y, want, rtol=1e-14, atol=0.0)

    def test_stuck_subnormals_read_as_zero(self, monkeypatch):
        # e^(alpha dt) > 1/2 for alpha = -100 and -300 at dt = 1e-3, so round
        # to nearest holds their free decay at the smallest subnormal, 4.9e-324
        gen = DiagonalGenerator(np.array([-100.0, -300.0, -2.0], dtype=complex),
                                k=1.0, omega=-2.0)
        sys = SpectralSystem(gen,
                             np.array([[1.0], [0.5], [0.3]], dtype=complex),
                             np.array([[1.0, 0.7, 0.2]], dtype=complex),
                             np.zeros((1, 1), dtype=complex))
        x, u, dt = [0.5, 0.3, 0.2], poly_input(1e-3), 1e-3

        def subnormal_parts(arr):
            parts = np.asarray(arr).view(float)
            return int(np.count_nonzero((parts != 0.0) & (np.abs(parts) < np.finfo(float).tiny)))

        # the kernel floors them, so the public trajectory holds none either
        traj = conv_trajectory(sys.gen.eigenvalues, sys.control, resample(u, 0.0, dt, 10001),
                               10000)
        assert subnormal_parts(traj) == 0

        real = laplace.segment_weights
        seen, seen23 = [], []

        def spy(v, *args):
            # r23's rows hold two modes or more; u_hat's transform and the
            # pieces of r12 and r13 hold one channel each
            (seen23 if v.shape[1] > 1 else seen).append(subnormal_parts(v))
            return real(v, *args)

        monkeypatch.setattr(laplace, "segment_weights", spy)
        check = verify_resolvent_entries(sys, (1.0,), x, u, t_max=10.0, dt=dt)[0]
        assert seen and not any(seen)
        assert seen23 and not any(seen23)
        want = _reference_check(sys, 1.0, x, u, 10.0, dt)
        for entry, (name, residual, quad, tail, passed) in zip(check.entries, want):
            assert entry.name == name and entry.passed == passed
            np.testing.assert_allclose([entry.residual, entry.quad_budget, entry.tail_budget],
                                       [residual, quad, tail], rtol=1e-13, atol=0.0,
                                       err_msg=name)

    def test_stiff_layer_must_fit_shortest_horizon(self):
        # 226 * 0.5 > 1/2 asks for a layer of 24 dt = 12 > t_max - 1 = 9
        sys = build_heat_system(HeatConfig(n_modes=16))
        with pytest.raises(DomainError, match="dt"):
            verify_resolvent_entries(sys, (1.0,), np.ones(16) / 4.0,
                                     poly_input(0.5, width=2), t_max=10.0, dt=0.5)


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
        sig = Signal(t0, h, y)
        value += laplace_transform(sig, lam)
        quad += _reference_quad_budget(y, grid, h, lam, "max")
        if i == len(pieces) - 1:
            tail = laplace._tail_bound(lam, sig.end, omega, amp)
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
    u_hat = laplace_transform(u_fine, lam)
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
    traj = conv_trajectory(alpha, np.eye(sys.n_modes), Signal(0.0, dt, u_grid @ sys.control.T),
                           steps)
    y = traj @ c.T + u_grid @ sys.feedthrough.T

    grid = dt * np.arange(steps + 1)
    amp23 = float(np.linalg.norm(traj[-1])) * np.exp(-omega * grid[-1])
    sig23 = Signal(0.0, dt, traj)
    num23 = laplace_transform(sig23, lam)
    tail23 = laplace._tail_bound(lam, sig23.end, omega, amp23)
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
        sig13 = Signal(-s, dt, y_s)
        num = laplace_transform(sig13, lam)
        tb = laplace._tail_bound(lam, sig13.end, omega, amp13)
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
    check = verify_resolvent_entries(sys, (lam,), x, u, t_max=10.0, dt=1e-2)[0]
    want = _reference_check(sys, lam, x, u, 10.0, 1e-2)
    for entry, (name, residual, quad, tail, passed) in zip(check.entries, want):
        assert entry.name == name
        assert entry.passed == passed, name
        np.testing.assert_allclose([entry.residual, entry.quad_budget, entry.tail_budget],
                                   [residual, quad, tail], rtol=1e-13, atol=0.0, err_msg=name)


def _dying_complex_system():
    # the stiffest modes come last: past the drive they floor to +0.0 one
    # after another, the second by t = 9, so r23's passes narrow to one column
    alpha = np.array([-0.5 + 3.0j, -100.0 - 20.0j, -300.0 + 50.0j, -1000.0 + 400.0j,
                      -4000.0 - 700.0j])
    rng = np.random.default_rng(3)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    gen = DiagonalGenerator(alpha, k=1.0, omega=-0.5)
    return SpectralSystem(gen, draw((5, 2)), draw((2, 5)), draw((2, 2)))


# (system, probe, dt): heat 16 at t_max 40 and the dying system at t_max 10
_LIVE_WIDTH_CASES = {
    "heat16": (lambda: build_heat_system(HeatConfig(n_modes=16)), 1.0, 1e-2),
    "dying": (_dying_complex_system, 0.6 + 0.5j, 1e-3),
}


@pytest.mark.parametrize("case", sorted(_LIVE_WIDTH_CASES))
@pytest.mark.parametrize("block_rows", [7, 250])
def test_live_width_keeps_every_check_bit(monkeypatch, case, block_rows):
    # the passes that stop at the last live column give the residuals and
    # budgets of the same passes over every column
    build, lam, dt = _LIVE_WIDTH_CASES[case]
    sys = build()
    t_max = 40.0 if case == "heat16" else 10.0
    x = np.linspace(1.0, 0.2, sys.n_modes) * (1.0 - 0.5j)
    u = poly_input(dt, width=sys.n_inputs)
    monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", block_rows * sys.n_modes)
    real = laplace._live_width
    widths = []

    def spy(row):
        widths.append(real(row))
        return widths[-1]

    monkeypatch.setattr(laplace, "_live_width", spy)
    check = verify_resolvent_entries(sys, (lam,), x, u, t_max=t_max, dt=dt)[0]
    assert min(widths) < sys.n_modes
    if case == "dying":
        assert min(widths) == 1
    for module in (laplace, signals):
        monkeypatch.setattr(module, "_live_width", lambda row: row.shape[0])
    full = verify_resolvent_entries(sys, (lam,), x, u, t_max=t_max, dt=dt)[0]
    assert check.entries == full.entries
    # r23 and r13 read the forced trajectory. r12 does not, and its
    # table-sampled free output moves its residual by up to 5e-12 relative
    # from the reference's direct exponentials here, whatever the width.
    want = _reference_check(sys, lam, x, u, t_max, dt)
    for entry, (name, residual, quad, tail, passed) in zip(check.entries[1:], want[1:]):
        assert entry.name == name and entry.passed == passed
        np.testing.assert_allclose([entry.residual, entry.quad_budget, entry.tail_budget],
                                   [residual, quad, tail], rtol=1e-13, atol=0.0,
                                   err_msg=name)


def test_free_decay_passes_stop_at_live_columns(monkeypatch):
    # the certificate's check on 64 heat modes: past the probe input, r23's
    # passes run on the live columns only, about a sixth of rows x modes
    blocks = []
    real_blocks, real_width = laplace.exp_conv_blocks, laplace._live_width

    def counting(*args):
        for block in real_blocks(*args):
            blocks.append(list(block.shape))
            yield block

    def spy(row):
        width = real_width(row)
        # the loop keeps two columns at least
        blocks[-1][1] = max(width, 2)
        return width

    monkeypatch.setattr(laplace, "exp_conv_blocks", counting)
    monkeypatch.setattr(laplace, "_live_width", spy)
    sys = build_heat_system(HeatConfig(n_modes=64))
    check = verify_resolvent_entries(sys, (1.0,), _probe_state(64), _probe_input(2, 1e-3),
                                     t_max=40.0, dt=1e-3)[0]
    assert check.passed
    assert sum(rows for rows, _ in blocks) == 40001
    assert sum(rows * width for rows, width in blocks) < 0.25 * 40001 * 64


def test_live_width_scans_the_carried_width(monkeypatch):
    # the certificate's check on 64 heat modes: the kernel's carried row and
    # r23's boundary row are kept at the live width, so each _live_width call
    # after the first scans no more entries than the previous one found live
    real = laplace._live_width
    calls = {laplace: [], signals: []}
    for module, seen in calls.items():
        def spy(row, seen=seen):
            seen.append((row.shape[0], real(row)))
            return seen[-1][1]

        monkeypatch.setattr(module, "_live_width", spy)
    sys = build_heat_system(HeatConfig(n_modes=64))
    check = verify_resolvent_entries(sys, (1.0,), _probe_state(64), _probe_input(2, 1e-3),
                                     t_max=40.0, dt=1e-3)[0]
    assert check.passed
    for module, seen in calls.items():
        assert seen[0][0] == 64 and min(width for _, width in seen) < 64, module
        assert all(length <= width for (_, width), (length, _) in zip(seen, seen[1:])), module


def test_resolvent_check_memory_bounded():
    # the certificate's check on 256 heat modes over 40 001 steps: a whole
    # trajectory alone would take 164 MB
    sys = build_heat_system(HeatConfig(n_modes=256))
    x = _probe_state(sys.n_modes)
    u = _probe_input(sys.n_inputs, 1e-3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        check = verify_resolvent_entries(sys, (1.0,), x, u, t_max=40.0, dt=1e-3)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak < 96e6


def test_heat_check_memory_near_parent_peak():
    # one certificate check on 64 heat modes over 40 001 steps holds a few
    # row blocks of 1 MB at a time; one more block-sized buffer exceeds this
    sys = build_heat_system(HeatConfig(n_modes=64))
    x = _probe_state(sys.n_modes)
    u = _probe_input(sys.n_inputs, 1e-3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        check = verify_resolvent_entries(sys, (1.0,), x, u, t_max=40.0, dt=1e-3)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak < 11.3e6


def test_heat1024_check_memory_holds_no_drive():
    # the certificate's check on 1024 heat modes: the probe input's 1001-row
    # drive u B^T alone would take 16 MB, twice that while a Signal copies
    # it; the kernel forms it one block of rows at a time
    sys = build_heat_system(HeatConfig(n_modes=1024))
    x = _probe_state(sys.n_modes)
    u = _probe_input(sys.n_inputs, 1e-3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        check = verify_resolvent_entries(sys, (1.0,), x, u, t_max=40.0, dt=1e-3)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak <= 20e6


def test_passes_run_on_contiguous_arrays(monkeypatch):
    # the certificate's check on 64 heat modes: r23's passes, the segment
    # weights and second differences of every offset entry and the kernel's
    # floor see C-contiguous arrays only, among them the narrow ones past the
    # probe input, wider than its two channels
    operands = {}

    def spying(module, name):
        real = getattr(module, name)
        seen = operands[name] = []

        def spy(*args):
            seen.extend(a for a in args if isinstance(a, np.ndarray))
            return real(*args)

        monkeypatch.setattr(module, name, spy)

    for module, name in ((laplace, "segment_weights"), (laplace, "_second_differences"),
                         (signals, "_floor")):
        spying(module, name)
    sys = build_heat_system(HeatConfig(n_modes=64))
    check = verify_resolvent_entries(sys, (1.0,), _probe_state(64), _probe_input(2, 1e-3),
                                     t_max=40.0, dt=1e-3)[0]
    assert check.passed
    for name, seen in operands.items():
        assert any(a.ndim == 2 and 2 < a.shape[1] < 64 for a in seen), name
        assert all(a.flags.c_contiguous for a in seen), name


@pytest.mark.parametrize("n_modes, rows", [(8, [901, 1001, 1001, 1001]),
                                           (16, [901, 218, 977, 1001, 1001])])
def test_offset_pieces_weighted_once(monkeypatch, n_modes, rows):
    # u_hat's transform, each piece of r12, r23's one block and r13's one
    # piece: every offset reads the weights of its pieces by prefix, not its own
    real = laplace.segment_weights
    counted = []

    def counting(v, *args):
        counted.append(v.shape[0])
        return real(v, *args)

    monkeypatch.setattr(laplace, "segment_weights", counting)
    sys = build_heat_system(HeatConfig(n_modes=n_modes))
    check = verify_resolvent_entries(sys, (1.0,), np.ones(n_modes) / 4.0,
                                     poly_input(1e-2, width=2), t_max=10.0, dt=1e-2)[0]
    assert check.passed
    assert counted == rows


def _per_offset_entry(name, pieces, closed, amps, lam, omega, t_max, dt):
    # _offset_entry as one laplace_transform of a Signal per piece and offset
    *layer, (tau_last, _, y_last) = pieces
    k0 = int(round(tau_last / dt))
    rows = []
    for s, amp in zip(laplace._S_VALUES, amps):
        runs = layer + [(tau_last, dt, y_last[:int(round((t_max + s) / dt)) - k0 + 1])]
        value, qb = np.zeros(closed.shape, dtype=complex), 0.0
        for tau0, h, y in runs:
            sig = Signal(tau0 - s, h, y)
            value += laplace_transform(sig, lam)
            qb += _reference_quad_budget(y, tau0 - s + h * np.arange(y.shape[0]), h, lam, "max")
        # the envelope past the last run
        tb = laplace._tail_bound(lam, sig.end, omega, amp)
        rows.append((float(np.max(np.abs(value - np.exp(lam * s) * closed))), qb, tb))
    residual, quad, tail = (max(col) for col in zip(*rows))
    return laplace.EntryResidual(name, residual, quad, tail,
                                 all(r <= q + t for r, q, t in rows))


@pytest.mark.parametrize("case", ["heat16", "complex"])
def test_offset_entry_matches_per_offset_transforms(case):
    # weights and second differences formed once per piece give every bit of
    # a transform per piece and offset; heat 16 has a stiff layer at dt = 1e-2
    sys = build_heat_system(HeatConfig(n_modes=16)) if case == "heat16" \
        else _random_complex_system()
    alpha, c = sys.gen.eigenvalues, sys.observation
    x = np.linspace(1.0, 0.2, sys.n_modes) * (1.0 - 0.5j)
    pieces = laplace._free_output(alpha, c, x, 10.0, 1e-2)
    lam, omega = 0.7 + 0.4j, max(sys.gen.omega, -1.0)
    closed = c @ resolvent_apply(sys.gen, lam, x)
    amps = [0.9 * np.exp(omega * s) for s in laplace._S_VALUES]
    args = ("r12", pieces, closed, amps, lam, omega, 10.0, 1e-2)
    assert laplace._offset_entry(*args) == _per_offset_entry(*args)


@pytest.mark.parametrize("case", ["heat16", "complex"])
@pytest.mark.parametrize("block_rows", [7, None])
def test_probes_in_one_call_equal_one_probe_calls(monkeypatch, case, block_rows):
    # real, complex and repeated probes share the trajectories and keep
    # every bit of one-probe calls, in the order given; heat 16 has a stiff
    # layer at dt = 1e-2, and 7-row blocks run r23's per-probe sums many times
    sys = build_heat_system(HeatConfig(n_modes=16)) if case == "heat16" \
        else _random_complex_system()
    if block_rows:
        monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", block_rows * sys.n_modes)
    x = np.linspace(1.0, 0.2, sys.n_modes) * (1.0 - 0.5j)
    u = poly_input(1e-2, width=sys.n_inputs)
    probes = (2.0, 0.7 + 0.4j, 1.0, 0.3 - 1.5j, 0.7 + 0.4j)
    checks = verify_resolvent_entries(sys, probes, x, u, t_max=10.0, dt=1e-2)
    assert [check.lam for check in checks] == [complex(lam) for lam in probes]
    assert checks == [verify_resolvent_entries(sys, (lam,), x, u, t_max=10.0, dt=1e-2)[0]
                      for lam in probes]


@pytest.mark.parametrize("probes", [(), [], (1.0, -1.0), (1.0, 2.0j, 2.0),
                                    (1.0, math.nan), (1.0 + 1.0j, complex(1.0, math.inf))])
def test_probe_list_checked_before_any_transform(monkeypatch, probes):
    # an empty list, or one bad probe among good ones, raises up front
    def stage(*args, **kw):
        raise AssertionError("a transform ran")

    for name in ("resample", "laplace_transform", "_free_output", "exp_conv_blocks"):
        monkeypatch.setattr(laplace, name, stage)
    with pytest.raises(DomainError, match="finite lambda"):
        verify_resolvent_entries(scalar_system(), probes, [1.0], poly_input(1e-2),
                                 t_max=10.0, dt=1e-2)


def test_offset_entry_rejects_non_finite_samples(monkeypatch):
    # each offset's transform reads a Signal, which refuses inf and nan
    real = laplace._free_output

    def poisoned(*args):
        *layer, (tau0, h, y) = real(*args)
        y = y.copy()
        y[5] = np.inf
        return layer + [(tau0, h, y)]

    monkeypatch.setattr(laplace, "_free_output", poisoned)
    with pytest.raises(DomainError, match="finite"):
        verify_resolvent_entries(scalar_system(), (1.0,), [1.0], poly_input(1e-2),
                                 t_max=10.0, dt=1e-2)

