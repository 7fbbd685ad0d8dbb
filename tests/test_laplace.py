"""Transform quadrature with error budgets, and resolvent identity checks."""

import math

import numpy as np
import pytest

from wellposed import laplace
from wellposed.errors import DimensionError, DomainError
from wellposed.heat import HeatConfig, build_heat_system
from wellposed.laplace import ResolventCheck, laplace_transform, verify_resolvent_entries
from wellposed.signals import Signal, values_at
from wellposed.spectral import DiagonalGenerator
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
        value, tail = laplace_transform(sig, 1.0, tail=(1.0, -1.0, 1.0))
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

    def test_negative_time_clipped(self):
        sig = Signal(-1.0, 0.5, np.ones(5))  # constant on [-1, 1]
        value, _ = laplace_transform(sig, 1.0)
        assert value[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)

    def test_partial_head_segment(self):
        # grid knots straddle zero, so the first segment is clipped
        sig = Signal(-0.25, 0.5, np.array([1.0, 2.0, 0.5]))
        value, _ = laplace_transform(sig, 1.0)
        r = np.linspace(0.0, 0.75, 75001)
        ref = np.trapezoid(values_at(sig, r)[:, 0] * np.exp(-r), r)
        assert value[0] == pytest.approx(ref, rel=1e-8)

    def test_left_half_plane_allowed_on_compact_support(self):
        sig = Signal(0.0, 1.0, np.array([1.0, 1.0]))
        value, tail = laplace_transform(sig, -1.0)
        assert value[0] == pytest.approx(math.e - 1.0, rel=1e-14)
        assert tail == 0.0

    def test_tail_requires_right_half_plane(self):
        sig = Signal(0.0, 1.0, np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            laplace_transform(sig, -1.0, tail=(1.0, -2.0, 1.0))
        with pytest.raises(DomainError):
            laplace_transform(sig, 0.1, tail=(1.0, 0.5, 1.0))
        with pytest.raises(DomainError):
            laplace_transform(sig, 1.0, tail=(0.0, -1.0, 1.0))

    def test_tail_bound_is_honest(self):
        # truncating e^(-r) at T loses exactly e^(-2T)/2, below the bound
        lam = 1.0
        values = {}
        for t_end in (5.0, 10.0):
            dt = 1e-3
            r = dt * np.arange(int(round(t_end / dt)) + 1)
            sig = Signal(0.0, dt, np.exp(-r))
            value, tail = laplace_transform(sig, lam, tail=(1.0, -1.0, 1.0))
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
        # r23 and every r13 offset read prefixes of a single trajectory
        real = laplace.exp_conv_trajectory
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(laplace, "exp_conv_trajectory", counting)
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
            verify_resolvent_entries(sys, 1.0, [1.0], u, t_max=10.0, dt=1e-2,
                                     s_values=(0.5,))
        with pytest.raises(DomainError):
            verify_resolvent_entries(sys, 1.0, [1.0], u, t_max=0.8, dt=1e-2)
        late = Signal(5.0, 1.0, np.ones((7, 1)))
        with pytest.raises(DomainError):
            verify_resolvent_entries(sys, 1.0, [1.0], late, t_max=10.0, dt=1e-2)
        wide = Signal(0.0, 0.5, np.ones((3, 2)))
        with pytest.raises(DimensionError):
            verify_resolvent_entries(sys, 1.0, [1.0], wide, t_max=10.0, dt=1e-2)
