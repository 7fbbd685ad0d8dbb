"""Cosine-mode heat system: matrices, Dirichlet kernels, reconstruction."""

import cmath
import math

import numpy as np
import pytest

from cross_oracles import dirichlet_eval
from wellposed.errors import DomainError, SpectrumError
from wellposed.heat import HeatConfig, build_heat_system, mode_weights, reconstruct_temperature
from wellposed.spectral import resolvent_apply
from wellposed.system import HeatTail


class TestConfig:
    def test_defaults(self):
        cfg = HeatConfig()
        assert cfg.n_modes == 64
        assert cfg.lambda0 == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            HeatConfig(n_modes=0)
        with pytest.raises(DomainError):
            HeatConfig(lambda0=0.0)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True])
    def test_mode_count_must_be_an_integer(self, bad):
        # numpy raised a bare TypeError from np.arange for these
        with pytest.raises(DomainError, match="n_modes"):
            build_heat_system(HeatConfig(n_modes=bad))


class TestBuildSystem:
    def test_matrices_first_three_modes(self):
        sys = build_heat_system(HeatConfig(n_modes=3))
        w0 = math.sqrt(1.0 / math.pi)
        w1 = math.sqrt(2.0 / math.pi)
        assert w0 == pytest.approx(0.5641895835477563, rel=1e-15)
        assert w1 == pytest.approx(0.7978845608028654, rel=1e-15)
        assert np.allclose(sys.gen.eigenvalues, [-1.0, -2.0, -5.0])
        assert sys.gen.shift == 1.0
        assert sys.gen.omega == -1.0 and sys.gen.k == 1.0
        assert np.allclose(sys.control,
                           [[-w0, w0], [-w1, -w1], [-w1, w1]])
        assert np.allclose(sys.observation, [[w0, 0.0, -w1]])
        assert np.all(sys.feedthrough == 0.0)
        assert isinstance(sys.tail, HeatTail)
        assert not sys.exact
        assert sys.builtin == "heat"

    def test_single_mode(self):
        sys = build_heat_system(HeatConfig(n_modes=1))
        assert sys.n_modes == 1 and sys.n_inputs == 2 and sys.n_outputs == 1

    def test_control_columns_are_boundary_traces(self):
        # column j matches -/+ the mode values at the endpoint it drives
        sys = build_heat_system(HeatConfig(n_modes=8))
        w = mode_weights(8)
        n = np.arange(8)
        assert np.allclose(sys.control[:, 0], -w * np.cos(0.0 * n))
        assert np.allclose(sys.control[:, 1], w * np.cos(math.pi * n))

    def test_observation_row_is_midpoint_trace(self):
        sys = build_heat_system(HeatConfig(n_modes=8))
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8)
        profile = reconstruct_temperature(x, [math.pi / 2.0])
        assert profile[0] == pytest.approx((sys.observation @ x)[0], abs=1e-12)

    def test_shift_moves_eigenvalues(self):
        sys = build_heat_system(HeatConfig(n_modes=2, lambda0=2.5))
        assert np.allclose(sys.gen.eigenvalues, [-2.5, -3.5])
        assert sys.gen.omega == -2.5


class TestDirichletKernels:
    def test_control_columns_are_the_boundary_lift(self):
        # sum_n e_n(s) [R(lambda - lambda0, A) b_j]_n = q_j(s): the cosine
        # series of the lift, whose dropped modes n >= N weigh at most
        # (2/pi) sum_{n >= N} 1/n^2 <= (2/pi)/(N - 1) on Re(lambda) >= 0
        s_grid = [0.0, 0.3, 1.0, math.pi / 2.0, 2.8, math.pi]
        for n_modes in (256, 1024):
            cfg = HeatConfig(n_modes=n_modes)
            sys = build_heat_system(cfg)
            bound = (2.0 / math.pi) / (n_modes - 1)
            for lam in (1.0, 2.5, 3.0 + 2.0j):
                want = np.array([dirichlet_eval(lam, s) for s in s_grid])
                for j in range(2):
                    x = resolvent_apply(sys.gen, lam - cfg.lambda0, sys.control[:, j])
                    got = reconstruct_temperature(x, s_grid)
                    assert np.max(np.abs(got - want[:, j])) <= bound

    def test_boundary_values_at_unit_lambda(self):
        q0, q1 = dirichlet_eval(1.0, 0.0)
        assert q0 == pytest.approx(-1.0 / math.tanh(math.pi), rel=1e-14)
        assert q1 == pytest.approx(1.0 / math.sinh(math.pi), rel=1e-14)
        q0_pi, q1_pi = dirichlet_eval(1.0, math.pi)
        assert q0_pi == pytest.approx(-1.0 / math.sinh(math.pi), rel=1e-14)
        assert q1_pi == pytest.approx(1.0 / math.tanh(math.pi), rel=1e-14)

    def test_matches_cosh_form(self):
        for lam in (1.0, 4.3, 2.0 + 3.0j, 0.5 - 1.0j):
            z = cmath.sqrt(lam)
            for s in (0.0, 0.7, 1.9, math.pi):
                q0, q1 = dirichlet_eval(lam, s)
                ref0 = -cmath.cosh(z * (math.pi - s)) / (z * cmath.sinh(z * math.pi))
                ref1 = cmath.cosh(z * s) / (z * cmath.sinh(z * math.pi))
                assert q0 == pytest.approx(ref0, rel=1e-12)
                assert q1 == pytest.approx(ref1, rel=1e-12)

    def test_reflection_symmetry(self):
        for s in (0.0, 0.4, 1.1, 2.6):
            q0, _ = dirichlet_eval(3.7, math.pi - s)
            _, q1 = dirichlet_eval(3.7, s)
            assert q1 == pytest.approx(-q0, rel=1e-13)

    def test_derivative_boundary_conditions(self):
        # second-order one-sided differences, step 1e-6
        h = 1e-6

        def deriv_at(lam, s, sign):
            f = [dirichlet_eval(lam, s + sign * i * h) for i in range(3)]
            d = [(-3.0 * f[0][j] + 4.0 * f[1][j] - f[2][j]) / (2.0 * sign * h)
                 for j in range(2)]
            return d

        for lam in (1.0, 5.5):
            d0 = deriv_at(lam, 0.0, +1.0)
            assert d0[0] == pytest.approx(1.0, abs=1e-6)
            assert d0[1] == pytest.approx(0.0, abs=1e-6)
            d_pi = deriv_at(lam, math.pi, -1.0)
            assert d_pi[0] == pytest.approx(0.0, abs=1e-6)
            assert d_pi[1] == pytest.approx(1.0, abs=1e-6)

    def test_large_lambda_does_not_overflow(self):
        q0, q1 = dirichlet_eval(1e6, 1.0)
        assert np.isfinite(q0) and np.isfinite(q1)
        # interior values decay like e^(-z s)/z for large lambda
        assert abs(q0) < 1e-3
        assert abs(q1) == pytest.approx(math.exp(-1000.0 * (math.pi - 1.0)) / 1000.0,
                                        rel=1e-6)

    def test_spectrum_rejected(self):
        for lam in (0.0, -1.0, -4.0, -9.0, -4.0 + 1e-15j):
            with pytest.raises(SpectrumError):
                dirichlet_eval(lam, 1.0)
        q0, _ = dirichlet_eval(-4.5, 1.0)  # between eigenvalues is fine
        assert np.isfinite(q0)

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            dirichlet_eval(1.0, -0.1)
        with pytest.raises(DomainError):
            dirichlet_eval(1.0, math.pi + 0.1)


class TestReconstruction:
    def test_single_modes_are_cosines(self):
        s = np.linspace(0.0, math.pi, 7)
        w = mode_weights(4)
        for n in range(4):
            x = np.zeros(4)
            x[n] = 1.0
            profile = reconstruct_temperature(x, s)
            assert np.allclose(profile, w[n] * np.cos(n * s), atol=1e-12)

    def test_rejects_matrix_input(self):
        with pytest.raises(DomainError):
            reconstruct_temperature(np.ones((2, 2)), [0.0])

    def test_weights(self):
        w = mode_weights(3)
        assert w[0] == pytest.approx(math.sqrt(1.0 / math.pi), rel=1e-15)
        assert np.allclose(w[1:], math.sqrt(2.0 / math.pi))


class TestTruncationStability:
    def test_observation_constant_settles_by_64_modes(self):
        from wellposed.admissibility import control_gram, observation_gram

        small = build_heat_system(HeatConfig(n_modes=64))
        large = build_heat_system(HeatConfig(n_modes=128))
        m_small = observation_gram(small, 1.0)
        m_large = observation_gram(large, 1.0)
        assert abs(m_large - m_small) <= 1e-3 * m_large
        c_small = control_gram(small, 1.0)
        c_large = control_gram(large, 1.0)
        assert abs(c_large - c_small) <= 1e-3 * c_large
