"""Gram-matrix admissibility constants and the global constant formulas."""

import math
import tracemalloc

import numpy as np
import pytest

from cross_oracles import dense_gram_constants
from wellposed import signals
from wellposed.admissibility import (
    _DENSE_EIG_ORDER,
    AdmissibilityReport,
    GlobalConstants,
    PairInterval,
    _gram_kernel,
    _top_eigenvalue,
    admissibility_report,
    control_gram,
    global_constants,
    observation_gram,
    pair_constant,
)
from wellposed.errors import DomainError, PreconditionError, StabilityError
from wellposed.heat import HeatConfig, build_heat_system
from wellposed.laxphillips import control_to_state, input_output_map
from wellposed.signals import Signal, lp_norm
from wellposed.spectral import DiagonalGenerator
from wellposed.system import SpectralSystem, m13_sup_scan


def scalar_system(alpha=-1.0, b=1.0, c=1.0, d=0.0):
    gen = DiagonalGenerator(np.array([alpha], dtype=complex), k=1.0,
                            omega=float(np.real(alpha)))
    return SpectralSystem(gen,
                          np.array([[b]], dtype=complex),
                          np.array([[c]], dtype=complex),
                          np.array([[d]], dtype=complex))


def random_system(rng, n_modes, n_inputs=2, n_outputs=2):
    re = -0.3 - 2.0 * rng.random(n_modes)
    im = rng.standard_normal(n_modes)
    gen = DiagonalGenerator(re + 1j * im, k=1.0, omega=float(re.max()))
    b = rng.standard_normal((n_modes, n_inputs)) + 1j * rng.standard_normal((n_modes, n_inputs))
    c = rng.standard_normal((n_outputs, n_modes)) + 1j * rng.standard_normal((n_outputs, n_modes))
    return SpectralSystem(gen, b, c, np.zeros((n_outputs, n_inputs), dtype=complex))


def quadrature_observation_energy(sys, t0, x, dt=1e-4):
    # trapezoid of ||C e^(As) x||^2 over [0, t0]
    s = np.arange(0.0, t0 + dt / 2, dt)
    modes = np.exp(np.outer(s, sys.gen.eigenvalues)) * x
    vals = np.sum(np.abs(modes @ sys.observation.T) ** 2, axis=1)
    return float(np.trapezoid(vals, dx=dt))


class TestObservationGram:
    def test_single_mode_closed_form(self):
        sys = scalar_system()
        gram, m_obs = observation_gram(sys, 1.0)
        expected = (1.0 - math.exp(-2.0)) / 2.0
        assert gram.shape == (1, 1)
        assert m_obs == pytest.approx(0.43233235838169365, rel=1e-15)
        assert m_obs == pytest.approx(expected, rel=1e-15)

    def test_zero_observation_gives_zero(self):
        sys = scalar_system(c=0.0)
        _, m_obs = observation_gram(sys, 1.0)
        assert m_obs == 0.0

    def test_matches_quadrature_on_random_system(self):
        rng = np.random.default_rng(7)
        sys = random_system(rng, 3)
        gram, m_obs = observation_gram(sys, 1.0)
        # eigen-decomposition gives the maximizer, so the sup is attained
        vals, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
        top = vecs[:, -1]
        attained = quadrature_observation_energy(sys, 1.0, top)
        assert attained == pytest.approx(m_obs, rel=1e-6)
        for _ in range(200):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            x = x / np.linalg.norm(x)
            assert quadrature_observation_energy(sys, 1.0, x) <= m_obs * (1 + 1e-6)

    def test_monotone_in_window(self):
        rng = np.random.default_rng(11)
        sys = random_system(rng, 4)
        values = [observation_gram(sys, t0)[1] for t0 in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_heat_trace_bound(self):
        sys = build_heat_system(HeatConfig(n_modes=32))
        _, m_obs = observation_gram(sys, 1.0)
        n = np.arange(32)
        trace_bound = float(np.sum(1.0 / (np.pi * (1.0 + n**2))))
        assert 0.0 < m_obs <= trace_bound

    @pytest.mark.parametrize("t0", [0.5, 1.0, 3.0])
    def test_kernel_matches_expm1_closed_form(self, t0):
        # pair sums from |w t0| ~ 1e-8 to far past the cancelling range
        rng = np.random.default_rng(83)
        re = -(10.0 ** rng.uniform(-8.0, 1.0, 60))
        im = np.where(rng.random(60) < 0.5, 0.0, rng.uniform(-1.0, 1.0, 60))
        alpha = re + 1j * im
        # a pair whose w t0 is large but whose e^(w t0) - 1 cancels
        alpha = np.append(alpha, [-1e-6, -1e-6 + 2j * np.pi])
        w = np.conj(alpha)[:, None] + alpha[None, :]
        ref = np.expm1(w * t0) / w
        kernel = _gram_kernel(alpha, t0)
        assert np.max(np.abs(kernel - ref) / np.abs(ref)) < 1e-13

    def test_rejects_bad_window(self):
        sys = scalar_system()
        with pytest.raises(DomainError):
            observation_gram(sys, 0.0)


class TestControlGram:
    def test_single_mode_closed_form(self):
        sys = scalar_system()
        _, m_ctl = control_gram(sys, 1.0)
        assert m_ctl == pytest.approx(math.sqrt((1.0 - math.exp(-2.0)) / 2.0), rel=1e-15)
        assert m_ctl == pytest.approx(0.65751985, abs=5e-8)

    def test_zero_control_gives_zero(self):
        sys = scalar_system(b=0.0)
        _, m_ctl = control_gram(sys, 1.0)
        assert m_ctl == 0.0

    def test_two_mode_gram_matches_quadrature(self):
        b = np.array([[math.sqrt(1.0 / math.pi)], [-math.sqrt(2.0 / math.pi)]])
        gen = DiagonalGenerator(np.array([-1.0, -2.0], dtype=complex), omega=-1.0)
        sys = SpectralSystem(gen, b.astype(complex),
                             np.zeros((1, 2), dtype=complex),
                             np.zeros((1, 1), dtype=complex))
        gram, m_ctl = control_gram(sys, 1.0)
        dt = 1e-4
        r = np.arange(0.0, 1.0 + dt / 2, dt)
        ker = np.exp(np.outer(sys.gen.eigenvalues, 1.0 - r)) * b  # (2, len(r))
        ref = np.trapezoid(ker[:, None, :] * ker[None, :, :].conj(), dx=dt, axis=2)
        assert np.allclose(gram, ref, rtol=1e-6, atol=1e-10)
        assert m_ctl == pytest.approx(math.sqrt(np.linalg.eigvalsh(ref)[-1]), rel=1e-6)

    def test_reachable_state_bounded_by_constant(self):
        rng = np.random.default_rng(23)
        sys = random_system(rng, 3)
        _, m_ctl = control_gram(sys, 1.0)
        for _ in range(20):
            u = Signal(0.0, 0.05, rng.standard_normal((21, 2)))
            reached = control_to_state(sys, 1.0, u)
            assert np.linalg.norm(reached) <= m_ctl * lp_norm(u, 2.0) * (1 + 1e-9)

    def test_monotone_in_window(self):
        rng = np.random.default_rng(31)
        sys = random_system(rng, 4)
        values = [control_gram(sys, t0)[1] for t0 in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))


class TestPairConstant:
    def test_wraps_scan_interval(self):
        sys = scalar_system()
        scan = m13_sup_scan(sys, 50.0, 501)
        pair = pair_constant(scan)
        assert isinstance(pair, PairInterval)
        assert pair.lower == scan.grid_sup
        assert pair.upper == scan.upper_bound
        assert pair.lower <= pair.upper

    def test_requires_scan(self):
        with pytest.raises(PreconditionError):
            pair_constant(None)


class TestGlobalConstants:
    def test_single_mode_values(self):
        m_obs = (1.0 - math.exp(-2.0)) / 2.0
        m_ctl = math.sqrt(m_obs)
        consts = global_constants(m_obs, m_ctl, 1.0, k=1.0, omega=-1.0)
        # the geometric correction for these numbers is exactly one half
        assert consts.m_c == pytest.approx(m_obs + 0.5, rel=1e-14)
        assert consts.m_c == pytest.approx(0.9323323583816936, rel=1e-14)
        expected_b = m_ctl * (1.0 + 1.0 / (1.0 - math.exp(-1.0)))
        assert consts.m_b == pytest.approx(expected_b, rel=1e-14)
        assert consts.m_b == pytest.approx(1.69770, abs=1e-4)
        expected_bc = 1.0 + math.sqrt(consts.m_c) * consts.m_b / (1.0 - math.exp(-1.0))
        assert consts.m_bc == pytest.approx(expected_bc, rel=1e-14)

    def test_zero_local_constants_collapse(self):
        consts = global_constants(0.0, 0.0, 2.5, k=1.0, omega=-1.0)
        assert consts.m_c == 0.0
        assert consts.m_b == 0.0
        assert consts.m_bc == 2.5

    def test_rejects_nonnegative_growth_rate(self):
        with pytest.raises(StabilityError):
            global_constants(1.0, 1.0, 1.0, k=1.0, omega=0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            global_constants(1.0, 1.0, 1.0, k=0.5, omega=-1.0)
        with pytest.raises(DomainError):
            global_constants(1.0, 1.0, 1.0, k=1.0, omega=-1.0, p=0.5)
        with pytest.raises(DomainError):
            global_constants(-1.0, 1.0, 1.0, k=1.0, omega=-1.0)

    def test_uniform_in_time_single_mode(self):
        # int_0^t |e^(-s)|^2 ds = (1 - e^(-2t))/2 stays below M_C for all t
        m_obs = (1.0 - math.exp(-2.0)) / 2.0
        consts = global_constants(m_obs, math.sqrt(m_obs), 1.0, k=1.0, omega=-1.0)
        for t in (2.0, 10.0, 100.0):
            assert (1.0 - math.exp(-2.0 * t)) / 2.0 <= consts.m_c

    def test_long_horizon_reachable_state_bounded(self):
        rng = np.random.default_rng(41)
        sys = random_system(rng, 3)
        _, m_obs = observation_gram(sys, 1.0)
        _, m_ctl = control_gram(sys, 1.0)
        consts = global_constants(m_obs, m_ctl, 1.0, k=sys.gen.k, omega=sys.gen.omega)
        for t in (2.0, 10.0):
            n = int(round(t / 0.05))
            u = Signal(0.0, 0.05, rng.standard_normal((n + 1, 2)))
            reached = control_to_state(sys, t, u)
            assert np.linalg.norm(reached) <= consts.m_b * lp_norm(u, 2.0) * (1 + 1e-9)


class TestReport:
    def test_report_assembly(self):
        sys = scalar_system()
        scan = m13_sup_scan(sys, 50.0, 501)
        report = admissibility_report(sys, 1.0, scan)
        assert isinstance(report, AdmissibilityReport)
        assert report.t0 == 1.0 and report.p == 2.0
        assert report.m_obs == pytest.approx(0.43233235838169365, rel=1e-15)
        assert report.m_pair.upper == scan.upper_bound
        ref = global_constants(report.m_obs, report.m_ctl, report.m_pair.upper,
                               k=1.0, omega=-1.0)
        assert report.constants == ref

    def test_report_needs_scan(self):
        with pytest.raises(PreconditionError):
            admissibility_report(scalar_system(), 1.0, None)

    def test_output_energy_bounded_by_pair_constant(self):
        sys = build_heat_system(HeatConfig(n_modes=16))
        scan = m13_sup_scan(sys, 200.0, 2001)
        pair = pair_constant(scan)
        rng = np.random.default_rng(53)
        t, dt = 3.0, 1e-2
        n = int(round(t / dt))
        # smooth band-limited input keeps the discretization error tiny
        r = dt * np.arange(n + 1)
        u = Signal(0.0, dt, np.stack([np.sin(2.0 * r) * np.exp(-r),
                                      np.cos(3.0 * r) * (r / t) * (1 - r / t)], axis=1))
        y = input_output_map(sys, t, u)
        assert lp_norm(y, 2.0) <= pair.upper * lp_norm(u, 2.0) * (1 + 1e-6) + 1e-9


class TestTopEigenvalue:
    """The Lanczos path with its Cholesky guard against the dense eigensolver."""

    @pytest.fixture
    def lanczos_only(self, monkeypatch):
        # the dense eigensolver stays reachable here, but not from the helper,
        # so a guard that rejected a good Lanczos value shows as a failure
        dense = np.linalg.eigvalsh

        def refuse(gram):
            raise AssertionError(f"dense fallback taken at order {gram.shape[0]}")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        return dense

    @pytest.mark.parametrize("n_modes", [128, 256, 1024])
    def test_heat_grams(self, n_modes, lanczos_only):
        assert n_modes > _DENSE_EIG_ORDER
        sys = build_heat_system(HeatConfig(n_modes=n_modes))
        gram, m_obs = observation_gram(sys, 1.0)
        assert m_obs == pytest.approx(float(lanczos_only(gram)[-1]), rel=1e-13)
        assert m_obs == _top_eigenvalue(gram)
        gram, m_ctl = control_gram(sys, 1.0)
        assert m_ctl**2 == pytest.approx(float(lanczos_only(gram)[-1]), rel=1e-13)
        assert m_ctl == math.sqrt(_top_eigenvalue(gram))

    def test_random_complex_system(self, lanczos_only):
        sys = random_system(np.random.default_rng(61), 300, n_inputs=3, n_outputs=3)
        for gram, _ in (observation_gram(sys, 1.0), control_gram(sys, 1.0)):
            top = _top_eigenvalue(gram)
            assert top == pytest.approx(float(lanczos_only(gram)[-1]), rel=1e-13)

    def test_zero_maps_give_exact_zero(self):
        sys = random_system(np.random.default_rng(67), 300, n_inputs=3, n_outputs=3)
        no_c = SpectralSystem(sys.gen, sys.control, np.zeros_like(sys.observation),
                              sys.feedthrough)
        no_b = SpectralSystem(sys.gen, np.zeros_like(sys.control), sys.observation,
                              sys.feedthrough)
        assert observation_gram(no_c, 1.0)[1] == 0.0
        assert control_gram(no_b, 1.0)[1] == 0.0

    def test_guard_rejects_a_lower_ritz_value(self, monkeypatch):
        import scipy.sparse.linalg

        sys = random_system(np.random.default_rng(71), 300)
        gram = (sys.observation.conj().T @ sys.observation
                * _gram_kernel(sys.gen.eigenvalues, 1.0))
        spectrum = np.linalg.eigvalsh(gram)
        assert spectrum[-2] < spectrum[-1] * (1 - 1e-6)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda *args, **kwargs: spectrum[-2:-1].copy())
        untouched = gram.copy()
        # the fallback reads the Gram the rejected guard factored in place
        assert _top_eigenvalue(gram) == float(spectrum[-1])
        assert np.array_equal(gram, untouched)

    def test_accepting_guard_leaves_the_gram_as_it_came(self, lanczos_only):
        # both Grams formed as the public functions form them, but without
        # passing through the guard first
        sys = random_system(np.random.default_rng(89), 300, n_inputs=3, n_outputs=3)
        kernel = _gram_kernel(sys.gen.eigenvalues, 1.0)
        for gram in (sys.observation.conj().T @ sys.observation * kernel,
                     sys.control @ sys.control.conj().T * kernel.conj()):
            untouched = gram.copy()
            _top_eigenvalue(gram)
            assert np.array_equal(gram, untouched)

    def test_unconverged_lanczos_falls_back(self, monkeypatch):
        import scipy.sparse.linalg

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        sys = random_system(np.random.default_rng(73), 300)
        gram, _ = observation_gram(sys, 1.0)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        assert _top_eigenvalue(gram) == float(np.linalg.eigvalsh(gram)[-1])

    def test_report_matches_dense_constants(self):
        sys = random_system(np.random.default_rng(79), 300, n_inputs=3, n_outputs=3)
        report = admissibility_report(sys, 1.0, m13_sup_scan(sys, 50.0, 101))
        m_obs, m_ctl = dense_gram_constants(sys, 1.0)
        assert report.m_obs == pytest.approx(m_obs, rel=1e-13)
        assert report.m_ctl == pytest.approx(m_ctl, rel=1e-13)
        # the shared kernel gives the same Grams as the public functions
        assert report.m_obs == observation_gram(sys, 1.0)[1]
        assert report.m_ctl == control_gram(sys, 1.0)[1]


class TestKernelSymmetry:
    """The kernel is exactly Hermitian as built, and every Gram inherits that."""

    def test_complex_spectrum_grams_exactly_hermitian(self):
        sys = random_system(np.random.default_rng(97), 300, n_inputs=3, n_outputs=3)
        kernel = _gram_kernel(sys.gen.eigenvalues, 1.0)
        assert np.array_equal(kernel, kernel.conj().T)
        for gram, _ in (observation_gram(sys, 1.0), control_gram(sys, 1.0)):
            assert np.array_equal(gram, gram.conj().T)

    def test_kernel_independent_of_block_budget(self, monkeypatch):
        # blocks of 2 and 3 rows, the default, and the whole kernel in one
        # block: every entry is formed elementwise, so it keeps its bits
        alpha = random_system(np.random.default_rng(101), 300).gen.eigenvalues
        n = alpha.shape[0]
        kernels = []
        for budget in (2 * n, 3 * n, signals._BLOCK_ELEMENTS, n * n):
            monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", budget)
            kernels.append(_gram_kernel(alpha, 1.0))
        for kernel in kernels:
            assert np.array_equal(kernel.view(np.uint64), kernels[0].view(np.uint64))
            assert np.array_equal(kernel, kernel.conj().T)

    def test_report_memory_bounded(self, monkeypatch):
        # the kernel and one Gram, formed in place on its outer product and
        # checked by the Cholesky guard in its own lower triangle, plus row
        # blocks of temporaries, make about 2.4 N^2 complex values here. A
        # kernel built whole next to its pair sums, and a guard on a shifted
        # copy, peaked at about 3.3. tracemalloc does not see the buffers
        # LAPACK allocates, such as eigvalsh's copy of the Gram, so the bound
        # covers the guard path only: taking the dense fallback fails the test.
        def refuse(gram):
            raise AssertionError(f"dense fallback taken at order {gram.shape[0]}")

        n = 1024
        sys = random_system(np.random.default_rng(83), n, n_inputs=3, n_outputs=3)
        scan = m13_sup_scan(sys, 50.0, 101)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            admissibility_report(sys, 1.0, scan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * n * n * 16
