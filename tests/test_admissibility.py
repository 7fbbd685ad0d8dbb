"""Gram-matrix admissibility constants and the global constant formulas."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cross_oracles import dense_gram_constants, dense_grams, factor_gram_constants
from wellposed import admissibility, signals
from wellposed.admissibility import (
    AdmissibilityReport,
    GlobalConstants,
    PairInterval,
    _gauss_rule,
    _kernel_gram,
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
        gram, m_obs = dense_grams(sys, 1.0)[0], observation_gram(sys, 1.0)
        expected = (1.0 - math.exp(-2.0)) / 2.0
        assert gram.shape == (1, 1)
        assert m_obs == pytest.approx(0.43233235838169365, rel=1e-15)
        assert m_obs == pytest.approx(expected, rel=1e-15)

    def test_zero_observation_gives_zero(self):
        sys = scalar_system(c=0.0)
        m_obs = observation_gram(sys, 1.0)
        assert m_obs == 0.0

    def test_matches_quadrature_on_random_system(self):
        rng = np.random.default_rng(7)
        sys = random_system(rng, 3)
        gram, m_obs = dense_grams(sys, 1.0)[0], observation_gram(sys, 1.0)
        # eigen-decomposition gives the maximizer, so the sup is attained
        vals, vecs = np.linalg.eigh(gram)
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
        values = [observation_gram(sys, t0) for t0 in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_heat_trace_bound(self):
        sys = build_heat_system(HeatConfig(n_modes=32))
        m_obs = observation_gram(sys, 1.0)
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
        # with R one row of ones, R^H R is all ones and the Gram is K itself
        kernel = _kernel_gram(np.ones((1, alpha.size)), alpha, t0)
        assert np.max(np.abs(kernel - ref) / np.abs(ref)) < 1e-13

    def test_rejects_bad_window(self):
        sys = scalar_system()
        with pytest.raises(DomainError):
            observation_gram(sys, 0.0)


class TestControlGram:
    def test_single_mode_closed_form(self):
        sys = scalar_system()
        m_ctl = control_gram(sys, 1.0)
        assert m_ctl == pytest.approx(math.sqrt((1.0 - math.exp(-2.0)) / 2.0), rel=1e-15)
        assert m_ctl == pytest.approx(0.65751985, abs=5e-8)

    def test_zero_control_gives_zero(self):
        sys = scalar_system(b=0.0)
        m_ctl = control_gram(sys, 1.0)
        assert m_ctl == 0.0

    def test_two_mode_gram_matches_quadrature(self):
        b = np.array([[math.sqrt(1.0 / math.pi)], [-math.sqrt(2.0 / math.pi)]])
        gen = DiagonalGenerator(np.array([-1.0, -2.0], dtype=complex), omega=-1.0)
        sys = SpectralSystem(gen, b.astype(complex),
                             np.zeros((1, 2), dtype=complex),
                             np.zeros((1, 1), dtype=complex))
        gram, m_ctl = dense_grams(sys, 1.0)[1], control_gram(sys, 1.0)
        dt = 1e-4
        r = np.arange(0.0, 1.0 + dt / 2, dt)
        ker = np.exp(np.outer(sys.gen.eigenvalues, 1.0 - r)) * b  # (2, len(r))
        ref = np.trapezoid(ker[:, None, :] * ker[None, :, :].conj(), dx=dt, axis=2)
        assert np.allclose(gram, ref, rtol=1e-6, atol=1e-10)
        assert m_ctl == pytest.approx(math.sqrt(np.linalg.eigvalsh(ref)[-1]), rel=1e-6)

    def test_reachable_state_bounded_by_constant(self):
        rng = np.random.default_rng(23)
        sys = random_system(rng, 3)
        m_ctl = control_gram(sys, 1.0)
        for _ in range(20):
            u = Signal(0.0, 0.05, rng.standard_normal((21, 2)))
            reached = control_to_state(sys, 1.0, u)
            assert np.linalg.norm(reached) <= m_ctl * lp_norm(u, 2.0) * (1 + 1e-9)

    def test_monotone_in_window(self):
        rng = np.random.default_rng(31)
        sys = random_system(rng, 4)
        values = [control_gram(sys, t0) for t0 in (0.1, 0.5, 1.0, 2.0, 10.0)]
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
        m_obs = observation_gram(sys, 1.0)
        m_ctl = control_gram(sys, 1.0)
        consts = global_constants(m_obs, m_ctl, 1.0, k=sys.gen.k, omega=sys.gen.omega)
        for t in (2.0, 10.0):
            n = int(round(t / 0.05))
            u = Signal(0.0, 0.05, rng.standard_normal((n + 1, 2)))
            reached = control_to_state(sys, t, u)
            assert np.linalg.norm(reached) <= consts.m_b * lp_norm(u, 2.0) * (1 + 1e-9)


@pytest.mark.parametrize("t0", [math.inf, -math.inf, math.nan])
def test_windows_must_be_finite(t0):
    # an infinite window gave a Gram constant after numpy's "invalid value"
    # warning; every entry point now raises first, with no warning
    sys = build_heat_system(HeatConfig(n_modes=16))
    calls = (lambda: observation_gram(sys, t0), lambda: control_gram(sys, t0),
             lambda: global_constants(1.0, 1.0, 1.0, k=1.0, omega=-1.0, t0=t0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match="t0 must be finite and > 0"):
                call()


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


def spread_system(rng, n_modes, im, channels=3):
    # the constants-mimo benchmark's recipe: Re alpha in [-0.5 - N/4, -0.5],
    # Im alpha uniform in [-im, im], channels scaled by 1/sqrt(N)
    re = -rng.uniform(0.5, 0.5 + n_modes / 4, n_modes)
    re[0] = -0.5
    alpha = re + 1j * rng.uniform(-im, im, n_modes)
    b = rng.standard_normal((n_modes, channels)) / math.sqrt(n_modes)
    c = rng.standard_normal((channels, n_modes)) / math.sqrt(n_modes)
    return SpectralSystem(DiagonalGenerator(alpha, k=1.0, omega=-0.5), b.astype(complex),
                          c.astype(complex), np.zeros((channels, channels), dtype=complex))


def near_axis_system():
    rng = np.random.default_rng(103)
    alpha = -rng.uniform(0.5, 1.0, 1024) + 1j * rng.uniform(-50.0, 50.0, 1024)
    b = rng.standard_normal((1024, 3)) + 1j * rng.standard_normal((1024, 3))
    c = rng.standard_normal((3, 1024)) + 1j * rng.standard_normal((3, 1024))
    return SpectralSystem(DiagonalGenerator(alpha, k=1.0, omega=float(alpha.real.max())),
                          b, c, np.zeros((3, 3), dtype=complex))


def wide_system():
    # Re alpha from -1e-3 to -300, so the slowest pair sums cancel to 2e-3
    rng = np.random.default_rng(107)
    alpha = -np.geomspace(1e-3, 300.0, 512) + 1j * rng.standard_normal(512)
    b = rng.standard_normal((512, 2)) + 1j * rng.standard_normal((512, 2))
    c = rng.standard_normal((2, 512)) + 1j * rng.standard_normal((2, 512))
    return SpectralSystem(DiagonalGenerator(alpha, k=1.0, omega=-1e-3),
                          b, c, np.zeros((2, 2), dtype=complex))


SYSTEMS = {
    "heat512": lambda: build_heat_system(HeatConfig(n_modes=512)),
    "heat1024": lambda: build_heat_system(HeatConfig(n_modes=1024)),
    "heat4096": lambda: build_heat_system(HeatConfig(n_modes=4096)),
    "near-axis": near_axis_system,
    "wide": wide_system,
    "heat64": lambda: build_heat_system(HeatConfig(n_modes=64)),
    "constants-mimo": lambda: spread_system(np.random.default_rng([0, 2]), 2048, 50.0),
    "oscillatory64": lambda: spread_system(np.random.default_rng(109), 64, 500.0),
    "random300": lambda: random_system(np.random.default_rng(61), 300, 3, 3),
}


class TestTopEigenvalue:
    """One dense eigensolve per Gram, on the Gauss-rule factor or on the
    kernel-side Gram, against the dense oracle and against each other."""

    @pytest.mark.parametrize("n_modes", [128, 256, 1024])
    def test_heat_grams(self, n_modes):
        sys = build_heat_system(HeatConfig(n_modes=n_modes))
        m_obs, m_ctl = dense_gram_constants(sys, 1.0)
        assert observation_gram(sys, 1.0) == pytest.approx(m_obs, rel=1e-13)
        assert control_gram(sys, 1.0) == pytest.approx(m_ctl, rel=1e-13)

    def test_random_complex_system(self):
        sys = random_system(np.random.default_rng(61), 300, n_inputs=3, n_outputs=3)
        m_obs, m_ctl = dense_gram_constants(sys, 1.0)
        assert observation_gram(sys, 1.0) == pytest.approx(m_obs, rel=1e-13)
        assert control_gram(sys, 1.0) == pytest.approx(m_ctl, rel=1e-13)

    def test_zero_maps_give_exact_zero(self):
        sys = random_system(np.random.default_rng(67), 300, n_inputs=3, n_outputs=3)
        no_c = SpectralSystem(sys.gen, sys.control, np.zeros_like(sys.observation),
                              sys.feedthrough)
        no_b = SpectralSystem(sys.gen, np.zeros_like(sys.control), sys.observation,
                              sys.feedthrough)
        assert observation_gram(no_c, 1.0) == 0.0
        assert control_gram(no_b, 1.0) == 0.0

    def test_report_matches_dense_constants(self):
        sys = random_system(np.random.default_rng(79), 300, n_inputs=3, n_outputs=3)
        report = admissibility_report(sys, 1.0, m13_sup_scan(sys, 50.0, 101))
        m_obs, m_ctl = dense_gram_constants(sys, 1.0)
        assert report.m_obs == pytest.approx(m_obs, rel=1e-13)
        assert report.m_ctl == pytest.approx(m_ctl, rel=1e-13)
        assert report.m_obs == observation_gram(sys, 1.0)
        assert report.m_ctl == control_gram(sys, 1.0)

    @pytest.mark.parametrize("name, t0", [
        ("heat512", 1.0), ("heat512", 7.0), ("heat1024", 1.0), ("heat1024", 7.0),
        ("near-axis", 1.0), ("wide", 1.0), ("heat512", 0.01),
    ])
    def test_factor_side_matches_kernel_side(self, monkeypatch, name, t0):
        sys = SYSTEMS[name]()
        alpha = sys.gen.eigenvalues
        assert _gauss_rule(alpha, t0, sys.n_outputs) is not None
        values = observation_gram(sys, t0), control_gram(sys, t0)
        monkeypatch.setattr(admissibility, "_gauss_rule", lambda *args: None)
        m_obs, m_ctl = observation_gram(sys, t0), control_gram(sys, t0)
        assert values[0] == pytest.approx(m_obs, rel=1e-13)
        assert values[1] == pytest.approx(m_ctl, rel=1e-13)

    @pytest.mark.parametrize("name, sides", [
        ("heat64", ["kernel", "kernel"]),
        ("constants-mimo", ["factor", "factor"]),
        ("oscillatory64", ["kernel", "kernel"]),
    ])
    def test_side_taken(self, monkeypatch, name, sides):
        rule, taken = _gauss_rule, []

        def spy(*args):
            nodes = rule(*args)
            taken.append("kernel" if nodes is None else "factor")
            return nodes

        monkeypatch.setattr(admissibility, "_gauss_rule", spy)
        sys = SYSTEMS[name]()
        observation_gram(sys, 1.0)
        control_gram(sys, 1.0)
        assert taken == sides

    def test_gauss_rule_gives_up(self):
        # unbounded, these would need 1.25e11 and about 1000 panels
        assert _gauss_rule(np.full(4096, -1.0 + 1e12j), 1.0, 1) is None
        assert _gauss_rule(np.full(4096, -1.0 + 0j), 1e300, 1) is None
        # alpha = -1 on [0, 1] takes the panels [0, 1/2] and [1/2, 1]: 32
        # nodes, so rows r need N > 32 r
        for rows in (1, 3):
            nodes, weights = _gauss_rule(np.full(32 * rows + 1, -1.0 + 0j), 1.0, rows)
            assert nodes.size == 32 and np.all((nodes > 0) & (nodes < 1))
            assert math.fsum(weights) == pytest.approx(1.0, rel=1e-15)
            assert _gauss_rule(np.full(32 * rows, -1.0 + 0j), 1.0, rows) is None


def report_peak(sys):
    scan = m13_sup_scan(sys, 50.0, 101)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        admissibility_report(sys, 1.0, scan)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def factor_heights(sys, t0=1.0):
    """Q r, the rows of each Gram's Gauss-rule factor: observation, control."""
    alpha = sys.gen.eigenvalues
    return [_gauss_rule(alpha, t0, r)[0].size * r for r in (sys.n_outputs, sys.n_inputs)]


class TestKernelSymmetry:
    """The kernel-side Gram keeps its bits under any row blocks, the factor
    side its top eigenvalue under any mode blocks, and the Gram stage's
    memory stays near a few (Q r)^2 matrices on the factor side and near one
    N x N array on the kernel side."""

    def test_kernel_independent_of_block_budget(self, monkeypatch):
        # blocks of 2 and 3 rows, the default, and the whole Gram in one
        # block: every entry is formed elementwise, so it keeps its bits
        sys = random_system(np.random.default_rng(101), 300, n_outputs=3)
        alpha, rows = sys.gen.eigenvalues, sys.observation
        n = alpha.shape[0]
        grams = []
        for budget in (2 * n, 3 * n, signals._BLOCK_ELEMENTS, n * n):
            monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", budget)
            grams.append(_kernel_gram(rows, alpha, 1.0))
        for gram in grams:
            assert np.array_equal(gram.view(np.uint64), grams[0].view(np.uint64))

    @pytest.mark.parametrize("name", ["wide", "random300"])
    def test_factor_independent_of_block_budget(self, monkeypatch, name):
        # blocks of 2 and 3 modes, the default, and every mode in one block,
        # against F F^H with F formed whole: only the order of the sums over
        # modes changes, and one block and one panel is the one-shot product
        sys = SYSTEMS[name]()
        n = sys.n_modes
        default = signals._BLOCK_ELEMENTS
        grams = (observation_gram, control_gram)
        for gram, height, expected in zip(grams, factor_heights(sys),
                                          factor_gram_constants(sys, 1.0)):
            for budget in (2 * height, 3 * height, default, height * n):
                monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", budget)
                value = gram(sys, 1.0)
                assert value == pytest.approx(expected, rel=1e-14)
            assert value == expected

    @pytest.mark.parametrize("name", ["constants-mimo", "heat4096"])
    def test_factor_side_holds_no_factor(self, name):
        # the (Q r)^2 matrix and a few block-sized arrays; a whole (Q r x N)
        # factor, its conjugate, the Q x N exponentials and F F^H peaked at
        # about 8 (Q r)^2 on constants-mimo
        sys = SYSTEMS[name]()
        height = max(factor_heights(sys))
        assert height < sys.n_modes
        assert report_peak(sys) < 3 * height**2 * 16 + 4 * signals._BLOCK_ELEMENTS * 16

    def test_report_memory_bounded(self):
        # both Grams take the factor side, Q = 64 here: the (Q r)^2 matrix
        # and one block of modes. tracemalloc does not see the buffers
        # LAPACK allocates, such as eigvalsh's work copy.
        n = 1024
        sys = random_system(np.random.default_rng(83), n, n_inputs=3, n_outputs=3)
        assert _gauss_rule(sys.gen.eigenvalues, 1.0, 3) is not None
        assert report_peak(sys) < 0.75 * n * n * 16

    def test_report_memory_bounded_on_kernel_side(self):
        # Im alpha in +-500 needs too many nodes, so both Grams take the
        # kernel side: one N x N Gram plus its row-block temporaries. The
        # kernel and a Gram held side by side peaked at about 2.1 N^2.
        n = 1024
        sys = spread_system(np.random.default_rng(113), n, 500.0)
        assert _gauss_rule(sys.gen.eigenvalues, 1.0, 3) is None
        assert report_peak(sys) < 1.5 * n * n * 16
