"""End-to-end acceptance checks for the certification pipeline.

One test per headline guarantee: the boundary-heated rod certifies well
posed within budget and time, the multiplier scan is grid stable, the two
state-map quadratures cross-validate, resolvent identities hold within
their declared budgets, the step composition law converges at second
order, the Gram constants survive a brute-force energy search, and the
certificate is invariant under the spectral shift.
"""

import json
import math
import time

import numpy as np

from cross_oracles import control_to_state_ibp, dense_grams, input_output_map_intxp
from wellposed.admissibility import (
    admissibility_report,
    control_gram,
    observation_gram,
)
from wellposed.certificate import certify_system
from wellposed.cli import main
from wellposed.heat import HeatConfig, build_heat_system
from wellposed.laxphillips import (
    ExtendedState,
    control_to_state,
    input_output_map,
    semigroup_law_residual,
)
from wellposed.signals import Signal
from wellposed.spectral import DiagonalGenerator
from wellposed.system import SpectralSystem, m13_sup_scan


def _scalar_system():
    gen = DiagonalGenerator(np.array([-1.0 + 0.0j]), k=1.0, omega=-1.0)
    return SpectralSystem(gen,
                          np.array([[1.0 + 0.0j]]),
                          np.array([[1.0 + 0.0j]]),
                          np.array([[0.0 + 0.0j]]))


def _poly_input(n_inputs, dt):
    # u_j(r) = (-1)^j r^2 (1-r)^2 on [0, 1]: smooth, vanishing with its
    # derivative at both ends
    n = round(1.0 / dt) + 1
    r = dt * np.arange(n)
    base = r * r * (1.0 - r) ** 2
    cols = [base * ((-1.0) ** j) for j in range(n_inputs)]
    return Signal(0.0, dt, np.stack(cols, axis=1))


def test_heat_certification_end_to_end(tmp_path):
    start = time.perf_counter()
    code = main(["certify", "--builtin", "heat", "--modes", "64",
                 "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10.0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "WELL_POSED"

    up = cert["multiplier"]["upperBound"]
    tail = cert["multiplier"]["tailBound"]
    # independent summation oracle for the mode series sum 1/(1+n^2)
    s63 = math.fsum(1.0 / (1.0 + n * n) for n in range(64))
    s_full = 0.5 * (1.0 + math.pi / math.tanh(math.pi))
    factor = 4.0 * math.sqrt(2.0) / math.pi
    assert up <= factor * s63 + tail
    assert up <= 3.7394
    assert factor * s_full <= 3.7394


def test_multiplier_scan_grid_stable():
    sys = build_heat_system(HeatConfig(n_modes=64))
    coarse = m13_sup_scan(sys, 100.0, 4001)
    fine = m13_sup_scan(sys, 100.0, 8001)
    assert coarse.grid_sup <= coarse.upper_bound
    assert fine.grid_sup <= fine.upper_bound
    assert abs(fine.grid_sup - coarse.grid_sup) < 1e-3


def test_state_map_quadratures_agree():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        re = -0.3 - 4.7 * rng.random(n)
        alpha = re + 1j * 3.0 * rng.standard_normal(n)
        gen = DiagonalGenerator(alpha, k=1.0, omega=float(re.max()))
        b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        sys = SpectralSystem(gen, b, np.ones((1, n), dtype=complex),
                             np.zeros((1, m), dtype=complex))
        k = int(rng.integers(2, 40))
        dt = float(0.05 + 0.25 * rng.random())
        u = Signal(0.0, dt,
                   rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)))
        t = float(0.5 + 2.5 * rng.random())
        x_direct = control_to_state(sys, t, u)
        x_parts = control_to_state_ibp(sys, t, u)
        scale = max(np.linalg.norm(x_direct), np.linalg.norm(x_parts), 1e-30)
        worst = max(worst, float(np.linalg.norm(x_direct - x_parts)) / scale)
    assert worst <= 1e-8


def test_io_map_paths_converge_second_order():
    sys = build_heat_system(HeatConfig(n_modes=8))
    t_end = 1.5
    diffs = []
    for dt in (2e-2, 1e-2, 5e-3):
        steps = round(t_end / dt)
        r = dt * np.arange(steps + 1)
        prof = (r ** 2) * (t_end - r) ** 2 * np.sin(3.0 * r)
        u = Signal(0.0, dt, np.stack([prof, -0.5 * prof], axis=1))
        ya = input_output_map(sys, t_end, u, dt=dt)
        yb = input_output_map_intxp(sys, t_end, u, dt=dt)
        diffs.append(float(np.max(np.abs(np.asarray(ya.samples) - yb.samples))))
    for bigger, smaller in zip(diffs, diffs[1:]):
        assert 3.3 <= bigger / smaller <= 4.7


def test_resolvent_identities_within_budget():
    from wellposed.laplace import verify_resolvent_entries

    systems = [_scalar_system(), build_heat_system(HeatConfig(n_modes=16))]
    for sys in systems:
        x = (1.0 / (1.0 + np.arange(sys.n_modes))).astype(complex)
        x /= np.linalg.norm(x)
        u = _poly_input(sys.n_inputs, 1e-3)
        for lam in (1.0 + 0.0j, 2.0 + 0.0j, 1.0 + 1.0j):
            report = verify_resolvent_entries(sys, lam, x, u, 40.0, 1e-3)
            assert report.passed
            for entry in report.entries:
                assert entry.residual <= entry.quad_budget + entry.tail_budget
                assert entry.quad_budget + entry.tail_budget <= 1e-4


def test_step_composition_second_order():
    sys = build_heat_system(HeatConfig(n_modes=16))
    rng = np.random.default_rng(2024)
    z = rng.standard_normal(16) / (1.0 + np.arange(16.0)) ** 2

    residuals = []
    for dt in (4e-3, 2e-3, 1e-3):
        window = 1.2
        n_past = round(window / dt) + 1
        sp = np.linspace(-window, 0.0, n_past)
        past = Signal(-window, dt,
                      np.stack([np.sin(2.0 * sp) * np.exp(sp)], axis=1))
        # the input grid refines with dt but keeps the same fractional
        # offset against both split times, so interpolation error is pure
        # O(dt^2) with a dt-independent constant
        dt_u = 0.4 / (round(0.4 / dt) + 1.0 / 3.0)
        n_u = int(np.ceil(1.6 / dt_u)) + 1
        r = dt_u * np.arange(n_u)
        end = dt_u * (n_u - 1)
        prof = np.sin(1.7 * r) * np.exp(-0.4 * r) * (1.0 - (r / end) ** 2) ** 2
        u = Signal(0.0, dt_u, np.stack([prof, -0.7 * prof], axis=1))
        xs = ExtendedState(past, z, u)
        res = semigroup_law_residual(sys, 0.7, 0.4, xs)
        assert res <= 0.5 * dt * dt
        residuals.append(res)
    for bigger, smaller in zip(residuals, residuals[1:]):
        assert 3.3 <= bigger / smaller <= 4.7


def test_gram_constant_matches_energy_search():
    rng = np.random.default_rng(11)
    n = 4
    re = -0.3 - 2.0 * rng.random(n)
    alpha = re + 1j * rng.standard_normal(n)
    gen = DiagonalGenerator(alpha, k=1.0, omega=float(re.max()))
    c = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    sys = SpectralSystem(gen, np.ones((n, 1), dtype=complex), c,
                         np.zeros((2, 1), dtype=complex))
    t0 = 0.8
    m_obs = observation_gram(sys, t0)

    # independent kernel: trapezoid of (C e^{As})^H (C e^{As}) over [0, t0]
    m_quad = 160001
    s = np.linspace(0.0, t0, m_quad)
    ce = np.exp(np.outer(s, alpha))[:, None, :] * c[None, :, :]
    wts = np.full(m_quad, t0 / (m_quad - 1))
    wts[0] *= 0.5
    wts[-1] *= 0.5
    gram_quad = np.einsum("m,mkn,mkl->nl", wts, ce.conj(), ce)

    z = rng.standard_normal((10000, n)) + 1j * rng.standard_normal((10000, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    energies = np.einsum("vn,nl,vl->v", z.conj(), gram_quad, z).real
    assert np.all(energies <= m_obs * (1.0 + 1e-9))
    # random unit vectors alone undershoot the top eigenvalue; the search
    # set also carries the top eigenvector of the dense oracle Gram, whose
    # energy still comes from the independent quadrature kernel
    w, v = np.linalg.eigh(dense_grams(sys, t0)[0])
    top = v[:, -1]
    e_top = float(np.einsum("n,nl,l->", top.conj(), gram_quad, top).real)
    sup_brute = max(float(energies.max()), e_top)
    assert abs(sup_brute - m_obs) <= 1e-6 * m_obs


def test_heat_constants_bounded_and_horizon_uniform():
    sys = build_heat_system(HeatConfig(n_modes=16))
    scan = m13_sup_scan(sys, 100.0, 4001)
    series = math.fsum(1.0 / (1.0 + n * n) for n in range(16)) / math.pi
    for t0 in (0.1, 1.0, 10.0):
        rep = admissibility_report(sys, t0, scan)
        assert rep.m_obs <= series
        assert rep.m_ctl ** 2 <= series
        for t in (2.0 * t0, 10.0 * t0):
            m_obs_t = observation_gram(sys, t)
            m_ctl_t = control_gram(sys, t)
            assert m_obs_t <= rep.constants.m_c
            assert m_ctl_t <= rep.constants.m_b


def test_shifted_certificates_agree():
    for lambda0 in (1.0, 2.0):
        cert = certify_system(build_heat_system(HeatConfig(n_modes=64, lambda0=lambda0)))
        assert cert["verdict"] == "WELL_POSED"
        assert cert["failures"] == []
