import math
import tracemalloc

import numpy as np
import pytest

import wellposed.system
from cross_oracles import m13_einsum, m13_full_scan_sup
from wellposed.errors import (
    CertificateIncompleteError,
    DimensionError,
    DomainError,
    PreconditionError,
    SchemaError,
    SpectrumError,
    StabilityError,
)
from wellposed.spectral import DiagonalGenerator
from wellposed.system import (
    HeatTail,
    MultiplierReport,
    PowerLawTail,
    SpectralSystem,
    build_system,
    compatibility_check,
    _block_bounds,
    _m13,
    describe_system,
    m13_sup_scan,
)

_ONE_MODE = {
    "eigenvalues": [[-1.0, 0.0]],
    "control": [[[1.0, 0.0]]],
    "observation": [[[1.0, 0.0]]],
    "feedthrough": [[[0.0, 0.0]]],
}


def _random_system(n=6, m=2, k=2, seed=0):
    rng = np.random.default_rng(seed)
    alpha = -(0.5 + rng.uniform(0.0, 4.0, n)) + 1j * rng.uniform(-2.0, 2.0, n)
    gen = DiagonalGenerator(alpha, omega=-0.5)
    b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    c = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return SpectralSystem(gen, b, c, np.zeros((k, m)))


def _near_axis_system(n=256, seed=0):
    # Re alpha in [-1, -0.5] and Im alpha spread over the scan's grid: every
    # block lies near some eigenvalue, so few blocks can be skipped
    rng = np.random.default_rng(seed)
    alpha = -rng.uniform(0.5, 1.0, n) + 1j * rng.uniform(-100.0, 100.0, n)
    gen = DiagonalGenerator(alpha, omega=-0.5)
    b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    c = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return SpectralSystem(gen, b, c, np.zeros((2, 2)))


def test_build_minimal_system():
    sys = build_system(_ONE_MODE)
    assert sys.n_modes == 1 and sys.n_inputs == 1 and sys.n_outputs == 1
    assert sys.exact and sys.tail is None and sys.builtin is None
    assert sys.gen.eigenvalues[0] == -1.0 + 0.0j
    assert sys.gen.omega == -1.0


def test_build_accepts_scalar_entries():
    sys = build_system({"eigenvalues": [-2.0], "control": [[1.0]],
                        "observation": [[3.0]]})
    assert sys.control[0, 0] == 1.0 + 0j
    assert np.all(sys.feedthrough == 0.0)


def test_build_applies_shift():
    sys = build_system({"eigenvalues": [0.5], "control": [[1.0]],
                        "observation": [[1.0]], "shift": 1.5})
    assert sys.gen.eigenvalues[0] == pytest.approx(-1.0)
    assert sys.gen.shift == 1.5


@pytest.mark.parametrize("extra,name", [
    ({"stability": {"K": math.nan, "omega": -1.0}}, "K"),
    ({"stability": {"K": math.inf, "omega": -1.0}}, "K"),
    ({"shift": math.nan}, "shift"),
    ({"shift": math.inf}, "shift"),
])
def test_build_rejects_non_finite_constants(extra, name):
    # json reads NaN and Infinity; such a K used to pass every check
    with pytest.raises(DomainError, match=name):
        build_system(dict(_ONE_MODE, **extra))


def test_build_unstable_spectrum_rejected():
    with pytest.raises(StabilityError):
        build_system({"eigenvalues": [1.0], "control": [[1.0]],
                      "observation": [[1.0]]})


def test_build_schema_errors():
    with pytest.raises(SchemaError):
        build_system({"eigenvalues": [-1.0], "control": [[1.0]],
                      "observation": [[1.0]], "typo": 1})
    with pytest.raises(SchemaError):
        build_system({"eigenvalues": [-1.0], "control": [[1.0]]})
    with pytest.raises(SchemaError):
        build_system({"eigenvalues": [-1.0, -2.0], "control": [[1.0]],
                      "observation": [[1.0, 0.5]]})
    with pytest.raises(SchemaError):
        build_system({"eigenvalues": [-1.0], "control": [[1.0]],
                      "observation": [[1.0]], "modes": 3})
    with pytest.raises(SchemaError):
        build_system({"builtin": "wave", "modes": 4})
    with pytest.raises(SchemaError):
        build_system({"builtin": "heat", "modes": 4, "control": [[1.0]]})
    with pytest.raises(SchemaError):
        build_system({"builtin": "heat"})
    with pytest.raises(SchemaError):
        build_system({"eigenvalues": [-1.0], "control": [[1.0]],
                      "observation": [[1.0]], "tail": {"type": "nope"}})


def test_build_builtin_heat():
    sys = build_system({"builtin": "heat", "modes": 4})
    assert sys.builtin == "heat" and not sys.exact and sys.tail is not None
    np.testing.assert_allclose(sys.gen.eigenvalues,
                               [-1.0, -2.0, -5.0, -10.0])
    assert sys.gen.shift == 1.0 and sys.gen.omega == -1.0
    assert sys.control.shape == (4, 2) and sys.observation.shape == (1, 4)


def test_system_dimension_checks():
    gen = DiagonalGenerator(np.array([-1.0, -2.0], dtype=complex))
    with pytest.raises(DimensionError):
        SpectralSystem(gen, np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)))
    with pytest.raises(DimensionError):
        SpectralSystem(gen, np.ones((2, 1)), np.ones((1, 3)), np.zeros((1, 1)))
    with pytest.raises(DimensionError):
        SpectralSystem(gen, np.ones((2, 1)), np.ones((1, 2)), np.zeros((2, 2)))


def test_compat_one_mode_oracle():
    rep = compatibility_check(build_system(_ONE_MODE), 1.0)
    assert rep.truncated_sum == pytest.approx(0.5, abs=1e-15)
    assert rep.tail_bound == 0.0
    assert rep.verdict


def test_compat_zero_observation():
    sys = build_system({"eigenvalues": [-1.0], "control": [[1.0]],
                        "observation": [[0.0]]})
    rep = compatibility_check(sys, 2.0)
    assert rep.truncated_sum == 0.0 and rep.verdict


def test_compat_heat_channel_terms_bounded():
    # per-channel terms |c_n||b_nj| / |lambda - alpha_n| stay under 4/((1+n^2) pi)
    sys = build_system({"builtin": "heat", "modes": 32})
    n = np.arange(32)
    cap = 4.0 / ((1.0 + n.astype(float) ** 2) * math.pi)
    for gamma in (0.0, 3.7, -41.0):
        lam = 1.0 + 1j * gamma
        dist = np.abs(lam - sys.gen.eigenvalues)
        for j in range(2):
            terms = np.abs(sys.observation[0]) * np.abs(sys.control[:, j]) / dist
            assert np.all(terms <= cap + 1e-15)


def test_compat_guards():
    sys = build_system({"builtin": "heat", "modes": 8})
    with pytest.raises(SpectrumError):
        compatibility_check(sys, -1.0)
    # tail majorant contract only covers Re lambda >= 0
    with pytest.raises(DomainError):
        compatibility_check(sys, -0.5)
    bare = build_system({"eigenvalues": [-1.0], "control": [[1.0]],
                         "observation": [[1.0]], "exact": False})
    with pytest.raises(CertificateIncompleteError):
        compatibility_check(bare, 1.0)


def test_m13_one_mode_oracles():
    sys = build_system(_ONE_MODE)
    assert _m13(sys, [0.0])[0][0, 0] == pytest.approx(1.0, abs=1e-15)
    val = _m13(sys, [1.0])[0][0, 0]
    assert abs(val) == pytest.approx(0.7071067811865476, rel=1e-15)


def test_m13_zero_control():
    sys = build_system({"eigenvalues": [-1.0], "control": [[0.0]],
                        "observation": [[1.0]]})
    assert np.all(_m13(sys, [5.0])[0] == 0.0)


def test_m13_requires_summable_tail():
    sys = build_system({"eigenvalues": [-1.0], "control": [[1.0]],
                        "observation": [[1.0]],
                        "tail": {"type": "powerlaw", "coefficient": 1.0,
                                 "exponent": 1.0}})
    with pytest.raises(PreconditionError):
        m13_sup_scan(sys, 10.0, 11)


def test_m13_resolvent_equation_consistency():
    sys = _random_system(seed=3)
    g1, g2 = 0.7, -2.3
    lhs = _m13(sys, [g1])[0] - _m13(sys, [g2])[0]
    alpha = sys.gen.eigenvalues
    kernel = 1.0 / ((1j * g1 - alpha) * (1j * g2 - alpha))
    rhs = (1j * g2 - 1j * g1) * (sys.observation * kernel[None, :]) @ sys.control
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_m13_conjugate_symmetry_real_data():
    sys = build_system({"builtin": "heat", "modes": 16})
    for gamma in (0.3, 2.0, 57.0):
        a = _m13(sys, [gamma])[0]
        b = _m13(sys, [-gamma])[0]
        np.testing.assert_allclose(b, np.conj(a), atol=1e-15)


@pytest.mark.parametrize("sys", [
    _random_system(n=40, m=2, k=3, seed=5),
    build_system({"builtin": "heat", "modes": 64}),
], ids=["random-K3-M2", "heat-K1-M2"])
def test_m13_matches_einsum_oracle(sys):
    gammas = np.linspace(-60.0, 60.0, 257)
    got = _m13(sys, gammas)
    want = m13_einsum(sys, gammas)
    assert got.shape == want.shape == (gammas.size, sys.n_outputs, sys.n_inputs)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_scan_sup_independent_of_block_budget(monkeypatch):
    # blocks of 2 and 3 rows, the default, and the whole grid in one block;
    # every row of the GEMM rounds the same way in each, so the sup keeps
    # its bits
    sys = _random_system(n=48, m=2, k=3, seed=7)
    n, steps = sys.n_modes, 1001
    sups = []
    for budget in (2 * n, 3 * n, wellposed.system._SCAN_ELEMENTS, steps * n):
        monkeypatch.setattr(wellposed.system, "_SCAN_ELEMENTS", budget)
        sups.append(m13_sup_scan(sys, 9.0, steps).grid_sup)
        assert sups[-1] == m13_full_scan_sup(sys, 9.0, steps), budget
    assert sups[0] > 0.0
    assert all(sup == sups[0] for sup in sups), sups


@pytest.mark.parametrize("make, gamma_max, steps, rows", [
    *[(lambda n=n: build_system({"builtin": "heat", "modes": n}), 100.0, steps, None)
      for n in (64, 256, 1024) for steps in (4001, 40001)],
    *[(lambda seed=seed: _random_system(n=200, m=2, k=3, seed=seed), 20.0, 4001, None)
      for seed in (0, 1, 2)],
    (lambda: _random_system(seed=4), 9.0, 1001, None),
    (lambda: _near_axis_system(), 100.0, 40001, None),
    # real data: ||m13|| is even in gamma, so on an even grid the maximum
    # is taken twice, at -h/2 and h/2, which lie in two different blocks
    (lambda: build_system({"builtin": "heat", "modes": 16}), 50.0, 4000, 2),
    (lambda: build_system({"builtin": "heat", "modes": 16}), 50.0, 4000, 3),
], ids=[*[f"heat{n}-{steps}" for n in (64, 256, 1024) for steps in (4001, 40001)],
        "random200-0", "random200-1", "random200-2", "random6-4", "near-axis",
        "heat16-even-2rows", "heat16-even-3rows"])
def test_scan_sup_equals_full_scan(make, gamma_max, steps, rows, monkeypatch):
    sys = make()
    if rows is not None:
        monkeypatch.setattr(wellposed.system, "_SCAN_ELEMENTS", rows * sys.n_modes)
    rep = m13_sup_scan(sys, gamma_max, steps)
    assert rep.grid_sup == m13_full_scan_sup(sys, gamma_max, steps)


@pytest.mark.parametrize("sys, gamma_max", [
    (build_system({"builtin": "heat", "modes": 64}), 20.0),
    (_random_system(n=40, m=2, k=3, seed=5), 10.0),
    (_random_system(n=40, m=3, k=2, seed=6), 10.0),
    (_near_axis_system(n=40, seed=1), 100.0),
    # one mode close to the axis: the bound is tight enough to notice a
    # distance that stops at the block's nearer edge instead of at 0
    (build_system({"eigenvalues": [[-0.1, 3.3]], "control": [[1.0]],
                   "observation": [[1.0]]}), 10.0),
], ids=["heat64", "random-K3-M2", "random-K2-M3", "near-axis", "one-mode-near-axis"])
@pytest.mark.parametrize("rows", [2, 7, 50, 401])
def test_block_bounds_dominate_dense_samples(sys, gamma_max, rows):
    steps = 401
    grid = np.linspace(-gamma_max, gamma_max, steps)
    starts = np.arange(0, steps - 1, rows)
    ends = np.append(starts[1:], steps)
    values, bounds = _block_bounds(sys, grid, starts, ends)
    centres = grid[(starts + ends - 1) // 2]
    want = np.linalg.svd(m13_einsum(sys, centres), compute_uv=False)[:, 0]
    np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)
    for lo, hi, bound in zip(starts, ends, bounds):
        dense = np.linspace(grid[lo], grid[hi - 1], 10 * (hi - lo - 1) + 1)
        norms = np.linalg.svd(m13_einsum(sys, dense), compute_uv=False)[:, 0]
        assert np.max(norms) <= bound, (lo, hi)


def test_scan_evaluates_few_rows(monkeypatch):
    # 157 blocks of 256 rows; only the blocks near the spectrum, where the
    # bound can reach the maximum, and one centre row per block are formed
    sys = _random_system(n=512, m=2, k=2, seed=0)
    steps = 40001
    rows = []

    def counting_m13(sys_, gammas):
        rows.append(len(gammas))
        return _m13(sys_, gammas)

    monkeypatch.setattr(wellposed.system, "_m13", counting_m13)
    rep = m13_sup_scan(sys, 100.0, steps)
    monkeypatch.undo()
    assert sum(rows) < 0.1 * steps, rows
    assert rep.grid_sup == m13_full_scan_sup(sys, 100.0, steps)


def test_scan_memory_does_not_grow_with_steps():
    # at 1024 modes one block is 128 rows, 2 MB; a fixed 2048-row chunk
    # would hold 32 MB of resolvent alone
    sys = _random_system(n=1024, m=3, k=3, seed=13)
    peaks = {}
    tracemalloc.start()
    try:
        for steps in (4001, 40001):
            tracemalloc.reset_peak()
            m13_sup_scan(sys, 50.0, steps)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_bytes = 8 * 40001
    # only the grid of floats itself grows with steps
    assert peaks[40001] < peaks[4001] + grid_bytes
    assert peaks[40001] < 2 * 16 * wellposed.system._SCAN_ELEMENTS + grid_bytes


def test_scan_one_mode_sandwich():
    rep = m13_sup_scan(build_system(_ONE_MODE), 100.0, 4001)
    assert isinstance(rep, MultiplierReport)
    assert rep.grid_sup == m13_full_scan_sup(build_system(_ONE_MODE), 100.0, 4001)
    assert rep.grid_sup == pytest.approx(1.0, abs=1e-14)
    assert rep.upper_bound == pytest.approx(1.0, rel=1e-15)
    assert rep.grid_sup <= rep.upper_bound


def test_scan_zero_control():
    sys = build_system({"eigenvalues": [-1.0], "control": [[0.0]],
                        "observation": [[1.0]]})
    rep = m13_sup_scan(sys, 10.0, 21)
    assert rep.grid_sup == 0.0 and rep.upper_bound == 0.0
    assert rep.grid_sup == m13_full_scan_sup(sys, 10.0, 21)


def test_scan_nested_grid_monotone():
    sys = _random_system(seed=11)
    coarse = m13_sup_scan(sys, 5.0, 101)
    fine = m13_sup_scan(sys, 5.0, 201)  # contains the coarse grid
    assert fine.grid_sup >= coarse.grid_sup
    assert fine.upper_bound == coarse.upper_bound


def test_scan_rejects_bad_grid(monkeypatch):
    sys = build_system(_ONE_MODE)

    def no_block(sys_, gammas):
        raise AssertionError("a block was evaluated")

    monkeypatch.setattr(wellposed.system, "_m13", no_block)
    for gamma_max, steps in ((0.0, 10), (1.0, 1), (math.inf, 10), (-math.inf, 10),
                             (math.nan, 10), (1e308, 10), (1.0, 2.5), (1.0, "11")):
        with pytest.raises(DomainError):
            m13_sup_scan(sys, gamma_max, steps)


def test_heat_tail_consistency():
    tail = HeatTail(1.0, channels=2)
    # sum_from telescopes over the explicit terms 2 (4/pi) / (1 + n^2)
    diff = tail.sum_from(10) - tail.sum_from(15)
    explicit = sum(2.0 * (4.0 / math.pi) / (1.0 + n * n) for n in range(10, 15))
    assert diff == pytest.approx(explicit, rel=1e-10)
    # closed form of the full series: (8/pi) * (1 + pi coth(pi)) / 2
    total = (8.0 / math.pi) * (1.0 + math.pi / math.tanh(math.pi)) / 2.0
    assert tail.sum_from(0) == pytest.approx(total, rel=1e-12)


def test_power_law_tail():
    tail = PowerLawTail(2.0, 2.0)
    brute = 2.0 * np.sum(1.0 / np.arange(5, 200001, dtype=float) ** 2)
    assert tail.sum_from(5) == pytest.approx(brute, rel=1e-4)
    assert math.isinf(PowerLawTail(1.0, 0.9).sum_from(3))
    assert PowerLawTail(0.0, 0.5).sum_from(1) == 0.0
    with pytest.raises(DomainError):
        PowerLawTail(-1.0, 2.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_tails_reject_non_finite_fields(bad):
    # HeatTail(lambda0=inf).sum_from(8) gave 0.0, and a NaN coefficient ran
    # every certify stage before the certificate failed to serialize
    for make in (lambda: HeatTail(lambda0=bad), lambda: HeatTail(channels=bad),
                 lambda: PowerLawTail(bad, 2.0), lambda: PowerLawTail(1.0, bad)):
        with pytest.raises(DomainError, match="must be finite"):
            make()
    # the same fields read from a description; an infinite channel count is
    # a SchemaError, since no int holds it
    for tail in ({"type": "heat", "lambda0": bad}, {"type": "heat", "channels": bad},
                 {"type": "powerlaw", "coefficient": bad, "exponent": 2.0},
                 {"type": "powerlaw", "coefficient": 1.0, "exponent": bad}):
        with pytest.raises((DomainError, SchemaError)):
            build_system({"eigenvalues": [-1.0], "control": [[1.0]],
                          "observation": [[1.0]], "tail": tail})


@pytest.mark.parametrize("bad", [2.9, 2.0, True, 0, -1, "2"])
def test_heat_tail_channels_must_be_integers(bad):
    # int() read 2.9 as 2 channels, scaling the declared majorant by 2/2.9
    with pytest.raises(DomainError, match="channels"):
        HeatTail(1.0, bad)
    with pytest.raises(SchemaError, match="channels"):
        build_system({"eigenvalues": [-1.0], "control": [[1.0]], "observation": [[1.0]],
                      "tail": {"type": "heat", "channels": bad}})


def test_heat_tail_reads_integer_channels():
    sys = build_system({"eigenvalues": [-1.0], "control": [[1.0]], "observation": [[1.0]],
                        "tail": {"type": "heat", "channels": 3}})
    assert sys.tail == HeatTail(1.0, 3)
    assert sys.tail.sum_from(1) == pytest.approx(1.5 * HeatTail(1.0, 2).sum_from(1))


def test_describe_system_shape():
    desc = describe_system(build_system({"builtin": "heat", "modes": 3}))
    assert desc["schema"] == "wellposed.system@1"
    assert desc["modes"] == 3 and desc["inputs"] == 2 and desc["outputs"] == 1
    assert desc["tail"] == {"type": "heat", "lambda0": 1.0, "channels": 2}
    assert desc["eigenvalues"][2] == [-5.0, 0.0]
    # description is plain JSON data
    import json

    json.dumps(desc)
