import math

import numpy as np
import pytest

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


def test_scan_one_mode_sandwich():
    rep = m13_sup_scan(build_system(_ONE_MODE), 100.0, 4001)
    assert isinstance(rep, MultiplierReport)
    assert rep.grid_sup == pytest.approx(1.0, abs=1e-14)
    assert rep.upper_bound == pytest.approx(1.0, rel=1e-15)
    assert rep.grid_sup <= rep.upper_bound


def test_scan_zero_control():
    sys = build_system({"eigenvalues": [-1.0], "control": [[0.0]],
                        "observation": [[1.0]]})
    rep = m13_sup_scan(sys, 10.0, 21)
    assert rep.grid_sup == 0.0 and rep.upper_bound == 0.0


def test_scan_nested_grid_monotone():
    sys = _random_system(seed=11)
    coarse = m13_sup_scan(sys, 5.0, 101)
    fine = m13_sup_scan(sys, 5.0, 201)  # contains the coarse grid
    assert fine.grid_sup >= coarse.grid_sup
    assert fine.upper_bound == coarse.upper_bound


def test_scan_rejects_bad_grid():
    sys = build_system(_ONE_MODE)
    with pytest.raises(DomainError):
        m13_sup_scan(sys, 0.0, 10)
    with pytest.raises(DomainError):
        m13_sup_scan(sys, 1.0, 1)


def test_heat_tail_consistency():
    tail = HeatTail(1.0, channels=2)
    assert tail.term(3) == pytest.approx(2.0 * (4.0 / math.pi) / 10.0, rel=1e-15)
    # sum_from telescopes over explicit terms
    diff = tail.sum_from(10) - tail.sum_from(15)
    explicit = sum(tail.term(n) for n in range(10, 15))
    assert diff == pytest.approx(explicit, rel=1e-10)
    # closed form of the full series: (8/pi) * (1 + pi coth(pi)) / 2
    total = (8.0 / math.pi) * (1.0 + math.pi / math.tanh(math.pi)) / 2.0
    assert tail.sum_from(0) == pytest.approx(total, rel=1e-12)


def test_power_law_tail():
    tail = PowerLawTail(2.0, 2.0)
    assert tail.term(4) == pytest.approx(2.0 / 16.0, rel=1e-15)
    brute = 2.0 * np.sum(1.0 / np.arange(5, 200001, dtype=float) ** 2)
    assert tail.sum_from(5) == pytest.approx(brute, rel=1e-4)
    assert math.isinf(PowerLawTail(1.0, 0.9).sum_from(3))
    assert PowerLawTail(0.0, 0.5).sum_from(1) == 0.0
    with pytest.raises(DomainError):
        PowerLawTail(-1.0, 2.0)


def test_describe_system_shape():
    desc = describe_system(build_system({"builtin": "heat", "modes": 3}))
    assert desc["schema"] == "wellposed.system@1"
    assert desc["modes"] == 3 and desc["inputs"] == 2 and desc["outputs"] == 1
    assert desc["tail"] == {"type": "heat", "lambda0": 1.0, "channels": 2}
    assert desc["eigenvalues"][2] == [-5.0, 0.0]
    # description is plain JSON data
    import json

    json.dumps(desc)
