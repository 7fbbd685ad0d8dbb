import numpy as np
import pytest

from wellposed.errors import (
    DimensionError,
    DomainError,
    SpectrumError,
    StabilityError,
)
from wellposed.spectral import (
    DiagonalGenerator,
    as_state,
    resolvent_apply,
    semigroup_apply,
)


def _gen(n=5, seed=0, omega=-1.0):
    rng = np.random.default_rng(seed)
    re = omega - rng.uniform(0.0, 5.0, n)
    im = rng.uniform(-3.0, 3.0, n)
    return DiagonalGenerator(re + 1j * im, omega=omega)


def test_single_mode_decay():
    gen = DiagonalGenerator(np.array([-1.0 + 0j]))
    out = semigroup_apply(gen, 1.0, [1.0])
    assert out[0] == pytest.approx(0.36787944117144233, abs=1e-16)


def test_semigroup_identity_at_zero():
    gen = _gen()
    x = np.arange(1.0, 6.0)
    np.testing.assert_array_equal(semigroup_apply(gen, 0.0, x), x.astype(complex))


def test_semigroup_law():
    gen = _gen(seed=3)
    x = np.random.default_rng(1).standard_normal(5) + 0j
    lhs = semigroup_apply(gen, 0.7, semigroup_apply(gen, 1.3, x))
    rhs = semigroup_apply(gen, 2.0, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_negative_time_rejected():
    with pytest.raises(DomainError):
        semigroup_apply(_gen(), -0.1, np.zeros(5))


def test_stability_bound():
    gen = _gen(n=8, seed=7, omega=-0.5)
    x = np.random.default_rng(2).standard_normal(8)
    for t in (0.0, 0.3, 2.0, 10.0):
        grown = np.linalg.norm(semigroup_apply(gen, t, x))
        assert grown <= gen.k * np.exp(gen.omega * t) * np.linalg.norm(x) + 1e-12


def test_resolvent_inverts_shifted_generator():
    gen = _gen(seed=5)
    x = np.random.default_rng(4).standard_normal(5) + 0j
    lam = 2.0 + 1.0j
    y = resolvent_apply(gen, lam, x)
    np.testing.assert_allclose((lam - gen.eigenvalues) * y, x, rtol=1e-15)


def test_resolvent_identity():
    # R(l) - R(m) = (m - l) R(l) R(m)
    gen = _gen(seed=9)
    x = np.random.default_rng(6).standard_normal(5) + 0j
    lam, mu = 1.5 + 0.5j, 3.0 - 2.0j
    lhs = resolvent_apply(gen, lam, x) - resolvent_apply(gen, mu, x)
    rhs = (mu - lam) * resolvent_apply(gen, lam, resolvent_apply(gen, mu, x))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_resolvent_half_plane_guard():
    gen = _gen(omega=-1.0)
    with pytest.raises(SpectrumError):
        resolvent_apply(gen, -1.0, np.zeros(5))
    with pytest.raises(SpectrumError):
        resolvent_apply(gen, -2.0 + 4.0j, np.zeros(5))


def test_generator_validation():
    with pytest.raises(StabilityError):
        DiagonalGenerator(np.array([-0.5 + 0j]), omega=-1.0)
    with pytest.raises(StabilityError):
        DiagonalGenerator(np.array([-1.0 + 0j]), omega=0.0)
    with pytest.raises(DomainError):
        DiagonalGenerator(np.array([-2.0 + 0j]), k=0.5)
    with pytest.raises(DomainError):
        DiagonalGenerator(np.array([-2.0 + 0j]), shift=-1.0)
    with pytest.raises(DimensionError):
        DiagonalGenerator(np.array([], dtype=complex))
    with pytest.raises(DomainError):
        DiagonalGenerator(np.array([np.nan + 0j]))


@pytest.mark.parametrize("field,value,name", [
    ("k", np.nan, "K"), ("k", np.inf, "K"),
    ("shift", np.nan, "shift"), ("shift", np.inf, "shift"),
])
def test_generator_rejects_non_finite_constants(field, value, name):
    # NaN fails k < 1 and shift < 0 alike, so each must be required finite
    with pytest.raises(DomainError, match=name):
        DiagonalGenerator(np.array([-2.0 + 0j]), **{field: value})


def test_generator_is_immutable():
    gen = _gen()
    with pytest.raises(ValueError):
        gen.eigenvalues[0] = 0.0


def test_as_state_checks():
    with pytest.raises(DimensionError):
        as_state(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        as_state(np.zeros(3), n=4)
    with pytest.raises(DomainError):
        as_state([np.inf])
    out = as_state([1.0, 2.0], n=2)
    assert out.dtype == complex
