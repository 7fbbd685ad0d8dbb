"""Canonical serialization, digests, and the certification pipeline."""

import json
import math

import numpy as np
import pytest

from wellposed import certificate, laplace
from wellposed.certificate import (
    DEFAULT_PROBES,
    canonical_json,
    certify_system,
    system_digest,
)
from wellposed.errors import DomainError
from wellposed.heat import HeatConfig, build_heat_system
from wellposed.spectral import DiagonalGenerator
from wellposed.system import SpectralSystem, build_system


def scalar_system(alpha=-1.0, b=1.0, c=1.0, d=0.0):
    gen = DiagonalGenerator(np.array([alpha], dtype=complex), k=1.0,
                            omega=float(np.real(alpha)))
    return SpectralSystem(gen,
                          np.array([[b]], dtype=complex),
                          np.array([[c]], dtype=complex),
                          np.array([[d]], dtype=complex))


NONSUMMABLE_DESC = {
    "eigenvalues": [-1.0, -2.0],
    "control": [[1.0], [1.0]],
    "observation": [[1.0, 1.0]],
    "tail": {"type": "powerlaw", "coefficient": 1.0, "exponent": 1.0},
}


class TestCanonicalJson:
    def test_sorted_keys_and_shapes(self):
        text = canonical_json({"b": 1, "a": [True, None, "x"]})
        assert text == '{"a":[true,null,"x"],"b":1}\n'

    def test_float_formatting(self):
        assert canonical_json(0.5) == "0.5\n"
        assert canonical_json(1.0 / 3.0) == "0.33333333333333331\n"
        assert canonical_json(2.0) == "2\n"

    def test_complex_becomes_pair(self):
        assert canonical_json(1.0 + 2.0j) == "[1,2]\n"

    def test_numpy_scalars_unwrap(self):
        assert canonical_json(np.float64(0.25)) == "0.25\n"
        assert canonical_json(np.int32(3)) == "3\n"

    def test_key_order_does_not_matter(self):
        a = {"x": 1.5, "y": {"p": 2, "q": [1.0, 2.0]}}
        b = {"y": {"q": [1.0, 2.0], "p": 2}, "x": 1.5}
        assert canonical_json(a) == canonical_json(b)

    def test_rejects_nonfinite_and_unknown_types(self):
        with pytest.raises(DomainError):
            canonical_json(float("inf"))
        with pytest.raises(DomainError):
            canonical_json(float("nan"))
        with pytest.raises(DomainError):
            canonical_json({1: "numeric key"})
        with pytest.raises(DomainError):
            canonical_json(object())

    def test_output_is_valid_json(self):
        doc = {"values": [0.1, 1e-300, 1e300], "flag": False}
        parsed = json.loads(canonical_json(doc))
        assert parsed["values"] == [0.1, 1e-300, 1e300]


class TestSystemDigest:
    def test_stable_across_rebuilds(self):
        a = build_heat_system(HeatConfig(n_modes=8))
        b = build_heat_system(HeatConfig(n_modes=8))
        assert system_digest(a) == system_digest(b)
        assert len(system_digest(a)) == 64

    def test_sensitive_to_system_changes(self):
        a = build_heat_system(HeatConfig(n_modes=8))
        b = build_heat_system(HeatConfig(n_modes=9))
        c = build_heat_system(HeatConfig(n_modes=8, lambda0=2.0))
        assert system_digest(a) != system_digest(b)
        assert system_digest(a) != system_digest(c)


def _walk_pass_flags(cert):
    for entry in cert["compat"]:
        yield entry["verdict"]
    for check in cert["resolventResiduals"]:
        yield check["passed"]
        for entry in check["entries"]:
            yield entry["passed"]


class TestCertifySystem:
    def test_scalar_system_well_posed(self):
        cert = certify_system(scalar_system(), gamma_max=50.0, gamma_steps=501,
                              t_max=20.0)
        assert cert["schema"] == "wellposed.certificate@1"
        assert cert["verdict"] == "WELL_POSED"
        assert cert["mode"] == "certify"
        assert cert["failures"] == []
        assert all(_walk_pass_flags(cert))
        assert cert["multiplier"]["gridSup"] <= cert["multiplier"]["upperBound"]
        assert cert["admissibility"]["mPair"]["upper"] == cert["multiplier"]["upperBound"]
        assert set(cert["toleranceLedger"]) == {
            "gridAlignRelTol", "phiSeriesSwitch", "quadSafetyFactor",
            "scanUpperSlackRel", "spectrumDetectRelTol", "tailShareDefault",
        }

    def test_ledger_reads_module_constants(self):
        from wellposed import certificate, heat, laplace, laxphillips, signals, system

        assert certificate.TOLERANCE_LEDGER == {
            "gridAlignRelTol": signals._GRID_REL_TOL,
            "phiSeriesSwitch": signals._PHI_SERIES_SWITCH,
            "quadSafetyFactor": laplace._QUAD_SAFETY,
            "scanUpperSlackRel": system._SCAN_UPPER_SLACK,
            "spectrumDetectRelTol": heat._SPECTRUM_TOL,
            "tailShareDefault": system.DEFAULT_TAIL_SHARE,
        }
        # the values the certificate bytes were recorded with
        assert list(certificate.TOLERANCE_LEDGER.values()) == [1e-9, 0.5, 2.0, 1e-12, 1e-12, 0.1]
        # one grid tolerance, not a copy per module
        assert laplace._GRID_REL_TOL is laxphillips._GRID_REL_TOL is signals._GRID_REL_TOL

    def test_deterministic_bytes(self):
        a = certify_system(scalar_system(), gamma_max=50.0, gamma_steps=501,
                           t_max=20.0)
        b = certify_system(scalar_system(), gamma_max=50.0, gamma_steps=501,
                           t_max=20.0)
        assert canonical_json(a) == canonical_json(b)

    def test_nonsummable_tail_not_certified(self):
        sys = build_system(NONSUMMABLE_DESC)
        cert = certify_system(sys, gamma_max=50.0, gamma_steps=501, t_max=20.0)
        assert cert["verdict"] == "NOT_CERTIFIED"
        assert cert["multiplier"] is None
        assert cert["admissibility"] is None
        assert any("multiplier scan" in f for f in cert["failures"])
        assert any("pair constant" in f for f in cert["failures"])
        assert all(entry["tailBound"] is None for entry in cert["compat"])
        json.loads(canonical_json(cert))  # still serializable

    def test_exploratory_mode_never_certifies(self):
        cert = certify_system(scalar_system(), p=3.0, gamma_max=50.0,
                              gamma_steps=501, t_max=20.0)
        assert cert["mode"] == "exploratory"
        assert cert["verdict"] == "NOT_CERTIFIED"
        assert any("p = 3" in f for f in cert["failures"])
        # the numeric reports are still produced in full
        assert cert["admissibility"] is not None
        assert cert["multiplier"] is not None

    def test_coarse_heat_truncation_fails_share_gate(self):
        # 16 modes leave a declared tail above ten percent of the kept sum
        cert = certify_system(build_heat_system(HeatConfig(n_modes=16)), gamma_steps=501)
        assert cert["verdict"] == "NOT_CERTIFIED"
        assert all(not entry["verdict"] for entry in cert["compat"])
        assert any("compatibility" in f for f in cert["failures"])

    def test_probes_share_one_trajectory_pass(self, monkeypatch):
        # three probes: one free output and one forced trajectory of 40 001
        # rows, where a call per probe would form each three times
        real_free, real_blocks = laplace._free_output, laplace.exp_conv_blocks
        free_calls, passes = [], []

        def free(*args):
            free_calls.append(args)
            return real_free(*args)

        def blocks(*args):
            passes.append(0)
            for block in real_blocks(*args):
                passes[-1] += block.shape[0]
                yield block

        monkeypatch.setattr(laplace, "_free_output", free)
        monkeypatch.setattr(laplace, "exp_conv_blocks", blocks)
        cert = certify_system(build_heat_system(HeatConfig(n_modes=16)), gamma_steps=501)
        assert len(cert["resolventResiduals"]) == len(DEFAULT_PROBES) == 3
        assert len(free_calls) == 1
        assert passes == [40001]

    def test_requires_probes(self):
        with pytest.raises(DomainError):
            certify_system(scalar_system(), lambda_probes=())

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": math.nan}, {"t_max": math.inf}, {"t_max": -1.0},
        {"p": math.nan}, {"p": 0.5}, {"p": math.inf},
        {"gamma_max": math.inf}, {"gamma_max": 0.0}, {"t0": math.inf}, {"t0": math.nan},
        {"gamma_steps": 1}, {"gamma_steps": 2.5}, {"lambda_probes": (1.0, 2.0j)},
        {"gamma_max": 1e308}, {"modes": 4097}, {"t_max": 1.5},
    ])
    def test_rejects_bad_parameters_before_any_stage(self, monkeypatch, kwargs):
        def stage(*args, **kw):
            raise AssertionError("a stage ran")

        kwargs = dict(kwargs)
        n = kwargs.pop("modes", 1)
        # n modes; past the Gram stage's limit when n = 4097
        gen = DiagonalGenerator(-1.0 - np.arange(n, dtype=complex), k=1.0, omega=-1.0)
        sys = SpectralSystem(gen, np.ones((n, 1), dtype=complex),
                             np.ones((1, n), dtype=complex), np.zeros((1, 1), dtype=complex))
        monkeypatch.setattr(certificate, "compatibility_check", stage)
        with pytest.raises(DomainError):
            certify_system(sys, **kwargs)

    def test_negative_infinite_window_fails_before_any_stage(self, monkeypatch):
        # the window check lives in admissibility._check_window alone
        def stage(*args, **kw):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(certificate, "compatibility_check", stage)
        with pytest.raises(DomainError, match="t0 must be finite and > 0"):
            certify_system(scalar_system(), t0=-math.inf)

    def test_verdict_implies_all_pass_flags(self):
        cert = certify_system(build_heat_system(HeatConfig(n_modes=40)), gamma_max=50.0,
                              gamma_steps=501)
        if cert["verdict"] == "WELL_POSED":
            assert all(_walk_pass_flags(cert))
        else:
            assert cert["failures"]
