"""Exit codes, certificate files, and simulation CSV outputs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cross_oracles import dense_gram_constants
import wellposed
from wellposed import admissibility
from wellposed.cli import main
from wellposed.laxphillips import load_extended_state
from wellposed.signals import Signal, read_signal_csv, write_signal_csv

SCALAR_DESC = {
    "eigenvalues": [-1.0],
    "control": [[1.0]],
    "observation": [[1.0]],
}

NONSUMMABLE_DESC = {
    "eigenvalues": [-1.0, -2.0],
    "control": [[1.0], [1.0]],
    "observation": [[1.0, 1.0]],
    "tail": {"type": "powerlaw", "coefficient": 1.0, "exponent": 1.0},
}


def write_desc(path, desc):
    path.write_text(json.dumps(desc))
    return str(path)


class TestCertifyCommand:
    def test_scalar_system_exit_zero(self, tmp_path):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        rc = main(["certify", "--system", spec, "--gamma-max", "50",
                   "--gamma-steps", "501", "--out", str(tmp_path / "out")])
        assert rc == 0
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert cert["verdict"] == "WELL_POSED"
        assert cert["schema"] == "wellposed.certificate@1"

    def test_certificate_bytes_deterministic(self, tmp_path):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        blobs = []
        for name in ("a", "b"):
            rc = main(["certify", "--system", spec, "--gamma-max", "50",
                       "--gamma-steps", "501", "--out", str(tmp_path / name)])
            assert rc == 0
            blobs.append((tmp_path / name / "certificate.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_dimension_mismatch_exit_one(self, tmp_path, capsys):
        bad = dict(SCALAR_DESC, control=[[1.0], [1.0]])
        spec = write_desc(tmp_path / "bad.json", bad)
        rc = main(["certify", "--system", spec, "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_non_finite_stability_constant_exit_one(self, tmp_path, capsys, monkeypatch, k):
        # json parses NaN: K is rejected when the system is built, before any
        # stage runs, not when the certificate fails to serialize
        def stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(wellposed.cli, "certify_system", stage)
        spec = write_desc(tmp_path / "sys.json",
                          dict(SCALAR_DESC, stability={"K": k, "omega": -1.0}))
        rc = main(["certify", "--system", spec, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "stability constant K" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["coefficient", "exponent"])
    def test_non_finite_tail_exit_one(self, tmp_path, capsys, monkeypatch, field):
        # json parses NaN: the tail is rejected when the system is built,
        # before any stage runs, not when the certificate fails to serialize
        def stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(wellposed.cli, "certify_system", stage)
        tail = dict(NONSUMMABLE_DESC["tail"], exponent=2.0)
        tail[field] = math.nan
        spec = write_desc(tmp_path / "sys.json", dict(NONSUMMABLE_DESC, tail=tail))
        rc = main(["certify", "--system", spec, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        rc = main(["certify", "--system", str(path), "--out", str(tmp_path)])
        assert rc == 1
        assert "JSON" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path, capsys):
        rc = main(["certify", "--system", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_nonsummable_tail_exit_two(self, tmp_path):
        spec = write_desc(tmp_path / "nonsummable.json", NONSUMMABLE_DESC)
        rc = main(["certify", "--system", spec, "--gamma-max", "50",
                   "--gamma-steps", "501", "--out", str(tmp_path / "out")])
        assert rc == 2
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert cert["verdict"] == "NOT_CERTIFIED"
        assert cert["multiplier"] is None

    def test_coarse_heat_builtin_exit_two(self, tmp_path):
        rc = main(["certify", "--builtin", "heat", "--modes", "16",
                   "--gamma-steps", "501", "--out", str(tmp_path)])
        assert rc == 2
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["verdict"] == "NOT_CERTIFIED"

    @pytest.mark.parametrize("probes", [[], ["--lambda-probes", "1"]])
    def test_heat_certificate_bytes_match_dense_grams(self, tmp_path, monkeypatch, probes):
        # at 64 heat modes both Grams take the kernel side, whose single dense
        # eigensolve reproduces, bit for bit, the dense Grams and full spectrum
        args = ["certify", "--builtin", "heat", "--modes", "64", *probes, "--out"]
        assert main(args + [str(tmp_path / "shared")]) == 0
        monkeypatch.setattr(admissibility, "observation_gram",
                            lambda sys, t0: dense_gram_constants(sys, t0)[0])
        monkeypatch.setattr(admissibility, "control_gram",
                            lambda sys, t0: dense_gram_constants(sys, t0)[1])
        assert main(args + [str(tmp_path / "dense")]) == 0
        shared = (tmp_path / "shared" / "certificate.json").read_bytes()
        assert shared == (tmp_path / "dense" / "certificate.json").read_bytes()

    def test_exploratory_gate(self, tmp_path, capsys):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        rc = main(["certify", "--system", spec, "--p", "3"])
        assert rc == 1
        assert "--exploratory" in capsys.readouterr().err
        rc = main(["certify", "--system", spec, "--p", "3", "--exploratory",
                   "--gamma-max", "50", "--gamma-steps", "501",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_probe_parsing(self, tmp_path, capsys):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        rc = main(["certify", "--system", spec, "--lambda-probes", "1,2+0.5i",
                   "--gamma-max", "50", "--gamma-steps", "501",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert cert["parameters"]["lambdaProbes"] == [[1.0, 0.0], [2.0, 0.5]]
        rc = main(["certify", "--system", spec, "--lambda-probes", "1+qi"])
        assert rc == 1
        assert "probe" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--dt", "0"], ["--dt", "nan"],
                                       ["--p", "nan", "--exploratory"],
                                       ["--gamma-max", "inf"], ["--t0", "inf"],
                                       ["--dt", "2"], ["--gamma-steps", "1"],
                                       ["--lambda-probes", "0"]])
    def test_bad_parameters_fail_before_any_stage(self, tmp_path, capsys, flags):
        rc = main(["certify", "--builtin", "heat", "--modes", "4",
                   "--out", str(tmp_path)] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        # the message names the parameter at fault
        assert flags[0].lstrip("-").replace("-", "_") in err
        assert not (tmp_path / "certificate.json").exists()

    def test_system_source_is_exclusive(self, tmp_path, capsys):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        assert main(["certify"]) == 1
        assert main(["certify", "--system", spec, "--builtin", "heat"]) == 1
        assert main(["certify", "--system", spec, "--modes", "8"]) == 1
        capsys.readouterr()


class TestSimulateCommand:
    def test_unit_input_final_state(self, tmp_path):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        u_path = tmp_path / "input.csv"
        write_signal_csv(u_path, Signal(0.0, 0.5, np.ones(3)))
        out = tmp_path / "out"
        rc = main(["simulate", "--system", spec, "--t", "1", "--dt", "0.01",
                   "--input", str(u_path), "--out", str(out)])
        assert rc == 0
        state = read_signal_csv(out / "state.csv")
        assert state.samples[-1, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert state.n_samples == 101
        past = read_signal_csv(out / "past_output.csv")
        assert past.n_samples == 101
        assert past.t0 == pytest.approx(-1.0)

    def test_zero_input_gives_zero_csvs(self, tmp_path):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        out = tmp_path / "out"
        rc = main(["simulate", "--system", spec, "--t", "0.5", "--dt", "0.05",
                   "--out", str(out)])
        assert rc == 0
        for name in ("state.csv", "past_output.csv", "future_input.csv"):
            sig = read_signal_csv(out / name)
            assert np.all(sig.samples == 0.0)

    def test_heat_builtin_writes_temperature_profile(self, tmp_path):
        u_path = tmp_path / "input.csv"
        write_signal_csv(u_path, Signal(0.0, 0.25, np.stack(
            [np.ones(5), np.zeros(5)], axis=1)))
        out = tmp_path / "out"
        rc = main(["simulate", "--builtin", "heat", "--modes", "8",
                   "--t", "0.5", "--window", "1", "--dt", "0.01",
                   "--input", str(u_path), "--out", str(out)])
        assert rc == 0
        past = read_signal_csv(out / "past_output.csv")
        assert past.n_samples == 101  # window/dt + 1
        profile = (out / "temperature_profile.csv").read_text().splitlines()
        assert profile[0] == "s,theta"
        assert len(profile) == 202
        # heating the left end from a zero state produces a real profile
        values = [float(line.split(",")[1]) for line in profile[1:]]
        assert any(abs(v) > 1e-6 for v in values)
        envelope = json.loads((out / "extended_state.json").read_text())
        assert envelope["schema"] == "wellposed.extended-state@1"

    @pytest.mark.parametrize("t", ["1", "0.503", "2.9061"])
    def test_state_csv_ends_at_the_stepped_state(self, tmp_path, t):
        # state.csv samples [0, t] with step t / round(t / dt), on and off
        # the dt grid, and its last row is the envelope's state at t
        rng = np.random.default_rng(5)
        u_path = tmp_path / "input.csv"
        write_signal_csv(u_path, Signal(0.0, 0.01, rng.standard_normal((401, 2))))
        out = tmp_path / "out"
        rc = main(["simulate", "--builtin", "heat", "--modes", "128", "--t", t,
                   "--window", "4", "--dt", "0.01", "--input", str(u_path),
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "state.csv").read_text().splitlines()
        assert len(lines) == 1 + round(float(t) / 0.01) + 1
        assert float(lines[-1].split(",")[0]) == float(t)
        state = read_signal_csv(out / "state.csv")
        envelope = load_extended_state(out / "extended_state.json")
        np.testing.assert_array_equal(state.samples[-1], envelope.state)

    def test_window_overflow_exit_one(self, tmp_path, capsys):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        rc = main(["simulate", "--system", spec, "--t", "2", "--window", "1",
                   "--dt", "0.05", "--out", str(tmp_path)])
        assert rc == 1
        assert "--window" in capsys.readouterr().err

    def test_channel_mismatch_exit_one(self, tmp_path, capsys):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        u_path = tmp_path / "input.csv"
        write_signal_csv(u_path, Signal(0.0, 0.5, np.ones((3, 2))))
        rc = main(["simulate", "--system", spec, "--t", "1", "--dt", "0.1",
                   "--input", str(u_path), "--out", str(tmp_path)])
        assert rc == 1
        assert "channels" in capsys.readouterr().err

    def test_shift_flag_accepted(self, tmp_path):
        rc = main(["simulate", "--builtin", "heat", "--modes", "4",
                   "--shift", "2", "--t", "0.2", "--dt", "0.02",
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_bad_flags_exit_one(self, tmp_path, capsys):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        assert main(["simulate", "--system", spec, "--t", "0",
                     "--out", str(tmp_path)]) == 1
        assert main(["simulate", "--system", spec, "--t", "1", "--dt", "-0.1",
                     "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--t", "--dt", "--window"])
    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys, flag):
        spec = write_desc(tmp_path / "sys.json", SCALAR_DESC)
        values = {"--t": "1", "--dt": "0.1", "--window": "1", flag: "inf"}
        args = [item for pair in values.items() for item in pair]
        assert main(["simulate", "--system", spec, "--out", str(tmp_path)] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag} must be finite") and "Traceback" not in err


class TestEntryPoints:
    def test_module_execution(self):
        # the child finds the package where this process imported it from
        src = str(Path(wellposed.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "wellposed", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "certify" in proc.stdout and "simulate" in proc.stdout

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err
