"""The benchmark's three workloads: what one op runs and how its output is checked.

Every workload builds its inputs from the seed in ``setup``, lists the ops of
one pass in ``ops``, runs one op in ``run`` (the timed part) and checks that
op's output in ``check`` (untimed). ``check`` returns a list of problems;
an empty list means the op is correct.

Outputs are checked two ways: against independent computations made here
(for any seed), and against references recorded for ``DEFAULT_SEED``.
Numbers must agree to ``REL_TOL``, relative to the size of the array or
scalar compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import wellposed
from wellposed import certificate, cli, laxphillips, system

DEFAULT_SEED = 0
REL_TOL = 1e-10
REFERENCES = Path(__file__).resolve().parent / "references"


def _close(got, want, what: str, problems: list[str]) -> None:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape}, expected {want.shape}")
        return
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= REL_TOL * scale:
        problems.append(f"{what}: off by {err:.3e} (scale {scale:.3e})")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    # the package's CLI module attribute is looked up per call so a traced
    # run reaches the wrapped function
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


class CertifyHeat:
    """``wellposed certify --builtin heat --modes 64 --lambda-probes 1``.

    The paper's own example at the CLI defaults apart from the truncation
    order and the probe list. Nearly all time sits in the resolvent check
    (40 001-step trajectories over 64 modes, plus the stiff fine subgrid),
    which also sets the peak memory. One probe costs a third of the default
    three, since each probe's check is independent. A pass runs the same op
    ``repeats`` times, so a run holds a dozen samples of a noisy host rather
    than three. The op takes no input from the seed.
    """

    name = "certify-heat"
    modes = 64
    repeats = 4

    def setup(self, seed: int, work: Path) -> None:
        self.work = work
        self.reference = None

    def load_reference(self) -> None:
        self.reference = json.loads((REFERENCES / "certify-heat.json").read_text())

    def ops(self) -> list:
        return list(range(self.repeats))

    def run(self, op):
        out = self.work / f"certify-{op}"
        code, text = _run_cli(["certify", "--builtin", "heat", "--modes", str(self.modes),
                               "--lambda-probes", "1", "--out", str(out)])
        return code, text, out

    def check(self, op, output) -> list[str]:
        code, text, out = output
        if code != 0:
            return [f"exit code {code}: {text.strip()[:200]}"]
        if not text.startswith("WELL_POSED"):
            return [f"unexpected CLI output {text.strip()[:200]!r}"]
        cert = json.loads((out / "certificate.json").read_text())
        shutil.rmtree(out, ignore_errors=True)
        problems = []
        if cert.get("verdict") != "WELL_POSED" or cert.get("failures"):
            problems.append(f"verdict {cert.get('verdict')}: {cert.get('failures')}")
        for check in cert.get("resolventResiduals", []):
            for entry in check["entries"]:
                if not entry["residual"] <= entry["quadBudget"] + entry["tailBudget"]:
                    problems.append(f"{entry['name']} at {check['lambda']} exceeds its budget")
        if self.reference is not None:
            _compare_tree(cert, self.reference, "certificate", problems)
        return problems

    def reference_of(self, op, output) -> dict:
        code, text, out = output
        return json.loads((out / "certificate.json").read_text())


def _compare_tree(got, want, where: str, problems: list[str]) -> None:
    """Structure, strings and flags must be equal and numbers within REL_TOL.

    A residual is a difference of two O(1) transforms, so its last digits
    follow summation order; it is checked against its budget instead.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{where}: keys differ from the reference")
            return
        for key in want:
            if key != "residual":
                _compare_tree(got[key], want[key], f"{where}.{key}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: length differs from the reference")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_tree(g, w, f"{where}[{i}]", problems)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            problems.append(f"{where}: {got!r} is not a number")
        elif not abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            problems.append(f"{where}: {got!r} != reference {want!r}")
    elif got != want:
        problems.append(f"{where}: {got!r} != reference {want!r}")


class ConstantsMimo:
    """Gram constants, the m13 sup scan and compatibility on a random system.

    N = 2048 exact diagonal modes with a complex, non-stiff spectrum,
    3 inputs, 3 outputs and nonzero feedthrough. The Gram and scan layers do
    the work and the resolvent layer does none.
    """

    name = "constants-mimo"
    modes = 2048
    channels = 3
    t0 = 1.0
    gamma_max = 100.0
    gamma_steps = 40001

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        n, m = self.modes, self.channels
        re = -rng.uniform(0.5, 0.5 + n / 4, n)
        re[0] = -0.5
        im = rng.uniform(-50.0, 50.0, n)
        desc = {
            "eigenvalues": [[float(a), float(b)] for a, b in zip(re, im)],
            "control": (rng.standard_normal((n, m)) / math.sqrt(n)).tolist(),
            "observation": (rng.standard_normal((m, n)) / math.sqrt(n)).tolist(),
            "feedthrough": rng.standard_normal((m, m)).tolist(),
        }
        self.system = system.build_system(desc)
        self.expected = None
        self.reference = None

    def load_reference(self) -> None:
        self.reference = json.loads((REFERENCES / "constants-mimo.json").read_text())

    def ops(self) -> list:
        return [None]

    def run(self, op):
        sys_ = self.system
        compat = [system.compatibility_check(sys_, lam) for lam in certificate.DEFAULT_PROBES]
        scan = system.m13_sup_scan(sys_, self.gamma_max, self.gamma_steps)
        report = wellposed.admissibility.admissibility_report(sys_, self.t0, scan)
        return compat, scan, report

    @staticmethod
    def summary(output) -> dict:
        compat, scan, report = output
        return {
            "compatSums": [r.truncated_sum for r in compat],
            "compatVerdicts": [bool(r.verdict) for r in compat],
            "gridSup": scan.grid_sup,
            "upperBound": scan.upper_bound,
            "mObs": report.m_obs,
            "mCtl": report.m_ctl,
            "mPair": [report.m_pair.lower, report.m_pair.upper],
            "constants": [report.constants.m_c, report.constants.m_b, report.constants.m_bc],
        }

    def check(self, op, output) -> list[str]:
        got = self.summary(output)
        problems = []
        if not got["gridSup"] <= got["upperBound"]:
            problems.append(f"gridSup {got['gridSup']} > upperBound {got['upperBound']}")
        if not all(got["compatVerdicts"]):
            problems.append("compatibility failed on an exact system")
        if self.expected is None:
            self.expected = self._independent()
        for key, want in self.expected.items():
            _close(got[key], want, key, problems)
        if self.reference is not None:
            _compare_tree(got, self.reference, "reference", problems)
        return problems

    def _independent(self) -> dict:
        """The same quantities from their definitions, by other algorithms:
        Lanczos instead of a dense eigensolver, Hermitian 3x3 eigenvalues
        instead of an SVD, and the constants' closed forms."""
        sys_ = self.system
        alpha = sys_.gen.eigenvalues
        b, c = sys_.control, sys_.observation
        k, omega, t0 = sys_.gen.k, sys_.gen.omega, self.t0
        weights = np.linalg.norm(c, axis=0) * np.sum(np.abs(b), axis=1)
        sums = [float(np.sum(weights / np.abs(complex(lam) - alpha)))
                for lam in certificate.DEFAULT_PROBES]
        upper = float(np.sum(weights / np.abs(alpha.real)))
        grid = np.linspace(-self.gamma_max, self.gamma_max, self.gamma_steps)
        # m13(gamma)_kj = sum_n c_kn b_nj / (i gamma - alpha_n): one matrix
        # product per chunk of the grid
        pairs = (c.T[:, :, None] * b[:, None, :]).reshape(alpha.size, -1)
        grid_sup = 0.0
        for lo in range(0, grid.size, 2000):
            res = 1.0 / (1j * grid[lo:lo + 2000, None] - alpha[None, :])
            mats = (res @ pairs).reshape(-1, c.shape[0], b.shape[1])
            herm = np.conj(np.transpose(mats, (0, 2, 1))) @ mats
            grid_sup = max(grid_sup, float(np.sqrt(np.max(np.linalg.eigvalsh(herm)))))

        # imported here so the other workloads' set-up does not pay for it
        from scipy.sparse.linalg import eigsh

        def top(gram):
            vals = eigsh(gram, k=1, which="LA", v0=np.ones(gram.shape[0]), tol=1e-13,
                         return_eigenvectors=False)
            return max(float(vals[0]), 0.0)

        # Re(w) <= 2 max Re(alpha) < 0, so e^(w t0) - 1 loses no digits
        w = np.conj(alpha)[:, None] + alpha[None, :]
        m_obs = top((c.conj().T @ c) * ((np.exp(w * t0) - 1.0) / w))
        w = alpha[:, None] + np.conj(alpha)[None, :]
        m_ctl = math.sqrt(top((b @ b.conj().T) * ((np.exp(w * t0) - 1.0) / w)))
        m_c = m_obs + m_obs * k**2 / (1.0 - math.exp(2.0 * omega * t0))
        m_b = m_ctl * k + m_ctl * k / (1.0 - math.exp(omega * t0))
        m_bc = upper + math.sqrt(m_c) * m_b * k / (1.0 - math.exp(omega))
        return {"compatSums": sums, "gridSup": grid_sup, "upperBound": upper,
                "mObs": m_obs, "mCtl": m_ctl, "mPair": [grid_sup, upper],
                "constants": [m_c, m_b, m_bc]}

    def reference_of(self, op, output) -> dict:
        return self.summary(output)


def _phi1(z):
    return np.expm1(z) / z


def _phi2(z):
    return (np.expm1(z) - z) / (z * z)


class SimulateHeat:
    """``wellposed simulate --builtin heat --modes 128 --dt 1e-2 --window 4``.

    One pass is 24 steps from rest under one seeded 2-channel input. Eight
    step lengths T lie on the dt grid (one trajectory per step) and sixteen
    off it (the per-sample convolution loop, several times slower). With
    halves the median op would fall in the gap between the two groups and
    jump with noise; with a third on the grid it falls inside the off-grid
    group. T is stratified over [0.5, 3.0] within each group so the pass
    cost and the median op barely depend on the seed.
    """

    name = "simulate-heat"
    modes = 128
    dt = 1e-2
    window = 4.0
    aligned_steps = 8
    unaligned_steps = 16

    def setup(self, seed: int, work: Path) -> None:
        self.work = work
        rng = np.random.default_rng([seed, 3])
        n_rows = int(round(self.window / self.dt)) + 1
        times = self.dt * np.arange(n_rows)
        freq = rng.uniform(0.5, 6.0, (4, 2))
        phase = rng.uniform(0.0, 2.0 * math.pi, (4, 2))
        amp = rng.standard_normal((4, 2)) / np.arange(1, 5)[:, None]
        self.u = np.sum(amp[None] * np.sin(freq[None] * times[:, None, None] + phase[None]),
                        axis=1)
        lines = ["time,c0,c1"]
        lines += [f"{t:.17g},{a:.17g},{b:.17g}" for t, (a, b) in zip(times, self.u)]
        self.csv = work / "input.csv"
        self.csv.write_text("\n".join(lines) + "\n")

        def stratified(n):
            # centres of n equal strata of [0.5, 3.0], each moved by at most a
            # tenth of a stratum: the median op sits at a fixed stratum, and
            # its latency grows like T^2, so wider draws move it with the seed
            return 0.5 + 2.5 * (np.arange(n) + 0.5 + rng.uniform(-0.1, 0.1, n)) / n

        aligned = [(f"{round(x / self.dt) * self.dt:.2f}", True)
                   for x in stratified(self.aligned_steps)]
        off = rng.uniform(0.2, 0.8, self.unaligned_steps)
        unaligned = [(repr(float(math.floor(x / self.dt) * self.dt + f * self.dt)), False)
                     for x, f in zip(stratified(self.unaligned_steps), off)]
        mixed = aligned + unaligned
        self.steps = [mixed[i] for i in rng.permutation(len(mixed))]

        heat = system.build_system({"builtin": "heat", "modes": self.modes})
        self.alpha = heat.gen.eigenvalues
        self.b, self.c, self.d = heat.control, heat.observation, heat.feedthrough
        self.reference = None

    def load_reference(self) -> None:
        with np.load(REFERENCES / "simulate-heat.npz") as ref:
            self.reference = {key: ref[key] for key in ref.files}

    def ops(self) -> list:
        return list(range(len(self.steps)))

    def is_aligned(self, op) -> bool:
        return self.steps[op][1]

    def run(self, op):
        out = self.work / f"simulate-{op}"
        code, text = _run_cli(["simulate", "--builtin", "heat", "--modes", str(self.modes),
                               "--dt", "1e-2", "--window", "4", "--t", self.steps[op][0],
                               "--input", str(self.csv), "--out", str(out)])
        return code, text, out

    def _load(self, output):
        code, text, out = output
        xs = laxphillips.load_extended_state(out / "extended_state.json")
        return xs.state, xs.past_output.samples, xs.future_input.samples

    def check(self, op, output) -> list[str]:
        code, text, out = output
        if code != 0:
            return [f"exit code {code}: {text.strip()[:200]}"]
        try:
            state, past, future = self._load(output)
        except (wellposed.WellposedError, OSError) as exc:
            return [f"extended state does not reload: {exc}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        problems = []
        want_state, want_past, want_future = self._independent(float(self.steps[op][0]))
        _close(state, want_state, "state", problems)
        _close(past, want_past, "past output", problems)
        _close(future, want_future, "future input", problems)
        if self.reference is not None:
            if str(self.reference[f"t{op}"]) != self.steps[op][0]:
                problems.append("op list differs from the reference op list")
            else:
                _close(state, self.reference[f"state{op}"], "reference state", problems)
                _close(past, self.reference[f"past{op}"], "reference past output", problems)
        return problems

    def _independent(self, t: float):
        """Step from rest by t, from the exact integral of the interpolated
        input: a one-step recurrence on the grid, then a partial segment of
        length delta for steps off the grid."""
        h, alpha = self.dt, self.alpha
        v = self.u @ self.b.T
        q = int(math.floor(t / h + 1e-9))
        delta = t - q * h
        if delta <= 1e-9 * h:
            delta = 0.0
        z = alpha * h
        g = h * (v[:-1] * _phi1(z) + (v[1:] - v[:-1]) * _phi2(z))
        traj = np.zeros((q + 1, alpha.size), dtype=complex)
        for k in range(q):
            traj[k + 1] = np.exp(z) * traj[k] + g[k]
        tau = np.arange(q + 1) * h + delta
        if delta > 0.0:
            zd = alpha * delta
            v_end = v[:q + 1] + (delta / h) * (v[1:q + 2] - v[:q + 1])
            traj = (np.exp(zd) * traj + delta * (v[:q + 1] * _phi1(zd)
                                                 + (v_end - v[:q + 1]) * _phi2(zd)))
        grid = self.dt * np.arange(self.u.shape[0])
        u_tau = np.stack([np.interp(tau, grid, col) for col in self.u.T], axis=1)
        y = traj @ self.c.T + u_tau @ self.d.T
        n_past = self.u.shape[0]
        past = np.zeros((n_past, y.shape[1]), dtype=complex)
        fresh = y if delta > 0.0 else y[1:]
        past[n_past - fresh.shape[0]:] = fresh
        n_future = self.u.shape[0] - q - (1 if delta > 0.0 else 0)
        future_t = t + h * np.arange(n_future)
        future = np.stack([np.interp(future_t, grid, col) for col in self.u.T], axis=1)
        return traj[-1], past, future

    def reference_of(self, op, output) -> dict:
        state, past, _ = self._load(output)
        return {f"t{op}": np.array(self.steps[op][0]), f"state{op}": state,
                f"past{op}": past}


WORKLOADS = {w.name: w for w in (CertifyHeat, ConstantsMimo, SimulateHeat)}
