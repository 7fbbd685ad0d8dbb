"""End-to-end certification pipeline and its canonical JSON serialization.

A certificate bundles every numerical check into one deterministic document:
compatibility of the probe frequencies, the multiplier norm sandwich, the
admissibility constants with their global extensions, and the resolvent
identity residuals. The verdict is WELL_POSED only when every sub-report
passes and the exponent is 2, where symbol boundedness is decisive.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .admissibility import AdmissibilityReport, _check_window, admissibility_report
from .errors import DomainError, PreconditionError
from .heat import _SPECTRUM_TOL
from .laplace import (_QUAD_SAFETY, ResolventCheck, _check_grid, _check_inputs,
                      verify_resolvent_entries)
from .signals import _GRID_REL_TOL, _PHI_SERIES_SWITCH, Signal
from .system import (
    _SCAN_UPPER_SLACK,
    DEFAULT_TAIL_SHARE,
    MultiplierReport,
    SpectralSystem,
    _check_scan_grid,
    compatibility_check,
    describe_system,
    m13_sup_scan,
)

_SCHEMA = "wellposed.certificate@1"

DEFAULT_PROBES = (1.0 + 0.0j, 2.0 + 0.0j, 1.0 + 1.0j)

# every tolerance the pipeline relies on, by module constant
TOLERANCE_LEDGER = {
    "gridAlignRelTol": _GRID_REL_TOL,
    "phiSeriesSwitch": _PHI_SERIES_SWITCH,
    "quadSafetyFactor": _QUAD_SAFETY,
    "scanUpperSlackRel": _SCAN_UPPER_SLACK,
    "spectrumDetectRelTol": _SPECTRUM_TOL,
    "tailShareDefault": DEFAULT_TAIL_SHARE,
}


def _canon(obj) -> str:
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise DomainError(f"JSON keys must be strings, got {key!r}")
            items.append(f"{json.dumps(key)}:{_canon(obj[key])}")
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (np.generic,)):
        return _canon(obj.item())
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(f"non-finite value {obj} cannot be serialized")
        return f"{obj:.17g}"
    if isinstance(obj, complex):
        return _canon([obj.real, obj.imag])
    raise DomainError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    """Serialize with sorted keys, 17-significant-digit floats, and complex
    numbers as [re, im] pairs, so equal reports give byte-equal documents."""
    return _canon(obj) + "\n"


def system_digest(sys: SpectralSystem) -> str:
    """Content hash of the full system description."""
    return hashlib.sha256(canonical_json(describe_system(sys)).encode()).hexdigest()


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _finite_or_none(x: float) -> float | None:
    # divergent majorants report as null; the verdict flag carries the failure
    return float(x) if math.isfinite(x) else None


def _multiplier_dict(scan: MultiplierReport) -> dict:
    return {
        "gridSup": scan.grid_sup,
        "upperBound": scan.upper_bound,
        "gammaMax": scan.gamma_max,
        "steps": scan.steps,
        "tailBound": scan.tail_bound,
    }


def _admissibility_dict(report: AdmissibilityReport) -> dict:
    return {
        "t0": report.t0,
        "p": report.p,
        "mObs": report.m_obs,
        "mCtl": report.m_ctl,
        "mPair": {"lower": report.m_pair.lower, "upper": report.m_pair.upper},
        "constants": {
            "mC": report.constants.m_c,
            "mB": report.constants.m_b,
            "mBC": report.constants.m_bc,
        },
        "k": report.k,
        "omega": report.omega,
    }


def _resolvent_dict(check: ResolventCheck) -> dict:
    return {
        "lambda": _pair(check.lam),
        "tMax": check.t_max,
        "dt": check.dt,
        "sValues": list(check.s_values),
        "passed": check.passed,
        "entries": [
            {
                "name": e.name,
                "residual": e.residual,
                "quadBudget": e.quad_budget,
                "tailBudget": e.tail_budget,
                "passed": e.passed,
            }
            for e in check.entries
        ],
    }


def _probe_state(n_modes: int) -> np.ndarray:
    x = 1.0 / (1.0 + np.arange(n_modes))
    return x / np.linalg.norm(x)


def _probe_input(n_inputs: int, dt: float) -> Signal:
    n = int(round(1.0 / dt))
    r = dt * np.arange(n + 1)
    base = r**2 * (1.0 - r) ** 2
    cols = [base * (-1.0) ** j for j in range(n_inputs)]
    return Signal(0.0, dt, np.stack(cols, axis=1))


def certify_system(sys: SpectralSystem, p: float = 2.0, t0: float = 1.0,
                   gamma_max: float = 100.0, gamma_steps: int = 4001,
                   lambda_probes: tuple[complex, ...] = DEFAULT_PROBES,
                   dt: float = 1e-3, t_max: float = 40.0) -> dict:
    """Run the full pipeline and return the certificate document.

    Every step runs even after a failure so the report stays complete; only
    steps whose inputs are missing (no multiplier scan, hence no pair
    constant) are skipped, and each skip is itself recorded as a failure.
    """
    _check_grid(sys, t_max, dt)
    _check_window(sys, t0)
    _check_scan_grid(gamma_max, gamma_steps)
    if not (math.isfinite(p) and p >= 1):
        raise DomainError(f"p must be finite and >= 1, got {p}")
    # the resolvent stage's probes, probe state and input, which must fit its horizon
    x = _probe_state(sys.n_modes)
    u = _probe_input(sys.n_inputs, dt)
    _check_inputs(sys, lambda_probes, x, u, t_max, dt)
    failures: list[str] = []
    mode = "certify" if p == 2.0 else "exploratory"
    if mode == "exploratory":
        failures.append(f"p = {p}: symbol boundedness certifies only p = 2")

    compat_reports = []
    for lam in lambda_probes:
        report = compatibility_check(sys, lam)
        compat_reports.append(report)
        if not report.verdict:
            failures.append(f"compatibility failed at lambda = {complex(lam)}")

    scan = None
    try:
        scan = m13_sup_scan(sys, gamma_max, gamma_steps)
    except PreconditionError as exc:
        failures.append(f"multiplier scan unavailable: {exc}")

    admissibility = None
    if scan is None:
        failures.append("pair constant unavailable without a multiplier scan")
    else:
        admissibility = admissibility_report(sys, t0, scan, p)

    resolvent_checks = verify_resolvent_entries(sys, lambda_probes, x, u, t_max, dt)
    failures += [f"resolvent {entry.name} at lambda = {check.lam} exceeded its budget"
                 for check in resolvent_checks for entry in check.entries if not entry.passed]

    verdict = "WELL_POSED" if mode == "certify" and not failures else "NOT_CERTIFIED"
    return {
        "schema": _SCHEMA,
        "systemDigest": system_digest(sys),
        "p": float(p),
        "mode": mode,
        "verdict": verdict,
        "failures": failures,
        "parameters": {
            "t0": float(t0),
            "gammaMax": float(gamma_max),
            "gammaSteps": int(gamma_steps),
            "dt": float(dt),
            "tMax": float(t_max),
            "lambdaProbes": [_pair(lam) for lam in lambda_probes],
            "tailShare": DEFAULT_TAIL_SHARE,
        },
        "compat": [
            {
                "lambda": _pair(r.lambda_probe),
                "truncatedSum": _finite_or_none(r.truncated_sum),
                "tailBound": _finite_or_none(r.tail_bound),
                "share": DEFAULT_TAIL_SHARE,
                "verdict": r.verdict,
            }
            for r in compat_reports
        ],
        "multiplier": None if scan is None else _multiplier_dict(scan),
        "admissibility": None if admissibility is None else _admissibility_dict(admissibility),
        "resolventResiduals": [_resolvent_dict(c) for c in resolvent_checks],
        "toleranceLedger": dict(TOLERANCE_LEDGER),
    }
