"""Batch front end: certify systems and simulate block-semigroup steps.

Exit codes: 0 when a certificate concludes WELL_POSED, 2 when it concludes
NOT_CERTIFIED, 1 for any input or usage problem.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .certificate import DEFAULT_PROBES, canonical_json, certify_system
from .errors import DimensionError, HorizonError, SchemaError, WellposedError
from .heat import reconstruct_temperature
from .laxphillips import (ExtendedState, control_to_state, save_extended_state,
                          step_extended_state)
from .signals import Signal, read_signal_csv, resample, write_signal_csv
from .system import build_system


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which this tool reserves for
    # NOT_CERTIFIED; route usage problems through exit code 1 instead
    def error(self, message):
        raise _UsageError(message)


def _parse_probes(text: str) -> tuple[complex, ...]:
    probes = []
    for token in text.split(","):
        cleaned = token.strip().replace("i", "j")
        if not cleaned:
            raise _UsageError("empty probe in --lambda-probes")
        try:
            probes.append(complex(cleaned))
        except ValueError:
            raise _UsageError(f"cannot parse probe {token.strip()!r}") from None
    return tuple(probes)


def _load_system(args):
    if (args.system is None) == (args.builtin is None):
        raise _UsageError("exactly one of --system and --builtin is required")
    if args.system is not None:
        if args.modes is not None or args.shift is not None:
            raise _UsageError("--modes/--shift apply only to --builtin")
        try:
            desc = json.loads(Path(args.system).read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{args.system}: malformed JSON ({exc})") from None
        return build_system(desc)
    desc = {"builtin": args.builtin, "modes": 64 if args.modes is None else args.modes}
    if args.shift is not None:
        desc["shift"] = args.shift
    return build_system(desc)


def _run_certify(args) -> int:
    if args.p != 2.0 and not args.exploratory:
        raise _UsageError("p != 2 runs are exploratory; pass --exploratory to confirm")
    probes = DEFAULT_PROBES if args.lambda_probes is None else _parse_probes(args.lambda_probes)
    system = _load_system(args)
    cert = certify_system(system, p=args.p, t0=args.t0, gamma_max=args.gamma_max,
                          gamma_steps=args.gamma_steps, lambda_probes=probes,
                          dt=args.dt)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "certificate.json"
    path.write_text(canonical_json(cert))
    print(f"{cert['verdict']}: {path}")
    for failure in cert["failures"]:
        print(f"  - {failure}")
    return 0 if cert["verdict"] == "WELL_POSED" else 2


def _run_simulate(args) -> int:
    system = _load_system(args)
    t, dt = args.t, args.dt
    window = t if args.window is None else args.window
    for flag, value in (("--t", t), ("--dt", dt), ("--window", window)):
        if not (math.isfinite(value) and value > 0):
            raise _UsageError(f"{flag} must be finite and > 0, got {value}")

    steps_w = max(1, int(round(window / dt)))
    if args.input is not None:
        u_raw = read_signal_csv(args.input)
        if u_raw.width != system.n_inputs:
            raise DimensionError(
                f"input has {u_raw.width} channels, system expects {system.n_inputs}")
    else:
        u_raw = Signal(0.0, dt, np.zeros((2, system.n_inputs)))
    past = Signal(-steps_w * dt, dt, np.zeros((steps_w + 1, system.n_outputs)))
    future = resample(u_raw, 0.0, dt, steps_w + 1)
    start = ExtendedState(past, np.zeros(system.n_modes, dtype=complex), future)
    stepped = step_extended_state(system, t, start)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the state on [0, t] with the step t / round(t / dt), so its last row
    # is the stepped state at t
    steps_t = max(1, round(t / dt))
    states = control_to_state(system, np.linspace(0.0, t, steps_t + 1), future)
    write_signal_csv(out_dir / "state.csv", Signal(0.0, t / steps_t, states))
    envelope = save_extended_state(out_dir, stepped)
    if system.builtin == "heat":
        s_grid = np.linspace(0.0, math.pi, 201)
        theta = reconstruct_temperature(stepped.state, s_grid).real
        lines = ["s,theta"]
        lines += [f"{s:.17g},{v:.17g}" for s, v in zip(s_grid, theta)]
        (out_dir / "temperature_profile.csv").write_text("\n".join(lines) + "\n")
    print(f"simulated t = {t} into {out_dir} (envelope: {envelope.name})")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="wellposed",
                     description="certify p-well-posedness or simulate the block semigroup")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_flags(p):
        p.add_argument("--system", help="system description JSON")
        p.add_argument("--builtin", choices=["heat"], help="built-in example system")
        p.add_argument("--modes", type=int, help="truncation order for --builtin")
        p.add_argument("--shift", type=float, help="spectral shift for --builtin")
        p.add_argument("--out", default=".", help="output directory")

    cert = sub.add_parser("certify", help="run the certification pipeline")
    add_system_flags(cert)
    cert.add_argument("--p", type=float, default=2.0, help="Lebesgue exponent")
    cert.add_argument("--exploratory", action="store_true",
                      help="acknowledge that p != 2 cannot be certified")
    cert.add_argument("--t0", type=float, default=1.0, help="admissibility window")
    cert.add_argument("--gamma-max", type=float, default=100.0, help="scan range")
    cert.add_argument("--gamma-steps", type=int, default=4001, help="scan resolution")
    cert.add_argument("--lambda-probes", help="comma list of probes, e.g. '1,2,1+i'")
    cert.add_argument("--dt", type=float, default=1e-3, help="resolvent check step")
    cert.set_defaults(func=_run_certify)

    sim = sub.add_parser("simulate", help="advance an extended state and write CSVs")
    add_system_flags(sim)
    sim.add_argument("--t", type=float, required=True, help="time to advance")
    sim.add_argument("--window", type=float,
                     help="past/future window length (default: --t)")
    sim.add_argument("--dt", type=float, default=1e-2, help="sample step")
    sim.add_argument("--input", help="input signal CSV")
    sim.set_defaults(func=_run_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HorizonError as exc:
        print(f"error: {exc}; increase --window", file=sys.stderr)
        return 1
    except (WellposedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
