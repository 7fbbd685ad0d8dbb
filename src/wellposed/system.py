"""Spectral systems, compatibility checks, and the boundary transfer multiplier.

A system is the quadruple (A, B, C, D) in diagonal spectral form: A acts as
alpha_n on mode n, B enters through the row vectors b[n, :], C observes
through the columns c[:, n] by an absolutely convergent series, and D is a
plain matrix. A truncation to N modes either is the whole system (``exact``)
or carries a declared tail majorant that dominates the dropped rows
||c_n|| * sum_j |b_nj| / |lambda - alpha_n| uniformly on Re(lambda) >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import (
    CertificateIncompleteError,
    DimensionError,
    DomainError,
    InternalError,
    PreconditionError,
    SchemaError,
    SpectrumError,
    StabilityError,
)
from .spectral import DiagonalGenerator

# resolvent entries per m13 scan block: 2 MB of complex values, cache-sized
_SCAN_ELEMENTS = 1 << 17
DEFAULT_TAIL_SHARE = 0.1

# relative rounding slack when the grid sup is checked against its majorant
_SCAN_UPPER_SLACK = 1e-12


def _is_count(value) -> bool:
    # a Python int >= 1 that is not a bool
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


class TailMajorant(Protocol):
    def sum_from(self, start: int) -> float: ...

    def describe(self) -> dict: ...


@dataclass(frozen=True)
class HeatTail:
    """Majorant 4/((lambda0 + n^2) pi) per input channel for the built-in system."""

    lambda0: float = 1.0
    channels: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.lambda0) and self.lambda0 > 0):
            raise DomainError(f"lambda0 must be finite and > 0, got {self.lambda0}")
        if not _is_count(self.channels):
            raise DomainError(f"channels must be finite and an integer >= 1, got {self.channels}")

    def sum_from(self, start: int) -> float:
        # sum_{n>=0} 1/(n^2 + a^2) = (1 + a pi coth(a pi)) / (2 a^2)
        a = math.sqrt(self.lambda0)
        total = (1.0 + a * math.pi / math.tanh(a * math.pi)) / (2.0 * a * a)
        head = float(np.sum(1.0 / (self.lambda0 + np.arange(start, dtype=float) ** 2)))
        return max(0.0, self.channels * (4.0 / math.pi) * (total - head))

    def describe(self) -> dict:
        return {"type": "heat", "lambda0": self.lambda0, "channels": self.channels}


@dataclass(frozen=True)
class PowerLawTail:
    """Declared row majorant coefficient * n^(-exponent) for the dropped modes.

    exponent <= 1 is accepted but not summable; any certificate step that
    needs the tail then reports the series as non-summable.
    """

    coefficient: float
    exponent: float

    def __post_init__(self):
        if not (math.isfinite(self.coefficient) and self.coefficient >= 0):
            raise DomainError(f"coefficient must be finite and >= 0, got {self.coefficient}")
        if not math.isfinite(self.exponent):
            raise DomainError(f"exponent must be finite, got {self.exponent}")

    def sum_from(self, start: int) -> float:
        if self.coefficient == 0.0:
            return 0.0
        if self.exponent <= 1.0:
            return math.inf
        # imported here: scipy.special would slow every package import
        from scipy.special import zeta

        return self.coefficient * float(zeta(self.exponent, max(start, 1)))

    def describe(self) -> dict:
        return {"type": "powerlaw", "coefficient": self.coefficient,
                "exponent": self.exponent}


@dataclass(frozen=True)
class SpectralSystem:
    """Validated (A, B, C, D) truncation with optional tail majorant."""

    gen: DiagonalGenerator
    control: np.ndarray
    observation: np.ndarray
    feedthrough: np.ndarray
    tail: TailMajorant | None = None
    exact: bool = True
    builtin: str | None = None

    def __post_init__(self):
        n = self.gen.order
        b = np.atleast_2d(np.asarray(self.control, dtype=complex))
        c = np.atleast_2d(np.asarray(self.observation, dtype=complex))
        d = np.atleast_2d(np.asarray(self.feedthrough, dtype=complex))
        if b.shape[0] != n:
            raise DimensionError(f"control must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise DimensionError(f"observation must have {n} columns, got {c.shape}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionError(
                f"feedthrough must be {(c.shape[0], b.shape[1])}, got {d.shape}"
            )
        for name, arr in (("control", b), ("observation", c), ("feedthrough", d)):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} has non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "control", b)
        object.__setattr__(self, "observation", c)
        object.__setattr__(self, "feedthrough", d)

    @property
    def n_modes(self) -> int:
        return self.gen.order

    @property
    def n_inputs(self) -> int:
        return self.control.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.observation.shape[0]


@dataclass(frozen=True)
class CompatReport:
    lambda_probe: complex
    truncated_sum: float
    tail_bound: float
    verdict: bool


@dataclass(frozen=True)
class MultiplierReport:
    grid_sup: float
    upper_bound: float
    gamma_max: float
    steps: int
    tail_bound: float


def _row_weights(sys: SpectralSystem) -> np.ndarray:
    # ||c_{:,n}||_2 * sum_j |b_nj| per stored mode
    c_norm = np.linalg.norm(sys.observation, axis=0)
    b_sum = np.sum(np.abs(sys.control), axis=1)
    return c_norm * b_sum


def _tail_sum(sys: SpectralSystem) -> float:
    if sys.exact:
        return 0.0
    if sys.tail is None:
        raise CertificateIncompleteError(
            "system is a truncation but declares no tail majorant"
        )
    return float(sys.tail.sum_from(sys.n_modes))


def compatibility_check(sys: SpectralSystem, lam: complex) -> CompatReport:
    """Check that the observation series of R(lambda, A_{-1})B converges absolutely.

    The truncated sum runs over stored modes; the tail bound comes from the
    declared majorant (zero for exact systems). The verdict asks the tail to
    carry less than DEFAULT_TAIL_SHARE of the truncated mass, so the stored
    modes dominate the series.
    """
    lam = complex(lam)
    if not lam.real > sys.gen.omega:
        raise SpectrumError(
            f"lambda = {lam} outside the resolvent half-plane Re(lambda) > {sys.gen.omega}"
        )
    rows = _row_weights(sys)
    truncated = float(np.sum(rows / np.abs(lam - sys.gen.eigenvalues)))
    tail = 0.0
    if not sys.exact:
        if lam.real < 0:
            raise DomainError(
                "tail majorants are only valid on Re(lambda) >= 0; "
                f"got lambda = {lam}"
            )
        tail = _tail_sum(sys)
    finite = math.isfinite(truncated + tail)
    verdict = finite and (tail == 0.0 or tail < DEFAULT_TAIL_SHARE * truncated)
    return CompatReport(lam, truncated, tail, verdict)


def _m13(sys: SpectralSystem, gammas) -> np.ndarray:
    # m13(gamma) = C_L R(i gamma, A_{-1}) B, shape (G, K, M): one GEMM of the
    # resolvent rows with the N x KM pairs, whose row n is c_{:,n} (x) b_{n,:}
    res = np.subtract.outer(1j * np.asarray(gammas, dtype=float), sys.gen.eigenvalues)
    np.reciprocal(res, out=res)
    pairs = (sys.observation.T[:, :, None] * sys.control[:, None, :]).reshape(sys.n_modes, -1)
    return (res @ pairs).reshape(-1, sys.n_outputs, sys.n_inputs)


def _sup_norms(sys: SpectralSystem, gammas) -> np.ndarray:
    # ||m13(gamma)||_2 at each gamma: the largest singular value per point
    return np.linalg.svd(_m13(sys, gammas), compute_uv=False)[:, 0]


def _block_bounds(sys: SpectralSystem, grid: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre values and majorants of ||m13||_2 on the blocks grid[lo:hi].

    A block spans [ga, gb] = [grid[lo], grid[hi - 1]] and has its centre at
    gc = grid[(lo + hi - 1) // 2]. Since m13'(gamma) = -i sum_n c_n b_n^T
    (i gamma - alpha_n)^-2 and ||c_n b_n^T||_2 = ||c_n|| ||b_n||,

        ||m13(gamma)||_2 <= ||m13(gc)||_2 + r sum_n ||c_n|| ||b_n|| / dist_n^2

    on the block, with r = max(gc - ga, gb - gc) and dist_n^2 = (Re alpha_n)^2
    + max(0, ga - Im alpha_n, Im alpha_n - gb)^2 the squared distance from
    alpha_n to i[ga, gb]. The blocks go in chunks of _SCAN_ELEMENTS // N, so
    no array holds more than one chunk's N columns.
    """
    alpha = sys.gen.eigenvalues
    weights = np.linalg.norm(sys.observation, axis=0) * np.linalg.norm(sys.control, axis=1)
    centres = grid[(starts + ends - 1) // 2]
    chunk = max(1, _SCAN_ELEMENTS // sys.n_modes)
    chunks = range(0, starts.size, chunk)
    values = np.concatenate([_sup_norms(sys, centres[lo:lo + chunk]) for lo in chunks])
    slopes = np.empty(starts.size)
    for lo in chunks:
        gap = np.subtract.outer(grid[starts[lo:lo + chunk]], alpha.imag)
        np.maximum(gap, alpha.imag - grid[ends[lo:lo + chunk] - 1, None], out=gap)
        np.maximum(gap, 0.0, out=gap)
        # dist^2 may overflow to inf or underflow to 0; 1/dist^2 is then 0,
        # below the smallest normal float, or inf, which still bounds
        with np.errstate(over="ignore", divide="ignore"):
            np.square(gap, out=gap)
            gap += alpha.real ** 2
            np.reciprocal(gap, out=gap)
        slopes[lo:lo + chunk] = gap @ weights
    radius = np.maximum(centres - grid[starts], grid[ends - 1] - centres)
    return values, values + radius * slopes


def _check_scan_grid(gamma_max: float, steps: int) -> None:
    """The scan grid's checks, which certify_system also runs before any
    stage: gamma_max finite, > 0 and at most half the largest float, so that
    the grid's width 2 gamma_max is finite, and gamma_steps an integer >= 2."""
    if not (math.isfinite(gamma_max) and gamma_max > 0 and math.isfinite(2.0 * gamma_max)):
        raise DomainError(f"gamma_max must be finite, > 0 and at most half the "
                          f"largest float, got {gamma_max}")
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise DomainError(f"gamma_steps must be an integer >= 2, got {steps!r}")


def m13_sup_scan(sys: SpectralSystem, gamma_max: float, steps: int) -> MultiplierReport:
    """Scan ||m13(gamma)||_2 on a uniform grid over [-gamma_max, gamma_max].

    Returns the sandwich [gridSup, upperBound]: the grid maximum of the
    largest singular value, and the gamma-uniform majorant
    sum_n ||c_n|| sum_j |b_nj| / |Re alpha_n| + tail. No interpolation between
    grid points is attempted; the true sup lies in the sandwich.

    The grid runs in blocks of _SCAN_ELEMENTS // N >= 2 points (64 at N = 2048),
    one GEMM and one batched SVD each, so memory does not grow with ``steps``;
    no block is one row, which BLAS would round by its vector path.

    The scan is a branch and bound over these blocks. Each block [ga, gb]
    gets a majorant B = ||m13(gc)||_2 + r sum_n ||c_n|| ||b_n|| / dist_n^2
    from its centre point gc (see ``_block_bounds``). The running maximum
    starts at the largest centre value; blocks are evaluated in decreasing B,
    and the scan stops at the first block with B + delta < running max -
    delta. The slack delta = 8 (N + 4) K M eps upperBound covers the rounding
    of a computed norm and of B. A skipped block therefore holds no grid value
    as large as the maximum. gridSup is the maximum over the evaluated
    blocks only, each formed exactly as in a full scan, so it keeps the bits
    of the full scan's maximum; the centre values serve only as a threshold.
    """
    _check_scan_grid(gamma_max, steps)
    tail = _tail_sum(sys)
    if not math.isfinite(tail):
        raise PreconditionError("observation series is not absolutely summable; "
                                "compatibility cannot be verified")
    upper = float(np.sum(_row_weights(sys) / np.abs(sys.gen.eigenvalues.real))) + tail
    slack = (8.0 * (sys.n_modes + 4) * sys.n_outputs * sys.n_inputs
             * np.finfo(float).eps * upper)
    grid = np.linspace(-gamma_max, gamma_max, steps)
    starts = np.arange(0, steps - 1, max(2, _SCAN_ELEMENTS // sys.n_modes))
    ends = np.append(starts[1:], steps)
    values, bounds = _block_bounds(sys, grid, starts, ends)
    best = float(np.max(values))
    grid_sup = 0.0
    for block in np.argsort(-bounds, kind="stable"):
        if bounds[block] + slack < best - slack:
            break
        block_sup = float(np.max(_sup_norms(sys, grid[starts[block]:ends[block]])))
        grid_sup = max(grid_sup, block_sup)
        best = max(best, block_sup)
    if grid_sup > upper * (1.0 + _SCAN_UPPER_SLACK):
        raise InternalError(f"grid maximum {grid_sup} exceeds its majorant {upper}")
    return MultiplierReport(grid_sup, upper, float(gamma_max), int(steps), tail)


_TOP_LEVEL_KEYS = {"eigenvalues", "control", "observation", "feedthrough", "shift",
                   "stability", "builtin", "modes", "tail", "exact"}
_EXPLICIT_KEYS = ("eigenvalues", "control", "observation", "feedthrough", "tail",
                  "exact")


def _entry(x, where: str) -> complex:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return complex(x)
    if (isinstance(x, list) and len(x) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)):
        return complex(x[0], x[1])
    raise SchemaError(f"{where}: expected a number or [re, im] pair, got {x!r}")


def _matrix(raw, where: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{where}: expected a nonempty list of rows")
    rows = []
    width = None
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{where}[{i}]: expected a nonempty row list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{where}[{i}]: ragged row (got {len(row)}, expected {width})")
        rows.append([_entry(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    return np.asarray(rows, dtype=complex)


def _parse_tail(raw) -> TailMajorant:
    if not isinstance(raw, dict) or "type" not in raw:
        raise SchemaError("tail: expected an object with a 'type' field")
    kind = raw["type"]
    if kind == "powerlaw":
        try:
            return PowerLawTail(float(raw["coefficient"]), float(raw["exponent"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"tail: {exc}") from None
    if kind == "heat":
        channels = raw.get("channels", 2)
        if not _is_count(channels):
            raise SchemaError(f"tail: channels must be an integer >= 1, got {channels!r}")
        try:
            return HeatTail(float(raw.get("lambda0", 1.0)), channels)
        except (OverflowError, TypeError, ValueError) as exc:
            raise SchemaError(f"tail: {exc}") from None
    raise SchemaError(f"tail: unknown type {kind!r}")


def build_system(desc: dict) -> SpectralSystem:
    """Build a validated system from a parsed JSON description.

    ``eigenvalues`` lists the raw spectrum; ``shift`` (default 0) is subtracted
    from it, so the stored generator is the rescaled, exponentially stable one.
    ``stability`` defaults to K = 1 with omega at the shifted spectral bound.
    When ``builtin`` is set, the explicit arrays must be absent and ``modes``
    selects the truncation order.
    """
    if not isinstance(desc, dict):
        raise SchemaError(f"system description must be an object, got {type(desc).__name__}")
    unknown = set(desc) - _TOP_LEVEL_KEYS
    if unknown:
        raise SchemaError(f"unknown system fields: {sorted(unknown)}")
    builtin = desc.get("builtin")
    if builtin is not None:
        if builtin != "heat":
            raise SchemaError(f"unknown builtin {builtin!r}")
        present = [key for key in _EXPLICIT_KEYS if key in desc]
        if present:
            raise SchemaError(f"builtin system must not carry explicit fields: {present}")
        modes = desc.get("modes")
        if not _is_count(modes):
            raise SchemaError(f"builtin system needs integer modes >= 1, got {modes!r}")
        from .heat import HeatConfig, build_heat_system

        lambda0 = desc.get("shift", 1.0)
        if not isinstance(lambda0, (int, float)) or isinstance(lambda0, bool):
            raise SchemaError(f"shift must be a number, got {lambda0!r}")
        return build_heat_system(HeatConfig(n_modes=modes, lambda0=float(lambda0)))

    for key in ("eigenvalues", "control", "observation"):
        if key not in desc:
            raise SchemaError(f"missing required field {key!r}")
    raw_eig = desc["eigenvalues"]
    if not isinstance(raw_eig, list) or not raw_eig:
        raise SchemaError("eigenvalues: expected a nonempty list")
    eig = np.asarray([_entry(v, f"eigenvalues[{i}]") for i, v in enumerate(raw_eig)],
                     dtype=complex)
    n = eig.shape[0]
    if "modes" in desc and desc["modes"] != n:
        raise SchemaError(f"modes = {desc['modes']} but {n} eigenvalues given")
    shift = desc.get("shift", 0.0)
    if not isinstance(shift, (int, float)) or isinstance(shift, bool):
        raise SchemaError(f"shift must be a number, got {shift!r}")
    alpha = eig - float(shift)

    control = _matrix(desc["control"], "control")
    observation = _matrix(desc["observation"], "observation")
    if control.shape[0] != n:
        raise SchemaError(f"control has {control.shape[0]} rows, expected {n}")
    if observation.shape[1] != n:
        raise SchemaError(f"observation has {observation.shape[1]} columns, expected {n}")
    k, m = observation.shape[0], control.shape[1]
    if "feedthrough" in desc:
        feedthrough = _matrix(desc["feedthrough"], "feedthrough")
        if feedthrough.shape != (k, m):
            raise SchemaError(f"feedthrough must be {k}x{m}, got {feedthrough.shape}")
    else:
        feedthrough = np.zeros((k, m), dtype=complex)

    stability = desc.get("stability")
    if stability is None:
        k_const = 1.0
        omega = float(np.max(alpha.real))
        if omega >= 0:
            raise StabilityError(
                f"shifted spectrum reaches Re = {omega} >= 0; declare a larger shift"
            )
    else:
        if not isinstance(stability, dict) or set(stability) - {"K", "omega"}:
            raise SchemaError("stability: expected an object with fields K, omega")
        try:
            k_const = float(stability.get("K", 1.0))
            omega = float(stability["omega"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"stability: {exc}") from None

    tail = _parse_tail(desc["tail"]) if "tail" in desc else None
    exact = desc.get("exact", tail is None)
    if not isinstance(exact, bool):
        raise SchemaError(f"exact must be a boolean, got {exact!r}")

    gen = DiagonalGenerator(alpha, shift=float(shift), k=k_const, omega=omega)
    return SpectralSystem(gen, control, observation, feedthrough,
                          tail=tail, exact=exact, builtin=None)


def _complex_pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def describe_system(sys: SpectralSystem) -> dict:
    """Normalized description of the system; the certificate digest hashes this."""
    return {
        "schema": "wellposed.system@1",
        "builtin": sys.builtin,
        "modes": sys.n_modes,
        "inputs": sys.n_inputs,
        "outputs": sys.n_outputs,
        "shift": sys.gen.shift,
        "stability": {"K": sys.gen.k, "omega": sys.gen.omega},
        "eigenvalues": _complex_pairs(sys.gen.eigenvalues),
        "control": _complex_pairs(sys.control),
        "observation": _complex_pairs(sys.observation),
        "feedthrough": _complex_pairs(sys.feedthrough),
        "exact": sys.exact,
        "tail": sys.tail.describe() if sys.tail is not None else None,
    }
