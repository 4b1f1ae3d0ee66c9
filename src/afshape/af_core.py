"""Discrete ambiguity-function primitives for slow-time radar codes.

A length-N unimodular code x (stored by phase, so |x_n| = 1 holds by
construction) has the discrete ambiguity function

    r[k, p] = sum_{n=1}^{N} x_n conj(x_{n-k}) exp(-2j pi (n - k) p / N)

over chirp lags k in [-(N-1), N-1] and integer Doppler bins p. The index
n - k wraps cyclically (mod N); because p is an integer number of bins the
complex exponent is itself N-periodic in its index, so the wrapped sum
coincides exactly with the quadratic form x^H D_p J_k x built from the
unitary Doppler diagonal D_p and the cyclic shift J_k. Every evaluation
here goes through that convention, and the mainlobe value is r[0, 0] = N
for any unimodular code.

Magnitudes are reported in dB as 20*log10(|r| / N), which pins the
mainlobe at 0 dB; exact zeros are floored at -100 dB.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

DB_FLOOR = -100.0


@dataclass(eq=False)
class CodeSequence:
    """Unimodular code stored as a real phase vector (radians)."""

    phases: np.ndarray

    def __post_init__(self) -> None:
        phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        if phases.ndim != 1:
            raise ValueError(f"phases must be one-dimensional, got shape {phases.shape}")
        if phases.size < 2:
            raise ValueError(f"code length must be >= 2, got {phases.size}")
        self.phases = phases.copy()

    @property
    def n(self) -> int:
        return self.phases.size

    @property
    def values(self) -> np.ndarray:
        """Complex entries exp(j*phase); unit modulus by construction."""
        return np.exp(1j * self.phases)

    @classmethod
    def from_values(cls, values) -> "CodeSequence":
        """Build from complex entries, keeping only their phases."""
        return cls(phases=np.angle(np.asarray(values, dtype=complex)))


def _int_indices(values, name: str) -> tuple:
    out = set()
    for v in values:
        # True would pass as index 1, and int() of an infinity raises OverflowError
        if isinstance(v, (bool, np.bool_)) or v in (np.inf, -np.inf):
            raise ValueError(f"{name} indices must be finite integers, got {v!r}")
        i = int(v)
        if i != v:
            raise ValueError(f"{name} indices must be integers, got {v!r}")
        out.add(i)
    return tuple(sorted(out))


@dataclass(frozen=True)
class RegionSpec:
    """Delay/Doppler index sets over which AF energy is to be suppressed.

    Index sets are stored sorted and deduplicated, so iteration order is
    deterministic. The mainlobe pair (0, 0) is rejected outright; range
    checks against a concrete code length happen in validate_for.
    """

    delays: tuple
    dopplers: tuple

    def __post_init__(self) -> None:
        delays = _int_indices(self.delays, "delay")
        dopplers = _int_indices(self.dopplers, "Doppler")
        if not delays or not dopplers:
            raise ValueError("both delay and Doppler index sets must be nonempty")
        if 0 in delays and 0 in dopplers:
            raise ValueError("region must not contain the (0, 0) mainlobe bin")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "dopplers", dopplers)

    def validate_for(self, n: int) -> None:
        """Check every index against the ranges allowed for code length n.

        Lags k and k - n, and Doppler bins p and p - n, address the same
        cyclic cell of r, so indices that agree mod n are rejected: the
        region energy would count that cell twice.
        """
        if n < 2:
            raise ValueError(f"code length must be >= 2, got {n}")
        for k in self.delays:
            _check_lag(k, n)
        for p in self.dopplers:
            _check_doppler(p, n)
        for name, indices in (("delay lags", self.delays), ("Doppler bins", self.dopplers)):
            seen = {}
            for i in indices:
                first = seen.setdefault(i % n, i)
                if first != i:
                    raise ValueError(f"{name} {first} and {i} are the same cyclic cell "
                                     f"for n={n}")

    def pairs(self) -> tuple:
        """All (k, p) pairs in a fixed (sorted) iteration order."""
        return tuple(product(self.delays, self.dopplers))

    @property
    def size(self) -> int:
        return len(self.delays) * len(self.dopplers)


def _check_lag(k: int, n: int) -> None:
    if abs(k) > n - 1:
        raise ValueError(f"delay lag {k} outside [-(n-1), n-1] for n={n}")


def _check_doppler(p: int, n: int) -> None:
    # bins run from -ceil(n/2) to ceil(n/2) - 1
    half = (n + 1) // 2
    if not -half <= p <= half - 1:
        raise ValueError(f"Doppler bin {p} outside [{-half}, {half - 1}] for n={n}")


def doppler_phase_vector(p: int, n: int) -> np.ndarray:
    """Diagonal of D_p: entry n is exp(-2j pi n p / N) with 1-based n.

    The last entry is exp(-2j pi p) = 1 for every integer p, and any p is
    reduced mod N implicitly by the exponential. A (P, 1) integer array p
    gives the P diagonals as rows, each bit for bit the one its bin gives.
    """
    if n < 2:
        raise ValueError(f"code length must be >= 2, got {n}")
    idx = np.arange(1, n + 1)
    return np.exp(-2j * np.pi * p * idx / n)


def build_doppler_diag(p: int, n: int) -> np.ndarray:
    """Unitary Doppler modulation matrix D_p (diagonal, n x n)."""
    return np.diag(doppler_phase_vector(p, n))


def build_shift(k: int, n: int) -> np.ndarray:
    """Cyclic shift J_k with (J_k x)[i] = x[(i + k) mod n].

    For k >= 0 this is the block permutation [[0, I_{n-k}], [I_k, 0]];
    negative lags give the transpose (inverse) of the positive shift.
    """
    if n < 2:
        raise ValueError(f"code length must be >= 2, got {n}")
    _check_lag(k, n)
    mat = np.zeros((n, n))
    rows = np.arange(n)
    mat[rows, (rows + k) % n] = 1.0
    return mat


@dataclass(eq=False)
class AFKernel:
    """One (k, p) evaluation kernel: the unitary matrix D_p @ J_k."""

    k: int
    p: int
    matrix: np.ndarray


def build_kernel(k: int, p: int, n: int) -> AFKernel:
    """Assemble the kernel A = D_p @ J_k (unitary as a product of unitaries)."""
    _check_doppler(p, n)
    matrix = doppler_phase_vector(p, n)[:, None] * build_shift(k, n)
    return AFKernel(k=k, p=p, matrix=matrix)


def eval_af(x: CodeSequence, k: int, p: int) -> complex:
    """One ambiguity-function sample r[k, p] = x^H D_p J_k x."""
    n = x.n
    _check_lag(k, n)
    _check_doppler(p, n)
    values = x.values
    rolled = np.roll(values, -k)  # rolled[i] = values[(i + k) mod n]
    return complex(np.sum(np.conj(values) * doppler_phase_vector(p, n) * rolled))


def _lag_spectra(values: np.ndarray, lags) -> np.ndarray:
    """One DFT per lag row of conj(x_i) x[(i + k) mod N], shape (len(lags), N).

    Column p mod N of the row for lag k is r[k, p] times the unit phase
    exp(2j pi p / N), so it carries |r[k, p]| exactly as r does.
    """
    gather = (np.arange(values.size) + np.asarray(lags)[:, None]) % values.size
    return np.fft.fft(np.conj(values) * values[gather], axis=1)


def _region_cells(x: CodeSequence, region: RegionSpec) -> np.ndarray:
    """The region's (K, P) cells, each of magnitude |r[k, p]|, in region.pairs() order.

    The region is checked against the code length; only its lag rows are transformed.
    """
    region.validate_for(x.n)
    return _lag_spectra(x.values, region.delays)[:, np.mod(region.dopplers, x.n)]


def eval_objective(x: CodeSequence, region: RegionSpec) -> float:
    """Suppression-region energy: sum over (k, p) in the region of |r[k, p]|^2."""
    cells = _region_cells(x, region)
    return float(np.sum(cells.real ** 2 + cells.imag ** 2))


def to_db(magnitude, mainlobe: float) -> np.ndarray:
    """20*log10(|r| / mainlobe), floored at DB_FLOOR so zeros stay finite."""
    mag = np.asarray(magnitude, dtype=float)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / mainlobe)
    return np.maximum(db, DB_FLOOR)


@dataclass(eq=False)
class AFGrid:
    """Magnitude of r over every lag (rows) and Doppler bin (columns)."""

    n: int
    lags: np.ndarray
    bins: np.ndarray
    magnitude: np.ndarray
    magnitude_db: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "n": int(self.n),
            "lags": [int(v) for v in self.lags],
            "bins": [int(v) for v in self.bins],
            "magnitude": self.magnitude.tolist(),
            "magnitude_db": self.magnitude_db.tolist(),
        }

    def to_csv(self, path, db: bool = False) -> None:
        """Write the grid as CSV: lag column first, one column per Doppler bin.

        Values carry 17 significant digits. The file is written one row at
        a time, and a row whose bytes equal an earlier row's reuses that
        row's formatted text, so the tiled grid of af_grid (lags k and k - N
        are the same cyclic row) formats only its N distinct rows.
        """
        grid = self.magnitude_db if db else self.magnitude
        row_format = ",%.17g" * grid.shape[1]
        formatted = {}
        with open(path, "w") as fh:
            fh.write("lag," + ",".join(str(int(b)) for b in self.bins) + "\n")
            for lag, row in zip(self.lags, grid):
                key = row.tobytes()
                text = formatted.get(key)
                if text is None:
                    text = formatted[key] = row_format % tuple(row.tolist())
                fh.write(f"{int(lag)}{text}\n")


def af_grid(x: CodeSequence) -> AFGrid:
    """Evaluate |r| on the full (2N-1) x N lag/Doppler grid.

    Doppler columns cover one full period: bins -N/2 .. N/2 - 1 for even N
    and -(N-1)/2 .. (N-1)/2 for odd N. Lags k and k - N are the same cyclic
    row, so only the N distinct rows are transformed, put in bin order and
    converted to dB, and both grids repeat those rows. The mainlobe cell
    (lag 0, bin 0) holds exactly N, which puts it at exactly 0 dB in the
    mainlobe-normalized dB view.
    """
    n = x.n
    lags = np.arange(-(n - 1), n)
    bins = np.arange(n) - n // 2
    distinct = np.abs(_lag_spectra(x.values, np.arange(n)))[:, bins % n]
    distinct[0, n // 2] = n
    rows = lags % n
    return AFGrid(
        n=n,
        lags=lags,
        bins=bins,
        magnitude=distinct[rows],
        magnitude_db=to_db(distinct, float(n))[rows],
    )
