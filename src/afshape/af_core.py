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
for any unimodular code. A region's (K, P) block of r and its energy C are
one product and one vdot, the two the solver's u-step forms its C with, so
every region evaluation has its bits; only af_grid takes FFTs, of lag
rows 0 .. N//2.

Magnitudes are reported in dB as 20*log10(|r| / N), which pins the
mainlobe at 0 dB; exact zeros are floored at -100 dB.
"""

from __future__ import annotations

import numbers
import sys
from collections.abc import Mapping
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


def as_integer(value, name: str, least: int | None = None) -> int:
    """value as an int, or ValueError unless it is a finite integer, not a bool, >= least."""
    if type(value) is not int:  # an exact int skips the checks: pmli_inner reads gamma2 per call
        # True would pass as 1; compared, not converted: int(inf) and float(10**400) overflow
        if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
                or not abs(value) <= sys.float_info.max or int(value) != value):
            raise ValueError(f"{name} must be a finite integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def as_positive(value, name: str) -> float:
    """value as a float, or ValueError unless it is a finite real > 0, not a bool."""
    # bool is a Real; compared, not converted: float(10**400) raises OverflowError
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def _int_indices(value, name: str, check=None) -> tuple:
    # a text or a mapping is one entry, which as_integer refuses unless it is text
    single = isinstance(value, (str, Mapping)) or not np.iterable(value)
    out = set()
    for entry in [value] if single else value:
        if not isinstance(entry, str):
            out.add(as_integer(entry, f"{name} index"))
            continue
        for token in entry.split(","):
            first, sep, last = token.partition("..")
            try:
                lo = int(first)
                hi = int(last) if sep else lo
            except ValueError:
                raise ValueError(f"{name} indices: cannot read {token.strip()!r} in {entry!r} "
                                 f"as an integer or an a..b range") from None
            if lo > hi:
                raise ValueError(f"{name} indices: range {token.strip()!r} is empty")
            if check is not None:  # refuses an end outside the code before expanding
                check(lo)
                check(hi)
            out.update(range(lo, hi + 1))
    return tuple(sorted(out))


@dataclass(frozen=True)
class RegionSpec:
    """Delay/Doppler index sets over which AF energy is to be suppressed.

    Each index set is one entry or a list or tuple of entries (any
    iterable but a mapping). An entry is a finite integral number (5.0
    reads as 5; a bool is refused) or a text of comma-separated integers
    and inclusive a..b ranges ("5..7", "-15..-13,11..14"). This one format
    holds for CLI flags, JSON config files and the library alike. Sets are
    stored sorted and deduplicated, so iteration order is deterministic.
    The mainlobe pair (0, 0) is rejected outright; range checks against a
    concrete code length happen in validate_for (and in for_length).
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

    @classmethod
    def for_length(cls, n: int, delays, dopplers) -> "RegionSpec":
        """RegionSpec(delays, dopplers) with each a..b range's ends checked against n.

        The check comes before a range is expanded, so a range far outside the
        code costs nothing in its length; validate_for(n) checks the rest.
        """
        return cls(_int_indices(delays, "delay", lambda k: _check_lag(k, n)),
                   _int_indices(dopplers, "Doppler", lambda p: _check_doppler(p, n)))

    def validate_for(self, n: int) -> None:
        """Check every index against the ranges allowed for code length n.

        Lags k and k - n, and Doppler bins p and p - n, address the same
        cyclic cell of r, so indices that agree mod n are rejected: the
        region energy would count that cell twice.
        """
        n = _length(n)
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


def _check_lag(k: int, n: int) -> int:
    if abs(k) > n - 1:
        raise ValueError(f"delay lag {k} outside [-(n-1), n-1] for n={n}")
    return k


def _check_doppler(p: int, n: int) -> int:
    # bins run from -ceil(n/2) to ceil(n/2) - 1
    half = (n + 1) // 2
    if not -half <= p <= half - 1:
        raise ValueError(f"Doppler bin {p} outside [{-half}, {half - 1}] for n={n}")
    return p


# every scalar entry point reads its code length, lag and Doppler bin through these;
# a RegionSpec's indices are ints already, so validate_for checks only their range
def _length(n) -> int:
    return as_integer(n, "code length", 2)


def _lag(k, n: int) -> int:
    return _check_lag(as_integer(k, "delay lag"), n)


def _bin(p, n: int) -> int:
    return _check_doppler(as_integer(p, "Doppler bin"), n)


def _doppler_rows(p, n: int) -> np.ndarray:
    # a (P, 1) integer array p gives the P diagonals as rows, each bit for bit its bin's
    return np.exp(-2j * np.pi * p * np.arange(1, n + 1) / n)


def doppler_phase_vector(p: int, n: int) -> np.ndarray:
    """Diagonal of D_p: entry n is exp(-2j pi n p / N) with 1-based n.

    The last entry is exp(-2j pi p) = 1 for every integer p, and any
    integer p is reduced mod N implicitly by the exponential.
    """
    return _doppler_rows(as_integer(p, "Doppler bin"), _length(n))


def build_doppler_diag(p: int, n: int) -> np.ndarray:
    """Unitary Doppler modulation matrix D_p (diagonal, n x n)."""
    return np.diag(doppler_phase_vector(p, n))


def build_shift(k: int, n: int) -> np.ndarray:
    """Cyclic shift J_k with (J_k x)[i] = x[(i + k) mod n].

    For k >= 0 this is the block permutation [[0, I_{n-k}], [I_k, 0]];
    negative lags give the transpose (inverse) of the positive shift.
    """
    n = _length(n)
    k = _lag(k, n)
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
    n = _length(n)
    k, p = _lag(k, n), _bin(p, n)
    matrix = _doppler_rows(p, n)[:, None] * build_shift(k, n)
    return AFKernel(k=k, p=p, matrix=matrix)


def eval_af(x: CodeSequence, k: int, p: int) -> complex:
    """One ambiguity-function sample r[k, p] = x^H D_p J_k x, a one-cell region block."""
    k, p = _lag(k, x.n), _bin(p, x.n)
    return complex(_region_product(x.values, *_region_tables(x.n, [k], [p]))[1][0, 0])


def _region_tables(n: int, delays, dopplers) -> tuple:
    """(K, N) shift_idx, row a holding (i + delays[a]) mod N, and the (P, N) rows of D_p."""
    shift_idx = (np.arange(n) + np.array(delays)[:, None]) % n
    return shift_idx, _doppler_rows(np.array(dopplers)[:, None], n)


def _region_product(values: np.ndarray, shift_idx: np.ndarray, doppler_rows: np.ndarray) -> tuple:
    """(x[shift_idx], r): r = (x[shift_idx] * conj x) F^T is the (K, P) block, F the rows of D_p."""
    shifted = values[shift_idx]
    return shifted, (shifted * values.conj()) @ doppler_rows.T


def _energy(r: np.ndarray) -> float:
    """sum |r|^2 as one vdot of r's float view, so a block conjugated in place keeps the bits."""
    return float(np.vdot(r.view(float), r.view(float)))


def _region_cells(x: CodeSequence, region: RegionSpec) -> np.ndarray:
    """The region's (K, P) block of r[k, p], flat in region.pairs() order; checks the region."""
    region.validate_for(x.n)
    return _region_product(x.values, *_region_tables(x.n, region.delays, region.dopplers))[1]


def eval_objective(x: CodeSequence, region: RegionSpec) -> float:
    """Suppression-region energy: sum over (k, p) in the region of |r[k, p]|^2."""
    return _energy(_region_cells(x, region))


def to_db(magnitude, mainlobe: float) -> np.ndarray:
    """20*log10(|r| / mainlobe), floored at DB_FLOOR so zeros stay finite."""
    mag = np.asarray(magnitude, dtype=float)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / mainlobe)
    return np.maximum(db, DB_FLOOR)


@dataclass(eq=False)
class AFGrid:
    """|r| over the N cyclic lag rows (row k is lags k and k - N) and N Doppler bins.

    code is the code the grid was built from, a copy of it, so a caller
    handed a grid can check it belongs to its code; a hand-built grid may
    leave it out.
    """

    n: int
    bins: np.ndarray
    magnitude: np.ndarray
    magnitude_db: np.ndarray
    code: CodeSequence | None = None


def _mirror_columns(n: int) -> np.ndarray:
    """Entry j is the grid column of bin -b, b being column j's bin, read mod n.

    That is the columns reversed for odd n; for even n, column 0 (bin -n/2,
    its own negation mod n) stays and the rest are reversed.
    """
    return (2 * (n // 2) - np.arange(n)) % n


def af_grid(x: CodeSequence) -> AFGrid:
    """|r| on the N x N grid: row k is lags k and k - N, columns are Doppler bins.

    The bins cover one full period: -N/2 .. N/2 - 1 for even N and
    -(N-1)/2 .. (N-1)/2 for odd N; the CLI writes all 2N - 1 lags from the N rows.
    The mainlobe cell (row 0, bin 0) holds exactly N, so it reads exactly 0 dB.
    Row k is the DFT of conj(x_i) x[(i + k) mod N], r[k, p] up to a unit phase.

    The periodic AF has the point symmetry |r(-k, p)| = |r(k, -p)|: row N - k
    is row k read at bin -p. So only rows 0 .. N//2 are transformed, and row
    N - k, for k = 1 .. ceil(N/2) - 1, is row k in _mirror_columns(n) order,
    a copy bit for bit, as is its magnitude_db.
    """
    n = x.n
    values = x.values
    bins = np.arange(n) - n // 2
    lag_rows = np.conj(values) * values[(np.arange(n) + np.arange(n // 2 + 1)[:, None]) % n]
    magnitude = np.empty((n, n))
    magnitude[:n // 2 + 1] = np.abs(np.fft.fft(lag_rows, axis=1))[:, bins % n]
    mirrored = np.arange(1, (n + 1) // 2)
    magnitude[n - mirrored] = magnitude[mirrored[:, None], _mirror_columns(n)]
    magnitude[0, n // 2] = n
    return AFGrid(n=n, bins=bins, magnitude=magnitude,
                  magnitude_db=to_db(magnitude, float(n)), code=CodeSequence(x.phases))
