"""Core value types and coefficient-level operations.

Everything downstream works with Laurent coefficient sequences on a finite
support window, uniform FFT grids on the unit circle, and weighted norms.
Conventions used throughout the package:

* grid points are ``z_j = exp(2 pi i j / N)`` for ``j = 0 .. N-1``;
* ``to_grid`` evaluates ``sum_n c(n) z^n`` at those points, ``from_grid``
  recovers coefficients by the inverse DFT, so a window of width ``< N``
  round-trips exactly;
* the circle carries normalized measure, hence the quadrature of a grid
  function is the plain mean of its samples and the L2 norm of a sequence
  equals the l2 norm of its coefficients;
* the Sobolev norm is the square root of
  ``sum_n (1+n^2)^s |c(n)|^2`` (square-root convention, kept consistent
  with ``fractional_derivative``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ConsistencyError,
    GridSizeError,
    NumericalError,
    ValidationError,
    VanishingSymbolError,
    WeightError,
)

__all__ = [
    "CoefficientSequence",
    "GridFunction",
    "NlftPair",
    "BeurlingWeight",
    "to_grid",
    "from_grid",
    "star_reflect",
    "convolve",
    "reciprocal_on_grid",
    "reciprocal_residual",
    "weighted_l1_norm",
    "sobolev_norm",
    "fractional_derivative",
    "derivative",
    "default_grid_size",
    "pair_from_sequences",
    "determinant_residual",
    "sequences_allclose",
]

MIN_MODULUS = 1e-6  # smallest |symbol| on the grid that division accepts
MAX_GRID = 1 << 18  # largest grid a data-dependent size doubles to


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Compactly supported sequence of Laurent coefficients.

    ``coeffs[k]`` is the coefficient of ``z**(support_lo + k)``.  The
    canonical empty (zero) sequence has ``support_lo == 0``,
    ``support_hi == -1`` and no coefficients.  Instances are immutable;
    operations return new sequences.
    """

    support_lo: int
    support_hi: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValidationError("coeffs must be one-dimensional")
        expected = self.support_hi - self.support_lo + 1
        if expected < 0:
            if expected != 0 or arr.size != 0:
                raise ValidationError(
                    f"support [{self.support_lo}, {self.support_hi}] is invalid"
                )
        elif arr.size != expected:
            raise ValidationError(
                f"support [{self.support_lo}, {self.support_hi}] needs "
                f"{expected} coefficients, got {arr.size}"
            )
        if arr.size and not np.all(np.isfinite(arr.view(np.float64))):
            raise ValidationError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "CoefficientSequence":
        return cls(0, -1, np.zeros(0, dtype=np.complex128))

    @classmethod
    def from_dict(cls, entries: Mapping[int, complex]) -> "CoefficientSequence":
        """Build from an index -> value mapping; gaps are filled with zeros."""
        if not entries:
            return cls.empty()
        lo = min(entries)
        hi = max(entries)
        arr = np.zeros(hi - lo + 1, dtype=np.complex128)
        for n, v in entries.items():
            arr[n - lo] = v
        return cls(lo, hi, arr)

    @classmethod
    def single(cls, n: int, value: complex) -> "CoefficientSequence":
        return cls(n, n, np.array([value], dtype=np.complex128))

    @classmethod
    def constant(cls, value: complex) -> "CoefficientSequence":
        return cls.single(0, value)

    # -- basic queries -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.coeffs.size == 0

    @property
    def width(self) -> int:
        """Number of slots in the support window (0 for the empty sequence)."""
        return self.coeffs.size

    def indices(self) -> np.ndarray:
        return np.arange(self.support_lo, self.support_hi + 1)

    def coefficient(self, n: int) -> complex:
        """Coefficient of ``z**n`` (zero outside the stored window)."""
        if self.is_empty or n < self.support_lo or n > self.support_hi:
            return 0.0 + 0.0j
        return complex(self.coeffs[n - self.support_lo])

    def to_dict(self) -> dict[int, complex]:
        return {int(n): complex(c) for n, c in zip(self.indices(), self.coeffs)}

    def __repr__(self) -> str:
        if self.is_empty:
            return "CoefficientSequence.empty()"
        return (
            f"CoefficientSequence([{self.support_lo}, {self.support_hi}], "
            f"{self.coeffs!r})"
        )

    # -- algebra -----------------------------------------------------------

    def shift(self, k: int) -> "CoefficientSequence":
        """Multiply by ``z**k`` (shift the support window)."""
        if self.is_empty:
            return self
        return CoefficientSequence(self.support_lo + k, self.support_hi + k, self.coeffs)

    def scale(self, factor: complex) -> "CoefficientSequence":
        if self.is_empty:
            return self
        return CoefficientSequence(self.support_lo, self.support_hi, self.coeffs * factor)

    def conjugate(self) -> "CoefficientSequence":
        """Entrywise complex conjugation (support unchanged)."""
        if self.is_empty:
            return self
        return CoefficientSequence(self.support_lo, self.support_hi, np.conj(self.coeffs))

    def trim(self, tol: float = 0.0) -> "CoefficientSequence":
        """Drop leading/trailing coefficients with ``|c| <= tol``."""
        if self.is_empty:
            return self
        mags = np.abs(self.coeffs)
        keep = np.nonzero(mags > tol)[0]
        if keep.size == 0:
            return CoefficientSequence.empty()
        lo, hi = keep[0], keep[-1]
        return CoefficientSequence(
            self.support_lo + int(lo), self.support_lo + int(hi), self.coeffs[lo : hi + 1]
        )

    def clamp(self, tol: float) -> "CoefficientSequence":
        """Zero every entry with ``|c| < tol`` and trim the support."""
        if self.is_empty:
            return self
        arr = np.array(self.coeffs)
        arr[np.abs(arr) < tol] = 0.0
        return CoefficientSequence(self.support_lo, self.support_hi, arr).trim()

    def restrict(self, lo: int, hi: int) -> "CoefficientSequence":
        """Restriction to indices in ``[lo, hi]`` (empty if disjoint)."""
        if self.is_empty or hi < lo:
            return CoefficientSequence.empty()
        new_lo = max(lo, self.support_lo)
        new_hi = min(hi, self.support_hi)
        if new_hi < new_lo:
            return CoefficientSequence.empty()
        a = new_lo - self.support_lo
        b = new_hi - self.support_lo
        return CoefficientSequence(new_lo, new_hi, self.coeffs[a : b + 1])

    def __add__(self, other: "CoefficientSequence") -> "CoefficientSequence":
        if not isinstance(other, CoefficientSequence):
            return NotImplemented
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = min(self.support_lo, other.support_lo)
        hi = max(self.support_hi, other.support_hi)
        arr = np.zeros(hi - lo + 1, dtype=np.complex128)
        arr[self.support_lo - lo : self.support_hi - lo + 1] += self.coeffs
        arr[other.support_lo - lo : other.support_hi - lo + 1] += other.coeffs
        return CoefficientSequence(lo, hi, arr)

    def __neg__(self) -> "CoefficientSequence":
        return self.scale(-1.0)

    def __sub__(self, other: "CoefficientSequence") -> "CoefficientSequence":
        if not isinstance(other, CoefficientSequence):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CoefficientSequence):
            return convolve(self, other)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def l2_norm(self) -> float:
        return _scaled_norm(self.coeffs, np.linalg.norm)

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples of a function at the ``n_points`` roots of unity."""

    n_points: int
    samples: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if arr.ndim != 1 or arr.size != self.n_points:
            raise ValidationError("samples must be a vector of length n_points")
        _check_grid(self.n_points)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True, eq=False)
class NlftPair:
    """A transform pair ``(a, b)`` with its determinant residual.

    ``grid_residual`` is ``max_j | |a(z_j)|^2 + |b(z_j)|^2 - 1 |`` on the
    grid it was computed with.  ``NlftPair(a, b, r)`` holds ``r``; a pair
    from ``pair_from_sequences`` (so from ``nlft_forward``) or
    ``inverse.reflect_pair`` computes it when first read and caches it.
    Construction never raises on a large residual; consumers that
    require the identity check it explicitly.
    """

    a: CoefficientSequence
    b: CoefficientSequence
    grid_residual: float


class _LazyPair(NlftPair):
    """An ``NlftPair`` whose ``grid_residual`` is ``self._residual()``,
    called when first read and then cached.  Made by ``_lazy_pair``;
    built as ``_LazyPair(a, b, r)``, like ``NlftPair``, it holds ``r``.
    """

    @functools.cached_property
    def grid_residual(self) -> float:
        return self._residual()


def _lazy_pair(a: CoefficientSequence, b: CoefficientSequence,
               residual: Callable[[], float]) -> NlftPair:
    """The pair ``(a, b)`` whose residual is ``residual()``, on first read."""
    pair = object.__new__(_LazyPair)
    for name, value in (("a", a), ("b", b), ("_residual", residual)):
        object.__setattr__(pair, name, value)
    return pair


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


class BeurlingWeight:
    """Symmetric submultiplicative weight ``w : Z -> [1, inf)``.

    Built-in kinds are the constant weight and the polynomial family
    ``w(n) = (1 + |n|)**alpha``.  Custom evaluators are spot-checked for
    symmetry, ``w >= 1`` and submultiplicativity on a sample range; the
    subexponential growth condition cannot be verified pointwise, so a
    custom weight must be constructed with ``attested=True`` by a caller
    who vouches for it.
    """

    def __init__(self, kind: str, alpha: float = 0.0,
                 evaluator: Callable[[np.ndarray], np.ndarray] | None = None,
                 attested: bool = False):
        if kind not in ("one", "poly", "custom"):
            raise WeightError(f"unknown weight kind {kind!r}")
        if kind == "poly" and not 0 <= alpha < np.inf:  # NaN fails too
            raise WeightError("polynomial weight needs a finite alpha >= 0")
        if kind == "custom":
            if evaluator is None:
                raise WeightError("custom weight needs an evaluator")
            if not attested:
                raise WeightError(
                    "custom weight requires attested=True (subexponential "
                    "growth cannot be spot-checked)"
                )
        self.kind = kind
        self.alpha = float(alpha)
        self._evaluator = evaluator
        self._validated_up_to = 0
        if kind == "custom":
            self.validate_range(64)

    @classmethod
    def one(cls) -> "BeurlingWeight":
        return cls("one")

    @classmethod
    def polynomial(cls, alpha: float) -> "BeurlingWeight":
        return cls("poly", alpha=alpha)

    @classmethod
    def custom(cls, evaluator: Callable[[np.ndarray], np.ndarray],
               attested: bool = False) -> "BeurlingWeight":
        return cls("custom", evaluator=evaluator, attested=attested)

    @classmethod
    def from_descriptor(cls, desc: str) -> "BeurlingWeight":
        """Parse ``"one"`` or ``"poly:alpha=<float>"``."""
        desc = desc.strip()
        if desc == "one":
            return cls.one()
        if desc.startswith("poly:"):
            body = desc[len("poly:"):]
            if not body.startswith("alpha="):
                raise WeightError(f"bad weight descriptor {desc!r}")
            try:
                return cls.polynomial(float(body[len("alpha="):]))
            except ValueError as exc:
                raise WeightError(f"bad weight descriptor {desc!r}") from exc
        raise WeightError(f"bad weight descriptor {desc!r}")

    @property
    def descriptor(self) -> str:
        if self.kind == "one":
            return "one"
        if self.kind == "poly":
            return f"poly:alpha={self.alpha:g}"
        return "custom"

    def __call__(self, n) -> np.ndarray:
        n = np.asarray(n)
        if self.kind == "one":
            return np.ones(n.shape, dtype=np.float64)
        if self.kind == "poly":
            return (1.0 + np.abs(n)) ** self.alpha
        return np.asarray(self._evaluator(n), dtype=np.float64)

    def validate_range(self, max_index: int) -> None:
        """Spot-check symmetry, w >= 1 and submultiplicativity up to max_index."""
        if self.kind != "custom" or max_index <= self._validated_up_to:
            return
        ns = np.arange(-max_index, max_index + 1)
        vals = self(ns)
        if np.any(vals < 1.0 - 1e-12):
            raise WeightError("weight must satisfy w(n) >= 1")
        if not np.allclose(vals, vals[::-1], rtol=0, atol=1e-12):
            raise WeightError("weight must be symmetric")
        # submultiplicativity on a coarse grid of index pairs
        probe = np.unique(np.concatenate([
            np.arange(0, min(max_index, 16) + 1),
            np.linspace(0, max_index, 9, dtype=int),
        ]))
        wp = self(probe)
        for i, n in enumerate(probe):
            m = probe[: probe.size - i]
            lhs = self(n + m)
            if np.any(lhs > wp[i] * wp[: m.size] * (1 + 1e-12)):
                raise WeightError("weight must be submultiplicative")
        self._validated_up_to = max_index

    def __repr__(self) -> str:
        return f"BeurlingWeight({self.descriptor!r})"


# ---------------------------------------------------------------------------
# grid transforms
# ---------------------------------------------------------------------------


def _power_of_two_at_least(m: int) -> int:
    """Smallest power of two >= max(m, 8)."""
    n = 8
    while n < m:
        n *= 2
    return n


def default_grid_size(width: int) -> int:
    """Smallest power of two >= 8 * (width + 1)."""
    return _power_of_two_at_least(8 * (width + 1))


def _pair_grid(pair: NlftPair) -> int:
    """Default grid for checks on a pair: sized by its wider entry."""
    return default_grid_size(max(pair.a.width, pair.b.width))


def _doubling_grid(start: int, measure, target: float, what: str,
                   cap: int = MAX_GRID):
    """First ``(n, result)`` on ``n = start, 2 start, ...`` whose
    ``measure(n) = (error, result)`` has ``error <= target`` (never a NaN).

    Raises ``ConsistencyError`` when ``2 n`` would pass ``cap``, and
    before any measure when ``start`` already does.
    """
    if start > cap:
        raise ConsistencyError(f"{what}: the start grid of {start} points is "
                               f"above {cap}, the largest grid allowed")
    n = start
    while True:
        error, result = measure(n)
        if error <= target:
            return n, result
        if 2 * n > cap:
            raise ConsistencyError(f"{what}: error {error:.3e} > {target:.1e} "
                                   f"on {n} points, the largest grid allowed")
        n *= 2


def _check_grid(n_points: int) -> None:
    """The power-of-two rule of every grid."""
    if n_points < 1 or n_points & (n_points - 1):
        raise GridSizeError(f"grid size {n_points} is not a power of two")


def _check_fits(width: int, n_points: int) -> None:
    """The grid rule of the exact samplers: a power of two above ``width``."""
    _check_grid(n_points)
    if width > n_points - 1:
        raise GridSizeError(
            f"support width {width} does not fit on a {n_points}-point grid"
        )


def _grid_coeffs(s: CoefficientSequence, n_points: int) -> np.ndarray:
    """The coefficients of ``s`` laid out as ``fft(samples, norm="forward")``
    of its samples on the grid; requires ``width <= n_points - 1``."""
    _check_fits(s.width, n_points)
    spec = np.zeros(n_points, dtype=np.complex128)
    if not s.is_empty:
        idx = np.arange(s.support_lo, s.support_hi + 1) % n_points
        spec[idx] = s.coeffs
    return spec


def _eval_samples(s: CoefficientSequence, n_points: int) -> np.ndarray:
    """Samples of ``s`` on the grid; only requires ``width <= n_points - 1``.

    Internal helper: public ``to_grid`` additionally enforces 4x
    oversampling of the support.
    """
    return np.fft.ifft(_grid_coeffs(s, n_points), norm="forward")


def to_grid(s: CoefficientSequence, n_points: int) -> GridFunction:
    """Evaluate ``sum_n c(n) z^n`` at the ``n_points`` roots of unity.

    Parameters
    ----------
    s : CoefficientSequence
    n_points : int
        Power of two with ``n_points >= 4 * (width + 1)``.

    Returns
    -------
    GridFunction
    """
    _check_oversampled(s.width, n_points)
    return GridFunction(n_points, _eval_samples(s, n_points))


def _check_oversampled(width: int, n_points: int) -> None:
    """The grid rule of ``to_grid``: a power of two ``>= 4 (width + 1)``."""
    _check_grid(n_points)
    if n_points < 4 * (width + 1):
        raise GridSizeError(
            f"grid size {n_points} too small for support width {width} "
            f"(need at least {4 * (width + 1)})"
        )


def _window_coeffs(samples: np.ndarray, lo: int, hi: int) -> np.ndarray:
    n_points = samples.size
    if hi - lo + 1 > n_points - 1:
        raise GridSizeError(
            f"window [{lo}, {hi}] wider than {n_points - 1} aliases on the grid"
        )
    c = np.fft.fft(samples, norm="forward")
    return c[np.arange(lo, hi + 1) % n_points]


def _window_multiply(coeffs: np.ndarray, x: np.ndarray, in_lo: int,
                     out_lo: int, out_hi: int) -> np.ndarray:
    """Rows ``out_lo..out_hi`` of the grid product of a multiplier, given
    by ``coeffs = fft(samples, norm="forward")``, with the columns of
    ``x`` on rows ``in_lo, in_lo + 1, ...``: ``sum_k coeffs[(m - k) % N]
    x_k``, a linear convolution with the segment of ``coeffs`` that
    reaches the output, by FFTs of window size along axis 0."""
    in_w, out_w = x.shape[0], out_hi - out_lo + 1
    seg = coeffs[np.arange(out_lo - in_lo - in_w + 1, out_hi - in_lo + 1)
                 % coeffs.size]
    size = _power_of_two_at_least(out_w + in_w - 1)
    prod = np.fft.fft(seg, size)[:, None] * np.fft.fft(x, size, axis=0)
    return np.fft.ifft(prod, axis=0)[in_w - 1 : in_w - 1 + out_w]


def from_grid(g: GridFunction, window: tuple[int, int]) -> CoefficientSequence:
    """Fourier coefficients of a grid function on an index window.

    The window ``[lo, hi]`` must have width at most ``n_points - 1``;
    coefficients are read off the DFT, so indices are taken mod
    ``n_points`` (tails beyond the grid alias, which is why the width is
    capped).
    """
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        return CoefficientSequence.empty()
    return CoefficientSequence(lo, hi, _window_coeffs(g.samples, lo, hi))


# ---------------------------------------------------------------------------
# sequence operations
# ---------------------------------------------------------------------------


def star_reflect(s: CoefficientSequence) -> CoefficientSequence:
    """The star dual ``s*(z) = conj(s(1 / conj(z)))``.

    On coefficients this is ``s*(n) = conj(s(-n))``: reverse the support
    window and conjugate.  An involution.
    """
    if s.is_empty:
        return s
    return CoefficientSequence(-s.support_hi, -s.support_lo, np.conj(s.coeffs[::-1]))


def convolve(s: CoefficientSequence, t: CoefficientSequence) -> CoefficientSequence:
    """Coefficient convolution, i.e. the product of the Laurent series."""
    if s.is_empty or t.is_empty:
        return CoefficientSequence.empty()
    return CoefficientSequence(
        s.support_lo + t.support_lo,
        s.support_hi + t.support_hi,
        np.convolve(s.coeffs, t.coeffs),
    )


def _nonvanishing(samples: np.ndarray, name: str) -> np.ndarray:
    """``samples``, checked to stay ``MIN_MODULUS`` away from zero."""
    small = float(np.min(np.abs(samples)))
    if small < MIN_MODULUS:
        raise VanishingSymbolError(
            f"min |{name}| = {small:.3e} < {MIN_MODULUS:.3e} on the grid"
        )
    return samples


def reciprocal_on_grid(
    s: CoefficientSequence,
    n_points: int,
    window: tuple[int, int],
) -> CoefficientSequence:
    """Windowed coefficients of ``1 / s`` computed by grid division.

    Raises
    ------
    VanishingSymbolError
        If ``min_j |s(z_j)| < MIN_MODULUS``; division close to a zero on
        the circle is meaningless (Szego-type failure).
    """
    samples = _nonvanishing(to_grid(s, n_points).samples, "s")
    return from_grid(GridFunction(n_points, 1.0 / samples), window)


def reciprocal_residual(
    s: CoefficientSequence, recip: CoefficientSequence, n_points: int
) -> float:
    """``max_j |s(z_j) * recip(z_j) - 1|``: quality of a windowed reciprocal."""
    prod = _eval_samples(s, n_points) * _eval_samples(recip, n_points)
    return float(np.max(np.abs(prod - 1.0)))


def weighted_l1_norm(s: CoefficientSequence, w: BeurlingWeight) -> float:
    """Weighted coefficient norm ``sum_n |c(n)| w(n)``; ``NumericalError``
    when it is beyond the double range.  Every term is positive, so a
    term or partial sum that overflows means the norm does."""
    if s.is_empty:
        return 0.0
    w.validate_range(2 * max(abs(s.support_lo), abs(s.support_hi)))
    with np.errstate(over="ignore"):
        norm = float(np.sum(np.abs(s.coeffs) * w(s.indices())))
    if norm == math.inf:
        raise NumericalError("a weighted l1 norm is beyond the double range")
    return norm


def _scaled_norm(coeffs: np.ndarray, norm) -> float:
    """``norm(coeffs)``, taken on ``coeffs / 2^e`` with ``2^e`` above every
    real and imaginary part, so no square overflows, and multiplied back:
    exact scalings, so every finite result keeps its bits.  A norm beyond
    the double range raises ``NumericalError``."""
    parts = coeffs.view(np.float64)
    e = math.frexp(float(np.max(np.abs(parts), initial=0.0)))[1]
    scaled = float(norm(np.ldexp(parts, -e).view(np.complex128)))
    try:
        return math.ldexp(scaled, e)
    except OverflowError:
        raise NumericalError(f"a norm of {scaled!r} * 2^{e} is beyond the "
                             "double range") from None


def sobolev_norm(s: CoefficientSequence, order: float) -> float:
    """``sqrt( sum_n (1 + n^2)**order |c(n)|^2 )``."""
    if s.is_empty:
        return 0.0
    n = s.indices().astype(np.float64)
    w = (1.0 + n * n) ** order
    return _scaled_norm(s.coeffs, lambda c: np.sqrt(np.sum(w * np.abs(c) ** 2)))


def fractional_derivative(s: CoefficientSequence, sigma: float) -> CoefficientSequence:
    """Multiply coefficient ``n`` by ``(1 + n^2)**(sigma / 2)``.

    The l2 norm of the result is ``sobolev_norm(s, sigma)``; ``sigma = 0``
    is the identity.
    """
    if s.is_empty:
        return s
    n = s.indices().astype(np.float64)
    return CoefficientSequence(
        s.support_lo, s.support_hi, s.coeffs * (1.0 + n * n) ** (sigma / 2.0)
    )


def derivative(s: CoefficientSequence) -> CoefficientSequence:
    """Spectral derivative in the circle variable: coefficient n -> i n c(n)."""
    if s.is_empty:
        return s
    return CoefficientSequence(
        s.support_lo, s.support_hi, s.coeffs * (1j * s.indices())
    )


# ---------------------------------------------------------------------------
# pair helpers
# ---------------------------------------------------------------------------


def _power_samples(seqs, n_points: int) -> np.ndarray:
    """Real samples of ``sum_s |s(z_j)|^2`` on the grid; each ``s`` needs
    ``width <= n_points - 1``.

    The coefficients of ``sum_s |s|^2`` are the summed autocorrelations,
    taken by FFTs of window size ``m = 2 p2(max width)``, which hold
    every lag without wrapping.  One real inverse FFT of length
    ``n_points`` samples them; when ``m >= n_points`` the lags are first
    folded mod ``n_points``.  Either way the samples are exact.
    """
    width = max(s.width for s in seqs)
    _check_fits(width, n_points)
    m = 2 * _power_of_two_at_least(width)
    padded = np.zeros((len(seqs), m), dtype=np.complex128)
    for row, s in zip(padded, seqs):
        row[: s.width] = s.coeffs
    spec = np.fft.fft(padded)
    power = np.sum(spec.real ** 2 + spec.imag ** 2, axis=0)
    if m >= n_points:
        lags = np.fft.ifft(power).reshape(m // n_points, n_points).sum(axis=0)
    else:  # lags 0 .. m/2 - 1; the negative ones are their conjugates
        lags = np.fft.ihfft(power)[: m // 2]
    return np.fft.irfft(lags[: n_points // 2 + 1], n_points, norm="forward")


def determinant_residual(
    a: CoefficientSequence, b: CoefficientSequence, n_points: int
) -> float:
    """``max_j | |a(z_j)|^2 + |b(z_j)|^2 - 1 |`` on the grid, from the
    autocorrelations of ``a`` and ``b`` (``_power_samples``)."""
    return float(np.max(np.abs(_power_samples((a, b), n_points) - 1.0)))


def pair_from_sequences(
    a: CoefficientSequence, b: CoefficientSequence, n_points: int | None = None
) -> NlftPair:
    """Bundle ``(a, b)`` with their determinant residual on ``n_points``,
    by default ``default_grid_size`` of the wider entry.

    The residual is ``determinant_residual(a, b, n_points)``, computed
    when ``grid_residual`` is first read and then cached; a grid that
    cannot hold both entries raises ``GridSizeError`` here.
    """
    width = max(a.width, b.width)
    if n_points is None:
        n_points = default_grid_size(width)
    _check_fits(width, n_points)
    return _lazy_pair(a, b, functools.partial(determinant_residual, a, b,
                                              n_points))


def sequences_allclose(
    s: CoefficientSequence, t: CoefficientSequence, tol: float = 0.0
) -> bool:
    """Max-norm comparison over the union of the supports."""
    return max_abs_difference(s, t) <= tol


def max_abs_difference(s: CoefficientSequence, t: CoefficientSequence) -> float:
    d = s - t
    if d.is_empty:
        return 0.0
    return float(np.max(np.abs(d.coeffs)))
