"""Inverse transform by truncated Riemann-Hilbert solves and layer stripping.

For a truncation index ``n`` the pair of the restricted sequence
``(F_k)_{k <= n}`` solves the projected linear system

    a_n* = 1/a_n*(0) - P_+((b*/a) b_n),      b_n = P_{<=n}((b/a*) a_n*),

or, with ``x = (A, B) = a_n*(0) (a_n*, b_n)`` renormalized,

    (Id + M) x = (1, 0),
    M = [[0, P_+ (b*/a) P_{<=n}], [-P_{<=n} (b/a*) P_+, 0]].

``M`` is skew-adjoint, so ``Id + M`` has spectrum on ``1 + iR`` and the
inverse is a 2-norm contraction.  Since ``b/a*`` has no coefficients
below ``lo = lo(b)``, ``B`` lives on ``[lo, n]`` and ``A - 1`` on
``[0, n - lo]``.  With ``T`` the lower-triangular Toeplitz matrix of the
coefficients ``c`` of ``b/a*`` on ``[lo, n]``, the two block rows read
``A = e_0 - T^H B`` and ``B = T A``; eliminating ``A`` leaves

    (I + T T^H) B = c.

``rh_solve`` factors this matrix densely for its one index.  Layer
stripping needs every index of a window.  The matrix for index ``n`` is
the leading principal block of the one for the largest index, so the
Cholesky factor ``L`` of the largest one serves them all, and stripping
reads only its diagonal and ``y = L^{-1} c``.  ``T`` commutes with the
down-shift ``Z``, so ``K = I + T T^H`` has displacement rank two with
both signs positive:

    K - Z K Z^H = e_0 e_0^H + c c^H.

The generalized Schur algorithm (Kailath & Sayed, SIAM Rev. 1995) then
produces ``L`` column by column from the generators ``(e_0, c)``.  Step
``k`` rotates their leading entries ``(alpha, beta)`` by a unitary 2x2
rotation to ``(L_kk, 0)``, ``L_kk = hypot(alpha, beta)``.  The rotated
first generator is column ``k`` of ``L`` and moves one row down for the
next step; the second drops its leading zero.  One step of
column-oriented forward substitution per column streams ``y``.  The
pass takes O(N^2) time and O(N) memory and forms no N x N array.

With ``j = n - lo``, ``B_j = y_j / L_jj`` is the last entry of
``B = L^{-H} y``, the pivot is ``L_jj = 1 / a_n*(0)``, and
``sum_{i <= j} |y_i|^2 = c^H K^{-1} c = 1 - a_n*(0)^2`` (with ``K`` and
``c`` cut to their leading ``j + 1`` rows).
The potential is read off one index at a time:

    F_n = b_n^(n) / a_n*(0) = y_j L_jj

(the layer-stripping formula), which never divides by the
cancellation-prone ``1 - sum |y_i|^2``.  The pivot identity
``1 - sum_{i <= j} |y_i|^2 = 1 / L_jj^2`` computes ``a_n*(0)^2`` twice,
from the substitution and from the rotations; its gap is the residual
of a stripping record.  It is taken in this form, not multiplied
through by ``L_jj^2``, because the rounding of order ``eps`` in the
sum would then grow by ``L_jj^2 = 1 / a_n*(0)^2`` and fail accurate
strips of large potentials.  The
method is the Riemann-Hilbert-Weiss algorithm of Alexis, Lin,
Mnatsakanyan, Thiele & Wang (arXiv 2407.05634).  The pass starts at
``lo(b)`` whatever the sign of the indices, so one pass up to the top
index of a window strips all of it, negative indices included.

Stripping forms neither ``c`` nor a grid.  With ``T_{a*}`` and ``T_b``
the lower-triangular Toeplitz matrices of ``a*`` on ``[0, hi - lo(b)]``
and of ``b`` on ``[lo(b), hi]``, ``T = T_{a*}^{-1} T_b``, so

    I + T T^H = T_{a*}^{-1} K' T_{a*}^{-H},   K' - Z K' Z^H = a* a*^H + b b^H

for ``K' = T_{a*} T_{a*}^H + T_b T_b^H``, and the same pass on the
generators ``(a*, b)`` gives the diagonal of the Cholesky factor ``L'``
of ``K'`` and ``L'^{-1} b``.  ``T_{a*}`` has diagonal
``a*(0) = |a*(0)| e^{i phi}``, so ``L_jj = L'_jj / |a*(0)|`` and
``y = e^{-i phi} L'^{-1} b``.  This needs ``a*(0) != 0``, which the
hypothesis of stripping, ``a*`` outer (no zeros in the closed disk),
implies.  ``rh_solve`` and ``apply_m`` still sample ``b/a*`` on a grid
(``RhSystem``), and serve as the reference stripping is tested against.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BeurlingWeight,
    CoefficientSequence,
    NlftPair,
    _lazy_pair,
    _power_of_two_at_least,
    _window_coeffs,
    _window_multiply,
    max_abs_difference,
    star_reflect,
    weighted_l1_norm,
)
from .errors import (
    ConsistencyError,
    ConvergenceError,
    GridSizeError,
    ValidationError,
)
from .forward import CLAMP_TOL, _forward_sequences, nlft_forward
from .spectral import (DEFAULT_SZEGO_MARGIN, _b_lo, _ratio_grid,
                       _symbol_samples, grid_quotient, outer_complement,
                       require_outer)

logger = logging.getLogger(__name__)

__all__ = [
    "RhSystem",
    "RhSolution",
    "apply_m",
    "rh_solve",
    "layer_strip",
    "layer_strip_detailed",
    "inverse_nlft",
    "inverse_nlft_detailed",
    "InverseReport",
    "reflect_pair",
    "solvability_certificate",
    "first_certified_index",
]

DEFAULT_SOLVER_TOL = 1e-12
IMAG_TOL = 1e-10  # allowed imaginary leakage in the leading solution entry


@dataclass(eq=False)
class RhSystem:
    """Truncated Riemann-Hilbert system at one truncation index.

    Immutable after construction.  ``sym_b_over_astar`` and
    ``sym_bstar_over_a`` are grid samples of the symbols appearing in the
    two blocks of ``M``.  ``apply_m`` acts on the coefficient windows
    ``[0, bandwidth)`` and ``(n - bandwidth, n]``, each block as a
    window-sized convolution by the grid coefficients of its symbol;
    ``rh_solve`` reads only ``sym_b_over_astar``.
    """

    pair: NlftPair
    n: int
    n_points: int
    bandwidth: int
    sym_b_over_astar: np.ndarray
    sym_bstar_over_a: np.ndarray

    def __post_init__(self):
        w = self.bandwidth
        if w < 1:
            raise ValidationError("bandwidth must be positive")
        if 2 * w > self.n_points:
            raise GridSizeError(
                f"bandwidth {w} needs a grid larger than {self.n_points}"
            )

    @property
    def window_plus(self) -> tuple[int, int]:
        return (0, self.bandwidth - 1)

    @property
    def window_low(self) -> tuple[int, int]:
        return (self.n - self.bandwidth + 1, self.n)

    @classmethod
    def build(
        cls,
        pair: NlftPair,
        n: int,
        n_points: int | None = None,
        bandwidth: int | None = None,
    ) -> "RhSystem":
        """Assemble the system for one truncation index of a validated pair.

        Without ``n_points`` the grid doubles from ``2 * bandwidth`` until
        ``b/a*`` no longer folds (``spectral._symbol_samples``).
        """
        bandwidth = max(bandwidth or 1, n - _b_lo(pair) + 2, pair.b.width + 1)
        n_points, t = _symbol_samples(pair, n_points, _power_of_two_at_least(
            max(2 * bandwidth, pair.a.width + 1)))
        return cls(pair, n, n_points, bandwidth, t, np.conj(t))


def _apply_m_vec(sys: RhSystem, x1: np.ndarray, x2: np.ndarray):
    """``M`` applied to the columns of ``x1`` on ``window_plus`` and
    ``x2`` on ``window_low`` (see ``apply_m``)."""
    (lo1, hi1), (lo2, hi2) = sys.window_plus, sys.window_low
    y1 = _window_multiply(np.fft.fft(sys.sym_bstar_over_a, norm="forward"),
                          x2, lo2, lo1, hi1)
    y2 = -_window_multiply(np.fft.fft(sys.sym_b_over_astar, norm="forward"),
                           x1, lo1, lo2, hi2)
    return y1, y2


def _embed(seq: CoefficientSequence, lo: int, hi: int) -> np.ndarray:
    out = np.zeros(hi - lo + 1, dtype=np.complex128)
    if not seq.is_empty:
        if seq.support_lo < lo or seq.support_hi > hi:
            raise ValidationError(
                f"support [{seq.support_lo}, {seq.support_hi}] not inside "
                f"window [{lo}, {hi}]"
            )
        out[seq.support_lo - lo : seq.support_hi - lo + 1] = seq.coeffs
    return out


def apply_m(
    sys: RhSystem, x: tuple[CoefficientSequence, CoefficientSequence]
) -> tuple[CoefficientSequence, CoefficientSequence]:
    """Apply the block operator ``M`` to a windowed coefficient pair.

    Each block is a window-sized convolution by the grid coefficients of
    its symbol (``core._window_multiply``), not a transform of the grid.
    """
    lo1, hi1 = sys.window_plus
    lo2, hi2 = sys.window_low
    y1, y2 = _apply_m_vec(sys, _embed(x[0], lo1, hi1)[:, None],
                          _embed(x[1], lo2, hi2)[:, None])
    return (
        CoefficientSequence(lo1, hi1, y1[:, 0]).trim(),
        CoefficientSequence(lo2, hi2, y2[:, 0]).trim(),
    )


@dataclass(eq=False)
class RhSolution:
    """Result of one truncated solve (denormalized and renormalized forms).

    ``solution_norm`` is ``||x||``, which equals ``a_star_zero`` because
    ``M`` is skew-adjoint; ``residual`` is described by ``rh_solve`` and
    ``layer_strip_detailed``, whose records differ in what it measures.
    """

    n: int
    a: CoefficientSequence  # a_n
    b: CoefficientSequence  # b_n
    a_star_zero: float
    tilde_a_star: CoefficientSequence  # a_n*(0) * a_n*
    tilde_b: CoefficientSequence  # a_n*(0) * b_n
    residual: float
    solution_norm: float
    rhs_norm: float
    reflected: bool = False  # no solve is of a reflected pair; kept for readers


class _StripRecord(RhSolution):
    """A stripping record whose sequence fields are read on first use.

    Stripping itself needs only ``a_star_zero``, ``residual`` and
    ``solution_norm``.  ``a`` and ``b`` are the forward transform of the
    stripped potential on ``[lo(b), n]``, read from the one array that
    all records of a strip share, built on first read and cached;
    ``tilde_a_star`` and ``tilde_b`` are ``a_star_zero`` times ``a*`` and
    ``b``.  A record below ``lo(b)`` reads the empty prefix.  ``repr``
    shows only the eager fields.
    """

    def __init__(self, n: int, a_star_zero: float, residual: float,
                 potential: np.ndarray, b_lo: int):
        self.n = n
        self.a_star_zero = a_star_zero
        self.residual = residual
        self.solution_norm = a_star_zero
        self.rhs_norm = 1.0
        self._potential, self._b_lo = potential, b_lo

    @functools.cached_property
    def _pair(self) -> NlftPair:
        m = max(self.n - self._b_lo + 1, 0)
        return nlft_forward(CoefficientSequence(
            self._b_lo, self._b_lo + m - 1, self._potential[:m]))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.n!r}, "
                f"a_star_zero={self.a_star_zero!r}, "
                f"residual={self.residual!r}, "
                f"solution_norm={self.solution_norm!r}, "
                f"rhs_norm={self.rhs_norm!r}, reflected={self.reflected!r})")

    a = property(lambda self: self._pair.a)
    b = property(lambda self: self._pair.b)
    tilde_a_star = property(lambda self: star_reflect(self._pair.a).scale(
        self.a_star_zero).clamp(CLAMP_TOL))
    tilde_b = property(
        lambda self: self._pair.b.scale(self.a_star_zero).clamp(CLAMP_TOL))


def _dense_solve(c: np.ndarray, b_lo: int, n: int, tol: float) -> RhSolution:
    """Solve ``(I + T T^H) B = c`` densely at truncation index ``n``.

    ``c`` holds the coefficients of ``b/a*`` from ``b_lo`` on, of which
    the leading ``n - b_lo + 1`` are used; ``n < b_lo`` gives the trivial
    solution ``x = (1, 0)``.
    """
    size = max(n - b_lo + 1, 1)
    c = c[:size] if n >= b_lo else np.zeros(1, dtype=np.complex128)
    k = np.arange(size)
    lag = k[:, None] - k[None, :]
    T = np.where(lag >= 0, c[lag % size], 0.0)
    try:
        L = np.linalg.cholesky(np.eye(size) + T @ T.conj().T)
        B = np.linalg.solve(L.conj().T, np.linalg.solve(L, c))
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(
            f"I + T T^H of size {size} is not numerically positive definite"
        ) from exc
    A = -(T.conj().T @ B)
    A[0] += 1.0
    # the first block row holds by construction; the second is B = T A
    residual = float(np.linalg.norm(B - T @ A))
    if not residual <= tol:
        raise ConvergenceError(
            f"residual {residual:.3e} exceeds {tol:.1e} at truncation {n}"
        )
    leading = A[0]
    if abs(leading.imag) > IMAG_TOL or leading.real <= 0.0:
        raise ConsistencyError(
            f"leading solution entry {leading!r} is not a positive real"
        )
    a_star_zero = math.sqrt(leading.real)
    tilde_a_star = CoefficientSequence(0, size - 1, A).clamp(CLAMP_TOL)
    tilde_b = CoefficientSequence(b_lo, b_lo + size - 1, B).clamp(CLAMP_TOL)
    return RhSolution(
        n=n,
        a=star_reflect(tilde_a_star.scale(1.0 / a_star_zero)),
        b=tilde_b.scale(1.0 / a_star_zero),
        a_star_zero=a_star_zero,
        tilde_a_star=tilde_a_star,
        tilde_b=tilde_b,
        residual=residual,
        solution_norm=float(np.hypot(np.linalg.norm(A), np.linalg.norm(B))),
        rhs_norm=1.0,
    )


def _schur_pass(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of the Cholesky factor ``L'`` of ``K'``, and
    ``L'^{-1} b``, by the generalized Schur algorithm on the generators
    ``g = (a*, b)``, a ``(2, m)`` array (see the module docstring)."""
    size = g.shape[-1]
    # before step k, A[:, k:] holds rows k.. of the two generators and
    # of b minus the columns of L' substituted so far; B takes the step
    A = np.empty((3, size), dtype=np.complex128)
    A[:2] = g
    A[2] = g[1]
    B = np.empty_like(A)
    step = np.eye(3, dtype=np.complex128)
    pivots, y = [], []
    for k in range(size):
        alpha, beta, rest = A[:, k].tolist()
        pivot = math.hypot(abs(alpha), abs(beta))
        pivots.append(pivot)
        y.append(rest / pivot)
        # rows 0-1 rotate (alpha, beta) to (pivot, 0); the rotated first
        # generator is column k of L', which row 2 substitutes
        u, v = alpha / pivot, beta / pivot
        step[0, 0], step[0, 1] = u.conjugate(), v.conjugate()
        step[1, 0], step[1, 1] = -v, u
        step[2, 0], step[2, 1] = -y[k] * u.conjugate(), -y[k] * v.conjugate()
        np.matmul(step, A[:, k:], out=B[:, k:])
        # row 0 moves one row down; rows 1-2 drop their leading zeros
        # by starting at k + 1 next step
        B[0, k + 1:] = B[0, k:-1]
        A, B = B, A
    return np.array(pivots), np.array(y, dtype=np.complex128)


def rh_solve(sys: RhSystem, tol: float = DEFAULT_SOLVER_TOL) -> RhSolution:
    """Solve ``(Id + M) x = (1, 0)`` at ``sys.n`` and denormalize.

    The solve is the dense reduction ``(I + T T^H) B = c`` (see the
    module docstring), factored by Cholesky from the coefficients of
    ``sys.sym_b_over_astar`` on ``[lo(b), n]``.  ``residual`` is the
    exact 2-norm residual ``||B - T A||`` of the truncated system.  (A
    record from layer stripping holds the gap of the pivot identity
    there instead; see ``layer_strip_detailed``.)

    Raises ``ConvergenceError`` if that residual exceeds ``tol``, and
    ``ConsistencyError`` if the factorization fails or the leading entry
    of the solution (which equals ``a_n*(0)^2``) is not a positive real
    within tolerance.
    """
    b_lo = _b_lo(sys.pair)
    return _dense_solve(_window_coeffs(sys.sym_b_over_astar, b_lo, sys.n),
                        b_lo, sys.n, tol)


def reflect_pair(pair: NlftPair) -> NlftPair:
    """The pair ``(a*(1/z), b(1/z))``, i.e. the transform of ``(F_{-k})_k``.

    Its ``grid_residual`` is read from ``pair`` when it is first read.
    """
    a = pair.a
    b = pair.b
    a_refl = a.conjugate()  # coefficients of a*(1/z) are conj(a^(k)) at k
    if b.is_empty:
        b_refl = b
    else:
        b_refl = CoefficientSequence(-b.support_hi, -b.support_lo, b.coeffs[::-1])
    return _lazy_pair(a_refl, b_refl, lambda: pair.grid_residual)


def layer_strip_detailed(
    pair: NlftPair,
    support_window: tuple[int, int],
    tol: float = DEFAULT_SOLVER_TOL,
) -> tuple[CoefficientSequence, list[RhSolution]]:
    """Recover ``F`` on a window together with the per-index solve records.

    One generalized Schur pass over the leading ``hi - lo(b) + 1``
    coefficients of ``a*`` and of ``b`` (see the module docstring) strips
    every index of the window ``[lo, hi]``, negative ones included:
    ``F_n = y_j L_jj`` with ``j = n - lo(b)``.  No grid is sampled; the
    hypothesis that makes the truncated system exact is checked first,
    and an ``a*`` that is not outer raises ``OuternessError``
    (``spectral.require_outer``).  Entries with
    ``|F_n| < tol`` are reported as zero.  The records come in ascending
    ``n``; the record at ``n`` is the truncation to ``(F_k)_{k <= n}``.

    A record's ``a_star_zero`` and ``solution_norm`` are ``1 / L_jj``,
    so a pivot below 1, which ``I + T T^H >= I`` rules out, fails
    ``check_contraction``.  Its ``residual`` is the gap
    ``|1 - sum_{i <= j} |y_i|^2 - 1 / L_jj^2|`` of the pivot identity:
    zero in exact arithmetic, it compares ``a_n*(0)^2`` from the forward
    substitution with ``a_n*(0)^2`` from the pivots of the rotations.
    It is not the system residual that ``rh_solve`` reports.  Raises
    ``ConvergenceError`` if a gap exceeds ``tol`` (a NaN fails too).
    The fields ``a``, ``b``, ``tilde_a_star`` and ``tilde_b`` are the
    forward transform of the stripped potential on ``[lo(b), n]``,
    computed when first read; reading them solves no system.
    """
    lo, hi = _strip_window(support_window)
    require_outer(star_reflect(pair.a))
    return _strip_outer(pair, lo, hi, tol)


def _strip_window(support_window: tuple[int, int]) -> tuple[int, int]:
    lo, hi = int(support_window[0]), int(support_window[1])
    if hi < lo:
        raise ValidationError("support window is empty")
    return lo, hi


def _strip_outer(
    pair: NlftPair, lo: int, hi: int, tol: float
) -> tuple[CoefficientSequence, list[RhSolution]]:
    """``layer_strip_detailed`` on ``[lo, hi]`` for a pair whose ``a*``
    its caller has certified outer: one ``_schur_pass`` on ``a*`` and
    ``b`` cut or padded to ``[0, hi - lo(b)]`` and ``[lo(b), hi]``."""
    b_lo = _b_lo(pair)
    m = max(hi - b_lo + 1, 0)
    g = np.zeros((2, m), dtype=np.complex128)
    g[0] = _embed(star_reflect(pair.a).restrict(0, m - 1), 0, m - 1)
    g[1, :min(m, pair.b.width)] = pair.b.coeffs[:m]
    pivots, y = _schur_pass(g)
    # back from K' to I + T T^H: L_jj = L'_jj / |a*(0)| and
    # y = e^{-i arg a*(0)} L'^{-1} b, where a*(0) = conj(a(0))
    a0 = pair.a.coefficient(0)
    pivots /= abs(a0)
    y *= a0 / abs(a0)
    # a_n*(0)^2 two ways: 1 - sum_{i <= j} |y_i|^2 and 1 / L_jj^2
    gaps = np.abs(1.0 - np.cumsum(np.abs(y) ** 2) - 1.0 / pivots ** 2)
    # indices below b hold the trivial solution x = (1, 0)
    start = min(max(lo, b_lo), hi + 1)
    failed = np.flatnonzero(~(gaps[start - b_lo:] <= tol))  # NaN fails
    if failed.size:
        j = start - b_lo + int(failed[0])
        raise ConvergenceError(
            f"pivot identity misses by {gaps[j]:.3e} > {tol:.1e} "
            f"at truncation {j + b_lo}"
        )
    potential = y * pivots
    arr = np.zeros(hi - lo + 1, dtype=np.complex128)
    arr[start - lo:] = potential[start - b_lo:]
    arr[np.abs(arr) < tol] = 0.0
    a_star_zero, residual = (1.0 / pivots).tolist(), gaps.tolist()
    records: list[RhSolution] = [
        _StripRecord(n, 1.0, 0.0, potential, b_lo) for n in range(lo, start)]
    records += [_StripRecord(n, a_star_zero[n - b_lo], residual[n - b_lo],
                             potential, b_lo) for n in range(start, hi + 1)]
    return CoefficientSequence(lo, hi, arr).trim(), records


def layer_strip(
    pair: NlftPair,
    support_window: tuple[int, int],
    tol: float = DEFAULT_SOLVER_TOL,
) -> CoefficientSequence:
    """Potential on a window via per-index Riemann-Hilbert solves."""
    F, _ = layer_strip_detailed(pair, support_window, tol)
    return F


@dataclass(eq=False)
class InverseReport:
    """Residual report accompanying an inversion."""

    pair_residual: float  # determinant residual of the completed pair
    records: list[RhSolution]
    round_trip_residual: float  # max coefficient error of forward(F) vs b

    @property
    def max_solver_residual(self) -> float:
        return max((r.residual for r in self.records), default=0.0)

    @property
    def contraction_ok(self) -> bool:
        return all(r.solution_norm <= r.rhs_norm * (1 + 1e-12) for r in self.records)


def _complete_and_strip(
    b: CoefficientSequence,
    support_window: tuple[int, int],
    n_points: int | None,
    tol: float,
    szego_margin: float,
) -> tuple[NlftPair, CoefficientSequence, list[RhSolution]]:
    """``(pair, F, records)``: ``outer_complement`` of ``b``, then the
    strip of its window; ``inverse_nlft_detailed`` without the round
    trip, for callers that check the result their own way."""
    pair = outer_complement(b, n_points, szego_margin)
    F, records = _strip_outer(pair, *_strip_window(support_window), tol)
    return pair, F, records


def inverse_nlft_detailed(
    b: CoefficientSequence,
    support_window: tuple[int, int],
    n_points: int | None = None,
    tol: float = DEFAULT_SOLVER_TOL,
    szego_margin: float = DEFAULT_SZEGO_MARGIN,
) -> tuple[CoefficientSequence, InverseReport]:
    """Full inverse transform from ``b`` alone, with residual report.

    Completes ``b`` to a pair by spectral factorization, then layer
    strips on the window.  The report carries the determinant residual
    of the completed pair, every solver record, and the coefficient
    error of the forward transform of the result against ``b``.

    ``n_points`` is the grid of the completion (``outer_complement``),
    which otherwise sizes its own; stripping needs no grid.  The
    completion certifies its ``a*`` outer, so stripping does not check
    it again.  The round trip reads only the ``b`` of the forward
    transform of the result, so it samples no grid either.
    """
    pair, F, records = _complete_and_strip(b, support_window, n_points,
                                           tol, szego_margin)
    rt = max_abs_difference(_forward_sequences(F)[1], b)
    report = InverseReport(pair.grid_residual, records, rt)
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            "inverse_nlft window=%s pair_residual=%.3e solver_residual=%.3e "
            "round_trip=%.3e",
            support_window, report.pair_residual, report.max_solver_residual,
            rt,
        )
    return F, report


def inverse_nlft(
    b: CoefficientSequence,
    support_window: tuple[int, int],
    n_points: int | None = None,
    tol: float = DEFAULT_SOLVER_TOL,
    szego_margin: float = DEFAULT_SZEGO_MARGIN,
) -> CoefficientSequence:
    """Recover ``F`` from ``b`` (see ``inverse_nlft_detailed``)."""
    F, _ = inverse_nlft_detailed(b, support_window, n_points, tol,
                                 szego_margin)
    return F


# ---------------------------------------------------------------------------
# solvability certificate
# ---------------------------------------------------------------------------


def solvability_certificate(
    pair: NlftPair,
    n: int,
    w: BeurlingWeight,
    n_points: int | None = None,
) -> float:
    """``|| P_{>n}(b) / a* ||_{A_w}``, the per-index solvability certificate.

    Values below 1/2 certify the weighted invertibility of the truncated
    system at ``n``.  The norm is computed over the full index range the
    grid resolves.  Without ``n_points`` the grid is the one on which
    ``b/a*`` stops folding (``spectral._ratio_grid``).
    """
    tail = pair.b.restrict(n + 1, pair.b.support_hi)
    if tail.is_empty:
        return 0.0
    n_points = n_points or _ratio_grid(pair)
    q = grid_quotient(tail, star_reflect(pair.a), n_points,
                      (n + 1, n + n_points - 1))
    return weighted_l1_norm(q, w)


def first_certified_index(pair: NlftPair, w: BeurlingWeight) -> int | None:
    """Smallest ``n`` in ``[lo(b) - 1, hi(b)]`` whose certificate is
    below 1/2, on one ``_ratio_grid`` for the whole scan.

    No minimality over all integers is claimed; the certificate is just
    scanned left to right.
    """
    if pair.b.is_empty:
        return None
    n_points = _ratio_grid(pair)
    for n in range(pair.b.support_lo - 1, pair.b.support_hi + 1):
        if solvability_certificate(pair, n, w, n_points) < 0.5:
            return n
    return None
