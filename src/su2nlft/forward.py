"""Forward nonlinear Fourier transform on the unit circle.

A sequence ``F`` with finite support maps to the SU(2)-valued symbol

    G(z) = prod_k (1 + |F_k|^2)^(-1/2) [[1, F_k z^k], [-conj(F_k) z^-k, 1]]

with factors ordered by ascending index (lower indices act leftmost).
``G`` is stored through its first row ``(a, b)``; the second row is
``(-b*, a*)``, and ``|a|^2 + |b|^2 = 1`` on the circle.  For ``F``
supported on ``[l, m]`` the outputs satisfy ``supp(b) in [l, m]`` and
``supp(a) in [l - m, 0]``.

``nlft_forward`` holds ``(a*, b)`` as two complex arrays on
``[0, w - 1]``, ``w = m - l + 1``, with ``F`` taken relative to ``l``
(a shift of ``F`` by ``l`` multiplies ``b`` by ``z^l`` and leaves ``a``
alone).  The support is cut into blocks of 8 indices.  Inside a block
the factors are applied one at a time,

    a* <- (a* - F_k z^k b*) / sqrt(1 + |F_k|^2)
    b  <- (b  + F_k z^k a)  / sqrt(1 + |F_k|^2)

where ``z^k b*`` and ``z^k a`` are the conjugate reversals of the first
``k + 1`` coefficients of ``b`` and ``a*``.  All blocks run this
recursion together: O(8 w) work in 8 vectorized steps.  Adjacent
blocks then merge pairwise, level by level, because the product of two
adjacent parts of the support is the transform of their union.  Each
merge is four FFT convolutions, and all merges of a level run as one
batch of FFTs, so the whole product costs O(w log^2 w).  ``su2_product``
(the same merge on ``CoefficientSequence`` values) and the multilinear
expansion are independent routes to the transform that the tests
cross-check against it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    CoefficientSequence,
    NlftPair,
    convolve,
    pair_from_sequences,
    star_reflect,
)
from .errors import CombinatoricsError

__all__ = [
    "nlft_forward",
    "a_star_at_zero",
    "multilinear_term",
    "multilinear_partial_sum",
    "single_factor",
    "su2_product",
]

CLAMP_TOL = 1e-13  # coefficients below this are treated as exact zeros
TERM_GUARD = 10**6  # cap on binomial(#support, arity) for enumeration
# Block width for the factor recursion; wider blocks merge by FFT.  The
# recursion does O(width * w) work in width steps and every merge level
# is one batch of FFTs, so narrow blocks win: of 4, 8, 16, 32 and 64, 8
# was the fastest at widths 128 to 4096 and within 3% of the fastest at
# 65536.
_LEAF_WIDTH = 8


def nlft_forward(F: CoefficientSequence, n_points: int | None = None) -> NlftPair:
    """Forward transform of a compactly supported sequence.

    Parameters
    ----------
    F : CoefficientSequence
        Finite sequence of complex coefficients.
    n_points : int, optional
        Grid of the determinant residual; defaults to the auto-sized
        power of two for the output width.  A grid that cannot hold the
        output raises ``GridSizeError`` at the call.

    Returns
    -------
    NlftPair
        ``(a, b)`` from ``pair_from_sequences``: the determinant residual
        on the chosen grid is computed when first read, then cached.
    """
    return pair_from_sequences(*_forward_sequences(F), n_points)


def _forward_sequences(
    F: CoefficientSequence,
) -> tuple[CoefficientSequence, CoefficientSequence]:
    """The clamped ``(a, b)`` of ``nlft_forward``, without its residual."""
    if F.is_empty:
        a = CoefficientSequence.constant(1.0)
        b = CoefficientSequence.empty()
    else:
        astar, b_rel = _product_arrays(*_normalized(F.coeffs))
        a = CoefficientSequence(F.support_lo - F.support_hi, 0, np.conj(astar[::-1]))
        b = CoefficientSequence(F.support_lo, F.support_hi, b_rel)
    return a.clamp(CLAMP_TOL), b.clamp(CLAMP_TOL)


def _normalized(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(1 / nu, F / nu)`` with ``nu = hypot(1, |F|)``, entrywise.

    Both are computed after scaling by ``max(1, |Re F|, |Im F|)``, so no
    finite ``F`` overflows, not even one whose modulus exceeds the
    largest double.
    """
    s = np.maximum(1.0, np.maximum(np.abs(vals.real), np.abs(vals.imag)))
    nu_s = np.hypot(1.0 / s, np.abs(vals / s))
    return 1.0 / s / nu_s, vals / s / nu_s


def _product_arrays(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Rows ``(a*, b)`` on ``[0, w - 1]`` of the factors ``(c_k, f_k z^k)``.

    ``c_k = 1 / nu_k`` and ``f_k = F_k / nu_k`` for ``F`` on ``[0, w - 1]``.
    ``F`` is padded with zeros (identity factors) to whole leaf blocks;
    the blocks are multiplied out together by ``_leaf_arrays`` and then
    merged level by level, every adjacent pair of a level in one
    ``_merge`` call.  On a level with an odd number of blocks the last
    one is merged with an identity block (``a* = 1``, ``b = 0``) of its
    width, which pads it with zeros and needs no FFT.  Nothing pads the
    block count to a power of two.
    """
    w = f.size
    leaf = min(w, _LEAF_WIDTH)
    nb = -(-w // leaf)
    pad = nb * leaf - w
    blocks = _leaf_arrays(
        np.concatenate([c, np.ones(pad)]).reshape(nb, leaf),
        np.concatenate([f, np.zeros(pad, dtype=np.complex128)]).reshape(nb, leaf),
    )
    while len(blocks) > 1:
        pairs = len(blocks) // 2
        merged = _merge(blocks[0 : 2 * pairs : 2], blocks[1 : 2 * pairs : 2])
        if len(blocks) % 2:  # times an identity block: padded with zeros
            last = np.zeros_like(merged[:1])
            last[..., : blocks.shape[2]] = blocks[-1:]
            merged = np.concatenate([merged, last])
        blocks = merged
    return blocks[0, :, :w]


def _leaf_arrays(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Rows ``(a*, b)`` of each row of factors, shape ``(blocks, 2, width)``.

    Applies the factors of every block at once, in ascending index order:

        a*[j] <- c_k a*[j] - f_k conj(b[k - j])
        b[j]  <- c_k b[j]  + f_k conj(a*[k - j])      for 0 <= j <= k.
    """
    nb, width = f.shape
    s = np.zeros((nb, 2, width), dtype=np.complex128)
    s[:, 0, 0] = 1.0
    g = np.stack([-f, f], axis=1)
    for k in range(width):
        t = np.conj(s[:, ::-1, k::-1])
        t *= g[:, :, k : k + 1]
        head = s[:, :, : k + 1]
        head *= c[:, k, None, None]
        head += t
    return s


def _merge(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Rows ``(a*, b)`` of pairs of adjacent blocks, each of width ``h``.

    ``s1`` and ``s2`` have shape ``(pairs, 2, h)``.  With ``(A1, B1)`` a
    row of ``s1`` and ``(A2, B2)`` the same row of ``s2``, the second
    block taken relative to its own first index,

        a* = A1 A2 - z (conj-rev B1) B2,    b = z (conj-rev A1) B2 + B1 A2,

    where ``conj-rev`` reverses a length-``h`` array and conjugates it.
    The four products are cyclic FFT convolutions of length ``2 h``,
    which hold the linear ones, taken for every pair at once; the result
    has shape ``(pairs, 2, 2 h)``.
    """
    pairs, _, h = s1.shape
    x = np.zeros((pairs, 6, 2 * h), dtype=np.complex128)
    x[:, 0:2, :h] = s1
    x[:, 2:4, 1 : h + 1] = np.conj(s1[:, :, ::-1])
    x[:, 4:6, :h] = s2
    X = np.fft.fft(x)
    y = np.stack([X[:, 0] * X[:, 4] - X[:, 3] * X[:, 5],
                  X[:, 2] * X[:, 5] + X[:, 1] * X[:, 4]], axis=1)
    return np.fft.ifft(y)


def a_star_at_zero(F: CoefficientSequence) -> float:
    """``a*(0) = prod_k (1 + |F_k|^2)^(-1/2)``, the constant term of ``a*``."""
    if F.is_empty:
        return 1.0
    return float(np.prod((1.0 + np.abs(F.coeffs) ** 2) ** -0.5))


def single_factor(k: int, value: complex) -> tuple[CoefficientSequence, CoefficientSequence]:
    """The pair of a one-point sequence ``{k: value}``."""
    c, f = _normalized(np.array([value], dtype=np.complex128))
    a = CoefficientSequence.constant(c[0])
    b = CoefficientSequence.single(k, f[0])
    return a, b


def su2_product(
    p: tuple[CoefficientSequence, CoefficientSequence],
    q: tuple[CoefficientSequence, CoefficientSequence],
) -> tuple[CoefficientSequence, CoefficientSequence]:
    """Product of two SU(2) symbols given by their first rows.

    ``(a1, b1) . (a2, b2) = (a1 a2 - b1 b2*, a1 b2 + b1 a2*)``.  This is
    a second, recursion-free route to the transform (multiply the factors
    as matrices of Laurent polynomials); the test suite cross-checks the
    two.
    """
    a1, b1 = p
    a2, b2 = q
    a = convolve(a1, a2) - convolve(b1, star_reflect(b2))
    b = convolve(a1, b2) + convolve(b1, star_reflect(a2))
    return a.clamp(CLAMP_TOL), b.clamp(CLAMP_TOL)


def _support_points(F: CoefficientSequence) -> list[tuple[int, complex]]:
    return [(int(n), complex(c)) for n, c in zip(F.indices(), F.coeffs) if c != 0]


def multilinear_term(n: int, F: CoefficientSequence) -> CoefficientSequence:
    """The arity-``n`` term of the power-series expansion of the transform.

    ``T_n`` sums over increasing index tuples ``j_1 < ... < j_n``; odd
    positions contribute ``F_{j} z^{j}`` and even positions contribute
    ``-conj(F_{j}) z^{-j}``.  ``T_0 = 1``.  Even arities build up ``a``
    and odd arities build up ``b``, each up to the overall scalar
    ``prod_k (1 + |F_k|^2)^(-1/2)``.

    Raises
    ------
    CombinatoricsError
        If ``binomial(#support, n)`` exceeds ``10**6``.
    """
    if n < 0:
        raise CombinatoricsError("arity must be nonnegative")
    if n == 0:
        return CoefficientSequence.constant(1.0)
    pts = _support_points(F)
    if n > len(pts):
        return CoefficientSequence.empty()
    if math.comb(len(pts), n) > TERM_GUARD:
        raise CombinatoricsError(
            f"binomial({len(pts)}, {n}) exceeds the {TERM_GUARD} term guard"
        )
    acc: dict[int, complex] = {}
    for combo in itertools.combinations(pts, n):
        exponent = 0
        value = 1.0 + 0.0j
        for pos, (j, fj) in enumerate(combo, start=1):
            if pos % 2 == 1:
                exponent += j
                value *= fj
            else:
                exponent -= j
                value *= -np.conj(fj)
        acc[exponent] = acc.get(exponent, 0.0 + 0.0j) + value
    return CoefficientSequence.from_dict(acc)


def multilinear_partial_sum(
    F: CoefficientSequence, max_arity: int
) -> tuple[CoefficientSequence, CoefficientSequence]:
    """Partial sums of even and odd multilinear terms up to ``max_arity``.

    Returns ``(sum of T_n for even n <= max_arity, sum for odd n)``.
    Multiplying both by ``a_star_at_zero(F)`` reproduces ``(a, b)`` once
    ``max_arity`` reaches the support size.
    """
    even = CoefficientSequence.empty()
    odd = CoefficientSequence.empty()
    for n in range(max_arity + 1):
        term = multilinear_term(n, F)
        if n % 2 == 0:
            even = even + term
        else:
            odd = odd + term
    return even, odd
