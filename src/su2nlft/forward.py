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
recursion together, with the blocks on the last, contiguous axis:
O(8 w) work in 8 vectorized steps.  Adjacent blocks then merge
pairwise, level by level, because the product of two adjacent parts of
the support is the transform of their union.  Every block carries its
spectrum, the FFT of its rows: the leaves take one batch FFT, and a
merge keeps the product spectrum it inverts.  A merge of two blocks of
width ``h`` needs their ``2 h``-point spectra; the even bins are the
carried ``h``-point ones, and one batch FFT of the twiddled blocks
gives the odd bins.  So a level costs one batch of forward FFTs of
``h`` points and one of inverse FFTs of ``2 h`` points, and the whole
product O(w log^2 w).  ``su2_product`` (the same merge on
``CoefficientSequence`` values) and the multilinear expansion are
independent routes to the transform that the tests cross-check against
it.
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
# is one batch of FFTs, so narrow blocks win.  Median ms of nlft_forward,
# 7 interleaved rounds on one core of a shared 2-vCPU VM:
#
#   width        16    128    256   1024   2048   4096   65536
#   leaf 4     0.30   0.50   0.61   1.17   2.01   3.73    96.1
#   leaf 8     0.28   0.48   0.62   1.15   1.93   3.41    91.4
#   leaf 16    0.26   0.50   0.58   1.15   1.92   3.43   100.6
#   leaf 32    0.26   0.62   0.72   1.32   2.09   3.77   105.2
#
# No other width is as fast as 8 at every size: 16 wins at 16 (a single
# leaf), 256 and 2048, by up to 9%, and loses 10% at 65536.
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
        on the chosen grid is computed when first read, then cached, so a
        caller that reads only ``a`` and ``b`` samples no grid.
    """
    if F.is_empty:
        a = CoefficientSequence.constant(1.0)
        b = CoefficientSequence.empty()
    else:
        astar, b_rel = _product_arrays(*_normalized(F.coeffs))
        a = CoefficientSequence(F.support_lo - F.support_hi, 0, np.conj(astar[::-1]))
        b = CoefficientSequence(F.support_lo, F.support_hi, b_rel)
    return pair_from_sequences(a.clamp(CLAMP_TOL), b.clamp(CLAMP_TOL), n_points)


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
    the blocks are multiplied out together by ``_leaf_arrays``, take one
    batch FFT, and are then merged level by level, a whole level per
    ``_merge`` call, each carrying its spectrum up.  The twiddle and sign
    tables are built once, for the widest level, and narrower levels
    read a strided slice of them.  Nothing pads the block count to a
    power of two.
    """
    w = f.size
    leaf = min(w, _LEAF_WIDTH)
    nb = -(-w // leaf)
    pad = nb * leaf - w
    blocks = _leaf_arrays(
        np.concatenate([c, np.ones(pad)]).reshape(nb, leaf).T,
        np.concatenate([f, np.zeros(pad, dtype=np.complex128)]).reshape(nb, leaf).T,
    )
    if nb > 1:
        top = leaf << (nb - 1).bit_length() - 1  # block width of the last level
        twiddle, sign = _merge_tables(top)
        spectra = np.fft.fft(blocks)
        while len(blocks) > 1:
            h = blocks.shape[2]
            blocks, spectra = _merge(blocks, spectra, twiddle[:: top // h],
                                     sign[:, : 2 * h])
    return blocks[0, :, :w]


def _leaf_arrays(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Rows ``(a*, b)`` of each column of factors, shape ``(blocks, 2, width)``.

    ``c`` and ``f`` have shape ``(width, blocks)``.  Applies the factors
    of every block at once, in ascending index order:

        a*[j] <- c_k a*[j] - f_k conj(b[k - j])
        b[j]  <- c_k b[j]  + f_k conj(a*[k - j])      for 0 <= j <= k.

    The state is held as ``(width, 2, blocks)``, so each step's ufuncs
    run over the blocks in one contiguous inner loop; the result is a
    transposed view of it.
    """
    width, nb = f.shape
    s = np.zeros((width, 2, nb), dtype=np.complex128)
    s[0, 0] = 1.0
    g = np.stack([-f, f], axis=1)
    for k in range(width):
        t = np.conj(s[k::-1, ::-1])
        t *= g[k]
        head = s[: k + 1]
        head *= c[k]
        head += t
    return s.transpose(2, 1, 0)


def _merge_tables(h: int) -> tuple[np.ndarray, np.ndarray]:
    """``_merge``'s tables for blocks of width ``h``.

    The twiddle ``exp(-i pi j / h)``, ``0 <= j < h``, and the signs
    ``(-(-1)^k, (-1)^k)``, ``0 <= k < 2 h``, as a ``(2, 2 h)`` array.
    The tables of width ``h / 2^l`` are ``twiddle[:: 2^l]`` and
    ``sign[:, : 2 h / 2^l]``.
    """
    twiddle = np.exp(-1j * np.pi / h * np.arange(h))
    sign = np.ones((2, 2 * h))
    sign[0] = -1.0
    sign[:, 1::2] *= -1.0
    return twiddle, sign


def _merge(
    blocks: np.ndarray, spectra: np.ndarray, twiddle: np.ndarray, sign: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent pairs of blocks of width ``h``; returns the merged
    blocks, of width ``2 h``, and their spectra.

    ``blocks`` has shape ``(n, 2, h)`` and ``spectra`` is its
    ``np.fft.fft``; ``twiddle`` and ``sign`` come from
    ``_merge_tables(h)``.  A caller with two blocks merges them by
    passing them stacked, with their ``np.fft.fft`` spectra.  With
    ``(A1, B1)`` a left block and ``(A2, B2)`` the next one, taken
    relative to its own first index,

        a* = A1 A2 - z (conj-rev B1) B2,    b = z (conj-rev A1) B2 + B1 A2,

    where ``conj-rev`` reverses a length-``h`` array and conjugates it.
    The products are cyclic convolutions of length ``2 h``, which hold
    the linear ones, taken as products of ``2 h``-point spectra.  Their
    even bins are the given spectra; the odd bins are the ``h``-point
    FFT of the block times ``twiddle``.  ``z (conj-rev A1)`` needs no
    transform: its spectrum is ``(-1)^k conj(fft(A1))``, and ``sign``
    puts that ``(-1)^k`` and the minus of ``a*`` on ``fft(B2)``.  The product
    spectra are returned with their inverse FFT.  With ``n`` odd the
    last block is merged with an identity block (``a* = 1``, ``b = 0``),
    which pads it with zeros and keeps its ``2 h``-point spectrum.
    """
    n, _, h = blocks.shape
    pairs = n // 2
    full = np.empty((n, 2, 2 * h), dtype=np.complex128)
    full[..., 0::2] = spectra
    full[..., 1::2] = np.fft.fft(blocks * twiddle)
    left, right = full[0 : 2 * pairs : 2], full[1 : 2 * pairs : 2]
    t = np.conj(left[:, ::-1])
    t *= right[:, 1:2] * sign
    y = left * right[:, 0:1]
    y += t
    merged = np.fft.ifft(y)
    if n % 2:
        last = np.zeros_like(merged[:1])
        last[..., :h] = blocks[-1:]
        merged = np.concatenate([merged, last])
        y = np.concatenate([y, full[-1:]])
    return merged, y


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
