"""Spectral factorization: rebuild ``a`` from ``b`` alone.

On the circle the determinant identity forces ``|a|^2 = 1 - |b|^2``.
Among all solutions the normalization picks the one whose star dual
``a*`` is outer on the disk with ``a*(0) > 0``; concretely

    log a*(z) = g^(0) + 2 sum_{n > 0} g^(n) z^n,
    g = (1/2) log(1 - |b|^2),

so ``a* = exp(P g)`` with ``P`` the analytic (Herglotz) projection,
evaluated with FFTs on a uniform grid.  ``a*(0) = exp(g^(0))`` is the
exponential of the mean of ``g``, automatically positive.  For ``b`` of
width ``w`` the trigonometric polynomial ``1 - |b|^2`` has degree
``w - 1``, so by the Fejer-Riesz theorem its outer factor ``a*`` is a
polynomial of degree ``w - 1``; coefficients beyond are quadrature
error and are dropped.  ``|b|^2`` on the grid, and the determinant
residual of the completed pair, are sampled from autocorrelations
(``core._power_samples``).

The logarithm is not band-limited, so on a grid of a few times the
width this Weiss estimate misses the determinant identity.  It is then
refined on the same grid by Newton's method for spectral factors
(G. Wilson, "Factorization of the covariance generating function of a
pure moving average process", SIAM J. Numer. Anal. 6, 1969): with the
exact residual ``r = 1 - |a*|^2 - |b|^2``, a Laurent polynomial of
degree ``w - 1``, a step adds ``a* h`` truncated to degree ``w - 1``,
where ``h`` is analytic with ``Re h = r / (2 |a*|^2)``, and rotates
``a*(0)`` back onto the positive axis.  Only the correction is aliased,
and it needs few correct digits, so on random data of width 4096 the
steps reach the rounding floor on ``4 w`` points, where the Weiss
estimate alone needs ``16 w``.  The Weiss step and its conditioning
for the NLFT follow Alexis, Lin, Mnatsakanyan, Thiele and Wang
(arXiv 2407.05634).

Outerness of the truncated polynomial is checked after the fact by a
winding count on the unit circle, where ``|a*|^2 = 1 - |b|^2`` keeps
``a*`` away from 0.  The count is taken on the smallest power-of-two
grid on which the sampled values certify it:
for ``p(z) = sum_k c_k z^k`` on ``|z| = rho`` and
``S = sum_k k |c_k| rho^k``, ``2 pi S / N < min_j |p(rho z_j)|`` keeps
every arc between neighbouring samples inside a disk that excludes 0,
so the phase-unwrapped count on ``N`` samples is exact.
"""

from __future__ import annotations

import logging

import numpy as np

from .core import (
    MAX_GRID,
    CoefficientSequence,
    GridFunction,
    NlftPair,
    _check_oversampled,
    _doubling_grid,
    _eval_samples,
    _lag_samples,
    _nonvanishing,
    _pair_grid,
    _power_of_two_at_least,
    _window_coeffs,
    from_grid,
    star_reflect,
)
from .errors import (
    GridSizeError,
    OuternessError,
    SzegoMarginError,
    ValidationError,
    VanishingSymbolError,
)
from .forward import CLAMP_TOL

logger = logging.getLogger(__name__)

__all__ = [
    "outer_complement",
    "symbol_ratio",
    "symbol_tail_mass",
    "grid_quotient",
    "winding_number",
]

DEFAULT_SZEGO_MARGIN = 1e-6
TAIL_TARGET = 1e-10  # tail mass goal when auto-sizing coefficient windows
PAIR_RESIDUAL_TOL = 1e-10
WINDING_RADIUS = 0.999


def _analytic_projection_exp(g: np.ndarray) -> np.ndarray:
    """Samples of ``exp(g^(0) + 2 sum_{n>0} g^(n) z^n)`` for real ``g``.

    On the grid the exponent is ``g + i h``, with ``h`` the conjugate
    function ``sum_{0<n<N/2} 2 Im(g^(n) z^n)``, one real inverse FFT away
    from ``g``; so the samples are ``exp(g) (cos h + i sin h)``.
    """
    n = g.size
    spec = np.fft.rfft(g, norm="forward")
    spec *= -1j
    spec[0] = spec[-1] = 0.0  # h has no mean and no Nyquist term
    h = np.fft.irfft(spec, n, norm="forward")
    modulus = np.exp(g)
    out = np.empty(n, dtype=np.complex128)
    np.multiply(modulus, np.cos(h), out=out.real)
    np.multiply(modulus, np.sin(h), out=out.imag)
    return out


def _circle_values(
    s: CoefficientSequence, n_samples: int, radius: float
) -> np.ndarray:
    """Samples of ``s`` at ``radius`` times the ``n_samples`` roots of unity."""
    if s.is_empty:
        raise VanishingSymbolError("the zero polynomial has no winding number")
    if s.support_lo < 0:
        raise ValidationError("winding check expects support in [0, inf)")
    if n_samples <= s.support_hi:
        raise GridSizeError("not enough samples for the polynomial degree")
    spec = np.zeros(n_samples, dtype=np.complex128)
    k = np.arange(s.support_lo, s.support_hi + 1)
    spec[k] = s.coeffs * radius ** k.astype(np.float64)
    vals = np.fft.ifft(spec, norm="forward")
    if np.min(np.abs(vals)) == 0.0:
        raise VanishingSymbolError("zero hit on the winding contour")
    return vals


def _phase_count(vals: np.ndarray) -> int:
    """Winding of the closed polygon through ``vals`` around 0: the sum of
    the turning angles ``arg(v_{j+1} / v_j)``, each in ``(-pi, pi]``.
    The quotient, unlike ``v_{j+1} conj(v_j)``, neither underflows nor
    overflows for samples of any finite nonzero size."""
    steps = np.angle(np.roll(vals, -1) / vals)
    return int(np.rint(steps.sum() / (2.0 * np.pi)))


def winding_number(
    s: CoefficientSequence,
    n_samples: int,
    radius: float = WINDING_RADIUS,
) -> int:
    """Winding of ``s`` around 0 along ``|z| = radius``.

    By the argument principle this counts the zeros of the polynomial
    inside that circle (support must be in ``[0, deg]``).
    """
    return _phase_count(_circle_values(s, n_samples, radius))


def _newton_refine(astar: np.ndarray, power_b: np.ndarray,
                   abs2_b: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Newton steps towards ``|a*|^2 = 1 - |b|^2`` on the grid of ``abs2_b``.

    ``astar`` holds coefficients ``0 .. d`` and ``power_b`` is ``|fft(b)|^2``
    on ``m >= 2 (d + 1)`` points, so ``r = 1 - |a*|^2 - |b|^2`` is sampled
    exactly.  A step adds ``a* h``, truncated to degree ``d``, with ``h``
    analytic and ``Re h = r / (2 |a*|^2)``, and turns ``a*(0)`` back to
    the positive axis, which ``|a*|`` does not fix.  A start that meets
    ``PAIR_RESIDUAL_TOL`` takes no step.  Otherwise steps go on while
    each halves the residual, and end with the step taken from the first
    iterate that meets the tolerance.  The aliasing of ``h`` sets the
    contraction, 1e-4 to 1e-3 per step at width 4096 on ``4 w`` points, so
    that last step brings the coefficients to the rounding floor without
    a trial step to find it.  Returns the best iterate and the residual
    of each iterate, the start first.
    """
    n, m, d1 = abs2_b.size, power_b.size, astar.size

    def measured(c):
        spec = np.fft.fft(c, m)
        total = _lag_samples(spec.real ** 2 + spec.imag ** 2 + power_b, n)
        return spec, total, float(np.max(np.abs(1.0 - total)))

    spec, total, residual = measured(astar)
    residuals = [residual]
    if residual <= PAIR_RESIDUAL_TOL:
        return astar, residuals
    while True:
        g = (1.0 - total) / (2.0 * (total - abs2_b))
        h = np.fft.rfft(g, norm="forward")[:d1]
        h[1:] *= 2.0
        step = astar + np.fft.ifft(spec * np.fft.fft(h, m))[:d1]
        c0 = abs(step[0])
        step *= c0 / step[0]
        step[0] = c0
        step_spec, step_total, residual = measured(step)
        if not residual < residuals[-1]:
            break
        astar, spec, total = step, step_spec, step_total
        residuals.append(residual)
        if residual > residuals[-2] / 2 or residuals[-2] <= PAIR_RESIDUAL_TOL:
            break
    return astar, residuals


def outer_complement(
    b: CoefficientSequence,
    n_points: int | None = None,
    szego_margin: float = DEFAULT_SZEGO_MARGIN,
) -> NlftPair:
    """Complete ``b`` to a pair ``(a, b)`` with outer ``a*`` and ``a*(0) > 0``.

    ``a*`` is kept on ``[0, width(b) - 1]``, the degree of the exact
    outer factor.  On each grid the Weiss formula gives a first ``a*``;
    when that misses the determinant identity, Newton steps refine it on
    the same grid (see the module docstring).  One DEBUG line per grid
    logs its size, the Newton step count, the residual before and after
    the steps and the tail mass beyond the degree.

    Parameters
    ----------
    b : CoefficientSequence
        Upper entry of the sought pair; needs ``sup |b| <= 1 - szego_margin``
        on the grid.
    n_points : int, optional
        FFT grid size, a power of two ``>= 4 (width(b) + 1)``
        (``GridSizeError`` otherwise), used as the only grid, Newton
        steps included.  When absent the grid starts at
        ``min(p2(16 w), max(p2(4 w), 2^13))``, ``w = width(b)`` and
        ``p2`` the next power of two, and doubles up to
        ``core.MAX_GRID`` until the pair meets the determinant identity
        within ``PAIR_RESIDUAL_TOL``.
    szego_margin : float
        Required distance of ``sup |b|`` from 1.

    Raises
    ------
    SzegoMarginError
        If ``max |b|`` on the grid exceeds ``1 - szego_margin``.
    OuternessError
        If the truncated ``a*`` winds around 0 on ``|z| = 1``.
    ConsistencyError
        If the pair misses the determinant identity by more than
        ``PAIR_RESIDUAL_TOL`` after the Newton steps on ``n_points``, or
        on ``core.MAX_GRID`` points; or if the start grid is already
        above ``core.MAX_GRID``.
    """
    if n_points is not None:
        _check_oversampled(b.width, n_points)
    degree = max(b.width - 1, 0)
    width = max(b.width, 1)

    def assemble(n):
        # |b|^2 from its spectrum on m points, which holds every lag
        spec_b = np.fft.fft(b.coeffs, 2 * _power_of_two_at_least(width))
        power_b = spec_b.real ** 2 + spec_b.imag ** 2
        abs2_b = _lag_samples(power_b, n)
        sup_b = float(np.sqrt(np.max(abs2_b)))
        if sup_b > 1.0 - szego_margin:
            raise SzegoMarginError(
                f"sup |b| = {sup_b:.12g} is within {szego_margin:.3e} of 1"
            )
        # coefficients 0 .. n - 2 of a*: the window the grid resolves
        coeffs = np.fft.fft(_analytic_projection_exp(0.5 * np.log1p(-abs2_b)),
                            norm="forward")[: n - 1]
        astar, residuals = _newton_refine(coeffs[: degree + 1], power_b, abs2_b)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("outer_complement N=%d Newton steps %d residual "
                         "%.3e -> %.3e tail mass beyond %d: %.3e", n,
                         len(residuals) - 1, residuals[0], residuals[-1],
                         degree, float(np.sum(np.abs(coeffs[degree + 1 :]))))
        return residuals[-1], (astar, residuals[-1])

    # Newton steps make 4 w points enough; below 2^13 points (128 KiB of
    # complex doubles) a smaller grid saves little, and widths up to 512
    # keep the 16 w grid, and with it the Weiss result bit for bit
    start = min(_power_of_two_at_least(16 * width),
                max(_power_of_two_at_least(4 * width), 1 << 13))
    _, (coeffs, residual) = _doubling_grid(
        n_points or start, assemble, PAIR_RESIDUAL_TOL,
        "outer complement determinant residual", n_points or MAX_GRID)
    astar = CoefficientSequence(0, degree, coeffs).trim()
    require_outer(astar)
    return NlftPair(star_reflect(astar), b, residual)


def require_outer(astar: CoefficientSequence) -> None:
    """Raise ``OuternessError`` if ``astar`` has zeros in the unit disk.

    Winding on ``|z| = 1`` counts the zeros of ``a*`` inside the disk;
    layer stripping assumes there are none.  The count is certified:
    with ``S = sum_k k |c_k|`` bounding ``|d a*(e^{it}) / dt|``, a grid
    of ``N`` samples on which ``2 pi S / N < min_j |a*(z_j)|`` leaves no
    zero on the circle and makes the phase-unwrapped count exact.  By
    discrete Parseval ``min_j |a*(z_j)| <= |c|_2`` on any grid above
    ``deg a*``, so no ``N <= 2 pi S / |c|_2`` certifies: ``N`` starts
    at the smallest power of two above both ``deg a*`` and that bound
    and doubles until the certificate holds, up to ``4 * MAX_GRID``
    samples; past that the count is taken uncertified and logged at
    DEBUG.
    Rounding in the samples, of the order of ``eps * sum_k |c_k|``, is
    left out of the certificate.
    """
    k = np.arange(astar.support_lo, astar.support_hi + 1)
    slope = float(np.sum(k * np.abs(astar.coeffs)))
    norm = astar.l2_norm()
    bound = min(2.0 * np.pi * slope / norm if norm else 0.0, 4 * MAX_GRID - 1)
    n = _power_of_two_at_least(max(astar.support_hi + 1, int(bound) + 1))
    while True:
        vals = _circle_values(astar, n, 1.0)
        certified = 2.0 * np.pi * slope / n < float(np.min(np.abs(vals)))
        if certified or n >= 4 * MAX_GRID:
            break
        n *= 2
    if not certified:
        logger.debug("require_outer: winding count on %d samples is not "
                     "certified (S = %.3e)", n, slope)
    wn = _phase_count(vals)
    if wn != 0:
        raise OuternessError(f"spectral factor winds {wn} times on |z| = 1")


def grid_quotient(
    numer: CoefficientSequence,
    denom: CoefficientSequence,
    n_points: int,
    window: tuple[int, int],
) -> CoefficientSequence:
    """Windowed coefficients of ``numer / denom`` via grid division."""
    dv = _nonvanishing(_eval_samples(denom, n_points), "denominator")
    nv = _eval_samples(numer, n_points)
    return from_grid(GridFunction(n_points, nv / dv), window)


def _b_lo(pair: NlftPair) -> int:
    return pair.b.support_lo if not pair.b.is_empty else 0


def _symbol_samples(pair: NlftPair, n_points: int | None,
                    start: int) -> tuple[int, np.ndarray]:
    """``(N, samples of b/a*)`` on ``N = n_points``, or else on the first
    grid doubling from ``start`` on which ``b/a*`` has no coefficient
    above ``CLAMP_TOL`` on the top half ``[lo(b) + N/2, lo(b) + N)`` of
    its index range, which folds back (``ConsistencyError`` past
    ``core.MAX_GRID``).  ``RhSystem`` and the checks sample here; layer
    stripping reads no ``b/a*`` and samples nothing."""
    lo = _b_lo(pair)

    def sampled(grid):
        av = _nonvanishing(_eval_samples(pair.a, grid), "a")
        return _eval_samples(pair.b, grid) / np.conj(av)

    def folded(grid):
        t = sampled(grid)
        top = _window_coeffs(t, lo + grid // 2, lo + grid - 1)
        return float(np.max(np.abs(top))), t

    if n_points is not None:
        return n_points, sampled(n_points)
    return _doubling_grid(start, folded, CLAMP_TOL,
                          "coefficients of b/a* folded by the grid")


def _ratio_grid(pair: NlftPair) -> int:
    """The grid, doubled from the pair grid, on which ``b/a*`` stops
    folding (see ``_symbol_samples``)."""
    return _symbol_samples(pair, None, _pair_grid(pair))[0]


def _full_symbol_ratio(
    pair: NlftPair, n_points: int | None = None
) -> CoefficientSequence:
    """``b / a*`` on the ``N - 1`` indices from ``lo(b)`` on that its
    grid resolves; without ``n_points``, ``N`` is ``_ratio_grid``."""
    n_points, t = _symbol_samples(pair, n_points, _pair_grid(pair))
    lo = _b_lo(pair)
    return CoefficientSequence(lo, lo + n_points - 2,
                               _window_coeffs(t, lo, lo + n_points - 2))


def symbol_ratio(
    pair: NlftPair,
    n_points: int | None = None,
    window: tuple[int, int] | None = None,
) -> CoefficientSequence:
    """Coefficients of the ratio ``b / a*`` on a window.

    The ratio is supported on ``[support_lo(b), inf)``; with
    ``window=None`` the window starts there and is grown until the
    remaining tail mass (as far as the grid resolves it) drops below
    1e-10, starting from the baseline width ``4 * width(b)``.  Without
    ``n_points`` the grid doubles until the ratio no longer folds.
    """
    b = pair.b
    if b.is_empty:
        return CoefficientSequence.empty()
    full = _full_symbol_ratio(pair, n_points)
    lo = b.support_lo
    mags = np.abs(full.coeffs)
    if window is not None:
        out = full.restrict(window[0], window[1])
        tail = float(np.sum(mags[window[1] + 1 - lo :])) if window[1] >= lo else float(np.sum(mags))
        logger.debug("symbol_ratio tail mass beyond %s: %.3e", window, tail)
        return out
    suffix = np.cumsum(mags[::-1])[::-1]  # suffix[k] = sum of |c| from k on
    hi = lo + 4 * b.width
    while hi - lo + 1 < full.width and suffix[hi + 1 - lo] > TAIL_TARGET:
        hi += b.width
    hi = min(hi, full.support_hi)
    return full.restrict(lo, hi)


def symbol_tail_mass(
    pair: NlftPair,
    n_points: int,
    window: tuple[int, int],
) -> float:
    """Mass of ``b / a*`` coefficients beyond ``window``, as the grid sees it."""
    if pair.b.is_empty:
        return 0.0
    full = _full_symbol_ratio(pair, n_points)
    beyond = full.restrict(window[1] + 1, full.support_hi)
    before = full.restrict(full.support_lo, window[0] - 1)
    return float(np.sum(np.abs(beyond.coeffs)) + np.sum(np.abs(before.coeffs)))
