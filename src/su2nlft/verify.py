"""Instance-level verification of the transform identities and estimates.

Each check measures one identity or inequality on a concrete instance
and returns a small record.  Checks come in three kinds:

* ``hard``: an exact identity or an inequality with explicit constant;
  gates the overall pass flag.
* ``monitored``: an inequality whose absolute constant is unspecified;
  the measured ratio is recorded for regression tracking, never gated.
* ``inapplicable``: the hypothesis of the statement fails on this
  instance, so nothing is asserted.

``run_suite`` composes everything, including a full inverse round trip.
It builds ``b/a*`` once for its decay records and once, reflected, for
its Baxter ratios, and its LU check reuses the grid of the first.  The
suites build each record under one guard (``_guarded``), which turns a
check's ``NumericalError`` into that check's ``error`` record, and the
six hard identity checks build theirs by one pass rule
(``_hard_record``: ``value <= tolerance``, so a NaN fails).

The LU and antisymmetry checks apply grid multipliers to random
windowed probes as window-sized convolutions by the multipliers' grid
coefficients (``core._window_multiply``), batched as columns; no probe
transforms the whole grid.  Four of the twelve LU probes apply only the
identity between disjoint windows and read 0; the other eight share one
convolution per symbol over the union of their windows, and the
pointwise LU identities are evaluated only in the one entry that can
miss.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BeurlingWeight,
    CoefficientSequence,
    NlftPair,
    _doubling_grid,
    _eval_samples,
    _grid_coeffs,
    _nonvanishing,
    _pair_grid,
    _power_of_two_at_least,
    _power_samples,
    _window_multiply,
    derivative,
    max_abs_difference,
    sobolev_norm,
    star_reflect,
    weighted_l1_norm,
)
from .errors import (
    NumericalError,
    SzegoMarginError,
    ValidationError,
)
from .forward import nlft_forward
from .inverse import (CONTRACTION_SLACK, DEFAULT_SOLVER_TOL, RhSystem,
                      _apply_m_vec, _complete_and_strip, _contraction_excess,
                      reflect_pair)
from .spectral import (DEFAULT_SZEGO_MARGIN, _b_lo, _full_symbol_ratio,
                       _ratio_grid)

logger = logging.getLogger(__name__)

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "check_determinant",
    "check_plancherel",
    "check_sinh_bound",
    "check_decay_first_order",
    "check_decay_fractional",
    "check_quantitative_baxter",
    "check_lu_factorization",
    "check_antisymmetry",
    "check_contraction",
    "check_round_trip",
    "decay_table",
    "run_pair_checks",
    "run_suite",
]

HARD = "hard"
MONITORED = "monitored"
INAPPLICABLE = "inapplicable"
ERROR = "error"

DET_TOL = 1e-12
PLANCHEREL_TOL = 1e-8
SINH_TOL = 1e-12
DECAY_TOL = 1e-10
LU_TOL = 1e-11
ANTISYM_TOL = 1e-12
ROUND_TRIP_TOL = 1e-8
LU_MIN_A = 0.1  # the LU check is inapplicable below this min |a|
SOBOLEV_ORDERS = (1.0, 1.5, 2.0)  # orders of the fractional decay ratios
WEIGHT_EXPONENTS = (0.5, 1.0, 2.0)  # alphas of the default polynomial weights


@dataclass
class CheckRecord:
    """Outcome of a single check."""

    name: str
    anchor: str  # name of the identity/estimate being exercised
    kind: str  # hard / monitored / inapplicable / error
    lhs: float | None
    rhs: float | None
    value: float | None  # residual, margin or ratio, per check
    passed: bool
    tolerance: float | None
    weight: str | None = None
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if self.kind == MONITORED:
            tag = "INFO"
        elif self.kind == INAPPLICABLE:
            tag = "N/A "
        bits = [f"[{tag}] {self.name}"]
        if self.weight:
            bits.append(f"w={self.weight}")
        if self.value is not None:
            bits.append(f"value={self.value:.3e}")
        if self.tolerance is not None:
            bits.append(f"tol={self.tolerance:.1e}")
        if self.detail:
            bits.append(self.detail)
        return "  ".join(bits)

    def to_dict(self) -> dict:
        def num(x):
            return None if x is None else float(x)

        return {
            "name": self.name,
            "anchor": self.anchor,
            "kind": self.kind,
            "lhs": num(self.lhs),
            "rhs": num(self.rhs),
            "value": num(self.value),
            "passed": bool(self.passed),
            "tolerance": num(self.tolerance),
            "weight": self.weight,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    records: list[CheckRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    # run_suite's decay_table rows, read from its own pair and b/a*; None
    # when b/a* could not be built.  Not part of to_dict
    decay_rows: list | None = None

    @property
    def overall_pass(self) -> bool:
        """True iff every applicable hard check passed and nothing errored."""
        for r in self.records:
            if r.kind == ERROR:
                return False
            if r.kind == HARD and not r.passed:
                return False
        return True

    def lines(self) -> list[str]:
        out = [r.line() for r in self.records]
        out.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return out

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "overall_pass": self.overall_pass,
            "records": [r.to_dict() for r in self.records],
        }


def _hard_record(name: str, anchor: str, lhs, rhs, value: float,
                 tolerance: float, detail: str = "") -> CheckRecord:
    """A ``hard`` record that passes iff ``value <= tolerance``; a NaN
    value fails."""
    return CheckRecord(name=name, anchor=anchor, kind=HARD, lhs=lhs, rhs=rhs,
                       value=value, passed=value <= tolerance,
                       tolerance=tolerance, detail=detail)


# ---------------------------------------------------------------------------
# hard identity checks
# ---------------------------------------------------------------------------


def check_determinant(pair: NlftPair, n_points: int | None = None) -> CheckRecord:
    """``max_j | |a|^2 + |b|^2 - 1 |`` on the grid against ``DET_TOL``."""
    if n_points is None:
        n_points = _pair_grid(pair)
    s = _power_samples((pair.a, pair.b), n_points)
    return _hard_record("determinant", "su2_determinant_identity",
                        float(np.max(s)), 1.0,
                        float(np.max(np.abs(s - 1.0))), DET_TOL)


def _shifted_log_gap_mean(b: CoefficientSequence, n_points: int) -> float:
    """Mean of ``-log(1 - |b|^2)`` over the half-step-shifted grid."""
    idx = np.arange(b.support_lo, b.support_hi + 1)
    shifted = CoefficientSequence(
        b.support_lo, b.support_hi,
        b.coeffs * np.exp(1j * np.pi * idx / n_points),
    )
    gap = 1.0 - np.abs(_eval_samples(shifted, n_points)) ** 2
    if np.min(gap) <= 1e-14:
        raise SzegoMarginError(
            f"1 - |b|^2 reaches {np.min(gap):.3e} on the quadrature grid; "
            "the logarithmic integral hypothesis fails"
        )
    return float(-np.mean(np.log(gap)))


def check_plancherel(F: CoefficientSequence, pair: NlftPair,
                     n_points: int | None = None) -> CheckRecord:
    """Sum rule: ``sum_k log(1+|F_k|^2) = -(1/2pi) int log(1-|b|^2)``.

    Quadrature nodes sit halfway between the standard grid points, so a
    boundary zero of ``1 - |b|^2`` at a root of unity (where the log
    singularity is still integrable) never lands on a node; its exact
    ``c/N`` aliasing error is removed by the Richardson value
    ``2 m(2N) - m(N)`` of the means on ``N`` and ``2N`` nodes.  Without
    ``n_points``, ``N`` doubles from the pair grid until that value moves
    by at most its tolerance from ``N/2`` to ``N``; the detail names ``N``.
    Raises ``SzegoMarginError`` when the gap is not positive on the nodes.
    """
    # log1p(|F|^2), as 2 log|F| + log1p(|F|^-2) above 1, where the square
    # overflows from |F| ~ 1.3e154
    with np.errstate(over="ignore"):  # an |F| past the range reads inf
        mag = np.abs(F.coeffs)
    big = mag > 1.0
    logs = np.log(mag[big])
    over = np.isinf(logs)  # there log|F| = log s + log|F / s|
    f = F.coeffs[big][over]
    s = np.maximum(np.abs(f.real), np.abs(f.imag))
    logs[over] = np.log(s) + np.log(np.abs(f / s))
    lhs = 2.0 * float(np.sum(logs))
    mag[big] = 1.0 / mag[big]
    lhs += float(np.sum(np.log1p(mag ** 2)))
    mean = functools.cache(functools.partial(_shifted_log_gap_mean, pair.b))

    def richardson(n):  # each mean is computed once
        return 2.0 * mean(2 * n) - mean(n)

    if n_points is None:
        n_points, rhs = _doubling_grid(
            _pair_grid(pair),
            lambda n: (abs(richardson(n) - richardson(n // 2)), richardson(n)),
            PLANCHEREL_TOL, "plancherel quadrature")
    else:
        rhs = richardson(n_points)
    return _hard_record("plancherel", "szego_plancherel_identity", lhs, rhs,
                        abs(lhs - rhs), PLANCHEREL_TOL, f"grid={n_points}")


def check_sinh_bound(F: CoefficientSequence, w: BeurlingWeight,
                     pair: NlftPair) -> CheckRecord:
    """``||b||_{A_w} <= sinh(||F||_{l1_w})``; margin must be >= -SINH_TOL.

    When ``sinh`` overflows the bound is vacuous: it passes for any
    finite lhs and records no rhs or margin.
    """
    lhs = weighted_l1_norm(pair.b, w)
    norm = weighted_l1_norm(F, w)
    try:
        rhs = math.sinh(norm)
    except OverflowError:
        rhs = margin = None
        passed = math.isfinite(lhs)
        detail = f"bound vacuous: ||F||_l1_w = {norm:.6g}"
    else:
        margin = rhs - lhs
        passed = margin >= -SINH_TOL
        detail = ""
    return CheckRecord(
        name="sinh_bound",
        anchor="sinh_norm_bound",
        kind=HARD,
        lhs=lhs,
        rhs=rhs,
        value=margin,
        passed=passed,
        tolerance=SINH_TOL,
        weight=w.descriptor,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# decay estimates
# ---------------------------------------------------------------------------


def _a_star_zero(pair: NlftPair) -> float:
    return float(np.real(pair.a.coefficient(0)))


def _decay_rows(F: CoefficientSequence, pair: NlftPair,
                ratio: CoefficientSequence):
    """The rows of ``decay_table`` for ``ratio = b/a*``; ``NumericalError``
    when some ``|F_n|`` is beyond the double range."""
    # numpy's abs reads inf past the range, where Python's raises
    with np.errstate(over="ignore"):
        mags = [float(abs(c)) for c in F.coeffs]
    if not all(map(math.isfinite, mags)):
        raise NumericalError("some |F_n| is beyond the double range")
    scale = 2.0 * _a_star_zero(pair) * derivative(ratio).l2_norm()
    return [(int(n), mag, scale / abs(n) if n != 0 else None)
            for n, mag in zip(F.indices(), mags)]


def _decay_records(F: CoefficientSequence, pair: NlftPair,
                   ratio: CoefficientSequence, orders,
                   rows=None) -> list[CheckRecord]:
    """The ``decay_first_order`` record, then one ``decay_fractional_s*``
    record per Sobolev order in ``orders``, all read from ``ratio``, the
    ``b/a*`` of ``_full_symbol_ratio``, and from ``rows``, its
    ``_decay_rows`` (built here if not given); ``sup |(b/a*)'|`` is
    sampled once."""
    if rows is None:
        rows = _decay_rows(F, pair, ratio)
    # (margin, |F_n|, bound, n) off the centre; the first worst is kept
    margin, mag, bound, n = min(
        [(bound - mag, mag, bound, n) for n, mag, bound
         in rows if bound is not None and mag != 0],
        key=lambda row: row[0], default=(0.0, 0.0, 0.0, None))
    records = [CheckRecord(
        name="decay_first_order", anchor="first_order_decay_bound", kind=HARD,
        lhs=mag, rhs=bound, value=margin, passed=margin >= -DECAY_TOL,
        tolerance=DECAY_TOL, detail="" if n is None else f"worst n={n}")]
    if orders:
        # the ratio spans N - 1 indices of its N-point grid
        deriv_inf = float(np.max(np.abs(_eval_samples(derivative(ratio),
                                                      ratio.width + 1))))
    with np.errstate(over="ignore"):  # a term past the range reads inf
        terms = [[abs(c) * abs(n) ** s for n, c in zip(F.indices(), F.coeffs)
                  if n != 0 and c != 0] for s in orders]
    for s, nums in zip(orders, terms):
        denom = (_a_star_zero(pair) * (1.0 + sobolev_norm(ratio, s))
                 * max(1.0, deriv_inf) ** math.ceil(s))
        # a*(0) underflows to 0 for F near the largest double
        if not (0.0 < denom < math.inf and all(map(math.isfinite, nums))):
            raise NumericalError(
                f"the order-{s:g} decay ratio has a term beyond the double "
                f"range or a zero denominator")
        lhs = max(nums, key=lambda num: num / denom, default=0.0)
        records.append(CheckRecord(
            name=f"decay_fractional_s{s:g}", anchor="fractional_decay_ratio",
            kind=MONITORED, lhs=lhs, rhs=denom, value=lhs / denom,
            passed=True, tolerance=None, detail=f"s={s:g}"))
    return records


def check_decay_first_order(F: CoefficientSequence, pair: NlftPair,
                            n_points: int | None = None) -> CheckRecord:
    """``|F_n| <= (2 a*(0) / |n|) ||(b/a*)'||_L2`` for every ``n != 0``.

    Reports the worst margin (bound minus ``|F_n|``) over the support.
    """
    return _decay_records(F, pair, _full_symbol_ratio(pair, n_points), ())[0]


def check_decay_fractional(F: CoefficientSequence, pair: NlftPair, s: float,
                           n_points: int | None = None) -> CheckRecord:
    """Monitored ratio for the fractional decay estimate of order ``s``.

    rho(n) = |F_n| |n|^s / [a*(0) (1 + ||b/a*||_{H^s})
                            max(1, ||(b/a*)'||_inf^ceil(s))].

    The estimate's absolute constant is unspecified, so the max ratio is
    recorded without a pass/fail gate.  Without ``n_points`` the grid
    doubles as in ``decay_table``, and the derivative is sampled on it.
    ``NumericalError`` when a term is past the double range or ``a*(0)``
    underflows to 0.
    """
    if not 1 <= s < math.inf:  # NaN fails too
        raise ValidationError("fractional decay needs a finite s >= 1")
    return _decay_records(F, pair, _full_symbol_ratio(pair, n_points),
                          (s,))[1]


def check_quantitative_baxter(F: CoefficientSequence, pair: NlftPair,
                              w: BeurlingWeight,
                              n_points: int | None = None) -> CheckRecord:
    """Monitored ratio ``||F||_{l1_w} eps / ||b/a||_{A_w}``.

    Applicable only when ``||b||_{A_w} < 1/sqrt(2) - eps``, ``eps`` half
    the available margin.  ``b/a`` is read reversed, as the ``b/a*`` of
    ``reflect_pair(pair)``; a symmetric weight gives the same norm.
    Without ``n_points`` the grid doubles until it stops folding.  A
    ratio past the double range raises ``NumericalError``.
    """
    return _baxter_record(F, pair, w, lambda: _full_symbol_ratio(
        reflect_pair(pair), n_points))


def _baxter_record(F: CoefficientSequence, pair: NlftPair, w: BeurlingWeight,
                   reflected_ratio) -> CheckRecord:
    """``check_quantitative_baxter``, with ``reflected_ratio()`` giving the
    ``b/a*`` of ``reflect_pair(pair)``; it is called only if read."""
    b_norm = weighted_l1_norm(pair.b, w)
    target = 1.0 / math.sqrt(2.0)
    epsilon = max((target - b_norm) / 2.0, 0.0)
    if not (b_norm < target - epsilon) or epsilon <= 0.0:
        return CheckRecord(
            name="quantitative_baxter", anchor="quantitative_inverse_ratio",
            kind=INAPPLICABLE, lhs=b_norm, rhs=target, value=None,
            passed=True, tolerance=None, weight=w.descriptor,
            detail="||b||_Aw not below 1/sqrt(2) - eps")
    lhs = weighted_l1_norm(F, w) * epsilon
    quot_norm = 0.0 if F.is_empty else weighted_l1_norm(reflected_ratio(), w)
    value = lhs / quot_norm if quot_norm else 0.0
    if not math.isfinite(value):
        raise NumericalError(f"Baxter ratio {lhs:.3e} / {quot_norm:.3e} "
                             "is beyond the double range")
    return CheckRecord(
        name="quantitative_baxter",
        anchor="quantitative_inverse_ratio",
        kind=MONITORED,
        lhs=lhs,
        rhs=quot_norm,
        value=value,
        passed=True,
        tolerance=None,
        weight=w.descriptor,
        detail=f"eps={epsilon:.4g}",
    )


# ---------------------------------------------------------------------------
# LU factorization and operator probes
# ---------------------------------------------------------------------------


def _lu_window(pair: NlftPair) -> tuple[int, int]:
    """``(n, k)`` of the LU check: the truncation ``n``, midpoint of the
    support of ``b``, and the probe window length ``k``, which the check
    keeps on grids of more than ``4 k`` points."""
    n = (pair.b.support_lo + pair.b.support_hi) // 2 if not pair.b.is_empty else 0
    return n, max(pair.a.width, pair.b.width, 8)


def check_lu_factorization(pair: NlftPair, n_points: int | None = None,
                           seed: int = 0) -> CheckRecord:
    """Pointwise LU identities and the vanishing operator compositions.

    Checks ``C = L U`` and ``C = Ut Lt`` entrywise on the grid, the
    eight triangularity compositions (lower family against the analytic
    projection, upper family against its complement) and the four
    compositions with the split projections at the midpoint ``n`` of the
    support of ``b``, all on four rounds of random windowed probes.  The
    record value is the worst residual, gated at ``LU_TOL``.

    Each probe applies one symbol between an input and an output window.
    In four (``Lt``, ``Lt^-1`` on ``[-k, -1]``, ``Ut``, ``Ut^-1`` on
    ``[0, k]``) it is the identity between disjoint windows: they read 0.
    The other eight apply ``1/a``, ``a``, ``1/a*`` and ``a*``, two each,
    as one window-sized convolution per symbol, all rounds at once, by
    the stored coefficients of ``a`` and ``a*`` and FFTs of ``1/a`` and
    ``1/a*``.  The split windows sit at 0, not at ``n``: a grid product
    is cyclic and commutes with ``z^n``.  Pointwise, six entries
    of ``L U`` and ``Ut Lt`` are entries of ``C`` times exact zeros and
    ones, and ``(Ut Lt)_11`` sums the products of ``(L U)_00``, so only
    that one entry is evaluated.

    The compositions vanish exactly only for the bi-infinite symbols;
    on a grid the tails of 1/a alias into the forbidden windows.  The
    default grid is ``4 * core._pair_grid``; the suites pass the grid on
    which ``b/a*`` stops folding (``spectral._ratio_grid``, which does
    not exist for a pair with ``a*(0) = 0``), raised if needed to the
    smallest that keeps the probe windows (``_lu_window``).
    """
    if n_points is None:
        n_points = 4 * _pair_grid(pair)
    av = _nonvanishing(_eval_samples(pair.a, n_points), "a")
    bv = _eval_samples(pair.b, n_points)
    astar = np.conj(av)
    inv_a, inv_astar = 1.0 / av, 1.0 / astar
    bstar_a, neg_b_astar = np.conj(bv) / av, -bv / astar

    # entry (0, 0) of C - L U; (1, 1) of C - Ut Lt is the same sum of the
    # same products, and the other six are entries of C times exact zeros
    # and ones, so exactly 0 for finite symbols
    res_lu = float(np.max(np.abs(
        1.0 - (inv_a * inv_astar + bstar_a * neg_b_astar))))

    n_probes = 4
    n, k = _lu_window(pair)
    if 4 * k >= n_points:
        k = max(n_points // 4 - 1, 4)
    pos, below, split_lo, split_hi = (0, k), (-k - 1, -1), (-k, 0), (1, 1 + k)
    # the input windows of the twelve probes, in the order they are
    # drawn: L, L^-1, Lt, Lt^-1 on the negative window; U, U^-1, Ut,
    # Ut^-1 on the nonnegative one; Lt, Lt^-1 with the split projections
    # at n, and Ut, Ut^-1 with their complements, the split taken at 0
    ins = ([[(-k, -1)]] * 4 + [[pos, (-k, k)]] * 4 + [[pos, split_lo]] * 2
           + [[split_hi]] * 2)
    # input i of probe p starts on row at[first[p] + i] of the draw
    at = np.cumsum([0] + [2 * (w[1] - w[0] + 1) for p in ins for w in p])
    first = np.cumsum([0] + [len(p) for p in ins])
    # one draw, laid out round by round, probe by probe, input by input,
    # the real parts of an input before its imaginary parts; copied to
    # contiguous rows (one per entry, a column per round)
    draws = np.random.default_rng(seed).standard_normal(
        (n_probes, at[-1])).T.copy()
    in_sq = np.add.reduceat(draws ** 2, at[first[:-1]], axis=0)

    # the eight probes that can leak, as (probe, input, output window),
    # after the grid coefficients of their symbol: 1/a, a, 1/a*, a*
    table = (
        (np.fft.fft(inv_a, norm="forward"), (0, 0, pos), (8, 1, split_hi)),
        (_grid_coeffs(pair.a, n_points), (1, 0, pos), (9, 1, split_hi)),
        (np.fft.fft(inv_astar, norm="forward"),
         (4, 0, below), (10, 0, split_lo)),
        (_grid_coeffs(star_reflect(pair.a), n_points),
         (5, 0, below), (11, 0, split_lo)),
    )
    out_sq = np.zeros_like(in_sq)
    for spec, *terms in table:
        # the rounds of each term as columns, zero outside its input window
        windows = [ins[p][i] for p, i, _ in terms]
        in_lo, out_lo = min(w[0] for w in windows), min(t[2][0] for t in terms)
        x = np.zeros((max(w[1] for w in windows) - in_lo + 1, 2, n_probes),
                     dtype=np.complex128)
        for c, ((p, i, _), (lo, hi)) in enumerate(zip(terms, windows)):
            o, block = at[first[p] + i], x[lo - in_lo:hi + 1 - in_lo, c]
            block.real, block.imag = draws[o:o + 2 * (hi - lo + 1)].reshape(
                2, -1, n_probes)
        y = _window_multiply(spec, x.reshape(len(x), -1), in_lo, out_lo,
                             max(t[2][1] for t in terms))
        y = y.reshape(len(y), 2, n_probes)
        for c, (p, _, (lo, hi)) in enumerate(terms):
            rows = y[lo - out_lo:hi + 1 - out_lo, c]
            # reduceat: np.add.reduce sums in another order
            out_sq[p] = np.add.reduceat(rows.real ** 2 + rows.imag ** 2,
                                        [0], axis=0)
    worst_probe = float(np.max(np.sqrt(out_sq / in_sq)))

    return _hard_record("lu_factorization", "lu_factorization_identity",
                        res_lu, worst_probe, max(res_lu, worst_probe), LU_TOL,
                        f"n={n} probes={n_probes} grid={n_points}")


# ---------------------------------------------------------------------------
# operator checks tied to the solver
# ---------------------------------------------------------------------------


def check_antisymmetry(pair: NlftPair, n: int | None = None,
                       n_points: int | None = None, n_probes: int = 20,
                       seed: int = 0) -> CheckRecord:
    """``|<Mx, y> + <x, My>| <= ANTISYM_TOL ||x|| ||y||`` on random probes.

    The probes run as one batch through ``apply_m``'s convolutions; each
    block reads its own symbol, so neither is derived from the other.
    """
    if n is None:
        n = pair.b.support_hi if not pair.b.is_empty else 0
    # M is skew on any grid that holds its windows, resolved or not
    sys = RhSystem.build(pair, n, n_points or max(
        _pair_grid(pair), _power_of_two_at_least(2 * (n - _b_lo(pair) + 2))))
    w = sys.bandwidth
    # columns x_0, y_0, x_1, y_1, ... in the order they are drawn, each
    # its real parts, then its imaginary parts
    draws = np.random.default_rng(seed).standard_normal((2 * n_probes, 2, 2 * w))
    v = (draws[:, 0] + 1j * draws[:, 1]).T.copy()
    mv = np.concatenate(_apply_m_vec(sys, v[:w], v[w:]))
    x, y, mx, my = v[:, 0::2], v[:, 1::2], mv[:, 0::2], mv[:, 1::2]
    # <u, v> = sum u conj(v)
    s = np.sum(np.conj(y) * mx + np.conj(my) * x, axis=0)
    worst = float(np.max(
        np.abs(s) / (np.linalg.norm(x, axis=0) * np.linalg.norm(y, axis=0)),
        initial=0.0))
    return _hard_record("antisymmetry", "rh_antisymmetry", worst, 0.0, worst,
                        ANTISYM_TOL,
                        f"n={n} probes={n_probes} grid={sys.n_points}")


def check_contraction(records) -> CheckRecord:
    """Solution 2-norm never exceeds the rhs 2-norm, up to roundoff slack
    (``inverse._contraction_excess``, as ``InverseReport.contraction_ok``)."""
    records = list(records)
    worst = _contraction_excess(records)
    return _hard_record("contraction", "rh_inverse_contraction", 1.0 + worst,
                        1.0, float(worst), CONTRACTION_SLACK,
                        f"solves={len(records)}")


def check_round_trip(F: CoefficientSequence, pair: NlftPair,
                     solver_tol: float = DEFAULT_SOLVER_TOL,
                     tol: float = ROUND_TRIP_TOL,
                     szego_margin: float = DEFAULT_SZEGO_MARGIN):
    """Invert the forward output and compare; also yields the contraction
    record.  The completion of ``pair.b`` sizes its own grid, and
    stripping needs none.  A residual that is not finite raises
    ``NumericalError``."""
    window = (F.support_lo, F.support_hi) if not F.is_empty else (0, 0)
    _, recovered, records = _complete_and_strip(
        pair.b, window, None, solver_tol, szego_margin)
    err = max_abs_difference(recovered, F)
    if not math.isfinite(err):
        raise NumericalError(f"round-trip residual {err} is not finite")
    return (_hard_record("round_trip", "round_trip_recovery", err, 0.0, err,
                         tol, f"window=[{window[0]},{window[1]}]"),
            check_contraction(records))


def decay_table(F: CoefficientSequence, pair: NlftPair,
                n_points: int | None = None):
    """Rows ``(n, |F_n|, first_order_rhs)`` over the support of ``F``.

    The rhs column is ``None`` at ``n = 0``, where the first-order bound
    says nothing.  Without ``n_points`` the grid of ``b/a*`` doubles as
    in ``RhSystem.build`` (``ConsistencyError`` past ``core.MAX_GRID``);
    ``NumericalError`` when some ``|F_n|`` is past the double range.
    """
    return _decay_rows(F, pair, _full_symbol_ratio(pair, n_points))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def _error_record(name: str, anchor: str, exc: Exception,
                  weight: str | None = None) -> CheckRecord:
    return CheckRecord(
        name=name, anchor=anchor, kind=ERROR, lhs=None, rhs=None, value=None,
        passed=False, tolerance=None, weight=weight,
        detail=f"{type(exc).__name__}: {exc}")


def _guarded(name: str, anchor: str, build,
             weight: BeurlingWeight | None = None) -> list[CheckRecord]:
    """The records of ``build()`` (one record or a sequence of them), or,
    when it raises ``NumericalError``, the one error record of check
    ``name``, which names the ``weight`` of a per-weight check."""
    try:
        out = build()
    except NumericalError as exc:
        return [_error_record(name, anchor, exc,
                              None if weight is None else weight.descriptor)]
    return [out] if isinstance(out, CheckRecord) else list(out)


def _operator_records(
        pair: NlftPair, n_points: int | None, seed: int,
        ratio_grid: int | CheckRecord | None = None) -> list[CheckRecord]:
    """The LU and skew-adjointness records of a pair, each under the guard.

    The LU check is inapplicable when ``min |a| < LU_MIN_A`` on the
    grid.  Otherwise it runs on ``n_points`` or, when that is ``None``,
    on the fold grid of ``b/a*`` (``ratio_grid``, or ``_ratio_grid(pair)``
    when not given), raised to the smallest power of two above ``4 k``
    (``_lu_window``).  A ``ratio_grid`` that is the error record of a
    ``b/a*`` that could not be built is repeated as the LU record.
    """
    def lu():
        min_a = float(np.min(np.abs(_eval_samples(
            pair.a, n_points or _pair_grid(pair)))))
        if min_a < LU_MIN_A:
            return CheckRecord(
                name="lu_factorization", anchor="lu_factorization_identity",
                kind=INAPPLICABLE, lhs=min_a, rhs=LU_MIN_A, value=None,
                passed=True, tolerance=None,
                detail=f"min |a| = {min_a:.3f} below the {LU_MIN_A} floor",
            )
        if n_points is None and isinstance(ratio_grid, CheckRecord):
            return dataclasses.replace(ratio_grid, name="lu_factorization",
                                       anchor="lu_factorization_identity")
        _, k = _lu_window(pair)
        return check_lu_factorization(pair, n_points or max(
            ratio_grid or _ratio_grid(pair),
            _power_of_two_at_least(4 * k + 1)), seed=seed)

    return (_guarded("lu_factorization", "lu_factorization_identity", lu)
            + _guarded("antisymmetry", "rh_antisymmetry",
                       lambda: check_antisymmetry(pair, n_points=n_points,
                                                  seed=seed)))


def run_pair_checks(pair: NlftPair, n_points: int | None = None,
                    seed: int = 0) -> VerificationReport:
    """Checks that need only the pair (a, b), not the generating sequence.

    Used for externally supplied pairs, where determinant failure is the
    typical defect to surface.  ``metadata["grid"]`` is the grid of the
    determinant check.  A check that raises ``NumericalError`` gives its
    error record, which fails the report, and the other checks still run.
    """
    report = VerificationReport(
        metadata={"input": "pair", "grid": n_points or _pair_grid(pair)})
    report.records += _guarded("determinant", "su2_determinant_identity",
                               lambda: check_determinant(pair, n_points))
    report.records += _operator_records(pair, n_points, seed)
    return report


def run_suite(
    F: CoefficientSequence | None = None,
    b: CoefficientSequence | None = None,
    n_points: int | None = None,
    weights: list[BeurlingWeight] | None = None,
    support_window: tuple[int, int] | None = None,
    solver_tol: float = DEFAULT_SOLVER_TOL,
    round_trip_tol: float = ROUND_TRIP_TOL,
    szego_margin: float = DEFAULT_SZEGO_MARGIN,
    seed: int = 0,
) -> VerificationReport:
    """Run every check on one instance.

    Give either the sequence ``F`` (forward direction, round trip
    included) or the datum ``b`` (inverse direction first; the checks
    then run on the recovered sequence).  Hard-check failures and
    numerical errors flip the overall flag; monitored ratios never do.
    A check that raises ``NumericalError`` gives its error record (one
    per weight for the per-weight checks) and the other checks still
    run; only a failed inverse path ends the ``b`` suite early, as its
    one ``inverse_path`` record.  ``metadata["grid"]`` is the grid of
    the determinant check, and of the
    decay checks when ``n_points`` is given; the plancherel, LU and
    antisymmetry records name their own.  The round trips take no
    ``n_points``: their completion sizes its own grid, and stripping
    needs none.

    ``b/a*`` is built once for the decay records and for
    ``report.decay_rows``, the rows of ``decay_table``; without
    ``n_points``, its fold grid is also the LU check's (raised to the
    LU window floor), and when it cannot be built the LU record repeats
    the ``decay`` error record.  The Baxter records read one ``b/a*`` of
    the reflected pair, built for the first weight that applies.
    """
    if (F is None) == (b is None):
        raise ValidationError("provide exactly one of F or b")
    if weights is None:
        weights = [BeurlingWeight.one()] + [
            BeurlingWeight.polynomial(alpha) for alpha in WEIGHT_EXPONENTS
        ]
    report = VerificationReport()
    records = report.records
    inverse_records = None

    if F is not None:
        pair = nlft_forward(F, n_points)
    else:
        try:
            _, F, inverse_records = _complete_and_strip(
                b,
                support_window if support_window is not None
                else (b.support_lo, b.support_hi),
                None, solver_tol, szego_margin,
            )
        except NumericalError as exc:
            records.append(
                _error_record("inverse_path", "round_trip_recovery", exc))
            report.metadata["input"] = "b"
            return report
        pair = nlft_forward(F, n_points)
        err = max_abs_difference(pair.b, b)
        records.append(_hard_record(
            "round_trip", "round_trip_recovery", err, 0.0, err,
            round_trip_tol, "reconstruction of b from the recovered sequence"))

    report.metadata = {
        "support": [F.support_lo, F.support_hi] if not F.is_empty else None,
        "grid": n_points or _pair_grid(pair),
        "weights": [w.descriptor for w in weights],
        "sobolev_orders": list(SOBOLEV_ORDERS),
        "seed": seed,
    }

    records += _guarded("determinant", "su2_determinant_identity",
                        lambda: check_determinant(pair, n_points))
    records += _guarded("plancherel", "szego_plancherel_identity",
                        lambda: check_plancherel(F, pair, n_points))
    for w in weights:
        records += _guarded("sinh_bound", "sinh_norm_bound",
                            lambda: check_sinh_bound(F, w, pair), w)
    ratio_grid = None

    def decay():
        nonlocal ratio_grid
        ratio = _full_symbol_ratio(pair, n_points)
        ratio_grid = ratio.width + 1  # the ratio spans N - 1 indices
        report.decay_rows = _decay_rows(F, pair, ratio)
        return _decay_records(F, pair, ratio, SOBOLEV_ORDERS,
                              report.decay_rows)

    decay_records = _guarded("decay", "first_order_decay_bound", decay)
    records += decay_records
    reflected_ratio = functools.cache(
        lambda: _full_symbol_ratio(reflect_pair(pair), n_points))
    for w in weights:
        records += _guarded("quantitative_baxter", "quantitative_inverse_ratio",
                            lambda: _baxter_record(F, pair, w, reflected_ratio),
                            w)
    # without b/a*, decay_records is its one error record
    records += _operator_records(pair, n_points, seed,
                                 ratio_grid or decay_records[0])

    if inverse_records is None:
        records += _guarded("round_trip", "round_trip_recovery",
                            lambda: check_round_trip(
                                F, pair, solver_tol=solver_tol,
                                tol=round_trip_tol, szego_margin=szego_margin))
    else:
        records += _guarded("contraction", "rh_inverse_contraction",
                            lambda: check_contraction(inverse_records))
    return report
