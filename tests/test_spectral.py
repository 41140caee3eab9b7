import logging
import re
import warnings

import numpy as np
import pytest

from su2nlft import (
    CoefficientSequence,
    ConsistencyError,
    GridSizeError,
    OuternessError,
    SzegoMarginError,
    ValidationError,
    VanishingSymbolError,
    grid_quotient,
    max_abs_difference,
    nlft_forward,
    outer_complement,
    star_reflect,
    symbol_ratio,
    symbol_tail_mass,
    weighted_l1_norm,
    winding_number,
    BeurlingWeight,
)
from su2nlft import spectral
from su2nlft.core import MAX_GRID
from su2nlft.forward import CLAMP_TOL
from su2nlft.spectral import require_outer


def seq(entries):
    return CoefficientSequence.from_dict(entries)


TWO_POINT_PAIR = nlft_forward(seq({0: 0.5, 1: 0.5}))


class TestWinding:
    def test_pure_power(self):
        assert winding_number(CoefficientSequence.single(3, 1.0), 64) == 3

    def test_constant(self):
        assert winding_number(CoefficientSequence.constant(2.0), 16) == 0

    def test_zero_outside_disk(self):
        # 0.8 - 0.2 z has its zero at z = 4
        assert winding_number(seq({0: 0.8, 1: -0.2}), 64) == 0

    def test_zero_inside_disk(self):
        # 0.2 - 0.8 z vanishes at z = 0.25
        assert winding_number(seq({0: 0.2, 1: -0.8}), 64) == 1

    def test_rejects_negative_support(self):
        with pytest.raises(ValidationError):
            winding_number(seq({-1: 1.0}), 64)

    def test_rejects_empty(self):
        with pytest.raises(VanishingSymbolError):
            winding_number(CoefficientSequence.empty(), 64)

    def test_needs_enough_samples(self):
        with pytest.raises(GridSizeError):
            winding_number(CoefficientSequence.single(70, 1.0), 64)

    @pytest.mark.parametrize("turn", [1j, -1j])
    def test_samples_far_apart_in_size(self, turn):
        # a zero near the contour puts samples 1e-300 and 1e300 side by
        # side; their quotient overflowed
        vals = np.array([1e-300, 1e300, 1e-300, 1e300]) * turn ** np.arange(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral._phase_count(vals) == (1 if turn == 1j else -1)


class TestOuterComplement:
    def test_two_point_recovers_forward_a(self):
        comp = outer_complement(TWO_POINT_PAIR.b)
        assert max_abs_difference(comp.a, TWO_POINT_PAIR.a) < 1e-12

    def test_normalization_positive(self):
        comp = outer_complement(TWO_POINT_PAIR.b)
        c0 = star_reflect(comp.a).coefficient(0)
        assert abs(c0.imag) < 1e-14 and c0.real > 0

    def test_empty_b(self):
        comp = outer_complement(CoefficientSequence.empty())
        assert comp.a.coefficient(0) == pytest.approx(1.0)
        assert comp.grid_residual < 1e-13

    def test_szego_margin_violation(self):
        with pytest.raises(SzegoMarginError):
            outer_complement(seq({0: 0.5, 1: 0.5}))

    def test_near_unit_modulus_rejected(self):
        with pytest.raises(SzegoMarginError):
            outer_complement(seq({0: 0.9999995}))

    @pytest.mark.parametrize("entries", [
        {0: 1.5e154j},  # |b|^2 overflows on the grid
        {0: 1.7e308, 1: 1.7e308},  # the samples of b overflow
    ])
    @pytest.mark.parametrize("n_points", [None, 16])
    def test_coefficient_above_one_refused_before_sampling(self, entries,
                                                           n_points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SzegoMarginError, match="max_k"):
                outer_complement(seq(entries), n_points)

    def test_wide_random_instance(self):
        rng = np.random.default_rng(5)
        vals = 0.15 * (rng.standard_normal(21) + 1j * rng.standard_normal(21))
        pair = nlft_forward(CoefficientSequence(-10, 10, vals))
        comp = outer_complement(pair.b)
        assert max_abs_difference(comp.a, pair.a) < 1e-10
        assert comp.grid_residual <= 1e-10

    def test_respects_explicit_grid(self):
        comp = outer_complement(TWO_POINT_PAIR.b, n_points=64)
        assert max_abs_difference(comp.a, TWO_POINT_PAIR.a) < 1e-12

    def test_width_1024_recovers_forward_a(self):
        rng = np.random.default_rng(11)
        vals = 0.25 * (rng.standard_normal(1024)
                       + 1j * rng.standard_normal(1024)) / 32.0
        pair = nlft_forward(CoefficientSequence(0, 1023, vals))
        comp = outer_complement(pair.b)
        assert max_abs_difference(comp.a, pair.a) < 1e-10
        assert comp.grid_residual <= 1e-10

    def test_a_star_keeps_the_degree_of_b(self):
        # 1 - |b|^2 has degree width(b) - 1, and so has its outer factor
        rng = np.random.default_rng(4)
        vals = rng.standard_normal(37) + 1j * rng.standard_normal(37)
        random_b = CoefficientSequence(3, 39, 0.5 * vals / np.abs(vals).sum())
        for b in (TWO_POINT_PAIR.b, width_1024_pair().b, random_b):
            a = outer_complement(b).a
            assert a.support_lo >= -(b.width - 1) and a.support_hi <= 0

    def test_explicit_grid_below_4x_the_width_rejected(self):
        b = CoefficientSequence(0, 9, np.full(10, 0.05, dtype=complex))
        with pytest.raises(GridSizeError):
            outer_complement(b, n_points=32)


@pytest.fixture
def completion_grids(monkeypatch):
    """Grid sizes on which ``outer_complement`` samples ``b``."""
    sizes = []
    eval_samples = spectral._eval_samples

    def spy(s, n_points):
        sizes.append(n_points)
        return eval_samples(s, n_points)

    monkeypatch.setattr(spectral, "_eval_samples", spy)
    return sizes


def newton_steps(caplog):
    """``(N, step count)`` of each DEBUG line ``outer_complement`` logged."""
    return [(int(n), int(k)) for n, k in re.findall(
        r"outer_complement N=(\d+) Newton steps (\d+)", caplog.text)]


def wide_law_pair(seed, width):
    """A forward pair of the benchmark's wide law: entries of modulus up
    to 0.3 with uniform phase, the linear part scaled to sup 0.6, then
    0.9x until ``sup |b| <= 0.9`` on an 8x grid."""
    rng = np.random.default_rng(seed)
    vals = 0.3 * np.sqrt(rng.random(width)) \
        * np.exp(2j * np.pi * rng.random(width))
    grid = 8 * width
    vals *= 0.6 / np.max(np.abs(np.fft.fft(vals, grid)))
    while True:
        pair = nlft_forward(CoefficientSequence(0, width - 1, vals))
        if np.max(np.abs(np.fft.fft(pair.b.coeffs, grid))) <= 0.9:
            return pair
        vals = 0.9 * vals


def roadmap_law_pair(width):
    """``F`` on ``[0, width - 1]`` with entries
    ``0.3 (N(0,1) + i N(0,1)) / sqrt(width)`` (seed 0) and its pair."""
    rng = np.random.default_rng(0)
    vals = 0.3 * (rng.standard_normal(width)
                  + 1j * rng.standard_normal(width)) / np.sqrt(width)
    return nlft_forward(CoefficientSequence(0, width - 1, vals))


class TestNewtonRefinement:
    def test_width_4096_completes_on_a_4x_grid(self, completion_grids,
                                                caplog):
        pair = wide_law_pair(7, 4096)
        with caplog.at_level(logging.DEBUG, logger="su2nlft.spectral"):
            comp = outer_complement(pair.b)
        assert set(completion_grids) == {1 << 14}
        # the Weiss estimate misses the identity on 2^14 points; Newton
        # steps meet it
        assert [n for n, k in newton_steps(caplog) if k > 0] == [1 << 14]
        assert comp.grid_residual <= spectral.PAIR_RESIDUAL_TOL
        assert max_abs_difference(comp.a, pair.a) <= 1e-13
        c0 = star_reflect(comp.a).coefficient(0)
        assert c0.imag == 0.0 and c0.real > 0

    @pytest.mark.parametrize("width", [1 << 14, 1 << 15])
    def test_roadmap_law_widths_complete(self, width, completion_grids):
        pair = roadmap_law_pair(width)
        comp = outer_complement(pair.b)
        assert comp.grid_residual <= spectral.PAIR_RESIDUAL_TOL
        assert max_abs_difference(comp.a, pair.a) <= 1e-12
        assert max(completion_grids) <= 16 * width

    def test_width_2_16_doubles_past_max_grid_to_8x(self, completion_grids):
        # on 4 w = MAX_GRID points the Newton steps stall; the cap of the
        # doubling is p2(8 w), and 8 w points complete
        width = 1 << 16
        pair = roadmap_law_pair(width)
        comp = outer_complement(pair.b)
        assert comp.grid_residual <= spectral.PAIR_RESIDUAL_TOL
        assert max_abs_difference(comp.a, pair.a) <= 1e-12
        assert sorted(set(completion_grids)) == [MAX_GRID, 8 * width]

    def test_winding_check_starts_from_the_completion_samples(
            self, completion_grids, monkeypatch):
        # the Parseval start of this a* is its completion grid, 2^14: the
        # winding check reads the completion's samples there and samples
        # only the doubled grid, on which its count is certified
        pair = wide_law_pair(7, 4096)
        astar = star_reflect(pair.a)
        slope = np.sum(np.arange(astar.width) * np.abs(astar.coeffs))
        assert 1 << 13 < 2 * np.pi * slope / astar.l2_norm() < 1 << 14
        circle = []
        evaluate = spectral._circle_values

        def spy(s, n_samples, radius):
            circle.append(n_samples)
            return evaluate(s, n_samples, radius)

        monkeypatch.setattr(spectral, "_circle_values", spy)
        outer_complement(pair.b)
        assert set(completion_grids) == {1 << 14}
        assert circle == [1 << 15]

    def test_width_512_keeps_the_16x_grid_and_takes_no_step(self, caplog):
        pair = wide_law_pair(7, 512)
        with caplog.at_level(logging.DEBUG, logger="su2nlft.spectral"):
            comp = outer_complement(pair.b)
        assert newton_steps(caplog) == [(1 << 13, 0)]
        assert max_abs_difference(comp.a, pair.a) <= 1e-13

    def test_stalled_refinement_on_an_explicit_grid_raises(self, caplog):
        # a* has a zero at 1/0.9999 - 1 ~ 1e-4 from the circle: 64 points
        # leave the Newton correction too aliased to converge
        b = seq({0: 0.49995, 1: 0.49995})
        with caplog.at_level(logging.DEBUG, logger="su2nlft.spectral"):
            with pytest.raises(ConsistencyError, match="on 64 points"):
                outer_complement(b, n_points=64)
        assert newton_steps(caplog)[0][1] >= 1
        # the default grid doubles past that and completes
        comp = outer_complement(b)
        assert comp.grid_residual <= spectral.PAIR_RESIDUAL_TOL

    def test_start_grid_above_the_cap_raises_before_sampling(
            self, completion_grids):
        width = (1 << 16) + 1
        b = CoefficientSequence(0, width - 1, np.full(width, 1e-6 + 0j))
        with pytest.raises(ConsistencyError,
                           match=f"{1 << 19} points is above {MAX_GRID}"):
            outer_complement(b)
        assert completion_grids == []


def width_1024_pair():
    """The pair of ``test_width_1024_recovers_forward_a``."""
    rng = np.random.default_rng(11)
    vals = 0.25 * (rng.standard_normal(1024)
                   + 1j * rng.standard_normal(1024)) / 32.0
    return nlft_forward(CoefficientSequence(0, 1023, vals))


def from_roots(roots):
    """Monic polynomial with the given zeros, coefficients ascending."""
    c = np.poly(np.asarray(roots, dtype=np.complex128))[::-1]
    return CoefficientSequence(0, c.size - 1, c)


class TestCertifiedWinding:
    CASES = [
        [0.5],
        [0.9995],
        [1.0005],
        [0.5 * np.exp(1j), 1.0005 * np.exp(2j)],
        [0.9995 * np.exp(0.3j), 1.0005 * np.exp(-2.5j)],
        [0.5 * np.exp(-1j), 0.9995 * np.exp(1.7j), 1.0005 * np.exp(0.4j)],
    ]

    @pytest.fixture
    def grid_sizes(self, monkeypatch):
        sizes = []
        evaluate = spectral._circle_values

        def spy(s, n_samples, radius):
            sizes.append(n_samples)
            return evaluate(s, n_samples, radius)

        monkeypatch.setattr(spectral, "_circle_values", spy)
        return sizes

    @pytest.mark.parametrize("roots", CASES)
    def test_agrees_with_dense_grid(self, roots, grid_sizes):
        p = from_roots(roots)
        dense = winding_number(p, 1 << 18, radius=1.0)
        assert dense == sum(abs(r) < 1 for r in roots)
        if dense == 0:
            require_outer(p)
        else:
            with pytest.raises(OuternessError, match=f"winds {dense} times"):
                require_outer(p)
        assert grid_sizes[-1] < 1 << 20
        # the count stopped on a certified grid
        vals = spectral._circle_values(p, grid_sizes[-1], 1.0)
        slope = np.sum(np.arange(p.width) * np.abs(p.coeffs))
        assert 2 * np.pi * slope / grid_sizes[-1] < np.min(np.abs(vals))

    @pytest.mark.parametrize("case", range(len(CASES) + 1))
    def test_starts_above_the_parseval_bound(self, case, grid_sizes):
        # min_j |p(z_j)| <= |c|_2, so no grid N <= 2 pi S / |c|_2 certifies
        if case < len(self.CASES):
            roots = self.CASES[case]
            p, inside = from_roots(roots), sum(abs(r) < 1 for r in roots)
        else:
            p = star_reflect(outer_complement(width_1024_pair().b).a)
            inside = 0
        grid_sizes.clear()
        if inside:
            with pytest.raises(OuternessError, match=f"winds {inside} times"):
                require_outer(p)
        else:
            require_outer(p)
        slope = np.sum(np.arange(p.width) * np.abs(p.coeffs))
        assert min(grid_sizes) > 2 * np.pi * slope / p.l2_norm()

    def test_zero_near_circle_doubles_the_grid(self, grid_sizes):
        with pytest.raises(OuternessError):
            require_outer(from_roots([0.9995]))
        assert grid_sizes[0] == 8
        assert grid_sizes == [8 << i for i in range(len(grid_sizes))]
        assert len(grid_sizes) > 1

    def test_zero_on_circle_is_counted_uncertified(self, grid_sizes, caplog):
        p = from_roots([np.exp(0.1j)])
        with caplog.at_level(logging.DEBUG, logger="su2nlft.spectral"):
            # no grid certifies a zero on the circle, so either outcome
            # of the uncertified count is allowed; the log line is not
            try:
                require_outer(p)
            except (OuternessError, VanishingSymbolError):
                pass
        assert grid_sizes[-1] == 1 << 20
        assert "not certified" in caplog.text


class TestSymbolRatio:
    def test_geometric_series_oracle(self):
        # b/a* = (0.4 + 0.4 z)/(0.8 - 0.2 z): c_0 = 1/2,
        # c_k = 0.625 * 0.25^(k-1) for k >= 1
        ratio = symbol_ratio(TWO_POINT_PAIR, n_points=256, window=(0, 48))
        k = np.arange(1, 49)
        expected = np.concatenate([[0.5], 0.625 * 0.25 ** (k - 1)])
        np.testing.assert_allclose(ratio.coeffs, expected, atol=1e-14)

    def test_wiener_norm_of_ratio(self):
        ratio = symbol_ratio(TWO_POINT_PAIR, n_points=256, window=(0, 48))
        norm = weighted_l1_norm(ratio, BeurlingWeight.one())
        assert norm == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_auto_window_close_to_oracle(self):
        ratio = symbol_ratio(TWO_POINT_PAIR)
        norm = weighted_l1_norm(ratio, BeurlingWeight.one())
        assert norm == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_auto_window_ends_at_the_fold_threshold(self):
        # the window ends at the last coefficient above CLAMP_TOL, the
        # threshold at which the grid stops doubling
        full = spectral._full_symbol_ratio(TWO_POINT_PAIR)
        ratio = symbol_ratio(TWO_POINT_PAIR)
        assert ratio.support_lo == 0
        assert abs(ratio.coeffs[-1]) > CLAMP_TOL
        beyond = full.restrict(ratio.support_hi + 1, full.support_hi)
        assert np.max(np.abs(beyond.coeffs)) <= CLAMP_TOL
        assert np.array_equal(ratio.coeffs,
                              full.restrict(0, ratio.support_hi).coeffs)

    def test_tail_mass_decreases(self):
        t8 = symbol_tail_mass(TWO_POINT_PAIR, 256, (0, 8))
        t16 = symbol_tail_mass(TWO_POINT_PAIR, 256, (0, 16))
        assert t16 < t8

    def test_empty_b(self):
        pair = nlft_forward(CoefficientSequence.empty())
        assert symbol_ratio(pair).is_empty


class TestGridQuotient:
    def test_division_matches_series(self):
        astar = star_reflect(TWO_POINT_PAIR.a)
        q = grid_quotient(TWO_POINT_PAIR.b, astar, 256, (0, 30))
        ratio = symbol_ratio(TWO_POINT_PAIR, n_points=256, window=(0, 30))
        assert max_abs_difference(q, ratio) < 1e-14

    def test_vanishing_denominator(self):
        with pytest.raises(VanishingSymbolError):
            grid_quotient(seq({0: 1.0}), seq({0: 1.0, 1: -1.0}), 64, (0, 5))
