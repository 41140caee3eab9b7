import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su2nlft.core
from su2nlft import (
    CoefficientSequence,
    CombinatoricsError,
    GridSizeError,
    a_star_at_zero,
    default_grid_size,
    determinant_residual,
    max_abs_difference,
    multilinear_partial_sum,
    multilinear_term,
    nlft_forward,
    outer_complement,
    pair_from_sequences,
    reflect_pair,
    single_factor,
    star_reflect,
    su2_product,
)
from su2nlft.core import _eval_samples
from su2nlft.forward import _LEAF_WIDTH as LEAF


def seq(entries):
    return CoefficientSequence.from_dict(entries)


TWO_POINT = seq({0: 0.5, 1: 0.5})


class TestWorkedInstance:
    """F = {0: 0.5, 1: 0.5} has a closed form worked out by hand."""

    def test_a_coefficients(self):
        pair = nlft_forward(TWO_POINT)
        assert pair.a.coefficient(0) == pytest.approx(0.8, abs=1e-15)
        assert pair.a.coefficient(-1) == pytest.approx(-0.2, abs=1e-15)
        assert (pair.a.support_lo, pair.a.support_hi) == (-1, 0)

    def test_b_coefficients(self):
        pair = nlft_forward(TWO_POINT)
        assert pair.b.coefficient(0) == pytest.approx(0.4, abs=1e-15)
        assert pair.b.coefficient(1) == pytest.approx(0.4, abs=1e-15)

    def test_a_star_at_zero(self):
        assert a_star_at_zero(TWO_POINT) == pytest.approx(0.8, abs=1e-15)
        pair = nlft_forward(TWO_POINT)
        assert star_reflect(pair.a).coefficient(0) == pytest.approx(0.8, abs=1e-15)

    def test_grid_residual_tiny(self):
        assert nlft_forward(TWO_POINT).grid_residual < 1e-13


class TestStructure:
    def test_empty_input(self):
        pair = nlft_forward(CoefficientSequence.empty())
        assert pair.a.coefficient(0) == 1.0
        assert pair.b.is_empty

    def test_zero_entries_are_skipped(self):
        with_zero = seq({0: 0.5, 1: 0.0, 2: 0.5})
        pair = nlft_forward(with_zero)
        # a support reflects only the two active factors 0 and 2
        assert (pair.b.support_lo, pair.b.support_hi) == (0, 2)
        assert (pair.a.support_lo, pair.a.support_hi) == (-2, 0)

    def test_single_factor(self):
        a, b = single_factor(2, 1.0)
        assert a.coefficient(0) == pytest.approx(1 / np.sqrt(2))
        assert b.coefficient(2) == pytest.approx(1 / np.sqrt(2))

    def test_support_bounds(self):
        rng = np.random.default_rng(7)
        F = CoefficientSequence(-3, 2, 0.3 * rng.standard_normal(6)
                                + 0.1j * rng.standard_normal(6))
        pair = nlft_forward(F)
        assert pair.b.support_lo >= -3 and pair.b.support_hi <= 2
        assert pair.a.support_lo >= -3 - 2 and pair.a.support_hi <= 0

    def test_shift_covariance(self):
        rng = np.random.default_rng(11)
        vals = 0.2 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        F = CoefficientSequence(0, 3, vals)
        p0 = nlft_forward(F)
        p1 = nlft_forward(F.shift(5))
        assert max_abs_difference(p1.b, p0.b.shift(5)) < 1e-14

    def test_matches_su2_product_of_factors(self):
        rng = np.random.default_rng(3)
        entries = {int(k): complex(v) for k, v in zip(
            (-2, 0, 1, 4),
            0.4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        )}
        F = seq(entries)
        acc = (CoefficientSequence.constant(1.0), CoefficientSequence.empty())
        for k in sorted(entries):
            acc = su2_product(acc, single_factor(k, entries[k]))
        pair = nlft_forward(F)
        assert max_abs_difference(acc[0], pair.a) < 1e-14
        assert max_abs_difference(acc[1], pair.b) < 1e-14

    def test_a_star_zero_is_product_formula(self):
        F = seq({-1: 0.2j, 3: -0.1, 4: 0.25})
        expected = np.prod([(1 + abs(c) ** 2) ** -0.5 for c in F.coeffs])
        assert a_star_at_zero(F) == pytest.approx(expected, rel=1e-14)


class TestMultilinear:
    def test_first_order_term_is_linear_part(self):
        t1 = multilinear_term(1, TWO_POINT)
        assert t1.coefficient(0) == pytest.approx(0.5)
        assert t1.coefficient(1) == pytest.approx(0.5)

    def test_second_order_term(self):
        t2 = multilinear_term(2, TWO_POINT)
        assert t2.coefficient(-1) == pytest.approx(-0.25)
        assert t2.width == 1

    def test_zeroth_term_is_one(self):
        t0 = multilinear_term(0, TWO_POINT)
        assert t0.coefficient(0) == 1.0

    def test_partial_sums_reconstruct_pair(self):
        rng = np.random.default_rng(19)
        vals = 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        F = CoefficientSequence.from_dict(
            {-4: vals[0], 0: vals[1], 7: vals[2]})
        even, odd = multilinear_partial_sum(F, 3)
        prefactor = a_star_at_zero(F)
        pair = nlft_forward(F)
        assert max_abs_difference(even.scale(prefactor), pair.a) < 1e-12
        assert max_abs_difference(odd.scale(prefactor), pair.b) < 1e-12

    def test_combinatorial_guard(self):
        wide = CoefficientSequence(0, 39, np.full(40, 0.01, dtype=complex))
        with pytest.raises(CombinatoricsError):
            multilinear_term(20, wide)


def factor_fold(F):
    """Left fold of ``su2_product`` over the one-point factors of ``F``."""
    acc = (CoefficientSequence.constant(1.0), CoefficientSequence.empty())
    for k, v in zip(F.indices(), F.coeffs):
        if v != 0:
            acc = su2_product(acc, single_factor(int(k), complex(v)))
    return acc


def assert_matches_fold(F, tol=1e-13):
    pair = nlft_forward(F)
    a, b = factor_fold(F)
    assert max_abs_difference(pair.a, a) < tol
    assert max_abs_difference(pair.b, b) < tol
    assert pair.grid_residual < 1e-12


class TestDivideAndConquer:
    """Widths around the leaf width exercise the block merges."""

    @pytest.mark.parametrize(
        "width", [1, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1, 301])
    def test_matches_factor_fold(self, width):
        rng = np.random.default_rng(width)
        vals = 0.3 * (rng.standard_normal(width)
                      + 1j * rng.standard_normal(width))
        assert_matches_fold(CoefficientSequence(7, 7 + width - 1, vals))

    @pytest.mark.parametrize("width", [4097, 6000])
    def test_odd_levels_match_factor_fold(self, width):
        # block counts that are not powers of two: levels with an odd
        # number of blocks;
        # |F|_2^2 near 1/2 keeps a*(0) well away from the clamp
        rng = np.random.default_rng(width)
        vals = 0.5 * (rng.standard_normal(width)
                      + 1j * rng.standard_normal(width)) / np.sqrt(width)
        assert_matches_fold(CoefficientSequence(0, width - 1, vals))

    def test_negative_lo_with_interior_zeros(self):
        rng = np.random.default_rng(23)
        width = 2 * LEAF + 5
        vals = 0.3 * (rng.standard_normal(width)
                      + 1j * rng.standard_normal(width))
        vals[rng.random(width) < 0.3] = 0.0
        vals[LEAF - 3 : LEAF + 4] = 0.0  # a run of zeros across a block edge
        assert_matches_fold(CoefficientSequence(-90, -90 + width - 1, vals))

    def test_all_zero_sequence(self):
        width = 3 * LEAF + 1
        pair = nlft_forward(
            CoefficientSequence(-LEAF, 2 * LEAF, np.zeros(width)))
        assert (pair.a.support_lo, pair.a.support_hi) == (0, 0)
        assert pair.a.coefficient(0) == 1.0
        assert pair.b.is_empty
        assert pair.grid_residual == 0.0


class TestSpectrumCarry:
    """Merges carry each block's spectrum up the tree."""

    @pytest.mark.parametrize("blocks", range(1, 34))
    @pytest.mark.parametrize("short", [0, 3])
    def test_every_block_count_matches_factor_fold(self, blocks, short):
        # every parity pattern of the levels up to 33 blocks, with whole
        # and padded last blocks
        width = max(1, LEAF * blocks - short)
        rng = np.random.default_rng(100 * blocks + short)
        vals = 0.5 * (rng.standard_normal(width)
                      + 1j * rng.standard_normal(width)) / np.sqrt(width)
        assert_matches_fold(CoefficientSequence(-5, width - 6, vals))

    def test_fft_points_per_level(self, monkeypatch):
        # one forward batch of 2 w points for the leaves and one per
        # merge level for the odd bins; one inverse batch per level
        points = {"fft": 0, "ifft": 0}
        for name in points:
            def spy(x, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                points[_name] += np.size(x)
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, spy)
        w = 4096
        levels = (w // LEAF - 1).bit_length()
        vals = np.full(w, 0.5 / np.sqrt(w), dtype=complex)
        nlft_forward(CoefficientSequence(0, w - 1, vals))
        assert points["fft"] <= 2 * w * (levels + 1)
        assert points["ifft"] <= 2 * w * levels


@pytest.fixture
def sampled(monkeypatch):
    """The grids on which ``|a|^2 + |b|^2`` is sampled, in call order."""
    grids = []
    power_samples = su2nlft.core._power_samples

    def spy(seqs, n_points):
        grids.append(n_points)
        return power_samples(seqs, n_points)

    monkeypatch.setattr(su2nlft.core, "_power_samples", spy)
    return grids


class TestLazyResidual:
    """The determinant residual of a forward pair is sampled on first read."""

    F = CoefficientSequence(-3, 8, 0.3 * np.cos(np.arange(12.0))
                            + 0.2j * np.sin(np.arange(12.0)))

    def test_forward_and_completion_sample_no_residual(self, sampled):
        pair = nlft_forward(self.F)
        outer_complement(pair.b)
        assert sampled == []

    def test_one_read_samples_once(self, sampled):
        pair = nlft_forward(self.F)
        first = pair.grid_residual
        assert sampled == [default_grid_size(12)]
        assert pair.grid_residual == first
        assert len(sampled) == 1

    @pytest.mark.parametrize("n_points", [None, 16, 1024])
    def test_read_is_the_eager_residual(self, n_points):
        pair = nlft_forward(self.F, n_points)
        grid = n_points or default_grid_size(12)
        assert pair.grid_residual == determinant_residual(pair.a, pair.b, grid)

    @pytest.mark.parametrize("n_points", [8, 24])  # too small; not 2^k
    def test_bad_grid_raises_at_the_call(self, n_points):
        with pytest.raises(GridSizeError):
            nlft_forward(self.F, n_points)
        pair = nlft_forward(self.F)
        with pytest.raises(GridSizeError):
            pair_from_sequences(pair.a, pair.b, n_points)

    def test_a_given_residual_is_held(self, sampled):
        pair = nlft_forward(self.F)
        assert type(pair)(pair.a, pair.b, 0.5).grid_residual == 0.5
        assert sampled == []

    def test_reflect_pair_samples_nothing(self, sampled):
        pair = nlft_forward(self.F)
        reflected = reflect_pair(pair)
        assert sampled == []
        assert reflected.grid_residual == pair.grid_residual
        assert len(sampled) == 1


class TestHugeCoefficients:
    def test_huge_coefficient_does_not_overflow(self):
        F = seq({0: 1e308, 1: 0.5})
        assert_matches_fold(F)
        assert nlft_forward(F).b.coefficient(0) == pytest.approx(
            2 / np.sqrt(5), abs=1e-15)

    def test_modulus_beyond_float_range(self):
        # |F_0| overflows a double; the factor is the limit of F_0 / |F_0|
        F = seq({0: 1.5e308 + 1.5e308j, 1: 0.5})
        assert_matches_fold(F)
        huge = nlft_forward(F)
        large = nlft_forward(seq({0: 1e300 + 1e300j, 1: 0.5}))
        assert huge.grid_residual < 1e-12
        assert max_abs_difference(huge.a, large.a) < 1e-15
        assert max_abs_difference(huge.b, large.b) < 1e-15


@st.composite
def small_sequences(draw):
    lo = draw(st.integers(min_value=-6, max_value=6))
    n = draw(st.integers(min_value=1, max_value=5))
    parts = draw(st.lists(
        st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        min_size=n, max_size=n))
    vals = np.array([complex(re, im) for re, im in parts])
    return CoefficientSequence(lo, lo + n - 1, vals)


@settings(max_examples=50, deadline=None)
@given(small_sequences())
def test_determinant_identity_property(F):
    pair = nlft_forward(F)
    assert pair.grid_residual < 1e-12


@st.composite
def mild_sequences(draw):
    # small amplitudes keep sup |b| well away from 1, so the grid mean
    # converges to the log integral at quadrature accuracy
    lo = draw(st.integers(min_value=-6, max_value=6))
    n = draw(st.integers(min_value=1, max_value=4))
    parts = draw(st.lists(
        st.tuples(st.floats(-0.25, 0.25), st.floats(-0.25, 0.25)),
        min_size=n, max_size=n))
    vals = np.array([complex(re, im) for re, im in parts])
    return CoefficientSequence(lo, lo + n - 1, vals)


@settings(max_examples=50, deadline=None)
@given(mild_sequences())
def test_plancherel_property(F):
    pair = nlft_forward(F)
    bv = _eval_samples(pair.b, 4096)
    lhs = np.sum(np.log1p(np.abs(F.coeffs) ** 2))
    rhs = -np.mean(np.log1p(-np.abs(bv) ** 2))
    assert lhs == pytest.approx(rhs, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(small_sequences())
def test_reflection_symmetry(F):
    # reversing the index order conjugates a and reflects b
    rev = CoefficientSequence(-F.support_hi, -F.support_lo, F.coeffs[::-1])
    p = nlft_forward(F)
    q = nlft_forward(rev)
    b_reflected = CoefficientSequence(
        -p.b.support_hi, -p.b.support_lo, p.b.coeffs[::-1]
    ) if not p.b.is_empty else p.b
    assert max_abs_difference(q.b, b_reflected) < 1e-13
    assert max_abs_difference(q.a, p.a.conjugate()) < 1e-13
