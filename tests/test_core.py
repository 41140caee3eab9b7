import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2nlft import (
    BeurlingWeight,
    CoefficientSequence,
    ConsistencyError,
    GridSizeError,
    VanishingSymbolError,
    WeightError,
    convolve,
    default_grid_size,
    derivative,
    fractional_derivative,
    from_grid,
    max_abs_difference,
    reciprocal_on_grid,
    sobolev_norm,
    star_reflect,
    to_grid,
    weighted_l1_norm,
)
from su2nlft.core import (
    _doubling_grid,
    _eval_samples,
    determinant_residual,
    reciprocal_residual,
)


def seq(entries):
    return CoefficientSequence.from_dict(entries)


class TestCoefficientSequence:
    def test_empty_is_canonical(self):
        e = CoefficientSequence.empty()
        assert e.is_empty
        assert e.width == 0
        assert (e + e).is_empty
        assert e.coefficient(3) == 0

    def test_from_dict_orders_indices(self):
        s = seq({2: 1.0, -1: 2.0})
        assert s.support_lo == -1 and s.support_hi == 2
        assert s.coefficient(-1) == 2.0
        assert s.coefficient(0) == 0.0
        assert s.coefficient(2) == 1.0

    def test_addition_aligns_supports(self):
        s = seq({0: 1.0}) + seq({3: 2.0})
        assert s.support_lo == 0 and s.support_hi == 3
        assert s.coefficient(1) == 0.0

    def test_shift_scale_conjugate(self):
        s = seq({1: 1 + 2j}).shift(-3).scale(2.0).conjugate()
        assert s.support_lo == -2
        assert s.coefficient(-2) == 2 - 4j

    def test_trim_drops_zero_margins(self):
        s = CoefficientSequence(-2, 2, np.array([0, 0, 1.0, 0, 0], dtype=complex))
        t = s.trim()
        assert (t.support_lo, t.support_hi) == (0, 0)

    def test_trim_everything_gives_empty(self):
        s = CoefficientSequence(0, 1, np.array([1e-20, 0], dtype=complex))
        assert s.trim(1e-15).is_empty

    def test_restrict_window(self):
        s = seq({-1: 1.0, 0: 2.0, 4: 3.0})
        r = s.restrict(0, 2)
        assert (r.support_lo, r.support_hi) == (0, 2)
        assert r.coefficient(0) == 2.0 and r.coefficient(4) == 0.0

    def test_mul_is_convolution(self):
        # (1 + z)(1 - z) = 1 - z^2
        p = seq({0: 1.0, 1: 1.0}) * seq({0: 1.0, 1: -1.0})
        assert p.coefficient(0) == 1.0
        assert p.coefficient(1) == 0.0
        assert p.coefficient(2) == -1.0

    def test_norms(self):
        s = seq({-2: 3.0, 1: -4j})
        assert s.l2_norm() == pytest.approx(5.0)
        assert s.l1_norm() == pytest.approx(7.0)


class TestGrid:
    def test_single_mode_samples(self):
        g = to_grid(CoefficientSequence.single(1, 1.0), 8)
        expected = np.exp(2j * np.pi * np.arange(8) / 8)
        np.testing.assert_allclose(g.samples, expected, atol=1e-15)

    def test_grid_too_small_raises(self):
        s = seq({0: 1.0, 5: 1.0})
        with pytest.raises(GridSizeError):
            to_grid(s, 16)

    def test_grid_not_power_of_two_raises(self):
        with pytest.raises(GridSizeError):
            to_grid(seq({0: 1.0}), 12)

    def test_round_trip_exact_window(self):
        s = seq({-3: 1 + 1j, 0: -2.0, 2: 0.25j})
        g = to_grid(s, 64)
        back = from_grid(g, (-3, 2))
        assert max_abs_difference(back, s) < 1e-13

    def test_from_grid_window_cap(self):
        g = to_grid(seq({0: 1.0}), 8)
        with pytest.raises(GridSizeError):
            from_grid(g, (-4, 4))

    def test_default_grid_size(self):
        assert default_grid_size(0) == 8
        assert default_grid_size(1) == 16
        assert default_grid_size(33) == 512


class TestDoublingGrid:
    def test_doubles_until_the_target(self):
        errors = {8: 1.0, 16: 0.5, 32: 1e-3}
        assert _doubling_grid(8, lambda n: (errors[n], n), 1e-2, "x") \
            == (32, 32)

    def test_stops_at_the_cap(self):
        sizes = []

        def measure(n):
            sizes.append(n)
            return 1.0, None

        with pytest.raises(ConsistencyError, match="on 64 points"):
            _doubling_grid(16, measure, 0.5, "x", cap=64)
        assert sizes == [16, 32, 64]

    def test_start_above_the_cap_measures_nothing(self):
        sizes = []

        def measure(n):
            sizes.append(n)
            return 0.0, None

        with pytest.raises(ConsistencyError,
                           match="start grid of 128 points is above 64"):
            _doubling_grid(128, measure, 0.5, "x", cap=64)
        assert sizes == []


class TestDeterminantResidual:
    @staticmethod
    def random_seq(rng, width):
        if width == 0:
            return CoefficientSequence.empty()
        lo = int(rng.integers(-50, 50))
        vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        return CoefficientSequence(lo, lo + width - 1, vals / np.sqrt(2 * width))

    def test_matches_the_direct_formula(self):
        # grids from the smallest that holds the widths up to 8x that,
        # so lags beyond n_points / 2 fold
        rng = np.random.default_rng(3)
        for _ in range(400):
            a = self.random_seq(rng, int(rng.integers(0, 41)))
            b = self.random_seq(rng, int(rng.integers(0, 41)))
            smallest = 1 << max(a.width, b.width).bit_length()
            for n in (smallest << k for k in range(4)):
                direct = float(np.max(np.abs(
                    np.abs(_eval_samples(a, n)) ** 2
                    + np.abs(_eval_samples(b, n)) ** 2 - 1.0)))
                assert determinant_residual(a, b, n) == pytest.approx(
                    direct, rel=1e-12, abs=1e-14)

    def test_empty_entries(self):
        empty = CoefficientSequence.empty()
        b = seq({2: 0.6})
        assert determinant_residual(empty, empty, 8) == 1.0
        assert determinant_residual(empty, b, 4) == pytest.approx(0.64)
        assert determinant_residual(b, empty, 16) == pytest.approx(0.64)


class TestStarReflect:
    def test_involution(self):
        s = seq({-1: 2j, 3: 1 - 1j})
        assert max_abs_difference(star_reflect(star_reflect(s)), s) == 0.0

    def test_conjugates_on_circle(self):
        s = seq({-2: 0.5j, 0: 1.0, 1: -0.25})
        g = to_grid(s, 32).samples
        gs = to_grid(star_reflect(s), 32).samples
        np.testing.assert_allclose(gs, np.conj(g), atol=1e-14)


class TestConvolveAndReciprocal:
    def test_squared_modulus_coefficients(self):
        # |a|^2 for a = 0.8 - 0.2 z^{-1}: worked by hand
        a = seq({-1: -0.2, 0: 0.8})
        sq = convolve(a, star_reflect(a))
        assert sq.coefficient(-1) == pytest.approx(-0.16)
        assert sq.coefficient(0) == pytest.approx(0.68)
        assert sq.coefficient(1) == pytest.approx(-0.16)

    def test_reciprocal_geometric(self):
        astar = seq({0: 0.8, 1: -0.2})
        rec = reciprocal_on_grid(astar, 256, (0, 20))
        expected = 1.25 * 0.25 ** np.arange(21)
        np.testing.assert_allclose(rec.coeffs, expected, atol=1e-14)
        assert reciprocal_residual(astar, rec, 256) < 1e-12

    def test_reciprocal_vanishing_symbol(self):
        with pytest.raises(VanishingSymbolError):
            reciprocal_on_grid(seq({0: 1.0, 1: -1.0}), 64, (0, 10))


class TestWeights:
    def test_descriptor_round_trip(self):
        for desc in ("one", "poly:alpha=0.5", "poly:alpha=2"):
            w = BeurlingWeight.from_descriptor(desc)
            assert BeurlingWeight.from_descriptor(w.descriptor)(3) == w(3)

    def test_polynomial_values(self):
        w = BeurlingWeight.polynomial(1.0)
        assert w(0) == 1.0
        assert w(-3) == 4.0

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_polynomial_needs_finite_alpha(self, alpha):
        with pytest.raises(WeightError, match="finite alpha >= 0"):
            BeurlingWeight.polynomial(alpha)

    @pytest.mark.parametrize("desc", ["poly:alpha=nan", "poly:alpha=inf"])
    def test_descriptor_needs_finite_alpha(self, desc):
        with pytest.raises(WeightError):
            BeurlingWeight.from_descriptor(desc)

    def test_custom_needs_attestation(self):
        with pytest.raises(WeightError):
            BeurlingWeight.custom(lambda n: np.ones_like(n, dtype=float))

    def test_weighted_l1(self):
        s = seq({-2: 3.0, 1: -4j})
        assert weighted_l1_norm(s, BeurlingWeight.one()) == pytest.approx(7.0)
        assert weighted_l1_norm(s, BeurlingWeight.polynomial(1.0)) == pytest.approx(
            3 * 3 + 4 * 2
        )

    def test_sobolev_norm(self):
        s = seq({-2: 3.0, 1: -4j})
        assert sobolev_norm(s, 1.0) == pytest.approx(np.sqrt(9 * 5 + 16 * 2))
        assert sobolev_norm(s, 0.0) == pytest.approx(5.0)

    def test_huge_coefficients_do_not_overflow_the_norms(self):
        # the squares of 1e200 overflow; the norms are scaled by a power
        # of two before squaring, which is exact
        s = CoefficientSequence.single(3, 1e200)
        assert s.l2_norm() == 1e200
        assert sobolev_norm(s, 2.0) == pytest.approx(1e201, rel=1e-15)
        assert sobolev_norm(s, 1.0) == pytest.approx(np.sqrt(10) * 1e200,
                                                     rel=1e-15)


class TestDerivatives:
    def test_derivative_multiplies_by_in(self):
        d = derivative(CoefficientSequence.single(3, 2.0))
        assert d.coefficient(3) == pytest.approx(6j)

    def test_fractional_derivative_weights(self):
        d = fractional_derivative(CoefficientSequence.single(3, 2.0), 1.0)
        assert d.coefficient(3) == pytest.approx(2 * np.sqrt(10.0))

    def test_derivative_kills_constant(self):
        assert derivative(CoefficientSequence.constant(5.0)).l2_norm() == 0.0


small_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def sequences(draw, max_width=6):
    lo = draw(st.integers(min_value=-8, max_value=8))
    coeffs = draw(st.lists(small_complex, min_size=1, max_size=max_width))
    return CoefficientSequence(lo, lo + len(coeffs) - 1,
                               np.asarray(coeffs, dtype=np.complex128))


@settings(max_examples=60, deadline=None)
@given(sequences())
def test_grid_round_trip_property(s):
    n = default_grid_size(s.width + 16)
    back = from_grid(to_grid(s, n), (s.support_lo, s.support_hi))
    assert max_abs_difference(back, s) < 1e-12 * max(1.0, s.l1_norm())


@settings(max_examples=60, deadline=None)
@given(sequences(), sequences())
def test_weighted_norm_submultiplicative(s, t):
    for w in (BeurlingWeight.one(), BeurlingWeight.polynomial(1.0)):
        lhs = weighted_l1_norm(convolve(s, t), w)
        rhs = weighted_l1_norm(s, w) * weighted_l1_norm(t, w)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


@settings(max_examples=40, deadline=None)
@given(sequences())
def test_star_reflect_preserves_weighted_norms(s):
    for w in (BeurlingWeight.one(), BeurlingWeight.polynomial(0.5)):
        assert weighted_l1_norm(star_reflect(s), w) == pytest.approx(
            weighted_l1_norm(s, w)
        )
