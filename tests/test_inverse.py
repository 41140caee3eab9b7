import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import su2nlft
from su2nlft import (
    BeurlingWeight,
    CoefficientSequence,
    ConsistencyError,
    ConvergenceError,
    GridSizeError,
    NlftPair,
    NumericalError,
    OuternessError,
    RhSystem,
    apply_m,
    first_certified_index,
    inverse_nlft,
    inverse_nlft_detailed,
    layer_strip,
    layer_strip_detailed,
    max_abs_difference,
    nlft_forward,
    outer_complement,
    reflect_pair,
    rh_solve,
    solvability_certificate,
    star_reflect,
    winding_number,
)
from su2nlft.core import _eval_samples
from su2nlft.spectral import require_outer


def seq(entries):
    return CoefficientSequence.from_dict(entries)


TWO_POINT = seq({0: 0.5, 1: 0.5})
TWO_POINT_PAIR = nlft_forward(TWO_POINT)


def random_instance(seed, lo, hi, scale=0.25):
    rng = np.random.default_rng(seed)
    n = hi - lo + 1
    vals = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(n)
    return CoefficientSequence(lo, hi, vals)


class TestApplyM:
    def test_worked_action_at_zero(self):
        # x = (e_0, 0): second block is -P_{<=0}(b/a* * e_0) = -c_0 = -1/2
        sys = RhSystem.build(TWO_POINT_PAIR, 0)
        y1, y2 = apply_m(sys, (CoefficientSequence.single(0, 1.0),
                               CoefficientSequence.empty()))
        assert y1.is_empty or y1.l2_norm() < 1e-14
        assert y2.coefficient(0) == pytest.approx(-0.5, abs=1e-13)
        assert y2.width == 1 or abs(y2.coefficient(-1)) < 1e-13

    def test_rejects_vectors_outside_window(self):
        sys = RhSystem.build(TWO_POINT_PAIR, 0)
        from su2nlft import ValidationError
        with pytest.raises(ValidationError):
            apply_m(sys, (CoefficientSequence.single(-1, 1.0),
                          CoefficientSequence.empty()))

    def test_bandwidth_grid_compatibility(self):
        with pytest.raises(GridSizeError):
            RhSystem.build(TWO_POINT_PAIR, 0, n_points=8, bandwidth=8)

    def test_matches_the_full_grid_route(self):
        def full_grid(sys, x1, x2):
            # embed each window on the grid, multiply the samples by the
            # block's symbol and read the other window back
            n = sys.n_points
            idx_plus = np.arange(0, sys.bandwidth) % n
            idx_low = np.arange(sys.n - sys.bandwidth + 1, sys.n + 1) % n
            spec = np.zeros(n, dtype=np.complex128)
            spec[idx_low] = x2
            y1 = np.fft.fft(np.fft.ifft(spec) * sys.sym_bstar_over_a)[idx_plus]
            spec = np.zeros(n, dtype=np.complex128)
            spec[idx_plus] = x1
            y2 = -np.fft.fft(np.fft.ifft(spec) * sys.sym_b_over_astar)[idx_low]
            return y1, y2

        rng = np.random.default_rng(5)
        cases = [(TWO_POINT_PAIR, n, None) for n in (-3, 0, 1, 4)]
        for seed, (lo, hi) in enumerate([(-3, 5), (2, 9), (-8, -1)]):
            pair = nlft_forward(random_instance(seed, lo, hi))
            # n < lo(b) and windows that cross index 0, so wrap the grid
            cases += [(pair, n, grid)
                      for n in (lo - 2, lo, (lo + hi) // 2, hi, hi + 3)
                      for grid in (None, 64)]
        for pair, n, grid in cases:
            sys = RhSystem.build(pair, n, grid)
            w = sys.bandwidth
            x1, x2 = (rng.standard_normal(w) + 1j * rng.standard_normal(w)
                      for _ in range(2))
            y1, y2 = apply_m(sys, (CoefficientSequence(*sys.window_plus, x1),
                                   CoefficientSequence(*sys.window_low, x2)))
            r1, r2 = full_grid(sys, x1, x2)
            assert max_abs_difference(
                y1, CoefficientSequence(*sys.window_plus, r1)) <= 1e-14
            assert max_abs_difference(
                y2, CoefficientSequence(*sys.window_low, r2)) <= 1e-14


class TestRhSolve:
    def test_truncation_at_zero(self):
        # F truncated to {0: 0.5}: tilde solutions are a_0*(0) (a_0*, b_0)
        sys = RhSystem.build(TWO_POINT_PAIR, 0)
        sol = rh_solve(sys)
        assert sol.tilde_a_star.coefficient(0) == pytest.approx(0.8, abs=1e-12)
        assert sol.tilde_b.coefficient(0) == pytest.approx(0.4, abs=1e-12)
        assert sol.a_star_zero == pytest.approx(np.sqrt(0.8), abs=1e-12)
        truncated = nlft_forward(seq({0: 0.5}))
        assert max_abs_difference(sol.a, truncated.a) < 1e-12
        assert max_abs_difference(sol.b, truncated.b) < 1e-12

    def test_truncation_covers_support(self):
        sol = rh_solve(RhSystem.build(TWO_POINT_PAIR, 1))
        assert max_abs_difference(sol.a, TWO_POINT_PAIR.a) < 1e-12
        assert max_abs_difference(sol.b, TWO_POINT_PAIR.b) < 1e-12

    def test_truncation_below_support_is_trivial(self):
        sol = rh_solve(RhSystem.build(TWO_POINT_PAIR, -1))
        assert sol.a_star_zero == pytest.approx(1.0, abs=1e-12)
        assert sol.b.is_empty or sol.b.l2_norm() < 1e-12

    def test_contraction_and_residual(self):
        sol = rh_solve(RhSystem.build(TWO_POINT_PAIR, 1))
        assert sol.residual < 1e-12
        assert sol.solution_norm <= sol.rhs_norm * (1 + 1e-12)

    def test_matches_forward_truncations(self):
        F = random_instance(21, -3, 4)
        pair = nlft_forward(F)
        for n in range(-3, 5):
            sol = rh_solve(RhSystem.build(pair, n))
            truncated = nlft_forward(F.restrict(F.support_lo, n))
            assert max_abs_difference(sol.a, truncated.a) < 1e-10
            assert max_abs_difference(sol.b, truncated.b) < 1e-10

    def test_extraction_ratio_recovers_entry(self):
        F = random_instance(33, 0, 5)
        pair = nlft_forward(F)
        for n in (2, 4):
            sol = rh_solve(RhSystem.build(pair, n))
            F_n = sol.b.coefficient(n) / sol.a_star_zero
            assert F_n == pytest.approx(F.coefficient(n), abs=1e-11)


class TestReflectPair:
    def test_matches_forward_of_reversed(self):
        F = random_instance(4, -2, 3)
        rev = CoefficientSequence(-F.support_hi, -F.support_lo, F.coeffs[::-1])
        assert max_abs_difference(reflect_pair(nlft_forward(F)).b,
                                  nlft_forward(rev).b) < 1e-13
        assert max_abs_difference(reflect_pair(nlft_forward(F)).a,
                                  nlft_forward(rev).a) < 1e-13


class TestLayerStrip:
    def test_single_factor(self):
        F = seq({3: 0.6})
        pair = nlft_forward(F)
        rec = layer_strip(pair, (0, 5))
        assert max_abs_difference(rec, F) < 1e-12

    def test_two_point(self):
        rec = layer_strip(TWO_POINT_PAIR, (0, 1))
        assert max_abs_difference(rec, TWO_POINT) < 1e-12

    def test_negative_support_window(self):
        F = seq({-2: 0.3j, 1: -0.25})
        rec = layer_strip(nlft_forward(F), (-2, 1))
        assert max_abs_difference(rec, F) < 1e-11

    def test_wider_window_pads_with_zeros(self):
        rec = layer_strip(TWO_POINT_PAIR, (-4, 5))
        assert max_abs_difference(rec, TWO_POINT) < 1e-11

    def test_zero_pair(self):
        pair = nlft_forward(CoefficientSequence.empty())
        assert layer_strip(pair, (-3, 3)).is_empty


class TestInverseNlft:
    def test_round_trip_two_point(self):
        rec, report = inverse_nlft_detailed(TWO_POINT_PAIR.b, (0, 1))
        assert max_abs_difference(rec, TWO_POINT) < 1e-12
        assert report.round_trip_residual < 1e-12
        assert report.contraction_ok
        assert report.max_solver_residual < 1e-10

    def test_round_trip_mixed_support(self):
        F = random_instance(8, -5, 7)
        pair = nlft_forward(F)
        rec = inverse_nlft(pair.b, (-5, 7))
        assert max_abs_difference(rec, F) < 1e-10

    def test_zero_b(self):
        rec = inverse_nlft(CoefficientSequence.empty(), (-2, 2))
        assert rec.is_empty

    def test_purely_imaginary_data_stays_imaginary(self):
        F = seq({0: 0.4j, 1: -0.2j, 3: 0.1j})
        pair = nlft_forward(F)
        rec = inverse_nlft(pair.b, (0, 3))
        assert float(np.max(np.abs(np.real(rec.coeffs)))) < 1e-12


class TestCertificate:
    def test_zero_beyond_support(self):
        cert = solvability_certificate(TWO_POINT_PAIR, 1, BeurlingWeight.one())
        assert cert == pytest.approx(0.0, abs=1e-13)

    def test_small_data_certified_everywhere(self):
        F = seq({0: 0.1, 1: -0.1, 2: 0.05j})
        pair = nlft_forward(F)
        n0 = first_certified_index(pair, BeurlingWeight.one())
        assert n0 is not None and n0 <= 0
        cert = solvability_certificate(pair, n0, BeurlingWeight.one())
        assert cert < 0.5

    def test_certificate_decreases_to_the_right(self):
        F = seq({0: 0.3, 1: 0.3})
        pair = nlft_forward(F)
        w = BeurlingWeight.one()
        c_left = solvability_certificate(pair, -1, w)
        c_right = solvability_certificate(pair, 0, w)
        assert c_right < c_left


class TestOneFactorization:
    @pytest.mark.parametrize("reflected", [False, True])
    def test_strip_records_match_single_solves(self, reflected):
        F = random_instance(12, -6, 9)
        pair = nlft_forward(F)
        n_points = 512
        _, records = layer_strip_detailed(pair, (-6, 9))
        # the case named ``reflected`` takes the truncations below 0
        records = [r for r in records if (r.n < 0) == reflected]
        assert records
        for rec in records:
            single = rh_solve(RhSystem.build(pair, rec.n, n_points=n_points))
            assert rec.a_star_zero == pytest.approx(single.a_star_zero,
                                                    abs=1e-12)
            for name in ("a", "b", "tilde_a_star", "tilde_b"):
                assert max_abs_difference(getattr(rec, name),
                                          getattr(single, name)) < 1e-12
            assert rec.solution_norm == pytest.approx(single.solution_norm,
                                                      abs=1e-12)

    def test_wide_centred_round_trip(self):
        F = random_instance(5, -128, 127)
        rec, report = inverse_nlft_detailed(nlft_forward(F).b, (-128, 127))
        assert max_abs_difference(rec, F) < 1e-10
        assert report.round_trip_residual < 1e-10
        assert len(report.records) == 256

    def test_cli_import_leaves_scipy_out(self):
        code = "import sys, su2nlft.cli; print('scipy' in sys.modules)"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(su2nlft.__file__).parents[1]),
             env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


def acceptance_draws(count):
    """Seeded draws of the law of tests/test_acceptance.py: support inside
    [-16, 16], |F_k| <= 0.3, rescaled until sup |b| <= 0.9, and redrawn
    while a* winds."""
    rng = np.random.default_rng(0)
    out = []
    while len(out) < count:
        lo = int(rng.integers(-16, 17))
        hi = int(rng.integers(lo, 17))
        vals = (0.3 * np.sqrt(rng.random(hi - lo + 1))
                * np.exp(2j * np.pi * rng.random(hi - lo + 1)))
        while True:
            pair = nlft_forward(CoefficientSequence(lo, hi, vals), 1024)
            if np.max(np.abs(_eval_samples(pair.b, 8192))) <= 0.9:
                break
            vals = vals * 0.9
        if winding_number(star_reflect(pair.a), 4096) == 0:
            out.append((pair, (lo, hi)))
    return out


def small_a_star_zero_draws(count):
    """Completed pairs ``outer_complement(b)`` with ``a*(0)^2 < 0.2``, from
    seeded draws of width 2-8 with ``|F_k| <= 1.5``."""
    rng = np.random.default_rng(2)
    out = []
    while len(out) < count:
        w = int(rng.integers(2, 9))
        lo = int(rng.integers(-4, 2))
        vals = 1.5 * np.sqrt(rng.random(w)) * np.exp(2j * np.pi * rng.random(w))
        try:
            pair = outer_complement(
                nlft_forward(CoefficientSequence(lo, lo + w - 1, vals)).b)
        except NumericalError:
            continue
        if np.real(pair.a.coefficient(0)) ** 2 < 0.2:
            out.append((pair, (lo, lo + w - 1)))
    return out


def zero_free(pair):
    """Whether ``a*`` has no zero in the closed disk."""
    return bool(np.all(np.abs(np.roots(star_reflect(pair.a).coeffs[::-1]))
                       > 1.0))


def zero_free_draws(count):
    """The first ``count`` seeded draws of width 2-8 with ``|F_k| <= 2``
    whose ``a*`` has no zero in the closed disk, with their transforms.

    Most draws of this law have such a zero; 40 candidates a draw are
    enough for seed 0.  The candidates are screened in one batch: ``a*``
    by the factor recursion on rows padded with zeros to width 8, and
    its zeros as the reciprocals of the eigenvalues of the companion
    matrix of the reversed polynomial, whose leading coefficient
    ``a*(0)`` is positive.  Only kept draws are transformed.
    """
    rng = np.random.default_rng(0)
    n = 40 * count
    widths = rng.integers(2, 9, size=n)
    los = rng.integers(-4, 5, size=n)
    vals = (2 * np.sqrt(rng.random((n, 8)))
            * np.exp(2j * np.pi * rng.random((n, 8))))
    padded = np.where(np.arange(8) < widths[:, None], vals, 0.0)
    astar = np.zeros((n, 8), dtype=np.complex128)
    astar[:, 0] = 1.0
    b = np.zeros((n, 8), dtype=np.complex128)
    for k in range(8):  # factors in ascending index order
        f = padded[:, k:k + 1]
        inv_nu = 1.0 / np.sqrt(1.0 + np.abs(f) ** 2)
        ra, rb = np.conj(astar[:, k::-1]), np.conj(b[:, k::-1])
        astar[:, :k + 1] = (astar[:, :k + 1] - f * rb) * inv_nu
        b[:, :k + 1] = (b[:, :k + 1] + f * ra) * inv_nu
    companion = np.zeros((n, 7, 7), dtype=np.complex128)
    companion[:, 0] = -astar[:, 1:] / astar[:, :1]
    companion[:, 1:, :-1] = np.eye(6)
    kept = np.flatnonzero(
        np.all(np.abs(np.linalg.eigvals(companion)) < 1.0, axis=1))
    if kept.size < count:
        raise AssertionError(f"{n} candidates give only {kept.size} draws")
    for i in kept[:count]:
        F = CoefficientSequence(int(los[i]), int(los[i] + widths[i]) - 1,
                                vals[i, :widths[i]])
        pair = nlft_forward(F)
        assert zero_free(pair)
        assert max_abs_difference(star_reflect(pair.a),
                                  CoefficientSequence(0, 7, astar[i])) <= 1e-12
        yield F, pair


def large_potential_draws(count):
    """Seeded draws of width 2-5 with one or two entries of modulus
    ``10^1.5`` to ``10^3.5`` and the rest below 1, kept when
    ``a*(0)^2 <= 1e-6`` and ``a*`` has no zero in the closed disk."""
    rng = np.random.default_rng(1)
    out = []
    while len(out) < count:
        w = int(rng.integers(2, 6))
        lo = int(rng.integers(-3, 2))
        mags = 10 ** rng.uniform(-4, 0, w)
        big = rng.integers(w, size=int(rng.integers(1, 3)))
        mags[big] = 10 ** rng.uniform(1.5, 3.5, big.size)
        F = CoefficientSequence(lo, lo + w - 1,
                                mags * np.exp(2j * np.pi * rng.random(w)))
        pair = nlft_forward(F)
        if np.real(pair.a.coefficient(0)) ** 2 <= 1e-6 and zero_free(pair):
            out.append((F, pair))
    return out


def assert_strip_matches_single_solves(pair, window, n_points):
    F, records = layer_strip_detailed(pair, window)
    assert len(records) == window[1] - window[0] + 1
    for rec in records:
        source = reflect_pair(pair) if rec.reflected else pair
        single = rh_solve(RhSystem.build(source, rec.n, n_points=n_points))
        F_n = F.coefficient(-rec.n if rec.reflected else rec.n)
        assert abs(F_n - single.b.coefficient(rec.n) / single.a_star_zero) \
            <= 1e-12
        for name in ("a_star_zero", "solution_norm"):
            assert abs(getattr(rec, name) - getattr(single, name)) <= 1e-12
        for name in ("a", "b", "tilde_a_star", "tilde_b"):
            assert max_abs_difference(getattr(rec, name),
                                      getattr(single, name)) <= 1e-12


class TestSchurStripping:
    def test_matches_single_solves_on_acceptance_law(self):
        for pair, window in acceptance_draws(8):
            assert_strip_matches_single_solves(pair, window, 1024)

    def test_matches_single_solves_at_small_a_star_zero(self):
        for pair, window in small_a_star_zero_draws(5):
            assert_strip_matches_single_solves(pair, window, 4096)

    def test_tight_tol_raises(self):
        pair = nlft_forward(random_instance(3, 0, 7))
        with pytest.raises(ConvergenceError, match="pivot identity"):
            layer_strip(pair, (0, 7), tol=1e-30)

    def test_non_finite_symbol_raises(self, monkeypatch):
        schur = su2nlft.inverse._schur_pass

        def nan_pass(g):
            return schur(np.full_like(g, np.nan))

        monkeypatch.setattr(su2nlft.inverse, "_schur_pass", nan_pass)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            layer_strip(TWO_POINT_PAIR, (0, 1))

    @pytest.mark.parametrize("phi", [0.3, np.pi])
    def test_rotated_a_strips_to_the_rotated_potential(self, phi):
        # (a e^{i phi}, b) has b/a* = e^{i phi} b/a*, so its potential is
        # e^{i phi} F; a*(0) then has phase -phi, not a positive real
        F = random_instance(4, -3, 6)
        pair = nlft_forward(F)
        rotated = NlftPair(pair.a.scale(np.exp(1j * phi)), pair.b,
                           pair.grid_residual)
        got = layer_strip(rotated, (-3, 6))
        assert max_abs_difference(got, F.scale(np.exp(1j * phi))) <= 1e-12
        assert_strip_matches_single_solves(rotated, (-3, 6), 256)

    @pytest.mark.parametrize("pair, window", [
        (TWO_POINT_PAIR, (-5, -2)),
        (nlft_forward(seq({-2: 0})), (-2, -2)),
    ], ids=["window_below_b", "b_clamps_to_empty"])
    def test_empty_pass_strips_to_nothing(self, pair, window):
        F, records = layer_strip_detailed(pair, window)
        assert F.is_empty
        assert [r.n for r in records] == list(range(window[0], window[1] + 1))
        for rec in records:
            assert (rec.a_star_zero, rec.residual) == (1.0, 0.0)
            assert rec.b.is_empty
            assert max_abs_difference(rec.a, seq({0: 1.0})) == 0.0

    def test_zero_free_law_strips_or_stops_at_the_grid_cap(self):
        capped = 0
        for F, pair in zero_free_draws(1500):
            try:
                got = layer_strip(pair, (F.support_lo, F.support_hi))
            except ConsistencyError as exc:
                assert "largest grid" in str(exc)
                capped += 1
                continue
            assert max_abs_difference(got, F) <= 1e-10
        # only a* zeros within about 5e-4 of the circle reach the cap;
        # a sequential draw of this law with seed 0 has 6 in 1,500
        assert capped <= 15

    @pytest.mark.parametrize("F", [{0: 1e3}, {0: 1e4}, {-2: 3e3j},
                                   {5: -700 + 700j}])
    def test_single_large_value_strips(self, F):
        F = seq(F)
        got, records = layer_strip_detailed(nlft_forward(F),
                                            (F.support_lo, F.support_hi))
        assert max_abs_difference(got, F) <= 1e-12 * np.max(np.abs(F.coeffs))
        assert max(r.residual for r in records) <= 1e-12

    def test_large_potentials_strip_or_stop_at_the_grid_cap(self):
        stripped = 0
        for F, pair in large_potential_draws(10):
            try:
                got = layer_strip(pair, (F.support_lo, F.support_hi))
            except ConsistencyError as exc:
                # the fold measure's rounding floor, eps * max |b/a*|
                assert "largest grid" in str(exc)
                continue
            stripped += 1
            assert max_abs_difference(got, F) \
                <= 1e-12 * np.max(np.abs(F.coeffs))
        # five of these ten draws strip; the others reach the grid cap
        assert stripped >= 5

    def test_record_repr_runs_no_solve(self, monkeypatch):
        _, records = layer_strip_detailed(TWO_POINT_PAIR, (-1, 1))

        def fail(*args):
            raise AssertionError("dense solve run")

        monkeypatch.setattr(su2nlft.inverse, "_dense_solve", fail)
        text = repr(records)
        assert "a_star_zero=" in text and "tilde_b" not in text

    def test_wide_centred_round_trip_at_width_1024(self):
        F = random_instance(5, -512, 511)
        rec, report = inverse_nlft_detailed(nlft_forward(F).b, (-512, 511))
        assert max_abs_difference(rec, F) < 1e-10
        assert report.round_trip_residual < 1e-10
        assert len(report.records) == 1024

    def test_wide_strip_forms_no_square_array(self):
        pair = nlft_forward(random_instance(5, -512, 511))
        tracemalloc.start()
        try:
            layer_strip_detailed(pair, (-512, 511))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 1024 x 1024 complex matrix takes 16 MiB
        assert peak < 8 * 2**20


class TestOnePass:
    def test_one_schur_pass_and_one_build_per_strip(self, monkeypatch):
        calls = {"pass": 0, "build": 0}
        schur, build = su2nlft.inverse._schur_pass, RhSystem.build

        def counting_pass(c):
            calls["pass"] += 1
            return schur(c)

        def counting_build(pair, n, n_points=None):
            calls["build"] += 1
            return build(pair, n, n_points)

        monkeypatch.setattr(su2nlft.inverse, "_schur_pass", counting_pass)
        monkeypatch.setattr(RhSystem, "build", counting_build)
        F = random_instance(12, -6, 9)
        got, records = layer_strip_detailed(nlft_forward(F), (-6, 9))
        assert calls == {"pass": 1, "build": 0}
        assert max_abs_difference(got, F) < 1e-12
        assert [r.n for r in records] == list(range(-6, 10))
        assert not any(r.reflected for r in records)

    def test_wide_record_reads_no_dense_solve(self, monkeypatch):
        def fail(*args):
            raise AssertionError("dense solve run")

        monkeypatch.setattr(su2nlft.inverse, "_dense_solve", fail)
        pair = nlft_forward(random_instance(5, 0, 4096))
        _, records = layer_strip_detailed(pair, (0, 4096))
        assert records[-1].n == 4096
        assert max_abs_difference(records[-1].b, pair.b) < 1e-12

    def test_record_below_b_reads_the_empty_prefix(self):
        _, records = layer_strip_detailed(TWO_POINT_PAIR, (-2, 1))
        below = records[0]
        assert below.n == -2 and below.a_star_zero == 1.0
        one = CoefficientSequence.constant(1.0)
        assert max_abs_difference(below.a, one) == 0.0
        assert max_abs_difference(below.tilde_a_star, one) == 0.0
        assert below.b.is_empty and below.tilde_b.is_empty


class TestSolverFailures:
    def test_factorization_failure_is_numerical_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(ConsistencyError):
            rh_solve(RhSystem.build(TWO_POINT_PAIR, 1))

    def test_residual_above_tol_raises(self):
        sys_ = RhSystem.build(nlft_forward(random_instance(3, 0, 7)), 7)
        assert rh_solve(sys_).residual > 1e-30
        with pytest.raises(ConvergenceError):
            rh_solve(sys_, tol=1e-30)

    def test_non_finite_symbol_raises(self):
        sys_ = RhSystem.build(TWO_POINT_PAIR, 1)
        t = np.full_like(sys_.sym_b_over_astar, np.nan)
        broken = RhSystem(TWO_POINT_PAIR, 1, sys_.n_points, sys_.bandwidth,
                          t, np.conj(t))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            rh_solve(broken)


class TestOuternessNearCircle:
    def test_zero_just_inside_the_circle_is_rejected(self):
        # the true a* has a zero at |z| = 0.99924; stripping this pair
        # misses F by about 1e-2 without raising
        pair = nlft_forward(random_instance(6, -128, 127, scale=0.5))
        with pytest.raises(OuternessError, match="winds 1 times"):
            require_outer(star_reflect(pair.a))


class TestOuterPotential:
    def test_b_alone_recovers_the_outer_potential(self):
        # the forward a* of F has a zero at |z| = 0.0025, so b alone
        # determines the potential whose a* is outer, about
        # (0.075, -15.05i, 0.025), and not F
        F = CoefficientSequence(0, 2, np.array([30, -20j, 10]))
        pair = nlft_forward(F)
        with pytest.raises(OuternessError):
            require_outer(star_reflect(pair.a))
        got, report = inverse_nlft_detailed(pair.b, (0, 2))
        assert report.round_trip_residual <= 1e-12
        assert max_abs_difference(got, F) > 1.0
        require_outer(star_reflect(nlft_forward(got).a))


# the only zero of a* is at |z| = 1.081, so the coefficients of b/a*
# decay like 1.081^-k: a grid sized by the width alone aliases them
SLOW_DECAY = seq({0: -1.1614 - 0.8551j, 1: -0.618 - 0.1709j})
# a* has a zero at |z| = 1.00043: b/a* does not resolve on 2^18 points
NEAR_CIRCLE = seq({0: 1.1654 - 0.4929j, 1: -0.6748 - 0.4107j})


class TestDataSizedSolverGrid:
    def test_layer_strip_resolves_slow_decay(self):
        F = layer_strip(nlft_forward(SLOW_DECAY), (0, 1))
        assert max_abs_difference(F, SLOW_DECAY) <= 1e-12

    def test_rh_solve_on_default_grid(self):
        sol = rh_solve(RhSystem.build(nlft_forward(SLOW_DECAY), 1))
        F1 = sol.b.coefficient(1) / sol.a_star_zero
        assert abs(F1 - SLOW_DECAY.coefficient(1)) <= 1e-12

    def test_inverse_nlft_resolves_slow_decay(self):
        # 1e-10 is the determinant residual target of the completion
        F = inverse_nlft(nlft_forward(SLOW_DECAY).b, (0, 1))
        assert max_abs_difference(F, SLOW_DECAY) <= 1e-10

    def test_explicit_grid_skips_the_fold_measure(self, monkeypatch):
        calls = []
        window_coeffs = su2nlft.inverse._window_coeffs

        def counted(*args):
            calls.append(args)
            return window_coeffs(*args)

        monkeypatch.setattr(su2nlft.inverse, "_window_coeffs", counted)
        RhSystem.build(TWO_POINT_PAIR, 1, n_points=64)
        assert calls == []

    def test_grid_cap_raises_numerical_error(self):
        pair = nlft_forward(NEAR_CIRCLE)
        with pytest.raises(ConsistencyError, match="largest grid"):
            RhSystem.build(pair, 1)
        # stripping reads b/a* as a power series and needs no grid
        F = layer_strip(pair, (0, 1))
        assert max_abs_difference(F, NEAR_CIRCLE) <= 1e-12


class TestGridFreeStripping:
    def test_width_8192_strips(self):
        F = random_instance(5, 0, 8191)
        got = layer_strip(nlft_forward(F), (0, 8191))
        assert max_abs_difference(got, F) <= 1e-12

    def test_every_large_potential_strips(self):
        for F, pair in large_potential_draws(10):
            got = layer_strip(pair, (F.support_lo, F.support_hi))
            assert max_abs_difference(got, F) \
                <= 1e-12 * np.max(np.abs(F.coeffs))

    def test_a_star_shorter_than_the_pass(self):
        # a* = 1/sqrt(2) alone; the series of 1/a* still needs 4 terms
        F = CoefficientSequence(0, 3, np.array([1.0, 0.0, 0.0, 0.0]))
        got = layer_strip(nlft_forward(F), (0, 3))
        assert max_abs_difference(got, F) <= 1e-12

    def test_non_outer_a_star_raises(self):
        # a*(0) = 0: a* winds once around 0
        pair = NlftPair(TWO_POINT_PAIR.a.shift(-1), TWO_POINT_PAIR.b, 0.0)
        with pytest.raises(OuternessError):
            layer_strip(pair, (0, 1))

    def test_one_winding_check_per_inverse(self, monkeypatch):
        checked = []
        check = su2nlft.spectral.require_outer

        def spy(astar, *samples):
            checked.append(astar)
            return check(astar, *samples)

        monkeypatch.setattr(su2nlft.spectral, "require_outer", spy)
        monkeypatch.setattr(su2nlft.inverse, "require_outer", spy)
        F = random_instance(3, -4, 7)
        got, _ = inverse_nlft_detailed(nlft_forward(F).b, (-4, 7))
        assert len(checked) == 1
        assert max_abs_difference(got, F) <= 1e-10

    def test_round_trip_samples_no_grid(self, monkeypatch):
        # |a|^2 + |b|^2 is sampled only where the completion samples it;
        # the round trip compares coefficients of b and reads no grid
        sampled = []
        power_samples = su2nlft.core._power_samples

        def spy(seqs, n_points):
            sampled.append(n_points)
            return power_samples(seqs, n_points)

        F = random_instance(3, -4, 7)
        b = nlft_forward(F).b
        monkeypatch.setattr(su2nlft.core, "_power_samples", spy)
        outer_complement(b)
        completion, sampled[:] = sampled[:], []
        got, report = inverse_nlft_detailed(b, (-4, 7))
        assert sampled == completion
        assert max_abs_difference(got, F) <= 1e-10
        assert report.round_trip_residual <= 1e-12

    def test_inverse_grid_is_the_completion_grid(self, monkeypatch):
        grids = []
        complete = su2nlft.inverse.outer_complement

        def spy(b, n_points=None, *args, **kwargs):
            grids.append(n_points)
            return complete(b, n_points, *args, **kwargs)

        monkeypatch.setattr(su2nlft.inverse, "outer_complement", spy)
        F = random_instance(3, 0, 7)
        got, _ = inverse_nlft_detailed(nlft_forward(F).b, (0, 7),
                                       n_points=1024)
        assert grids == [1024]
        assert max_abs_difference(got, F) <= 1e-10


def complex_step_pass(g):
    """The Schur pass as one complex 3x3 step per column, the reference
    the real-arithmetic kernel is checked against."""
    size = g.shape[-1]
    A = np.empty((3, size), dtype=np.complex128)
    A[:2] = g
    A[2] = g[1]
    B = np.empty_like(A)
    step = np.eye(3, dtype=np.complex128)
    pivots, y = [], []
    for k in range(size):
        alpha, beta, rest = A[:, k].tolist()
        pivot = np.hypot(abs(alpha), abs(beta))
        pivots.append(pivot)
        y.append(rest / pivot)
        u, v = alpha / pivot, beta / pivot
        step[0, 0], step[0, 1] = u.conjugate(), v.conjugate()
        step[1, 0], step[1, 1] = -v, u
        step[2, 0], step[2, 1] = -y[k] * u.conjugate(), -y[k] * v.conjugate()
        np.matmul(step, A[:, k:], out=B[:, k:])
        B[0, k + 1:] = B[0, k:-1]
        A, B = B, A
    return np.array(pivots), np.array(y, dtype=np.complex128)


def law(K, s=1.0, seed=0):
    """``F`` on ``[0, K - 1]`` with entries ``0.3 s (N(0,1) + i N(0,1)) /
    sqrt(K)``: the law of the stripping timings, scaled by ``s``."""
    rng = np.random.default_rng(seed)
    return CoefficientSequence(0, K - 1, 0.3 * s * (
        rng.standard_normal(K) + 1j * rng.standard_normal(K)) / np.sqrt(K))


def generators(pair, K):
    return np.stack([star_reflect(pair.a).coeffs[:K], pair.b.coeffs[:K]])


class TestStripByHalves:
    @pytest.mark.parametrize("width", [1, 2, 127, 128, 129, 1024])
    def test_real_step_matches_the_complex_step(self, width):
        g = generators(nlft_forward(law(width)), width)
        pivots, y = su2nlft.inverse._schur_pass(g)
        ref_pivots, ref_y = complex_step_pass(g)
        assert np.max(np.abs(pivots - ref_pivots)) <= 1e-13
        assert np.max(np.abs(y - ref_y)) <= 1e-13

    @pytest.mark.parametrize("K", [2**10, 2**12, 2**14])
    def test_halves_match_one_full_width_leaf(self, K, monkeypatch):
        pair = nlft_forward(law(K))
        halves = layer_strip(pair, (0, K - 1))
        monkeypatch.setattr(su2nlft.inverse, "_LEAF", K)
        leaf = layer_strip(pair, (0, K - 1))
        assert max_abs_difference(halves, leaf) <= 1e-12

    @pytest.mark.parametrize("K, s", [(1024, 1), (1024, 5), (1024, 6),
                                      (1024, 7), (1024, 8), (4096, 6)])
    def test_halves_on_the_scaled_law(self, K, s, monkeypatch):
        # from s = 5 on a* is not outer, so the strips run past the
        # winding check; the ratio's leading coefficients still fix F
        F = law(K, s, seed=1)
        pair = nlft_forward(F)
        strip = su2nlft.inverse._strip_outer
        tol = su2nlft.inverse.DEFAULT_SOLVER_TOL
        # the backward error: the forward transform of the ungated
        # halves F against the pair, coefficient by coefficient
        g = generators(pair, K)
        got, _, _ = su2nlft.inverse._strip_pass(g)
        back = nlft_forward(CoefficientSequence(0, K - 1, got))
        backward = max(max_abs_difference(back.a, pair.a),
                       max_abs_difference(back.b, pair.b))
        try:
            halves = max_abs_difference(strip(pair, 0, K - 1, tol)[0], F)
        except ConvergenceError:
            halves = None
        monkeypatch.setattr(su2nlft.inverse, "_LEAF", K)
        try:
            single = max_abs_difference(strip(pair, 0, K - 1, tol)[0], F)
        except ConvergenceError:
            single = None
        if backward > tol:
            assert halves is None
        if single is not None:  # not less accurate, up to rounding
            assert halves is not None and halves <= max(single, 1e-15)
        assert (halves is None) == (s >= 6)

    def test_window_below_the_top_reads_the_rest_of_the_pair(self):
        # the gate of a window below hi(b) sees only how the strip fits
        # the rest of the pair: at s = 7 it may pass a strip off by ~1e-8
        tol = su2nlft.inverse.DEFAULT_SOLVER_TOL
        for s in (7, 8):
            F = law(1024, s, seed=1)
            pair = nlft_forward(F)
            try:
                got, _ = su2nlft.inverse._strip_outer(pair, 0, 511, tol)
            except ConvergenceError as exc:
                assert "backward error" in str(exc)
                continue
            assert s == 7
            assert max_abs_difference(got, F.restrict(0, 511)) <= 1e-7

    def test_width_65536_strips(self):
        F = law(2**16)
        got = layer_strip(nlft_forward(F), (0, 2**16 - 1))
        assert max_abs_difference(got, F) <= 1e-12

    def test_records_across_leaves(self):
        # negative indices, and a window past hi(b) padded with zeros
        F = random_instance(7, -300, 200)
        got, records = layer_strip_detailed(nlft_forward(F), (-350, 500))
        assert max_abs_difference(got, F) <= 1e-12
        assert [r.n for r in records] == list(range(-350, 501))
        for rec in records[50::97]:
            want = su2nlft.a_star_at_zero(F.restrict(-300, rec.n))
            assert abs(rec.a_star_zero - want) <= 1e-12
            assert rec.residual <= 1e-12
            assert max_abs_difference(rec.b, nlft_forward(
                F.restrict(-300, rec.n)).b) <= 1e-12

    def test_backward_gate_raises(self):
        pair = nlft_forward(random_instance(3, 0, 599))
        with pytest.raises(ConvergenceError, match="backward error"):
            layer_strip(pair, (0, 599), tol=1e-30)

    def test_non_finite_leaf_fails_the_backward_gate(self, monkeypatch):
        schur = su2nlft.inverse._schur_pass

        def nan_pass(g):
            return schur(np.full_like(g, np.nan))

        monkeypatch.setattr(su2nlft.inverse, "_schur_pass", nan_pass)
        pair = nlft_forward(random_instance(3, 0, 599))
        with np.errstate(invalid="ignore"), \
                pytest.raises(ConvergenceError, match="backward error"):
            layer_strip(pair, (0, 599))
