import dataclasses
import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import su2nlft.forward
import su2nlft.verify
from su2nlft import (
    BeurlingWeight,
    CoefficientSequence,
    ConsistencyError,
    InverseReport,
    NlftPair,
    RhSolution,
    RhSystem,
    SzegoMarginError,
    ValidationError,
    VanishingSymbolError,
    check_antisymmetry,
    check_contraction,
    check_decay_first_order,
    check_decay_fractional,
    check_determinant,
    check_lu_factorization,
    check_plancherel,
    check_quantitative_baxter,
    check_round_trip,
    check_sinh_bound,
    decay_table,
    default_grid_size,
    nlft_forward,
    run_pair_checks,
    run_suite,
)
from su2nlft.core import _eval_samples


def seq(entries):
    return CoefficientSequence.from_dict(entries)


TWO_POINT = seq({0: 0.5, 1: 0.5})
TWO_POINT_PAIR = nlft_forward(TWO_POINT)
SINGULAR = seq({0: 1.0, 1: 1.0})  # b = (1 + z)/2, |b| = 1 at z = 1
SINGULAR_PAIR = nlft_forward(SINGULAR)
# the LU check fails on 128 points and passes on 512 (as in
# test_check_grids.py)
LU_ALIASED = seq({-3: -0.2446637853716387 + 0.8247500363507834j,
                  -2: -0.5278940521895357 + 0.7849135161576277j})


def tampered_pair():
    return NlftPair(TWO_POINT_PAIR.a.scale(1.1), TWO_POINT_PAIR.b, 0.0)


def _full_grid_transform_spy(monkeypatch, n_points):
    """Record the calls of ``np.fft.fft``/``ifft`` that span ``n_points``."""
    lengths = []
    for name in ("fft", "ifft"):
        def spy(a, *args, _orig=getattr(np.fft, name), **kwargs):
            out = _orig(a, *args, **kwargs)
            if out.shape[-1] == n_points:
                lengths.append(out.shape)
            return out
        monkeypatch.setattr(np.fft, name, spy)
    return lengths


class TestDeterminant:
    def test_passes_on_forward_output(self):
        rec = check_determinant(TWO_POINT_PAIR)
        assert rec.passed and rec.value < 1e-14

    def test_fails_on_tampered_a(self):
        rec = check_determinant(tampered_pair())
        assert not rec.passed
        # (1.1^2 - 1)|a|^2 peaks where b vanishes, so the grid max is 0.21
        assert rec.value == pytest.approx(0.21, abs=1e-12)


class TestPlancherel:
    def test_two_point(self):
        rec = check_plancherel(TWO_POINT, TWO_POINT_PAIR)
        assert rec.passed and rec.value < 1e-10

    def test_boundary_touching_b_still_integrates(self):
        # |b| = 1 at z = 1, but the log singularity is integrable:
        # both sides equal 2 log 2
        rec = check_plancherel(SINGULAR, SINGULAR_PAIR, n_points=8192)
        assert rec.passed and rec.value < 1e-8
        assert rec.lhs == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_detail_names_the_grid(self):
        rec = check_plancherel(SINGULAR, SINGULAR_PAIR, n_points=8192)
        assert rec.detail == "grid=8192"

    def test_boundary_instance_settles_below_the_cap(self):
        # the c/N error of the boundary zero cancels in the Richardson
        # value, so the doubling stops at once
        rec = check_plancherel(SINGULAR, SINGULAR_PAIR)
        assert rec.passed and rec.detail == f"grid={default_grid_size(2)}"

    def test_sum_of_entries_above_one(self):
        # above |F| = 1 the sum takes 2 log|F| + log1p(|F|^-2): the same
        # value where |F|^2 is a double, a finite one where it overflows
        for big, expected in [(3.0, math.log(10)),
                              (1e200, 400 * math.log(10))]:
            F = seq({0: big, 1: 0.5})
            rec = check_plancherel(F, nlft_forward(F), n_points=64)
            assert rec.lhs == pytest.approx(expected + math.log(1.25),
                                            rel=1e-15)

    def test_hypothesis_error_when_b_exceeds_one(self):
        bad = NlftPair(SINGULAR_PAIR.a, SINGULAR_PAIR.b.scale(1.3), 0.0)
        with pytest.raises(SzegoMarginError):
            check_plancherel(SINGULAR, bad)


class TestSinhBound:
    @pytest.mark.parametrize("w", [
        BeurlingWeight.one(),
        BeurlingWeight.polynomial(0.5),
        BeurlingWeight.polynomial(1.0),
        BeurlingWeight.polynomial(2.0),
    ])
    def test_margin_nonnegative(self, w):
        rec = check_sinh_bound(TWO_POINT, w, TWO_POINT_PAIR)
        assert rec.passed and rec.value >= -1e-12

    def test_singular_instance_still_passes(self):
        rec = check_sinh_bound(SINGULAR, BeurlingWeight.one(), SINGULAR_PAIR)
        assert rec.passed

    def test_overflowing_bound_is_vacuous_in_suite(self):
        # ||F||_{l1_w} is about 1107 under poly:alpha=2; sinh overflows there
        F = CoefficientSequence(0, 39, np.full(40, 0.05))
        report = run_suite(F)
        sinh = {r.weight: r for r in report.records if r.name == "sinh_bound"}
        vacuous = sinh["poly:alpha=2"]
        assert vacuous.passed and vacuous.rhs is None and vacuous.value is None
        assert "vacuous" in vacuous.detail
        assert sinh["one"].value >= -1e-12
        json.dumps(report.to_dict(), allow_nan=False)


class TestDecay:
    def test_first_order_two_point(self):
        rec = check_decay_first_order(TWO_POINT, TWO_POINT_PAIR)
        assert rec.passed
        # |F_1| = 0.5 against 2 a*(0) ||(b/a*)'|| / 1
        assert rec.lhs == pytest.approx(0.5)
        assert rec.rhs > 0.5

    def test_single_point_vacuous(self):
        F = seq({0: 0.4})
        rec = check_decay_first_order(F, nlft_forward(F))
        assert rec.passed and rec.value == 0.0

    def test_fractional_monitored(self):
        rec = check_decay_fractional(TWO_POINT, TWO_POINT_PAIR, 1.5)
        assert rec.kind == "monitored"
        assert rec.passed
        assert 0 < rec.value < 10

    def test_fractional_needs_s_at_least_one(self):
        with pytest.raises(ValidationError):
            check_decay_fractional(TWO_POINT, TWO_POINT_PAIR, 0.5)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_fractional_needs_finite_s(self, s):
        with pytest.raises(ValidationError):
            check_decay_fractional(TWO_POINT, TWO_POINT_PAIR, s)

    def test_default_grid_resolves_the_ratio(self):
        # the width-sized grid aliased b/a* here: the bound at n = 1 read
        # 45.53 on 32 points against 46.82 on resolving grids
        F = seq({0: -1.1614 - 0.8551j, 1: -0.618 - 0.1709j})
        pair = nlft_forward(F)
        resolved = decay_table(F, pair, n_points=2 ** 16)[1][2]
        assert decay_table(F, pair)[1][2] == pytest.approx(resolved, abs=1e-9)
        rec = check_decay_first_order(F, pair)
        assert rec.rhs == pytest.approx(resolved, abs=1e-9)


class TestQuantitativeBaxter:
    def test_inapplicable_when_b_norm_large(self):
        # ||b||_A = 0.8 > 1/sqrt(2)
        rec = check_quantitative_baxter(TWO_POINT, TWO_POINT_PAIR,
                                        BeurlingWeight.one())
        assert rec.kind == "inapplicable"
        assert rec.passed

    def test_applicable_small_instance(self):
        F = seq({0: 0.3, 1: 0.3})
        pair = nlft_forward(F)
        rec = check_quantitative_baxter(F, pair, BeurlingWeight.one())
        assert rec.kind == "monitored"
        assert rec.value > 0
        # ||b||_A = 0.6/1.09 comfortably below 1/sqrt(2)
        assert rec.lhs > 0


class TestLuFactorization:
    def test_two_point_machine_precision(self):
        rec = check_lu_factorization(TWO_POINT_PAIR)
        assert rec.passed
        assert rec.value < 1e-12

    def test_wide_instance(self):
        rng = np.random.default_rng(2)
        vals = 0.1 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
        pair = nlft_forward(CoefficientSequence(-4, 4, vals))
        rec = check_lu_factorization(pair)
        assert rec.passed

    def test_detects_broken_pair(self):
        rec = check_lu_factorization(tampered_pair())
        assert not rec.passed

    def test_probes_catch_a_shifted_a(self):
        # |a| is unchanged on the circle, so the pointwise identities
        # hold, but a*(0) = 0 breaks the triangular structure; the value
        # is that of the full-grid probes with the same draws
        pair = NlftPair(TWO_POINT_PAIR.a.shift(-1), TWO_POINT_PAIR.b, 0.0)
        rec = check_lu_factorization(pair)
        assert rec.lhs <= 1e-14
        assert rec.rhs > 0.1 and not rec.passed
        assert rec.rhs == pytest.approx(0.424400444614404, abs=1e-12)

    def test_probes_take_no_full_grid_transform(self, monkeypatch):
        lengths = _full_grid_transform_spy(monkeypatch, 1024)
        rec = check_lu_factorization(TWO_POINT_PAIR, n_points=1024)
        assert rec.passed
        # samples of a and b, and coefficients of 1/a and 1/a*; those of
        # a and a* are stored, the identity copies: none per probe
        assert len(lengths) == 4

    def test_one_convolution_per_probed_symbol(self, monkeypatch):
        calls = []
        window_multiply = su2nlft.verify._window_multiply

        def spy(coeffs, *args):
            calls.append(coeffs.size)
            return window_multiply(coeffs, *args)

        monkeypatch.setattr(su2nlft.verify, "_window_multiply", spy)
        assert check_lu_factorization(TWO_POINT_PAIR, n_points=1024).passed
        # the twelve probes convolve by 1/a, a, 1/a* and a*; 1 copies
        assert calls == [1024] * 4

    @pytest.mark.parametrize("pair", [TWO_POINT_PAIR, tampered_pair()])
    def test_pointwise_residual_is_that_of_all_eight_entries(self, pair):
        av = _eval_samples(pair.a, 1024)
        bv = _eval_samples(pair.b, 1024)
        astar, bstar = np.conj(av), np.conj(bv)
        one, zero = np.ones(1024, dtype=complex), np.zeros(1024, dtype=complex)
        bstar_a, neg_b_astar = bstar / av, -bv / astar
        C = [[one, bstar_a], [neg_b_astar, one]]
        L = [[1.0 / av, bstar_a], [zero, one]]
        U = [[1.0 / astar, zero], [neg_b_astar, one]]
        Lt = [[one, bstar_a], [zero, 1.0 / av]]
        Ut = [[one, zero], [neg_b_astar, 1.0 / astar]]
        reference = max(
            float(np.max(np.abs(
                C[i][j] - (Y[i][0] * Z[0][j] + Y[i][1] * Z[1][j]))))
            for Y, Z in ((L, U), (Ut, Lt)) for i in range(2) for j in range(2))
        rec = check_lu_factorization(pair, n_points=1024)
        assert rec.lhs == reference


def _lu_probe_reference(pair, n_points, seed=0):
    """The ``rhs`` of ``check_lu_factorization`` from its definition.

    Each of the twelve probes applies its 2x2 matrix of symbols on the
    full grid: samples by ``_eval_samples``, products pointwise,
    coefficients by ``np.fft.fft``, read on the output windows.  The draw
    is laid out as in the check, and the split windows sit around the
    truncation ``n``.
    """
    n, k = su2nlft.verify._lu_window(pair)
    assert 4 * k + 2 * abs(n) < n_points  # k is not shrunk
    a, b = _eval_samples(pair.a, n_points), _eval_samples(pair.b, n_points)
    astar, bstar = np.conj(a), np.conj(b)
    one, zero = np.ones(n_points), np.zeros(n_points)
    L = [[1 / a, bstar / a], [zero, one]]
    U = [[1 / astar, zero], [-b / astar, one]]
    Lt = [[one, bstar / a], [zero, 1 / a]]
    Ut = [[one, zero], [-b / astar, 1 / astar]]
    L_inv = [[a, -bstar], [zero, one]]
    U_inv = [[astar, zero], [b, one]]
    Lt_inv = [[one, -bstar], [zero, a]]
    Ut_inv = [[one, zero], [b, astar]]
    half = n_points // 2 - 1
    # (T, input windows, output windows); None is an absent component
    lower = ((-k, -1), None), ((0, k), (-half, half))
    upper = ((0, k), (-k, k)), ((-k - 1, -1), None)
    split_in = ((0, k), (n - k, n)), (None, (n + 1, n + 1 + k))
    split_out = (None, (n + 1, n + 1 + k)), ((0, k), (n - k, n))
    probes = ([(T, *lower) for T in (L, L_inv, Lt, Lt_inv)]
              + [(T, *upper) for T in (U, U_inv, Ut, Ut_inv)]
              + [(Lt, *split_in), (Lt_inv, *split_in),
                 (Ut, *split_out), (Ut_inv, *split_out)])
    size = sum(2 * (w[1] - w[0] + 1)
               for _, ins, _ in probes for w in ins if w)
    draws = np.random.default_rng(seed).standard_normal((4, size))
    worst = 0.0
    for draw in draws:  # one round of all twelve probes
        at = 0
        for T, ins, outs in probes:
            in_sq, x = 0.0, []
            for w in ins:
                if w is None:
                    x.append(zero)
                    continue
                h = w[1] - w[0] + 1
                c = draw[at:at + h] + 1j * draw[at + h:at + 2 * h]
                at += 2 * h
                in_sq += np.sum(np.abs(c) ** 2)
                x.append(_eval_samples(CoefficientSequence(*w, c), n_points))
            out_sq = 0.0
            for row, out in zip(T, outs):
                if out is not None:
                    y = np.fft.fft(row[0] * x[0] + row[1] * x[1],
                                   norm="forward")
                    idx = np.arange(out[0], out[1] + 1) % n_points
                    out_sq += np.sum(np.abs(y[idx]) ** 2)
            worst = max(worst, math.sqrt(out_sq / in_sq))
    return worst


@pytest.mark.parametrize("pair, n_points", [
    (TWO_POINT_PAIR, None),
    # a*(0) = 0: the value of test_probes_catch_a_shifted_a
    (NlftPair(TWO_POINT_PAIR.a.shift(-1), TWO_POINT_PAIR.b, 0.0), None),
    (nlft_forward(LU_ALIASED), 128),  # 3.917e-10, aliased
    (nlft_forward(LU_ALIASED), 512),
    (nlft_forward(seq({40: 0.3, 41: 0.2})), None),  # n = 40
])
def test_lu_probes_match_their_definition(pair, n_points):
    rec = check_lu_factorization(pair, n_points)
    ref = _lu_probe_reference(pair, int(rec.detail.split("grid=")[1]))
    assert abs(rec.rhs - ref) <= 1e-14 * max(1.0, ref)


class TestOperatorChecks:
    def test_antisymmetry(self):
        rec = check_antisymmetry(TWO_POINT_PAIR, n_probes=20)
        assert rec.passed and rec.value < 1e-12

    def test_antisymmetry_detects_a_block_off_its_adjoint(self, monkeypatch):
        build = RhSystem.build

        def skewed(pair, n, n_points=None, bandwidth=None):
            sys = build(pair, n, n_points, bandwidth)
            return dataclasses.replace(
                sys, sym_bstar_over_a=1.01 * np.conj(sys.sym_b_over_astar))

        monkeypatch.setattr(RhSystem, "build", skewed)
        assert not check_antisymmetry(TWO_POINT_PAIR).passed

    def test_antisymmetry_takes_no_full_grid_transform(self, monkeypatch):
        lengths = _full_grid_transform_spy(monkeypatch, 1024)
        rec = check_antisymmetry(TWO_POINT_PAIR, n_points=1024)
        assert rec.passed
        # samples of a and b, and coefficients of the two block symbols
        assert len(lengths) == 4

    def test_round_trip_and_contraction(self):
        rt, contraction = check_round_trip(TWO_POINT, TWO_POINT_PAIR)
        assert rt.passed and rt.value < 1e-10
        assert contraction.passed and contraction.value <= 1e-12

    @pytest.mark.parametrize("norm, ok", [(0.5, True), (1 + 5e-13, True),
                                          (1 + 2e-12, False)])
    def test_contraction_rule_is_the_reports(self, norm, ok):
        records = [RhSolution(n=0, a=None, b=None, a_star_zero=norm,
                              tilde_a_star=None, tilde_b=None, residual=0.0,
                              solution_norm=norm, rhs_norm=1.0)]
        rec = check_contraction(records)
        assert rec.passed is ok
        assert InverseReport(0.0, records, 0.0).contraction_ok is ok
        # the value is clamped at 0: a solve below the bound reads 0
        assert rec.value == max(norm - 1.0, 0.0)


class TestDecayTable:
    def test_rows(self):
        rows = decay_table(TWO_POINT, TWO_POINT_PAIR)
        assert [r[0] for r in rows] == [0, 1]
        assert rows[0][1] == pytest.approx(0.5)
        assert rows[0][2] is None
        assert rows[1][2] > 0.5


class TestRunSuite:
    def test_forward_suite_passes(self):
        report = run_suite(F=TWO_POINT)
        assert report.overall_pass
        names = {r.name for r in report.records}
        assert {"determinant", "plancherel", "sinh_bound", "round_trip",
                "contraction", "antisymmetry", "lu_factorization"} <= names
        assert json.dumps(report.to_dict())  # serializable
        assert report.lines()[-1] == "overall: PASS"

    def test_needs_exactly_one_input(self):
        with pytest.raises(ValidationError):
            run_suite(F=TWO_POINT, b=TWO_POINT_PAIR.b)
        with pytest.raises(ValidationError):
            run_suite()

    def test_b_suite_round_trips(self):
        report = run_suite(b=TWO_POINT_PAIR.b, support_window=(0, 1))
        assert report.overall_pass
        rt = [r for r in report.records if r.name == "round_trip"]
        assert rt and rt[0].passed

    def test_b_suite_singular_input_errors(self):
        report = run_suite(b=SINGULAR_PAIR.b, support_window=(0, 1))
        assert not report.overall_pass
        assert any(r.kind == "error" for r in report.records)

    def test_forward_suite_boundary_instance(self):
        # a* vanishes at z = 1, so ratio-based checks degrade to error
        # records, but the exact identities still hold
        report = run_suite(F=SINGULAR)
        assert not report.overall_pass
        assert any(r.kind == "error" for r in report.records)
        for name in ("determinant", "plancherel"):
            rec = [r for r in report.records if r.name == name]
            assert rec and rec[0].passed

    def test_lu_marked_inapplicable_when_a_small(self):
        # single large entry: min |a| = (1 + 100)^{-1/2} < 0.1
        report = run_suite(F=seq({0: 10.0}))
        lu = [r for r in report.records if r.name == "lu_factorization"]
        assert lu[0].kind == "inapplicable"

    def test_metadata_reports_resolved_grid(self):
        assert run_suite(F=TWO_POINT).metadata["grid"] == default_grid_size(2)
        assert run_suite(F=TWO_POINT, n_points=64).metadata["grid"] == 64

    def test_decay_grid_at_the_cap_is_an_error_record(self, monkeypatch):
        def capped(*args, **kwargs):
            raise ConsistencyError("b/a* still folds on the largest grid")

        monkeypatch.setattr("su2nlft.verify._full_symbol_ratio", capped)
        report = run_suite(F=TWO_POINT)
        decay = [r for r in report.records if r.name == "decay"]
        assert decay[0].kind == "error" and not report.overall_pass
        assert "ConsistencyError" in decay[0].detail

    def test_vanishing_symbol_in_lu_check_is_an_error_record(self,
                                                            monkeypatch):
        def vanish(*args, **kwargs):
            raise VanishingSymbolError("min |a| = 0 on the grid")

        monkeypatch.setattr("su2nlft.verify.check_lu_factorization", vanish)
        report = run_suite(F=TWO_POINT)
        lu = [r for r in report.records if r.name == "lu_factorization"]
        assert lu[0].kind == "error" and not report.overall_pass


class TestSuiteForwardWork:
    """Each direction of ``run_suite`` runs one forward transform."""

    F = CoefficientSequence(-4, 7, 0.1 * np.cos(np.arange(12.0))
                            + 0.05j * np.sin(np.arange(12.0)))

    @pytest.fixture
    def products(self, monkeypatch):
        widths = []
        product = su2nlft.forward._product_arrays

        def spy(c, f):
            widths.append(f.size)
            return product(c, f)

        monkeypatch.setattr(su2nlft.forward, "_product_arrays", spy)
        return widths

    def test_forward_suite(self, products):
        assert run_suite(F=self.F).overall_pass
        assert products == [12]

    def test_b_suite(self, products):
        b = nlft_forward(self.F).b
        products.clear()
        report = run_suite(b=b, support_window=(-4, 7))
        assert report.overall_pass
        assert products == [12]
        rt = [r for r in report.records if r.name == "round_trip"]
        assert rt[0].passed and rt[0].value <= 1e-12


def _bench_ensemble():
    """The 100 items of the benchmark's ``verify-ensemble`` workload, seed 0."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.ensemble(np.random.default_rng(0), 100)


def test_ensemble_records_are_kept():
    """Every ``run_suite`` record of the ``verify-ensemble`` items at grid
    1024 keeps its name, kind, pass flag and value.

    ``data/verify_ensemble_seed0_records.json`` holds
    ``[name, kind, passed, value]`` per record, as written by commit
    454b31d, whose forward merges did not carry spectra and whose round
    trips ran the forward transform twice.  Forward rounding moves the
    rounding-level values (LU residuals near 5e-15) by up to 3.1e-15.
    """
    want = json.loads((Path(__file__).parent / "data"
                       / "verify_ensemble_seed0_records.json").read_text())
    items = _bench_ensemble()
    assert len(want) == len(items)
    for (lo, vals), records in zip(items, want):
        F = CoefficientSequence(lo, lo + len(vals) - 1, vals)
        got = run_suite(F=F, n_points=1024).records
        assert [[r.name, r.kind, r.passed] for r in got] == [
            rec[:3] for rec in records]
        for r, (*_, value) in zip(got, records):
            if value is None:
                assert r.value is None
            else:
                assert abs(r.value - value) <= 1e-14 * max(1.0, abs(value))


class TestRunPairChecks:
    def test_valid_pair(self):
        report = run_pair_checks(TWO_POINT_PAIR)
        assert report.overall_pass

    def test_metadata_reports_resolved_grid(self):
        report = run_pair_checks(TWO_POINT_PAIR)
        assert report.metadata["grid"] == default_grid_size(2)

    def test_tampered_pair(self):
        report = run_pair_checks(tampered_pair())
        assert not report.overall_pass


class TestGuardedRecords:
    """A check's ``NumericalError`` becomes that check's error record, and
    the other checks still run."""

    def test_any_numerical_error_in_antisymmetry_is_an_error_record(
            self, monkeypatch):
        def inconsistent(*args, **kwargs):
            raise ConsistencyError("the system misses its own identity")

        monkeypatch.setattr(su2nlft.verify, "check_antisymmetry", inconsistent)
        report = run_pair_checks(TWO_POINT_PAIR)
        assert [(r.name, r.kind) for r in report.records] == [
            ("determinant", "hard"), ("lu_factorization", "hard"),
            ("antisymmetry", "error")]
        anti = report.records[-1]
        assert anti.anchor == "rh_antisymmetry"
        assert anti.detail == (
            "ConsistencyError: the system misses its own identity")
        assert not report.overall_pass

    def test_baxter_error_records_name_their_weights(self, monkeypatch):
        def overflowed(*args):
            raise su2nlft.NumericalError("a weighted l1 norm overflows")

        monkeypatch.setattr(su2nlft.verify, "_baxter_record", overflowed)
        report = run_suite(F=TWO_POINT)
        baxter = [r for r in report.records if r.name == "quantitative_baxter"]
        assert [(r.kind, r.weight) for r in baxter] == [
            ("error", "one"), ("error", "poly:alpha=0.5"),
            ("error", "poly:alpha=1"), ("error", "poly:alpha=2")]
        assert report.records[-1].name == "contraction"

    def test_baxter_ratio_past_the_double_range_is_an_error_record(self):
        # ||F||_l1 eps / ||b/a||_A overflows for a tiny quotient norm
        F = CoefficientSequence(0, 1, np.array([1e307, 1e307]))
        pair = nlft_forward(seq({0: 0.1}))  # ||b||_A below 1/sqrt(2)
        tiny = CoefficientSequence.single(0, 1e-300)
        w = BeurlingWeight.one()
        records = su2nlft.verify._guarded(
            "quantitative_baxter", "quantitative_inverse_ratio",
            lambda: su2nlft.verify._baxter_record(F, pair, w, lambda: tiny),
            w)
        assert [(r.kind, r.weight) for r in records] == [("error", "one")]
        assert "beyond the double range" in records[0].detail

    def test_infinite_round_trip_residual_is_an_error_record(self,
                                                             monkeypatch):
        def far(*args):
            return math.inf

        monkeypatch.setattr(su2nlft.verify, "max_abs_difference", far)
        records = su2nlft.verify._guarded(
            "round_trip", "round_trip_recovery",
            lambda: su2nlft.verify.check_round_trip(TWO_POINT,
                                                    TWO_POINT_PAIR))
        assert [(r.name, r.kind) for r in records] == [("round_trip", "error")]
        assert records[0].detail == (
            "NumericalError: round-trip residual inf is not finite")

    def test_failed_ratio_is_resolved_once(self, monkeypatch):
        # b/a* folds on every grid up to 2^18; the LU record repeats the
        # decay record's failure instead of doubling the grid again
        calls = []
        samples = su2nlft.spectral._symbol_samples

        def spy(pair, n_points, start):
            calls.append(n_points)
            return samples(pair, n_points, start)

        monkeypatch.setattr(su2nlft.spectral, "_symbol_samples", spy)
        report = run_suite(F=seq({0: 1e200, 1: 0.5}))
        assert calls == [None]
        records = {r.name: r for r in report.records}
        detail = ("ConsistencyError: coefficients of b/a* folded by the grid: "
                  "error 2.000e+00 > 1.0e-13 on 262144 points, the largest "
                  "grid allowed")
        assert records["decay"].detail == detail
        lu = records["lu_factorization"]
        assert (lu.kind, lu.anchor, lu.detail) == (
            "error", "lu_factorization_identity", detail)

    def test_a_nan_value_fails_a_hard_record(self):
        rec = su2nlft.verify._hard_record("x", "x_identity", 0.0, 0.0,
                                          math.nan, 1.0)
        assert rec.kind == "hard" and rec.passed is False


class TestDecayBeyondTheDoubleRange:
    """Decay terms past the largest double raise ``NumericalError``, which
    the suite records as its ``decay`` error record."""

    def test_entry_beyond_the_double_range(self):
        # |F_1| overflows; abs() of it raised OverflowError
        F = seq({0: 0.1, 1: 1.5e308 + 1.5e308j})
        with pytest.raises(su2nlft.NumericalError, match=r"\|F_n\|"):
            decay_table(F, nlft_forward(F, 16), 16)

    @pytest.mark.parametrize("entries", [
        {-3: 1e308, -2: 1e100},  # |F_-3| 3^s overflows
        {0: 1e200, 1: 1e200},  # a*(0) underflows to 0
    ])
    def test_fractional_ratio_beyond_the_double_range(self, entries):
        F = seq(entries)
        pair = nlft_forward(F, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(su2nlft.NumericalError, match="order-1"):
                check_decay_fractional(F, pair, 1.0, 16)
            report = run_suite(F=F, n_points=16)
        decay = [r for r in report.records if r.name.startswith("decay")]
        assert [(r.name, r.kind) for r in decay] == [("decay", "error")]
