"""Grids of the checks that read ``b/a*`` or ``b/a``: the fold rule."""

import inspect

import pytest

from su2nlft import (
    BeurlingWeight,
    CoefficientSequence,
    ConsistencyError,
    RhSystem,
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
    first_certified_index,
    grid_quotient,
    layer_strip,
    layer_strip_detailed,
    nlft_forward,
    run_pair_checks,
    reflect_pair,
    run_suite,
    solvability_certificate,
    weighted_l1_norm,
)
from su2nlft import inverse, spectral, verify
from su2nlft.cli import main, pair_to_json, sequence_to_json


def seq(entries):
    return CoefficientSequence.from_dict(entries)


# the LU check fails on the 4x pair grid (3.9e-10 on 128 points) and
# passes on the grid where b/a* stops folding (5.7e-14 on 512 points)
LU_ALIASED = seq({-3: -0.2446637853716387 + 0.8247500363507834j,
                  -2: -0.5278940521895357 + 0.7849135161576277j})
DECAY = seq({0: -1.1614 - 0.8551j, 1: -0.618 - 0.1709j})
WEIGHTS = [BeurlingWeight.one(), BeurlingWeight.polynomial(1.0)]
# ||b||_{A_w} below 1/sqrt(2) for both weights: the Baxter ratio applies
SMALL = [seq({-1: 0.1, 0: 0.05j, 2: -0.04}), seq({0: 0.2, 1: 0.15})]


def lu_record(report):
    (rec,) = [r for r in report.records if r.name == "lu_factorization"]
    return rec


class TestLuInTheSuites:
    def test_suites_run_lu_on_the_fold_grid(self):
        for report in (run_suite(LU_ALIASED),
                       run_pair_checks(nlft_forward(LU_ALIASED))):
            rec = lu_record(report)
            assert rec.passed and rec.value <= 1e-13
            assert rec.detail.endswith("grid=512")
            assert report.overall_pass

    def test_cli_verify_exits_zero(self, tmp_path):
        seq_path = tmp_path / "f.json"
        seq_path.write_text(sequence_to_json(LU_ALIASED))
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(pair_to_json(nlft_forward(LU_ALIASED)))
        for path in (seq_path, pair_path):
            assert main(["verify", "--input", str(path),
                         "--out", str(tmp_path / "r.json")]) == 0

    def test_given_grid_is_kept(self):
        rec = lu_record(run_pair_checks(nlft_forward(LU_ALIASED), 128))
        assert rec.detail.endswith("grid=128") and not rec.passed

    def test_short_pair_keeps_the_probe_windows(self):
        # b/a* stops folding on 16 points, where the probes of k = 8
        # indices around n = 3 do not fit (4 k + 2 |n| = 38)
        pair = nlft_forward(seq({3: 0.3}))
        assert verify._ratio_grid(pair) == 16
        for report in (run_suite(seq({3: 0.3})), run_pair_checks(pair)):
            rec = lu_record(report)
            assert rec.passed and int(rec.detail.split("grid=")[1]) >= 64

    def test_probe_grid_does_not_grow_with_the_truncation(self):
        # the split probe windows sit at 0, not at n = 10**5, so a
        # width-1 input needs no grid of 2 |n| points
        report = run_suite(CoefficientSequence.single(10**5, 0.1))
        rec = lu_record(report)
        assert report.overall_pass and rec.passed
        assert int(rec.detail.split("grid=")[1]) <= 64

    def test_numerical_error_becomes_an_error_record(self, monkeypatch):
        def capped(pair):
            raise ConsistencyError("largest grid allowed")

        monkeypatch.setattr(verify, "_ratio_grid", capped)
        rec = lu_record(run_pair_checks(nlft_forward(LU_ALIASED)))
        assert rec.kind == "error" and "ConsistencyError" in rec.detail


class TestRatioGrids:
    def test_certificate_resolves_the_decay_reproducer(self):
        pair = nlft_forward(DECAY)
        one = BeurlingWeight.one()
        got = solvability_certificate(pair, 0, one)
        ref = solvability_certificate(pair, 0, one, n_points=2 ** 16)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_solver_grid_of_the_decay_reproducer(self):
        assert RhSystem.build(nlft_forward(DECAY), 1).n_points == 1024

    def test_scan_resolves_one_grid(self, monkeypatch):
        pair = nlft_forward(DECAY)
        calls = []

        def counted(p):
            calls.append(p)
            return 1024

        monkeypatch.setattr(inverse, "_ratio_grid", counted)
        for w in WEIGHTS:
            n0 = first_certified_index(pair, w)
            scan = [n for n in range(-1, 2)
                    if solvability_certificate(pair, n, w, 1024) < 0.5]
            assert n0 == scan[0]
        assert len(calls) == len(WEIGHTS)

    @pytest.mark.parametrize("F", SMALL)
    def test_baxter_reads_b_over_a_by_reflection(self, F):
        pair = nlft_forward(F)
        n = 1024
        hi = pair.b.support_hi
        for w in WEIGHTS:
            rec = check_quantitative_baxter(F, pair, w, n_points=n)
            assert rec.kind == "monitored"
            quot = grid_quotient(pair.b, pair.a, n, (hi - (n - 2), hi))
            assert rec.rhs == pytest.approx(weighted_l1_norm(quot, w),
                                            rel=1e-12)
            # the default grid doubles until b/a stops folding
            assert check_quantitative_baxter(F, pair, w).value \
                == pytest.approx(rec.value, rel=1e-9)


@pytest.mark.parametrize("func, name", [
    (check_determinant, "tol"), (check_plancherel, "tol"),
    (check_sinh_bound, "tol"), (check_decay_first_order, "tol"),
    (check_lu_factorization, "tol"), (check_antisymmetry, "tol"),
    (check_contraction, "tol"), (check_quantitative_baxter, "epsilon"),
    (run_suite, "sobolev_orders"), (first_certified_index, "n_points"),
    (first_certified_index, "search_window"), (layer_strip, "n_points"),
    (layer_strip_detailed, "n_points"), (check_round_trip, "n_points"),
])
def test_fixed_settings_are_not_parameters(func, name):
    assert name not in inspect.signature(func).parameters


@pytest.mark.parametrize("func", [check_sinh_bound, check_round_trip])
def test_pair_is_required(func):
    param = inspect.signature(func).parameters["pair"]
    assert param.default is inspect.Parameter.empty


def test_suite_echoes_the_sobolev_orders():
    report = run_suite(seq({0: 0.5, 1: 0.5}))
    assert report.metadata["sobolev_orders"] == [1.0, 1.5, 2.0]
    assert [r.name for r in report.records
            if r.name.startswith("decay_fractional")] == [
        "decay_fractional_s1", "decay_fractional_s1.5", "decay_fractional_s2"]


def test_decay_table_requires_the_pair():
    param = inspect.signature(decay_table).parameters["pair"]
    assert param.default is inspect.Parameter.empty


class TestOneRatioPerSuite:
    @pytest.mark.parametrize("n_points", [None, 1024])
    def test_suite_builds_each_ratio_once(self, monkeypatch, n_points):
        F = SMALL[0]
        pair = nlft_forward(F, n_points)
        built = []
        original = spectral._full_symbol_ratio

        def spy(p, *args, **kwargs):
            built.append((p.b.support_lo, p.b.support_hi))
            return original(p, *args, **kwargs)

        for module in (spectral, verify):
            monkeypatch.setattr(module, "_full_symbol_ratio", spy)
        report = run_suite(F, n_points=n_points)
        assert any(r.name == "quantitative_baxter" and r.kind == "monitored"
                   for r in report.records)
        mirrored = reflect_pair(pair).b
        assert sorted(built) == sorted([
            (pair.b.support_lo, pair.b.support_hi),
            (mirrored.support_lo, mirrored.support_hi)])

    @pytest.mark.parametrize("F", [seq({0: 0.5, 1: 0.5}), DECAY, LU_ALIASED,
                                   SMALL[1]])
    @pytest.mark.parametrize("n_points", [None, 1024])
    def test_suite_records_match_the_public_checks(self, F, n_points):
        report = run_suite(F, n_points=n_points)
        pair = nlft_forward(F, n_points)
        weights = [BeurlingWeight.from_descriptor(d)
                   for d in report.metadata["weights"]]
        expected = (
            [check_decay_first_order(F, pair, n_points)]
            + [check_decay_fractional(F, pair, s, n_points)
               for s in report.metadata["sobolev_orders"]]
            + [check_quantitative_baxter(F, pair, w, n_points)
               for w in weights])
        got = [r for r in report.records
               if r.name.startswith("decay") or r.name == "quantitative_baxter"]
        assert got == expected
