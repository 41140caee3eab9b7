import contextlib
import csv
import functools
import io
import json
import math
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import su2nlft.core
import su2nlft.verify
from su2nlft import (
    CoefficientSequence,
    NlftPair,
    NumericalError,
    a_star_at_zero,
    layer_strip,
    max_abs_difference,
    nlft_forward,
    star_reflect,
)
from su2nlft import inverse
from su2nlft.cli import (
    MAX_GRID_SIZE,
    MAX_WINDOW_WIDTH,
    Config,
    load_pair,
    load_sequence,
    main,
    pair_to_json,
    sequence_to_json,
)


def write_seq(path, entries):
    path.write_text(sequence_to_json(CoefficientSequence.from_dict(entries)))
    return str(path)


def write_pair(path, F, n_points=None):
    pair = nlft_forward(CoefficientSequence.from_dict(F), n_points)
    path.write_text(pair_to_json(pair))
    return str(path), pair


TWO_POINT = {0: 0.5, 1: 0.5}


class TestForward:
    def test_file_output_round_trips_bit_identically(self, tmp_path):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        out = tmp_path / "pair.json"
        assert main(["forward", "--input", inp, "--out", str(out)]) == 0
        text = out.read_text()
        again = pair_to_json(load_pair(str(out)))
        assert again.strip() == text.strip()
        pair = load_pair(str(out))
        assert np.array_equal(
            pair.b.coeffs,
            nlft_forward(CoefficientSequence.from_dict(TWO_POINT)).b.coeffs,
        )

    def test_stdout_mode(self, tmp_path, capsys):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["forward", "--input", inp]) == 0
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert set(obj) == {"a", "b", "grid_residual"}
        assert "a_star_zero" in captured.err

    def test_diagnostics_on_stdout_when_writing_file(self, tmp_path, capsys):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        out = tmp_path / "pair.json"
        main(["forward", "--input", inp, "--out", str(out)])
        captured = capsys.readouterr()
        assert "determinant_residual" in captured.out

    def test_grid_override(self, tmp_path):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["forward", "--input", inp, "--out",
                     str(tmp_path / "p.json"), "--grid", "64"]) == 0

    def test_bad_grid_rejected(self, tmp_path):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["forward", "--input", inp, "--grid", "37"]) == 1


class TestInputValidation:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["forward", "--input", str(bad)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["forward", "--input", str(tmp_path / "nope.json")]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"support": [0, 0], "coeffs": [[0.5, 0.0]], "extra": 1}')
        assert main(["forward", "--input", str(f)]) == 1

    def test_length_mismatch_rejected(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"support": [0, 1], "coeffs": [[0.5, 0.0]]}')
        assert main(["forward", "--input", str(f)]) == 1

    def test_unknown_flag_exits_one(self, tmp_path):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        with pytest.raises(SystemExit) as exc:
            main(["forward", "--input", inp, "--bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_support_string(self, tmp_path):
        b = write_seq(tmp_path / "b.json", {0: 0.3})
        assert main(["inverse", "--b", b, "--support", "0..x"]) == 1

    def test_inverse_requires_support(self, tmp_path):
        b = write_seq(tmp_path / "b.json", {0: 0.3})
        assert main(["inverse", "--b", b]) == 1


class TestInverse:
    def test_round_trip_from_b(self, tmp_path):
        pair = nlft_forward(CoefficientSequence.from_dict(TWO_POINT))
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(pair.b))
        out = tmp_path / "rec.json"
        code = main(["inverse", "--b", str(b), "--support", "0..1",
                     "--out", str(out)])
        assert code == 0
        rec = load_sequence(str(out))
        assert rec.support_lo == 0 and rec.support_hi == 1
        assert np.max(np.abs(rec.coeffs - [0.5, 0.5])) < 1e-10

    def test_support_below_zero_as_separate_token(self, tmp_path):
        F = {-1: 0.3, 0: 0.2, 1: 0.25}
        pair = nlft_forward(CoefficientSequence.from_dict(F))
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(pair.b))
        out = tmp_path / "rec.json"
        assert main(["inverse", "--b", str(b), "--support", "-1..1",
                     "--out", str(out)]) == 0
        rec = load_sequence(str(out))
        assert rec.support_lo == -1 and rec.support_hi == 1
        assert np.max(np.abs(rec.coeffs - [0.3, 0.2, 0.25])) < 1e-10

    def test_singular_b_exits_two(self, tmp_path):
        # |b| reaches 1 on the circle: no Szego margin, not invertible
        b = write_seq(tmp_path / "b.json", {0: 0.5, 1: 0.5})
        assert main(["inverse", "--b", b, "--support", "0..1"]) == 2

    def test_supplied_a_is_used(self, tmp_path):
        pair = nlft_forward(CoefficientSequence.from_dict(TWO_POINT))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(sequence_to_json(pair.a))
        b.write_text(sequence_to_json(pair.b))
        out = tmp_path / "rec.json"
        assert main(["inverse", "--b", str(b), "--a", str(a),
                     "--support", "0..1", "--out", str(out)]) == 0
        rec = load_sequence(str(out))
        assert np.max(np.abs(rec.coeffs - [0.5, 0.5])) < 1e-10

    def test_supplied_a_round_trip_samples_no_grid(self, tmp_path,
                                                   monkeypatch):
        # |a|^2 + |b|^2 is sampled once, to check the supplied pair; the
        # round trip compares coefficients of b and reads no grid
        sampled = []
        power_samples = su2nlft.core._power_samples

        def spy(seqs, n_points):
            sampled.append(n_points)
            return power_samples(seqs, n_points)

        pair = nlft_forward(CoefficientSequence.from_dict(TWO_POINT))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(sequence_to_json(pair.a))
        b.write_text(sequence_to_json(pair.b))
        monkeypatch.setattr(su2nlft.core, "_power_samples", spy)
        assert main(["inverse", "--b", str(b), "--a", str(a),
                     "--support", "0..1"]) == 0
        assert len(sampled) == 1

    def test_tampered_a_exits_two(self, tmp_path):
        pair = nlft_forward(CoefficientSequence.from_dict(TWO_POINT))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(sequence_to_json(pair.a.scale(1.1)))
        b.write_text(sequence_to_json(pair.b))
        assert main(["inverse", "--b", str(b), "--a", str(a),
                     "--support", "0..1"]) == 2

    def test_imaginary_flag_rejects_real_data(self, tmp_path):
        pair = nlft_forward(CoefficientSequence.from_dict(TWO_POINT))
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(pair.b))
        out = tmp_path / "rec.json"
        code = main(["inverse", "--b", str(b), "--support", "0..1",
                     "--imaginary", "--out", str(out)])
        assert code == 2
        # the recovery itself succeeded and was written before the check
        assert out.exists()
        rec = load_sequence(str(out))
        assert rec.support_lo == 0 and rec.support_hi == 1

    def test_imaginary_flag_accepts_imaginary_data(self, tmp_path):
        F = CoefficientSequence.from_dict({0: 0.3j, 1: -0.2j})
        pair = nlft_forward(F)
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(pair.b))
        assert main(["inverse", "--b", str(b), "--support", "0..1",
                     "--imaginary"]) == 0

    def test_convergence_csv(self, tmp_path):
        pair = nlft_forward(CoefficientSequence.from_dict(TWO_POINT))
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(pair.b))
        csv_path = tmp_path / "conv.csv"
        main(["inverse", "--b", str(b), "--support", "0..1",
              "--out", str(tmp_path / "rec.json"), "--csv", str(csv_path)])
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "solver_residual", "solution_norm", "rhs_norm"]
        assert {r[0] for r in rows[1:]} == {"0", "1"}
        for r in rows[1:]:
            assert float(r[1]) < 1e-10
            assert float(r[2]) > 0 and float(r[3]) > 0

    def test_convergence_csv_indexes_negative_truncations(self, tmp_path):
        F = CoefficientSequence.from_dict({-1: 0.3, 0: -0.2 + 0.1j, 1: 0.25j})
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(nlft_forward(F).b))
        csv_path = tmp_path / "conv.csv"
        assert main(["inverse", "--b", str(b), "--support=-1..1",
                     "--out", str(tmp_path / "rec.json"),
                     "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [-1, 0, 1]
        for r in rows:
            want = a_star_at_zero(F.restrict(-1, int(r["n"])))
            assert abs(float(r["solution_norm"]) - want) <= 1e-12

    def test_supplied_a_with_zero_in_disk_exits_two(self, tmp_path, capsys):
        # a*(z) is proportional to 1 - 4z: stripping would answer wrongly
        pair = nlft_forward(CoefficientSequence.from_dict({0: 2.0, 1: 2.0}))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(sequence_to_json(pair.a))
        b.write_text(sequence_to_json(pair.b))
        assert main(["inverse", "--b", str(b), "--a", str(a),
                     "--support", "0..1"]) == 2
        assert "winds" in capsys.readouterr().err

    def test_supplied_a_beyond_the_old_grid_cap_strips(self, tmp_path):
        # a* has a zero at |z| = 1.00043: b/a* needs more than 2^18 grid
        # points, but stripping reads it as a power series
        F = {0: 1.1654 - 0.4929j, 1: -0.6748 - 0.4107j}
        pair = nlft_forward(CoefficientSequence.from_dict(F))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        out = tmp_path / "F.json"
        a.write_text(sequence_to_json(pair.a))
        b.write_text(sequence_to_json(pair.b))
        assert main(["inverse", "--b", str(b), "--a", str(a),
                     "--support", "0..1", "--out", str(out)]) == 0
        assert max_abs_difference(load_sequence(str(out)),
                                  CoefficientSequence.from_dict(F)) <= 1e-10

    @pytest.mark.parametrize("with_a", [False, True])
    def test_missed_round_trip_exits_two(self, tmp_path, capsys, with_a):
        # the window drops F_1, so forward(F) cannot reproduce b
        pair = nlft_forward(CoefficientSequence.from_dict(TWO_POINT))
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(pair.b))
        argv = ["inverse", "--b", str(b), "--support", "0..0"]
        if with_a:
            a = tmp_path / "a.json"
            a.write_text(sequence_to_json(pair.a))
            argv += ["--a", str(a)]
        assert main(argv) == 2
        assert "round trip missed" in capsys.readouterr().err

    def test_supplied_a_with_zero_near_circle_exits_two(self, tmp_path,
                                                        capsys):
        # a* has a zero at |z| = 0.99924, inside the disk
        rng = np.random.default_rng(6)
        vals = 0.5 * (rng.standard_normal(256)
                      + 1j * rng.standard_normal(256)) / 16.0
        pair = nlft_forward(CoefficientSequence(-128, 127, vals))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(sequence_to_json(pair.a))
        b.write_text(sequence_to_json(pair.b))
        assert main(["inverse", "--b", str(b), "--a", str(a),
                     "--support=-128..127"]) == 2
        assert "winds 1 times" in capsys.readouterr().err

    def test_stripping_failure_exits_two(self, tmp_path, monkeypatch,
                                         capsys):
        def broken(c):
            return np.full(c.size, np.nan), np.full(c.size, np.nan + 0j)

        pair = nlft_forward(CoefficientSequence.from_dict(TWO_POINT))
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(pair.b))
        monkeypatch.setattr(inverse, "_schur_pass", broken)
        assert main(["inverse", "--b", str(b), "--support", "0..1"]) == 2
        assert "numerical failure" in capsys.readouterr().err


class TestVerify:
    def test_sequence_input_passes(self, tmp_path, capsys):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        out = tmp_path / "report.json"
        assert main(["verify", "--input", inp, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["overall_pass"] is True
        assert any(r["name"] == "round_trip" for r in report["records"])
        assert "overall: PASS" in capsys.readouterr().err

    def test_pair_input(self, tmp_path):
        path, _ = write_pair(tmp_path / "pair.json", TWO_POINT)
        assert main(["verify", "--input", path, "--out",
                     str(tmp_path / "r.json")]) == 0

    def test_tampered_pair_fails(self, tmp_path):
        pair = nlft_forward(CoefficientSequence.from_dict(TWO_POINT))
        bad = tmp_path / "pair.json"
        bad.write_text(pair_to_json(
            type(pair)(pair.a.scale(1.1), pair.b, 0.0)))
        assert main(["verify", "--input", str(bad), "--out",
                     str(tmp_path / "r.json")]) == 2

    def test_b_input_singular_fails(self, tmp_path):
        b = write_seq(tmp_path / "b.json", {0: 0.5, 1: 0.5})
        out = tmp_path / "r.json"
        code = main(["verify", "--b", b, "--support", "0..1",
                     "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert any(r["kind"] == "error" for r in report["records"])

    def test_b_input_recovers_and_passes(self, tmp_path):
        pair = nlft_forward(CoefficientSequence.from_dict({0: 0.4, 1: 0.4}))
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(pair.b))
        assert main(["verify", "--b", str(b), "--support", "0..1",
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_support_below_zero_as_separate_token(self, tmp_path):
        pair = nlft_forward(CoefficientSequence.from_dict({-1: 0.3, 0: 0.2}))
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(pair.b))
        out = tmp_path / "r.json"
        assert main(["verify", "--b", str(b), "--support", "-1..0",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["metadata"]["support"] == [-1, 0]

    def test_decay_csv(self, tmp_path):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        csv_path = tmp_path / "decay.csv"
        main(["verify", "--input", inp, "--out", str(tmp_path / "r.json"),
              "--csv", str(csv_path)])
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "abs_F_n", "first_order_rhs"]
        assert rows[1][0] == "0" and rows[1][2] == ""
        assert float(rows[2][2]) > float(rows[2][1])

    def test_decay_csv_reads_the_suite_pair_and_ratio(self, tmp_path,
                                                       monkeypatch):
        import su2nlft.cli as cli
        pairs, ratios = [], []
        forward = su2nlft.verify.nlft_forward
        full_ratio = su2nlft.verify._full_symbol_ratio

        def forward_spy(F, n_points=None):
            pairs.append(forward(F, n_points))
            return pairs[-1]

        def ratio_spy(pair, n_points=None):
            ratios.append(pair)
            return full_ratio(pair, n_points)

        monkeypatch.setattr(cli, "nlft_forward", forward_spy)
        monkeypatch.setattr(su2nlft.verify, "nlft_forward", forward_spy)
        monkeypatch.setattr(su2nlft.verify, "_full_symbol_ratio", ratio_spy)
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        csv_path = tmp_path / "decay.csv"
        assert main(["verify", "--input", inp, "--out", str(tmp_path / "r.json"),
                     "--csv", str(csv_path)]) == 0
        # one forward pair; one b/a* of it (the Baxter ratios read the
        # reflected pair)
        assert len(pairs) == 1
        assert sum(pair is pairs[0] for pair in ratios) == 1
        F = CoefficientSequence.from_dict(TWO_POINT)
        expected = [["n", "abs_F_n", "first_order_rhs"]] + [
            [str(n), f"{mag:.17g}", "" if rhs is None else f"{rhs:.17g}"]
            for n, mag, rhs in su2nlft.decay_table(F, nlft_forward(F))]
        with open(csv_path, newline="") as fh:
            assert list(csv.reader(fh)) == expected

    def test_decay_csv_without_a_ratio_exits_2(self, tmp_path, monkeypatch):
        def unfolded(pair, n_points=None):
            raise su2nlft.ConsistencyError("b/a* folds on every grid")

        monkeypatch.setattr(su2nlft.verify, "_full_symbol_ratio", unfolded)
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        csv_path = tmp_path / "decay.csv"
        assert main(["verify", "--input", inp, "--out", str(tmp_path / "r.json"),
                     "--csv", str(csv_path)]) == 2
        with open(csv_path, newline="") as fh:
            assert list(csv.reader(fh)) == [["n", "abs_F_n", "first_order_rhs"]]

    def test_plancherel_sum_of_a_huge_entry_is_finite(self, tmp_path):
        # log1p(|F|^2) overflowed from |F| ~ 1.3e154; the record is finite,
        # fails, and the run exits 2 without a warning
        inp = tmp_path / "f.json"
        inp.write_text('{"support": [0, 1], "coeffs": [[1e200, 0], [0.5, 0]]}')
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--input", str(inp), "--out", str(out)]) == 2

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        records = json.loads(out.read_text(), parse_constant=reject)["records"]
        rec = next(r for r in records if r["name"] == "plancherel")
        assert rec["lhs"] == pytest.approx(400 * math.log(10) + math.log(1.25),
                                           rel=1e-15)
        assert rec["passed"] is False

    def test_overflowing_weighted_norm_gives_error_records(self, tmp_path,
                                                            capsys):
        # ||F||_l1_w overflows for every weight; the sinh records become
        # error records and the report is still written
        inp = tmp_path / "f.json"
        inp.write_text('{"support": [0, 0], "coeffs": [[1.5e308, 1.5e308]]}')
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--input", str(inp), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "overall: FAIL" in err
        sinh = [r for r in json.loads(out.read_text())["records"]
                if r["name"] == "sinh_bound"]
        assert [(r["kind"], r["weight"]) for r in sinh] == [
            ("error", "one"), ("error", "poly:alpha=0.5"),
            ("error", "poly:alpha=1"), ("error", "poly:alpha=2")]
        assert all("beyond the double range" in r["detail"] for r in sinh)

    def test_entry_past_the_double_range_writes_strict_json(self, tmp_path,
                                                             capsys):
        # |F_-1| overflows np.abs: plancherel reads log|F| from the larger
        # part, and the infinite round-trip residual is an error record
        inp = tmp_path / "f.json"
        inp.write_text('{"support": [-2, 1], "coeffs": [[0.1, 0], '
                       '[1.7e308, 1.7e308], [0.2, 0.1], [0.3, 0]]}')
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--input", str(inp), "--grid", "16",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "overall: FAIL" in err

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        records = {r["name"]: r for r in json.loads(
            out.read_text(), parse_constant=reject)["records"]}
        plancherel = records["plancherel"]
        assert plancherel["lhs"] == pytest.approx(
            2 * (np.log(1.7e308) + 0.5 * np.log(2.0)), rel=1e-3)
        assert plancherel["passed"] is False
        assert records["round_trip"]["kind"] == "error"
        assert "not finite" in records["round_trip"]["detail"]

    def test_decay_csv_needs_sequence(self, tmp_path):
        path, _ = write_pair(tmp_path / "pair.json", TWO_POINT)
        assert main(["verify", "--input", path,
                     "--csv", str(tmp_path / "d.csv")]) == 1

    def test_weight_restriction(self, tmp_path):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        out = tmp_path / "r.json"
        assert main(["verify", "--input", inp, "--weight", "poly:alpha=1.0",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        sinh = [r for r in report["records"] if r["name"] == "sinh_bound"]
        assert len(sinh) == 1
        assert sinh[0]["weight"] == "poly:alpha=1"

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_weight_exits_1(self, tmp_path, alpha):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        out = tmp_path / "r.json"
        assert main(["verify", "--input", inp, "--weight",
                     f"poly:alpha={alpha}", "--out", str(out)]) == 1
        assert not out.exists()

    def test_seed_flag(self, tmp_path):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["verify", "--input", inp, "--seed", "3",
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_needs_exactly_one_input(self, tmp_path):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["verify", "--input", inp, "--b", inp]) == 1
        assert main(["verify"]) == 1

    def test_decay_csv_of_b_rejected_before_any_check(self, tmp_path, capsys):
        pair = nlft_forward(CoefficientSequence.from_dict(TWO_POINT))
        b = write_seq(tmp_path / "b.json", pair.b.to_dict())
        out, csv_path = tmp_path / "r.json", tmp_path / "d.csv"
        assert main(["verify", "--b", b, "--support", "0..1", "--out", str(out),
                     "--csv", str(csv_path)]) == 1
        assert not out.exists() and not csv_path.exists()
        captured = capsys.readouterr()
        assert "--csv needs a sequence input" in captured.err
        assert "overall" not in captured.err

    def test_decay_csv_of_pair_rejected_before_any_check(self, tmp_path):
        path, _ = write_pair(tmp_path / "pair.json", TWO_POINT)
        out = tmp_path / "r.json"
        assert main(["verify", "--input", path, "--out", str(out),
                     "--csv", str(tmp_path / "d.csv")]) == 1
        assert not out.exists()


def readme_cli_lines():
    """The ``su2nlft`` command lines of the ``sh`` block under ``## CLI``
    in the README, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("su2nlft ")]


class TestReadmeExamples:
    # a purely imaginary F on [0, 6], so that --imaginary holds, small
    # enough for every hard check of the suite to pass
    F = {k: 0.05j * (k + 1) * (-1) ** k for k in range(7)}

    def test_every_example_exits_zero(self, tmp_path, monkeypatch, capsys):
        lines = readme_cli_lines()
        assert {shlex.split(line)[1] for line in lines} == {
            "forward", "inverse", "verify", "norms"}
        pair = nlft_forward(CoefficientSequence.from_dict(self.F))
        write_seq(tmp_path / "F.json", self.F)
        (tmp_path / "a.json").write_text(sequence_to_json(pair.a))
        (tmp_path / "b.json").write_text(sequence_to_json(pair.b))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NLFT_CONFIG", raising=False)
        for line in lines:
            code = main(shlex.split(line)[1:])
            assert code == 0, (line, capsys.readouterr().err)


class TestNorms:
    def test_values(self, tmp_path, capsys):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["norms", "--input", inp]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["support"] == [0, 1]
        assert obj["l2"] == pytest.approx(math.sqrt(0.5))
        assert obj["weighted_l1"]["one"] == pytest.approx(1.0)
        assert obj["weighted_l1"]["poly:alpha=1.0"] == pytest.approx(1.5)
        assert set(obj["sobolev"]) == {"1", "1.5", "2"}

    def test_default_weights(self, tmp_path, capsys):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["norms", "--input", inp]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert list(obj["weighted_l1"]) == [
            "one", "poly:alpha=0.5", "poly:alpha=1.0", "poly:alpha=2.0"]
        assert list(obj["sobolev"]) == ["1", "1.5", "2"]

    def test_huge_coefficient_norms_are_finite(self, tmp_path, capsys):
        inp = tmp_path / "f.json"
        inp.write_text('{"support": [0, 0], "coeffs": [[1e200, 0]]}')
        assert main(["norms", "--input", str(inp)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        obj = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert obj["l2"] == 1e200
        assert obj["sobolev"] == {"1": 1e200, "1.5": 1e200, "2": 1e200}

    @pytest.mark.parametrize("text", [
        # |c| itself is past the double range
        '{"support": [0, 0], "coeffs": [[1.5e308, 1.5e308]]}',
        # |c| and the l2 norm are doubles, the weighted l1 norms are not
        '{"support": [0, 1], "coeffs": [[1e308, 0], [1e308, 0]]}',
    ])
    def test_norm_past_the_double_range_exits_2(self, tmp_path, capsys,
                                                text):
        inp = tmp_path / "f.json"
        inp.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["norms", "--input", str(inp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "double range" in captured.err

    def test_extra_weight(self, tmp_path, capsys):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["norms", "--input", inp,
                     "--weight", "poly:alpha=3.0"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert "poly:alpha=3.0" in obj["weighted_l1"]

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_weight_exits_1(self, tmp_path, capsys, alpha):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["norms", "--input", inp,
                     "--weight", f"poly:alpha={alpha}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite alpha" in captured.err


class TestEnvConfig:
    def test_valid_config_applies(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid_size": 64, "seed": 7}')
        monkeypatch.setenv("NLFT_CONFIG", str(cfg))
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["forward", "--input", inp,
                     "--out", str(tmp_path / "p.json")]) == 0

    def test_unknown_config_key(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid": 64}')
        monkeypatch.setenv("NLFT_CONFIG", str(cfg))
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["forward", "--input", inp]) == 1

    def test_bad_config_json(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("nope")
        monkeypatch.setenv("NLFT_CONFIG", str(cfg))
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["forward", "--input", inp]) == 1

    def test_flag_overrides_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid_size": 8}')
        monkeypatch.setenv("NLFT_CONFIG", str(cfg))
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["forward", "--input", inp, "--grid", "256",
                     "--out", str(tmp_path / "p.json")]) == 0

    def test_short_window_rejected(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"window": [1]}')
        monkeypatch.setenv("NLFT_CONFIG", str(cfg))
        b = write_seq(tmp_path / "b.json", {0: 0.3})
        assert main(["inverse", "--b", b]) == 1

    @pytest.mark.parametrize("text", ['{"solver_tol": "x"}', '{"seed": -1}',
                                      '{"weight": 5}',
                                      '{"szego_margin": NaN}',
                                      '{"round_trip_tol": NaN}',
                                      '{"solver_tol": Infinity}'])
    def test_bad_config_value_rejected(self, tmp_path, monkeypatch, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        monkeypatch.setenv("NLFT_CONFIG", str(cfg))
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["verify", "--input", inp]) == 1

    def test_nan_tol_rejected(self, tmp_path, capsys):
        b = write_seq(tmp_path / "b.json", TWO_POINT)
        assert main(["inverse", "--b", b, "--support", "0..1",
                     "--tol", "nan"]) == 1
        assert "positive finite" in capsys.readouterr().err


class TestSizeCaps:
    # each case would allocate terabytes if it got past validation
    def test_huge_grid_flag_rejected(self, tmp_path, capsys):
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["forward", "--input", inp, "--grid", str(2**40)]) == 1
        assert "exceeds the cap" in capsys.readouterr().err

    def test_huge_config_grid_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"grid_size": {2**40}}}')
        monkeypatch.setenv("NLFT_CONFIG", str(cfg))
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        assert main(["verify", "--input", inp]) == 1
        assert "exceeds the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["inverse", "verify"])
    def test_huge_support_flag_rejected(self, tmp_path, capsys, command):
        b = write_seq(tmp_path / "b.json", {0: 0.3})
        assert main([command, "--b", b, "--support", f"0..{10**12}"]) == 1
        assert "exceeds the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["inverse", "verify"])
    def test_long_pass_above_b_rejected(self, tmp_path, capsys, command):
        # a narrow window far above b still strips from lo(b) up
        b = write_seq(tmp_path / "b.json", {0: 0.3})
        assert main([command, "--b", b, "--support=16000..16000"]) == 1
        assert "exceeds the cap" in capsys.readouterr().err

    def test_huge_config_window_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"window": [0, {10**12}]}}')
        monkeypatch.setenv("NLFT_CONFIG", str(cfg))
        b = write_seq(tmp_path / "b.json", {0: 0.3})
        assert main(["inverse", "--b", b]) == 1
        assert "exceeds the cap" in capsys.readouterr().err

    def test_sizes_at_the_caps_accepted(self):
        Config(grid_size=MAX_GRID_SIZE,
               window=(-1, MAX_WINDOW_WIDTH - 2)).validate()

    def test_inverse_at_the_window_cap(self, tmp_path, capsys):
        half = MAX_WINDOW_WIDTH // 2
        rng = np.random.default_rng(5)
        vals = 0.25 * (rng.standard_normal(MAX_WINDOW_WIDTH)
                       + 1j * rng.standard_normal(MAX_WINDOW_WIDTH))
        F = CoefficientSequence(-half, half - 1,
                                vals / math.sqrt(MAX_WINDOW_WIDTH))
        b = tmp_path / "b.json"
        b.write_text(sequence_to_json(nlft_forward(F).b))
        out = tmp_path / "rec.json"
        code = main(["inverse", "--b", str(b), f"--support={-half}..{half - 1}",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and "numerical failure" in err), err
        if code == 0:
            assert max_abs_difference(load_sequence(str(out)), F) <= 1e-8


class TestJsonBooleans:
    def test_boolean_support_rejected(self, tmp_path):
        inp = tmp_path / "f.json"
        inp.write_text('{"support": [0, true], '
                       '"coeffs": [[0.5, 0.0], [0.5, 0.0]]}')
        assert main(["forward", "--input", str(inp)]) == 1

    def test_boolean_coefficient_rejected(self, tmp_path):
        inp = tmp_path / "f.json"
        inp.write_text('{"support": [0, 0], "coeffs": [[true, 0.0]]}')
        assert main(["forward", "--input", str(inp)]) == 1


class TestNegativeZero:
    def test_negative_zero_round_trips_bit_identically(self, tmp_path):
        seq = CoefficientSequence(
            0, 1, np.array([complex(0.5, -0.0), complex(-0.0, -0.0)]))
        text = sequence_to_json(seq)
        path = tmp_path / "s.json"
        path.write_text(text)
        loaded = load_sequence(str(path))
        assert sequence_to_json(loaded) == text
        for part in ("real", "imag"):
            assert np.array_equal(
                np.signbit(getattr(loaded.coeffs, part)),
                np.signbit(getattr(seq.coeffs, part)),
            )


class TestForwardOverflow:
    def test_huge_coefficient_is_transformed(self, tmp_path):
        inp = tmp_path / "f.json"
        inp.write_text('{"support": [0, 1], "coeffs": [[1e308, 0], [0.5, 0]]}')
        out = tmp_path / "pair.json"
        assert main(["forward", "--input", str(inp), "--out", str(out)]) == 0
        pair = load_pair(str(out))
        assert pair.grid_residual < 1e-12
        assert pair.b.coefficient(0) == pytest.approx(2 / math.sqrt(5), abs=1e-15)

    def test_result_missing_determinant_exits_two(self, tmp_path, monkeypatch,
                                                   capsys):
        import su2nlft.cli as cli

        def overflowed(F, n_points=None):
            empty = CoefficientSequence.empty()
            return NlftPair(empty, empty, 1.0)

        monkeypatch.setattr(cli, "nlft_forward", overflowed)
        inp = write_seq(tmp_path / "f.json", TWO_POINT)
        out = tmp_path / "pair.json"
        assert main(["forward", "--input", inp, "--out", str(out)]) == 2
        assert "determinant residual" in capsys.readouterr().err
        assert not out.exists()


@st.composite
def sequences(draw):
    lo = draw(st.integers(-20, 20))
    vals = draw(st.lists(
        st.complex_numbers(max_magnitude=2, allow_nan=False,
                           allow_infinity=False),
        min_size=0, max_size=24))
    if not vals:
        return CoefficientSequence.empty()
    return CoefficientSequence(lo, lo + len(vals) - 1,
                               np.asarray(vals, dtype=np.complex128))


def same_bits(s, t):
    return ((s.support_lo, s.support_hi) == (t.support_lo, t.support_hi)
            and s.coeffs.tobytes() == t.coeffs.tobytes())


class TestLoaderProperties:
    @settings(deadline=None)
    @given(sequences())
    def test_loader_and_forward_round_trip_bit_for_bit(self, F):
        pair = nlft_forward(F)
        with tempfile.TemporaryDirectory() as tmp:
            seq_path = os.path.join(tmp, "f.json")
            pair_path = os.path.join(tmp, "pair.json")
            with open(seq_path, "w", encoding="utf-8") as fh:
                fh.write(sequence_to_json(F))
            with open(pair_path, "w", encoding="utf-8") as fh:
                fh.write(pair_to_json(pair))
            F_back = load_sequence(seq_path)
            pair_back = load_pair(pair_path)
        assert same_bits(F_back, F)
        assert same_bits(pair_back.a, pair.a)
        assert same_bits(pair_back.b, pair.b)
        assert (np.float64(pair_back.grid_residual).tobytes()
                == np.float64(pair.grid_residual).tobytes())
        again = nlft_forward(F_back)
        assert same_bits(again.a, pair.a) and same_bits(again.b, pair.b)
        assert again.grid_residual == pair.grid_residual

    @settings(deadline=None)
    @given(sequences())
    # a width-sized solver grid aliased b/a* here (error 2e-8)
    @example(CoefficientSequence(0, 1, np.array([1.0, 0.75])))
    def test_inverse_recovers_or_raises(self, F):
        # stripping assumes a* has no zero in the closed disk; most draws
        # of this law have one, too many for assume() to filter out
        if F.is_empty:
            return
        pair = nlft_forward(F)
        roots = np.roots(star_reflect(pair.a).coeffs[::-1])
        if roots.size and np.min(np.abs(roots)) <= 1.0:
            return
        try:
            got = layer_strip(pair, (F.support_lo, F.support_hi))
        except NumericalError:
            return
        assert max_abs_difference(got, F) <= 1e-10


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# real and imaginary parts: 0, subnormal, tiny, moderate and up to the
# largest double
_parts = st.builds(
    lambda modulus, sign: sign * modulus,
    st.one_of(st.just(0.0), st.floats(5e-324, 2.2250738585072014e-308),
              st.floats(1e-300, 1e-100), st.floats(0.0, 2.0),
              st.floats(1e100, sys.float_info.max)),
    st.sampled_from([1.0, -1.0]))


@st.composite
def cli_cases(draw):
    """A sequence, a window around its support and a ``--grid`` value."""
    lo = draw(st.integers(-6, 6))
    vals = draw(st.lists(st.builds(complex, _parts, _parts), max_size=6))
    hi = lo + max(len(vals) - 1, 0)
    window = (lo + draw(st.integers(-2, 2)), hi + draw(st.integers(-2, 2)))
    grid = draw(st.sampled_from([None, 3, 4, 8, 16, 64, 1024]))
    if not vals:
        return CoefficientSequence.empty(), window, grid
    return CoefficientSequence(lo, hi, np.asarray(vals)), window, grid


class TestCliProperties:
    @settings(max_examples=30, deadline=None)
    @given(cli_cases())
    # the suite's weighted norms overflowed; |b|^2 overflowed in completion
    @example((CoefficientSequence(0, 0, [1.5e308 + 1.5e308j]), (0, 0), None))
    @example((CoefficientSequence(0, 0, [1.5e154j]), (0, 0), 16))
    def test_every_exit_is_documented(self, case):
        """Each subcommand exits 0, 1 or 2 without a traceback or warning;
        on exit 0 its output is JSON, and an inverse round-trips."""
        F, (lo, hi), grid = case
        support = f"--support={lo}..{hi}"
        with tempfile.TemporaryDirectory() as tmp:
            path = functools.partial(os.path.join, tmp)
            with open(path("F.json"), "w", encoding="utf-8") as fh:
                fh.write(sequence_to_json(F))
            runs = [["forward", "--input", path("F.json")],
                    ["norms", "--input", path("F.json")],
                    ["verify", "--input", path("F.json")],
                    ["inverse", "--b", path("F.json"), support],
                    ["verify", "--b", path("F.json"), support]]
            for i, argv in enumerate(runs):
                out = path(f"out{i}.json")
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err), \
                        warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(argv + ["--out", out]
                                + ([] if grid is None else ["--grid", str(grid)]))
                assert code in (0, 1, 2), argv
                assert "Traceback" not in err.getvalue()
                if code != 0:
                    continue
                with open(out, encoding="utf-8") as fh:
                    json.loads(fh.read(), parse_constant=reject_constant)
                if argv[0] == "forward":
                    # the pair's own b and a, to invert and verify
                    pair = load_pair(out)
                    for name, part in (("a", pair.a), ("b", pair.b)):
                        with open(path(f"{name}.json"), "w",
                                  encoding="utf-8") as fh:
                            fh.write(sequence_to_json(part))
                    runs += [["verify", "--input", out],
                             ["inverse", "--b", path("b.json"), support],
                             ["inverse", "--b", path("b.json"),
                              "--a", path("a.json"), support],
                             ["verify", "--b", path("b.json"), support]]
                elif argv[0] == "inverse":
                    gap = max_abs_difference(nlft_forward(load_sequence(out)).b,
                                             load_sequence(argv[2]))
                    assert gap <= su2nlft.verify.ROUND_TRIP_TOL
