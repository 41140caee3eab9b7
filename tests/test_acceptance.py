"""Acceptance gates: one test per criterion, run with ``pytest -v``.

The shared ensemble is 100 seeded random sequences with support inside
[-16, 16] and |F_k| <= 0.3.  Two refinements keep every instance inside
the class the library claims to handle (see README):

* draws whose measured sup |b| exceeds 0.9 are scaled down until the
  bound holds (recovery from b alone is limited by min |a|^2 =
  1 - sup |b|^2, so uncapped draws can be numerically singular);

* instances whose completed a* has zeros inside the unit disk are
  redrawn (b alone then does not determine F; such data is excluded
  from scope).

Instance 0 always uses the full support [-16, 16].
"""

import time

import numpy as np
import pytest

from su2nlft import (
    BeurlingWeight,
    CoefficientSequence,
    RhSystem,
    a_star_at_zero,
    check_antisymmetry,
    check_decay_first_order,
    check_decay_fractional,
    check_determinant,
    check_lu_factorization,
    check_plancherel,
    check_sinh_bound,
    grid_quotient,
    inverse_nlft_detailed,
    max_abs_difference,
    multilinear_partial_sum,
    nlft_forward,
    rh_solve,
    run_suite,
    solvability_certificate,
    star_reflect,
    symbol_ratio,
    weighted_l1_norm,
    winding_number,
)
from su2nlft.cli import main as cli_main, sequence_to_json
from su2nlft.core import _eval_samples

N_INSTANCES = 100
SUPPORT_BOUND = 16
MAX_ABS_F = 0.3
SUP_B_CAP = 0.9
FORWARD_GRID = 1024

WEIGHTS = [
    BeurlingWeight.one(),
    BeurlingWeight.polynomial(0.5),
    BeurlingWeight.polynomial(1.0),
    BeurlingWeight.polynomial(2.0),
]


def _sup_abs(seq, n_points=8192):
    return float(np.max(np.abs(_eval_samples(seq, n_points))))


def _draw_instance(rng, full_width):
    while True:
        if full_width:
            lo, hi = -SUPPORT_BOUND, SUPPORT_BOUND
        else:
            lo = int(rng.integers(-SUPPORT_BOUND, SUPPORT_BOUND + 1))
            hi = int(rng.integers(lo, SUPPORT_BOUND + 1))
        count = hi - lo + 1
        vals = (MAX_ABS_F * np.sqrt(rng.random(count))
                * np.exp(2j * np.pi * rng.random(count)))
        while True:
            F = CoefficientSequence(lo, hi, vals)
            pair = nlft_forward(F, FORWARD_GRID)
            if _sup_abs(pair.b) <= SUP_B_CAP:
                break
            vals = vals * 0.9
        if winding_number(star_reflect(pair.a), 4096) == 0:
            return F, pair


@pytest.fixture(scope="session")
def ensemble():
    rng = np.random.default_rng(0)
    return [_draw_instance(rng, full_width=(i == 0))
            for i in range(N_INSTANCES)]


@pytest.fixture(scope="session")
def round_trip_run(ensemble):
    """Timed forward + inverse on every instance (criteria 1 and 7)."""
    total = 0.0
    results = []
    for F, _ in ensemble:
        window = (F.support_lo, F.support_hi)
        start = time.perf_counter()
        pair = nlft_forward(F, FORWARD_GRID)
        recovered, report = inverse_nlft_detailed(pair.b, window,
                                                  n_points=FORWARD_GRID)
        total += time.perf_counter() - start
        results.append((max_abs_difference(recovered, F), report))
    return total, results


@pytest.fixture(scope="session")
def truncation_run(ensemble):
    """Direct truncated solves at every index of every instance
    (criteria 7, 8 and 11)."""
    out = []
    for F, pair in ensemble:
        sols = [rh_solve(RhSystem.build(pair, n, n_points=FORWARD_GRID))
                for n in range(F.support_lo - 1, F.support_hi + 1)]
        out.append(sols)
    return out


def test_criterion_01_round_trip(round_trip_run):
    total, results = round_trip_run
    worst = max(err for err, _ in results)
    print(f"[criterion 1] max recovery error {worst:.3e}, "
          f"total {total:.1f} s for {N_INSTANCES} instances")
    assert worst <= 1e-8
    assert total <= 60.0


def test_criterion_02_determinant(ensemble):
    worst = max(check_determinant(pair, n_points=FORWARD_GRID).value
                for _, pair in ensemble)
    print(f"[criterion 2] max determinant residual {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_03_plancherel(ensemble):
    worst = max(check_plancherel(F, pair, n_points=8192).value
                for F, pair in ensemble)
    print(f"[criterion 3] max sum-rule residual {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_04_sinh_bound(ensemble):
    worst = min(check_sinh_bound(F, w, pair).value
                for F, pair in ensemble for w in WEIGHTS)
    print(f"[criterion 4] smallest sinh-bound margin {worst:.3e}")
    assert worst >= -1e-12


def test_criterion_05_multilinear():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        size = int(rng.integers(1, 4))
        ks = rng.choice(np.arange(-SUPPORT_BOUND, SUPPORT_BOUND + 1),
                        size=size, replace=False)
        vals = (MAX_ABS_F * np.sqrt(rng.random(size))
                * np.exp(2j * np.pi * rng.random(size)))
        F = CoefficientSequence.from_dict(dict(zip(map(int, ks), vals)))
        pair = nlft_forward(F)
        even, odd = multilinear_partial_sum(F, size)
        pref = a_star_at_zero(F)
        worst = max(worst,
                    max_abs_difference(even.scale(pref), pair.a),
                    max_abs_difference(odd.scale(pref), pair.b))
    print(f"[criterion 5] max multilinear reconstruction error {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_06_worked_instance():
    F = CoefficientSequence.from_dict({0: 0.5, 1: 0.5})
    pair = nlft_forward(F)
    assert max_abs_difference(
        pair.a, CoefficientSequence(-1, 0, [-0.2, 0.8])) <= 1e-12
    assert max_abs_difference(
        pair.b, CoefficientSequence(0, 1, [0.4, 0.4])) <= 1e-12
    a_star_zero = float(np.real(star_reflect(pair.a).coefficient(0)))
    assert abs(a_star_zero - 0.8) <= 1e-12
    ratio = symbol_ratio(pair, n_points=256, window=(0, 48))
    wiener = weighted_l1_norm(ratio, BeurlingWeight.one())
    print(f"[criterion 6] ||b/a*|| = {wiener!r} (target 4/3)")
    assert abs(wiener - 4.0 / 3.0) <= 1e-12


def test_criterion_07_operator_structure(ensemble, round_trip_run,
                                         truncation_run):
    worst_asym = 0.0
    for i, (F, pair) in enumerate(ensemble):
        lo, hi = F.support_lo, F.support_hi
        for n in {lo, (lo + hi) // 2, hi}:
            rec = check_antisymmetry(pair, n=n, n_probes=20, seed=i)
            worst_asym = max(worst_asym, rec.value)
    solves = [r for _, report in round_trip_run[1] for r in report.records]
    solves += [s for sols in truncation_run for s in sols]
    worst_growth = max(s.solution_norm - s.rhs_norm for s in solves)
    print(f"[criterion 7] max antisymmetry residual {worst_asym:.3e}; "
          f"max norm growth {worst_growth:.3e} over {len(solves)} solves")
    assert worst_asym <= 1e-12
    assert worst_growth <= 1e-12


def test_criterion_08_truncation_consistency(ensemble, truncation_run):
    worst = 0.0
    for (F, pair), sols in zip(ensemble, truncation_run):
        for sol in sols:
            reference = nlft_forward(F.restrict(F.support_lo, sol.n))
            worst = max(worst,
                        max_abs_difference(sol.a, reference.a),
                        max_abs_difference(sol.b, reference.b))
    print(f"[criterion 8] max truncated-solve mismatch {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_09_decay(ensemble):
    worst_margin = min(check_decay_first_order(F, pair).value
                       for F, pair in ensemble)
    ratios = {}
    for s in (1.0, 1.5, 2.0):
        first = [check_decay_fractional(F, pair, s).value
                 for F, pair in ensemble]
        second = [check_decay_fractional(F, pair, s).value
                  for F, pair in ensemble]
        drift = max(abs(x - y) for x, y in zip(first, second))
        ratios[s] = (min(first), max(first))
        assert drift <= 1e-10
    print(f"[criterion 9] first-order margin {worst_margin:.3e}; "
          f"fractional ratio ranges {ratios}")
    assert worst_margin >= -1e-10


def test_criterion_10_lu_factorization(ensemble):
    worst = 0.0
    skipped = 0
    for _, pair in ensemble:
        if _sup_abs(pair.b) > np.sqrt(1 - 0.1 ** 2):
            skipped += 1  # min |a| below 0.1: outside the stated range
            continue
        rec = check_lu_factorization(pair)
        worst = max(worst, rec.value)
    print(f"[criterion 10] max LU/composition residual {worst:.3e} "
          f"({skipped} skipped)")
    assert worst <= 1e-11


def _full_grid_multiply(coeffs, x, in_lo, out_lo, out_hi):
    """Reference for ``core._window_multiply``: embed the input window on
    the grid, multiply by the samples and read the output window back."""
    n = coeffs.size
    spec = np.zeros((n, x.shape[1]), dtype=np.complex128)
    spec[np.arange(in_lo, in_lo + x.shape[0]) % n] = x
    samples = np.fft.ifft(coeffs, norm="forward")[:, None]
    y = np.fft.fft(np.fft.ifft(spec, axis=0) * samples, axis=0)
    return y[np.arange(out_lo, out_hi + 1) % n]


def test_operator_probes_match_the_full_grid_route(ensemble, monkeypatch):
    def records():
        return [(check_lu_factorization(pair, seed=i),
                 check_antisymmetry(pair, seed=i))
                for i, (_, pair) in enumerate(ensemble)]

    windowed = records()
    for module in ("su2nlft.verify", "su2nlft.inverse"):
        monkeypatch.setattr(f"{module}._window_multiply", _full_grid_multiply)
    worst = 0.0
    for got, ref in zip(windowed, records()):
        for g, r in zip(got, ref):
            assert (g.kind, g.passed, g.tolerance) == (r.kind, r.passed,
                                                       r.tolerance)
            worst = max(worst, abs(g.value - r.value))
    print(f"[operator probes] max difference from the full-grid route "
          f"{worst:.3e}")
    assert worst <= 1e-15


def test_criterion_11_weighted_solvability(ensemble, truncation_run):
    weights = [BeurlingWeight.one(), BeurlingWeight.polynomial(1.0)]
    unit = CoefficientSequence.from_dict({0: 1.0})
    worst = np.inf
    certified = 0
    for (F, pair), sols in zip(ensemble, truncation_run):
        n_points = 2048
        inv_a = grid_quotient(unit, pair.a, n_points, (-(n_points - 2), 0))
        for w in weights:
            norm_a = weighted_l1_norm(pair.a, w)
            norm_b = weighted_l1_norm(pair.b, w)
            bound = (norm_a + 2 * weighted_l1_norm(inv_a, w)) \
                * (norm_a + norm_b) ** 2
            for sol in sols:
                if solvability_certificate(pair, sol.n, w) >= 0.5:
                    continue
                certified += 1
                size = (weighted_l1_norm(sol.tilde_a_star, w)
                        + weighted_l1_norm(sol.tilde_b, w))
                worst = min(worst, bound - size)  # rhs has Y_w norm 1
    print(f"[criterion 11] smallest bound margin {worst:.3e} "
          f"over {certified} certified solves")
    assert certified > 0
    assert worst >= -1e-10


def test_criterion_12_hypothesis_violation(tmp_path, capsys):
    b_path = tmp_path / "b.json"
    b_path.write_text(sequence_to_json(
        CoefficientSequence.from_dict({0: 0.5, 1: 0.5})))
    code = cli_main(["inverse", "--b", str(b_path), "--support", "0..1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "sup |b|" in err

    # forward-only identities still hold for the generating sequence
    F = CoefficientSequence.from_dict({0: 1.0, 1: 1.0})
    pair = nlft_forward(F)
    assert max_abs_difference(
        pair.b, CoefficientSequence(0, 1, [0.5, 0.5])) <= 1e-14
    assert check_determinant(pair, n_points=FORWARD_GRID).value <= 1e-12
    assert check_plancherel(F, pair, n_points=8192).value <= 1e-8
    for w in WEIGHTS:
        assert check_sinh_bound(F, w, pair).value >= -1e-12
    even, odd = multilinear_partial_sum(F, 2)
    pref = a_star_at_zero(F)
    assert max_abs_difference(even.scale(pref), pair.a) <= 1e-12
    assert max_abs_difference(odd.scale(pref), pair.b) <= 1e-12
    print("[criterion 12] singular b rejected with exit 2; "
          "forward identities intact")


def test_default_grid_suite_has_no_false_plancherel_fails():
    # at a width-sized grid the sum rule missed its 1e-8 tolerance on 5
    # of these instances (for example 2, 36 and 78) by quadrature error
    rng = np.random.default_rng(4)
    for i in range(100):
        F, _ = _draw_instance(rng, full_width=(i == 0))
        report = run_suite(F=F)
        assert report.overall_pass, (i, report.lines())
