"""The three workloads: seeded items, the timed call and the oracle.

Each workload is a list of items.  ``call`` is the only thing timed; it
reaches the package through module attributes (``pkg.forward.nlft_forward``)
so that the tracer's wrappers, when installed, are the ones called.
``check`` runs after the pass, outside the timed region, and returns
``(passed, observations)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import inputs

FORWARD_WIDTH = 4096
FORWARD_ITEMS = 8
STRIP_WINDOW = (-64, 63)
STRIP_ITEMS = 4
ENSEMBLE_ITEMS = 100
# run_suite's own default grid undersizes check_plancherel's quadrature
# (see perfbench/README.md, "Known defects"); the acceptance suite runs
# its ensemble at this grid, and so does the benchmark.
ENSEMBLE_GRID = 1024

FORWARD_TOL = 1e-12  # nlft_forward against the reference recursion
DETERMINANT_TOL = 1e-12
COMPLETION_TOL = 1e-10  # outer_complement's a against the forward a
RECOVERY_TOL = 1e-8


@dataclass
class Workload:
    items: list
    refs: list
    fingerprint: str
    call: Callable
    check: Callable


def _max_diff(seq, lo: int, ref: np.ndarray) -> float:
    """``max |seq - ref|`` over the union of both supports."""
    if seq.is_empty:
        return float(np.max(np.abs(ref), initial=0.0))
    start = min(seq.support_lo, lo)
    stop = max(seq.support_hi, lo + len(ref) - 1)
    dense = np.zeros(stop - start + 1, dtype=np.complex128)
    dense[seq.support_lo - start: seq.support_hi - start + 1] = seq.coeffs
    dense[lo - start: lo - start + len(ref)] -= ref
    return float(np.max(np.abs(dense)))


def _determinant_residual(pair) -> float:
    """``max | |a|^2 + |b|^2 - 1 |`` on an 8x oversampled grid."""
    n = inputs.grid_size(max(pair.a.width, pair.b.width))
    av = inputs.samples(pair.a.support_lo, pair.a.coeffs, n)
    bv = inputs.samples(pair.b.support_lo, pair.b.coeffs, n)
    return float(np.max(np.abs(np.abs(av) ** 2 + np.abs(bv) ** 2 - 1.0)))


def forward_wide(pkg, rng: np.random.Generator) -> Workload:
    Seq = pkg.core.CoefficientSequence
    draws = [inputs.wide_draw(rng, FORWARD_WIDTH) for _ in range(FORWARD_ITEMS)]
    items = [Seq(0, FORWARD_WIDTH - 1, vals) for vals, _, _ in draws]
    # a on [-(width - 1), 0] is the conjugate reversal of a*
    refs = [(np.conj(astar[::-1]), b) for _, astar, b in draws]

    def call(F):
        pair = pkg.forward.nlft_forward(F)
        return pair, pkg.spectral.outer_complement(pair.b)

    def check(ref, out):
        a_ref, b_ref = ref
        pair, completed = out
        forward_err = max(_max_diff(pair.a, 1 - FORWARD_WIDTH, a_ref),
                          _max_diff(pair.b, 0, b_ref))
        det = _determinant_residual(pair)
        completion_err = _max_diff(completed.a, 1 - FORWARD_WIDTH, a_ref)
        ok = (forward_err <= FORWARD_TOL and det <= DETERMINANT_TOL
              and completion_err <= COMPLETION_TOL)
        return ok, {"forward_err": forward_err, "determinant_residual": det,
                    "completion_err": completion_err}

    fp = inputs.fingerprint(vals for vals, _, _ in draws)
    return Workload(items, refs, fp, call, check)


def inverse_strip(pkg, rng: np.random.Generator) -> Workload:
    Seq = pkg.core.CoefficientSequence
    lo, hi = STRIP_WINDOW
    draws = [inputs.wide_draw(rng, hi - lo + 1) for _ in range(STRIP_ITEMS)]
    items = [Seq(lo, hi, b) for _, _, b in draws]
    refs = [vals for vals, _, _ in draws]

    def call(b):
        return pkg.inverse.inverse_nlft_detailed(b, STRIP_WINDOW)

    def check(vals, out):
        recovered, _ = out
        err = _max_diff(recovered, lo, vals)
        return err <= RECOVERY_TOL, {"recovery_err": err}

    fp = inputs.fingerprint(vals for vals, _, _ in draws)
    return Workload(items, refs, fp, call, check)


def verify_ensemble(pkg, rng: np.random.Generator) -> Workload:
    Seq = pkg.core.CoefficientSequence
    draws = inputs.ensemble(rng, ENSEMBLE_ITEMS)
    items = [Seq(lo, lo + len(vals) - 1, vals) for lo, vals in draws]

    def call(F):
        return pkg.verify.run_suite(F=F, n_points=ENSEMBLE_GRID)

    def check(_, report):
        errors = [r for r in report.records if r.kind == "error"]
        recovery = [r.value for r in report.records if r.name == "round_trip"]
        return (report.overall_pass and not errors,
                {"recovery_err": max(recovery, default=0.0)})

    fp = inputs.fingerprint(
        x for lo, vals in draws for x in (np.array([lo]), vals))
    return Workload(items, [None] * len(items), fp, call, check)


BUILDERS = {
    "forward-wide": forward_wide,
    "inverse-strip": inverse_strip,
    "verify-ensemble": verify_ensemble,
}


def build(name: str, pkg: SimpleNamespace, seed: int) -> Workload:
    return BUILDERS[name](pkg, np.random.default_rng(seed))
