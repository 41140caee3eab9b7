#!/usr/bin/env python3
"""Self-test of the benchmark's own parts; needs numpy only.

Usage: python3 perfbench/selftest.py

Checks that the reference recursion reproduces the worked instance,
that input generation is deterministic per seed, and that the tracer
skips a missing name, times nested spans and restores what it wrapped.
Exits 1 on the first failure.
"""

import sys
import time
import types

import numpy as np

import inputs
from tracer import Tracer


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def test_worked_instance() -> None:
    # F = {0: 0.5, 1: 0.5} gives a = -0.2/z + 0.8 and b = 0.4 + 0.4 z
    astar, b = inputs.reference_forward(np.array([0.5, 0.5], dtype=complex))
    check(np.allclose(astar, [0.8, -0.2], atol=1e-15, rtol=0)
          and np.allclose(b, [0.4, 0.4], atol=1e-15, rtol=0),
          "reference recursion reproduces the worked instance")
    vals = np.array([0.3, 0.2j, -0.1, 0.25 - 0.1j])
    astar, b = inputs.reference_forward(vals)
    det = (np.abs(inputs.samples(0, astar, 64)) ** 2
           + np.abs(inputs.samples(0, b, 64)) ** 2)
    check(np.max(np.abs(det - 1.0)) < 1e-14,
          "reference pair satisfies |a|^2 + |b|^2 = 1")


def _draws(seed: int) -> str:
    rng = np.random.default_rng(seed)
    wide = [inputs.wide_draw(rng, 64)[0] for _ in range(2)]
    ensemble = inputs.ensemble(rng, 8)
    return inputs.fingerprint(
        wide + [x for lo, vals in ensemble for x in (np.array([lo]), vals)])


def test_generation() -> None:
    check(_draws(3) == _draws(3), "same seed gives the same inputs")
    check(_draws(3) != _draws(4), "another seed gives other inputs")
    rng = np.random.default_rng(5)
    vals, astar, b = inputs.wide_draw(rng, 256)
    check(inputs.sup_on_grid(b, inputs.grid_size(256)) <= inputs.SUP_B_CAP
          and inputs.winding(astar, inputs.grid_size(256, 4)) == 0,
          "wide draw is inside the scope: sup |b| <= 0.9, a* does not wind")
    items = inputs.ensemble(rng, 201)
    check(items[0][0] == -16 and len(items[0][1]) == 33
          and max(np.max(np.abs(vals)) for _, vals in items) <= 0.3,
          "ensemble item 0 fills [-16, 16] and every |F_k| <= 0.3")
    widths = np.array([len(vals) for _, vals in items[1:]])
    windows, cdf = inputs._window_law()
    prob = np.diff(cdf, prepend=0.0)
    for w in (1, 8, 17, 33):
        law = sum(p for (lo, hi), p in zip(windows, prob) if hi - lo + 1 <= w)
        check(abs(np.mean(widths <= w) - law) <= 1.0 / 200,
              f"stratified windows match the law's P(width <= {w}) = {law:.3f}")


def test_tracer() -> None:
    mod = types.ModuleType("fake")

    def inner():
        time.sleep(0.01)

    def outer():
        mod.inner()
        time.sleep(0.01)
        return 7

    mod.inner, mod.outer = inner, outer
    tr = Tracer()
    tr.wrap(mod, "deleted_later", "fake.deleted_later")
    tr.wrap(mod, "inner", "fake.inner")
    tr.wrap(mod, "outer", "fake.outer", keep_result=True)
    check(tr.absent == ["fake.deleted_later"], "tracer records a missing name as absent")
    with tr.item(0):
        result = mod.outer()
    tr.uninstall()
    check(result == 7 and tr.results["fake.outer"] == [7],
          "wrapped call returns and keeps its result")
    st = tr.stats()
    check(st["fake.outer"]["calls"] == 1 and st["fake.inner"]["calls"] == 1,
          "one span per call")
    check(abs(st["fake.outer"]["self_s"]
              - (st["fake.outer"]["busy_s"] - st["fake.inner"]["busy_s"])) < 1e-12,
          "self time excludes the child span")
    check(mod.inner is inner and mod.outer is outer,
          "uninstall restores the original names")


if __name__ == "__main__":
    test_worked_instance()
    test_generation()
    test_tracer()
