"""Seeded inputs for the benchmark, built with numpy alone.

Nothing here imports ``su2nlft``: the supremum of ``|b|`` and the winding
number of ``a*`` that decide whether a draw is kept come from the
reference recursion below, so a change to rounding inside the package
cannot change which inputs the benchmark feeds it.

A sequence is held as ``(lo, vals)``: ``vals[j]`` is ``F_{lo + j}``.
"""

from __future__ import annotations

import hashlib

import numpy as np

SUP_B_CAP = 0.9  # every kept draw has sup |b| <= 0.9, as in the acceptance suite
WINDING_RADIUS = 0.999

# verify-ensemble: the law of tests/test_acceptance.py
ENSEMBLE_SUPPORT_BOUND = 16
ENSEMBLE_MAX_ABS_F = 0.3
ENSEMBLE_SUP_GRID = 8192
ENSEMBLE_WINDING_SAMPLES = 4096

# Wide draws first scale sup |sum_k F_k z^k| to this value.  Without it
# a width-4096 draw needs some 35 rounds of 0.9x rescaling, each a full
# forward transform.
LINEAR_PART_TARGET = 0.6


def reference_forward(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of ``a*`` and ``b`` for ``F`` on ``[0, len(vals) - 1]``.

    Applies the factors in ascending index order on raw arrays:

        a*[j] <- (a*[j] - F_k conj(b[k - j])) / sqrt(1 + |F_k|^2)
        b[j]  <- (b[j]  + F_k conj(a*[k - j])) / sqrt(1 + |F_k|^2)

    for ``0 <= j <= k``.  Both outputs live on ``[0, len(vals) - 1]``.
    Shifting ``F`` by ``lo`` multiplies ``b`` by ``z^lo`` and leaves
    ``a`` unchanged, so this serves every support window.
    """
    n = len(vals)
    astar = np.zeros(n, dtype=np.complex128)
    b = np.zeros(n, dtype=np.complex128)
    astar[0] = 1.0
    for k in range(n):
        f = complex(vals[k])
        if f == 0:
            continue
        inv_nu = 1.0 / np.sqrt(1.0 + abs(f) ** 2)
        rb = np.conj(b[k::-1])
        ra = np.conj(astar[k::-1])
        astar[: k + 1] -= f * rb
        astar[: k + 1] *= inv_nu
        b[: k + 1] += f * ra
        b[: k + 1] *= inv_nu
    return astar, b


def grid_size(width: int, oversample: int = 8) -> int:
    """Smallest power of two >= ``oversample * (width + 1)``."""
    n = 8
    while n < oversample * (width + 1):
        n *= 2
    return n


def samples(lo: int, coeffs: np.ndarray, n_points: int) -> np.ndarray:
    """Values of ``sum_j c_j z^(lo + j)`` at the ``n_points`` roots of unity."""
    spec = np.zeros(n_points, dtype=np.complex128)
    spec[np.arange(lo, lo + len(coeffs)) % n_points] = coeffs
    return np.fft.ifft(spec) * n_points


def sup_on_grid(coeffs: np.ndarray, n_points: int) -> float:
    """``max |sum_j c_j z^j|`` over the ``n_points`` roots of unity."""
    return float(np.max(np.abs(samples(0, coeffs, n_points))))


def winding(coeffs: np.ndarray, n_samples: int,
            radius: float = WINDING_RADIUS) -> int:
    """Zeros of the polynomial ``sum_j c_j z^j`` inside ``|z| = radius``."""
    spec = np.zeros(n_samples, dtype=np.complex128)
    spec[: len(coeffs)] = coeffs * radius ** np.arange(len(coeffs), dtype=float)
    phases = np.angle(np.fft.ifft(spec))
    steps = np.diff(np.concatenate([phases, phases[:1]]))
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    return int(np.rint(steps.sum() / (2.0 * np.pi)))


def _random_values(rng: np.random.Generator, count: int,
                   max_abs: float) -> np.ndarray:
    """``max_abs * sqrt(U) * exp(2 pi i U')``, drawn in the acceptance order."""
    radius = max_abs * np.sqrt(rng.random(count))
    return radius * np.exp(2j * np.pi * rng.random(count))


def _cap_sup_b(vals: np.ndarray, sup_grid: int):
    """Scale by 0.9x until ``sup |b| <= 0.9``; returns ``(vals, astar, b)``."""
    while True:
        astar, b = reference_forward(vals)
        if sup_on_grid(b, sup_grid) <= SUP_B_CAP:
            return vals, astar, b
        vals = vals * 0.9


def wide_draw(rng: np.random.Generator, width: int):
    """One draw on a fixed support of ``width`` with ``sup |b| <= 0.9``.

    Values follow the acceptance law's shape; the linear part is then
    scaled to ``LINEAR_PART_TARGET`` and the acceptance loop (0.9x until
    ``sup |b| <= 0.9``, redraw while ``a*`` winds) finishes the job.
    Returns ``(vals, astar, b)``.
    """
    sup_grid = grid_size(width)
    while True:
        vals = _random_values(rng, width, ENSEMBLE_MAX_ABS_F)
        vals *= LINEAR_PART_TARGET / sup_on_grid(vals, sup_grid)
        vals, astar, b = _cap_sup_b(vals, sup_grid)
        if winding(astar, grid_size(width, oversample=4)) == 0:
            return vals, astar, b


def _window_law() -> tuple[list[tuple[int, int]], np.ndarray]:
    """Every support window of the acceptance law, narrowest first, with
    its cumulative probability: ``lo`` uniform on ``[-16, 16]``, then
    ``hi`` uniform on ``[lo, 16]``."""
    bound = ENSEMBLE_SUPPORT_BOUND
    windows = sorted(((lo, hi) for lo in range(-bound, bound + 1)
                      for hi in range(lo, bound + 1)),
                     key=lambda w: (w[1] - w[0], w[0]))
    prob = [1.0 / (2 * bound + 1) / (bound - lo + 1) for lo, _ in windows]
    return windows, np.cumsum(prob)


def _ensemble_instance(rng: np.random.Generator, pick_window):
    """Values, 0.9x rescaling and winding redraw of the acceptance law."""
    while True:
        lo, hi = pick_window()
        vals = _random_values(rng, hi - lo + 1, ENSEMBLE_MAX_ABS_F)
        vals, astar, _ = _cap_sup_b(vals, ENSEMBLE_SUP_GRID)
        if winding(astar, ENSEMBLE_WINDING_SAMPLES) == 0:
            return lo, vals


def ensemble(rng: np.random.Generator, count: int) -> list[tuple[int, np.ndarray]]:
    """``count`` instances of the acceptance-suite law as ``(lo, vals)``.

    Item 0 fills ``[-16, 16]``.  Every instance has ``|F_k| <= 0.3``, is
    rescaled by 0.9x until ``sup |b| <= 0.9`` on an 8192-point grid and
    is redrawn while ``a*`` winds on ``|z| = 0.999``.  The windows of
    items ``1 .. count-1`` are a stratified sample of the law: item ``i``
    takes its window at a uniform point of the ``i``-th of ``count - 1``
    equal slices of the window distribution, narrowest first, and the
    items are then shuffled.  Independent windows would let the width
    mix, and with it every timing, swing from seed to seed: at 400
    items the median latency varies by 13% between seeds on window mix
    alone.
    """
    windows, cdf = _window_law()
    full = (-ENSEMBLE_SUPPORT_BOUND, ENSEMBLE_SUPPORT_BOUND)
    items = [_ensemble_instance(rng, lambda: full)]
    for i in range(count - 1):
        def pick_window(i=i):
            k = np.searchsorted(cdf, (i + rng.random()) / (count - 1), side="right")
            return windows[min(int(k), len(windows) - 1)]
        items.append(_ensemble_instance(rng, pick_window))
    return items[:1] + [items[1 + k] for k in rng.permutation(count - 1)]


def fingerprint(arrays) -> str:
    """Short SHA-256 of the given arrays' bytes, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]
