"""Command-line interface, configuration and file formats.

Sequences and pairs are stored as JSON with every float printed at 17
significant digits, so a write/read cycle reproduces the doubles bit
for bit.  Verification reports are ordinary JSON.

Exit codes: 0 success, 1 input or validation problem, 2 numerical or
hypothesis failure (including a failed hard check under ``verify``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    BeurlingWeight,
    CoefficientSequence,
    NlftPair,
    max_abs_difference,
    pair_from_sequences,
    sobolev_norm,
    weighted_l1_norm,
)
from .errors import DeterminantError, NlftError, NumericalError, ValidationError
from .forward import nlft_forward
from .inverse import (DEFAULT_SOLVER_TOL, InverseReport, inverse_nlft_detailed,
                      layer_strip_detailed)
from .spectral import DEFAULT_SZEGO_MARGIN
from .verify import (ROUND_TRIP_TOL, SOBOLEV_ORDERS, WEIGHT_EXPONENTS,
                     run_pair_checks, run_suite)

PAIR_VALIDATION_TOL = 1e-6
# size caps, checked before anything is allocated: a grid holds a few
# complex arrays of MAX_GRID_SIZE points (64 MiB each); stripping a
# window [lo, hi] takes O(N log^3 N) time in N = hi - lo(b) + 1, which
# MAX_WINDOW_WIDTH also caps.  Median s of a centred-window inverse,
# start-up and completion included, 5 rounds on one core of a shared
# 2-vCPU VM: width 8192 0.27, 16384 0.44, 32768 0.68, against 0.29 for
# width 4096 when stripping was quadratic
MAX_GRID_SIZE = 1 << 22
MAX_WINDOW_WIDTH = 1 << 13

__all__ = [
    "Config",
    "load_sequence",
    "load_pair",
    "sequence_to_json",
    "pair_to_json",
    "main",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


# JSON true/false load as bool, a subclass of int; neither counts as a number
def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass
class Config:
    grid_size: int | str = "auto"
    szego_margin: float = DEFAULT_SZEGO_MARGIN
    solver_tol: float = DEFAULT_SOLVER_TOL
    round_trip_tol: float = ROUND_TRIP_TOL
    weight: str | None = None
    window: tuple[int, int] | None = None
    seed: int = 0

    def validate(self) -> None:
        for name in ("szego_margin", "solver_tol", "round_trip_tol"):
            val = getattr(self, name)
            if not _is_number(val) or not 0 < val < math.inf:  # NaN too
                raise ValidationError(
                    f"config: {name} must be a positive finite number")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValidationError("config: seed must be a non-negative integer")
        if self.grid_size != "auto":
            n = self.grid_size
            if not isinstance(n, int) or n < 4 or n & (n - 1):
                raise ValidationError(
                    f"config: grid_size must be 'auto' or a power of two >= 4,"
                    f" got {n!r}"
                )
            if n > MAX_GRID_SIZE:
                raise ValidationError(
                    f"config: grid_size {n} exceeds the cap {MAX_GRID_SIZE}"
                )
        if self.window is not None:
            width = self.window[1] - self.window[0] + 1
            if width > MAX_WINDOW_WIDTH:
                raise ValidationError(
                    f"config: support window of width {width} exceeds the "
                    f"cap {MAX_WINDOW_WIDTH}"
                )
        if self.weight is not None:
            if not isinstance(self.weight, str):
                raise ValidationError("config: weight must be a descriptor string")
            BeurlingWeight.from_descriptor(self.weight)

    @property
    def n_points(self) -> int | None:
        return None if self.grid_size == "auto" else int(self.grid_size)

    @classmethod
    def from_env(cls) -> "Config":
        path = os.environ.get("NLFT_CONFIG")
        if not path:
            return cls()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read NLFT_CONFIG file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"NLFT_CONFIG is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValidationError("NLFT_CONFIG must hold a JSON object")
        cfg = cls()
        known = {f.name for f in fields(cls)}
        for key, val in obj.items():
            if key not in known:
                raise ValidationError(f"NLFT_CONFIG: unknown key {key!r}")
            if key == "window" and val is not None:
                if (not isinstance(val, list) or len(val) != 2
                        or not all(_is_int(v) for v in val) or val[1] < val[0]):
                    raise ValidationError(
                        f"NLFT_CONFIG: window must be [lo, hi] integers with "
                        f"lo <= hi, got {val!r}"
                    )
                val = tuple(val)
            setattr(cfg, key, val)
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    # 17 significant digits: enough for exact double round-trip; JSON
    # reads "-0" as the integer 0, so negative zero is written as a float
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


def sequence_to_json(seq: CoefficientSequence) -> str:
    if seq.is_empty:
        return '{"support": null, "coeffs": []}'
    coeffs = ", ".join(
        f"[{_fmt(c.real)}, {_fmt(c.imag)}]" for c in seq.coeffs
    )
    return (
        f'{{"support": [{seq.support_lo}, {seq.support_hi}], '
        f'"coeffs": [{coeffs}]}}'
    )


def pair_to_json(pair: NlftPair) -> str:
    return (
        f'{{"a": {sequence_to_json(pair.a)}, '
        f'"b": {sequence_to_json(pair.b)}, '
        f'"grid_residual": {_fmt(pair.grid_residual)}}}'
    )


def _sequence_from_obj(obj) -> CoefficientSequence:
    if not isinstance(obj, dict) or set(obj) != {"support", "coeffs"}:
        raise ValidationError(
            'sequence object must have exactly the keys "support" and "coeffs"'
        )
    support = obj["support"]
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise ValidationError("coeffs must be a list of [re, im] pairs")
    values = []
    for item in coeffs:
        if (not isinstance(item, list) or len(item) != 2
                or not all(_is_number(v) for v in item)):
            raise ValidationError(f"bad coefficient entry {item!r}")
        values.append(complex(item[0], item[1]))
    if support is None:
        if values:
            raise ValidationError("null support with nonempty coeffs")
        return CoefficientSequence.empty()
    if (not isinstance(support, list) or len(support) != 2
            or not all(_is_int(v) for v in support)):
        raise ValidationError(f"bad support {support!r}")
    lo, hi = support
    if hi - lo + 1 != len(values):
        raise ValidationError(
            f"support [{lo}, {hi}] wants {hi - lo + 1} coefficients, "
            f"got {len(values)}"
        )
    return CoefficientSequence(lo, hi, np.asarray(values, dtype=np.complex128))


def _pair_from_obj(obj) -> NlftPair:
    if not isinstance(obj, dict) or set(obj) != {"a", "b", "grid_residual"}:
        raise ValidationError(
            'pair object must have exactly the keys "a", "b", "grid_residual"'
        )
    if not _is_number(obj["grid_residual"]):
        raise ValidationError("grid_residual must be a number")
    return NlftPair(
        a=_sequence_from_obj(obj["a"]),
        b=_sequence_from_obj(obj["b"]),
        grid_residual=float(obj["grid_residual"]),
    )


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_sequence(path: str) -> CoefficientSequence:
    return _sequence_from_obj(_read_json(path))


def load_pair(path: str) -> NlftPair:
    return _pair_from_obj(_read_json(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _diag(message: str, to_stdout: bool) -> None:
    print(message, file=sys.stdout if to_stdout else sys.stderr)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; this tool reserves 2 for
    # numerical failures, so downgrade usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_SUPPORT_FORM = re.compile(r"(-?\d+)\.\.(-?\d+)")


def _parse_support(text: str) -> tuple[int, int]:
    m = _SUPPORT_FORM.fullmatch(text.strip())
    if not m:
        raise ValidationError(
            f"bad --support {text!r}; expected the form m..M"
        )
    lo, hi = int(m.group(1)), int(m.group(2))
    if hi < lo:
        raise ValidationError(f"--support window [{lo}, {hi}] is empty")
    return lo, hi


def _build_parser() -> _Parser:
    parser = _Parser(prog="su2nlft",
                     description="SU(2) nonlinear Fourier transform tool")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--grid", type=int,
                       help="grid size, a power of two (default: auto)")
        p.add_argument("--seed", type=int, help="seed for randomized checks")

    p = sub.add_parser("forward", help="transform a sequence into a pair")
    p.add_argument("--input", required=True, help="sequence JSON file")
    common(p)

    p = sub.add_parser("inverse", help="recover the sequence from b")
    p.add_argument("--b", required=True, help="sequence JSON file for b")
    p.add_argument("--a", help="optional sequence JSON for a (skips completion)")
    p.add_argument("--support", help="recovery window m..M")
    p.add_argument("--tol", type=float, help="solver tolerance")
    p.add_argument("--imaginary", action="store_true",
                   help="require the recovered entries to be purely imaginary")
    p.add_argument("--csv", help="write per-index solver record CSV; "
                   "solver_residual is the gap of the pivot identity")
    common(p)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--input", help="sequence or pair JSON file")
    p.add_argument("--b", help="sequence JSON file for b (inverse-first suite)")
    p.add_argument("--support", help="recovery window m..M for --b input")
    p.add_argument("--tol", type=float, help="solver tolerance")
    p.add_argument("--weight", help="restrict to one weight, e.g. poly:alpha=1.0")
    p.add_argument("--csv", help="write decay CSV (n, |F_n|, first-order rhs)")
    common(p)

    p = sub.add_parser("norms", help="print norms of a sequence")
    p.add_argument("--input", required=True, help="sequence JSON file")
    p.add_argument("--weight", help="extra weight descriptor to evaluate")
    common(p)

    return parser


def _apply_overrides(cfg: Config, args) -> Config:
    if getattr(args, "grid", None) is not None:
        cfg.grid_size = args.grid
    if getattr(args, "tol", None) is not None:
        cfg.solver_tol = args.tol
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "weight", None) is not None:
        cfg.weight = args.weight
    if getattr(args, "support", None):
        cfg.window = _parse_support(args.support)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _require_determinant(pair: NlftPair, what: str) -> None:
    if not pair.grid_residual <= PAIR_VALIDATION_TOL:  # NaN fails too
        raise DeterminantError(
            f"{what} has determinant residual "
            f"{pair.grid_residual:.3e} > {PAIR_VALIDATION_TOL:.1e}"
        )


def cmd_forward(args, cfg: Config) -> int:
    F = load_sequence(args.input)
    pair = nlft_forward(F, cfg.n_points)
    _require_determinant(pair, "forward result")
    _emit(pair_to_json(pair), args.out)
    to_stdout = args.out is not None
    _diag(f"a_star_zero = {_fmt(float(np.real(pair.a.coefficient(0))))}",
          to_stdout)
    _diag(f"determinant_residual = {pair.grid_residual:.3e}", to_stdout)
    return 0


def _write_convergence_csv(path: str, records) -> None:
    # the records come from layer stripping, so solver_residual is the gap
    # of its leaf's pivot identity (see layer_strip_detailed), not
    # ||B - T A||
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "solver_residual", "solution_norm", "rhs_norm"])
        for r in records:
            writer.writerow([r.n, f"{r.residual:.17g}",
                             f"{r.solution_norm:.17g}", f"{r.rhs_norm:.17g}"])


def _require_pass_length(b: CoefficientSequence, hi: int) -> None:
    """Reject a strip up to ``hi`` whose pass, over ``[lo(b), hi]``, is
    longer than ``MAX_WINDOW_WIDTH``; it costs O(N log^3 N) in that
    length ``N`` (``inverse.layer_strip_detailed``)."""
    length = hi - (0 if b.is_empty else b.support_lo) + 1
    if length > MAX_WINDOW_WIDTH:
        raise ValidationError(
            f"stripping up to index {hi} takes a pass of length {length}, "
            f"which exceeds the cap {MAX_WINDOW_WIDTH}"
        )


def cmd_inverse(args, cfg: Config) -> int:
    b = load_sequence(args.b)
    if cfg.window is None:
        raise ValidationError("inverse needs --support m..M (or window in config)")
    _require_pass_length(b, cfg.window[1])
    if args.a is not None:
        a = load_sequence(args.a)
        pair = pair_from_sequences(a, b, cfg.n_points)
        _require_determinant(pair, "supplied pair")
        F, records = layer_strip_detailed(pair, cfg.window, tol=cfg.solver_tol)
        report = InverseReport(pair.grid_residual, records,
                               max_abs_difference(nlft_forward(F).b, b))
    else:
        F, report = inverse_nlft_detailed(
            b, cfg.window, n_points=cfg.n_points, tol=cfg.solver_tol,
            szego_margin=cfg.szego_margin,
        )
    _emit(sequence_to_json(F), args.out)
    if args.csv:
        _write_convergence_csv(args.csv, report.records)
    to_stdout = args.out is not None
    round_trip = report.round_trip_residual
    _diag(f"round_trip_residual = {round_trip:.3e}", to_stdout)
    _diag(f"max_solver_residual = {report.max_solver_residual:.3e}", to_stdout)
    if round_trip > cfg.round_trip_tol:
        _diag(f"round trip missed: {round_trip:.3e} > {cfg.round_trip_tol:.1e}",
              to_stdout)
        return 2
    if args.imaginary and not F.is_empty:
        worst = float(np.max(np.abs(np.real(F.coeffs))))
        if worst > cfg.round_trip_tol:
            _diag(
                f"imaginarity violated: max |Re F_n| = {worst:.3e} "
                f"> {cfg.round_trip_tol:.1e}",
                to_stdout,
            )
            return 2
    return 0


def cmd_verify(args, cfg: Config) -> int:
    if (args.input is None) == (args.b is None):
        raise ValidationError("verify needs exactly one of --input or --b")
    obj = None if args.input is None else _read_json(args.input)
    is_pair = isinstance(obj, dict) and "a" in obj
    if args.csv and (obj is None or is_pair):
        raise ValidationError("--csv needs a sequence input")
    weights = None
    if cfg.weight is not None:
        weights = [BeurlingWeight.from_descriptor(cfg.weight)]
    if is_pair:
        report = run_pair_checks(_pair_from_obj(obj), n_points=cfg.n_points,
                                 seed=cfg.seed)
    elif obj is not None:
        F = _sequence_from_obj(obj)
        report = run_suite(
            F=F, n_points=cfg.n_points, weights=weights,
            solver_tol=cfg.solver_tol, round_trip_tol=cfg.round_trip_tol,
            szego_margin=cfg.szego_margin, seed=cfg.seed,
        )
    else:
        b = load_sequence(args.b)
        _require_pass_length(
            b, b.support_hi if cfg.window is None else cfg.window[1])
        report = run_suite(
            b=b, support_window=cfg.window, n_points=cfg.n_points,
            weights=weights, solver_tol=cfg.solver_tol,
            round_trip_tol=cfg.round_trip_tol, szego_margin=cfg.szego_margin,
            seed=cfg.seed,
        )
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    for line in report.lines():
        print(line, file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "abs_F_n", "first_order_rhs"])
            # without b/a* the table is empty, and an error record exits 2
            for n, mag, rhs in report.decay_rows or ():
                writer.writerow([n, f"{mag:.17g}",
                                 "" if rhs is None else f"{rhs:.17g}"])
    return 0 if report.overall_pass else 2


def cmd_norms(args, cfg: Config) -> int:
    seq = load_sequence(args.input)
    descriptors = ["one"] + [f"poly:alpha={alpha}" for alpha in WEIGHT_EXPONENTS]
    if cfg.weight is not None and cfg.weight not in descriptors:
        descriptors.append(cfg.weight)
    weighted = {
        d: weighted_l1_norm(seq, BeurlingWeight.from_descriptor(d))
        for d in descriptors
    }
    out = {
        "support": None if seq.is_empty else [seq.support_lo, seq.support_hi],
        "l2": seq.l2_norm(),
        "weighted_l1": weighted,
        "sobolev": {f"{s:g}": sobolev_norm(seq, s) for s in SOBOLEV_ORDERS},
    }
    _emit(json.dumps(out, indent=2), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a lone "-4..6" for an option: join it to its --support
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--support" and _SUPPORT_FORM.fullmatch(argv[i]):
            argv[i - 1 : i + 1] = [f"--support={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(Config.from_env(), args)
        handler = {
            "forward": cmd_forward,
            "inverse": cmd_inverse,
            "verify": cmd_verify,
            "norms": cmd_norms,
        }[args.command]
        return handler(args, cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except NlftError as exc:  # pragma: no cover - defensive
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
