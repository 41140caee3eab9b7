#!/usr/bin/env python3
"""Benchmark for su2nlft: one workload, one process, one BLAS thread.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload forward-wide --seed 0 --seconds 10 --trace 0

The run is a closed loop with one caller.  It draws the workload's items
from the seed, runs one untimed warm-up item, then times whole passes
over the items until ``--seconds`` of timed calls have accumulated, and
checks every output against an oracle after each pass, outside the
timed region.  Set-up time is the median wall time of several
fresh-process ``python -m su2nlft.cli forward`` runs on a worked instance.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the run
then repeats one pass with the tracer installed and reports the
per-layer ones.  The line before it records the environment.  See
perfbench/README.md for the workloads and metrics.
"""

import os

# One BLAS / OpenMP thread, set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
MODULES = ("core", "forward", "spectral", "inverse", "verify")

SETUP_REPEATS = 5  # fresh CLI processes per run; the median is reported
CHILD_TIMEOUT_S = 60
WORKED_INPUT = {"support": [0, 1], "coeffs": [[0.5, 0.0], [0.5, 0.0]]}
WORKED_OUTPUT = {"a": (-1, [-0.2, 0.8]), "b": (0, [0.4, 0.4])}
WORKED_TOL = 1e-12


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def load_package() -> SimpleNamespace:
    """Import the package's modules from ``src/`` of the current checkout."""
    sys.path.insert(0, str(SRC))
    pkg = SimpleNamespace(**{m: importlib.import_module(f"su2nlft.{m}")
                             for m in MODULES})
    where = Path(pkg.core.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: su2nlft was imported from {where}, not {SRC}")
    return pkg


# ---------------------------------------------------------------------------
# fresh-process CLI runs: set-up time and the cli layer
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _worked_output_ok(stdout: str) -> bool:
    try:
        pair = json.loads(stdout)
        for key, (lo, want) in WORKED_OUTPUT.items():
            seq = pair[key]
            got = [complex(re, im) for re, im in seq["coeffs"]]
            if seq["support"] != [lo, lo + len(want) - 1]:
                return False
            if max(abs(g - w) for g, w in zip(got, want)) > WORKED_TOL:
                return False
    except (ValueError, KeyError, TypeError):
        return False
    return True


def _run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          env=_child_env(), timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def measure_setup(worked: Path) -> tuple[float, bool]:
    """Median wall time of ``python -m su2nlft.cli forward`` on the worked
    instance, after one untimed run; and whether every output was right."""
    argv = [sys.executable, "-m", "su2nlft.cli", "forward", "--input", str(worked)]
    times, ok = [], True
    for i in range(SETUP_REPEATS + 1):
        dt, proc = _run_child(argv)
        ok &= proc.returncode == 0 and _worked_output_ok(proc.stdout)
        if i:
            times.append(dt)
    return statistics.median(times), ok


def measure_cli_layer(worked: Path) -> tuple[dict, bool]:
    """Medians of in-process import and ``main()`` time in fresh processes."""
    argv = [sys.executable, str(HERE / "cli_probe.py"), "forward",
            "--input", str(worked)]
    runs, ok = [], True
    for _ in range(SETUP_REPEATS):
        _, proc = _run_child(argv)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            ok = False
            continue
        ok &= res["exit"] == 0 and _worked_output_ok(res["stdout"])
        runs.append(res)
    if not runs:
        return {}, False
    return {"cli.import_s": statistics.median(r["import_s"] for r in runs),
            "cli.main_s": statistics.median(r["main_s"] for r in runs)}, ok


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------


class Tally:
    """Per-item latencies, pass times and oracle outcomes of a run."""

    def __init__(self) -> None:
        self.latencies: list[list[float]] = []  # one list per pass
        self.pass_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.passed = 0
        self.observations: list[dict] = []


def run_pass(wl, tally: Tally, tracer: Tracer | None = None) -> None:
    """Time one call per item, then check every output."""
    outputs = []
    gc.collect()
    for i, item in enumerate(wl.items):
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.call(item)
            else:
                with tracer.item(i):
                    out = wl.call(item)
        except Exception:  # every exception is a failed item, reported
            traceback.print_exc()
            out = None
        outputs.append((out, time.perf_counter() - start))
    tally.latencies.append([dt for _, dt in outputs])
    tally.pass_seconds.append(sum(tally.latencies[-1]))
    for i, (out, _) in enumerate(outputs):
        tally.attempted += 1
        ok, obs = False, {}
        if out is not None:
            try:
                ok, obs = wl.check(wl.refs[i], out)
            except Exception:  # malformed output counts as an oracle miss
                traceback.print_exc()
        tally.observations.append(obs)
        if ok:
            tally.passed += 1
        else:
            tally.failed += 1
            print(f"item {i}: oracle failed {obs}", file=sys.stderr)


def run_timed(wl, seconds: float) -> Tally:
    """Warm-up item, then whole passes until ``seconds`` of timed calls."""
    try:
        wl.call(wl.items[0])
    except Exception:  # the same item fails again, and is counted, below
        traceback.print_exc()
    tally = Tally()
    while True:
        run_pass(wl, tally)
        if sum(tally.pass_seconds) >= seconds:
            return tally


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def install_tracer(pkg) -> Tracer:
    """Wrap the benchmark's entry points and the names the package looks
    up at call time; nothing is wrapped in an untraced run."""
    tr = Tracer()
    tr.count(pkg.core.CoefficientSequence, "__post_init__",
             "core.sequences_built")
    wraps = [
        (pkg.forward, "nlft_forward", "forward.nlft_forward", True),
        (pkg.spectral, "outer_complement", "spectral.outer_complement", True),
        (pkg.inverse, "inverse_nlft_detailed", "inverse.inverse_nlft_detailed", True),
        (pkg.verify, "run_suite", "verify.run_suite", False),
        (pkg.verify, "nlft_forward", "forward.nlft_forward", True),
        (pkg.verify, "inverse_nlft_detailed", "inverse.inverse_nlft_detailed", True),
        (pkg.inverse, "outer_complement", "spectral.outer_complement", True),
        (pkg.inverse, "layer_strip_detailed", "inverse.layer_strip_detailed", False),
        (pkg.inverse, "nlft_forward", "forward.nlft_forward", True),
        (pkg.inverse, "rh_solve", "inverse.rh_solve", False),
        (pkg.forward, "determinant_residual", "core.determinant_residual", False),
        (pkg.spectral, "determinant_residual", "core.determinant_residual", False),
    ]
    wraps += [(pkg.verify, name, f"verify.{name}", False)
              for name in sorted(vars(pkg.verify)) if name.startswith("check_")]
    for module, attr, span, keep in wraps:
        tr.wrap(module, attr, span, keep_result=keep)
    return tr


def layer_metrics(tr: Tracer, traced: Tally, n_items: int) -> dict:
    """Per-layer values from the spans, counts and outputs of one pass."""
    values: dict[str, float] = {"core.sequences_built": tr.counts["core.sequences_built"]}
    for name, st in tr.stats().items():
        for key, v in st.items():
            values[f"{name}.{key}"] = v

    def worst(span, attr):
        return max((getattr(r, attr, 0.0) for r in tr.results[span]), default=0.0)

    values["forward.det_residual_max"] = worst("forward.nlft_forward", "grid_residual")
    values["spectral.pair_residual_max"] = worst("spectral.outer_complement",
                                                 "grid_residual")
    reports = [r[1] for r in tr.results["inverse.inverse_nlft_detailed"]]
    values["inverse.solves_per_item"] = sum(
        len(getattr(r, "records", ())) for r in reports) / n_items
    values["inverse.solver_residual_max"] = max(
        (getattr(r, "max_solver_residual", 0.0) for r in reports), default=0.0)
    values["inverse.round_trip_residual_max"] = max(
        (getattr(r, "round_trip_residual", 0.0) for r in reports), default=0.0)
    values["inverse.recovery_err_max"] = max(
        (o.get("recovery_err", 0.0) for o in traced.observations), default=0.0)
    return values


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, wl, tally: Tally, tracer: Tracer | None) -> dict:
    import scipy

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_fingerprint": wl.fingerprint,
        "items_per_pass": len(wl.items),
        "pass_seconds": tally.pass_seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }
    env.update({v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    if tracer is not None:
        env["absent_traced_names"] = tracer.absent
    return env


def metric_block(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec}


def main() -> int:
    args = parse_args()
    if not (SRC / "su2nlft" / "__init__.py").is_file():
        print(f"error: no su2nlft sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pkg = load_package()
    OUT.mkdir(exist_ok=True)
    worked = OUT / "worked.json"
    worked.write_text(json.dumps(WORKED_INPUT))

    setup_s, setup_ok = measure_setup(worked)
    wl = workloads.build(args.workload, pkg, args.seed)
    tally = run_timed(wl, args.seconds)
    correct = setup_ok
    tracer = None

    if args.trace:
        cli_values, cli_ok = measure_cli_layer(worked)
        correct &= cli_ok
        tracer = install_tracer(pkg)
        traced = Tally()
        try:
            run_pass(wl, traced, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        values = layer_metrics(tracer, traced, len(wl.items))
        values.update(cli_values)
        values["trace.overhead_frac"] = (
            traced.pass_seconds[0] / statistics.median(tally.pass_seconds) - 1.0)
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        metrics = metric_block(spec["per_layer"], values)
    else:
        (OUT / f"latencies-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"latencies_s": tally.latencies}))
        # Percentiles over every timed call of the run.  The host's speed
        # drifts by 10-20% over tens of seconds; pooling the passes
        # averages that drift, where each item's fastest call picks one
        # lucky moment and varies more from run to run (see README.md).
        call_ms = np.concatenate(tally.latencies) * 1e3
        values = {
            "setup_s": setup_s,
            "items_per_s": tally.passed / sum(tally.pass_seconds),
            "latency_p50_ms": float(np.percentile(call_ms, 50)),
            "latency_p90_ms": float(np.percentile(call_ms, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = metric_block(spec["end_to_end"], values)

    print(json.dumps({"environment": environment(args, wl, tally, tracer)}))
    print(json.dumps({
        "correct": bool(correct and tally.failed == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
