"""Benchmark of the restent CLI, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the sources under ``src/`` as they
are.  Every repetition of a workload runs in a fresh ``python3`` process
(``bench/child.py``) that imports ``restent.cli`` and calls ``cli.main(argv)``
once per CLI invocation of the workload, with the default numpy/BLAS
threading, while the speed probe of ``bench/probe.py`` samples how fast the
shared machine runs.  Repetitions follow one another (a closed loop with one client)
while the next one would still end within ``--seconds``; at least one runs.

``--trace 0`` reports the end-to-end metrics, each a median over the run:
set-up time (median of several fresh imports), wall time rescaled to the
probe's reference speed, peak RSS, the gap
of the headline results to their references, and the shares of operations
and grid points that succeeded.  ``--trace 1`` runs the workload once plain
and once with every layer wrapped (``bench/tracer.py``) and reports per-layer
counts and times plus the tracing overhead.

Outputs are checked on every repetition (``bench/workloads.py``), and every
``*.points.csv`` must be byte-identical across repetitions, across runs of
the same sources and between traced and plain runs.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files live under ``.bench_build/bench``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PROPERTIES, REF_GAP_FLOOR, WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".bench_build" / "bench"
SETUP_SAMPLES = 4          # import-only processes per run, besides each repetition
RUN_LIMIT_S = 170.0        # a run ends well inside the 180 s allowed


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # The worker-count knob is a setting the roadmap removes; leave it unset
    # so every run uses the program's default.
    env.pop("RESTENT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args, deadline) -> tuple[float, dict]:
    """Start a fresh child, wait for it and return (start time, its JSON)."""
    result_path = STATE / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                             "--result", str(result_path), *args],
                            cwd=ROOT, env=_child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"child {args} did not finish before the run's time limit")
    if code != 0 or not result_path.exists():
        raise BenchError(f"child {args} exited with code {code} and no result")
    with open(result_path, "r", encoding="utf-8") as fh:
        out = json.load(fh)
    result_path.unlink()
    return start, out


def _setup_samples(count, deadline) -> tuple[list, list]:
    """Set-up times of import-only processes, and the environment lines the
    first of them reports."""
    samples, environment = [], []
    for _ in range(count):
        start, out = _spawn([], deadline)
        samples.append(out["ready"] - start)
        environment = environment or out["environment"]
    return samples, environment


def _repetition(workload, mode, deadline) -> dict:
    """One fresh process running the workload; mode is None, "--probe" or "--trace"."""
    workdir = STATE / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        args = ["--workload", workload, "--workdir", str(workdir)]
        start, out = _spawn(args + ([mode] if mode else []), deadline)
        out["setup_s"] = out["ready"] - start
        out["ops"] = WORKLOADS[workload].check(out["calls"], workdir)
        out["csv"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(workdir.glob("*.points.csv"))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["rep_s"] = time.monotonic() - start
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _csv_consistent(workload, reps) -> bool:
    """Same points.csv bytes in every repetition and in every earlier run of
    the same sources (remembered under .bench_build)."""
    first = reps[0]["csv"]
    if any(rep["csv"] != first for rep in reps[1:]):
        print("points.csv differs between repetitions of this run")
        return False
    ref_path = STATE / f"points-{workload}-{_source_digest()}.json"
    if ref_path.exists():
        with open(ref_path, "r", encoding="utf-8") as fh:
            if json.load(fh) != first:
                print(f"points.csv differs from an earlier run of these sources ({ref_path.name})")
                return False
        return True
    tmp = ref_path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(first, fh)
    os.replace(tmp, ref_path)
    return True


def _op_totals(reps):
    ops = [op for rep in reps for op in rep["ops"]]
    failed = [op for op in ops if not op.ok]
    unexpected = [op for op in failed if not op.known_defect]
    points = sum(op.points for op in ops)
    excluded = sum(op.excluded for op in ops)
    return ops, failed, unexpected, points, excluded


def _ref_gap(rep) -> float:
    gaps = [op.gap for op in rep["ops"] if op.gap is not None]
    return max([REF_GAP_FLOOR, *gaps])


def measure(workload, seconds, setups, deadline):
    """End-to-end metrics over the repetitions of one run."""
    reps = []
    started = time.monotonic()
    while True:
        rep = _repetition(workload, "--probe", deadline)
        reps.append(rep)
        print(f"repetition {len(reps)}: wall {rep['wall_s']:.3f} s, "
              f"at reference speed {rep['norm_wall_s']:.3f} s "
              f"({rep['probe_ticks']} probe ticks of median {1e3 * (rep['probe_tick_s'] or 0):.1f} ms), "
              f"set-up {rep['setup_s']:.3f} s, rss {rep['peak_rss_mb']:.1f} MB, "
              f"cpu {rep['cpu_s']:.3f} s")
        if time.monotonic() + 2 * rep["rep_s"] > deadline:
            break
        elapsed = time.monotonic() - started
        if elapsed + rep["rep_s"] > seconds:
            break
    setups = setups + [rep["setup_s"] for rep in reps]
    ops, failed, _, points, excluded = _op_totals(reps)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "norm_wall_s": (statistics.median(rep["norm_wall_s"] for rep in reps), "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reps), "MB"),
        "ref_gap": (statistics.median(_ref_gap(rep) for rep in reps), "1"),
        "ops_ok_frac": (1.0 - len(failed) / len(ops), "1"),
        "points_kept_frac": (1.0 - excluded / points if points else 1.0, "1"),
    }
    # Wall time as measured drifts with the host's speed; it is shown, not bounded.
    print(f"wall_s {statistics.median(rep['wall_s'] for rep in reps):.6g} s (as measured)")
    print(f"failed_frac {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)} operations)")
    print(f"excluded_frac {excluded / points if points else 0.0:.6g} "
          f"({excluded}/{points} grid points)")
    return reps, metrics


def trace(workload, deadline):
    """Per-layer metrics from one traced repetition, next to a plain one."""
    # Neither process runs the probe: its ticks would land in layer times.
    plain = _repetition(workload, None, deadline)
    traced = _repetition(workload, "--trace", deadline)
    reps = [plain, traced]
    layers = dict(traced["layers"])
    times = traced["property_s"]
    for name in PROPERTIES:
        layers[f"props.{name}.s"] = (times.get(name) or 0.0, "s")
    absent = traced["absent"] + [f"props.{n}" for n, v in times.items() if v is None]
    layers["cli.bytes_out"] = (traced["bytes_out"], "bytes")
    layers["cli.cpu_s"] = (traced["cpu_s"], "s")
    layers["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    layers["trace.traced_wall_s"] = (traced["wall_s"], "s")
    layers["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "1")
    layers["trace.absent"] = (len(absent), "count")
    if absent:
        print("absent layer names: " + ", ".join(absent))
    return reps, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; every workload is fixed (see bench/README.md)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "restent" / "cli.py").is_file():
        print(f"no restent sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    STATE.mkdir(parents=True, exist_ok=True)
    try:
        setups, environment = _setup_samples(1 if args.trace else SETUP_SAMPLES, deadline)
        for line in environment:
            print(line)
        if args.trace:
            reps, metrics = trace(args.workload, deadline)
        else:
            reps, metrics = measure(args.workload, args.seconds, setups, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    ops, failed, unexpected, _, _ = _op_totals(reps)
    for op in failed:
        print(f"FAILED {op.name}" + (" (known defect)" if op.known_defect else ""))
    correct = not unexpected and _csv_consistent(args.workload, reps)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
