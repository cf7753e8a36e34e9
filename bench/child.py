"""One fresh benchmark process.

    python3 bench/child.py --result FILE [--workload NAME --workdir DIR [--trace | --probe]]

Imports ``restent.cli`` first, so the monotonic clock reading taken right
after the import marks the end of set-up.  Without ``--workload`` it only
reports the environment.  Otherwise it runs the workload's CLI invocations through
``cli.main(argv)`` inside ``DIR``, capturing each one's exit code and output,
and writes everything as JSON to ``FILE``.  With ``--trace`` the layers are
wrapped by ``tracer.Tracer`` while the CLI runs; with ``--probe`` the speed
probe of ``probe.Probe`` runs alongside, and the wall time is reported both
as measured and rescaled to the probe's reference speed.
"""
import time

import restent.cli as cli

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _invoke(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:                  # a crash is a failed operation
            traceback.print_exc()
            rc = None
    sys.stderr.write(err.getvalue())
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _environment() -> list:
    """nproc, Python, numpy, scipy, the BLAS library and its thread count."""
    import ctypes

    import numpy
    import scipy

    lines = [f"nproc {os.cpu_count()}", f"python {platform.python_version()}",
             f"numpy {numpy.__version__}", f"scipy {scipy.__version__}"]
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        lines.append(f"blas {blas.get('name')} {blas.get('version')}")
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for lib in libs[:1]:
            getter = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
            getter.restype = ctypes.c_int
            lines.append(f"blas threads {getter()}")
    except (OSError, AttributeError, KeyError) as exc:
        lines.append(f"environment incomplete: {exc!r}")
    return lines


def _property_times() -> dict:
    """Untraced time of each property alone; run_property_suite reseeds per
    property, so each call repeats that property's share of the CLI run."""
    from restent.props import run_property_suite

    times = {}
    for name in workloads.PROPERTIES:
        start = time.perf_counter()
        done = run_property_suite(seed=workloads.PROPS_SEED,
                                  instances=workloads.PROPS_INSTANCES,
                                  names=[name])
        times[name] = time.perf_counter() - start if done else None
    return times


def run(args) -> dict:
    argvs = workloads.WORKLOADS[args.workload].invocations
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = Path(args.workdir)
    os.chdir(workdir)
    cpu = _cpu_s()
    if args.probe:
        from probe import Probe

        with Probe() as speed:
            calls = [_invoke(argv) for argv in argvs]
        timing = speed.summary()
        cpu = _cpu_s() - cpu - sum(tick_cpu for _, _, tick_cpu in speed.ticks)
    else:
        start = time.perf_counter()
        calls = [_invoke(argv) for argv in argvs]
        timing = {"wall_s": time.perf_counter() - start}
        cpu = _cpu_s() - cpu
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {**timing, "cpu_s": cpu, "peak_rss_mb": rss_mb, "calls": calls,
              "bytes_out": sum(p.stat().st_size for p in workdir.iterdir() if p.is_file())}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["absent"] = sorted(tracer.absent)
        result["property_s"] = _property_times() if args.workload == "props" else {}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--workdir")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    out = {"ready": READY}
    if args.workload:
        out.update(run(args))
    else:
        out["environment"] = _environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
