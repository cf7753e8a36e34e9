"""The benchmark's four workloads and the checks on their outputs.

Each workload is a list of CLI invocations that one fresh process runs
through ``restent.cli.main(argv)``.  An operation is one requested result:
one bound, one sweep horizon, one oracle run or one property.  The checks
turn a process's captured output and files into one ``Op`` per operation.

The workloads are the fixed reproduction runs of the README and the
roadmap; none of them takes the benchmark seed (see ``PROPS_SEED``).
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

LANFORD_REF = 2.0 * (2.0 * (2.0 / 3.0) - 1.0) / math.log(2.0)
# A gap below this reads as this value.  1e-6 is the agreement the roadmap
# asks of the oracle when its integrator changes, far below every check
# tolerance; below it a gap is rounding noise and no share of it means much.
REF_GAP_FLOOR = 1e-6
HORIZONS = (1, 2, 4, 8, 16)
PROPS_INSTANCES = 50
# The README's property run.  The suite's cost and worst/tolerance ratios
# depend strongly on its seed (9.5-13.4 s and 0.0030-0.0064 over seeds
# 11-15), far beyond any bound the benchmark could hold across seeds, so the
# benchmark seed is not passed on.
PROPS_SEED = 42
PROPERTIES = (
    "isometry-of-congruence",
    "triangle-majorization",
    "reversal-identity",
    "geodesic-segment",
    "midpoint-contraction",
    "geodesic-equivariance",
    "geodesic-convexity",
    "barycenter-equivariance",
    "barycenter-perturbation",
    "barycenter-perturbation-iterative",
    "barycenter-permutation",
    "inductive-mean-scalar",
    "spectrum-three-way",
    "singular-value-derivative",
    "sqrt-factor-derivative",
)


@dataclass
class Op:
    """Outcome of one requested result."""

    name: str
    ok: bool
    gap: Optional[float] = None    # distance of the result from its reference
    points: int = 0                # grid points attempted
    excluded: int = 0              # grid points excluded, escaped or lost
    known_defect: bool = False     # documented failure, see bench/README.md


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    invocations: list
    check: Callable[[list, Path], list]


def _load(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def _bound_op(name, path, ref, tol, grid_points, gap=True, known_defect=False,
              extra_ok=True):
    """One bound read from its report; a missing report loses every grid
    point the bound was asked for."""
    report = _load(path)
    if report is None:
        return Op(name, ok=False, points=grid_points, excluded=grid_points,
                  known_defect=known_defect), None
    value = float(report["bound"])
    excluded = len(report["excluded"])
    op = Op(name, ok=extra_ok and abs(value - ref) <= tol,
            gap=abs(value - ref) if gap else None,
            points=len(report["per_point"]) + excluded, excluded=excluded,
            known_defect=known_defect)
    return op, value


# --- dense-grid ------------------------------------------------------------

_SPOT = re.compile(r"invariance spot check: (\d+)/(\d+) escaped")


def _check_dense(calls, workdir):
    lanford, diag = calls
    spot = _SPOT.search(lanford["stdout"])
    escaped, spot_points = (int(spot[1]), int(spot[2])) if spot else (0, 0)
    op, _ = _bound_op("lanford bound", workdir / "lanford.report.json",
                      LANFORD_REF, 1e-3, 21 ** 3,
                      extra_ok=lanford["rc"] == 0 and spot is not None and escaped == 0)
    op.points += spot_points
    op.excluded += escaped
    diag_op, _ = _bound_op("diag(2,0.5) bound", workdir / "diag.report.json",
                           1.0, 1e-9, 161 ** 2, extra_ok=diag["rc"] == 0)
    return [op, diag_op]


# --- oracle ----------------------------------------------------------------

def _check_oracle(calls, workdir):
    (call,) = calls
    report = _load(workdir / "oracle.report.json")
    if report is None or call["rc"] != 0:
        return [Op("lanford oracle", ok=False, points=11 ** 3, excluded=11 ** 3)]
    with open(workdir / "oracle.points.csv", "r", encoding="utf-8") as fh:
        kept = sum(1 for _ in fh) - 1
    excluded = len(report["excluded"])
    gap = abs(report["aitken"] - LANFORD_REF)
    ok = (report["horizons"][-1] == 40.0 and gap <= 0.01
          and abs(report["values"][-1] - LANFORD_REF) <= 0.05)
    return [Op("lanford oracle", ok=ok, gap=gap, points=kept + excluded,
               excluded=excluded)]


# --- auto-metrics ----------------------------------------------------------

def _check_auto(calls, workdir):
    auto3 = calls[-1]
    ops = []
    previous = math.inf
    for h in HORIZONS:
        # every Jordan horizon is within 0.05 of 2 and the sweep is
        # nonincreasing within 0.01; the reference gap is read at h = 16
        op, value = _bound_op(f"jordan sweep h{h}", workdir / f"jordan.h{h}.report.json",
                              2.0, 0.05, 4, gap=h == HORIZONS[-1])
        if value is not None:
            op.ok = op.ok and value <= previous + 0.01
            previous = value
        ops.append(op)
    for h in HORIZONS:
        # auto:16 fails today: its inverse-Gram atom exceeds the condition
        # cap at all 4 grid points, so the whole horizon is excluded
        op, _ = _bound_op(f"diag(2,0.5) sweep h{h}", workdir / f"diag.h{h}.report.json",
                          1.0, 1e-9, 4, known_defect=h == 16)
        ops.append(op)
    op, _ = _bound_op("lanford auto:3 bound", workdir / "auto3.report.json",
                      LANFORD_REF, 1e-3, 7, extra_ok=auto3["rc"] == 0)
    ops.append(op)
    return ops


# --- props -----------------------------------------------------------------

_PROP = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+worst (\S+)\s+tol (\S+)", re.M)


def _check_props(calls, workdir):
    (call,) = calls
    found = {m[2]: m for m in _PROP.finditer(call["stdout"])}
    ops = []
    for name in PROPERTIES:
        m = found.get(name)
        if m is None:
            ops.append(Op(f"property {name}", ok=False))
            continue
        ops.append(Op(f"property {name}", ok=m[1] == "PASS",
                      gap=float(m[3]) / float(m[4])))
    return ops


def _sweep(matrix, out):
    return ["sweep", "--system", "linmap", "--matrix", matrix,
            "--horizons", ",".join(str(h) for h in HORIZONS),
            "--resolution", "2", "--bar-tol", "1e-5", "--out", out]


WORKLOADS = {
    "dense-grid": Workload(
        invocations=[
            ["lanford", "--resolution", "21", "--out", "lanford"],
            ["bound", "--system", "linmap", "--matrix", "diag:2,0.5",
             "--metric", "identity", "--resolution", "161", "--out", "diag"],
        ],
        check=_check_dense,
    ),
    "oracle": Workload(
        invocations=[
            ["oracle", "--system", "lanford", "--resolution", "11",
             "--horizons", "5,10,20,40", "--out", "oracle"],
        ],
        check=_check_oracle,
    ),
    "auto-metrics": Workload(
        invocations=[
            _sweep("[[2,1],[0,2]]", "jordan"),
            _sweep("diag:2,0.5", "diag"),
            ["bound", "--system", "lanford", "--metric", "auto:3",
             "--time-samples", "16", "--resolution", "3", "--out", "auto3"],
        ],
        check=_check_auto,
    ),
    "props": Workload(
        invocations=[
            ["props", "--seed", str(PROPS_SEED), "--instances", str(PROPS_INSTANCES)],
        ],
        check=_check_props,
    ),
}
