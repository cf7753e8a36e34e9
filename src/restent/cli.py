"""Command-line front end.

Commands
--------
bound    one bound computation for a system + metric, JSON/CSV reports
sweep    bound per horizon with the minimizing-metric sequence
oracle   finite-time Lyapunov-exponent estimate with Aitken extrapolation
lanford  full reproduction run for the built-in 3-D polynomial system
props    randomized geometry/spectrum property suite

Exit codes: 0 success, 1 configuration error, 2 numeric failure,
3 invariance spot-check failure, 4 property violation.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone

import numpy as np

from .dynamics import (
    CompactSet,
    default_region,
    invariance_spot_check,
    lanford_region,
    make_system,
)
from .entropy import (
    BoundReport,
    ct_bound,
    dt_bound,
    lanford_closed_form,
    lanford_metric,
    lyapunov_oracle,
    minimizing_metric_ct,
    minimizing_metric_dt,
    proximate_entropy,
)
from .errors import ConfigError, NumericError, ToolkitError
from .metrics import MetricField


class _InvarianceFailure(ToolkitError):
    pass


def _numbers(parts, kind, what: str) -> list:
    """Every entry converted by ``kind``; a malformed one is a ConfigError."""
    try:
        return [kind(p) for p in parts]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {what} {parts!r}: {exc}") from exc


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def _parse_matrix(spec) -> np.ndarray:
    """Matrix from 'diag:2,0.5', inline JSON, a JSON file or nested lists."""
    if isinstance(spec, str) and spec.startswith("diag:"):
        return np.diag(_numbers(spec[len("diag:"):].split(","), float, "matrix spec"))
    try:
        rows = spec
        if isinstance(spec, str):
            rows = json.loads(spec) if spec.strip().startswith("[") else \
                _load_json(spec, "matrix spec")
        return np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse matrix spec {spec!r}: {exc}") from exc


def _parse_box(spec) -> CompactSet:
    """Box from 'lo:hi,lo:hi,...' or a list of [lo, hi] pairs."""
    pairs = [axis.split(":") for axis in spec.split(",")] if isinstance(spec, str) else spec
    try:
        bounds = tuple((float(lo), float(hi)) for lo, hi in pairs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse box {spec!r}: {exc}") from exc
    return CompactSet(bounds=bounds)


def _parse_resolution(spec):
    """Grid count from an int, a list or 'n' / 'n1,n2,...'."""
    if spec is None:
        return None
    if isinstance(spec, (list, tuple)):
        return _numbers(spec, int, "resolution")
    counts = _numbers(str(spec).split(","), int, "resolution")
    return counts[0] if len(counts) == 1 else counts


def _parse_horizons(spec) -> list:
    """Horizons from '1,2,4', '[1,2,4]' or a list of numbers."""
    if isinstance(spec, str):
        spec = spec.strip().strip("[]").split(",")
    return _numbers(spec, float, "horizons")


def _build_system(args):
    cfg = {}
    if getattr(args, "config", None):
        cfg = _load_json(args.config, "config file")
    name = args.system or cfg.get("system") or cfg.get("name")
    if not name:
        raise ConfigError("no system given (use --system or a config file)")
    params = dict(cfg.get("params", {}))
    if name == "lanford" and args.a is not None:
        params["a"] = float(args.a)
    if name in ("linmap", "linode"):
        spec = args.matrix if args.matrix is not None else params.get("matrix")
        if spec is None:
            raise ConfigError(f"system {name!r} needs --matrix")
        params["matrix"] = _parse_matrix(spec)
    if name == "identity":
        params.setdefault("dim", int(args.dim or 2))
    system = make_system(name, **params)

    if args.box or "box" in cfg:
        region = _parse_box(args.box or cfg["box"])
    else:
        region = default_region(system)
    if region.dim != system.dim:
        raise ConfigError(f"box dimension {region.dim} != system dimension {system.dim}")

    resolution = _parse_resolution(args.resolution or cfg.get("resolution")) or 9
    return system, region, resolution, cfg


def _positive_option(args, name: str, default: float) -> float:
    """A float flag that must be positive when given, else its default."""
    value = getattr(args, name, None)
    if value is None:
        return default
    if not value > 0:
        raise ConfigError(f"--{name.replace('_', '-')} must be positive, got {value}")
    return float(value)


def _build_metric(spec, system, args):
    spec = spec or "identity"
    bar_tol = _positive_option(args, "bar_tol", 1e-7)
    if spec == "identity":
        return MetricField.identity(system.dim)
    if spec.startswith("constant:"):
        return MetricField.constant(_parse_matrix(spec[len("constant:"):]),
                                    label="constant")
    if spec == "lanford-exp":
        if system.name != "lanford":
            raise ConfigError("the lanford-exp metric only fits the lanford system")
        return lanford_metric(system.params["a"])
    if spec.startswith("auto:"):
        value = spec[len("auto:"):]
        if system.time_type == "discrete":
            try:
                steps = int(value)
            except ValueError as exc:
                raise ConfigError("auto:<N> needs an integer step count for "
                                  "discrete systems") from exc
            return minimizing_metric_dt(system, steps, tol=bar_tol)
        try:
            horizon = float(value)
        except ValueError as exc:
            raise ConfigError("auto:<T> needs a numeric horizon for "
                              "continuous systems") from exc
        samples = getattr(args, "time_samples", None)
        return minimizing_metric_ct(system, horizon, tol=bar_tol,
                                    time_samples=64 if samples is None else samples)
    raise ConfigError(f"unknown metric {spec!r}")


def _run_spot_check(system, region, resolution, horizon, require):
    res = min(9, resolution if isinstance(resolution, int) else min(resolution))
    report = invariance_spot_check(system, region, res, horizon)
    print(f"invariance spot check: {report.n_escaped}/{report.n_points} "
          f"escaped within t={report.horizon:g} (fraction {report.fraction:.4f})")
    if require and report.fraction > 0.0:
        raise _InvarianceFailure(
            f"{report.n_escaped} grid points left the declared set; first exits "
            f"{report.first_exit[:3]}")
    return report


def _compute_bound(system, region, metric, resolution, args):
    refine = bool(getattr(args, "refine", False))
    if system.time_type == "discrete":
        return dt_bound(system, region, metric, resolution, refine=refine)
    return ct_bound(system, region, metric, resolution, refine=refine)


def _write_bound_outputs(report: BoundReport, stem: str):
    report.to_json(f"{stem}.report.json")
    report.to_csv(f"{stem}.points.csv")
    print(f"wrote {stem}.report.json and {stem}.points.csv")


def cmd_bound(args) -> int:
    system, region, resolution, _ = _build_system(args)
    metric = _build_metric(args.metric, system, args)
    if args.check_invariance:
        _run_spot_check(system, region, resolution,
                        horizon=float(args.check_horizon), require=True)
    report = _compute_bound(system, region, metric, resolution, args)
    print(f"bound: {report.bound:.6f} {report.units}")
    print(f"maximizer: {np.array(report.maximizer)}")
    if report.excluded:
        print(f"excluded {len(report.excluded)} sample point(s); see report")
    _write_bound_outputs(report, args.out or f"bound_{system.name}")
    return 0


def cmd_sweep(args) -> int:
    system, region, resolution, cfg = _build_system(args)
    horizons = args.horizons or cfg.get("horizons")
    if not horizons:
        raise ConfigError("sweep needs a nonempty --horizons list")
    horizons = _parse_horizons(horizons)
    stem = args.out or f"sweep_{system.name}"
    rows = []
    for h in horizons:
        spec = f"auto:{int(h)}" if system.time_type == "discrete" else f"auto:{h:g}"
        metric = _build_metric(spec, system, args)
        report = _compute_bound(system, region, metric, resolution, args)
        rows.append((h, report.bound))
        hstem = f"{stem}.h{h:g}"
        report.to_json(f"{hstem}.report.json")
        report.to_csv(f"{hstem}.points.csv")
        print(f"horizon {h:g}: bound {report.bound:.6f} {report.units}")
    with open(f"{stem}.sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["horizon", "bound"])
        for h, b in rows:
            writer.writerow([format(h, ".17g"), format(b, ".17g")])
    bounds = [b for _, b in rows]
    slack = 1e-6 + 0.02 * max(1.0, abs(bounds[0]))
    monotone = all(b2 <= b1 + slack for b1, b2 in zip(bounds, bounds[1:]))
    print(f"monotone nonincreasing within tolerance: {'yes' if monotone else 'NO'}")
    print(f"wrote {stem}.sweep.csv")
    return 0


def cmd_oracle(args) -> int:
    system, region, resolution, cfg = _build_system(args)
    horizons = _parse_horizons(args.horizons or cfg.get("horizons") or [5.0, 10.0, 20.0, 40.0])
    result = lyapunov_oracle(system, region, horizons=horizons, resolution=resolution)
    for t, v in zip(result.horizons, result.values):
        print(f"t={t:g}: {v:.6f} bits/time")
    print(f"aitken extrapolation: {result.aitken:.6f}")
    if result.excluded:
        print(f"excluded {len(result.excluded)} blown-up sample point(s)")
    stem = args.out or f"oracle_{system.name}"
    payload = {
        "schema_version": 1,
        "kind": "oracle",
        "system": system.name,
        "params": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                   for k, v in system.params.items()},
        "region": region.descriptor(),
        "resolution": result.resolution,
        "horizons": result.horizons,
        "values": result.values,
        "aitken": result.aitken,
        "excluded": result.excluded,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    with open(f"{stem}.report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    with open(f"{stem}.points.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        dim = system.dim
        writer.writerow([f"x{i}" for i in range(dim)]
                        + [f"lam{i + 1}" for i in range(dim)])
        for prof in result.profiles:
            writer.writerow([format(v, ".17g") for v in prof.x]
                            + [format(v, ".17g") for v in prof.exponents])
    print(f"wrote {stem}.report.json and {stem}.points.csv")
    return 0


def cmd_lanford(args) -> int:
    a = float(args.a if args.a is not None else 2.0 / 3.0)
    system = make_system("lanford", a=a)
    region = lanford_region(a)
    resolution = _parse_resolution(args.resolution) or 21
    reference = lanford_closed_form(a)
    heteroclinic = abs(a - 2.0 / 3.0) < 1e-9
    _run_spot_check(system, region, resolution, horizon=float(args.check_horizon),
                    require=heteroclinic)
    if not heteroclinic:
        print("note: for a != 2/3 no compact forward-invariant set with interior "
              "exists; the bound is still valid for any invariant subset")
    metric = lanford_metric(a)
    report = ct_bound(system, region, metric, resolution, refine=True)
    o2 = np.array([0.0, 0.0, a])
    lower = proximate_entropy(system, o2)
    print(f"closed-form reference : {reference:.6f} bits/time")
    print(f"metric bound          : {report.bound:.6f} bits/time "
          f"(resolution {report.resolution})")
    print(f"equilibrium lower est : {lower:.6f} bits/time")
    if args.with_oracle:
        cap = (min(11, resolution) if isinstance(resolution, int)
               else [min(11, c) for c in resolution])
        res = lyapunov_oracle(system, region, resolution=cap)
        report.oracle = res.value
        print(f"oracle at t={res.horizons[-1]:g}    : {res.value:.6f} bits/time "
              f"(aitken {res.aitken:.6f})")
    gap = abs(report.bound - reference)
    print(f"bound-vs-reference gap: {gap:.2e}")
    _write_bound_outputs(report, args.out or "lanford")
    return 0


def cmd_props(args) -> int:
    from .props import run_property_suite   # scipy loads only for this command

    if args.tol is not None and float(args.tol) <= 0:
        raise ConfigError("tolerance override must be positive")
    dims = tuple(_numbers(args.dims.split(","), int, "dims")) if args.dims else (1, 2, 3, 5)
    results = run_property_suite(seed=int(args.seed), instances=int(args.instances),
                                 dims=dims)
    if args.tol is not None:
        for r in results:
            r.tolerance = float(args.tol)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{status}  {r.name:36s} worst {r.worst:.3e}  tol {r.tolerance:.1e}  "
              f"({r.instances} instances)")
    print(f"seed {args.seed}: {len(results) - failures}/{len(results)} properties passed")
    if args.out:
        payload = {
            "schema_version": 1,
            "kind": "props",
            "seed": int(args.seed),
            "instances": int(args.instances),
            "results": [{"name": r.name, "worst": r.worst,
                         "tolerance": r.tolerance, "passed": r.passed}
                        for r in results],
        }
        with open(f"{args.out}.report.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return 4 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restent",
        description="Grid-sampled upper bounds on restoration entropy via "
                    "metric-adapted singular values",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file mirroring the flags")
        p.add_argument("--system", help="built-in system name")
        p.add_argument("--a", type=float, help="lanford parameter")
        p.add_argument("--matrix", help="matrix spec: diag:2,0.5 | inline JSON | file")
        p.add_argument("--dim", type=int, help="dimension for the identity system")
        p.add_argument("--box", help="sampling box lo:hi,lo:hi,...")
        p.add_argument("--resolution", help="grid points per axis (int or list)")
        p.add_argument("--out", help="output file stem")
        p.add_argument("--refine", action="store_true",
                       help="double the resolution until the bound settles")
        p.add_argument("--bar-tol", type=float,
                       help="barycenter tolerance for auto metrics: a bound on "
                            "the distance, in bits, to the true barycenter")
        p.add_argument("--time-samples", type=int,
                       help="time discretization of auto:T metrics")
        p.add_argument("--check-invariance", action="store_true",
                       help="fail (exit 3) when grid orbits leave the set")
        p.add_argument("--check-horizon", type=float, default=5.0,
                       help="horizon of the invariance spot check")

    pb = sub.add_parser("bound", help="compute one entropy bound")
    common(pb)
    pb.add_argument("--metric", help="identity | constant:<spec> | lanford-exp | auto:N | auto:T")

    ps = sub.add_parser("sweep", help="bound per horizon with auto metrics")
    common(ps)
    ps.add_argument("--horizons", help="comma-separated horizon list")

    po = sub.add_parser("oracle", help="finite-time Lyapunov-exponent estimate")
    common(po)
    po.add_argument("--horizons", help="comma-separated horizon list")

    pl = sub.add_parser("lanford", help="reproduction run for the built-in 3-D system")
    common(pl)
    pl.add_argument("--with-oracle", action="store_true",
                    help="also run the Lyapunov oracle for comparison")

    pp = sub.add_parser("props", help="randomized property suite")
    pp.add_argument("--seed", type=int, default=42)
    pp.add_argument("--instances", type=int, default=50)
    pp.add_argument("--dims", help="comma-separated dimensions (default 1,2,3,5)")
    pp.add_argument("--tol", type=float, help="override every property tolerance")
    pp.add_argument("--out", help="output file stem")
    return parser


COMMANDS = {
    "bound": cmd_bound,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
    "lanford": cmd_lanford,
    "props": cmd_props,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except _InvarianceFailure as exc:
        print(f"invariance spot check failed: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
