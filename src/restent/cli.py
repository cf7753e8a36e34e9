"""Command-line front end.

Commands ``bound``, ``sweep``, ``oracle``, ``lanford`` and ``props``: the
parser gives each its ``run`` function, its help and only the flags it reads.

A ``--config`` file holds only the keys system, params, box and resolution,
plus horizons for sweep and oracle; flags win over it.  Exit codes: 0
success, 1 configuration or usage error (an unknown flag or key, a system
parameter the system does not take, or an --out in no writable directory),
2 numeric failure, 3 invariance spot-check failure, 4 property violation,
141 (128 + SIGPIPE) standard output closed by its reader.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import props
from .dynamics import (
    CompactSet,
    default_region,
    grid_counts,
    invariance_spot_check,
    lanford_region,
    make_system,
)
from .entropy import (
    _json_params,
    _write_table,
    bound,
    lanford_closed_form,
    lanford_metric,
    lyapunov_oracle,
    minimizing_metric,
    proximate_entropy,
    write_report,
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
    """The entries of 'n' / 'n1,n2,...'; any other spec as it is.
    ``grid_counts`` makes the entries whole numbers or refuses them."""
    if not isinstance(spec, str):
        return spec
    parts = spec.split(",")
    return parts[0] if len(parts) == 1 else parts


def _parse_horizons(spec) -> list:
    """Horizons from '1,2,4', '[1,2,4]' or a list of numbers."""
    if isinstance(spec, str):
        spec = spec.strip().strip("[]").split(",")
    return _numbers(spec, float, "horizons")


_CONFIG_KEYS = ("system", "params", "box", "resolution")


def _build_system(args, keys=_CONFIG_KEYS):
    """System, region, per-axis grid counts and config from the flags over a
    config file whose keys must all be in ``keys``."""
    cfg = _load_json(args.config, "config file") if args.config else {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"a config file must hold a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}; allowed: {list(keys)}")
    name = args.system or cfg.get("system")
    if not name:
        raise ConfigError("no system given (use --system or a config file)")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"config 'params' must be a JSON object, got {params!r}")
    params = dict(params)
    for key, value in (("a", args.a), ("matrix", args.matrix),
                       ("dim", _positive(args.dim, "dim"))):
        if value is not None:
            params[key] = value
    if "matrix" in params:
        params["matrix"] = _parse_matrix(params["matrix"])
    elif name in ("linmap", "linode"):
        raise ConfigError(f"system {name!r} needs --matrix")
    try:
        system = make_system(name, **params)
    except (TypeError, ValueError) as exc:   # a key or value the system cannot take
        raise ConfigError(f"bad params for system {name!r}: {exc}") from exc

    box = args.box or cfg.get("box")
    region = default_region(system) if box is None else _parse_box(box)
    if region.dim != system.dim:
        raise ConfigError(f"box dimension {region.dim} != system dimension {system.dim}")

    resolution = _parse_resolution(args.resolution or cfg.get("resolution", 9))
    return system, region, grid_counts(resolution, region.dim), cfg


def _positive(value, flag: str):
    """A flag value that must be positive when given."""
    if value is not None and not value > 0:
        raise ConfigError(f"--{flag} must be positive, got {value}")
    return value


def _auto_options(system, args) -> dict:
    """The ``minimizing_metric`` options given as flags; its own defaults
    stand for the others.  A map's metric has one node per step, so
    --time-samples on a map is refused."""
    if system.time_type == "discrete" and args.time_samples is not None:
        raise ConfigError("--time-samples applies to flows only; a map's auto:N "
                          "metric has one node per step")
    options = {"tol": args.bar_tol, "time_samples": args.time_samples}
    return {k: v for k, v in options.items() if v is not None}


def _build_metric(spec, system, args):
    spec = spec or "identity"
    if not spec.startswith("auto:") and (args.bar_tol, args.time_samples) != (None, None):
        raise ConfigError(f"--bar-tol and --time-samples apply to auto: metrics "
                          f"only, not to {spec!r}")
    if spec == "identity":
        return MetricField.identity(system.dim)
    if spec.startswith("constant:"):
        try:
            return MetricField.constant(_parse_matrix(spec[len("constant:"):]))
        except NumericError as exc:          # not a square SPD matrix
            raise ConfigError(f"metric {spec!r}: {exc}") from exc
    if spec == "lanford-exp":
        if system.name != "lanford":
            raise ConfigError("the lanford-exp metric only fits the lanford system")
        return lanford_metric(system.params["a"])
    if spec.startswith("auto:"):
        (horizon,) = _numbers([spec[len("auto:"):]], float,
                              "auto:<N> steps of a map or auto:<T> time of a flow")
        return minimizing_metric(system, horizon, **_auto_options(system, args))
    raise ConfigError(f"unknown metric {spec!r}")


def _run_spot_check(system, region, resolution, horizon, require):
    report = invariance_spot_check(system, region, min(9, *resolution), horizon)
    print(f"invariance spot check: {report.n_escaped}/{report.n_points} "
          f"escaped within t={report.horizon:g} (fraction {report.fraction:.4f})")
    if require and report.fraction > 0.0:
        raise _InvarianceFailure(
            f"{report.n_escaped} grid points left the declared set; first exits "
            f"{report.first_exit[:3]}")
    return report


def _wrote(paths):
    print("wrote " + " and ".join(paths))


def _bound_label(report) -> str:
    """'bound', or the max over the kept points when any point was excluded."""
    excluded = len(report.excluded)
    return f"max over kept points ({excluded} excluded)" if excluded else "bound"


def _grid(report) -> str:
    """The bound's kind, its last grid and the number of points evaluated."""
    return (f"{report.bound_kind}, resolution {report.resolution}, "
            f"{len(report.per_point) + len(report.excluded)} points evaluated")


def cmd_bound(args) -> int:
    system, region, resolution, _ = _build_system(args)
    metric = _build_metric(args.metric, system, args)
    if args.check_invariance:
        _run_spot_check(system, region, resolution,
                        horizon=float(args.check_horizon), require=True)
    report = bound(system, region, metric, resolution, refine=args.refine)
    print(f"{_bound_label(report)}: {report.bound:.6f} {report.units}")
    print(f"maximizer: {np.array(report.maximizer)}")
    print(f"grid: {_grid(report)}")
    _wrote(report.write(args.out or f"bound_{system.name}"))
    return 0


def cmd_sweep(args) -> int:
    system, region, resolution, cfg = _build_system(args, _CONFIG_KEYS + ("horizons",))
    horizons = args.horizons or cfg.get("horizons")
    if not horizons:
        raise ConfigError("sweep needs a nonempty --horizons list")
    horizons = sorted(_parse_horizons(horizons))     # the verdict reads them in order
    options = _auto_options(system, args)
    # every horizon's metric first: a bad horizon is refused before any file is written
    metrics = [minimizing_metric(system, h, **options) for h in horizons]
    stem = args.out or f"sweep_{system.name}"
    bounds = []
    for h, metric in zip(horizons, metrics):
        report = bound(system, region, metric, resolution, refine=args.refine)
        bounds.append(report.bound)
        report.write(f"{stem}.h{h:g}")
        print(f"horizon {h:g}: {_bound_label(report)} {report.bound:.6f} {report.units}")
    _write_table(f"{stem}.sweep.csv", ["horizon", "bound"], np.column_stack([horizons, bounds]))
    slack = 1e-6 + 0.02 * max(1.0, abs(bounds[0]))
    monotone = all(b2 <= b1 + slack for b1, b2 in zip(bounds, bounds[1:]))
    print(f"monotone nonincreasing within tolerance: {'yes' if monotone else 'NO'}")
    print(f"wrote {stem}.sweep.csv")
    return 0


def cmd_oracle(args) -> int:
    system, region, resolution, cfg = _build_system(args, _CONFIG_KEYS + ("horizons",))
    horizons = _parse_horizons(args.horizons or cfg.get("horizons") or [5.0, 10.0, 20.0, 40.0])
    result = lyapunov_oracle(system, region, horizons=horizons, resolution=resolution)
    for t, v in zip(result.horizons, result.values):
        print(f"t={t:g}: {v:.6f} {result.units}")
    print(f"aitken extrapolation: {result.aitken:.6f}")
    if result.excluded:
        print(f"excluded {len(result.excluded)} blown-up sample point(s)")
    stem = args.out or f"oracle_{system.name}"
    payload = {"system": system.name, "params": _json_params(system), "units": result.units,
               "region": region.descriptor(), "resolution": result.resolution,
               "horizons": result.horizons, "values": result.values,
               "aitken": result.aitken, "excluded": result.excluded}
    header = [f"x{i}" for i in range(system.dim)] + [f"lam{i + 1}" for i in range(system.dim)]
    _wrote(write_report(stem, "oracle", payload, header,
                        np.hstack([result.states, result.exponents])))
    return 0


def cmd_lanford(args) -> int:
    a = float(args.a if args.a is not None else 2.0 / 3.0)
    system = make_system("lanford", a=a)
    region = lanford_region(a)
    resolution = grid_counts(_parse_resolution(args.resolution or 21), region.dim)
    reference = lanford_closed_form(a)
    heteroclinic = abs(a - 2.0 / 3.0) < 1e-9
    _run_spot_check(system, region, resolution, horizon=float(args.check_horizon),
                    require=heteroclinic)
    if not heteroclinic:
        print("note: for a != 2/3 no compact forward-invariant set with interior "
              "exists; the bound is still valid for any invariant subset")
    metric = lanford_metric(a)
    report = bound(system, region, metric, resolution, refine=True)
    o2 = np.array([0.0, 0.0, a])
    lower = proximate_entropy(system, o2)
    print(f"closed-form reference : {reference:.6f} bits/time")
    label = "metric bound" if not report.excluded else _bound_label(report)
    print(f"{label:22s}: {report.bound:.6f} bits/time ({_grid(report)})")
    print(f"equilibrium lower est : {lower:.6f} bits/time")
    if args.with_oracle:
        res = lyapunov_oracle(system, region, resolution=[min(11, c) for c in resolution])
        report.oracle = res.values[-1]
        print(f"oracle at t={res.horizons[-1]:g}    : {report.oracle:.6f} bits/time "
              f"(aitken {res.aitken:.6f})")
    gap = abs(report.bound - reference)
    print(f"bound-vs-reference gap: {gap:.2e}")
    _wrote(report.write(args.out or "lanford"))
    return 0


def cmd_props(args) -> int:
    dims = tuple(_numbers(args.dims.split(","), int, "dims")) if args.dims else (1, 2, 3, 5)
    results = props.run_property_suite(seed=int(args.seed), instances=int(args.instances),
                                       dims=dims)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{status}  {r.name:36s} worst {r.worst:.3e}  tol {r.tolerance:.1e}  "
              f"({r.instances} instances)")
    print(f"seed {args.seed}: {len(results) - failures}/{len(results)} properties passed")
    if args.out:
        write_report(args.out, "props", {
            "seed": int(args.seed),
            "instances": int(args.instances),
            "results": [{"name": r.name, "instances": r.instances, "worst": r.worst,
                         "tolerance": r.tolerance, "passed": r.passed}
                        for r in results],
        })
    return 4 if failures else 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="restent",
        description="Grid-sampled upper bounds on restoration entropy via "
                    "metric-adapted singular values",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, run, text in (
            ("bound", cmd_bound, "compute one entropy bound"),
            ("sweep", cmd_sweep, "bound per horizon with auto metrics"),
            ("oracle", cmd_oracle, "finite-time Lyapunov-exponent estimate"),
            ("lanford", cmd_lanford, "reproduction run for the built-in 3-D system"),
            ("props", cmd_props, "randomized property suite")):
        commands[name] = sub.add_parser(name, help=text)
        commands[name].set_defaults(run=run)

    def flag(names, *args, **kwargs):   # each command takes the flags it reads
        for name in names.split():
            commands[name].add_argument(*args, **kwargs)

    system = "bound sweep oracle"
    flag(system, "--config", help="JSON config file with keys system, params, box, "
                                  "resolution (and horizons where --horizons is taken)")
    flag(system, "--system", help="built-in system name")
    flag(system + " lanford", "--a", type=float, help="lanford parameter")
    flag(system, "--matrix", help="matrix spec: diag:2,0.5 | inline JSON | file")
    flag(system, "--dim", type=int, help="dimension for the identity system")
    flag(system, "--box", help="sampling box lo:hi,lo:hi,...")
    flag(system + " lanford", "--resolution", help="grid points per axis (int or list)")
    flag(system + " lanford props", "--out", help="output file stem")
    flag("bound sweep", "--refine", action="store_true",
         help="double the resolution until the bound settles, evaluating only "
              "the cells where the maximum can be")
    flag("bound sweep", "--bar-tol", type=float,
         help="barycenter tolerance for auto metrics: a bound on the distance, "
              "in bits, to the true barycenter")
    flag("bound sweep", "--time-samples", type=int,
         help="time discretization of a flow's auto:T metrics")
    flag("bound", "--check-invariance", action="store_true",
         help="fail (exit 3) when grid orbits leave the set")
    flag("bound lanford", "--check-horizon", type=float, default=5.0,
         help="horizon of the invariance spot check")
    flag("bound", "--metric", help="identity | constant:<spec> | lanford-exp | auto:N | auto:T")
    flag("sweep oracle", "--horizons", help="comma-separated horizon list")
    flag("lanford", "--with-oracle", action="store_true",
         help="also run the Lyapunov oracle for comparison")
    flag("props", "--seed", type=int, default=42)
    flag("props", "--instances", type=int, default=50)
    flag("props", "--dims", help="comma-separated dimensions (default 1,2,3,5)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        folder = os.path.dirname(args.out or "") or "."      # every command takes --out
        if args.out and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigError(f"--out {args.out!r}: no writable directory {folder!r}")
        code = args.run(args)
        sys.stdout.flush()        # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # Later writes, the interpreter's last flush among them, go to
        # devnull; a stdout without a descriptor (in process) is left alone.
        try:
            stdout = sys.stdout.fileno()
        except OSError:
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout)
        os.close(devnull)
        return 141
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
