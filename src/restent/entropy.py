"""Restoration-entropy upper bounds, minimizing-metric constructions, the
finite-time-Lyapunov-exponent oracle, and proximate topological entropy.

Discrete-time bounds are in bits/step, continuous-time bounds in bits per
unit time.  Continuous-time roots stay in natural-log units until the final
1/(2 ln 2) conversion, so no silent double conversion can occur.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Optional, Sequence

import numpy as np

from .dynamics import CompactSet, SystemModel, propagate, sample_set
from .errors import ConfigError, NumericError
from .metrics import MetricField, ct_spectrum_values, metric_sv_values
from .spd import inductive_barycenter, power, sym

Array = np.ndarray

LN2 = float(np.log(2.0))
SCHEMA_VERSION = 1
# Largest condition number of a Jacobian product whose inverse Gram matrix
# is still representable in double precision.
COND_LIMIT = 3e7


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class PointRecord:
    state: list
    spectrum: list
    local: float


@dataclass
class BoundReport:
    """Evaluated entropy bound over a sampled compact set."""

    system: str
    params: dict
    time_type: str
    units: str
    region: dict
    metric: str
    metric_horizon: Optional[float]
    resolution: list
    bound: float
    maximizer: list
    per_point: list
    excluded: list
    oracle: Optional[float] = None
    refinements: int = 0
    pdot_mode: Optional[str] = None
    created: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not self.created:
            self.created = datetime.now(timezone.utc).isoformat()

    def to_dict(self) -> dict:
        """Plain-data view; shares the report's lists, copying nothing."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["per_point"] = [vars(rec) for rec in self.per_point]
        return d

    @staticmethod
    def from_dict(d: dict) -> "BoundReport":
        d = dict(d)
        d["per_point"] = [PointRecord(**p) for p in d.get("per_point", [])]
        return BoundReport(**d)

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            # no indent: an indent forces the pure-Python encoder
            fh.write(json.dumps(self.to_dict()))
            fh.write("\n")

    @staticmethod
    def from_json(path) -> "BoundReport":
        with open(path, "r", encoding="utf-8") as fh:
            return BoundReport.from_dict(json.load(fh))

    def to_csv(self, path) -> None:
        """Per-point table; floats written with 17 significant digits so the
        file is byte-identical across runs of the same configuration."""
        dim = len(self.maximizer)
        nsv = len(self.per_point[0].spectrum) if self.per_point else dim
        header = [f"x{i}" for i in range(dim)] + [f"s{i + 1}" for i in range(nsv)] + ["local_bound"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for rec in self.per_point:
                row = [format(v, ".17g") for v in rec.state]
                row += [format(v, ".17g") for v in rec.spectrum]
                row.append(format(rec.local, ".17g"))
                writer.writerow(row)


@dataclass
class LyapunovProfile:
    """Finite-time Lyapunov exponents (bits/time) at one sample point."""

    x: list
    t: float
    exponents: list


@dataclass
class OracleResult:
    horizons: list
    values: list               # max over surviving points, per horizon
    aitken: float
    profiles: list             # LyapunovProfile at the final horizon
    excluded: list             # (point index, escape time)
    resolution: list

    @property
    def value(self) -> float:
        return self.values[-1]


def aitken_accelerate(seq: Sequence[float]) -> float:
    """Aitken delta-squared extrapolation of the last three terms; falls back
    to the last term when the second difference vanishes."""
    s = [float(v) for v in seq]
    if len(s) < 3:
        return s[-1]
    x0, x1, x2 = s[-3], s[-2], s[-1]
    denom = x2 - 2.0 * x1 + x0
    if abs(denom) < 1e-12 * max(1.0, abs(x2)):
        return x2
    return x2 - (x2 - x1) ** 2 / denom


# ---------------------------------------------------------------------------
# Local bound values
# ---------------------------------------------------------------------------

def positive_sum(values: Array) -> Array:
    """Sum of positive parts along the last axis."""
    return np.sum(np.maximum(0.0, np.asarray(values, dtype=float)), axis=-1)


def _resolution_list(resolution, dim) -> list:
    if np.isscalar(resolution):
        return [int(resolution)] * dim
    return [int(c) for c in resolution]


def _double_resolution(res: list) -> list:
    return [2 * c - 1 for c in res]


def _spectra(system: SystemModel, metric: MetricField, pts: Array,
             pdot_step: Optional[float]) -> tuple:
    """Metric spectra at every grid point, evaluated as one batch.

    The metric is evaluated once, on the points stacked with their images
    (discrete time) or with their flowed points for the finite-difference
    Pdot (continuous time, metrics without an orbital rule).  Returns
    ``(values, reasons)``: ``reasons[i]`` is None, or says why point i is
    left out (its Jacobian, flowed point or metric values are unusable);
    ``values`` holds the spectra of the other points, in grid order."""
    m = len(pts)
    reasons = [None] * m
    jac = system.jacobian(pts)
    if system.time_type == "discrete":
        stacked = np.concatenate([pts, system.rhs(pts)])
    elif metric.has_orbital:
        stacked = pts
    else:
        prop = propagate(system, pts, pdot_step, step=pdot_step)
        for i in np.flatnonzero(prop.escaped):
            reasons[i] = (f"trajectory of '{system.name}' blew up within the "
                          f"finite-difference step at t={prop.escape_times[i]:.6g}")
        stacked = np.concatenate([pts, prop.states])
    p, why = metric.values(stacked)
    why_ahead = why[m:] or [None] * m
    bad_jac = (~np.isfinite(jac).all(axis=(-2, -1))).tolist()
    reasons = [r or w or a or ("non-finite Jacobian" if b else None)
               for r, w, a, b in zip(reasons, why, why_ahead, bad_jac)]
    ok = np.array([r is None for r in reasons])
    if not ok.any():
        raise NumericError("every sample point was excluded; no bound available")
    p_ok, jac_ok = p[:m][ok], jac[ok]
    if system.time_type == "discrete":
        return metric_sv_values(p_ok, p[m:][ok], jac_ok), reasons
    if metric.has_orbital:
        pdot = metric.orbital_derivative(pts[ok])
    else:
        pdot = sym((p[m:][ok] - p_ok) / pdot_step)
    return ct_spectrum_values(p_ok, jac_ok, pdot), reasons


def _grid_bound(system: SystemModel, region: CompactSet, metric: MetricField,
                resolution: list, pdot_step: Optional[float] = None) -> BoundReport:
    pts = sample_set(region, resolution)
    values, reasons = _spectra(system, metric, pts, pdot_step)
    locals_ = positive_sum(values)
    if system.time_type == "discrete":
        units, pdot_mode = "bits/step", None
    else:
        locals_ = locals_ / (2.0 * LN2)
        units = "bits/time"
        pdot_mode = "analytic" if metric.has_orbital else "fd"
    states = pts.tolist()
    kept = [x for x, r in zip(states, reasons) if r is None]
    records = [PointRecord(state=x, spectrum=v, local=lb)
               for x, v, lb in zip(kept, values.tolist(), locals_.tolist())]
    excluded = [{"state": x, "reason": r}
                for x, r in zip(states, reasons) if r is not None]
    best = int(np.argmax(locals_))
    return BoundReport(
        system=system.name,
        params={k: (v if not isinstance(v, np.ndarray) else v.tolist())
                for k, v in system.params.items()},
        time_type=system.time_type,
        units=units,
        region=region.descriptor(),
        metric=metric.label,
        metric_horizon=metric.horizon,
        resolution=list(resolution),
        bound=float(locals_[best]),
        maximizer=list(kept[best]),
        per_point=records,
        excluded=excluded,
        pdot_mode=pdot_mode,
    )


def dt_bound(system: SystemModel, region: CompactSet, metric: MetricField,
             resolution=9, refine: bool = False, refine_tol: float = 1e-4,
             max_refines: int = 3, point_budget: int = 2_000_000) -> BoundReport:
    """Upper bound on the restoration entropy of a discrete-time system:
    the grid max of the summed positive log singular values of the one-step
    Jacobian, measured between the metric at x and at its image."""
    if system.time_type != "discrete":
        raise ConfigError("dt_bound requires a discrete-time system")
    return _refine_loop(lambda res: _grid_bound(system, region, metric, res),
                        region, resolution, refine, refine_tol, max_refines,
                        point_budget)


def ct_bound(system: SystemModel, region: CompactSet, metric: MetricField,
             resolution=9, pdot_step: float = 1e-5,
             refine: bool = False, refine_tol: float = 1e-4,
             max_refines: int = 3, point_budget: int = 8_000_000) -> BoundReport:
    """Upper bound for a continuous-time system: 1/(2 ln 2) times the grid
    max of the summed positive roots of the metric spectrum.

    The orbital derivative Pdot comes from the metric's own rule when it has
    one, and otherwise from a one-sided flow finite difference with step
    ``pdot_step`` (tabulated metrics)."""
    if system.time_type != "continuous":
        raise ConfigError("ct_bound requires a continuous-time system")
    return _refine_loop(
        lambda res: _grid_bound(system, region, metric, res, pdot_step),
        region, resolution, refine, refine_tol, max_refines, point_budget)


def _refine_loop(compute, region, resolution, refine, refine_tol,
                 max_refines, point_budget) -> BoundReport:
    res = _resolution_list(resolution, region.dim)
    report = compute(res)
    if not refine:
        return report
    done = 0
    while done < max_refines:
        nxt = _double_resolution(res)
        if np.prod(nxt, dtype=float) > point_budget:
            warnings.warn("refinement stopped by the point budget",
                          RuntimeWarning, stacklevel=2)
            break
        finer = compute(nxt)
        done += 1
        delta = abs(finer.bound - report.bound)
        res, report = nxt, finer
        if delta < refine_tol:
            break
    report.refinements = done
    return report


# ---------------------------------------------------------------------------
# Minimizing metric sequences
# ---------------------------------------------------------------------------

def _inverse_gram_atoms(a: Array, reasons: list) -> Array:
    """(A^T A)^{-1}, the congruence push of the identity by A^{-1}, for a
    stack (m, k, n, n) of Jacobian products, k per sample row.  A row whose
    product is not invertible in double precision gets the reason of its
    first such product, unless it already has a reason."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    cond = np.full(finite.shape, np.inf)
    cond[finite] = np.linalg.cond(a[finite])
    ok = cond <= COND_LIMIT
    for i, k in zip(*np.nonzero(~ok)):
        if reasons[i] is not None:
            continue
        if np.isfinite(cond[i, k]):
            reasons[i] = (
                f"Jacobian product has condition number {cond[i, k]:.2e}; its "
                "inverse Gram matrix is not representable in double precision "
                "- shorten the metric horizon")
        else:
            reasons[i] = ("minimizing metrics require an invertible Jacobian at "
                          "every sample point; got a numerically singular one")
    inv = np.linalg.inv(np.where(ok[..., None, None], a, np.eye(a.shape[-1])))
    return inv @ np.swapaxes(inv, -1, -2)


def _inverted_barycenters(atoms: Array, reasons: list, tol: float) -> Array:
    """Inverse of the unweighted barycenter of each row's atoms (m, k, n, n);
    rows that have a reason get the identity."""
    bars = np.broadcast_to(np.eye(atoms.shape[-1]), atoms[:, 0].shape).copy()
    for i, why in enumerate(reasons):
        if why is None:
            bars[i] = inductive_barycenter(atoms[i], tol=tol)
    return power(bars, -1.0)


def minimizing_metric_dt(system: SystemModel, steps: int,
                         tol: float = 1e-7) -> MetricField:
    """Tabulated metric whose value at x is the inverted unweighted
    barycenter of the identity together with the inverse-Gram atoms of the
    orbit Jacobian products of length 1..steps-1.  steps=1 yields the
    identity metric."""
    if system.time_type != "discrete":
        raise ConfigError("the step-indexed minimizing metric needs a discrete system")
    steps = int(steps)
    if steps < 1:
        raise ConfigError("steps must be at least 1")

    def rule(x: Array) -> tuple:
        prod = np.broadcast_to(np.eye(system.dim), (len(x), system.dim, system.dim))
        prods = [prod]
        for _ in range(steps - 1):
            prod = system.jacobian(x) @ prod
            x = system.rhs(x)
            prods.append(prod)
        reasons = [None] * len(x)
        atoms = _inverse_gram_atoms(np.stack(prods, axis=1), reasons)
        return _inverted_barycenters(atoms, reasons, tol), reasons

    return MetricField.tabulated(system.dim, rule, label=f"auto:N={steps}",
                                 horizon=float(steps))


def minimizing_metric_ct(system: SystemModel, horizon: float,
                         time_samples: int = 64, tol: float = 1e-7) -> MetricField:
    """Tabulated metric from the time-discretized barycenter of the
    inverse-Gram atoms of the flow Jacobian, at equally spaced times in
    [0, horizon] including both endpoints."""
    if system.time_type != "continuous":
        raise ConfigError("the time-indexed minimizing metric needs a continuous system")
    horizon = float(horizon)
    time_samples = int(time_samples)
    if horizon <= 0:
        raise ConfigError("horizon must be positive")
    if time_samples < 1:
        raise ConfigError("time_samples must be at least 1")
    if time_samples == 1:
        # single atom at s = 0: the barycenter is the identity everywhere
        return MetricField.constant(np.eye(system.dim), label=f"auto:T={horizon:g}")
    nodes = np.linspace(0.0, horizon, time_samples)

    def rule(x: Array) -> tuple:
        prop = propagate(system, x, horizon, variational=True, record_at=nodes)
        reasons = [None] * len(x)
        for i in np.flatnonzero(prop.escaped):
            reasons[i] = (f"trajectory escaped at t={prop.escape_times[i]:.6g} "
                          "while building the minimizing metric")
        atoms = _inverse_gram_atoms(np.swapaxes(prop.jacobians, 0, 1), reasons)
        return _inverted_barycenters(atoms, reasons, tol), reasons

    return MetricField.tabulated(system.dim, rule, label=f"auto:T={horizon:g}",
                                 horizon=horizon)


# ---------------------------------------------------------------------------
# Oracle and closed forms
# ---------------------------------------------------------------------------

def lyapunov_oracle(system: SystemModel, region: CompactSet,
                    horizons: Sequence[float] = (5.0, 10.0, 20.0, 40.0),
                    resolution=11, step: Optional[float] = None) -> OracleResult:
    """Finite-time Lyapunov-exponent estimate of the restoration entropy:
    max over sample points of the summed positive exponents of the flow
    Jacobian, per horizon, with Aitken extrapolation of the horizon series.

    Blown-up samples are flagged and excluded."""
    horizons = sorted(float(t) for t in horizons)
    if not horizons or horizons[0] <= 0:
        raise ConfigError("horizons must be positive")
    pts = sample_set(region, resolution)
    prop = propagate(system, pts, horizons[-1], step=step, variational=True,
                     record_at=horizons)
    alive = ~prop.escaped
    if not np.any(alive):
        raise NumericError("every sample point blew up before the first horizon")
    values = []
    final_exps = None
    for k, t in enumerate(horizons):
        jac = prop.jacobians[k]
        sv = np.linalg.svd(jac, compute_uv=False)
        with np.errstate(divide="ignore"):
            lam = np.where(sv > 0.0, np.log2(np.maximum(sv, 1e-300)), -np.inf) / t
        # escaped-by-t points are additionally masked per horizon
        esc_t = prop.escaped & (prop.escape_times <= t + 1e-12)
        sums = positive_sum(np.where(np.isfinite(lam), lam, 0.0))
        sums = np.where(esc_t, -np.inf, sums)
        values.append(float(np.max(sums)))
        if k == len(horizons) - 1:
            final_exps = lam
    profiles = [
        LyapunovProfile(x=[float(v) for v in pts[i]], t=horizons[-1],
                        exponents=[float(v) for v in final_exps[i]])
        for i in range(len(pts)) if alive[i]
    ]
    excluded = [(int(i), float(prop.escape_times[i])) for i in np.nonzero(prop.escaped)[0]]
    return OracleResult(
        horizons=list(horizons),
        values=values,
        aitken=aitken_accelerate(values),
        profiles=profiles,
        excluded=excluded,
        resolution=_resolution_list(resolution, region.dim),
    )


def proximate_entropy(system: SystemModel, point, tol: float = 1e-8) -> float:
    """Sum of the positive real parts of the linearization eigenvalues at an
    equilibrium, in bits/time.  A lower bound for the restoration entropy
    when the equilibrium is interior to the invariant set."""
    if system.time_type != "continuous":
        raise ConfigError("proximate entropy is defined for continuous-time systems")
    point = np.asarray(point, dtype=float)
    residual = float(np.linalg.norm(system.rhs(point)))
    if residual > tol * (1.0 + float(np.linalg.norm(point))):
        raise NumericError(
            f"point is not an equilibrium (|f(x)| = {residual:.3e} above tolerance)")
    eigs = np.linalg.eigvals(system.jacobian(point))
    return float(np.sum(np.maximum(eigs.real, 0.0)) / LN2)


def lanford_closed_form(a: float) -> float:
    """Reference restoration entropy 2(2a-1)/ln 2 of the built-in
    three-dimensional polynomial system, valid for a >= 2/3."""
    a = float(a)
    if a < 2.0 / 3.0 - 1e-12:
        raise ConfigError("the closed form is established only for a >= 2/3")
    return 2.0 * (2.0 * a - 1.0) / LN2


def lanford_metric(a: float = 2.0 / 3.0) -> MetricField:
    """Exponentially weighted diagonal metric diag(1, 1, 1/2) * e^{2z/a}
    adapted to the built-in three-dimensional system; its orbital derivative
    is (2 zdot / a) P."""
    a = float(a)
    if a <= 0:
        raise ConfigError("parameter a must be positive")
    p0 = np.diag([1.0, 1.0, 0.5])

    def ev(x: Array) -> Array:
        w = np.exp(2.0 * x[..., 2] / a)
        return p0 * w[..., None, None]

    def od(x: Array) -> Array:
        z = x[..., 2]
        zdot = a * z - np.sum(x * x, axis=-1)
        return p0 * (2.0 * zdot / a * np.exp(2.0 * z / a))[..., None, None]

    return MetricField.analytic(3, ev, od, label="lanford-exp")


def metric_change_constant(metric: MetricField, points) -> float:
    """Upper bound (bits) on how much switching between this metric and the
    Euclidean one can move a summed positive log-singular-value over the
    sampled set: the max over k of the extreme products of the k largest
    singular values of P^{1/2} and of P^{-1/2}."""
    p = metric.evaluate(np.asarray(points, dtype=float))
    w = np.linalg.eigvalsh(p)                      # ascending, (m, n)
    half = 0.5 * np.log2(w[..., ::-1])             # log2 singulars of P^{1/2}, desc
    fwd = np.cumsum(half, axis=-1)                 # log2 omega_k(P^{1/2})
    bwd = np.cumsum(-half[..., ::-1], axis=-1)     # log2 omega_k(P^{-1/2})
    return float(np.max(np.max(fwd, axis=0) + np.max(bwd, axis=0)))
