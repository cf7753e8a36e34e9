"""Restoration-entropy upper bounds, minimizing-metric constructions, the
finite-time-Lyapunov-exponent oracle, and proximate topological entropy.

Discrete-time bounds are in bits/step, continuous-time bounds in bits per
unit time.  Continuous-time roots stay in natural-log units until the final
1/(2 ln 2) conversion, so no silent double conversion can occur.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Optional, Sequence

import numpy as np

from .dynamics import CompactSet, SystemModel, grid_counts, propagate, sample_set
from .errors import ConfigError, NumericError
from .metrics import MetricField, ct_spectrum_values, metric_sv_values
from . import spd
from .spd import karcher_barycenter, power

Array = np.ndarray

LN2 = float(np.log(2.0))
SCHEMA_VERSION = 3
UNITS = {"discrete": "bits/step", "continuous": "bits/time"}   # by time type
# Refinement doubles the resolution (c -> 2c - 1 per axis) until the bound
# moves by less than REFINE_TOL, at most MAX_REFINES times, and stops before a
# grid would exceed the point budget of its time type.
REFINE_TOL = 1e-4
MAX_REFINES = 3
DT_POINT_BUDGET = 2_000_000
CT_POINT_BUDGET = 8_000_000
# |f(x)| accepted at an equilibrium, relative to 1 + |x|
EQUILIBRIUM_TOL = 1e-8
_CSV_BLOCK_ROWS = 4096     # rows per formatting pass of a per-point table
# json's spelling of the floats whose repr is not JSON
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Evaluated entropy bound over a sampled compact set.

    ``per_point`` is the float table of ``points.csv``: one row per kept
    grid point, in grid order, holding its state, its spectrum (``dim``
    values for a map and for a flow) and its local bound."""

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
    per_point: Array           # (kept points, 2 dim + 1)
    excluded: list
    oracle: Optional[float] = None
    refinements: int = 0
    map_step: Optional[float] = None   # h of the time-h map, else None

    def __eq__(self, other) -> bool:
        """Every field by value, the table as ``to_dict`` spells it."""
        if not isinstance(other, BoundReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        """Plain-data view: the per-point rows as nested lists; the other
        fields are the report's own, not copies."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["per_point"] = np.asarray(self.per_point, dtype=float).tolist()
        return d

    @staticmethod
    def from_dict(d: dict) -> "BoundReport":
        """The report ``write`` wrote: its stamps and ``columns`` are
        dropped, its rows become the float table."""
        version, kind = d.get("schema_version"), d.get("kind")
        if (version, kind) != (SCHEMA_VERSION, "bound"):
            raise ConfigError(f"report has schema version {version}, kind {kind!r}; "
                              f"this version of restent reads schema {SCHEMA_VERSION}, "
                              "kind 'bound'")
        d = {k: v for k, v in d.items()
             if k not in ("schema_version", "kind", "created", "columns")}
        d["per_point"] = np.array(d.get("per_point", []), dtype=float).reshape(
            -1, 2 * len(d["maximizer"]) + 1)
        return BoundReport(**d)

    @staticmethod
    def from_json(path) -> "BoundReport":
        with open(path, "r", encoding="utf-8") as fh:
            return BoundReport.from_dict(json.load(fh))

    def write(self, stem) -> tuple:
        """``write_report`` of this report, its table headed by the state,
        spectrum and local-bound columns; returns the paths written."""
        dim = len(self.maximizer)
        header = ([f"x{i}" for i in range(dim)] + [f"s{i + 1}" for i in range(dim)]
                  + ["local_bound"])
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name != "per_point"}
        return write_report(stem, "bound", payload, header, self.per_point)


def write_report(stem, kind: str, payload: dict, header=None, table=()) -> tuple:
    """The one report writer.  ``{stem}.report.json`` is one line of compact
    JSON (no indent: an indent forces the pure-Python encoder), exactly the
    bytes of ``json.dumps`` and a newline: the ``SCHEMA_VERSION``, ``kind``
    and ``created`` stamps, then ``payload``.  Given a ``header``, the JSON
    ends with ``columns`` (the header) and ``per_point`` (the rows of the
    float array ``table``, ``len(header)`` columns, as arrays), and
    ``{stem}.points.csv`` holds the same table as ``_write_table`` writes
    it.  Returns the paths written."""
    report = {"schema_version": SCHEMA_VERSION, "kind": kind,
              "created": datetime.now(timezone.utc).isoformat(), **payload}
    paths = (f"{stem}.report.json",)
    with open(paths[0], "w", encoding="utf-8") as fh:
        if header is None:
            fh.write(json.dumps(report) + "\n")
            return paths
        table = np.asarray(table, dtype=float).reshape(-1, len(header))
        numbers = _distinct_numbers(table)
        fh.write(json.dumps({**report, "columns": list(header)})[:-1] + ', "per_point": [')
        _write_rows(fh, *numbers, _json_float, "[%s]" % ", ".join(["%s"] * len(header)), ", ")
        fh.write("]}\n")
    paths += (f"{stem}.points.csv",)
    _write_table(paths[1], header, table, numbers)
    return paths


def _json_params(system: SystemModel) -> dict:    # arrays as nested lists
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in system.params.items()}


def _write_table(path, header: list, table, numbers=None) -> None:
    """CSV table: the header, then each row of the float array ``table``
    (``len(header)`` columns; ``numbers``: its ``_distinct_numbers``, if known)
    in ``%.17g``, comma-separated, ended by CRLF: the bytes ``csv.writer`` writes."""
    table = np.asarray(table, dtype=float).reshape(-1, len(header))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, *(numbers or _distinct_numbers(table)), "%.17g".__mod__,
                    ",".join(["%s"] * len(header)) + "\r\n")


def _json_float(v: float) -> str:
    text = float.__repr__(v)
    return _JSON_NONFINITE.get(text, text)


def _distinct_numbers(table: Array) -> tuple:
    """``(numbers, inverse)``: the distinct numbers of the float array
    ``table``, told apart by their bits so that -0.0 and each NaN keep their
    own text, and the index into them of each entry, in the table's shape.
    A grid's table repeats most of its numbers: the benchmark's 33,401-row
    lanford and 161^2 diag(2, 0.5) tables hold 12,946 of 233,807 and 161 of
    129,605, and both reports are written in 0.14 s on 2 vCPUs, against
    0.81 s with one ``fmt`` per number and 1.2 s were every number distinct."""
    table = np.ascontiguousarray(table, dtype=float)
    bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
    return bits.view(np.float64).tolist(), inverse.reshape(table.shape)


def _write_rows(fh, distinct: list, inverse: Array, fmt, row: str, sep: str = "") -> None:
    """The rows of a table given as its ``_distinct_numbers``, each filled
    into the ``%s`` template ``row`` with its numbers as ``fmt`` spells them
    (once per distinct number), joined by ``sep``.  One ``%`` fills a block
    of ``_CSV_BLOCK_ROWS`` rows: a large table never is one string in memory."""
    texts = np.array(list(map(fmt, distinct)), dtype=object)[inverse]
    for start in range(0, len(texts), _CSV_BLOCK_ROWS):
        block = texts[start:start + _CSV_BLOCK_ROWS]
        fh.write((sep if start else "")
                 + sep.join([row] * len(block)) % tuple(block.ravel().tolist()))


@dataclass
class OracleResult:
    horizons: list
    values: list               # max over surviving points, per horizon
    aitken: float
    states: Array              # surviving sample points, (m, dim)
    exponents: Array           # their exponents at the final horizon, (m, dim)
    excluded: list             # (point index, escape time)
    resolution: list
    units: str                 # of values and exponents: bits/step or bits/time


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


def _spectra(system: SystemModel, metric: MetricField, pts: Array) -> tuple:
    """Metric spectra at every grid point, evaluated as one batch.

    A flow with an orbital rule gets the generator spectrum.  Everything
    else is measured on the time-h map (h = 1 for a map, ``metric.step`` for
    a flow), between P(x) and P at the image, with the metric evaluated once
    on the points stacked with their images; a flow's values are scaled by
    2 ln 2 / h, to the units of the generator spectrum.  Returns
    ``(values, ok, reasons)``: ``ok`` marks the points kept, ``reasons``
    says why each other point is left out (its orbit blew up within the
    step, or its Jacobian or metric values are unusable), and ``values``
    holds the spectra of the kept points; both in grid order."""
    m = len(pts)
    discrete = system.time_type == "discrete"
    if not discrete and metric.has_orbital:
        images, jac, escaped = None, system.jacobian(pts), np.zeros(m, dtype=bool)
    else:
        h = 1.0 if discrete else metric.step
        prop = propagate(system, pts, h, variational=True)
        images, jac, escaped = prop.states, prop.jacobians, prop.escaped
    p, failed, why = metric._values(pts if images is None else np.concatenate([pts, images]))
    ok = ~(escaped | failed.reshape(-1, m).any(axis=0) | ~np.isfinite(jac).all(axis=(-2, -1)))
    if not ok.any():
        raise NumericError("every sample point was excluded; no bound available")
    reasons = [(f"trajectory of '{system.name}' blew up within the map step "
                f"at t={prop.escape_times[i]:.6g}") if escaped[i]
               else why.get(i) or why.get(m + i) or "non-finite Jacobian"
               for i in np.flatnonzero(~ok).tolist()]
    if images is None:
        pdot = metric.orbital_derivative(pts[ok])
        return ct_spectrum_values(p[ok], jac[ok], pdot), ok, reasons
    scale = 1.0 if discrete else 2.0 * LN2 / h
    return scale * metric_sv_values(p[:m][ok], p[m:][ok], jac[ok]), ok, reasons


def _grid_bound(system: SystemModel, region: CompactSet, metric: MetricField,
                resolution: list) -> BoundReport:
    pts = sample_set(region, resolution)
    values, kept, reasons = _spectra(system, metric, pts)
    locals_ = positive_sum(values)
    map_step = None
    if system.time_type == "continuous":
        locals_ = locals_ / (2.0 * LN2)
        map_step = None if metric.has_orbital else metric.step
    table = np.column_stack([pts[kept], values, locals_])
    best = table[np.argmax(locals_)]
    return BoundReport(
        system=system.name,
        params=_json_params(system),
        time_type=system.time_type,
        units=UNITS[system.time_type],
        region=region.descriptor(),
        metric=metric.label,
        metric_horizon=metric.horizon,
        resolution=list(resolution),
        bound=float(best[-1]),
        maximizer=best[:region.dim].tolist(),
        per_point=table,
        excluded=[{"state": state, "reason": reason}
                  for state, reason in zip(pts[~kept].tolist(), reasons)],
        map_step=map_step,
    )


def bound(system: SystemModel, region: CompactSet, metric: MetricField,
          resolution=9, refine: bool = False) -> BoundReport:
    """Upper bound on the restoration entropy over the sampled set, in
    bits/step for a map and bits per unit time for a flow.

    For a map it is the grid max of the summed positive log2 singular values
    of the one-step Jacobian, measured between P(x) and P at the image.  For
    a flow and a metric with an orbital rule Pdot, it is 1/(2 ln 2) times
    the grid max of the summed positive eigenvalues of
    P^{-1/2} (P J + J^T P + Pdot) P^{-1/2}.  A flow's metric without one
    (the tabulated minimizing metrics) carries its node spacing
    h = ``metric.step``, and the bound is the map bound of the time-h map
    phi_h divided by h.  That is an upper bound because the paper's
    discrete-time bound holds for the map phi_h with any metric, and
    h_res(phi_h) = h * h_res(flow).  The summed positive log singular values
    are subadditive along a product (Horn's inequality), so the time-h value
    at x is at most the mean of the time-h/2 values at x and at
    phi_{h/2} x, and as h -> 0 it tends to the value with the exact Pdot.
    ``refine`` refines the grid as ``REFINE_TOL`` describes."""
    discrete = system.time_type == "discrete"
    if not discrete and not metric.has_orbital and not (metric.step or 0.0) > 0.0:
        raise ConfigError(f"metric '{metric.label}' has neither an orbital "
                          "derivative nor a positive time step for the "
                          "time-step map")
    res = grid_counts(resolution, region.dim)
    report = _grid_bound(system, region, metric, res)
    budget = DT_POINT_BUDGET if discrete else CT_POINT_BUDGET
    done = 0
    while refine and done < MAX_REFINES:
        nxt = [2 * c - 1 for c in res]
        if np.prod(nxt, dtype=float) > budget:
            warnings.warn("refinement stopped by the point budget",
                          RuntimeWarning, stacklevel=2)
            break
        finer = _grid_bound(system, region, metric, nxt)
        done += 1
        delta = abs(finer.bound - report.bound)
        res, report = nxt, finer
        if delta < REFINE_TOL:
            break
    report.refinements = done
    return report


def dt_bound(system: SystemModel, region: CompactSet, metric: MetricField,
             resolution=9, refine: bool = False) -> BoundReport:
    """``bound`` of a discrete-time system."""
    if system.time_type != "discrete":
        raise ConfigError("dt_bound requires a discrete-time system")
    return bound(system, region, metric, resolution, refine)


def ct_bound(system: SystemModel, region: CompactSet, metric: MetricField,
             resolution=9, refine: bool = False) -> BoundReport:
    """``bound`` of a continuous-time system."""
    if system.time_type != "continuous":
        raise ConfigError("ct_bound requires a continuous-time system")
    return bound(system, region, metric, resolution, refine)


# ---------------------------------------------------------------------------
# Minimizing metric sequences
# ---------------------------------------------------------------------------

def _inverse_factors(a: Array, reasons: list) -> Array:
    """Factors F = V S^{-1} of the inverse-Gram atoms F F^T = (A^T A)^{-1},
    from one SVD A = U S V^T of each of a stack (m, k, n, n) of Jacobian
    products, k per sample row.  A row with a non-finite or numerically
    singular product (condition number S_max/S_min at least 1/eps) gets a
    reason, unless it already has one; such a product's factor is I."""
    eye = np.eye(a.shape[-1])
    finite = np.isfinite(a).all(axis=(-2, -1))
    _, s, vt = np.linalg.svd(np.where(finite[..., None, None], a, eye))
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = finite & (s[..., 0] / s[..., -1] < 1.0 / np.finfo(float).eps)
        factors = np.where(ok[..., None, None], np.swapaxes(vt, -1, -2) / s[..., None, :], eye)
    for i in np.flatnonzero(~ok.all(axis=1)):
        if reasons[i] is None:
            reasons[i] = ("minimizing metrics require an invertible Jacobian at "
                          "every sample point; got a numerically singular one")
    return factors


def _inverted_barycenters(factors: Array, reasons: list, tol: float) -> Array:
    """Inverse of the unweighted Karcher barycenter of each row's atoms
    F F^T, from factors (m, k, n, n), solved as one batch.  A row whose
    barycenter does not converge gets a reason; rows with a reason get the
    identity."""
    bars = np.broadcast_to(np.eye(factors.shape[-1]), factors[:, 0].shape).copy()
    rows = np.flatnonzero([r is None for r in reasons])
    if rows.size:
        found, residual = karcher_barycenter(factors[rows], tol=tol)
        converged = residual < tol
        bars[rows[converged]] = found[converged]
        for i, res in zip(rows[~converged], residual[~converged]):
            reasons[i] = (f"barycenter not converged after {spd.KARCHER_MAX_ITER} "
                          f"iterations: gradient residual {res:.3e} bits "
                          f"(tol {tol:.1e})")
    return power(bars, -1.0)


def minimizing_metric(system: SystemModel, horizon, time_samples: int = 64,
                      tol: float = 1e-7) -> MetricField:
    """Tabulated metric whose value at x is the inverted unweighted Karcher
    barycenter of the inverse-Gram atoms of the Jacobian products along the
    orbit of x, one per node: for a map, the steps 0..N-1 (``horizon`` = N,
    an integer at least 1); for a flow, ``time_samples`` equally spaced
    times in [0, T] including both endpoints (``horizon`` = T > 0).  The
    node at 0 gives the identity atom, so N = 1, or one time sample, yields
    the identity metric.  A map's metric does not read ``time_samples``.  A
    flow's metric carries its node spacing as ``step``, the h of the time-h
    map its bound is measured on.

    ``tol`` bounds the distance, in bits, from each computed barycenter to
    the true one; a point whose barycenter does not reach it, or whose
    orbit escapes before the last node, is excluded with a reason."""
    horizon = float(horizon)
    if system.time_type == "discrete":
        if not horizon.is_integer() or horizon < 1:
            raise ConfigError(f"steps must be a whole number of at least 1, got {horizon:g}")
        nodes, label, step = np.arange(horizon), f"auto:N={int(horizon)}", None
    else:
        time_samples = int(time_samples)
        if not 0.0 < horizon < np.inf:
            raise ConfigError(f"horizon must be positive and finite, got {horizon:g}")
        if time_samples < 1:
            raise ConfigError("time_samples must be at least 1")
        label = f"auto:T={horizon:g}"
        if time_samples == 1:
            # single atom at s = 0: the barycenter is the identity everywhere
            return MetricField.constant(np.eye(system.dim), label=label)
        nodes = np.linspace(0.0, horizon, time_samples)
        step = horizon / (time_samples - 1)

    def rule(x: Array) -> tuple:
        prop = propagate(system, x, nodes[-1], variational=True, record_at=nodes)
        reasons = [None] * len(x)
        for i in np.flatnonzero(prop.escaped):
            reasons[i] = (f"trajectory escaped at t={prop.escape_times[i]:.6g} "
                          "while building the minimizing metric")
        factors = _inverse_factors(np.swapaxes(prop.jacobians, 0, 1), reasons)
        return _inverted_barycenters(factors, reasons, tol), reasons

    return MetricField.tabulated(system.dim, rule, label=label, horizon=horizon, step=step)


def minimizing_metric_dt(system: SystemModel, steps: int,
                         tol: float = 1e-7) -> MetricField:
    """``minimizing_metric`` of a discrete-time system over ``steps`` steps."""
    if system.time_type != "discrete":
        raise ConfigError("the step-indexed minimizing metric needs a discrete system")
    return minimizing_metric(system, steps, tol=tol)


# ---------------------------------------------------------------------------
# Oracle and closed forms
# ---------------------------------------------------------------------------

def lyapunov_oracle(system: SystemModel, region: CompactSet,
                    horizons: Sequence[float] = (5.0, 10.0, 20.0, 40.0),
                    resolution=11) -> OracleResult:
    """Finite-time Lyapunov-exponent estimate of the restoration entropy:
    max over sample points of the summed positive exponents of the
    Jacobian of the time-t map, per horizon, with Aitken extrapolation of
    the horizon series.  A map's horizons are step counts and its values
    are in bits/step; a flow's are in bits per unit time.

    Blown-up samples are flagged and excluded.  On lanford at resolution
    11, the 30 rows near the separatrix surface (level at least -1e-3)
    shadow the heteroclinic connection: their states at t = 40 differ from
    a scipy DOP853 reference (rtol 1e-13) by 4.9e-2, so their exponents
    depend on the integrator, and QR renormalisation would not make them
    reproducible."""
    horizons = sorted(float(t) for t in horizons)
    if not horizons or horizons[0] <= 0:
        raise ConfigError("horizons must be positive")
    pts = sample_set(region, resolution)
    prop = propagate(system, pts, horizons[-1], variational=True, record_at=horizons)
    alive = ~prop.escaped
    if not np.any(alive):
        raise NumericError("every sample point blew up before the first horizon")
    values = []
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
    excluded = [(int(i), float(prop.escape_times[i])) for i in np.nonzero(prop.escaped)[0]]
    return OracleResult(
        horizons=list(horizons),
        values=values,
        aitken=aitken_accelerate(values),
        states=pts[alive],
        exponents=lam[alive],     # lam of the last horizon
        excluded=excluded,
        resolution=grid_counts(resolution, region.dim),
        units=UNITS[system.time_type],
    )


def proximate_entropy(system: SystemModel, point) -> float:
    """Sum of the positive real parts of the linearization eigenvalues at an
    equilibrium, in bits/time.  A lower bound for the restoration entropy
    when the equilibrium is interior to the invariant set."""
    if system.time_type != "continuous":
        raise ConfigError("proximate entropy is defined for continuous-time systems")
    point = np.asarray(point, dtype=float)
    residual = float(np.linalg.norm(system.rhs(point)))
    if residual > EQUILIBRIUM_TOL * (1.0 + float(np.linalg.norm(point))):
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
