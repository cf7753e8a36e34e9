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
SCHEMA_VERSION = 2
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
    map_step: Optional[float] = None   # h of the time-h map, else None
    created: str = ""
    schema_version: int = SCHEMA_VERSION
    kind: str = "bound"     # absent from schema-2 reports written before it

    def __post_init__(self):
        if not self.created:
            self.created = _now()

    def to_dict(self) -> dict:
        """Plain-data view; shares the report's lists, copying nothing."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["per_point"] = [vars(rec) for rec in self.per_point]
        return d

    @staticmethod
    def from_dict(d: dict) -> "BoundReport":
        version, kind = d.get("schema_version"), d.get("kind", "bound")
        if (version, kind) != (SCHEMA_VERSION, "bound"):
            raise ConfigError(f"report has schema version {version}, kind {kind!r}; "
                              f"this version of restent reads schema {SCHEMA_VERSION}, "
                              "kind 'bound'")
        d = dict(d)
        d["per_point"] = [PointRecord(**p) for p in d.get("per_point", [])]
        return BoundReport(**d)

    def to_json(self, path, table: Optional[Array] = None) -> None:
        """Exactly the bytes of ``json.dumps(self.to_dict())`` and a newline,
        for per-point values that are floats, as ``bound`` makes them.  The
        fields around ``per_point`` go through ``json.dumps``; the rows are
        written in blocks, each distinct number spelled once as json spells
        it (``float.__repr__``, ``NaN``, ``Infinity``, ``-Infinity``).
        ``table`` is ``_table()``, when the caller has it."""
        names = [f.name for f in fields(self)]
        cut = names.index("per_point")
        head, tail = (json.dumps({k: getattr(self, k) for k in part})
                      for part in (names[:cut], names[cut + 1:]))
        dim, nsv = self._widths()
        items = [", ".join(["%s"] * n) for n in (dim, nsv)]
        row = '{"state": [%s], "spectrum": [%s], "local": %%s}' % tuple(items)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head[:-1] + ', "per_point": [')
            _write_rows(fh, self._table() if table is None else table,
                        _json_float, row, ", ")
            fh.write("], " + tail[1:] + "\n")

    @staticmethod
    def from_json(path) -> "BoundReport":
        with open(path, "r", encoding="utf-8") as fh:
            return BoundReport.from_dict(json.load(fh))

    def to_csv(self, path, table: Optional[Array] = None) -> None:
        """Per-point table: coordinates, spectrum and local bound per kept
        point.  ``table`` is ``_table()``, when the caller has it."""
        dim, nsv = self._widths()
        header = [f"x{i}" for i in range(dim)] + [f"s{i + 1}" for i in range(nsv)] + ["local_bound"]
        _write_table(path, header, self._table() if table is None else table)

    def _widths(self) -> tuple:
        """Lengths of a per-point state and spectrum."""
        dim = len(self.maximizer)
        return dim, len(self.per_point[0].spectrum) if self.per_point else dim

    def _table(self) -> Array:
        """The per-point rows as one float array: state, spectrum, local."""
        dim, nsv = self._widths()
        rows = [r.state + r.spectrum + [r.local] for r in self.per_point]
        return np.array(rows, dtype=float).reshape(len(rows), dim + nsv + 1)

    def write(self, stem) -> tuple:
        """The two files ``write_report`` names, from ``to_json`` and
        ``to_csv`` over one ``_table()``; returns their paths."""
        paths = f"{stem}.report.json", f"{stem}.points.csv"
        table = self._table()
        self.to_json(paths[0], table)
        self.to_csv(paths[1], table)
        return paths


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # no indent: an indent forces the pure-Python encoder
        fh.write(json.dumps(payload))
        fh.write("\n")


def write_report(stem, kind: str, payload: dict, header=None, table=()) -> tuple:
    """The one report shape: ``{stem}.report.json`` holds ``payload`` with
    the ``SCHEMA_VERSION``, ``kind`` and ``created`` stamps every report
    carries (a ``BoundReport`` carries them as fields), and given a
    ``header``, ``{stem}.points.csv`` holds ``table`` as ``_write_table``
    writes it.  Returns the paths written."""
    paths = (f"{stem}.report.json",)
    _write_json(paths[0], {"schema_version": SCHEMA_VERSION, "kind": kind,
                           "created": _now(), **payload})
    if header is not None:
        paths += (f"{stem}.points.csv",)
        _write_table(paths[1], header, table)
    return paths


def _write_table(path, header: list, table) -> None:
    """CSV table: the header, then each row of the float array ``table``
    (``len(header)`` columns) as ``%.17g`` values, comma-separated and ended
    by CRLF, the bytes ``csv.writer`` would write."""
    table = np.asarray(table, dtype=float).reshape(-1, len(header))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, table, "%.17g".__mod__, ",".join(["%s"] * len(header)) + "\r\n")


def _json_float(v: float) -> str:
    text = float.__repr__(v)
    return _JSON_NONFINITE.get(text, text)


def _formatted(rows: Array, fmt) -> Array:
    """``fmt`` of every number of the float array ``rows``, as an object
    array of its shape.  ``fmt`` runs once per distinct number: the numbers
    are told apart by their bits, so -0.0 and each NaN keep their own text.
    A per-point table repeats most of its numbers (its states lie on a grid
    of a few values per axis): writing the benchmark's 33,401-row lanford
    and 161^2 diag(2, 0.5) reports takes a third of the time that one
    ``fmt`` per number took.  A table whose numbers were all distinct would
    take about twice as long, and no table that ``bound`` makes comes near
    that, so there is no other path."""
    rows = np.ascontiguousarray(rows, dtype=float)
    bits, inverse = np.unique(rows.view(np.int64), return_inverse=True)
    texts = np.array(list(map(fmt, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].reshape(rows.shape)


def _write_rows(fh, rows: Array, fmt, row: str, sep: str = "") -> None:
    """The rows of the float array ``rows``, each filled into the ``%s``
    template ``row`` with its numbers as ``fmt`` spells them, joined by
    ``sep``.  One ``%`` fills a block of ``_CSV_BLOCK_ROWS`` rows, so a
    large table never sits in memory as one string."""
    texts = _formatted(rows, fmt)
    for start in range(0, len(texts), _CSV_BLOCK_ROWS):
        block = texts[start:start + _CSV_BLOCK_ROWS]
        fh.write((sep if start else "")
                 + sep.join([row] * len(block)) % tuple(block.ravel().tolist()))


@dataclass
class OracleResult:
    horizons: list
    values: list               # max over surviving points, per horizon
    aitken: float
    states: list               # surviving sample points
    exponents: list            # their exponents (bits/time) at the final horizon
    excluded: list             # (point index, escape time)
    resolution: list


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
    ``(values, reasons)``: ``reasons[i]`` is None, or says why point i is
    left out (its orbit blew up within the step, or its Jacobian or metric
    values are unusable); ``values`` holds the spectra of the other points,
    in grid order."""
    m = len(pts)
    reasons = [None] * m
    discrete = system.time_type == "discrete"
    if not discrete and metric.has_orbital:
        images, jac = None, system.jacobian(pts)
    else:
        h = 1.0 if discrete else metric.step
        prop = propagate(system, pts, h, variational=True)
        for i in np.flatnonzero(prop.escaped):
            reasons[i] = (f"trajectory of '{system.name}' blew up within the "
                          f"map step at t={prop.escape_times[i]:.6g}")
        images, jac = prop.states, prop.jacobians
    p, why = metric.values(pts if images is None else np.concatenate([pts, images]))
    why_ahead = why[m:] or [None] * m
    bad_jac = (~np.isfinite(jac).all(axis=(-2, -1))).tolist()
    reasons = [r or w or a or ("non-finite Jacobian" if b else None)
               for r, w, a, b in zip(reasons, why, why_ahead, bad_jac)]
    ok = np.array([r is None for r in reasons])
    if not ok.any():
        raise NumericError("every sample point was excluded; no bound available")
    if images is None:
        pdot = metric.orbital_derivative(pts[ok])
        return ct_spectrum_values(p[ok], jac[ok], pdot), reasons
    scale = 1.0 if discrete else 2.0 * LN2 / h
    return scale * metric_sv_values(p[:m][ok], p[m:][ok], jac[ok]), reasons


def _grid_bound(system: SystemModel, region: CompactSet, metric: MetricField,
                resolution: list) -> BoundReport:
    pts = sample_set(region, resolution)
    values, reasons = _spectra(system, metric, pts)
    locals_ = positive_sum(values)
    if system.time_type == "discrete":
        units, map_step = "bits/step", None
    else:
        locals_ = locals_ / (2.0 * LN2)
        units = "bits/time"
        map_step = None if metric.has_orbital else metric.step
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
    """A^{-1} for a stack (m, k, n, n) of Jacobian products, k per sample
    row: the factor of the inverse-Gram atom (A^T A)^{-1} = A^{-1} A^{-T},
    the congruence push of the identity by A^{-1}.  A row with a
    non-finite or numerically singular product (condition number at least
    1/eps) gets a reason, unless it already has one."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    cond = np.full(finite.shape, np.inf)
    cond[finite] = np.linalg.cond(a[finite])
    ok = cond < 1.0 / np.finfo(float).eps
    for i in np.flatnonzero(~ok.all(axis=1)):
        if reasons[i] is None:
            reasons[i] = ("minimizing metrics require an invertible Jacobian at "
                          "every sample point; got a numerically singular one")
    return np.linalg.inv(np.where(ok[..., None, None], a, np.eye(a.shape[-1])))


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
    max over sample points of the summed positive exponents of the flow
    Jacobian, per horizon, with Aitken extrapolation of the horizon series.

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
        states=pts[alive].tolist(),
        exponents=lam[alive].tolist(),     # lam of the last horizon
        excluded=excluded,
        resolution=grid_counts(resolution, region.dim),
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
