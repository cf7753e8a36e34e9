"""Restoration-entropy upper bounds, the finite-time-Lyapunov-exponent
oracle, proximate topological entropy, and the reports that hold them.

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

from . import dynamics
from .dynamics import CompactSet, SystemModel, _Lattice, grid_counts, propagate
from .errors import ConfigError, NumericError
from .metrics import MetricField
from .spd import LN2

Array = np.ndarray

SCHEMA_VERSION = 4
UNITS = {"discrete": "bits/step", "continuous": "bits/time"}   # by time type
# Refinement doubles the resolution (c -> 2c - 1 per axis) until the bound
# moves by less than REFINE_TOL, at most MAX_REFINES times, and stops before a
# grid would exceed the point budget of its time type.  Each doubling keeps
# every value it has and evaluates only the new nodes of the cells that the
# margin cannot rule out (``_Lattice.split``).  The bound is evaluated in
# blocks, so its peak memory grows by the evaluated points' table, states and
# node indices, about 0.12 KB per point for a 2-D map and 0.2 KB per kept
# point for the 3-D lanford flow (2-vCPU Linux host), by two bools per node
# of the finest grid and by one float per node of the grid being split: a
# full budget, every node evaluated, costs about 0.25 GB for a map and 1.6 GB
# for a flow.
REFINE_TOL = 1e-4
MAX_REFINES = 3
DT_POINT_BUDGET = 2_000_000
CT_POINT_BUDGET = 8_000_000
# |f(x)| accepted at an equilibrium, relative to 1 + |x|
EQUILIBRIUM_TOL = 1e-8
# json's spelling of the floats whose repr is not JSON
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BoundReport:
    """Evaluated entropy bound over a sampled compact set.

    ``per_point`` is the float table of ``points.csv``: one row per kept
    point evaluated, in row-major order of the grid of ``resolution``,
    holding its state, its spectrum (``dim`` values for a map and for a
    flow) and its local bound.  ``bound_kind`` says what the bound is a max
    over: ``grid`` (every point of the grid), ``grid-adaptive`` (the points
    that refinement evaluated), either one ``-minus-excluded`` (the kept
    points only).  ``refine_margin`` is the largest per-cell margin of the
    last split (``_Lattice.split``)."""

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
    bound_kind: str = "grid"
    refine_margin: Optional[float] = None

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
        _write_rows(fh, numbers, _json_float, "[", ", ", "]", ", ")
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
        _write_rows(fh, numbers or _distinct_numbers(table), "%.17g".__mod__, "", ",", "\r\n")


def _json_float(v: float) -> str:
    text = float.__repr__(v)
    return _JSON_NONFINITE.get(text, text)


def _distinct_numbers(table: Array) -> list:
    """Per column of the float array ``table``, ``(numbers, inverse)``: the
    column's distinct numbers, told apart by their bits so that -0.0 and
    each NaN keep their own text, and the index into them of each entry.
    A grid's table repeats most of its numbers (the benchmark's 33,401-row
    lanford table holds 18,372 of 233,807, counted per column), so each is
    formatted once.  Column by column, the sort's temporaries are one
    column's size, not the table's."""
    table = np.asarray(table, dtype=float)
    return [(bits.view(np.float64).tolist(), inverse)
            for bits, inverse in (np.unique(np.ascontiguousarray(column).view(np.int64),
                                            return_inverse=True) for column in table.T)]


def _write_rows(fh, columns: list, fmt, opening: str, sep: str, close: str,
                between: str = "") -> None:
    """The rows of a table given as its ``_distinct_numbers``: each row is
    ``opening``, its numbers as ``fmt`` spells them joined by ``sep``, then
    ``close``; rows are joined by ``between``.  Each distinct number of a
    column is spelled once, with its column's separators attached: the
    first column's texts start with ``between + opening``, the last
    column's end with ``close`` and the others' with ``sep``.  A block of
    ``_BLOCK_ROWS`` rows is one ``"".join`` of the texts it gathers, and
    the table's first text is written without ``between``: a large table
    never is one string, or one array of texts, in memory."""
    texts = []
    for j, (numbers, _) in enumerate(columns):
        head, tail = between + opening if j == 0 else "", close if j == len(columns) - 1 else sep
        texts.append(np.array([head + text + tail for text in map(fmt, numbers)], dtype=object))
    for start in range(0, len(columns[0][1]), dynamics._BLOCK_ROWS):
        block = np.column_stack([text[inverse[start:start + dynamics._BLOCK_ROWS]]
                                 for text, (_, inverse) in zip(texts, columns)]).ravel().tolist()
        if not start:
            block[0] = block[0][len(between):]
        fh.write("".join(block))


@dataclass(eq=False)
class OracleResult:
    horizons: list
    values: list               # max over the kept points, per horizon
    aitken: float
    states: Array              # kept sample points, (m, dim)
    exponents: Array           # their exponents at the final horizon, (m, dim)
    excluded: list             # {state, reason} of each point escaped by the last horizon
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


def bound(system: SystemModel, region: CompactSet, metric: MetricField,
          resolution=9, refine: bool = False) -> BoundReport:
    """Upper bound on the restoration entropy over the sampled set, in
    bits/step for a map and bits per unit time for a flow.

    For a map it is the grid max of the summed positive log2 singular values
    of the one-step Jacobian, measured between P(x) and P at the image (a
    tabulated metric's pair, ``MetricField``).  For a flow and a metric with
    an orbital rule Pdot, it is 1/(2 ln 2) times the grid max of the summed
    positive eigenvalues of P^{-1/2} (P J + J^T P + Pdot) P^{-1/2}.  A
    flow's tabulated metric carries its node spacing h = ``metric.step``,
    and the bound is the map bound of the time-h map phi_h divided by h.
    That is an upper bound because the paper's discrete-time bound holds for
    the map phi_h with any metric, and h_res(phi_h) = h * h_res(flow).  The
    summed positive log singular values are subadditive along a product
    (Horn's inequality), so the time-h value at x is at most the mean of the
    time-h/2 values at x and at phi_{h/2} x, and as h -> 0 it tends to the
    value with the exact Pdot.
    ``refine`` refines the grid as ``REFINE_TOL`` describes.  The bound is
    then the max over the nodes evaluated, the finest grid's max wherever
    ``REFINE_MARGIN`` rules out only cells that cannot hold it: a heuristic,
    which the report's ``bound_kind`` names (``grid-adaptive``)."""
    if metric.dim != system.dim:
        raise ConfigError(f"metric dimension {metric.dim} != system dimension {system.dim}")
    discrete = system.time_type == "discrete"
    if not discrete and not metric.has_orbital and not (metric.step or 0.0) > 0.0:
        raise ConfigError(f"metric '{metric.label}' has neither an orbital derivative "
                          "nor a positive time step for the time-step map")

    def rows(block: Array) -> tuple:
        values, ok, reasons = metric.spectra(system, block)
        local = positive_sum(values) / (1.0 if discrete else 2.0 * LN2)
        return np.column_stack([block[ok], values, local]), ok, reasons

    lattice = _Lattice(region, grid_counts(resolution, region.dim), rows)
    if not len(lattice.table):
        raise NumericError("every sample point was excluded; no bound available")
    budget = DT_POINT_BUDGET if discrete else CT_POINT_BUDGET
    while refine and lattice.level < MAX_REFINES:
        if np.prod([2 * c - 1 for c in lattice.counts], dtype=float) > budget:
            warnings.warn("refinement stopped by the point budget",
                          RuntimeWarning, stacklevel=2)
            break
        best = lattice.best
        lattice.split()
        if abs(lattice.best - best) < REFINE_TOL:
            break
    best = lattice.table[np.argmax(lattice.table[:, -1])]
    return BoundReport(
        system=system.name,
        params=_json_params(system),
        time_type=system.time_type,
        units=UNITS[system.time_type],
        region=region.descriptor(),
        metric=metric.label,
        metric_horizon=metric.horizon,
        resolution=list(lattice.counts),
        bound=float(best[-1]),
        maximizer=best[:region.dim].tolist(),
        per_point=lattice.table,
        excluded=lattice.excluded,
        refinements=lattice.level,
        map_step=metric.step if not discrete and not metric.has_orbital else None,
        bound_kind=("grid-adaptive" if lattice.level else "grid")
        + ("-minus-excluded" if lattice.excluded else ""),
        refine_margin=lattice.margin,
    )


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

    The points are the nodes of ``bound``'s lattice (``_Lattice``), one
    ``propagate`` and one SVD of the kept rows' records per block: a row
    holds its state, its exponents log2(sv)/t at the last horizon and its
    summed positive exponents at each horizon, and each horizon's value is
    that column's max.  A row whose orbit escapes by the last horizon (a
    state past the guard or a Jacobian not finite) is excluded, with its
    escape time in the reason, so every horizon's value is a max over the
    same rows, those of the report's table.  On lanford at resolution 11,
    the 30 rows near the separatrix surface (level at least -1e-3) shadow
    the heteroclinic connection: their states at t = 40 differ from a scipy
    DOP853 reference (rtol 1e-13) by 4.9e-2, so their exponents depend on
    the integrator, and QR renormalisation would not make them
    reproducible."""
    horizons = sorted(float(t) for t in horizons)
    if not horizons or horizons[0] <= 0 or len(set(horizons)) < len(horizons):
        raise ConfigError(f"horizons must be positive and distinct, got {horizons}")
    t = np.array(horizons)[:, None, None]

    def rows(block: Array) -> tuple:
        prop = propagate(system, block, horizons[-1], variational=True, record_at=horizons)
        ok = ~prop.escaped
        with np.errstate(divide="ignore"):
            lam = np.log2(np.linalg.svd(prop.jacobians[:, ok], compute_uv=False)) / t
        reasons = [f"trajectory of '{system.name}' blew up at t={e:.6g}"
                   for e in prop.escape_times[prop.escaped].tolist()]
        return np.column_stack([block[ok], lam[-1], positive_sum(lam).T]), ok, reasons

    lattice = _Lattice(region, grid_counts(resolution, region.dim), rows)
    if not len(lattice.table):
        raise NumericError(f"every sample point blew up by the last horizon t={horizons[-1]:g}")
    values = np.max(lattice.table[:, 2 * region.dim:], axis=0)
    return OracleResult(
        horizons=horizons,
        values=values.tolist(),
        aitken=aitken_accelerate(values),
        states=lattice.table[:, :region.dim],
        exponents=lattice.table[:, region.dim:2 * region.dim],
        excluded=lattice.excluded,
        resolution=lattice.counts,
        units=UNITS[system.time_type],
    )


def proximate_entropy(system: SystemModel, point) -> float:
    """Sum of the positive real parts of the linearization eigenvalues at an
    equilibrium, in bits/time.  It is a lower bound for the restoration
    entropy of every compact forward-invariant set that contains the
    equilibrium, on its boundary or inside: {x*} is itself an invariant
    set with this entropy (the equilibrium lower bound of Matveev and
    Pogromsky, Automatica 70, 2016), and restoration entropy is a sup over
    the set, so it only grows with the set.  (0, 0, a) lies on the boundary
    of ``lanford_region``."""
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
