"""Restoration-entropy upper bounds, minimizing-metric constructions, the
finite-time-Lyapunov-exponent oracle, and proximate topological entropy.

Discrete-time bounds are in bits/step, continuous-time bounds in bits per
unit time.  Continuous-time roots stay in natural-log units until the final
1/(2 ln 2) conversion, so no silent double conversion can occur.
"""
from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Optional, Sequence

import numpy as np

from . import dynamics
from .dynamics import CompactSet, SystemModel, grid_counts, propagate, sample_set
from .errors import ConfigError, NumericError
from .metrics import MetricField, ct_spectrum_values, metric_sv_values
from . import spd
from .spd import LN2, karcher_barycenter

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
# A split rules out a cell when its largest kept corner is below the best
# local bound by more than REFINE_MARGIN times the largest step in local bound
# between kept grid neighbours on the edges of the cell and of the cells
# around it.  A point of a cell is half a step per axis from its nearest
# corner, so a function whose steps are those of the grid differs there by at
# most d/2 steps in d dimensions; 2 covers d <= 3 with room for curvature.
# Measured on lanford-exp refined from resolution 21 to 41 at a = 2/3 (2-vCPU
# host): factor 1 evaluates 5,070 of the grid's 33,401 points, 2 evaluates
# 7,630 and 3 12,926, in 9, 15 and 18 ms against 43 ms for the whole grid;
# each factor gives the whole grid's bound, here and from resolution 20 (to
# 77) at a = 2/3, 0.75 and 1.  One margin for the whole grid, its largest
# step anywhere, evaluated 16,373 points at factor 2.
REFINE_MARGIN = 2.0
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
    """Metric spectra at a block of grid points, evaluated as one batch.

    A tabulated metric is measured on the time-h map (h = 1 for a map,
    ``metric.step`` for a flow) from its rule's pairs alone, as half each
    pair's ``vectorial_distance``: nothing is inverted or rooted, so no
    floor on the condition number applies.  A flow's values are scaled by
    2 ln 2 / h, to the units of the generator spectrum that other metrics
    get on a flow; on a map, they are evaluated on the points stacked with
    their images.  Returns ``(values, ok, reasons)``: the spectra of the
    points kept, which ``ok`` marks, and why each other one is left out."""
    m = len(pts)
    discrete = system.time_type == "discrete"
    if metric.kind == "tabulated":
        pairs, why = metric.eval_rule(pts)
        finite = np.isfinite(pairs).all(axis=(-3, -2, -1))
        ok = np.array([r is None for r in why], dtype=bool) & finite
        try:
            doubled = spd.vectorial_distance(pairs[ok, 0], pairs[ok, 1])
        except NumericError:             # factor row by row to find the failures
            for i in np.flatnonzero(ok):
                try:
                    np.linalg.cholesky(pairs[i])
                except np.linalg.LinAlgError:
                    ok[i] = False
            doubled = spd.vectorial_distance(pairs[ok, 0], pairs[ok, 1])
        reasons = [why[i] if why[i] is not None else "metric pair is not finite"
                   if not finite[i] else "metric pair is not positive definite"
                   for i in np.flatnonzero(~ok)]
        return (0.5 if discrete else LN2 / metric.step) * doubled, ok, reasons
    if discrete:
        prop = propagate(system, pts, 1.0, variational=True)
        images, jac, escaped = prop.states, prop.jacobians, prop.escaped
    else:
        images, jac, escaped = None, system.jacobian(pts), np.zeros(m, dtype=bool)
    roots, inverse, failed, why = metric.values(
        pts if images is None else np.concatenate([pts, images]))
    ok = ~(escaped | failed.reshape(-1, m).any(axis=0))
    measured, at = np.flatnonzero(ok), inverse[:m][ok]   # each one's distinct metric value
    if images is None:
        pdot = metric.orbital_derivative(pts[ok])
        values = ct_spectrum_values(roots[0][at], roots[2][at], jac[ok], pdot)
    else:
        values = metric_sv_values(roots[1][inverse[m:][ok]], jac[ok], roots[2][at])
    lost = np.isnan(values[:, 0])          # a matrix the spectrum refused
    culprit = {i: "non-finite Jacobian" if not np.isfinite(jac[i]).all()
               else "non-finite orbital derivative" if images is None
               and not np.isfinite(pdot[j]).all()
               else f"metric-adapted {'generator' if images is None else 'Jacobian'} overflows"
               for i, j in zip(measured[lost].tolist(), np.flatnonzero(lost).tolist())}
    ok[measured[lost]] = False
    reasons = [(f"trajectory of '{system.name}' blew up within the map step "
                f"at t={prop.escape_times[i]:.6g}") if escaped[i]
               else why.get(i) or why.get(m + i) or culprit[i]
               for i in np.flatnonzero(~ok).tolist()]
    return (values[~lost] if lost.any() else values), ok, reasons


def _doubled(at: Array, counts: list, finer: list) -> Array:
    """The flat indices on the lattice ``finer`` (2c - 1 points per axis)
    of the nodes ``at`` of the lattice ``counts`` (c per axis)."""
    return np.ravel_multi_index(tuple(2 * i for i in np.unravel_index(at, counts)), finer)


def _cells(a: Array, axes) -> Array:
    """``np.fmax`` of each pair of neighbours along each of ``axes`` in turn:
    per cell (by lower corner), the largest non-NaN value of ``a`` at its
    corners along ``axes``, NaN where there is none; exact in any order."""
    for k in axes:
        head = (slice(None),) * k
        a = np.fmax(a[head + (slice(None, -1),)], a[head + (slice(1, None),)])
    return a


class _Lattice:
    """A bound's lattice of sample points, as refinement splits it.

    ``counts`` points per axis span the box.  ``live`` marks the cells (by
    lower corner, ``counts - 1`` per axis) that a split may still halve:
    every cell of the first lattice (``True``), then the halves of the
    cells split.  ``table`` holds the rows of the kept nodes and ``at``
    their flat node indices, ``excluded`` the entries of the excluded nodes
    and ``lost`` theirs, each in the order the nodes were evaluated: node
    order within each split, and the indices on the current lattice.
    ``best`` is the largest local bound and ``level`` the number of splits."""

    def __init__(self, system: SystemModel, region: CompactSet, metric: MetricField,
                 counts: list):
        self.system, self.region, self.metric, self.counts = system, region, metric, counts
        self.live = True
        self.best, self.level, self.margin = -np.inf, 0, None
        self.table, self.at = np.empty((0, 2 * len(counts) + 1)), np.empty(0, dtype=np.int64)
        self.excluded, self.lost = [], np.empty(0, dtype=np.int64)
        self._evaluate(range(int(np.prod(counts, dtype=np.int64))))
        if not len(self.table) and not self.excluded:
            raise ConfigError("constraint excluded every grid point")
        if not len(self.table):
            raise NumericError("every sample point was excluded; no bound available")

    def _evaluate(self, index) -> None:
        """Evaluates the nodes of increasing flat indices ``index`` (an
        array, or the range of the whole lattice) that the region keeps,
        and appends their rows to ``table`` and ``excluded``.  Their
        spectra are evaluated ``_BLOCK_ROWS`` nodes at a time: no row's
        arithmetic depends on the rows beside it, so the blocks join, in
        node order, into the table one batch would give."""
        pts, index = dynamics.lattice_points(self.region, self.counts, index)
        tables, kept, reasons = [self.table], [np.zeros(0, dtype=bool)], []
        for start in range(0, len(pts), dynamics._BLOCK_ROWS):
            block = pts[start:start + dynamics._BLOCK_ROWS]
            values, ok, why = _spectra(self.system, self.metric, block)
            locals_ = positive_sum(values)
            if self.system.time_type == "continuous":
                locals_ = locals_ / (2.0 * LN2)
            tables.append(np.column_stack([block[ok], values, locals_]))
            kept.append(ok)
            reasons += why
        self.table, kept = np.concatenate(tables), np.concatenate(kept)
        self.at, self.lost = np.append(self.at, index[kept]), np.append(self.lost, index[~kept])
        self.excluded += [{"state": state, "reason": reason}
                          for state, reason in zip(pts[~kept].tolist(), reasons)]
        self.best = float(np.max(self.table[:, -1], initial=-np.inf))

    def split(self) -> None:
        """Double the lattice (c -> 2c - 1 per axis), re-index ``at`` and
        ``lost`` on it, and evaluate the new nodes of the live cells that
        may hold a larger local bound.

        A cell's margin is ``REFINE_MARGIN`` times the largest difference
        in local bound between kept lattice neighbours on the edges of the
        cell and of its 3^d - 1 neighbouring cells (infinite when there is
        none), so a steep step keeps only the cells beside it alive.
        ``margin``, the report's ``refine_margin``, is the largest finite
        one: ``REFINE_MARGIN`` times the lattice's largest step (infinite
        when no two neighbours are kept).  A live cell is split, its halves
        live, when none of its corners is kept or when its largest kept
        corner plus its margin reaches ``best``.  The nodes of its halves
        that are not nodes of the coarse lattice are evaluated."""
        dim, axes = len(self.counts), range(len(self.counts))
        local = np.full(self.counts, np.nan)         # NaN off the kept nodes
        local.flat[self.at] = self.table[:, -1]
        margin = np.full([c - 1 for c in self.counts], np.nan)   # NaN: no step
        for k in axes:            # largest step on each cell's edges along axis k
            margin = np.fmax(margin, _cells(np.abs(np.diff(local, axis=k)), set(axes) - {k}))
        # and on its neighbours' edges: one cell of NaN around, reduced twice
        margin = REFINE_MARGIN * _cells(np.pad(margin, 1, constant_values=np.nan), [*axes, *axes])
        largest = float(np.max(margin, initial=-np.inf, where=~np.isnan(margin)))
        self.margin = largest if largest >= 0.0 else np.inf
        split = self.live & ~(_cells(local, axes) + margin < self.best)  # a NaN one splits
        coarse, self.counts = self.counts, [2 * c - 1 for c in self.counts]
        self.at, self.lost = (_doubled(self.at, coarse, self.counts),
                              _doubled(self.lost, coarse, self.counts))
        self.live = np.zeros([c - 1 for c in self.counts], dtype=bool)
        need = np.zeros(self.counts, dtype=bool)
        corners = list(itertools.product((0, 1), repeat=dim))
        for corner in corners:
            self.live[tuple(slice(o, None, 2) for o in corner)] = split
        for corner in corners:
            need[tuple(slice(o, o + c - 1) for o, c in zip(corner, self.counts))] |= self.live
        need[(slice(None, None, 2),) * dim] = False   # the coarse nodes
        self.level += 1
        self._evaluate(np.flatnonzero(need))

    def report(self) -> BoundReport:
        """The report of the rows evaluated, the kept and the excluded nodes
        each sorted by node index after a split (the first lattice's are)."""
        table, excluded = self.table, self.excluded
        if self.level:
            table = table[np.argsort(self.at)]
            excluded = [excluded[i] for i in np.argsort(self.lost)]
        best = table[np.argmax(table[:, -1])]
        continuous = self.system.time_type == "continuous"
        return BoundReport(
            system=self.system.name,
            params=_json_params(self.system),
            time_type=self.system.time_type,
            units=UNITS[self.system.time_type],
            region=self.region.descriptor(),
            metric=self.metric.label,
            metric_horizon=self.metric.horizon,
            resolution=list(self.counts),
            bound=float(best[-1]),
            maximizer=best[:self.region.dim].tolist(),
            per_point=table,
            excluded=excluded,
            refinements=self.level,
            map_step=(self.metric.step if continuous and not self.metric.has_orbital
                      else None),
            bound_kind=("grid-adaptive" if self.level else "grid")
            + ("-minus-excluded" if excluded else ""),
            refine_margin=self.margin,
        )


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
    lattice = _Lattice(system, region, metric, grid_counts(resolution, region.dim))
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
    return lattice.report()


# ---------------------------------------------------------------------------
# Minimizing metric sequences
# ---------------------------------------------------------------------------

def minimizing_metric(system: SystemModel, horizon, time_samples: int = 64,
                      tol: float = 1e-7) -> MetricField:
    """Tabulated metric whose value at x is the unweighted Karcher barycenter
    B_0 of the Gram atoms A^T A of the Jacobian products A along the orbit
    of x at nodes 0..N-1: for a map, the steps (``horizon`` = N, a whole
    number at least 1; ``time_samples`` is not read); for a flow, N =
    ``time_samples`` equally spaced times in [0, T] (``horizon`` = T > 0),
    whose spacing h it carries as ``step``.  N = 1 gives the identity.
    Inversion is a trace-metric isometry (Bhatia 2007, ch. 6), so B_0 is the
    inverse of the barycenter of the inverse-Gram atoms (Moakher 2005),
    computed with no inversion.  The orbit is recorded at one more node N
    (step N, time T + h), and the rule's pair is (B_0, B_1), B_1 the
    barycenter of nodes 1..N: Phi_h^T P(phi_h x) Phi_h, by congruence
    equivariance.

    ``tol`` bounds the distance, in bits, from each window barycenter to the
    exact one, so each log2 singular value of the time-h map moves by at
    most ``tol`` bits (the vectorial triangle inequality, property
    ``triangle-majorization``), ``tol``/h per unit time for a flow.  A row
    whose orbit escapes before the last node, whose product one window's
    ``karcher_barycenter`` refuses or whose residual stays at ``tol`` or above
    is excluded with a reason, and holds the identity from that window on.
    ``tol`` must satisfy 0 < tol < inf; at inf every window would pass as
    converged at its log-Euclidean start."""
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"barycenter tolerance must be positive and finite, got {tol:g}")
    horizon = float(horizon)
    if system.time_type == "discrete":
        if not horizon.is_integer() or horizon < 1:
            raise ConfigError("steps must be a whole number of at least 1 (a map's "
                              f"horizons are step counts), got {horizon:g}")
        nodes, label, step = np.arange(horizon + 1.0), f"auto:N={int(horizon)}", None
    else:
        time_samples = int(time_samples)
        if not 0.0 < horizon < np.inf:
            raise ConfigError(f"horizon must be positive and finite, got {horizon:g}")
        if time_samples < 1:
            raise ConfigError("time_samples must be at least 1")
        label = f"auto:T={horizon:g}"
        if time_samples == 1:         # the one atom at 0 is the identity
            return MetricField.constant(np.eye(system.dim), label=label)
        step = horizon / (time_samples - 1)
        nodes = np.append(np.linspace(0.0, horizon, time_samples), horizon + step)

    def rule(x: Array) -> tuple:
        prop = propagate(system, x, nodes[-1], variational=True, record_at=nodes)
        reasons = [f"trajectory escaped at t={t:.6g} while building the minimizing metric"
                   if gone else None for gone, t in zip(prop.escaped, prop.escape_times)]
        a = np.swapaxes(prop.jacobians, 0, 1)
        bars = np.broadcast_to(np.eye(system.dim), (len(x), 2, system.dim, system.dim)).copy()
        for k, window in enumerate((a[:, :-1], a[:, 1:])):    # one by one: half the peak
            rows = np.flatnonzero([r is None for r in reasons])
            found, residual = karcher_barycenter(np.swapaxes(window[rows], -1, -2), tol=tol)
            done = residual < tol
            bars[rows, k] = np.where(done[:, None, None], found, np.eye(system.dim))
            for i, res in zip(rows[~done].tolist(), residual[~done]):
                reasons[i] = ("minimizing metrics require an invertible Jacobian at every "
                              "sample point; got a numerically singular one" if res == np.inf
                              else f"barycenter not converged after {spd.KARCHER_MAX_ITER} "
                              f"iterations: gradient residual {res:.3e} bits (tol {tol:.1e})")
        return bars, reasons

    return MetricField.tabulated(system.dim, rule, label=label, horizon=horizon, step=step)


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

    Points are propagated in blocks of ``_BLOCK_ROWS``, so memory grows with
    the grid only by the kept states and exponents.  A block is reduced in
    one pass over all horizons: one SVD of the stacked records, exponents
    log2(sv)/t, each horizon's max over the rows not escaped by then.
    Escaped rows (a state past the guard or a Jacobian not finite) are
    excluded, so every record is finite.  On lanford at resolution 11, the
    30 rows near the separatrix surface (level at least -1e-3) shadow the
    heteroclinic connection: their states at t = 40 differ from a scipy
    DOP853 reference (rtol 1e-13) by 4.9e-2, so their exponents depend on
    the integrator, and QR renormalisation would not make them
    reproducible."""
    horizons = sorted(float(t) for t in horizons)
    if not horizons or horizons[0] <= 0:
        raise ConfigError("horizons must be positive")
    pts = sample_set(region, resolution)
    t = np.array(horizons)[:, None]
    values = np.full(len(horizons), -np.inf)
    states, exponents, excluded = [], [], []
    for start in range(0, len(pts), dynamics._BLOCK_ROWS):
        block = pts[start:start + dynamics._BLOCK_ROWS]
        prop = propagate(system, block, horizons[-1], variational=True, record_at=horizons)
        with np.errstate(divide="ignore"):
            lam = np.log2(np.linalg.svd(prop.jacobians, compute_uv=False)) / t[..., None]
        # rows that escaped by each horizon, (horizons, rows)
        gone = prop.escape_times <= t + 1e-12
        values = np.maximum(values, np.max(positive_sum(lam), axis=1, initial=-np.inf,
                                           where=~gone))
        states.append(block[~prop.escaped])
        exponents.append(lam[-1][~prop.escaped])
        excluded += [(start + int(i), float(prop.escape_times[i]))
                     for i in np.nonzero(prop.escaped)[0]]
    if len(excluded) == len(pts):
        raise NumericError(f"every sample point blew up by the last horizon t={horizons[-1]:g}")
    return OracleResult(
        horizons=list(horizons),
        values=values.tolist(),
        aitken=aitken_accelerate(values),
        states=np.concatenate(states),
        exponents=np.concatenate(exponents),
        excluded=excluded,
        resolution=grid_counts(resolution, region.dim),
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
    singular values of P^{1/2} and of P^{-1/2}, taken over the distinct
    values of P.  Raises NumericError with the reason of the first point
    that has no value."""
    roots, _, _, why = metric.values(np.asarray(points, dtype=float))
    if why:
        raise NumericError(why[min(why)])
    w = np.linalg.eigvalsh(roots[0])               # ascending, (k, n)
    half = 0.5 * np.log2(w[..., ::-1])             # log2 singulars of P^{1/2}, desc
    fwd = np.cumsum(half, axis=-1)                 # log2 omega_k(P^{1/2})
    bwd = np.cumsum(-half[..., ::-1], axis=-1)     # log2 omega_k(P^{-1/2})
    return float(np.max(np.max(fwd, axis=0) + np.max(bwd, axis=0)))
