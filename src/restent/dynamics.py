"""System definitions, flow and flow-Jacobian propagation, grid sampling,
and forward-invariance spot checks.

States are row vectors; every rhs/jacobian rule is vectorized over leading
axes, so a sample grid, or a block of one, propagates as one batch.
Continuous-time flows use the Dormand-Prince 8(5,3) pair (DOP853), each row
with a step size chosen from its embedded error estimates; the variational
matrix (the flow Jacobian) is integrated jointly with the state, on the same
steps.  Maps iterate the same packed rows.  Trajectories whose norm exceeds
the blow-up guard, or whose state or Jacobian stops being finite, are frozen
at their last admissible state and reported with the escape time.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, UnknownSystemError

Array = np.ndarray

# error estimate accepted per adaptive step (abs and rel).  It bounds each
# step, not the global error; measured on the 485 interior lanford rows at
# resolution 11 to t = 40, the state error is 4e-11 and the flow-Jacobian
# error 1.2e-9 (relative to 1 + |entry|), both below STEP_TOL * t.  Records
# read off the continuous extension between step ends are within 1e-8: 4.3e-9
# on the spot check's 100 lanford records to t = 5, 3.4e-10 for flow Jacobians
STEP_TOL = 1e-10
FIRST_STEP = STEP_TOL ** 0.125  # first adaptive trial step for unit-scale dynamics
MIN_STEP = 1e-12           # step floor, relative to max(1, horizon)
# step controller: h <- h * clip(SAFETY * err^(-1/8), MIN_GROWTH, MAX_GROWTH); the
# safety factor of Shampine & Reichelt's ode45 keeps rejections rare
SAFETY, MIN_GROWTH, MAX_GROWTH = 0.8, 0.2, 5.0
BLOWUP_NORM = 1e8
# spot-check membership slack, as a fraction of each box axis (orbit drift)
MEMBERSHIP_RTOL = 1e-6
# rows per block of every per-point pass over a grid (building it,
# evaluating the bound on it, formatting its table), so that memory does
# not grow with the grid beyond the arrays that are kept
_BLOCK_ROWS = 4096

# Dormand-Prince 8(5,3) pair DOP853 (Prince & Dormand 1981; Hairer, Norsett &
# Wanner, Solving ODEs I, Secs. II.6 and II.10, code dop853.f), as the shortest
# decimals that round-trip to its double coefficients.  Row s of _A combines
# stages 0..s-1 into the input of stage s: row 12 gives the eighth-order
# solution, whose rhs is the next step's first stage (FSAL), rows 13..15 the
# continuous extension's extra stages, which _D weights into its last four
# vectors.  _E5 and _E3 weight the stages into the 5th- and 3rd-order errors.
_A = np.array([row + [0] * (16 - len(row)) for row in [
    [], [0.05260015195876773], [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724,
     -9.15095847217987]]])
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564]])
_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
_E3 = np.array([-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
                -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
                0.20136540080403034, 0.02265179219836082])


@dataclass(frozen=True)
class SystemModel:
    """A map (discrete) or vector field (continuous) with its Jacobian.

    ``rhs`` maps (..., n) -> (..., n); ``jacobian`` maps (..., n) -> (..., n, n)
    and must be the exact derivative of ``rhs``.
    """

    name: str
    time_type: str            # "discrete" | "continuous"
    dim: int
    rhs: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.time_type not in ("discrete", "continuous"):
            raise ConfigError(f"unknown time type {self.time_type!r}")


@dataclass(frozen=True)
class CompactSet:
    """Axis-aligned box, optionally cut down by a membership predicate."""

    bounds: tuple
    constraint: Optional[Callable[[Array], Array]] = None
    label: str = "box"

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not -np.inf < lo < hi < np.inf:
                raise ConfigError(f"box interval [{lo}, {hi}] must be finite, with lo < hi")

    @property
    def kind(self) -> str:
        return "box" if self.constraint is None else "box_with_constraint"

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, x: Array, rtol: float = 0.0) -> Array:
        """Boolean membership, batched; ``rtol`` relaxes the box faces by a
        fraction of each axis width (for orbit drift in spot checks)."""
        x = np.asarray(x, dtype=float)
        inside = np.ones(x.shape[:-1], dtype=bool)
        for i, (lo, hi) in enumerate(self.bounds):
            slack = rtol * (hi - lo)
            inside &= (x[..., i] >= lo - slack) & (x[..., i] <= hi + slack)
        if self.constraint is not None:
            inside &= np.asarray(self.constraint(x), dtype=bool)
        return inside

    def descriptor(self) -> dict:
        return {"kind": self.kind, "label": self.label,
                "bounds": [[float(lo), float(hi)] for lo, hi in self.bounds]}


@dataclass
class Propagation:
    """Raw batched propagation result.

    ``states`` has shape (r, m, n) when ``record_at`` was given (r record
    times) and (m, n) otherwise; ``jacobians`` mirrors it with trailing
    (n, n).  Escaped points are frozen at their last admissible state.
    ``accepted`` and ``rejected`` count each row's integration steps (map
    iterations in discrete time, which rejects none), shape (m,).
    """

    states: Array
    jacobians: Optional[Array]
    escaped: Array
    escape_times: Array
    accepted: Array
    rejected: Array


def _check_horizon(system: SystemModel, t, what: str = "horizon") -> float:
    t = float(t)
    if not 0.0 <= t < np.inf:
        raise ConfigError(f"{what}s must be finite and nonnegative, got {t}")
    if system.time_type == "discrete" and abs(t - round(t)) > 1e-12:
        raise ConfigError(f"a discrete {what} must be an integer, got {t}")
    return t


def _blown(y: Array, n: int) -> Array:
    """Both steppers' escape rule: rows of packed ``y`` whose state (first
    ``n`` entries) passes the blow-up guard, or with an entry not finite:
    their row sum is not (under a fifth of ``np.isfinite``'s cost), and so are
    rows whose entries come within the row width of the float maximum."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = y[:, :n]
        return (np.einsum("ij,ij->i", x, x) > BLOWUP_NORM ** 2) | ~np.isfinite(
            y @ np.ones(y.shape[1]))


def _packed_field(system: SystemModel, variational: bool):
    """Vector field on packed rows (state, then any flat variational matrix), into ``out``."""
    n = system.dim

    def packed(y: Array, out: Array) -> Array:
        x = y[:, :n]
        out[:, :n] = system.rhs(x)
        if variational:
            np.matmul(system.jacobian(x), y[:, n:].reshape(-1, n, n),
                      out=out[:, n:].reshape(-1, n, n))
        return out

    return packed


def _dop853_stages(field, y: Array, k: Array, h: Array, stages=range(1, 13)) -> Array:
    """The stage sums y + h * (_A[s, :s] @ k[:s]) of DOP853 steps from rows y
    with steps h (m, 1), for each s of ``stages`` in turn, formed in place:
    the field there fills k[s], and sum 12, the eighth-order solution, is
    returned.  k[0] = field(y); stages 13..15 also need k[12] = field there."""
    flat = k.reshape(len(k), -1)
    for s in stages:
        g = (_A[s, :s] @ flat[:s]).reshape(y.shape)
        np.add(y, np.multiply(h, g, out=g), out=g)
        if s == 12:
            return g
        field(g, k[s])


def _dop853_dense(field, y0: Array, y1: Array, k: Array, h: Array, at: Array,
                  x: Array) -> Array:
    """DOP853's continuous extension of order 7 (dop853.f's contd8) on steps
    y0 -> y1 of lengths h (q, 1) with stages k[:13] (k[12] = field(y1)):
    fills k[13:16] and returns rows ``at`` at fractions ``x`` of their steps,
    y0 plus x, x(1-x), x^2(1-x), ... times the extension's seven vectors."""
    _dop853_stages(field, y0, k, h, range(13, 16))
    dy = y1 - y0
    f = np.concatenate([[dy, h * k[0] - dy, 2.0 * dy - h * (k[0] + k[12])],
                        h * (_D @ k.reshape(16, -1)).reshape((4,) + y0.shape)])
    u = x * (1.0 - x)
    coef = np.array([x, u, u * x, u * u, u * u * x, u ** 3, u ** 3 * x])
    # gathered along the flat (row, entry) axis: twice as fast as f[:, at]
    cols = (at[:, None] * y0.shape[1] + np.arange(y0.shape[1])).ravel()
    g = f.reshape(7, -1)[:, cols].reshape(7, len(x), -1)
    return y0[at] + np.einsum("kp,kpw->pw", coef, g)


def _integrate_continuous(field, y, n, t, marks):
    """Dormand-Prince 8(5,3) (DOP853) steps of ``field`` from the packed
    rows ``y`` (state of ``n`` entries first, overwritten) over [0, t].

    The live rows step together, each with its own clock and step size, so
    a row that needs short steps (one about to blow up, say) does not hold
    back the others.  ``rows`` maps them to the outputs; a row leaves, in
    one compaction at the top of an iteration, once it passes the last mark
    or has escaped.  A row's step is adapted so that Hairer's error
    estimate, built from the embedded fifth- and third-order estimates in a
    mixed absolute/relative max-norm over the row, stays below ``STEP_TOL``
    per step.  A step lands exactly on the last mark it covers; only a step
    that passes some computes the extra stages that read them off the
    continuous extension (error at ``STEP_TOL``).  Returns (records at the
    ``marks``, escape times or NaN, accepted and rejected steps per row)."""
    m = len(y)
    marks = np.append(np.asarray(marks, dtype=float), np.inf)    # and a sentinel
    r = len(marks) - 1
    out = np.empty((r,) + y.shape)
    rows = np.arange(m)                   # output row of each live row
    nxt = np.zeros(m, dtype=int)          # index of each row's next record time
    now = np.zeros(m)
    h = np.full(m, FIRST_STEP)
    grow = np.full(m, MAX_GROWTH)
    accepted, rejected = np.zeros((2, m), dtype=int)
    times = np.full(m, np.nan)
    floor = MIN_STEP * max(1.0, t)
    stages = np.empty(12 * y.size)        # sliced to the live rows each step
    gone = rows[:0]                       # live rows that escaped last step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k0 = field(y, np.empty_like(y))
        while True:
            # record rows on their next record time (repeatedly, for repeats)
            while len(due := np.flatnonzero(now >= marks[nxt])):
                out[nxt[due], rows[due]] = y[due]
                nxt[due] += 1
            leave = nxt == r
            leave[gone] = True
            if leave.any():
                # an escaped row holds its frozen state at the times it missed
                late, at = np.nonzero(np.arange(r)[:, None] >= nxt[gone])
                out[late, rows[gone[at]]] = y[gone[at]]
                stay = ~leave
                rows, y, k0, nxt, now, h, grow = (
                    v[stay] for v in (rows, y, k0, nxt, now, h, grow))
            if not len(rows):
                break
            # the last record time within reach, exactly by marks - now <= reach
            reach = h * (1.0 + 1e-9)
            last = np.searchsorted(marks, now + reach, side="right") - 1
            while (up := marks[last + 1] - now <= reach).any():
                last += up
            while (down := (last >= nxt) & (marks[last] - now > reach)).any():
                last -= down
            land = last >= nxt
            hs = np.where(land, marks[last] - now, h)
            k = stages[:12 * y.size].reshape((12,) + y.shape)
            k[0] = k0
            y_new = _dop853_stages(field, y, k, hs[:, None])
            scale = STEP_TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
            flat = k.reshape(12, -1)
            e5, e3 = (np.max(np.abs(w @ flat).reshape(y.shape) / scale, axis=1)
                      for w in (_E5, _E3))
            ratio = hs * e5 ** 2 / np.sqrt(e5 ** 2 + 0.01 * e3 ** 2)
            ratio[(e5 == 0) & (e3 == 0)] = 0.0
            # a NaN or infinite estimate (NaN Jacobian, overflow) rejects
            ratio[~np.isfinite(ratio)] = np.inf
            # at the step floor, a row that still misses the target escapes
            ok = (ratio <= 1.0) | (hs <= floor)
            new = _blown(y_new, n) | (ratio > 1.0)
            fac = np.minimum(grow, np.maximum(MIN_GROWTH, SAFETY * ratio ** -0.125))
            # a step cut short to land on a record time does not shrink the
            # next one
            h = np.where(ok & land, np.maximum(hs * fac, h), hs * fac)
            grow = np.where(ok, MAX_GROWTH, 1.0)
            rejected[rows[~ok]] += 1
            accepted[rows[ok]] += 1
            start = now
            now = np.where(ok, np.where(land, marks[last], now + hs), now)
            gone = np.flatnonzero(ok & new)
            times[rows[gone]] = now[gone]
            keep = ok & ~new
            # kept steps that passed record times before the one they landed on
            passed = np.flatnonzero(keep & (marks[nxt] < now))
            y0 = y[passed]
            if keep.all():
                y = y_new
                field(y, k0)                  # first stage of the next step
            elif keep.any():
                y[keep] = y_new = y_new[keep]
                k0[keep] = field(y_new, np.empty_like(y_new))
            if len(passed):
                stop = np.searchsorted(marks, now[passed])
                count = stop - nxt[passed]
                at = np.repeat(np.arange(len(passed)), count)
                which = nxt[passed][at] + np.arange(len(at)) - (np.cumsum(count) - count)[at]
                kp = np.concatenate([k[:, passed], k0[None, passed],
                                     np.empty((3, len(passed), y.shape[1]))])
                out[which, rows[passed[at]]] = _dop853_dense(
                    field, y0, y[passed], kp, hs[passed, None], at,
                    (marks[which] - start[passed[at]]) / hs[passed[at]])
                nxt[passed] = stop
    return out, times, accepted, rejected


def _integrate_discrete(field, y, n, t, marks):
    """The map ``field`` iterated t times on the packed rows ``y``, each
    frozen at the step ``_blown`` flags it; returns what
    ``_integrate_continuous`` returns, no step rejected."""
    m = len(y)
    marks = np.round(marks)
    out = np.empty((len(marks),) + y.shape)
    times = np.full(m, np.nan)
    steps = int(round(t))
    out[marks == 0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            new = field(y, np.empty_like(y))
            times[_blown(new, n) & np.isnan(times)] = k
            gone = ~np.isnan(times)
            new[gone] = y[gone]
            y = new
            out[marks == k] = y
    return out, times, np.full(m, steps), np.zeros(m, dtype=int)


def propagate(system: SystemModel, x0, t, variational: bool = False,
              record_at: Optional[Sequence[float]] = None) -> Propagation:
    """Batched propagation over horizon t, optionally with the variational
    matrix and intermediate records: it packs each row (the state, then the
    flat variational matrix), runs the time type's stepper on
    ``_packed_field`` and unpacks the records.  Continuous-time flows use
    adaptive Dormand-Prince 8(5,3) (DOP853) steps whose error estimate is at
    most ``STEP_TOL`` per step, which bounds each step, not the returned
    state (``STEP_TOL`` states the measured global error).  Each record time
    gets its own record, repeats included: a flow's step lands on the last
    record time it covers and reads the ones it passes off the continuous
    extension (also stated at ``STEP_TOL``); a map's record times are whole
    steps.  Does not raise on blow-up: a row that ``_blown`` flags is frozen
    and flagged.  No row reads another, but OpenBLAS rounds the stage sums
    by the batch's width and thread split: a lanford row moves with its
    batch by up to 5e-15 (2 threads; none with 1), and a row escaping at a
    NaN edge of its field by a few steps."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[-1] != system.dim:
        raise ConfigError(f"state dimension {x0.shape[-1]} != system dimension {system.dim}")
    t = _check_horizon(system, t)
    if record_at is not None:
        record_at = [_check_horizon(system, r, "record time") for r in record_at]
        if any(r > t + 1e-9 for r in record_at):
            raise ConfigError("record times must lie within [0, horizon]")
        if sorted(record_at) != record_at:
            raise ConfigError("record times must be nondecreasing")
    m, n = x0.shape
    y = np.zeros((m, n + n * n if variational else n))
    y[:, :n] = x0
    y[:, n::n + 1] = 1.0           # the variational matrix, flat, starts as the identity
    step = _integrate_discrete if system.time_type == "discrete" else _integrate_continuous
    out, times, accepted, rejected = step(_packed_field(system, variational), y, n, t,
                                          [*(record_at or []), t])
    out = out[:-1] if record_at is not None else out[-1]
    jacs = out[..., n:].reshape(out.shape[:-1] + (n, n)) if variational else None
    return Propagation(out[..., :n], jacs, ~np.isnan(times), times, accepted, rejected)


def _whole_count(value) -> int:
    """``value`` as an int when it is a whole number (3, 3.0 or "3"); a
    fraction is a ValueError, not a count rounded down."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(number)


def grid_counts(resolution, dim: int) -> list:
    """Per-axis grid counts from a single count or one count per axis, each
    a whole number of at least 2."""
    counts = [resolution] * dim if np.isscalar(resolution) else list(resolution)
    if len(counts) != dim:
        raise ConfigError(f"expected {dim} resolution entries, got {len(counts)}")
    try:
        counts = [_whole_count(c) for c in counts]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"resolution must be whole numbers: {exc}") from exc
    if any(c < 2 for c in counts):
        raise ConfigError("resolution must be at least 2 per axis")
    return counts


def lattice_points(region: CompactSet, counts: list, index) -> tuple:
    """The nodes of the uniform lattice of ``counts`` points per axis over
    the box whose row-major flat indices are ``index`` (increasing; an array
    or a ``range``), as ``(pts, index)`` of those the constraint keeps, built
    and filtered ``_BLOCK_ROWS`` at a time.  A node's coordinates are those
    of ``np.linspace`` on each axis, and halving the step is exact, so node
    i of c points per axis is node 2i of 2c - 1, bit for bit."""
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(region.bounds, counts)]
    pts, kept = [np.empty((0, len(counts)))], [np.empty(0, dtype=np.int64)]
    for start in range(0, len(index), _BLOCK_ROWS):
        at = index[start:start + _BLOCK_ROWS]
        at = np.arange(at.start, at.stop, at.step) if isinstance(at, range) else at
        block = np.stack([axis[i] for axis, i in zip(axes, np.unravel_index(at, counts))], -1)
        if region.constraint is not None:
            inside = np.asarray(region.constraint(block), dtype=bool)
            block, at = block[inside], at[inside]
        pts.append(block)
        kept.append(at)
    return np.concatenate(pts), np.concatenate(kept)


def sample_set(region: CompactSet, resolution) -> Array:
    """Uniform grid over the box in row-major order, filtered by the
    constraint: the ``lattice_points`` of the whole lattice.  ``resolution``
    is a per-axis count or a single count."""
    counts = grid_counts(resolution, region.dim)
    pts = lattice_points(region, counts, range(int(np.prod(counts, dtype=np.int64))))[0]
    if len(pts) == 0:
        raise ConfigError("constraint excluded every grid point")
    return pts


@dataclass
class InvarianceReport:
    """Escape accounting for a sampled forward-invariance check."""

    n_points: int
    n_escaped: int
    horizon: float
    first_exit: list          # (point index, exit time) pairs

    @property
    def fraction(self) -> float:
        return self.n_escaped / self.n_points if self.n_points else 0.0


def invariance_spot_check(system: SystemModel, region: CompactSet, resolution,
                          horizon) -> InvarianceReport:
    """Iterate every grid point over the horizon and report which orbits
    leave the set, checked at each step of a map and at 10 to 200 record
    times of a flow, most read off the continuous extension within 1e-8
    (``STEP_TOL``), far inside ``MEMBERSHIP_RTOL``.  Forward invariance
    itself is a modeling assumption; this is the sampled surrogate."""
    pts = sample_set(region, resolution)
    horizon = _check_horizon(system, horizon)
    if system.time_type == "discrete":
        checks = np.arange(1, int(round(horizon)) + 1, dtype=float)
    else:
        n_checks = max(10, min(200, int(round(horizon / 0.05))))
        checks = np.linspace(horizon / n_checks, horizon, n_checks)
    prop = propagate(system, pts, horizon, record_at=checks)
    inside = region.contains(prop.states, rtol=MEMBERSHIP_RTOL)     # (r, m)
    out = ~inside
    escaped = out.any(axis=0) | prop.escaped
    first_exit = []
    for idx in np.nonzero(escaped)[0]:
        col = out[:, idx]
        t_exit = checks[int(np.argmax(col))] if col.any() else prop.escape_times[idx]
        first_exit.append((int(idx), float(t_exit)))
    return InvarianceReport(n_points=len(pts), n_escaped=int(escaped.sum()),
                            horizon=horizon, first_exit=first_exit)


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

def lanford_system(a: float = 2.0 / 3.0) -> SystemModel:
    """Three-dimensional polynomial vector field with equilibria at the
    origin and at (0, 0, a); forward-invariant sets live in z >= 0."""
    a = float(a)

    def rhs(s: Array) -> Array:
        x, y, z = s[..., 0], s[..., 1], s[..., 2]
        out = np.empty_like(s)
        out[..., 0] = (a - 1.0) * x - y + x * z
        out[..., 1] = x + (a - 1.0) * y + y * z
        out[..., 2] = a * z - (x * x + y * y + z * z)
        return out

    def jac(s: Array) -> Array:
        x, y, z = s[..., 0], s[..., 1], s[..., 2]
        out = np.empty(s.shape[:-1] + (3, 3))
        out[..., 0, 0] = out[..., 1, 1] = a - 1.0 + z
        out[..., 0, 1] = -1.0
        out[..., 0, 2] = x
        out[..., 1, 0] = 1.0
        out[..., 1, 2] = y
        out[..., 2, 0] = -2.0 * x
        out[..., 2, 1] = -2.0 * y
        out[..., 2, 2] = a - 2.0 * z
        return out

    return SystemModel(name="lanford", time_type="continuous", dim=3,
                       rhs=rhs, jacobian=jac, params={"a": a})


def _linear_factories(matrix, time_type, name):
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"system matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ConfigError(f"system matrix entries must be finite, got {m.tolist()}")
    n = m.shape[0]

    def rhs(x: Array) -> Array:
        return x @ m.T

    def jac(x: Array) -> Array:
        return np.broadcast_to(m, x.shape[:-1] + (n, n)).copy()

    return SystemModel(name=name, time_type=time_type, dim=n, rhs=rhs,
                       jacobian=jac, params={"matrix": m.tolist()})


def linear_map_system(matrix) -> SystemModel:
    """Discrete map x -> M x."""
    return _linear_factories(matrix, "discrete", "linmap")


def linear_ode_system(matrix) -> SystemModel:
    """Linear vector field xdot = M x."""
    return _linear_factories(matrix, "continuous", "linode")


def identity_system(dim: int = 2) -> SystemModel:
    """The identity map x -> x of dimension ``dim``: the ``linmap`` of the
    unit matrix, named ``identity`` and parametrised by ``dim``."""
    n = _whole_count(dim)
    if n < 1:
        raise ConfigError(f"the identity system needs dimension >= 1, got {dim}")
    return replace(_linear_factories(np.eye(n), "discrete", "identity"), params={"dim": n})


def builtin_systems() -> dict:
    """Registry of built-in system factories."""
    return {
        "lanford": lanford_system,
        "linmap": linear_map_system,
        "linode": linear_ode_system,
        "identity": identity_system,
    }


def make_system(name: str, **params) -> SystemModel:
    registry = builtin_systems()
    if name not in registry:
        raise UnknownSystemError(
            f"unknown system {name!r}; built-ins: {sorted(registry)}")
    return registry[name](**params)


def lanford_region(a: float = 2.0 / 3.0) -> CompactSet:
    """Solid of revolution (x^2+y^2)/2 + (z - a/2)^2 <= (a/2)^2 inside its
    bounding box.

    At a = 2/3 the quantity u*(u/2 + (z-a/2)^2 - (a/2)^2) with u = x^2+y^2
    is a first integral, so the boundary (the separatrix surface joining
    the two equilibria, plus the invariant z-axis) encloses an exactly
    forward-invariant region.  For other a the same family is used as the
    sampling region; invariance must then be read off the spot-check
    report."""
    a = float(a)
    if a <= 0:
        raise ConfigError("parameter a must be positive")
    zc = a / 2.0
    r = a / np.sqrt(2.0)
    level = zc ** 2
    slack = 1e-7 * (1.0 + level)

    def inside(x: Array) -> Array:
        u = x[..., 0] ** 2 + x[..., 1] ** 2
        return u / 2.0 + (x[..., 2] - zc) ** 2 <= level + slack

    bounds = ((-r, r), (-r, r), (0.0, zc + zc))
    # reports written before carry the same label, scale included
    return CompactSet(bounds=bounds, constraint=inside,
                      label=f"lanford-ellipsoid(a={a:g},scale=1)")


def default_region(system: SystemModel) -> CompactSet:
    """Sampling region used when none is declared."""
    if system.name == "lanford":
        return lanford_region(system.params["a"])
    return CompactSet(bounds=tuple((-1.0, 1.0) for _ in range(system.dim)))
