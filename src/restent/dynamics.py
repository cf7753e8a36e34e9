"""System definitions, flow and flow-Jacobian propagation, grid sampling,
and forward-invariance spot checks.

States are row vectors; every rhs/jacobian rule is vectorized over leading
axes, so whole sample grids propagate as one batch.  Continuous-time flows
use the Dormand-Prince 5(4) pair, each row with a step size chosen from
its embedded error estimate; the variational matrix (the flow Jacobian) is
integrated jointly with the state, on the same steps.  Trajectories whose
norm exceeds the blow-up guard are frozen at their last admissible state
and reported with the escape time.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, UnknownSystemError

Array = np.ndarray

STEP_TOL = 1e-10           # accepted local error per adaptive step (abs and rel)
FIRST_STEP = STEP_TOL ** 0.2   # first adaptive trial step for unit-scale dynamics
MIN_STEP = 1e-12           # step floor, relative to max(1, horizon)
# step controller: h <- h * clip(SAFETY * err^(-1/5), MIN_GROWTH, MAX_GROWTH); the
# safety factor of Shampine & Reichelt's ode45 keeps rejections rare
SAFETY, MIN_GROWTH, MAX_GROWTH = 0.8, 0.2, 5.0
BLOWUP_NORM = 1e8
# spot-check membership slack, as a fraction of each box axis (orbit drift)
MEMBERSHIP_RTOL = 1e-6
# auto_region shrinks its candidate region at most this many times, by 0.9
MAX_SHRINKS = 6

# Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett & Wanner,
# Solving ODEs I, Table II.5.2).  Row s of _DP_A combines stages 0..s-1 into
# the input of stage s; row 6 is the fifth-order solution.  _DP_E holds the
# weights of the difference between the fifth- and fourth-order solutions.
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])


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
            if not lo < hi:
                raise ConfigError(f"degenerate interval [{lo}, {hi}] in box bounds")

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


def _check_horizon(system: SystemModel, t) -> float:
    t = float(t)
    if t < 0:
        raise ConfigError("horizons must be nonnegative")
    if system.time_type == "discrete" and abs(t - round(t)) > 1e-12:
        raise ConfigError(f"discrete horizon must be an integer, got {t}")
    return t


def _blown(x: Array) -> Array:
    """Rows whose state is not finite or lies outside the blow-up guard."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("...i,...i->...", x, x)
    return ~np.isfinite(sq) | (sq > BLOWUP_NORM ** 2)


def _packed_field(system: SystemModel, variational: bool):
    """Vector field on rows (m, d): the state alone (d = n), or the state
    followed by the flattened variational matrix (d = n + n*n)."""
    if not variational:
        return system.rhs
    n = system.dim

    def joint(y: Array) -> Array:
        x = y[:, :n]
        out = np.empty_like(y)
        out[:, :n] = system.rhs(x)
        out[:, n:] = (system.jacobian(x) @ y[:, n:].reshape(-1, n, n)).reshape(len(y), -1)
        return out

    return joint


def _dp_stages(rhs, y: Array, k: Array, h: Array) -> Array:
    """Stages 1..6 of one Dormand-Prince step from rows y, with step sizes
    h of shape (m, 1), given k[0] = rhs(y); fills k[1:] and returns the
    fifth-order solution, whose rhs value k[6] is the first stage of the
    next step (FSAL)."""
    for s in range(1, 7):
        ys = y + h * (_DP_A[s, :s] @ k[:s].reshape(s, -1)).reshape(y.shape)
        k[s] = rhs(ys)
    return ys


def _integrate_continuous(system, x0, t, variational, record_at):
    """Dormand-Prince 5(4) propagation of the state (and variational matrix).

    All rows step together, each with its own clock and step size, so a
    row that needs short steps (one about to blow up, say) does not hold
    back the others.  A row's step is adapted so that its embedded error
    estimate, a mixed absolute/relative max-norm over the row, stays below
    ``STEP_TOL`` per step.  Steps land exactly on every record time.
    Returns (states, jacobians, escaped, escape times, accepted steps per
    row, rejected steps per row)."""
    m, n = x0.shape
    y = x0.copy()
    if variational:
        y = np.concatenate([y, np.broadcast_to(np.eye(n).ravel(), (m, n * n))], axis=1)
    rhs = _packed_field(system, variational)
    marks = np.array(record_at if record_at is not None else [t], dtype=float)
    r = len(marks)
    out = np.empty((r,) + y.shape)
    nxt = np.zeros(m, dtype=int)          # index of each row's next record time
    now = np.zeros(m)
    h = np.full(m, FIRST_STEP)
    grow = np.full(m, MAX_GROWTH)
    accepted = np.zeros(m, dtype=int)
    rejected = np.zeros(m, dtype=int)
    times = np.full(m, np.nan)
    floor = MIN_STEP * max(1.0, t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k0 = rhs(y)
        while True:
            # record rows that sit on their next record time (repeatedly,
            # for equal record times)
            while True:
                due = np.flatnonzero((nxt < r) & (now >= marks[np.minimum(nxt, r - 1)]))
                if not len(due):
                    break
                out[nxt[due], due] = y[due]
                nxt[due] += 1
            a = np.flatnonzero((nxt < r) & np.isnan(times))
            if not len(a):
                break
            left = marks[nxt[a]] - now[a]
            ha = h[a]
            land = left <= ha * (1.0 + 1e-9)
            hs = np.where(land, left, ha)
            ya = y[a]
            k = np.empty((7,) + ya.shape)
            k[0] = k0[a]
            y_new = _dp_stages(rhs, ya, k, hs[:, None])
            err = hs[:, None] * (_DP_E @ k.reshape(7, -1)).reshape(ya.shape)
            scale = STEP_TOL * (1.0 + np.maximum(np.abs(ya), np.abs(y_new)))
            ratio = np.max(np.abs(err) / scale, axis=1)
            ratio[np.isnan(ratio)] = np.inf
            # at the step floor, a row that still misses the target escapes
            ok = (ratio <= 1.0) | (hs <= floor)
            new = _blown(y_new[:, :n]) | (ratio > 1.0)
            fac = np.minimum(grow[a], np.maximum(MIN_GROWTH, SAFETY * ratio ** -0.2))
            # a step cut short to land on a record time does not shrink the
            # next one
            h[a] = np.where(ok & land, np.maximum(hs * fac, ha), hs * fac)
            grow[a] = np.where(ok, MAX_GROWTH, 1.0)
            rejected[a[~ok]] += 1
            done = a[ok]
            accepted[done] += 1
            now[done] = np.where(land[ok], marks[nxt[done]], now[done] + hs[ok])
            gone = a[ok & new]
            times[gone] = now[gone]
            keep = ok & ~new
            y[a[keep]] = y_new[keep]
            k0[a[keep]] = k[6][keep]
    # escaped rows hold their frozen state at the record times they missed
    escaped = ~np.isnan(times)
    missed = (np.arange(r)[:, None] >= nxt) & escaped
    out[missed] = np.broadcast_to(y, out.shape)[missed]
    res = out if record_at is not None else out[0]
    states = res[..., :n]
    jacs = res[..., n:].reshape(res.shape[:-1] + (n, n)) if variational else None
    return states, jacs, escaped, times, accepted, rejected


def _integrate_discrete(system, x0, t, variational, record_at):
    m, n = x0.shape
    steps = int(round(t))
    x = x0.copy()
    v = np.broadcast_to(np.eye(n), (m, n, n)).copy() if variational else None
    escaped = np.zeros(m, dtype=bool)
    times = np.full(m, np.nan)
    marks = set(int(round(r)) for r in record_at) if record_at is not None else None
    records = []
    if marks is not None and 0 in marks:
        records.append((x.copy(), None if v is None else v.copy()))
    for k in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            xn = system.rhs(x)
            vn = system.jacobian(x) @ v if variational else None
        new = _blown(xn) & ~escaped
        escaped |= new
        times[new] = float(k)
        xn[escaped] = x[escaped]
        if variational:
            vn[escaped] = v[escaped]
        x, v = xn, vn
        if marks is not None and k in marks:
            records.append((x.copy(), None if v is None else v.copy()))
    if record_at is not None:
        states = np.stack([r[0] for r in records])
        jacs = np.stack([r[1] for r in records]) if variational else None
    else:
        states, jacs = x, v
    return states, jacs, escaped, times, np.full(m, steps), np.zeros(m, dtype=int)


def propagate(system: SystemModel, x0, t, variational: bool = False,
              record_at: Optional[Sequence[float]] = None) -> Propagation:
    """Batched propagation over horizon t, optionally with the variational
    matrix and intermediate records.  Continuous-time flows use adaptive
    Dormand-Prince 5(4) steps with local error at most ``STEP_TOL`` per
    step.  Does not raise on blow-up; escaped points are frozen and
    flagged."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[-1] != system.dim:
        raise ConfigError(f"state dimension {x0.shape[-1]} != system dimension {system.dim}")
    t = _check_horizon(system, t)
    if record_at is not None:
        record_at = [float(r) for r in record_at]
        if any(r < 0 or r > t + 1e-9 for r in record_at):
            raise ConfigError("record times must lie within [0, horizon]")
        if sorted(record_at) != record_at:
            raise ConfigError("record times must be nondecreasing")
    if system.time_type == "discrete":
        result = _integrate_discrete(system, x0, t, variational, record_at)
    else:
        result = _integrate_continuous(system, x0, t, variational, record_at)
    return Propagation(*result)


def sample_set(region: CompactSet, resolution) -> Array:
    """Uniform grid over the box in row-major order, filtered by the
    constraint.  ``resolution`` is a per-axis count or a single count."""
    n = region.dim
    if np.isscalar(resolution):
        counts = [int(resolution)] * n
    else:
        counts = [int(c) for c in resolution]
        if len(counts) != n:
            raise ConfigError(f"expected {n} resolution entries, got {len(counts)}")
    if any(c < 2 for c in counts):
        raise ConfigError("resolution must be at least 2 per axis")
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(region.bounds, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    if region.constraint is not None:
        pts = pts[np.asarray(region.constraint(pts), dtype=bool)]
    if len(pts) == 0:
        raise ConfigError("constraint excluded every grid point")
    return pts


@dataclass
class InvarianceReport:
    """Escape accounting for a sampled forward-invariance check."""

    n_points: int
    n_escaped: int
    horizon: float
    resolution: tuple
    first_exit: list          # (point index, exit time) pairs

    @property
    def fraction(self) -> float:
        return self.n_escaped / self.n_points if self.n_points else 0.0


def invariance_spot_check(system: SystemModel, region: CompactSet, resolution,
                          horizon) -> InvarianceReport:
    """Iterate every grid point over the horizon and report which orbits
    leave the set.  Forward invariance itself is a modeling assumption; this
    is the sampled surrogate."""
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
    res = tuple([int(resolution)] * region.dim) if np.isscalar(resolution) else tuple(resolution)
    return InvarianceReport(n_points=len(pts), n_escaped=int(escaped.sum()),
                            horizon=horizon, resolution=res, first_exit=first_exit)


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
        out = np.zeros(s.shape[:-1] + (3, 3))
        out[..., 0, 0] = a - 1.0 + z
        out[..., 0, 1] = -1.0
        out[..., 0, 2] = x
        out[..., 1, 0] = 1.0
        out[..., 1, 1] = a - 1.0 + z
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
    def rhs(x: Array) -> Array:
        return np.asarray(x, dtype=float).copy()

    def jac(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.eye(dim), x.shape[:-1] + (dim, dim)).copy()

    return SystemModel(name="identity", time_type="discrete", dim=int(dim),
                       rhs=rhs, jacobian=jac, params={"dim": int(dim)})


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


def lanford_region(a: float = 2.0 / 3.0, scale: float = 1.0) -> CompactSet:
    """Solid of revolution (x^2+y^2)/2 + (z - a/2)^2 <= (scale*a/2)^2 inside
    its bounding box.

    At a = 2/3 the quantity u*(u/2 + (z-a/2)^2 - (a/2)^2) with u = x^2+y^2
    is a first integral, so at scale 1 the boundary (the separatrix surface
    joining the two equilibria, plus the invariant z-axis) encloses an
    exactly forward-invariant region.  For other a the same family is used
    as the sampling region; invariance must then be read off the spot-check
    report."""
    a = float(a)
    if a <= 0:
        raise ConfigError("parameter a must be positive")
    zc = a / 2.0
    half = zc * scale
    r = (a / np.sqrt(2.0)) * scale
    level = half ** 2
    slack = 1e-7 * (1.0 + level)

    def inside(x: Array) -> Array:
        u = x[..., 0] ** 2 + x[..., 1] ** 2
        return u / 2.0 + (x[..., 2] - zc) ** 2 <= level + slack

    bounds = ((-r, r), (-r, r), (max(zc - half, 0.0), zc + half))
    return CompactSet(bounds=bounds, constraint=inside,
                      label=f"lanford-ellipsoid(a={a:g},scale={scale:g})")


def default_region(system: SystemModel) -> CompactSet:
    """Sampling region used when none is declared."""
    if system.name == "lanford":
        return lanford_region(system.params["a"])
    return CompactSet(bounds=tuple((-1.0, 1.0) for _ in range(system.dim)))


def auto_region(system: SystemModel, horizon: float = 5.0, resolution: int = 9):
    """Candidate region shrunk until the invariance spot check passes.

    Returns (region, report).  If no candidate passes, the unshrunk region is
    returned with its report and a warning; shrinking cannot help when the
    escape routes sit on the outermost candidate already."""
    scale = 1.0
    first = None
    for _ in range(MAX_SHRINKS + 1):
        region = (lanford_region(system.params["a"], scale=scale)
                  if system.name == "lanford"
                  else _scaled_box(default_region(system), scale))
        report = invariance_spot_check(system, region, resolution, horizon)
        if first is None:
            first = (region, report)
        if report.fraction == 0.0:
            return region, report
        scale *= 0.9
    warnings.warn(
        f"no candidate region passed the invariance spot check for "
        f"'{system.name}' (best escape fraction {first[1].fraction:.3g})",
        RuntimeWarning, stacklevel=2)
    return first


def _scaled_box(region: CompactSet, scale: float) -> CompactSet:
    bounds = tuple(((lo + hi) / 2 + scale * (lo - hi) / 2,
                    (lo + hi) / 2 + scale * (hi - lo) / 2)
                   for lo, hi in region.bounds)
    return CompactSet(bounds=bounds, constraint=region.constraint, label=region.label)
