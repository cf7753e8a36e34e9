"""System definitions, flow and flow-Jacobian propagation, grid sampling,
and forward-invariance spot checks.

States are row vectors; every rhs/jacobian rule is vectorized over leading
axes, so whole sample grids propagate as one batch.  Continuous-time flows
use the Dormand-Prince 8(5,3) pair (DOP853), each row with a step size
chosen from its embedded error estimates; the variational matrix (the flow
Jacobian) is integrated jointly with the state, on the same steps.
Trajectories whose norm exceeds the blow-up guard are frozen at their last
admissible state and reported with the escape time.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, UnknownSystemError

Array = np.ndarray

# error estimate accepted per adaptive step (abs and rel).  It bounds each
# step, not the global error; measured on the 485 interior lanford rows at
# resolution 11 to t = 40, the state error is 4e-11 and the flow-Jacobian
# error 1.2e-9 (relative to 1 + |entry|), both below STEP_TOL * t
STEP_TOL = 1e-10
FIRST_STEP = STEP_TOL ** 0.125  # first adaptive trial step for unit-scale dynamics
MIN_STEP = 1e-12           # step floor, relative to max(1, horizon)
# step controller: h <- h * clip(SAFETY * err^(-1/8), MIN_GROWTH, MAX_GROWTH); the
# safety factor of Shampine & Reichelt's ode45 keeps rejections rare
SAFETY, MIN_GROWTH, MAX_GROWTH = 0.8, 0.2, 5.0
BLOWUP_NORM = 1e8
# spot-check membership slack, as a fraction of each box axis (orbit drift)
MEMBERSHIP_RTOL = 1e-6
# auto_region shrinks its candidate region at most this many times, by 0.9
MAX_SHRINKS = 6

# Dormand-Prince 8(5,3) pair DOP853 (Prince & Dormand 1981; Hairer, Norsett &
# Wanner, Solving ODEs I, Sec. II.10, code dop853.f), as the shortest decimals
# that round-trip to its double coefficients.  Row s of _A combines stages
# 0..s-1 into the input of stage s, and _B gives the eighth-order solution.
# _E5 and _E3 weight the stages into the fifth- and third-order error
# estimates.  The rhs at the new point has weight 0 in both and is the next
# step's first stage (FSAL).
_A = np.array([[0] * 12, [0.05260015195876773] + [0] * 11,
               [0.0197250569845379, 0.0591751709536137] + [0] * 10,
               [0.02958758547680685, 0, 0.08876275643042054] + [0] * 9,
               [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792] + [0] * 8,
               [0.037037037037037035, 0, 0, 0.17082860872947386,
                0.12546768756682242] + [0] * 7,
               [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
                -0.017578125] + [0] * 6,
               [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
                -0.015319437748624402, 0.008273789163814023] + [0] * 5,
               [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
                27.59209969944671, 20.154067550477894, -43.48988418106996] + [0] * 4,
               [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
                21.230051448181193, 15.279233632882423, -33.28821096898486,
                -0.020331201708508627, 0, 0, 0],
               [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
                -8.149787010746927, -18.52006565999696, 22.739487099350505,
                2.4936055526796523, -3.0467644718982196, 0, 0],
               [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
                -17.9589318631188, 27.94888452941996, -2.8589982771350235,
                -8.87285693353063, 12.360567175794303, 0.6433927460157636, 0]])
_B = np.array([0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
               -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
               0.20136540080403034, 0.04471061572777259])
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


def _check_horizon(system: SystemModel, t, what: str = "horizon") -> float:
    t = float(t)
    if not 0.0 <= t < np.inf:
        raise ConfigError(f"{what}s must be finite and nonnegative, got {t}")
    if system.time_type == "discrete" and abs(t - round(t)) > 1e-12:
        raise ConfigError(f"a discrete {what} must be an integer, got {t}")
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


def _dop853_stages(rhs, y: Array, k: Array, h: Array) -> Array:
    """Stages 1..11 of one DOP853 step from rows y, with step sizes h of
    shape (m, 1), given k[0] = rhs(y); fills k[1:] and returns the
    eighth-order solution."""
    flat = k.reshape(12, -1)
    for s in range(1, 12):
        k[s] = rhs(y + h * (_A[s, :s] @ flat[:s]).reshape(y.shape))
    return y + h * (_B @ flat).reshape(y.shape)


def _integrate_continuous(system, x0, t, variational, record_at):
    """Dormand-Prince 8(5,3) (DOP853) propagation of the state (and
    variational matrix).

    All rows step together, each with its own clock and step size, so a
    row that needs short steps (one about to blow up, say) does not hold
    back the others.  A row's step is adapted so that Hairer's error
    estimate, built from the embedded fifth- and third-order estimates in a
    mixed absolute/relative max-norm over the row, stays below ``STEP_TOL``
    per step.  Steps land exactly on every record time.
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
    stages = np.empty(12 * y.size)        # sliced to the active rows each step
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
            k = stages[:12 * ya.size].reshape((12,) + ya.shape)
            k[0] = k0[a]
            y_new = _dop853_stages(rhs, ya, k, hs[:, None])
            scale = STEP_TOL * (1.0 + np.maximum(np.abs(ya), np.abs(y_new)))
            flat = k.reshape(12, -1)
            e5, e3 = (np.max(np.abs(w @ flat).reshape(ya.shape) / scale, axis=1)
                      for w in (_E5, _E3))
            ratio = hs * e5 ** 2 / np.sqrt(e5 ** 2 + 0.01 * e3 ** 2)
            ratio[(e5 == 0) & (e3 == 0)] = 0.0
            # a NaN or infinite estimate (NaN Jacobian, overflow) rejects
            ratio[~np.isfinite(ratio)] = np.inf
            # at the step floor, a row that still misses the target escapes
            ok = (ratio <= 1.0) | (hs <= floor)
            new = _blown(y_new[:, :n]) | (ratio > 1.0)
            fac = np.minimum(grow[a], np.maximum(MIN_GROWTH, SAFETY * ratio ** -0.125))
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
            if keep.any():
                y[a[keep]] = y_new[keep]
                k0[a[keep]] = rhs(y_new[keep])   # first stage of the next step
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
    marks = [] if record_at is None else [int(round(r)) for r in record_at]
    records = {}       # step -> (states, Jacobians) at that step
    if 0 in marks:
        records[0] = (x.copy(), None if v is None else v.copy())
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
        if k in marks:
            records[k] = (x.copy(), None if v is None else v.copy())
    if record_at is not None:
        states = np.stack([records[k][0] for k in marks])
        jacs = np.stack([records[k][1] for k in marks]) if variational else None
    else:
        states, jacs = x, v
    return states, jacs, escaped, times, np.full(m, steps), np.zeros(m, dtype=int)


def propagate(system: SystemModel, x0, t, variational: bool = False,
              record_at: Optional[Sequence[float]] = None) -> Propagation:
    """Batched propagation over horizon t, optionally with the variational
    matrix and intermediate records.  Continuous-time flows use adaptive
    Dormand-Prince 8(5,3) (DOP853) steps whose error estimate is at most
    ``STEP_TOL`` per step.  That bounds each step, not the returned state:
    on the interior lanford rows at t = 40 the measured global error is
    4e-11 in the state and 1.2e-9 in the flow Jacobian (relative to
    1 + |entry|), both below ``STEP_TOL * t``.  Each record time gets its
    own record, repeats included; a map's record times are whole steps.
    Does not raise on blow-up; escaped points are frozen and flagged."""
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
    if system.time_type == "discrete":
        result = _integrate_discrete(system, x0, t, variational, record_at)
    else:
        result = _integrate_continuous(system, x0, t, variational, record_at)
    return Propagation(*result)


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


def sample_set(region: CompactSet, resolution) -> Array:
    """Uniform grid over the box in row-major order, filtered by the
    constraint.  ``resolution`` is a per-axis count or a single count."""
    counts = grid_counts(resolution, region.dim)
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
    if int(dim) < 1:
        raise ConfigError(f"the identity system needs dimension >= 1, got {dim}")

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
