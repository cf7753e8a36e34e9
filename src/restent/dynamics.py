"""System definitions, flow and flow-Jacobian propagation, grid sampling,
and forward-invariance spot checks.

States are row vectors; every rhs/jacobian rule is vectorized over leading
axes, so whole sample grids propagate as one batch.  Continuous-time flows
use fixed-step classical RK4; the variational matrix (the flow Jacobian) is
integrated jointly with the state, on the same steps.  Trajectories whose norm exceeds
the blow-up guard are frozen at their last admissible state and reported
with the escape time.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BlowupError, ConfigError, UnknownSystemError

Array = np.ndarray

DEFAULT_STEP = 1e-3        # RK4 step for unit-scale dynamics
RICHARDSON_TOL = 1e-9      # accepted integration error per unit time
BLOWUP_NORM = 1e8


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
    """

    states: Array
    jacobians: Optional[Array]
    escaped: Array
    escape_times: Array
    step: Optional[float]


def _check_horizon(system: SystemModel, t) -> float:
    t = float(t)
    if t < 0:
        raise ConfigError("horizons must be nonnegative")
    if system.time_type == "discrete" and abs(t - round(t)) > 1e-12:
        raise ConfigError(f"discrete horizon must be an integer, got {t}")
    return t


def _freeze_escapes(prev, cur, vprev, vcur, escaped, times, now):
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("...i,...i->...", cur, cur)
    big = ~np.isfinite(sq) | (sq > BLOWUP_NORM ** 2)
    if not big.any() and not escaped.any():
        return cur, vcur, escaped, times
    new = big & ~escaped
    if new.any():
        cur[new] = prev[new]
        if vcur is not None:
            vcur[new] = vprev[new]
        times[new] = now
        escaped = escaped | new
    # already-escaped points stay frozen
    old = escaped & ~new
    if old.any():
        cur[old] = prev[old]
        if vcur is not None:
            vcur[old] = vprev[old]
    return cur, vcur, escaped, times


def _integrate_continuous(system, x0, t, h, variational, record_at):
    m, n = x0.shape
    x = x0.copy()
    v = np.broadcast_to(np.eye(n), (m, n, n)).copy() if variational else None
    escaped = np.zeros(m, dtype=bool)
    times = np.full(m, np.nan)
    records = [] if record_at is not None else None
    marks = list(record_at) if record_at is not None else [t]
    now = 0.0
    for mark in marks:
        span = mark - now
        if span < -1e-12:
            raise ConfigError("record times must be nondecreasing")
        nsteps = max(1, int(math.ceil(span / h - 1e-12))) if span > 1e-15 else 0
        hs = span / nsteps if nsteps else 0.0
        f, jf = system.rhs, system.jacobian
        for _ in range(nsteps):
            with np.errstate(over="ignore", invalid="ignore"):
                k1 = f(x)
                k2 = f(x + 0.5 * hs * k1)
                k3 = f(x + 0.5 * hs * k2)
                k4 = f(x + hs * k3)
                xn = x + (hs / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                if v is not None:
                    m1 = jf(x) @ v
                    m2 = jf(x + 0.5 * hs * k1) @ (v + 0.5 * hs * m1)
                    m3 = jf(x + 0.5 * hs * k2) @ (v + 0.5 * hs * m2)
                    m4 = jf(x + hs * k3) @ (v + hs * m3)
                    vn = v + (hs / 6.0) * (m1 + 2 * m2 + 2 * m3 + m4)
                else:
                    vn = None
            now += hs
            xn, vn, escaped, times = _freeze_escapes(x, xn, v, vn, escaped, times, now)
            x, v = xn, vn
        now = mark
        if records is not None:
            records.append((x.copy(), None if v is None else v.copy()))
    if records is not None:
        states = np.stack([r[0] for r in records])
        jacs = np.stack([r[1] for r in records]) if variational else None
    else:
        states, jacs = x, v
    return states, jacs, escaped, times


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
        xn, vn, escaped, times = _freeze_escapes(x, xn, v, vn, escaped, times, float(k))
        x, v = xn, vn
        if marks is not None and k in marks:
            records.append((x.copy(), None if v is None else v.copy()))
    if record_at is not None:
        states = np.stack([r[0] for r in records])
        jacs = np.stack([r[1] for r in records]) if variational else None
    else:
        states, jacs = x, v
    return states, jacs, escaped, times


def select_step(system, x0, t, h0: float = DEFAULT_STEP,
                tol: float = RICHARDSON_TOL, max_halvings: int = 10,
                probe: float = 5.0) -> float:
    """Pick an RK4 step by halving until the Richardson error estimate of the
    state integration is below ``tol`` per unit time.

    The estimate is formed on a prefix of length min(t, probe): the target is
    a rate, so a short prefix prices the step without paying for two full
    integrations of a long horizon."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    t = min(float(t), float(probe))
    if t <= 0:
        return h0
    coarse, _, esc_c, _ = _integrate_continuous(system, x0, t, h0, False, None)
    h = h0
    for _ in range(max_halvings):
        fine, _, esc_f, _ = _integrate_continuous(system, x0, t, h / 2, False, None)
        ok = ~(esc_c | esc_f)
        if not np.any(ok):
            return h / 2
        diff = float(np.max(np.linalg.norm(fine[ok] - coarse[ok], axis=-1)))
        # Richardson: the coarse-run error is ~ diff * 16/15, the fine one
        # ~ diff / 15; keep the largest step whose estimate meets the target.
        budget = tol * max(t, 1.0)
        if diff * 16.0 / 15.0 <= budget:
            return h
        if diff / 15.0 <= budget:
            return h / 2
        h /= 2
        coarse, esc_c = fine, esc_f
    warnings.warn(f"step selection stopped at h={h / 2:.3e} without meeting "
                  f"the error target", RuntimeWarning, stacklevel=2)
    return h / 2


def propagate(system: SystemModel, x0, t, step: Optional[float] = None,
              variational: bool = False, record_at: Optional[Sequence[float]] = None
              ) -> Propagation:
    """Batched propagation over horizon t, optionally with the variational
    matrix and intermediate records.  Does not raise on blow-up; escaped
    points are frozen and flagged."""
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
        states, jacs, escaped, times = _integrate_discrete(system, x0, t, variational, record_at)
        used = None
    else:
        h = step if step is not None else select_step(system, x0, t)
        if h <= 0:
            raise ConfigError("integration step must be positive")
        states, jacs, escaped, times = _integrate_continuous(
            system, x0, t, h, variational, record_at)
        used = h
    return Propagation(states=states, jacobians=jacs, escaped=escaped,
                       escape_times=times, step=used)


def flow(system: SystemModel, x0, t, step: Optional[float] = None) -> Array:
    """State after time t.  Accepts a single state (n,) or a batch (m, n);
    raises BlowupError if any trajectory escapes."""
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    prop = propagate(system, x0, t, step=step)
    if np.any(prop.escaped):
        times = prop.escape_times[prop.escaped]
        raise BlowupError(
            f"{int(prop.escaped.sum())} trajectorie(s) of '{system.name}' blew up; "
            f"earliest escape at t={np.nanmin(times):.6g}",
            escape_times=times,
        )
    return prop.states[0] if single else prop.states


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
                          horizon, step: Optional[float] = None,
                          membership_rtol: float = 1e-6) -> InvarianceReport:
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
    prop = propagate(system, pts, horizon, step=step, record_at=checks)
    inside = region.contains(prop.states, rtol=membership_rtol)     # (r, m)
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


def auto_region(system: SystemModel, horizon: float = 5.0, resolution: int = 9,
                max_shrinks: int = 6, step: Optional[float] = None):
    """Candidate region shrunk until the invariance spot check passes.

    Returns (region, report).  If no candidate passes, the unshrunk region is
    returned with its report and a warning; shrinking cannot help when the
    escape routes sit on the outermost candidate already."""
    scale = 1.0
    first = None
    for _ in range(max_shrinks + 1):
        region = (lanford_region(system.params["a"], scale=scale)
                  if system.name == "lanford"
                  else _scaled_box(default_region(system), scale))
        report = invariance_spot_check(system, region, resolution, horizon, step=step)
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
