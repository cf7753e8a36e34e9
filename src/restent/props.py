"""Randomized property suites for the geometry and spectrum layers.

Each property draws its instances from a seeded generator and returns the
worst violation seen; it passes when that stays within its tolerance.  The
spectrum is checked three ways: SVD, Cholesky-reduced pencil and adjoint.
The suites are shared by the test suite and the ``props`` CLI command.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .metrics import metric_sv_values
from .spd import (
    congruence,
    distance,
    geodesic,
    karcher_barycenter,
    log_singular_values,
    lyapunov_solve,
    power,
    sym,
    vectorial_distance,
)

Array = np.ndarray

LN2 = float(np.log(2.0))


@dataclass
class PropertyResult:
    name: str
    instances: int
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def random_spd(rng, n, spread=1.2):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.exp(rng.uniform(-spread, spread, size=n))
    return sym((q * w) @ q.T)


def random_gl(rng, n):
    while True:
        g = rng.standard_normal((n, n))
        if np.linalg.cond(g) < 1e3:
            return g


def _sym_fn(a, f):
    """f of a symmetric matrix through its eigen-decomposition: u f(w) u^T."""
    w, u = np.linalg.eigh(sym(a))
    return sym((u * f(w)) @ u.T)


def _expm_small(a):
    """exp(a) by its 11-term Taylor series, exact to rounding for ||a|| <= 1e-2."""
    term = out = np.eye(len(a))
    for k in range(1, 11):
        term = term @ a / k
        out = out + term
    return out


def _majorization_excess(x, y):
    """How far x is from being majorized by y: positive partial-sum excess or
    total-sum mismatch, whichever is worse."""
    cx, cy = np.cumsum(np.sort(x)[::-1]), np.cumsum(np.sort(y)[::-1])
    head = float(np.max(cx[:-1] - cy[:-1])) if len(cx) > 1 else -np.inf
    return max(head, abs(float(cx[-1] - cy[-1])))


def _prop_isometry(rng, n):
    p, q = random_spd(rng, n), random_spd(rng, n)
    g = random_gl(rng, n)
    d1 = vectorial_distance(p, q)
    d2 = vectorial_distance(congruence(g, p), congruence(g, q))
    return float(np.max(np.abs(d1 - d2)))


def _prop_triangle(rng, n):
    p, q, r = (random_spd(rng, n) for _ in range(3))
    lhs = vectorial_distance(p, q)
    rhs = vectorial_distance(p, r) + vectorial_distance(r, q)
    return _majorization_excess(lhs, rhs)


def _prop_reversal(rng, n):
    p, q = random_spd(rng, n), random_spd(rng, n)
    return float(np.max(np.abs(
        vectorial_distance(q, p) + vectorial_distance(p, q)[::-1])))


def _prop_geodesic_segment(rng, n):
    p, q = random_spd(rng, n), random_spd(rng, n)
    xi = vectorial_distance(p, q)
    worst = 0.0
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    points = [geodesic(p, q, t) for t in grid]
    for i, t in enumerate(grid):
        for s, point in zip(grid[i:], points[i:]):
            d = vectorial_distance(points[i], point)
            worst = max(worst, float(np.max(np.abs(d - (s - t) * xi))))
    return worst


def _prop_midpoint_contraction(rng, n):
    p, q, r = (random_spd(rng, n) for _ in range(3))
    lhs = vectorial_distance(geodesic(r, p, 0.5), geodesic(r, q, 0.5))
    return _majorization_excess(lhs, 0.5 * vectorial_distance(p, q))


def _prop_geodesic_equivariance(rng, n):
    p, q = random_spd(rng, n), random_spd(rng, n)
    g = random_gl(rng, n)
    t = float(rng.uniform(0.0, 1.0))
    lhs = congruence(g, geodesic(p, q, t))
    rhs = geodesic(congruence(g, p), congruence(g, q), t)
    return float(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs))))


def _prop_geodesic_convexity(rng, n):
    p, q, r, o = (random_spd(rng, n) for _ in range(4))
    worst = 0.0
    d_pr, d_qo = vectorial_distance(p, r), vectorial_distance(q, o)
    for t in (0.0, 0.5, 1.0):
        lhs = vectorial_distance(geodesic(p, q, t), geodesic(r, o, t))
        worst = max(worst, _majorization_excess(lhs, (1 - t) * d_pr + t * d_qo))
    return worst


def _karcher(atoms, w, tol):
    bar, _ = karcher_barycenter(np.linalg.cholesky(np.array(atoms)), weights=w,
                                tol=tol)
    return bar


def _prop_barycenter_equivariance(rng, n):
    # equivariance holds in the limit; tol 1e-11 leaves it at rounding level
    atoms = [random_spd(rng, n) for _ in range(3)]
    w = rng.dirichlet(np.ones(3))
    g = random_gl(rng, n)
    bar, rhs = _karcher([atoms, [congruence(g, a) for a in atoms]], w, 1e-11)
    lhs = congruence(g, bar)
    return float(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs))))


def _prop_barycenter_perturbation(rng, n):
    # two atoms: the limit is the geodesic point at the far weight
    p = random_spd(rng, n)
    q = random_spd(rng, n)
    dq = sym(rng.standard_normal((n, n))) * 0.2
    q2 = _sym_fn(_sym_fn(q, np.log) + dq, np.exp)
    w2 = float(rng.uniform(0.2, 0.8))
    u = geodesic(p, q, w2)
    v = geodesic(p, q2, w2)
    return _majorization_excess(vectorial_distance(u, v),
                                w2 * vectorial_distance(q, q2))


def _prop_barycenter_perturbation_iterative(rng, n):
    # three atoms, genuinely iterative barycenters
    base = random_spd(rng, n, spread=0.4)
    log_base = _sym_fn(base, np.log)
    atoms = [_sym_fn(log_base + 0.25 * sym(rng.standard_normal((n, n))), np.exp)
             for _ in range(3)] if n > 1 else [
        base * np.exp(rng.uniform(-0.25, 0.25)) for _ in range(3)]
    w = np.array([0.3, 0.3, 0.4])
    wobble = 0.2 * sym(rng.standard_normal((n, n)))
    last2 = _sym_fn(_sym_fn(atoms[2], np.log) + wobble, np.exp)
    u, v = _karcher([atoms, atoms[:2] + [last2]], w, 1e-7)
    return _majorization_excess(vectorial_distance(u, v),
                                w[2] * vectorial_distance(atoms[2], last2))


def _prop_barycenter_permutation(rng, n):
    atoms = [random_spd(rng, n, spread=0.5) for _ in range(2)]
    w = rng.dirichlet(np.ones(2))
    b1 = _karcher(atoms, w, 1e-8)
    b2 = _karcher(atoms[::-1], w[::-1], 1e-8)
    return distance(b1, b2)


def _prop_scalar_geometric_mean(rng, n):
    # scalars: the barycenter is the geometric mean
    vals = np.exp(rng.uniform(-2.0, 2.0, size=4))
    bar = _karcher([np.array([[v]]) for v in vals], None, 1e-14)
    target = float(np.exp(np.mean(np.log(vals))))
    worst = abs(bar[0, 0] - target)
    # commuting case reduces to the scalar one in a shared eigenbasis
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectra = np.exp(rng.uniform(-1.5, 1.5, size=(3, n)))
    mats = [sym(q @ np.diag(s) @ q.T) for s in spectra]
    expected = sym(q @ np.diag(np.exp(np.mean(np.log(spectra), axis=0))) @ q.T)
    got = _karcher(mats, None, 1e-12)
    worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst


def _prop_spectrum_three_way(rng, n):
    p, q = random_spd(rng, n), random_spd(rng, n)
    a = random_gl(rng, n)
    by_svd = metric_sv_values(p, q, a)
    b = np.linalg.solve(np.linalg.cholesky(p), a.T)    # Cholesky-reduced pencil
    pencil = np.linalg.eigvalsh(b @ q @ b.T)
    by_pencil = 0.5 * np.log2(np.sort(pencil)[::-1])
    adjoint = np.linalg.eigvals(np.linalg.solve(p, a.T @ q @ a))
    by_adjoint = 0.5 * np.log2(np.sort(adjoint.real)[::-1])
    return float(max(np.max(np.abs(by_svd - by_pencil)),
                     np.max(np.abs(by_svd - by_adjoint))))


def _prop_singular_value_derivative(rng, n):
    # Right derivative of the log singular vector along g(t) = exp(tH).
    # The derivative is one-sided: sorting makes sigma(exp(-tH)) the reversed
    # negation of sigma(exp(tH)), so a two-sided difference through t=0 would
    # average lambda_i with lambda_{n+1-i}.  A second-order one-sided stencil
    # keeps the O(eps^2) accuracy of a centered one.
    while True:
        h = rng.standard_normal((n, n))
        w = np.linalg.eigvalsh(h + h.T)
        if n == 1 or np.min(np.diff(np.sort(w))) > 0.1:
            break
    formula = np.sort(w)[::-1] / (2.0 * LN2)
    eps = 1e-4
    s1 = log_singular_values(_expm_small(eps * h))
    s2 = log_singular_values(_expm_small(2.0 * eps * h))
    fd = (4.0 * s1 - s2) / (2.0 * eps)        # sigma(I) vanishes exactly
    return float(np.max(np.abs(fd - formula)))


def _prop_sqrt_factor_derivative(rng, n):
    # directional derivative of (p, q) -> p^{-1/2} q^{1/2} at p = q
    p = random_spd(rng, n)
    vp = sym(rng.standard_normal((n, n))) * 0.3
    vq = sym(rng.standard_normal((n, n))) * 0.3
    h = lyapunov_solve(power(p, 0.5), vq - vp)
    formula = power(p, -0.5) @ h
    eps = 1e-5

    def upsilon(pp, qq):
        return power(pp, -0.5) @ power(qq, 0.5)

    fd = (upsilon(p + eps * vp, p + eps * vq)
          - upsilon(p - eps * vp, p - eps * vq)) / (2 * eps)
    return float(np.max(np.abs(fd - formula)))


# (name, per-instance function, tolerance)
_SUITE = [
    ("isometry-of-congruence", _prop_isometry, 1e-8),
    ("triangle-majorization", _prop_triangle, 1e-8),
    ("reversal-identity", _prop_reversal, 1e-9),
    ("geodesic-segment", _prop_geodesic_segment, 1e-8),
    ("midpoint-contraction", _prop_midpoint_contraction, 1e-8),
    ("geodesic-equivariance", _prop_geodesic_equivariance, 1e-8),
    ("geodesic-convexity", _prop_geodesic_convexity, 1e-8),
    ("barycenter-equivariance", _prop_barycenter_equivariance, 1e-8),
    ("barycenter-perturbation", _prop_barycenter_perturbation, 1e-8),
    ("barycenter-perturbation-iterative", _prop_barycenter_perturbation_iterative, 2e-3),
    ("barycenter-permutation", _prop_barycenter_permutation, 2e-3),
    ("inductive-mean-scalar", _prop_scalar_geometric_mean, 1e-8),
    ("spectrum-three-way", _prop_spectrum_three_way, 1e-8),
    ("singular-value-derivative", _prop_singular_value_derivative, 1e-5),
    ("sqrt-factor-derivative", _prop_sqrt_factor_derivative, 1e-5),
]


def run_property_suite(seed: int = 42, instances: int = 50,
                       dims=(1, 2, 3, 5), names=None) -> list:
    """Run the randomized property suite and return one PropertyResult per
    property.  ``instances`` is the draw count per property, split evenly
    across ``dims``."""
    if instances < 1 or seed < 0:
        raise ConfigError(f"need instances >= 1 and seed >= 0, got {instances}, {seed}")
    per_dim = max(1, int(round(instances / len(dims))))
    results = []
    for name, fn, tol in _SUITE:
        if names is not None and name not in names:
            continue
        rng = np.random.default_rng(seed)
        worst = 0.0
        total = 0
        for n in dims:
            for _ in range(per_dim):
                worst = max(worst, float(fn(rng, int(n))))
                total += 1
        results.append(PropertyResult(name=name, instances=total, worst=worst,
                                      tolerance=tol))
    return results
