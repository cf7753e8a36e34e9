"""Randomized property suites for the geometry and spectrum layers.

Each property returns one violation per instance and passes when the worst
stays within its tolerance.  Its instances are drawn one at a time, in a
fixed order, and then checked as one batch per dimension.  The spectrum is
checked three ways: SVD, Cholesky-reduced pencil and adjoint.  The suites
are shared by the test suite and the ``props`` CLI command.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .metrics import metric_sv_values
from .spd import (
    LN2,
    _compose,
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


@dataclass
class PropertyResult:
    name: str
    instances: int
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def _spd_draw(rng, n, spread=1.2):
    """The random numbers of one SPD matrix as one (n+1, n) array: a normal
    matrix, whose Q factor holds the eigenvectors, over the log eigenvalues."""
    return np.vstack([rng.standard_normal((n, n)), rng.uniform(-spread, spread, size=n)])


def random_spd(draws):
    """SPD matrices q diag(exp(v)) q^T from stacked ``_spd_draw`` arrays."""
    draws = np.asarray(draws)
    q, _ = np.linalg.qr(draws[..., :-1, :])
    return sym(_compose(q, np.exp(draws[..., -1, :])))


def random_gl(rng, n):
    while True:
        g = rng.standard_normal((n, n))
        if np.linalg.cond(g) < 1e3:
            return g


def _normal(rng, n):
    return rng.standard_normal((n, n))


def _instances(rng, n, count, *draws):
    """For one instance after another, call each of ``draws`` on (rng, n) in
    turn; return each draw's results stacked over a new leading axis."""
    return [np.array(part) for part in zip(*[[d(rng, n) for d in draws] for _ in range(count)])]


def _sym_fn(a, f):
    """f of symmetric matrices through their eigen-decompositions: u f(w) u^T."""
    w, u = np.linalg.eigh(sym(a))
    return sym(_compose(u, f(w)))


def _expm_small(a):
    """exp(a) by its 11-term Taylor series, exact to rounding for ||a|| <= 1e-2."""
    term = out = np.eye(a.shape[-1])
    for k in range(1, 11):
        term = term @ a / k
        out = out + term
    return out


def _majorization_excess(x, y):
    """How far x is from being majorized by y: positive partial-sum excess or
    total-sum mismatch, whichever is worse; batched over leading axes."""
    cx, cy = (np.cumsum(np.sort(v, axis=-1)[..., ::-1], axis=-1) for v in (x, y))
    head = np.max(cx[..., :-1] - cy[..., :-1], axis=-1, initial=-np.inf)
    return np.maximum(head, np.abs(cx[..., -1] - cy[..., -1]))


def _prop_isometry(rng, n, count):
    p, q, g = _instances(rng, n, count, _spd_draw, _spd_draw, random_gl)
    p, q = random_spd(p), random_spd(q)
    d1 = vectorial_distance(p, q)
    d2 = vectorial_distance(congruence(g, p), congruence(g, q))
    return np.max(np.abs(d1 - d2), axis=-1)


def _prop_triangle(rng, n, count):
    p, q, r = random_spd(_instances(rng, n, count, *[_spd_draw] * 3))
    lhs = vectorial_distance(p, q)
    rhs = vectorial_distance(p, r) + vectorial_distance(r, q)
    return _majorization_excess(lhs, rhs)


def _prop_reversal(rng, n, count):
    p, q = random_spd(_instances(rng, n, count, *[_spd_draw] * 2))
    return np.max(np.abs(
        vectorial_distance(q, p) + vectorial_distance(p, q)[..., ::-1]), axis=-1)


def _prop_geodesic_segment(rng, n, count):
    p, q = random_spd(_instances(rng, n, count, *[_spd_draw] * 2))
    xi = vectorial_distance(p, q)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    points = np.stack([geodesic(p, q, t) for t in grid.tolist()], axis=1)
    i, j = np.triu_indices(len(grid))                  # every pair t <= s
    d = vectorial_distance(points[:, i], points[:, j])
    return np.max(np.abs(d - (grid[j] - grid[i])[:, None] * xi[:, None]), axis=(-2, -1))


def _prop_midpoint_contraction(rng, n, count):
    p, q, r = random_spd(_instances(rng, n, count, *[_spd_draw] * 3))
    lhs = vectorial_distance(geodesic(r, p, 0.5), geodesic(r, q, 0.5))
    return _majorization_excess(lhs, 0.5 * vectorial_distance(p, q))


def _prop_geodesic_equivariance(rng, n, count):
    p, q, g, t = _instances(rng, n, count, _spd_draw, _spd_draw, random_gl,
                            lambda r, _: r.uniform(0.0, 1.0))
    p, q, t = random_spd(p), random_spd(q), t[:, None]
    lhs = congruence(g, geodesic(p, q, t))
    rhs = geodesic(congruence(g, p), congruence(g, q), t)
    return (np.max(np.abs(lhs - rhs), axis=(-2, -1))
            / np.maximum(1.0, np.max(np.abs(rhs), axis=(-2, -1))))


def _prop_geodesic_convexity(rng, n, count):
    p, q, r, o = random_spd(_instances(rng, n, count, *[_spd_draw] * 4))
    d_pr, d_qo = vectorial_distance(p, r), vectorial_distance(q, o)
    return np.max([_majorization_excess(
        vectorial_distance(geodesic(p, q, t), geodesic(r, o, t)), (1 - t) * d_pr + t * d_qo)
        for t in (0.0, 0.5, 1.0)], axis=0)


def _prop_barycenter_equivariance(rng, n, count):
    # equivariance holds in the limit; tol 1e-11 leaves it at rounding level
    *atoms, w, g = _instances(rng, n, count, *[_spd_draw] * 3,
                              lambda r, _: r.dirichlet(np.ones(3)), random_gl)
    atoms = random_spd(np.stack(atoms, axis=1))
    factors = np.linalg.cholesky(np.concatenate([atoms, congruence(g[:, None], atoms)]))
    bar, rhs = np.split(karcher_barycenter(factors, np.concatenate([w, w]), 1e-11)[0], 2)
    return (np.max(np.abs(congruence(g, bar) - rhs), axis=(-2, -1))
            / np.maximum(1.0, np.max(np.abs(rhs), axis=(-2, -1))))


def _prop_barycenter_perturbation(rng, n, count):
    # two atoms: the limit is the geodesic point at the far weight
    p, q, dq, w2 = _instances(rng, n, count, _spd_draw, _spd_draw, _normal,
                              lambda r, _: r.uniform(0.2, 0.8))
    p, q, w2 = random_spd(p), random_spd(q), w2[:, None]
    q2 = _sym_fn(_sym_fn(q, np.log) + sym(dq) * 0.2, np.exp)
    u, v = geodesic(p, q, w2), geodesic(p, q2, w2)
    return _majorization_excess(vectorial_distance(u, v), w2 * vectorial_distance(q, q2))


def _prop_barycenter_perturbation_iterative(rng, n, count):
    # three atoms, genuinely iterative barycenters
    base, *steps, wobble = _instances(
        rng, n, count, lambda r, m: _spd_draw(r, m, spread=0.4),
        *[lambda r, m: r.standard_normal((m, m)) if m > 1 else r.uniform(-0.25, 0.25)] * 3,
        _normal)
    base, steps = random_spd(base), np.stack(steps, axis=1)
    if n > 1:
        atoms = _sym_fn(_sym_fn(base, np.log)[:, None] + 0.25 * sym(steps), np.exp)
    else:
        atoms = base[:, None] * np.exp(steps)[..., None, None]
    moved = atoms.copy()
    moved[:, 2] = _sym_fn(_sym_fn(atoms[:, 2], np.log) + 0.2 * sym(wobble), np.exp)
    factors = np.linalg.cholesky(np.concatenate([atoms, moved]))
    u, v = np.split(karcher_barycenter(factors, np.array([0.3, 0.3, 0.4]), 1e-7)[0], 2)
    return _majorization_excess(vectorial_distance(u, v),
                                0.4 * vectorial_distance(atoms[:, 2], moved[:, 2]))


def _prop_barycenter_permutation(rng, n, count):
    *atoms, w = _instances(rng, n, count, *[lambda r, m: _spd_draw(r, m, spread=0.5)] * 2,
                           lambda r, _: r.dirichlet(np.ones(2)))
    atoms = random_spd(np.stack(atoms, axis=1))
    factors = np.linalg.cholesky(np.concatenate([atoms, atoms[:, ::-1]]))
    b1, b2 = np.split(karcher_barycenter(factors, np.concatenate([w, w[:, ::-1]]), 1e-8)[0], 2)
    return distance(b1, b2)


def _prop_scalar_geometric_mean(rng, n, count):
    # scalars: the barycenter is the geometric mean
    vals, z, spectra = _instances(rng, n, count, lambda r, _: r.uniform(-2.0, 2.0, size=4),
                                  _normal, lambda r, m: r.uniform(-1.5, 1.5, size=(3, m)))
    vals, spectra = np.exp(vals), np.exp(spectra)
    bar = karcher_barycenter(np.linalg.cholesky(vals[..., None, None]), tol=1e-14)[0]
    worst = np.abs(bar[:, 0, 0] - np.exp(np.mean(np.log(vals), axis=-1)))
    # commuting case reduces to the scalar one in a shared eigenbasis; a
    # fourth spectrum, their geometric mean, gives the expected barycenter
    mean = np.exp(np.mean(np.log(spectra), axis=-2, keepdims=True))
    q = np.linalg.qr(z)[0][:, None]
    mats = sym(q @ (np.concatenate([spectra, mean], axis=1)[..., None] * np.eye(n))
               @ np.swapaxes(q, -1, -2))
    got = karcher_barycenter(np.linalg.cholesky(mats[:, :3]), tol=1e-12)[0]
    return np.maximum(worst, np.max(np.abs(got - mats[:, 3]), axis=(-2, -1)))


def _prop_spectrum_three_way(rng, n, count):
    p, q, a = _instances(rng, n, count, _spd_draw, _spd_draw, random_gl)
    p, q = random_spd(p), random_spd(q)
    by_svd = metric_sv_values(power(q, 0.5), a, power(p, -0.5))
    at = np.swapaxes(a, -1, -2)
    b = np.linalg.solve(np.linalg.cholesky(p), at)     # Cholesky-reduced pencil
    pencil = np.linalg.eigvalsh(b @ q @ np.swapaxes(b, -1, -2))
    by_pencil = 0.5 * np.log2(np.sort(pencil, axis=-1)[..., ::-1])
    adjoint = np.linalg.eigvals(np.linalg.solve(p, at @ q @ a))
    by_adjoint = 0.5 * np.log2(np.sort(adjoint.real, axis=-1)[..., ::-1])
    return np.maximum(np.max(np.abs(by_svd - by_pencil), axis=-1),
                      np.max(np.abs(by_svd - by_adjoint), axis=-1))


def _prop_singular_value_derivative(rng, n, count):
    # Right derivative of the log singular vector along g(t) = exp(tH).
    # The derivative is one-sided: sorting makes sigma(exp(-tH)) the reversed
    # negation of sigma(exp(tH)), so a two-sided difference through t=0 would
    # average lambda_i with lambda_{n+1-i}.  A second-order one-sided stencil
    # keeps the O(eps^2) accuracy of a centered one.
    def spread_normal(r, m):               # eigenvalues of h + h^T 0.1 apart
        while True:
            h = r.standard_normal((m, m))
            if m == 1 or np.min(np.diff(np.linalg.eigvalsh(h + h.T))) > 0.1:
                return h

    (h,) = _instances(rng, n, count, spread_normal)
    formula = np.linalg.eigvalsh(h + np.swapaxes(h, -1, -2))[..., ::-1] / (2.0 * LN2)
    eps = 1e-4
    s1 = log_singular_values(_expm_small(eps * h))
    s2 = log_singular_values(_expm_small(2.0 * eps * h))
    fd = (4.0 * s1 - s2) / (2.0 * eps)        # sigma(I) vanishes exactly
    return np.max(np.abs(fd - formula), axis=-1)


def _prop_sqrt_factor_derivative(rng, n, count):
    # directional derivative of (p, q) -> p^{-1/2} q^{1/2} at p = q
    p, vp, vq = _instances(rng, n, count, _spd_draw, _normal, _normal)
    p, vp, vq = random_spd(p), sym(vp) * 0.3, sym(vq) * 0.3
    h = lyapunov_solve(power(p, 0.5), vq - vp)
    formula = power(p, -0.5) @ h
    eps = 1e-5

    def upsilon(pp, qq):
        return power(pp, -0.5) @ power(qq, 0.5)

    fd = (upsilon(p + eps * vp, p + eps * vq)
          - upsilon(p - eps * vp, p - eps * vq)) / (2 * eps)
    return np.max(np.abs(fd - formula), axis=(-2, -1))


# (name, function of (rng, n, count), tolerance)
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
    if instances < 1 or seed < 0 or min(dims, default=0) < 1:   # no dims reads as 0
        raise ConfigError(f"need instances >= 1, seed >= 0 and one or more dims >= 1, "
                          f"got {instances}, {seed}, {list(dims)}")
    per_dim = max(1, int(round(instances / len(dims))))
    results = []
    for name, fn, tol in _SUITE:
        if names is not None and name not in names:
            continue
        rng = np.random.default_rng(seed)
        worst = float(np.max([np.max(fn(rng, int(n), per_dim), initial=0.0) for n in dims]))
        results.append(PropertyResult(name=name, instances=per_dim * len(dims),
                                      worst=worst, tolerance=tol))
    return results
