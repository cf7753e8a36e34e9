"""Trace-metric geometry on symmetric positive definite matrices.

All singular-value and distance logarithms are base 2 (bits).  Matrix powers
go through a full symmetric eigen-decomposition; the dimensions here are
small enough that accuracy beats any iterative scheme.

Barycenters: ``karcher_barycenter`` solves whole batches of rows at once
from factors of the atoms, and its tolerance bounds the distance to the true
barycenter.

Every function is pure and safe to call concurrently.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError

Array = np.ndarray

# Relative floor for the smallest eigenvalue accepted at construction.
EIG_FLOOR = 1e-12
# Largest condition number of a matrix acting by congruence.
CONGRUENCE_COND_LIMIT = 1e12
# Iteration cap of karcher_barycenter.  Spread atoms take small steps: the
# 16 inverse-Gram atoms of [[2,1],[0,1/2]] need 100 iterations at tol 1e-7,
# random atoms 10-40 at tol 1e-13.
KARCHER_MAX_ITER = 500
LN2 = float(np.log(2.0))


def sym(m: Array) -> Array:
    """Symmetric part (m + m^T)/2, batched over leading axes."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def as_spd(m) -> Array:
    """Canonicalize an SPD matrix: symmetrize, then reject if any eigenvalue
    is at or below ``EIG_FLOOR`` times the largest one."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericError(f"expected a square matrix, got shape {m.shape}")
    m = sym(m)
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigen-decomposition failed: {exc}") from exc
    if not np.all(np.isfinite(w)) or w[-1] <= 0 or w[0] <= EIG_FLOOR * w[-1]:
        raise NumericError(f"matrix is not positive definite (eigenvalues {w})")
    return m


def _compose(u: Array, d: Array) -> Array:
    """u diag(d) u^T, batched over leading axes."""
    return (u * d[..., None, :]) @ np.swapaxes(u, -1, -2)


def power(p: Array, t: float) -> Array:
    """t-th power of an SPD matrix via eigen-decomposition, batched."""
    p = np.asarray(p, dtype=float)
    try:
        w, u = np.linalg.eigh(sym(p))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigen-decomposition failed: {exc}") from exc
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise NumericError("matrix power requires strictly positive eigenvalues")
    return sym(_compose(u, w ** t))


def congruence(g: Array, p: Array) -> Array:
    """Action g * p := g p g^T of an invertible matrix on an SPD matrix."""
    g = np.asarray(g, dtype=float)
    c = np.linalg.cond(g)
    if not np.isfinite(c) or c > CONGRUENCE_COND_LIMIT:
        raise NumericError(f"congruence action is ill-conditioned (cond={c:.3g})")
    return sym(g @ p @ g.T)


def geodesic(p: Array, q: Array, t: float) -> Array:
    """Point p #_t q = p^{1/2} (p^{-1/2} q p^{-1/2})^t p^{1/2} on the
    distance-minimizing curve from p to q."""
    s = power(p, 0.5)
    si = power(p, -0.5)
    return sym(s @ power(sym(si @ q @ si), t) @ s)


def log_singular_values(g: Array) -> Array:
    """Base-2 logs of the singular values of an invertible matrix,
    nonincreasing.  Singular input is rejected: the domain is GL(n)."""
    g = np.asarray(g, dtype=float)
    try:
        sv = np.linalg.svd(g, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    if np.any(sv <= 0) or not np.all(np.isfinite(sv)):
        raise NumericError("singular or non-finite matrix has no log singular values")
    return np.log2(sv)


def vectorial_distance(p: Array, q: Array) -> Array:
    """Vector of doubled log singular values of p^{-1/2} q^{1/2},
    nonincreasing.  Its Euclidean norm is the trace-metric distance."""
    return 2.0 * log_singular_values(power(p, -0.5) @ power(q, 0.5))


def distance(p: Array, q: Array) -> float:
    """Riemannian (trace-metric) distance, in bits."""
    return float(np.linalg.norm(vectorial_distance(p, q)))


def _normalized_weights(weights, m: int) -> Array:
    """Barycenter weights: uniform when None, else checked to be m
    nonnegative numbers summing to 1 and renormalized."""
    if weights is None:
        return np.full(m, 1.0 / m)
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise NumericError(f"expected {m} weights, got shape {w.shape}")
    if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-6:
        raise NumericError("weights must be nonnegative and sum to 1")
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def karcher_barycenter(factors, weights=None, tol: float = 1e-9) -> tuple:
    """Weighted Karcher (Frechet) mean of the atoms F_i F_i^T, batched.

    ``factors`` has shape (r, k, n, n), r rows of k factors each, or
    (k, n, n) for a single row.  Each row iterates
    X <- X^{1/2} exp(theta G) X^{1/2} on its own, with the gradient
    G = sum_i w_i log(X^{-1/2} F_i F_i^T X^{-1/2}); each log comes from the
    SVD of X^{-1/2} F_i, so no Gram matrix is formed.  The start is the
    log-Euclidean mean, exact for commuting atoms.  The step
    theta = 2 / sum_i w_i (c_i+1)/(c_i-1) log c_i, with c_i the condition
    number of the i-th inner matrix, is the safeguard of Bini and Iannazzo
    (2013) for spread atoms (Moakher 2005 for the mean itself).

    Returns ``(bars, residual)``, residual = ||G||_F / ln 2 per row at the
    returned iterate.  Half the weighted sum of squared distances is
    1-strongly geodesically convex, so the residual bounds the distance, in
    bits, from the returned bar to the true barycenter.  A row stops once
    its residual is below ``tol``; a row still at or above it after
    ``KARCHER_MAX_ITER`` steps is returned as it stands, and the caller
    decides what to do with it.
    """
    f = np.asarray(factors, dtype=float)
    single = f.ndim == 3
    if single:
        f = f[None]
    if f.ndim != 4 or f.shape[-1] != f.shape[-2] or f.shape[1] == 0:
        raise NumericError(f"expected factors of shape (r, k, n, n), got {f.shape}")
    w = _normalized_weights(weights, f.shape[1])

    def mean_log(g):
        """sum_i w_i log(G_i G_i^T), from the SVDs G_i = U S V^T as
        2 U log(S) U^T, and the singular values S."""
        u, s, _ = np.linalg.svd(g)
        return sym(np.sum(w[:, None, None] * _compose(u, 2.0 * np.log(s)), axis=1)), s

    lam, q = np.linalg.eigh(mean_log(f)[0])
    root = _compose(q, np.exp(0.5 * lam))                # X^{1/2}
    iroot = _compose(q, np.exp(-0.5 * lam))              # X^{-1/2}
    residual = np.full(len(f), np.inf)
    active = np.arange(len(f))
    for it in range(KARCHER_MAX_ITER + 1):
        grad, s = mean_log(iroot[active][:, None] @ f[active])
        residual[active] = np.linalg.norm(grad, axis=(-2, -1)) / LN2
        go_on = ~(residual[active] < tol)
        active = active[go_on]
        if it == KARCHER_MAX_ITER or not active.size:
            break
        # log c_i = 2 log(s_max / s_min); (c+1)/(c-1) log c -> 2 as c -> 1
        spread = 2.0 * np.log(s[go_on, :, 0] / s[go_on, :, -1])
        slope = np.where(spread > 1e-8,
                         spread / np.tanh(0.5 * np.maximum(spread, 1e-8)), 2.0)
        theta = 2.0 / np.sum(w * slope, axis=-1)
        g, v = np.linalg.eigh(grad[go_on])
        # X^{1/2} exp(theta G) X^{1/2} = B B^T, and B = P L R^T gives
        # X^{+-1/2} = P L^{+-1} P^T
        b = root[active] @ (v * np.exp(0.5 * theta[:, None] * g)[..., None, :])
        p, ell, _ = np.linalg.svd(b)
        root[active] = _compose(p, ell)
        iroot[active] = _compose(p, 1.0 / ell)
    bars = sym(root @ root)
    return (bars[0], residual[0]) if single else (bars, residual)


def lyapunov_solve(s: Array, v: Array) -> Array:
    """Unique symmetric h with h s + s h = v, for SPD s and symmetric v.

    Solved in the eigenbasis of s where h_ij = v_ij / (sigma_i + sigma_j);
    the denominators are positive, so the solution always exists.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.allclose(v, v.T, atol=1e-10 * max(1.0, np.abs(v).max())):
        raise NumericError("right-hand side must be symmetric")
    w, u = np.linalg.eigh(sym(s))
    if np.any(w <= 0):
        raise NumericError("coefficient matrix must be positive definite")
    vt = u.T @ sym(v) @ u
    h = vt / (w[:, None] + w[None, :])
    return sym(u @ h @ u.T)
