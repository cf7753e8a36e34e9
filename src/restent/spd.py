"""Trace-metric geometry on symmetric positive definite matrices.

All singular-value and distance logarithms are base 2 (bits).  Geodesics and
distances take one SVD of the quotient of the end points' Cholesky factors:
forming no matrix root and no Gram matrix, they square no condition number.

Kernels that take stacks, batched over leading axes: ``power``,
``congruence``, ``geodesic``, ``log_singular_values``, ``vectorial_distance``,
``distance``, ``lyapunov_solve``, and ``karcher_barycenter`` (rows of atoms,
from their factors; its tolerance bounds the distance to the barycenter).

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
# 16 Gram atoms of [[2,1],[0,1/2]] need 100 iterations at tol 1e-7, random
# atoms 10-40 at tol 1e-13.
KARCHER_MAX_ITER = 500
LN2 = float(np.log(2.0))


def sym(m: Array) -> Array:
    """Symmetric part m/2 + m^T/2, batched over leading axes.  Halving first
    keeps it finite wherever m is, and gives the bits of (m + m^T)/2 wherever
    m + m^T is finite and no half is subnormal."""
    half = 0.5 * m
    return half + np.swapaxes(half, -1, -2)


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
    """Action g * p := g p g^T of invertible matrices on SPD matrices."""
    g = np.asarray(g, dtype=float)
    c = np.max(np.linalg.cond(g))                      # NaN if any is NaN
    if not np.isfinite(c) or c > CONGRUENCE_COND_LIMIT:
        raise NumericError(f"congruence action is ill-conditioned (cond={c:.3g})")
    return sym(g @ p @ np.swapaxes(g, -1, -2))


def _cholesky(p: Array, q: Array) -> tuple:
    """L_p and B = L_p^{-1} L_q of Cholesky factors; NumericError unless PD."""
    try:
        factors = np.linalg.cholesky(np.array([p, q], dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from exc
    if not np.isfinite(factors).all():
        raise NumericError("non-finite matrix has no Cholesky factor")
    return factors[0], np.linalg.solve(*factors)


def geodesic(p: Array, q: Array, t) -> Array:
    """Point p #_t q = L (L^{-1} q L^{-T})^t L^T (any L L^T = p; Bhatia, Positive
    Definite Matrices, 2007, ch. 4-6) of the minimizing curve from p to q: with
    Cholesky factors and B = L_p^{-1} L_q = U S V^T, it is (L_p U) S^{2t} (L_p U)^T.
    Batched; ``t`` is a number, or an array of shape (..., 1) for one per pair."""
    lp, b = _cholesky(p, q)
    u, s, _ = np.linalg.svd(b)
    return sym(_compose(lp @ u, s ** (2.0 * t)))


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
    """Doubled log singular values of p^{-1/2} q^{1/2}, nonincreasing, whose norm
    is the trace-metric distance: those of the invertible B = L_p^{-1} L_q of
    Cholesky factors, as the two differ by orthogonal factors (Bhatia 2007)."""
    return 2.0 * np.log2(np.linalg.svd(_cholesky(p, q)[1], compute_uv=False))


def distance(p: Array, q: Array):
    """Riemannian (trace-metric) distance, in bits: a float for one pair, an
    array for a stack."""
    v = vectorial_distance(p, q)[..., None]
    d = np.sqrt(np.swapaxes(v, -1, -2) @ v)[..., 0, 0]   # np.linalg.norm's sum
    return float(d) if d.ndim == 0 else d


def _normalized_weights(weights, m: int, rows: int = 0) -> Array:
    """Barycenter weights: uniform when None, else checked to be m (or rows
    of m) nonnegative numbers summing to 1 and renormalized."""
    if weights is None:
        return np.full(m, 1.0 / m)
    w = np.asarray(weights, dtype=float)
    if w.shape not in ((m,), (rows, m)):
        raise NumericError(f"expected {m} weights, got shape {w.shape}")
    if np.any(w < -1e-12) or np.any(abs(w.sum(axis=-1) - 1.0) > 1e-6):
        raise NumericError("weights must be nonnegative and sum to 1")
    w = np.clip(w, 0.0, None)
    return w / w.sum(axis=-1, keepdims=True)


def karcher_barycenter(factors, weights=None, tol: float = 1e-9) -> tuple:
    """Weighted Karcher (Frechet) mean of the atoms F_i F_i^T, batched.

    ``factors`` has shape (r, k, n, n), r rows of k factors each, or
    (k, n, n) for a single row; ``weights`` is None (uniform), (k,) or
    (r, k).  Each row iterates X <- X^{1/2} exp(theta G) X^{1/2} on its own,
    with the gradient G = sum_i w_i log(X^{-1/2} F_i F_i^T X^{-1/2}); each
    log comes from the SVD of X^{-1/2} F_i, so no Gram matrix is formed.
    The start is the log-Euclidean mean, exact for commuting atoms.  The
    step theta = 2 / sum_i w_i (c_i+1)/(c_i-1) log c_i, with c_i the
    condition number of the i-th inner matrix, is the safeguard of Bini and
    Iannazzo (2013) for spread atoms (Moakher 2005 for the mean itself).

    Returns ``(bars, residual)``, residual = ||G||_F / ln 2 per row at the
    returned iterate.  Half the weighted sum of squared distances is
    1-strongly geodesically convex, so the residual bounds the distance, in
    bits, from the returned bar to the true barycenter.  A row stops once
    its residual is below ``tol``; a row still at or above it after
    ``KARCHER_MAX_ITER`` steps is returned as it stands, and the caller
    decides what to do with it.  A row with a factor not finite, or with
    s_max / s_min at least 1/eps (s_min lost in rounding), is refused by the
    start's SVDs and never iterated: its bar is NaN, its residual inf.
    """
    f = np.asarray(factors, dtype=float)
    single = f.ndim == 3
    if single:
        f = f[None]
    if f.ndim != 4 or f.shape[-1] != f.shape[-2] or f.shape[1] == 0:
        raise NumericError(f"expected factors of shape (r, k, n, n), got {f.shape}")
    w = np.broadcast_to(_normalized_weights(weights, f.shape[1], len(f)), f.shape[:2])

    def mean_log(u, s, w):       # sum_i w_i log(G_i G_i^T), G_i = U S V^T: 2 U log(S) U^T
        return sym(np.sum(w[..., None, None] * _compose(u, 2.0 * np.log(s)), axis=1))

    finite = np.isfinite(f).all(axis=(-2, -1))
    # V^T goes at once: one stack less; the identity replaces a factor not finite
    u, s = np.linalg.svd(f if finite.all() else
                         np.where(finite[..., None, None], f, np.eye(f.shape[-1])))[:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        refused = ~(finite & (s[..., 0] / s[..., -1] < 1.0 / np.finfo(float).eps)).all(axis=1)
    s[refused] = 1.0                                     # their start is the identity
    lam, q = np.linalg.eigh(mean_log(u, s, w))
    root = _compose(q, np.exp(0.5 * lam))                # X^{1/2}
    iroot = _compose(q, np.exp(-0.5 * lam))              # X^{-1/2}
    residual = np.full(len(f), np.inf)
    active = np.flatnonzero(~refused)
    for it in range(KARCHER_MAX_ITER + 1):
        u, s = np.linalg.svd(iroot[active][:, None] @ f[active])[:2]
        grad = mean_log(u, s, w[active])
        residual[active] = np.linalg.norm(grad, axis=(-2, -1)) / LN2
        go_on = ~(residual[active] < tol)
        active = active[go_on]
        if it == KARCHER_MAX_ITER or not active.size:
            break
        # log c_i = 2 log(s_max / s_min); (c+1)/(c-1) log c -> 2 as c -> 1
        spread = 2.0 * np.log(s[go_on, :, 0] / s[go_on, :, -1])
        slope = np.where(spread > 1e-8,
                         spread / np.tanh(0.5 * np.maximum(spread, 1e-8)), 2.0)
        theta = 2.0 / np.sum(w[active] * slope, axis=-1)
        g, v = np.linalg.eigh(grad[go_on])
        # X^{1/2} exp(theta G) X^{1/2} = B B^T, and B = P L R^T gives
        # X^{+-1/2} = P L^{+-1} P^T
        b = root[active] @ (v * np.exp(0.5 * theta[:, None] * g)[..., None, :])
        p, ell, _ = np.linalg.svd(b)
        root[active] = _compose(p, ell)
        iroot[active] = _compose(p, 1.0 / ell)
    bars = sym(root @ root)
    bars[refused] = np.nan
    return (bars[0], residual[0]) if single else (bars, residual)


def lyapunov_solve(s: Array, v: Array) -> Array:
    """Unique symmetric h with h s + s h = v, for SPD s and symmetric v.

    Solved in the eigenbasis of s where h_ij = v_ij / (sigma_i + sigma_j);
    the denominators are positive, so the solution always exists.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    scale = np.maximum(1.0, np.abs(v).max(axis=(-2, -1), keepdims=True))
    if not np.isclose(v, np.swapaxes(v, -1, -2), atol=1e-10 * scale).all():
        raise NumericError("right-hand side must be symmetric")
    w, u = np.linalg.eigh(sym(s))
    if np.any(w <= 0):
        raise NumericError("coefficient matrix must be positive definite")
    ut = np.swapaxes(u, -1, -2)
    h = ut @ sym(v) @ u / (w[..., :, None] + w[..., None, :])
    return sym(u @ h @ ut)
