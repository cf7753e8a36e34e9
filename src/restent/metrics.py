"""Singular values and continuous-time spectra of Jacobians measured in a
state-dependent Riemannian metric.

A metric field maps a state x to an SPD matrix P(x).  Discrete-time spectra
are base-2 logs of the singular values of B = P(x')^{1/2} A P(x)^{-1/2}
(x' the image point); continuous-time spectra are the eigenvalues of
P^{-1/2} (P J + J^T P + Pdot) P^{-1/2}, kept in natural-log-per-time units
until the final bit conversion in the bound formulas.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericError
from .spd import EIG_FLOOR, _compose, as_spd, sym

Array = np.ndarray

# Odd multipliers of the row keys of ``_distinct``, reused cyclically past 64
# entries: the powers of 2^64 / golden ratio (Knuth's multiplicative hashing),
# so a change in one entry of a row always changes its key.
_ROW_WEIGHTS = np.cumprod(np.full(64, 0x9E3779B97F4A7C15, dtype=np.uint64))


@dataclass(frozen=True)
class MetricField:
    """Rule x -> P(x) plus, when available, the orbital derivative rule
    x -> Pdot(x) (per unit time).

    kind is "analytic" (a constant metric is an analytic one) or
    "tabulated".  Analytic rules map states (..., n) -> (..., n, n).  A
    tabulated field has no Pdot and is measured on the time-h map (h = 1
    for a map, its node spacing ``step`` for a flow): its rule maps states
    (m, n) to ``(pairs, reasons)``, ``pairs[i]`` = (P(x), Phi_h^T P(phi_h x) Phi_h)
    (the image's metric pulled back), ``reasons[i]`` None or why not."""

    dim: int
    kind: str
    label: str
    eval_rule: Callable[[Array], Array]
    orbital_rule: Optional[Callable[[Array], Array]] = None
    horizon: Optional[float] = None      # lookback of minimizing metrics
    step: Optional[float] = None         # node spacing of a time-grid metric

    @staticmethod
    def constant(matrix, label: str = "constant") -> "MetricField":
        p = as_spd(matrix)
        n = p.shape[0]

        def ev(x: Array) -> Array:
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(p, x.shape[:-1] + (n, n)).copy()

        def od(x: Array) -> Array:
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape[:-1] + (n, n))

        return MetricField.analytic(n, ev, od, label=label)

    @staticmethod
    def identity(dim: int) -> "MetricField":
        return MetricField.constant(np.eye(dim), label="identity")

    @staticmethod
    def analytic(dim, eval_rule, orbital_rule=None, label: str = "analytic") -> "MetricField":
        return MetricField(dim=dim, kind="analytic", label=label,
                           eval_rule=eval_rule, orbital_rule=orbital_rule)

    @staticmethod
    def tabulated(dim, rule, label: str = "tabulated", horizon: Optional[float] = None,
                  step: Optional[float] = None) -> "MetricField":
        return MetricField(dim=dim, kind="tabulated", label=label,
                           eval_rule=rule, horizon=horizon, step=step)

    def values(self, x: Array) -> tuple:
        """The metric over a batch of states (m, n), without raising per row.

        Returns ``(roots, inverse, failed, why)``: ``roots`` (3, k, n, n) holds
        P, P^{1/2} and P^{-1/2} of the k distinct values, told apart bit for
        bit, and row i has ``roots[:, inverse[i]]``.  One ``eigh`` per distinct
        value checks it as ``as_spd`` does and gives the roots ``spd.power``
        gives (NaN if the check fails).  ``failed`` marks the rows without a
        usable value, ``why`` gives each one's reason.  P(x) of a tabulated
        metric is the first of its pair."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[-1] != self.dim:
            raise ConfigError(f"expected states of shape (m, {self.dim}), got {x.shape}")
        with np.errstate(all="ignore"):          # a non-finite value is refused below
            p = self.eval_rule(x)
        if self.kind == "tabulated":
            p, rule_why = np.asarray(p[0])[:, 0], p[1]
            ruled = np.array([r is not None for r in rule_why], dtype=bool)
        else:
            ruled = np.zeros(len(x), dtype=bool)
        p = sym(np.asarray(p, dtype=float))
        first, inverse = _distinct(p)
        values = p[first]
        finite = np.isfinite(values).all(axis=(-2, -1))
        w, u = np.full(values.shape[:-1], np.nan), np.full(values.shape, np.nan)
        w[finite], u[finite] = np.linalg.eigh(values[finite])
        spd = (w[:, -1] > 0) & (w[:, 0] > EIG_FLOOR * w[:, -1])
        roots = np.full((3,) + values.shape, np.nan)
        roots[0] = values
        for root, t in zip(roots[1:], (0.5, -0.5)):
            root[spd] = sym(_compose(u[spd], w[spd] ** t))
        failed = ruled | ~spd[inverse]
        bad = np.flatnonzero(failed)
        why = {i: rule_why[i] if ruled[i] else "metric value is not finite" if not finite[k]
               else f"metric value is not positive definite (eigenvalues {w[k]})"
               for i, k in zip(bad.tolist(), inverse[bad].tolist())}
        return roots, inverse, failed, why

    @property
    def has_orbital(self) -> bool:
        return self.orbital_rule is not None

    def orbital_derivative(self, x: Array) -> Array:
        """Analytic Pdot at x (per unit time); batched.  Each finite value of
        the rule must be symmetric to within ``np.allclose``'s tolerances, the
        absolute one scaled by its own largest entry (at least 1): each pair
        a, b across the diagonal passes ``np.isclose`` both ways,
        |a - b| <= 1e-9 scale + 1e-5 min(|a|, |b|), checked once per pair."""
        if self.orbital_rule is None:
            raise ConfigError(
                f"metric '{self.label}' has no orbital derivative; "
                "continuous-time bounds measure it on the time-step map instead"
            )
        with np.errstate(all="ignore"):          # the caller refuses non-finite values
            pdot = np.asarray(self.orbital_rule(np.asarray(x, dtype=float)), dtype=float)
            checked = pdot[np.isfinite(pdot).all(axis=(-2, -1))]
            upper, lower = np.triu_indices(pdot.shape[-1], 1)
            a, b = checked[..., upper, lower], checked[..., lower, upper]
            scale = np.maximum(1.0, np.abs(checked).max(axis=(-2, -1), initial=0.0))[..., None]
            symmetric = np.abs(a - b) <= 1e-9 * scale + 1e-5 * np.minimum(np.abs(a), np.abs(b))
        if not symmetric.all():
            raise NumericError("orbital derivative must be symmetric")
        return sym(pdot)


def _distinct(a: Array) -> tuple:
    """``(first, inverse)``: ``a[first]`` holds each distinct row of the float
    array ``a`` once, in order of first appearance, rows told apart by their
    bits (-0.0 and each NaN are values of their own); ``a[first][inverse]`` is ``a``.

    Rows are grouped by one 64-bit key each, the wrapping dot product of
    their bits with ``_ROW_WEIGHTS``, and every row is then compared bit for
    bit with its group's first row.  Should two distinct rows share a key,
    they are grouped by sorting the rows' bytes instead.  On the 33,401
    ``lanford-exp`` values of resolution 41 (41 distinct) the key takes
    about 2.5 ms and the byte sort 9.5 ms (2-vCPU host)."""
    rows = np.ascontiguousarray(a, dtype=float).reshape(len(a), int(np.prod(np.shape(a)[1:])))
    bits = rows.view(np.uint64)
    keys = bits @ np.resize(_ROW_WEIGHTS, bits.shape[1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if not (bits[first][inverse] == bits).all():
        keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def metric_sv_values(q_half: Array, jac: Array, p_ihalf: Array) -> Array:
    """Log2 singular values (nonincreasing) of a Jacobian mapping the inner
    product P at the source to Q at the image: those of Q^{1/2} jac P^{-1/2},
    given ``q_half`` = Q^{1/2} and ``p_ihalf`` = P^{-1/2}; batched.  For
    n = 2 they have a closed form (``_sv2``: against LAPACK on 200,000
    random matrices, the larger is within 1.0e-15 relative and the smaller
    within 2.4 eps of the larger), and LAPACK's SVD gives the others.  A
    zero singular value gives -inf, which no positive part counts, as in
    the oracle's exponents.  A row whose product is not finite as computed
    (it overflows, or an input is not finite) is not decomposed: its values
    are NaN, and no warning is raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = q_half @ jac @ p_ihalf
    refused = ~np.isfinite(b).all(axis=(-2, -1))
    b[refused] = 0.0
    sv = _sv2(b) if b.shape[-1] == 2 else np.linalg.svd(b, compute_uv=False)
    with np.errstate(divide="ignore"):
        values = np.log2(sv)
    values[refused] = np.nan
    return values


def _sv2(m: Array) -> Array:
    """Singular values (nonincreasing) of 2x2 matrices [[a, b], [c, d]]: with
    E, F, G, H = (a + d, a - d, c + b, c - b) / 2, s1 = hypot(E, H) +
    hypot(F, G) and s2 = |(a/s1) d - (b/s1) c|, finite where LAPACK's are;
    diag(2, 0.5) gives [2, 0.5] exactly."""
    a, b, c, d = (m[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    a2, b2, c2, d2 = 0.5 * a, 0.5 * b, 0.5 * c, 0.5 * d
    s1 = np.hypot(a2 + d2, c2 - b2) + np.hypot(a2 - d2, c2 + b2)
    with np.errstate(invalid="ignore", divide="ignore"):
        s2 = np.abs(a / s1 * d - b / s1 * c)
    return np.stack([s1, np.where(s1 > 0.0, np.minimum(s2, s1), 0.0)], axis=-1)


def ct_spectrum_values(p: Array, p_ihalf: Array, jac: Array, pdot: Array) -> Array:
    """Eigenvalues (nonincreasing) of P^{-1/2} (P J + J^T P + Pdot) P^{-1/2},
    given P, ``p_ihalf`` = P^{-1/2} and a symmetric Pdot; batched.  A row
    whose symmetrized generator is not finite as computed (it overflows, or
    an input is not finite) is not decomposed: its values are NaN, and no
    warning is raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = sym(p_ihalf @ (p @ jac + np.swapaxes(jac, -1, -2) @ p + pdot) @ p_ihalf)
    refused = ~np.isfinite(s).all(axis=(-2, -1))
    s[refused] = 0.0
    w = np.linalg.eigvalsh(s)[..., ::-1]
    w[refused] = np.nan
    return w
