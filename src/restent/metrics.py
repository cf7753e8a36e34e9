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
from .spd import EIG_FLOOR, power, sym

Array = np.ndarray

# Stand-in for log2(0) when a singular Jacobian is admitted for bound-only
# use; annihilated by the max{0, .} in every bound formula.
LOG_ZERO = -1e18


@dataclass(frozen=True)
class MetricField:
    """Rule x -> P(x) plus, when available, the orbital derivative rule
    x -> Pdot(x) (per unit time).

    kind is one of "constant", "analytic", "tabulated".  Constant and
    analytic rules map states (..., n) -> (..., n, n).  A tabulated rule maps
    a batch of distinct states (m, n) to ``(P, reasons)``: P has shape
    (m, n, n) and ``reasons[i]`` is None, or says why row i has no value.
    Tabulated fields carry no orbital derivative, so every tabulated metric
    is measured on the time-h map: h = 1 for a map, and for a flow the node
    spacing ``step`` that a tabulated field built on a time grid carries.
    """

    dim: int
    kind: str
    label: str
    eval_rule: Callable[[Array], Array]
    orbital_rule: Optional[Callable[[Array], Array]] = None
    horizon: Optional[float] = None      # lookback of minimizing metrics
    step: Optional[float] = None         # node spacing of a time-grid metric

    @staticmethod
    def constant(matrix, label: str = "constant") -> "MetricField":
        from .spd import as_spd

        p = as_spd(matrix)
        n = p.shape[0]

        def ev(x: Array) -> Array:
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(p, x.shape[:-1] + (n, n)).copy()

        def od(x: Array) -> Array:
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape[:-1] + (n, n))

        return MetricField(dim=n, kind="constant", label=label, eval_rule=ev, orbital_rule=od)

    @staticmethod
    def identity(dim: int) -> "MetricField":
        return MetricField.constant(np.eye(dim), label="identity")

    @staticmethod
    def analytic(dim, eval_rule, orbital_rule=None, label: str = "analytic") -> "MetricField":
        return MetricField(dim=dim, kind="analytic", label=label,
                           eval_rule=eval_rule, orbital_rule=orbital_rule)

    @staticmethod
    def tabulated(dim, rule, label: str = "tabulated",
                  horizon: Optional[float] = None,
                  step: Optional[float] = None) -> "MetricField":
        return MetricField(dim=dim, kind="tabulated", label=label,
                           eval_rule=rule, horizon=horizon, step=step)

    def values(self, x: Array) -> tuple:
        """P over a batch of states (m, n), without raising per row.

        Returns ``(P, reasons)``: ``reasons[i]`` is None, or says why row i
        has no usable value (the rule could not build it, or it is not
        finite and positive definite as ``as_spd`` requires).  A tabulated
        rule runs once per distinct row, rows compared bit for bit."""
        p, _, why = self._values(x)
        return p, [why.get(i) for i in range(len(p))]

    def _values(self, x: Array) -> tuple:
        """``values`` as ``(P, failed, why)``: the mask of the rows without a
        value, and their reasons keyed by row.  P is checked once per distinct
        value (per distinct state for a tabulated rule)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[-1] != self.dim:
            raise ConfigError(f"expected states of shape (m, {self.dim}), got {x.shape}")
        if self.kind == "tabulated":
            first, inverse = _distinct(x)
            values, rule_why = self.eval_rule(x[first])
            values = sym(np.asarray(values, dtype=float))
            p = values[inverse]
            ruled = np.array([r is not None for r in rule_why], dtype=bool)[inverse]
        else:
            p = sym(np.asarray(self.eval_rule(x), dtype=float))
            first, inverse = _distinct(p)
            values, ruled = p[first], np.zeros(len(x), dtype=bool)
        finite = np.isfinite(values).all(axis=(-2, -1))
        w = np.full(values.shape[:-1], np.nan)
        w[finite] = np.linalg.eigvalsh(values[finite])
        spd = (w[:, -1] > 0) & (w[:, 0] > EIG_FLOOR * w[:, -1])
        failed = ruled | ~spd[inverse]
        why = {i: rule_why[inverse[i]] if ruled[i] else
               f"metric value is not positive definite (eigenvalues {w[inverse[i]]})"
               for i in np.flatnonzero(failed).tolist()}
        return p, failed, why

    def evaluate(self, x: Array) -> Array:
        """P at x; batched over leading axes of x.  Raises NumericError with
        the reason of the first row that has no value."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ConfigError(f"state dimension {x.shape[-1]} != metric dimension {self.dim}")
        p, _, why = self._values(x.reshape(-1, self.dim))
        if why:
            raise NumericError(why[min(why)])
        return p.reshape(x.shape + (self.dim,))

    @property
    def has_orbital(self) -> bool:
        return self.orbital_rule is not None

    def orbital_derivative(self, x: Array) -> Array:
        """Analytic Pdot at x (per unit time); batched."""
        if self.orbital_rule is None:
            raise ConfigError(
                f"metric '{self.label}' has no orbital derivative; "
                "continuous-time bounds measure it on the time-step map instead"
            )
        return sym(np.asarray(self.orbital_rule(np.asarray(x, dtype=float)), dtype=float))


def _distinct(a: Array) -> tuple:
    """``(first, inverse)``: ``a[first]`` holds each distinct row of the float
    array ``a`` once, in order of first appearance, rows told apart by their
    bits (-0.0 and each NaN are values of their own); ``a[first][inverse]`` is ``a``."""
    rows = np.ascontiguousarray(a, dtype=float).reshape(len(a), int(np.prod(np.shape(a)[1:])))
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _power(p: Array, t: float) -> Array:
    """``power(p, t)``, one eigendecomposition per distinct matrix of the stack."""
    flat = np.reshape(p, (-1,) + np.shape(p)[-2:])
    if len(flat) < 32:      # the sort would cost more than the eigh it can save
        return power(p, t)
    first, inverse = _distinct(flat)
    return power(flat[first], t)[inverse].reshape(np.shape(p))


def metric_sv_values(p: Array, q: Array, jac: Array) -> Array:
    """Log2 singular values (nonincreasing) of a Jacobian mapping the inner
    product p at the source to q at the image: SVD of q^{1/2} jac p^{-1/2}.

    Zero singular values map to the LOG_ZERO sentinel (bound-only use)."""
    b = _power(q, 0.5) @ jac @ _power(p, -0.5)
    sv = np.linalg.svd(b, compute_uv=False)
    if not np.all(np.isfinite(sv)):
        raise NumericError("non-finite singular values in metric spectrum")
    with np.errstate(divide="ignore"):
        out = np.where(sv > 0.0, np.log2(np.maximum(sv, 1e-300)), LOG_ZERO)
    return out


def ct_spectrum_values(p: Array, jac: Array, pdot: Array) -> Array:
    """Eigenvalues (nonincreasing) of P^{-1/2} (P J + J^T P + Pdot) P^{-1/2},
    batched over leading axes.  Pdot must be symmetric."""
    scale = max(1.0, float(np.abs(pdot).max()))
    if not np.allclose(pdot, np.swapaxes(pdot, -1, -2), atol=1e-9 * scale):
        raise NumericError("orbital derivative must be symmetric")
    jt = np.swapaxes(jac, -1, -2)
    core = p @ jac + jt @ p + pdot
    r = _power(p, -0.5)
    w = np.linalg.eigvalsh(sym(r @ core @ r))
    return w[..., ::-1]

