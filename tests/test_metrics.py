import numpy as np
import pytest
import scipy.linalg

from restent.errors import ConfigError, NumericError
from restent.dynamics import (
    CompactSet,
    lanford_region,
    lanford_system,
    linear_ode_system,
    sample_set,
)
from restent.entropy import ct_bound, lanford_metric, positive_sum
from restent.metrics import (
    LOG_ZERO,
    MetricField,
    ct_spectrum_values,
    metric_sv_values,
)
from restent.spd import power, sym

from test_spd import rand_gl, rand_spd


def test_identity_metric_gives_plain_singular_values():
    rng = np.random.default_rng(30)
    metric = MetricField.identity(3)
    a = rand_gl(rng, 3)
    values = metric_sv_values(metric.evaluate(np.zeros(3)), metric.evaluate(np.ones(3)), a)
    expected = np.log2(np.linalg.svd(a, compute_uv=False))
    assert np.allclose(values, expected, atol=1e-12)


def test_scalar_metric_formula():
    p, q, a = 2.0, 8.0, -3.0
    metric = MetricField.analytic(
        1,
        lambda x: np.where(x[..., :1, None] > 0, q, p) * np.ones(x.shape[:-1] + (1, 1)),
        label="two-level",
    )
    values = metric_sv_values(metric.evaluate(np.array([-1.0])),
                              metric.evaluate(np.array([1.0])), np.array([[a]]))
    assert np.allclose(values, [np.log2(abs(a) * np.sqrt(q / p))])


def test_metric_sv_matches_generalized_eigenproblem():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5):
        p = rand_spd(rng, n)
        q = rand_spd(rng, n)
        a = rand_gl(rng, n)
        ours = metric_sv_values(p, q, a)
        w = scipy.linalg.eigh(a.T @ q @ a, p, eigvals_only=True)
        oracle = 0.5 * np.log2(np.sort(w)[::-1])
        assert np.allclose(ours, oracle, atol=1e-8)


def test_three_way_equivalence_of_spectra():
    # SVD of B, generalized pencil roots, and the adjoint-product eigenvalues
    rng = np.random.default_rng(32)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        p, q, a = rand_spd(rng, n), rand_spd(rng, n), rand_gl(rng, n)
        by_svd = metric_sv_values(p, q, a)
        pencil = scipy.linalg.eigh(a.T @ q @ a, p, eigvals_only=True)
        by_pencil = 0.5 * np.log2(np.sort(pencil)[::-1])
        adjoint = np.linalg.eigvals(np.linalg.solve(p, a.T @ q @ a))
        by_adjoint = 0.5 * np.log2(np.sort(adjoint.real)[::-1])
        assert np.allclose(by_svd, by_pencil, atol=1e-8)
        assert np.allclose(by_svd, by_adjoint, atol=1e-8)


def test_singular_jacobian_sentinel():
    values = metric_sv_values(np.eye(2), np.eye(2), np.diag([2.0, 0.0]))
    assert values[0] == pytest.approx(1.0)
    assert values[1] <= LOG_ZERO
    assert positive_sum(values) == pytest.approx(1.0)


def test_ct_spectrum_euclidean_case():
    rng = np.random.default_rng(33)
    j = rng.standard_normal((3, 3))
    values = ct_spectrum_values(np.eye(3), j, np.zeros((3, 3)))
    expected = np.sort(np.linalg.eigvalsh(j + j.T))[::-1]
    assert np.allclose(values, expected, atol=1e-10)


def test_ct_spectrum_lanford_origin():
    a = 2.0 / 3.0
    sys_ = lanford_system(a)
    metric = lanford_metric(a)
    x = np.zeros(3)
    values = ct_spectrum_values(metric.evaluate(x), sys_.jacobian(x),
                                metric.orbital_derivative(x))
    assert np.allclose(values, [2 * a, 2 * (a - 1), 2 * (a - 1)], atol=1e-12)


def test_ct_spectrum_determinant_residual():
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = rand_spd(rng, n)
        j = rng.standard_normal((n, n))
        pd = sym(rng.standard_normal((n, n)))
        values = ct_spectrum_values(p, j, pd)
        core = p @ j + j.T @ p + pd
        scale = max(1.0, np.linalg.norm(core), np.linalg.norm(p)) ** n
        for lam in values:
            assert abs(np.linalg.det(core - lam * p)) < 1e-8 * scale


def test_ct_spectrum_rejects_asymmetric_pdot():
    with pytest.raises(NumericError):
        ct_spectrum_values(np.eye(2), np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def _map_and_analytic_spectra(system, region, metric, resolution, step):
    """Per-point spectra of ct_bound on the time-step map (the metric
    wrapped as a tabulated rule with that step) and with the metric's
    analytic orbital derivative."""
    table = MetricField.tabulated(
        metric.dim, lambda x: (metric.evaluate(x), [None] * len(x)), step=step)
    by_map = ct_bound(system, region, table, resolution)
    exact = ct_bound(system, region, metric, resolution)
    assert (by_map.map_step, exact.map_step) == (step, None)
    assert not by_map.excluded and not exact.excluded
    return [rep.per_point[:, metric.dim:-1] for rep in (by_map, exact)]


def _first_order_errors(*args):
    """Largest gap between the time-step-map and the analytic spectra for
    steps 1e-2 and 5e-3; each must be below its step, and halving the step
    must halve the gap."""
    errs = []
    for h in (1e-2, 5e-3):
        by_map, exact = _map_and_analytic_spectra(*args, h)
        errs.append(np.max(np.abs(by_map - exact)))
        assert errs[-1] < h
    assert 1.8 < errs[0] / errs[1] < 2.2


# The tests below keep their names from the one-sided finite difference of P
# they replaced: the time-step map is its counterpart, with a spectrum
# 2 ln(sigma)/h that tends to the analytic one as h -> 0.

def test_orbital_derivative_fd_constant_metric():
    metric = MetricField.constant(np.diag([1.0, 2.0, 3.0]))
    _first_order_errors(lanford_system(), lanford_region(), metric, 5)
    # on a linear flow the map is expm(h M): the spectrum is exact
    m = np.array([[0.5, 2.0], [0.0, -0.3]])
    p = np.array([[2.0, 0.3], [0.3, 1.0]])
    h = 0.1
    by_map, _ = _map_and_analytic_spectra(
        linear_ode_system(m), CompactSet(bounds=((-1.0, 1.0), (-1.0, 1.0))),
        MetricField.constant(p), 2, h)
    closed = 2.0 / h * np.log(np.linalg.svd(
        power(p, 0.5) @ scipy.linalg.expm(h * m) @ power(p, -0.5), compute_uv=False))
    assert np.allclose(by_map, closed, atol=1e-8)


def test_orbital_derivative_fd_matches_analytic_lanford():
    a = 2.0 / 3.0
    _first_order_errors(lanford_system(a), lanford_region(a), lanford_metric(a), 5)


def test_orbital_derivative_fd_scalar_exponential_metric():
    sys_ = linear_ode_system(np.array([[1.0]]))
    metric = MetricField.analytic(
        1, lambda x: np.exp(x[..., 0])[..., None, None],
        lambda x: (x[..., 0] * np.exp(x[..., 0]))[..., None, None], label="exp")
    box = CompactSet(bounds=((0.5, 1.5),))
    x = np.array([[0.5], [1.0], [1.5]])
    _first_order_errors(sys_, box, metric, 3)
    by_map, exact = _map_and_analytic_spectra(sys_, box, metric, 3, 1e-2)
    # P^{-1/2} (2P + Pdot) P^{-1/2} = 2 + x, since Pdot = x e^x; the time-h
    # map x -> x e^h gives 2 ln(sigma)/h = 2 + x (e^h - 1)/h
    assert np.allclose(exact, 2.0 + x, atol=1e-12)
    assert np.allclose(by_map, 2.0 + x * np.expm1(1e-2) / 1e-2, atol=1e-10)


def test_horn_submultiplicativity():
    rng = np.random.default_rng(35)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        b, c = rand_gl(rng, n), rand_gl(rng, n)
        sb = np.linalg.svd(b, compute_uv=False)
        sc = np.linalg.svd(c, compute_uv=False)
        sbc = np.linalg.svd(b @ c, compute_uv=False)
        for k in range(1, n + 1):
            lhs = np.prod(sbc[:k])
            rhs = np.prod(sb[:k]) * np.prod(sc[:k])
            assert lhs <= rhs * (1 + 1e-10)


def test_congruence_consistency_constant_metric():
    rng = np.random.default_rng(36)
    v = rand_gl(rng, 3)
    a = rand_gl(rng, 3)
    metric = MetricField.constant(v.T @ v)
    values = metric_sv_values(metric.evaluate(np.zeros(3)), metric.evaluate(np.ones(3)), a)
    expected = np.log2(np.linalg.svd(v @ a @ np.linalg.inv(v), compute_uv=False))
    assert np.allclose(values, expected, atol=1e-8)


def test_spectra_invariant_under_metric_scaling():
    rng = np.random.default_rng(37)
    a_sys = 0.8
    sys_ = lanford_system(a_sys)
    base = lanford_metric(a_sys)
    c = 7.3
    scaled = MetricField.analytic(
        3,
        lambda x: c * base.evaluate(x),
        lambda x: c * base.orbital_derivative(x),
        label="scaled",
    )
    for _ in range(5):
        x = rng.uniform([-0.5, -0.5, 0.0], [0.5, 0.5, 0.8])
        phi_x = x + 0.01 * sys_.rhs(x)
        jac = sys_.jacobian(x)
        s1 = metric_sv_values(base.evaluate(x), base.evaluate(phi_x), jac)
        s2 = metric_sv_values(scaled.evaluate(x), scaled.evaluate(phi_x), jac)
        assert np.allclose(s1, s2, atol=1e-10)
        c1 = ct_spectrum_values(base.evaluate(x), jac, base.orbital_derivative(x))
        c2 = ct_spectrum_values(scaled.evaluate(x), jac, scaled.orbital_derivative(x))
        assert np.allclose(c1, c2, atol=1e-10)


def test_tabulated_metric_deduplicates_rows_and_rejects_analytic_pdot():
    calls = []

    def rule(x):
        calls.append(x.tolist())
        return np.eye(2) * (1.0 + x[:, :1, None] ** 2), [None] * len(x)

    metric = MetricField.tabulated(2, rule, label="dedup")
    x = np.array([[0.5, 0.0], [0.0, 0.0], [0.5, 0.0], [-0.0, 0.0]])
    p, reasons = metric.values(x)
    # one rule call on the distinct rows, compared bit for bit (-0.0 != 0.0)
    assert calls == [[[0.5, 0.0], [0.0, 0.0], [-0.0, 0.0]]]
    assert reasons == [None] * 4
    assert np.array_equal(p[0], p[2]) and np.array_equal(p[0], 1.25 * np.eye(2))
    assert np.array_equal(metric.evaluate(x), p)
    with pytest.raises(ConfigError):
        metric.orbital_derivative(x)


def test_metric_values_flag_rows_without_spd_value():
    metric = MetricField.analytic(
        1, lambda x: np.where(x[..., :1, None] > 0, 1.0, -1.0), label="sign")
    p, reasons = metric.values(np.array([[1.0], [-1.0], [2.0]]))
    assert reasons[0] is None and reasons[2] is None
    assert "not positive definite" in reasons[1]
    assert np.array_equal(p[[0, 2]], np.ones((2, 1, 1)))
    with pytest.raises(NumericError, match="not positive definite"):
        metric.evaluate(np.array([-1.0]))


def test_metric_dimension_mismatch():
    metric = MetricField.identity(3)
    with pytest.raises(ConfigError):
        metric.evaluate(np.zeros(2))


def _stack_with_repeats(case):
    """Metric values at one stack of points, with Jacobians and orbital
    derivatives: ``lanford-exp`` repeats a value per z level, the identity
    has one value, and the 2x2 stack repeats values that share their first
    entry, two of them differing only in the sign of a zero."""
    rng = np.random.default_rng(47)
    if case == "lanford-exp":
        metric, sys_ = lanford_metric(), lanford_system()
        x = sample_set(lanford_region(), 5)
        return metric.evaluate(x), sys_.jacobian(x), metric.orbital_derivative(x)
    if case == "identity":
        p = MetricField.identity(3).evaluate(rng.standard_normal((40, 3)))
    else:
        signed = np.array([[[2.0, 0.0], [0.0, 0.5]], [[2.0, -0.0], [-0.0, 0.5]],
                           [[2.0, 0.3], [0.3, 1.0]]])
        p = np.concatenate([signed[rng.integers(0, 3, 30)],
                            [rand_spd(rng, 2) for _ in range(10)]])
    n = p.shape[-1]
    return p, rng.standard_normal(p.shape), sym(rng.standard_normal(p.shape)) * n


@pytest.mark.parametrize("case", ["lanford-exp", "identity", "signed-zeros"])
def test_spectra_of_a_stack_are_its_row_by_row_spectra(case):
    p, jac, pdot = _stack_with_repeats(case)
    q = p[::-1]
    by_stack = metric_sv_values(p, q, jac)
    by_row = [metric_sv_values(*rows) for rows in zip(p, q, jac)]
    assert np.array_equal(by_stack, by_row)
    by_stack = ct_spectrum_values(p, jac, pdot)
    by_row = [ct_spectrum_values(*rows) for rows in zip(p, jac, pdot)]
    assert np.array_equal(by_stack, by_row)


def test_metric_values_reasons_per_row_on_a_mixed_stack():
    def ev(x):
        a = np.where(x[..., 0] < 0, -1.0, np.where(x[..., 0] > 5, np.nan, 1.0 + x[..., 0]))
        return np.eye(2) * np.stack([a, np.ones_like(a)], axis=-1)[..., None, :]

    x = np.array([[1.0, 0.0], [-1.0, 0.0], [6.0, 0.0], [1.0, 3.0], [-2.0, 1.0],
                  [7.0, 1.0], [2.0, 0.0], [0.0, 0.0], [-0.0, 0.0]])
    not_spd = "metric value is not positive definite (eigenvalues {})"
    expected = [None, not_spd.format("[-1.  1.]"), not_spd.format("[nan nan]"), None,
                not_spd.format("[-1.  1.]"), not_spd.format("[nan nan]"), None, None, None]
    analytic = MetricField.analytic(2, ev, label="mixed")
    p, reasons = analytic.values(x)
    assert reasons == expected
    assert reasons == [analytic.values(row[None])[1][0] for row in x]
    assert np.array_equal(p, sym(ev(x)), equal_nan=True)
    # a tabulated rule's own reason comes before the positive definiteness check
    tabulated = MetricField.tabulated(
        2, lambda s: (ev(s), ["far" if row[1] > 2 else None for row in s]), label="mixed")
    _, reasons = tabulated.values(x)
    assert reasons == expected[:3] + ["far"] + expected[4:]
