import dataclasses
import json
import warnings

import numpy as np
import pytest

from restent.errors import ConfigError, NumericError
from restent.dynamics import (
    _BLOCK_ROWS,
    CompactSet,
    identity_system,
    lanford_region,
    lanford_system,
    linear_map_system,
    linear_ode_system,
    propagate,
    SystemModel,
    sample_set,
)
from restent.entropy import (
    MAX_REFINES,
    REFINE_MARGIN,
    REFINE_TOL,
    SCHEMA_VERSION,
    _spectra,
    aitken_accelerate,
    bound,
    lanford_closed_form,
    lanford_metric,
    lyapunov_oracle,
    metric_change_constant,
    minimizing_metric,
    positive_sum,
    proximate_entropy,
)
from restent.metrics import MetricField, metric_sv_values
from restent import dynamics, entropy, spd
from restent.spd import karcher_barycenter, power

A0 = 2.0 / 3.0
LN2 = np.log(2.0)

UNIT_BOX_1 = CompactSet(bounds=((-1.0, 1.0),))
UNIT_BOX_2 = CompactSet(bounds=((-1.0, 1.0), (-1.0, 1.0)))


def test_dt_bound_identity_map_any_metric():
    sys_ = identity_system(2)
    rng = np.random.default_rng(40)
    curved = MetricField.analytic(
        2,
        lambda x: np.eye(2) * np.exp(x[..., 0])[..., None, None]
        + 0.3 * np.outer([1.0, 0.0], [1.0, 0.0]),
        label="curved",
    )
    for metric in (MetricField.identity(2), curved):
        rep = bound(sys_, UNIT_BOX_2, metric, resolution=5)
        assert rep.bound == pytest.approx(0.0, abs=1e-10)
        assert rep.units == "bits/step"


def test_dt_bound_scalar_doubling_map():
    sys_ = linear_map_system(np.array([[2.0]]))
    rep = bound(sys_, UNIT_BOX_1, MetricField.identity(1), resolution=5)
    assert rep.bound == pytest.approx(1.0, abs=1e-12)


def test_dt_bound_matches_oracle_for_diagonal_map():
    m = np.diag([2.0, 0.5])
    sys_ = linear_map_system(m)
    rep = bound(sys_, UNIT_BOX_2, MetricField.identity(2), resolution=3)
    oracle = lyapunov_oracle(sys_, UNIT_BOX_2, horizons=(3, 7), resolution=3)
    assert rep.bound == pytest.approx(1.0, abs=1e-12)
    assert oracle.values[-1] == pytest.approx(1.0, abs=1e-12)
    # positive parts of the exponent profile sum to the same value at any t
    assert oracle.values[0] == pytest.approx(1.0, abs=1e-12)


def test_dt_bound_exact_on_normal_matrices():
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    eigs = np.array([1.8, 0.6, -1.1])
    m = q @ np.diag(eigs) @ q.T
    sys_ = linear_map_system(m)
    rep = bound(sys_, CompactSet(bounds=((-1, 1),) * 3), MetricField.identity(3),
                resolution=2)
    expected = positive_sum(np.log2(np.abs(eigs)))
    assert rep.bound == pytest.approx(float(expected), abs=1e-10)


def test_ct_bound_scalar_cases():
    decay = linear_ode_system(np.array([[-1.0]]))
    rep = bound(decay, UNIT_BOX_1, MetricField.identity(1), resolution=3)
    assert rep.bound == pytest.approx(0.0, abs=1e-12)
    assert rep.per_point[0, 1] == pytest.approx(-2.0)
    grow = linear_ode_system(np.array([[1.0]]))
    rep = bound(grow, UNIT_BOX_1, MetricField.identity(1), resolution=3)
    assert rep.bound == pytest.approx(1.0 / LN2, abs=1e-12)
    assert rep.units == "bits/time"


def test_ct_bound_lanford_reference_value():
    sys_ = lanford_system(A0)
    rep = bound(sys_, lanford_region(A0), lanford_metric(A0), resolution=21)
    assert rep.bound == pytest.approx(lanford_closed_form(A0), abs=1e-12)
    # maximizer sits on the z-axis
    assert abs(rep.maximizer[0]) < 1e-9 and abs(rep.maximizer[1]) < 1e-9


def test_ct_bound_lanford_lambda_closed_forms():
    a = 0.8
    sys_ = lanford_system(a)
    region = lanford_region(a)
    rep = bound(sys_, region, lanford_metric(a), resolution=9)
    for row in rep.per_point:
        x, y, z = row[:3]
        g = 2.0 * (a * z - z * z - x * x - y * y) / a
        lam1 = 2.0 * (a - 2.0 * z) + g
        lam23 = 2.0 * (a - 1.0 + z) + g
        expected = np.sort([lam1, lam23, lam23])[::-1]
        assert np.allclose(row[3:6], expected, atol=1e-8)


def pulled_back_rule(system, value, h=1.0, why=lambda row: None, batches=None):
    """Tabulated rule of the metric x -> ``value(x)`` (states (m, n) to
    (m, n, n)) on the time-h map of ``system``: per row, the pair of P(x)
    and the image's metric pulled back, Phi^T P(phi_h x) Phi, from one
    ``propagate``.  A row gets the reason ``why`` gives for it or for its
    image, or one when its orbit blows up within the step; ``batches``, if
    given, records every batch of rows asked for."""
    def rule(x):
        if batches is not None:
            batches.append(x.tolist())
        prop = propagate(system, x, h, variational=True)
        jac = prop.jacobians
        pairs = np.stack([value(x), np.swapaxes(jac, -1, -2) @ value(prop.states) @ jac], axis=1)
        return pairs, [f"trajectory of '{system.name}' blew up within the map step at t={t:.6g}"
                       if escaped else why(row) or why(image)
                       for row, image, escaped, t in zip(x, prop.states, prop.escaped,
                                                         prop.escape_times)]
    return rule


def _eye(x):
    return np.broadcast_to(np.eye(x.shape[-1]), x.shape + x.shape[-1:])


def test_ct_bound_requires_matching_time_type_and_pdot():
    ode = linear_ode_system(np.eye(2))
    # no orbital rule: the bound is taken on the time-step map
    tab = MetricField.tabulated(2, pulled_back_rule(ode, _eye, 0.25), label="tab", step=0.25)
    rep = bound(ode, UNIT_BOX_2, tab, resolution=3)
    assert rep.map_step == 0.25
    assert rep.bound == pytest.approx(2.0 / LN2, abs=1e-9)
    rep = bound(ode, UNIT_BOX_2, MetricField.identity(2), resolution=3)
    assert rep.map_step is None
    assert rep.bound == pytest.approx(2.0 / LN2, abs=1e-12)


def test_bound_refuses_a_metric_of_another_dimension():
    # refused before anything is evaluated, naming both dimensions
    with pytest.raises(ConfigError, match="metric dimension 3 != system dimension 2"):
        bound(linear_map_system(np.diag([2.0, 0.5])), UNIT_BOX_2, MetricField.identity(3),
              resolution=3)


def test_ct_bound_rejects_tabulated_metric_without_step():
    ode = linear_ode_system(np.eye(2))
    tab = MetricField.tabulated(2, pulled_back_rule(ode, _eye, 0.25), label="tab")
    with pytest.raises(ConfigError, match="time step"):
        bound(ode, UNIT_BOX_2, tab, resolution=3)
    # a discrete bound needs no step
    identity_map = linear_map_system(np.eye(2))
    tab = MetricField.tabulated(2, pulled_back_rule(identity_map, _eye), label="tab")
    rep = bound(identity_map, UNIT_BOX_2, tab, resolution=3)
    assert rep.bound == 0.0


def test_ct_bound_excludes_rows_that_escape_within_the_map_step():
    # e^{40 t} passes the blow-up guard before t = 0.5 unless x = 0
    fast = linear_ode_system(np.array([[40.0]]))
    tab = MetricField.tabulated(1, pulled_back_rule(fast, _eye, 0.5), label="tab", step=0.5)
    rep = bound(fast, UNIT_BOX_1, tab, resolution=3)
    assert [e["state"] for e in rep.excluded] == [[-1.0], [1.0]]
    assert all("blew up within the map step" in e["reason"] for e in rep.excluded)
    assert rep.per_point[:, :1].tolist() == [[0.0]]
    assert rep.bound == pytest.approx(40.0 / LN2, rel=1e-9)


@pytest.mark.parametrize("case", ["map", "flow-with-exclusion"])
def test_per_point_is_the_float_table_of_the_kept_grid_points(case):
    if case == "map":
        region = UNIT_BOX_2
        rep = bound(linear_map_system(np.diag([2.0, 0.5])), region,
                    MetricField.identity(2), resolution=3)
    else:
        # as above: the orbits from -1 and +1 blow up within the map step
        region, fast = UNIT_BOX_1, linear_ode_system(np.array([[40.0]]))
        tab = MetricField.tabulated(1, pulled_back_rule(fast, _eye, 0.5), label="tab", step=0.5)
        rep = bound(fast, region, tab, resolution=3)
        assert rep.excluded
    dim, grid = region.dim, sample_set(region, 3).tolist()
    table = rep.per_point
    assert isinstance(table, np.ndarray) and table.dtype == np.float64
    assert table.shape == (len(grid) - len(rep.excluded), 2 * dim + 1)
    excluded = [e["state"] for e in rep.excluded]
    assert table[:, :dim].tolist() == [x for x in grid if x not in excluded]
    assert rep.bound == table[:, -1].max()
    assert rep.maximizer == table[np.argmax(table[:, -1]), :dim].tolist()
    assert len(table) + len(rep.excluded) == len(grid)


def test_dt_bound_flags_points_where_metric_is_undefined():
    sys_ = identity_system(1)

    partial = pulled_back_rule(
        sys_, lambda x: np.eye(1) * (1.0 + x[:, 0] ** 2)[:, None, None],
        why=lambda row: "metric value requested outside its domain"
        if np.any(np.abs(row) > 0.5) else None)
    metric = MetricField.tabulated(1, partial, label="partial")
    rep = bound(sys_, UNIT_BOX_1, metric, resolution=5)
    assert len(rep.excluded) == 2                 # the points at -1 and +1
    assert len(rep.per_point) == 3
    assert all("domain" in e["reason"] for e in rep.excluded)
    assert rep.bound == pytest.approx(0.0, abs=1e-12)


def test_lyapunov_oracle_discrete_blowup_masked():
    sys_ = linear_map_system(np.diag([3.0, 3.0]))
    res = lyapunov_oracle(sys_, UNIT_BOX_2, horizons=(10, 25), resolution=3)
    # every point except the origin exceeds the norm guard by t=25
    assert len(res.excluded) == 8
    assert res.values[-1] == pytest.approx(2.0 * np.log2(3.0), abs=1e-12)


def test_minimizing_metric_dt_first_step_is_identity():
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 2.0]]))
    p1 = minimizing_metric(sys_, 1)
    roots, *_ = p1.values(np.array([[0.3, -0.7]]))
    assert np.allclose(roots[0], np.eye(2))
    rep_auto = bound(sys_, UNIT_BOX_2, p1, resolution=2)
    rep_id = bound(sys_, UNIT_BOX_2, MetricField.identity(2), resolution=2)
    assert rep_auto.bound == pytest.approx(rep_id.bound, abs=1e-12)


def test_minimizing_metric_dt_scalar_chain():
    sys_ = linear_map_system(np.array([[2.0]]))
    for n in (2, 4, 6):
        metric = minimizing_metric(sys_, n, tol=1e-12)
        roots, *_ = metric.values(np.array([[0.2]]))
        value = roots[0].item()
        assert value == pytest.approx(2.0 ** (n - 1), rel=1e-8)
        rep = bound(sys_, UNIT_BOX_1, metric, resolution=3)
        assert rep.bound == pytest.approx(1.0, abs=1e-8)


def test_minimizing_metric_dt_singular_jacobian_rejected():
    sys_ = linear_map_system(np.array([[1.0, 0.0], [0.0, 0.0]]))
    metric = minimizing_metric(sys_, 3)
    *_, failed, why = metric.values(np.array([[0.1, 0.1]]))
    assert failed.tolist() == [True] and "invertible" in why[0]


def _henon(a=1.4, b=0.3):
    def jacobian(x):
        x0 = x[..., 0]
        return np.stack([np.stack([-2.0 * a * x0, np.ones_like(x0)], axis=-1),
                         np.stack([np.full_like(x0, b), np.zeros_like(x0)], axis=-1)], axis=-2)

    return SystemModel(name="henon", time_type="discrete", dim=2, jacobian=jacobian,
                       rhs=lambda x: np.stack([1.0 - a * x[..., 0] ** 2 + x[..., 1],
                                               b * x[..., 0]], axis=-1))


SINGULAR = ("minimizing metrics require an invertible Jacobian at every sample point; "
            "got a numerically singular one")


def _singular_from(x0):
    """The map x -> (x0 + 1, x1/2): its Jacobian is diag(2, 1/2), but
    diag(2, 0) from x0 = 1 on."""
    def jacobian(x):
        return np.stack([np.diag([2.0, 0.0 if x0_ >= 1.0 else 0.5]) for x0_ in x[..., 0]])

    return SystemModel(name="singular-from", time_type="discrete", dim=2, jacobian=jacobian,
                       rhs=lambda x: np.stack([x[..., 0] + 1.0, 0.5 * x[..., 1]], axis=-1))


def test_minimizing_metric_refuses_each_window_on_its_own():
    # auto:2 records the products I, A_1, A_2 A_1 and solves the windows
    # (I, A_1) and (A_1, A_2 A_1): from x0 = 0 only the last product is
    # singular, so the row keeps its window-0 bar, gets the identity in
    # window 1 and the singular reason; from x0 = 1 both windows are refused
    x = np.array([[-1.0, 0.5], [0.0, 0.5], [1.0, 0.5]])
    pairs, reasons = minimizing_metric(_singular_from(1.0), 2).eval_rule(x)
    assert reasons == [None, SINGULAR, SINGULAR]
    first = [np.eye(2), np.diag([2.0, 0.5])]
    for window, factors in enumerate((first, first[1:] + [np.diag([4.0, 0.25])])):
        bar, residual = karcher_barycenter(np.array(factors), tol=1e-7)
        assert residual < 1e-7
        np.testing.assert_array_equal(pairs[0, window], bar)
    np.testing.assert_array_equal(pairs[1, 0], karcher_barycenter(np.array(first), tol=1e-7)[0])
    for row, window in ((1, 1), (2, 0), (2, 1)):
        np.testing.assert_array_equal(pairs[row, window], np.eye(2))


def test_an_indefinite_barycenter_excludes_its_row(monkeypatch):
    real = entropy.karcher_barycenter

    def first_row_indefinite(factors, weights=None, tol=1e-9):
        bars, residual = real(factors, weights, tol)
        bars[0], residual[0] = np.diag([1.0, -1.0]), 0.0
        return bars, residual

    monkeypatch.setattr(entropy, "karcher_barycenter", first_row_indefinite)
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
    rep = bound(sys_, UNIT_BOX_2, minimizing_metric(sys_, 4), resolution=3)
    assert rep.excluded == [{"state": [-1.0, -1.0],
                             "reason": "metric pair is not positive definite"}]
    assert len(rep.per_point) == 8


def test_minimizing_metric_of_the_henon_map_is_accurate():
    # reference: the same Karcher means in 50-digit mpmath arithmetic,
    # solved to a gradient norm below 1e-35
    values, ok, _ = _spectra(_henon(), minimizing_metric(_henon(), 12),
                             np.array([[0.45875, -0.132]]))
    assert ok.tolist() == [True]
    assert positive_sum(values)[0] == pytest.approx(0.7880257818, abs=1e-6)


def test_minimizing_metric_dt_clipped_nonnormal_case():
    # eigenvalues 2 and 1/2: the Euclidean bound overshoots the true rate 1,
    # the metric sequence recovers it
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
    box = UNIT_BOX_2
    rep_id = bound(sys_, box, MetricField.identity(2), resolution=2)
    assert rep_id.bound > 1.0 + 0.05
    bounds = []
    for n in (2, 4, 8):
        metric = minimizing_metric(sys_, n, tol=3e-6)
        bounds.append(bound(sys_, box, metric, resolution=2).bound)
    assert bounds[0] <= rep_id.bound + 1e-9
    assert all(b2 <= b1 + 0.01 for b1, b2 in zip(bounds, bounds[1:]))
    assert abs(bounds[-1] - 1.0) < 0.05


def test_minimizing_metric_of_a_clipped_nonnormal_map_needs_no_floor():
    # at N = 24 the metric's condition number passes 1e12 (cond(A) = 4^N at
    # the last node): the pair is measured without a floor on it, and every
    # point is kept
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
    rep = bound(sys_, UNIT_BOX_2, minimizing_metric(sys_, 24), resolution=5)
    assert rep.excluded == [] and len(rep.per_point) == 25
    assert 1.0 <= rep.bound <= 1.0 + 1e-4


@pytest.mark.parametrize("case", ["jordan-auto8", "lanford-auto3"])
def test_window_spectra_match_the_metric_at_the_image(case):
    # P(x), P(phi_h x) and Phi_h through metric_sv_values: each window
    # barycenter is within tol bits of the exact one, so each log2 singular
    # value of the time-h map is within tol bits, tol / h per unit time
    tol = 1e-7
    if case == "jordan-auto8":
        sys_, region, resolution, horizon = linear_map_system(JORDAN), UNIT_BOX_2, 4, 8
    else:
        sys_, region, resolution, horizon = lanford_system(A0), lanford_region(A0), 5, 3
    metric = minimizing_metric(sys_, horizon, tol=tol)
    pts = sample_set(region, resolution)
    pairs, reasons = metric.eval_rule(pts)
    assert pairs.shape == (len(pts), 2, sys_.dim, sys_.dim) and reasons == [None] * len(pts)
    values, ok, _ = _spectra(sys_, metric, pts)
    assert ok.all()
    h = metric.step or 1.0
    prop = propagate(sys_, pts, h, variational=True)
    (_, q_half, _), at_image, *_ = metric.values(prop.states)
    (_, _, p_ihalf), at_point, *_ = metric.values(pts)
    image = metric_sv_values(q_half[at_image], prop.jacobians, p_ihalf[at_point]) / h
    per_time = values if metric.step is None else values / (2.0 * LN2)
    assert np.abs(per_time - image).max() <= tol / h


def test_a_pair_that_is_not_finite_or_has_no_cholesky_factor_excludes_its_row():
    # P = diag(1, 10^(10 x0)) on the map diag(2, 1/2): the pairs have
    # condition numbers up to 1e20 and are kept, as nothing is inverted or
    # rooted; the rows at (-1, 1) and (1, -1) have a NaN and an indefinite P
    sys_ = linear_map_system(np.diag([2.0, 0.5]))

    def value(x):
        p = np.zeros((len(x), 2, 2))
        p[:, 0, 0], p[:, 1, 1] = 1.0, 10.0 ** (10.0 * x[:, 0])
        p[(x[:, 0] == -1.0) & (x[:, 1] == 1.0)] = np.nan
        p[(x[:, 0] == 1.0) & (x[:, 1] == -1.0), 1, 1] = -1.0
        return p

    rep = bound(sys_, UNIT_BOX_2, MetricField.tabulated(2, pulled_back_rule(sys_, value)),
                resolution=3)
    assert rep.excluded == [
        {"state": [-1.0, 1.0], "reason": "metric pair is not finite"},
        {"state": [1.0, -1.0], "reason": "metric pair is not positive definite"}]
    # log2 of the singular values 2 and 10^(5 x0) / 2
    x0 = rep.per_point[:, 0]
    expected = np.sort(np.column_stack([np.ones_like(x0), 5.0 * np.log2(10.0) * x0 - 1.0]))
    np.testing.assert_allclose(rep.per_point[:, 2:4], expected[:, ::-1], rtol=1e-14, atol=0)
    assert len(rep.per_point) == 7


@pytest.mark.parametrize("dim", [2, 3])
def test_a_flow_whose_generator_overflows_is_excluded_without_warnings(dim):
    # J = diag(1e308, -1, ...) is finite, but J + J^T overflows at every point
    sys_ = linear_ode_system(np.diag([1e308] + [-1.0] * (dim - 1)))
    box = CompactSet(bounds=((-1.0, 1.0),) * dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, ok, reasons = _spectra(sys_, MetricField.identity(dim), sample_set(box, 3))
        with pytest.raises(NumericError, match="every sample point was excluded"):
            bound(sys_, box, MetricField.identity(dim), resolution=3)
    assert values.shape == (0, dim) and not ok.any()
    assert reasons == ["metric-adapted generator overflows"] * 3 ** dim


def test_a_map_whose_metric_adapted_jacobian_overflows_is_excluded_without_warnings():
    # Q^{1/2} A P^{-1/2} = 1e305 is finite, but Q^{1/2} A = 3.2e310 is not
    sys_ = linear_map_system(np.diag([1e305, 0.5, 0.5]))
    metric = MetricField.constant(np.diag([1e11, 1.0, 1.0]))
    box = CompactSet(bounds=((-1.0, 1.0),) * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, ok, reasons = _spectra(sys_, metric, sample_set(box, 3))
        with pytest.raises(NumericError, match="every sample point was excluded"):
            bound(sys_, box, metric, resolution=3)
    # the rows off x0 = 0 blow up within the step, the others overflow
    assert not ok.any() and reasons.count("metric-adapted Jacobian overflows") == 9
    assert sum(r.startswith("trajectory of") for r in reasons) == 18


def test_a_map_row_whose_metric_adapted_jacobian_overflows_leaves_the_others():
    # diag(2, 1/2) measured in diag(1e11, 1), but 1e305 in place of 2 where x0 > 0.9
    def jacobian(x):
        return np.stack([np.diag([1e305 if x0 > 0.9 else 2.0, 0.5]) for x0 in x[..., 0]])

    sys_ = SystemModel(name="partial", time_type="discrete", dim=2, jacobian=jacobian,
                       rhs=lambda x: x * np.array([2.0, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bound(sys_, UNIT_BOX_2, MetricField.constant(np.diag([1e11, 1.0])), resolution=3)
    assert rep.bound == pytest.approx(1.0, abs=1e-12) and len(rep.per_point) == 6
    assert rep.excluded == [{"state": [1.0, x1], "reason": "metric-adapted Jacobian overflows"}
                            for x1 in (-1.0, 0.0, 1.0)]


def test_unconverged_barycenter_is_excluded_with_reason(monkeypatch):
    monkeypatch.setattr(spd, "KARCHER_MAX_ITER", 1)
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
    metric = minimizing_metric(sys_, 8, tol=1e-7)
    *_, failed, why = metric.values(np.array([[0.1, 0.2], [-0.3, 0.4]]))
    assert failed.all() and list(why) == [0, 1]
    assert all("not converged after 1 iterations" in r for r in why.values())
    assert all("gradient residual" in r for r in why.values())
    with pytest.raises(NumericError, match="every sample point was excluded"):
        bound(sys_, UNIT_BOX_2, metric, resolution=2)


def _orbit_loop_metric(system, steps, x, tol=1e-7):
    """Reference minimizing metric of a map at the rows of x, as ``(pairs,
    reasons)``: the Jacobian products of lengths 0..steps accumulated along
    each orbit one map step at a time, and the Karcher means of the Gram
    atoms of lengths 0..steps-1 and 1..steps."""
    prod = np.broadcast_to(np.eye(system.dim), (len(x), system.dim, system.dim))
    prods = [prod]
    for _ in range(steps):
        prod = system.jacobian(x) @ prod
        x = system.rhs(x)
        prods.append(prod)
    factors = np.swapaxes(np.stack(prods, axis=1), -1, -2)
    bars, residuals = zip(*(karcher_barycenter(window, tol=tol)
                            for window in (factors[:, :-1], factors[:, 1:])))
    return np.stack(bars, axis=1), [None if r < tol else "not converged"
                                    for r in np.max(residuals, axis=0)]


@pytest.mark.parametrize("steps", [1, 2, 8])
def test_minimizing_metric_of_a_map_matches_the_orbit_loop(steps):
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
    x = sample_set(UNIT_BOX_2, 5)
    metric = minimizing_metric(sys_, steps)
    assert (metric.label, metric.horizon, metric.step) == (f"auto:N={steps}", steps, None)
    pairs, reasons = metric.eval_rule(x)
    ref, ref_reasons = _orbit_loop_metric(sys_, steps, x)
    assert reasons == ref_reasons == [None] * len(x)
    np.testing.assert_array_equal(pairs, ref)


@pytest.mark.parametrize("steps", [0, 2.5])
def test_minimizing_metric_of_a_map_needs_a_whole_positive_step_count(steps):
    with pytest.raises(ConfigError, match="steps must be a whole number"):
        minimizing_metric(linear_map_system(np.diag([2.0, 0.5])), steps)


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("system", [linear_map_system(np.diag([2.0, 0.5])),
                                    linear_ode_system(np.diag([0.5, -0.3]))],
                         ids=["map", "flow"])
def test_minimizing_metric_needs_a_positive_finite_tolerance(system, tol):
    # at inf every window would pass as converged at its log-Euclidean
    # start; at 0, -1 or NaN none would, and every row would be excluded
    with pytest.raises(ConfigError, match="barycenter tolerance must be positive and finite"):
        minimizing_metric(system, 2, tol=tol)


def test_map_bound_excludes_rows_that_blow_up_within_the_step():
    # the images of the x0 = +-1e8 columns pass the blow-up guard; those of
    # x0 = +-5e7 reach its norm 1e8 but do not exceed it
    sys_ = linear_map_system(np.diag([2.0, 0.5]))
    box = CompactSet(bounds=((-1e8, 1e8), (-1.0, 1.0)))
    rep = bound(sys_, box, MetricField.identity(2), resolution=5)
    assert rep.bound == 1.0
    assert len(rep.excluded) == 10
    assert all(abs(e["state"][0]) == 1e8 for e in rep.excluded)
    assert {e["reason"] for e in rep.excluded} == {
        "trajectory of 'linmap' blew up within the map step at t=1"}
    assert len(rep.per_point) == 15


def test_minimizing_metric_of_a_map_excludes_orbits_that_blow_up():
    jordan = linear_map_system(np.array([[2.0, 1.0], [0.0, 2.0]]))
    *_, failed, why = minimizing_metric(jordan, 30).values(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert failed.tolist() == [True, False]
    assert why == {0: "trajectory escaped at t=23 while building the minimizing metric"}
    # the benchmark's Jordan sweep stays clear of the guard
    *_, failed, why = minimizing_metric(jordan, 16).values(sample_set(UNIT_BOX_2, 2))
    assert failed.tolist() == [False] * 4 and why == {}


def test_minimizing_metric_ct_degenerate_horizon():
    sys_ = linear_ode_system(np.array([[0.7]]))
    metric = minimizing_metric(sys_, 1.0, time_samples=1)
    roots, *_ = metric.values(np.array([[0.4]]))
    assert np.allclose(roots[0], np.eye(1))


def test_minimizing_metric_ct_scalar_growth():
    lam = 0.9
    sys_ = linear_ode_system(np.array([[lam]]))
    for horizon in (0.5, 1.5):
        metric = minimizing_metric(sys_, horizon, time_samples=9, tol=1e-10)
        # equal-weight log-mean of e^{-2 lam s} over the node grid
        roots, *_ = metric.values(np.array([[0.1]]))
        value = roots[0].item()
        assert value == pytest.approx(np.exp(lam * horizon), rel=1e-6)
        rep = bound(sys_, UNIT_BOX_1, metric, resolution=3)
        assert rep.bound == pytest.approx(lam / LN2, rel=1e-3)
    ode = linear_ode_system(np.array([[0.5]]))
    metric = minimizing_metric(ode, 1.0, time_samples=5, tol=1e-9)
    rep = bound(ode, UNIT_BOX_1, metric, resolution=5)
    assert rep.bound == pytest.approx(0.5 / LN2, rel=1e-3)


def test_minimizing_metric_ct_lanford_converges_from_above():
    sys_ = lanford_system(A0)
    region = lanford_region(A0)
    ref = lanford_closed_form(A0)
    bounds = []
    for horizon in (1.0, 3.0):
        metric = minimizing_metric(sys_, horizon, time_samples=16, tol=1e-6)
        rep = bound(sys_, region, metric, resolution=3)
        bounds.append(rep.bound)
        assert rep.bound >= ref - 5e-3
        assert rep.bound <= ref + 0.2
    assert bounds[1] <= bounds[0] + 5e-3


def _nonincreasing(values, slack=1e-9):
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def test_minimizing_metric_ct_lanford_sweep_holds_the_closed_form():
    # the origin is a grid point, so no valid bound can fall below the
    # closed form; longer horizons must not loosen it
    sys_, region = lanford_system(A0), lanford_region(A0)
    ref = lanford_closed_form(A0)
    bounds = [bound(sys_, region, minimizing_metric(sys_, t, time_samples=32),
                    resolution=5).bound
              for t in (2.0, 4.0, 8.0, 16.0)]
    assert all(ref - 1e-9 <= b <= ref + 1e-6 for b in bounds), bounds
    assert _nonincreasing(bounds), bounds


def test_minimizing_metric_ct_lanford_sweep_is_tight_and_nonincreasing():
    # the time-h map bound sits on the closed form at every horizon, and a
    # longer horizon does not raise it beyond rounding
    sys_, region = lanford_system(A0), lanford_region(A0)
    ref = lanford_closed_form(A0)
    bounds = [bound(sys_, region, minimizing_metric(sys_, t, time_samples=32),
                    resolution=5).bound
              for t in (2.0, 4.0, 8.0, 16.0)]
    assert all(abs(b - ref) <= 1e-12 for b in bounds), [b - ref for b in bounds]
    assert _nonincreasing(bounds, slack=1e-12), [b - ref for b in bounds]


def test_minimizing_metric_ct_nonnormal_linode_sweep():
    sys_ = linear_ode_system(np.array([[0.5, 2.0], [0.0, -0.3]]))
    floor = proximate_entropy(sys_, [0.0, 0.0])     # 0.5 / ln 2
    bounds = [bound(sys_, UNIT_BOX_2, minimizing_metric(sys_, t),
                    resolution=3).bound
              for t in (1.0, 2.0, 4.0, 8.0)]
    assert all(b >= floor - 1e-9 for b in bounds), bounds
    assert _nonincreasing(bounds), bounds


def test_lyapunov_oracle_identity_map():
    sys_ = identity_system(2)
    res = lyapunov_oracle(sys_, UNIT_BOX_2, horizons=(2, 4, 8), resolution=3)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in res.values)
    assert res.aitken == pytest.approx(0.0, abs=1e-12)
    assert len(res.states) and len(res.exponents[0]) == 2


def test_lyapunov_oracle_keeps_tiny_singular_values():
    # at t = 40 the smaller singular value is 1e-320, a subnormal: its
    # exponent is log2(1e-8) = -26.575, not log2(1e-300) / 40 = -24.914
    res = lyapunov_oracle(linear_map_system(np.diag([1.5, 1e-8])), UNIT_BOX_2,
                          horizons=(10, 40), resolution=2)
    np.testing.assert_allclose(res.exponents[:, 1], np.log2(1e-8), rtol=1e-6)
    res = lyapunov_oracle(linear_map_system(np.diag([1.5, 0.0])), UNIT_BOX_2,
                          horizons=(10, 40), resolution=2)
    assert (res.exponents[:, 1] == -np.inf).all()
    assert res.values == pytest.approx([np.log2(1.5)] * 2, rel=1e-12)


def test_lyapunov_oracle_excludes_blowups():
    sys_ = lanford_system(A0)
    box = CompactSet(bounds=((-0.4, 0.4), (-0.4, 0.4), (-0.3, 0.5)))
    res = lyapunov_oracle(sys_, box, horizons=(1.0, 3.0, 6.0), resolution=3)
    assert res.excluded
    assert np.isfinite(res.values[-1])


def test_lyapunov_oracle_blocks_change_no_result(monkeypatch):
    # 34 of the 45 rows blow up, at times between and beyond the horizons
    sys_ = lanford_system(A0)
    box = CompactSet(bounds=((-0.4, 0.4), (-0.4, 0.4), (-0.3, 0.5)))
    ref = lyapunov_oracle(sys_, box, horizons=(1.0, 3.0, 6.0), resolution=(3, 3, 5))
    assert len(ref.excluded) == 34
    for block_rows in (1, 7):
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
        res = lyapunov_oracle(sys_, box, horizons=(1.0, 3.0, 6.0), resolution=(3, 3, 5))
        assert np.allclose(res.values, ref.values, rtol=0.0, atol=1e-12)
        assert abs(res.aitken - ref.aitken) <= 1e-12
        assert [i for i, _ in res.excluded] == [i for i, _ in ref.excluded]
        assert np.allclose([t for _, t in res.excluded], [t for _, t in ref.excluded],
                           rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(res.states, ref.states)
        assert np.allclose(res.exponents, ref.exponents, rtol=0.0, atol=1e-12)


def test_lyapunov_oracle_matches_dop853_reference(dop853):
    sys_ = lanford_system()
    region = lanford_region()
    horizons = (5.0, 10.0, 20.0)
    oracle = lyapunov_oracle(sys_, region, horizons=horizons, resolution=5)
    ref = dop853(sys_, sample_set(region, 5), horizons[-1], variational=True,
                 record_at=horizons)
    values = [float(np.max(positive_sum(np.log2(np.linalg.svd(jac, compute_uv=False)) / t)))
              for jac, t in zip(ref.jacobians, horizons)]
    assert np.allclose(oracle.values, values, rtol=0.0, atol=1e-9)
    assert abs(oracle.aitken - aitken_accelerate(values)) < 1e-9


def test_proximate_entropy_values():
    assert proximate_entropy(lanford_system(1.0), np.zeros(3)) == pytest.approx(
        1.0 / LN2, abs=1e-12)
    assert proximate_entropy(lanford_system(A0), np.array([0.0, 0.0, A0])) == \
        pytest.approx(lanford_closed_form(A0), abs=1e-12)
    decay = linear_ode_system(np.array([[-1.0]]))
    assert proximate_entropy(decay, np.zeros(1)) == 0.0
    with pytest.raises(NumericError, match="equilibrium"):
        proximate_entropy(lanford_system(A0), np.array([0.3, 0.0, 0.1]))
    with pytest.raises(ConfigError):
        proximate_entropy(identity_system(2), np.zeros(2))


def test_lanford_closed_form_branch():
    assert lanford_closed_form(A0) == pytest.approx(0.9617966939259754)
    assert lanford_closed_form(1.0) == pytest.approx(2.0 / LN2)
    assert lanford_closed_form(0.75) == pytest.approx(1.0 / LN2)
    with pytest.raises(ConfigError):
        lanford_closed_form(0.5)


def test_aitken_accelerate():
    # geometric error decay is eliminated exactly
    seq = [1.0 + 0.5 ** k for k in range(1, 5)]
    assert aitken_accelerate(seq) == pytest.approx(1.0, abs=1e-12)
    assert aitken_accelerate([2.0, 2.0, 2.0]) == 2.0
    assert aitken_accelerate([3.0]) == 3.0


def test_metric_change_bound_on_lanford_orbits():
    # switching between the adapted metric and the Euclidean one moves the
    # summed positive log singular values by at most the set-wide constant
    a = A0
    sys_ = lanford_system(a)
    metric = lanford_metric(a)
    region = lanford_region(a)
    pts = sample_set(region, 5)
    c_plus = metric_change_constant(metric, pts)
    rng = np.random.default_rng(42)
    idx = rng.choice(len(pts), size=4, replace=False)
    for x in pts[idx]:
        for t in (1.0, 2.0, 4.0):
            prop = propagate(sys_, x, t, variational=True)
            a_t, y = prop.jacobians[0], prop.states[0]
            (_, q_half, _), *_ = metric.values(y[None])
            (_, _, p_ihalf), *_ = metric.values(x[None])
            s_metric = positive_sum(metric_sv_values(q_half[0], a_t, p_ihalf[0]))
            s_eucl = positive_sum(np.log2(np.linalg.svd(a_t, compute_uv=False)))
            gap = float(s_metric - s_eucl)
            assert -c_plus - 1e-8 <= gap <= c_plus + 1e-8


def test_refinement_loop_converges_and_reports():
    sys_ = lanford_system(0.75)
    rep = bound(sys_, lanford_region(0.75), lanford_metric(0.75),
                resolution=5, refine=True)
    assert rep.refinements >= 1
    assert rep.bound == pytest.approx(lanford_closed_form(0.75), abs=1e-6)
    assert rep.resolution[0] > 5


def test_refinement_stops_at_the_point_budget(monkeypatch):
    # 9 x 9 = 81 nodes of the first doubled lattice exceed a budget of 50
    monkeypatch.setattr(entropy, "DT_POINT_BUDGET", 50)
    with pytest.warns(RuntimeWarning, match="refinement stopped by the point budget"):
        rep = bound(linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]])), UNIT_BOX_2,
                    MetricField.identity(2), resolution=5, refine=True)
    assert rep.refinements == 0 and rep.bound_kind == "grid"
    assert rep.resolution == [5, 5] and len(rep.per_point) == 25


def _uniform_refinement(system, region, metric, counts):
    """The bound of refinement that evaluates every node of each doubled
    grid, as a bound without refinement on the grid where it stops."""
    report = bound(system, region, metric, resolution=counts)
    for _ in range(MAX_REFINES):
        counts = 2 * counts - 1
        finer = bound(system, region, metric, resolution=counts)
        settled = abs(finer.bound - report.bound) < REFINE_TOL
        report = finer
        if settled:
            break
    return report


def _node_order(rows, table):
    """The row index in ``table`` of each of ``rows``, matched bit for bit
    (-1 where a row is not in it)."""
    at = {row.tobytes(): i for i, row in enumerate(table)}
    return np.array([at.get(row.tobytes(), -1) for row in rows])


@pytest.mark.parametrize("a", [A0, 0.75, 1.0], ids=["a=2/3", "a=0.75", "a=1"])
@pytest.mark.parametrize("counts", [21, 20])
def test_adaptive_refinement_gives_the_uniform_bound(a, counts):
    # at resolution 20 the origin, where the maximum lies, is not a coarse node
    system, region, metric = lanford_system(a), lanford_region(a), lanford_metric(a)
    rep = bound(system, region, metric, resolution=counts, refine=True)
    uniform = _uniform_refinement(system, region, metric, counts)
    assert rep.resolution == uniform.resolution and rep.refinements >= 1
    assert rep.bound == uniform.bound == pytest.approx(lanford_closed_form(a), abs=1e-9)
    assert rep.maximizer == uniform.maximizer
    assert rep.bound_kind == "grid-adaptive" and rep.refine_margin > 0.0
    # every row is a row of the uniform table, bit for bit and in its order
    order = _node_order(rep.per_point, uniform.per_point)
    assert (order >= 0).all() and (np.diff(order) > 0).all()
    # per-cell margins evaluate 7,630 of 33,401 rows from 21 at a = 2/3 and
    # 11,895 of 229,549 from 20: shares 0.228 and 0.052 at most (a whole-grid
    # margin evaluated 0.49 and 0.12)
    assert len(rep.per_point) <= {21: 0.23, 20: 0.06}[counts] * len(uniform.per_point)


def test_adaptive_refinement_of_tied_values_evaluates_every_node():
    # every local bound of diag(2, 0.5) is 1: no cell can be ruled out
    system = linear_map_system(np.diag([2.0, 0.5]))
    rep = bound(system, UNIT_BOX_2, MetricField.identity(2), resolution=3, refine=True)
    uniform = bound(system, UNIT_BOX_2, MetricField.identity(2), resolution=rep.resolution)
    assert rep.refinements == 1 and rep.resolution == [5, 5]
    assert rep.per_point.tobytes() == uniform.per_point.tobytes()
    assert rep.refine_margin == 0.0 and rep.bound_kind == "grid-adaptive"


def _tilted_metric():
    """e^{x0} I on the flow x' = diag(1, -1) x: the local bound is
    (2 + x0) / (2 ln 2), and the metric has no value at the four corners
    and the center of the cell [-1, -0.5]^2 of the resolution-5 grid."""
    def ev(x):
        p = np.exp(x[..., 0])[..., None, None] * np.eye(2)
        corner = np.isin(x[..., 0], (-1.0, -0.5)) & np.isin(x[..., 1], (-1.0, -0.5))
        center = (x[..., 0] == -0.75) & (x[..., 1] == -0.75)
        return np.where((corner | center)[..., None, None], np.nan, p)

    def od(x):
        return (x[..., 0] * np.exp(x[..., 0]))[..., None, None] * np.eye(2)

    return MetricField.analytic(2, ev, od, label="tilted")


def test_adaptive_refinement_splits_a_cell_without_kept_corner():
    system = linear_ode_system(np.diag([1.0, -1.0]))
    rep = bound(system, UNIT_BOX_2, _tilted_metric(), resolution=5, refine=True)
    assert rep.refinements == 1 and rep.resolution == [9, 9]
    assert rep.bound == pytest.approx(3.0 / (2.0 * LN2))
    # the margin is twice the step of 0.5 / (2 ln 2) between neighbours along
    # x0, so the cells with x0 <= -0.5 are ruled out, but for the one whose
    # corners are all excluded
    assert rep.refine_margin == pytest.approx(REFINE_MARGIN * 0.5 / (2.0 * LN2))
    kept = rep.per_point[:, :2].tolist()
    # the exclusions of both grids, in the finer grid's order
    excluded = [e["state"] for e in rep.excluded]
    assert excluded == [[-1.0, -1.0], [-1.0, -0.5], [-0.75, -0.75], [-0.5, -1.0], [-0.5, -0.5]]
    assert [-0.75, -1.0] in kept and [-1.0, -0.75] in kept
    assert [-0.75, -0.25] not in kept and [-0.75, 1.0] not in kept
    assert [-0.25, 0.0] in kept
    assert rep.bound_kind == "grid-adaptive-minus-excluded"
    # the kept rows are rows of the whole 9 x 9 grid's table, in its order
    uniform = bound(system, UNIT_BOX_2, _tilted_metric(), resolution=9)
    order = _node_order(rep.per_point, uniform.per_point)
    assert (order >= 0).all() and (np.diff(order) > 0).all()


def _cliff_metric():
    """e^{h(x0)} I on the flow x' = diag(1, -1) x, h = 40 (u - 3/4 - 3/4
    ln(4u/3)) with u = max(x0, 3/4): Pdot = 40 max(0, x0 - 3/4) P, so the
    local bound is flat, 1 / ln 2, for x0 <= 3/4 and rises steeply to
    10 / ln 2 at x0 = 1."""
    def ev(x):
        u = np.maximum(x[..., 0], 0.75)
        return np.exp(40.0 * (u - 0.75 - 0.75 * np.log(u / 0.75)))[..., None, None] * np.eye(2)

    def od(x):
        return 40.0 * np.maximum(0.0, x[..., 0] - 0.75)[..., None, None] * ev(x)

    return MetricField.analytic(2, ev, od, label="cliff")


def test_adaptive_refinement_rules_out_flat_cells_beside_a_steep_one():
    system = linear_ode_system(np.diag([1.0, -1.0]))
    rep = bound(system, UNIT_BOX_2, _cliff_metric(), resolution=5, refine=True)
    uniform = bound(system, UNIT_BOX_2, _cliff_metric(), resolution=9)
    assert rep.refinements == 1 and rep.resolution == [9, 9]
    assert rep.bound == uniform.bound == pytest.approx(10.0 / LN2)
    # the one steep step, from 1 / ln 2 at x0 = 1/2 to 10 / ln 2 at x0 = 1
    assert rep.refine_margin == pytest.approx(REFINE_MARGIN * 9.0 / LN2)
    # the cells with x0 >= 1/2 and their neighbours, x0 >= 0, are split; the
    # flat cells beyond, x0 <= 0, are ruled out, though a margin for the
    # whole grid would keep them: 25 coarse nodes and the 30 new ones at x0 >= 0
    kept = rep.per_point[:, :2].tolist()
    assert [0.75, 0.0] in kept and [0.25, 0.25] in kept
    assert [-0.25, 0.0] not in kept and [-0.75, 0.75] not in kept
    assert len(kept) == 25 + 30
    order = _node_order(rep.per_point, uniform.per_point)
    assert (order >= 0).all() and (np.diff(order) > 0).all()


def test_bound_kind_and_margin_round_trip(tmp_path):
    system = linear_ode_system(np.diag([1.0, -1.0]))
    rep = bound(system, UNIT_BOX_2, _tilted_metric(), resolution=5, refine=True)
    rep.write(tmp_path / "r")
    text = json.loads((tmp_path / "r.report.json").read_text(encoding="utf-8"))
    assert text["bound_kind"] == "grid-adaptive-minus-excluded"
    assert text["refine_margin"] == rep.refine_margin
    assert ((tmp_path / "r.report.json").read_text(encoding="utf-8")
            == json.dumps(_stamped(rep, text["created"])) + "\n")
    plain = bound(system, UNIT_BOX_2, MetricField.identity(2), resolution=3)
    assert (plain.bound_kind, plain.refine_margin) == ("grid", None)


def test_report_round_trip_and_csv(tmp_path):
    sys_ = linear_map_system(np.diag([2.0, 0.5]))
    rep = bound(sys_, UNIT_BOX_2, MetricField.identity(2), resolution=3)
    assert rep.bound == max(rep.per_point[:, -1])
    assert all(rep.per_point[:, -1] >= 0.0)
    jpath = tmp_path / "r.report.json"
    cpath = tmp_path / "r.points.csv"
    rep.write(tmp_path / "r")
    back = jpath.read_text(encoding="utf-8")
    assert back == json.dumps(json.loads(back)) + "\n"
    assert back == json.dumps(_stamped(rep, json.loads(back)["created"])) + "\n"
    text = cpath.read_text()
    assert text.splitlines()[0] == "x0,x1,s1,s2,local_bound"
    rep.write(tmp_path / "r")
    assert cpath.read_text() == text


def _points_table(rep):
    """Header and rows of a report's per-point table, in the reference form."""
    dim = len(rep.maximizer)
    header = [f"x{i}" for i in range(dim)] + [f"s{i + 1}" for i in range(dim)] + ["local_bound"]
    return header, rep.per_point.tolist()


def _stamped(rep, created):
    """The dict ``write`` writes as JSON: the stamps, the fields, then the
    table's ``columns`` and ``per_point`` rows."""
    header, rows = _points_table(rep)
    d = dataclasses.asdict(rep)
    del d["per_point"]
    return {"schema_version": SCHEMA_VERSION, "kind": "bound", "created": created,
            **d, "columns": header, "per_point": rows}


EDGE_VALUES = [-0.0, 1.0, 5e-324, 1e-300, 1.0 / 3.0, 1e22, 2.0 ** 53 + 2, -1e18,
               -1.5e-7, 123456789.0, np.inf, -np.inf, np.nan]


# per-point tables of five columns (two states, two spectra, the local bound)
TABLES = [
    # every edge value in every column
    [[v, -v, v, v, -v] for v in EDGE_VALUES],
    # exactly one block, then a table that crosses two block boundaries
    np.random.default_rng(7).standard_normal((_BLOCK_ROWS, 5)).tolist(),
    (np.random.default_rng(8).standard_normal((2 * _BLOCK_ROWS + 3, 5))
     * 10.0 ** np.random.default_rng(9).integers(-300, 300, (1, 5))).tolist(),
    # no points: the CSV header alone
    [],
]
TABLE_IDS = ["edge-values", "one-block", "block-boundaries", "empty"]


@pytest.mark.parametrize("rows", TABLES, ids=TABLE_IDS)
def test_points_csv_bytes_match_csv_module(tmp_path, csv_table, rows):
    rep = bound(linear_map_system(np.diag([2.0, 0.5])), UNIT_BOX_2,
                MetricField.identity(2), resolution=2)
    rep.per_point = np.array(rows, dtype=float).reshape(len(rows), 5)
    rep.write(tmp_path / "new")
    csv_table(tmp_path / "ref.csv", *_points_table(rep))
    new = (tmp_path / "new.points.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\r\n") == len(rows) + 1
    if not rows:
        assert new == b"x0,x1,s1,s2,local_bound\r\n"


@pytest.mark.parametrize("rows", TABLES, ids=TABLE_IDS)
def test_report_json_bytes_match_json_module(tmp_path, rows):
    rep = bound(linear_map_system(np.diag([2.0, 0.5])), UNIT_BOX_2,
                MetricField.identity(2), resolution=2)
    rep.per_point = np.array(rows, dtype=float).reshape(len(rows), 5)
    rep.write(tmp_path / "r")
    new = (tmp_path / "r.report.json").read_text(encoding="utf-8")
    created = json.loads(new)["created"]
    # the report is one line of up to a megabyte, too long for a diff on failure
    matches = new == json.dumps(_stamped(rep, created)) + "\n"
    assert matches
    back = json.loads(new)
    assert json.dumps(back) + "\n" == new
    # NaN != NaN, so the rows are compared as an array
    assert np.array_equal(np.array(back["per_point"], dtype=float).reshape(-1, 5),
                          rep.per_point, equal_nan=True)


@pytest.mark.parametrize("rows", TABLES, ids=TABLE_IDS)
def test_report_json_rows_are_the_points_csv_rows(tmp_path, report_tables, rows):
    rep = bound(linear_map_system(np.diag([2.0, 0.5])), UNIT_BOX_2,
                MetricField.identity(2), resolution=2)
    rep.per_point = np.array(rows, dtype=float).reshape(len(rows), 5)
    rep.write(tmp_path / "r")
    (columns, json_rows), (header, csv_rows) = report_tables(tmp_path / "r")
    assert columns == header == _points_table(rep)[0]
    assert np.array_equal(json_rows, csv_rows, equal_nan=True)
    assert np.array_equal(json_rows, rep.per_point, equal_nan=True)


@pytest.mark.parametrize("block_rows", [1, 2, _BLOCK_ROWS])
@pytest.mark.parametrize("rows", [[], [1.5], [1.5, -0.0, np.nan, np.inf, 1.5, 1e-300, -np.inf]],
                         ids=["empty", "one-row", "edge-values"])
def test_one_column_table(tmp_path, monkeypatch, csv_table, report_tables, block_rows, rows):
    # the first column is also the last: each text opens and closes its row
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
    table = np.array(rows, dtype=float).reshape(-1, 1)
    entropy._write_table(tmp_path / "t.csv", ["v"], table)
    csv_table(tmp_path / "ref.csv", ["v"], table.tolist())
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    stem = tmp_path / "r"
    entropy.write_report(stem, "bound", {"note": 1}, ["v"], table)
    text = (tmp_path / "r.report.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report) + "\n"
    assert list(report) == ["schema_version", "kind", "created", "note", "columns", "per_point"]
    assert (tmp_path / "r.points.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    (columns, json_rows), (header, csv_rows) = report_tables(stem)
    assert columns == header == ["v"]
    assert json_rows.tobytes() == csv_rows.tobytes() == table.tobytes()


def test_bound_dominates_oracle_spot():
    m = np.array([[2.0, 1.0], [0.0, 0.5]])
    sys_ = linear_map_system(m)
    rep = bound(sys_, UNIT_BOX_2, MetricField.identity(2), resolution=2)
    res = lyapunov_oracle(sys_, UNIT_BOX_2, horizons=(4, 8, 16), resolution=3)
    for v in res.values:
        assert rep.bound + 1e-9 >= v


def _counting_value(x):
    p = np.empty(x.shape[:-1] + (2, 2))
    p[..., 0, 0] = 1.0 + x[..., 0] ** 2
    p[..., 1, 1] = 1.0 + x[..., 1] ** 2
    p[..., 0, 1] = p[..., 1, 0] = 0.3 * x[..., 1]
    return p


def _counting_rule(batches, undefined, system, h=1.0):
    """Tabulated rule of ``_counting_value`` on the time-h map of ``system``
    recording every batch of rows it is asked for; rows where ``undefined``
    holds at the row or at its image get a reason instead of a value."""
    return pulled_back_rule(system, _counting_value, h, batches=batches,
                            why=lambda row: "outside the rule's domain" if undefined(row) else None)


def test_bound_core_matches_per_point_loop_discrete():
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
    batches = []
    metric = MetricField.tabulated(
        2, _counting_rule(batches, lambda row: row[0] > 2.5, sys_), label="counting")
    rep = bound(sys_, UNIT_BOX_2, metric, resolution=3)
    pts = sample_set(UNIT_BOX_2, 3)
    # one rule call on the 9 points
    assert batches == [pts.tolist()]
    # the image (3, 0.5) of (1, 1) is undefined: that point is excluded
    assert rep.excluded == [{"state": [1.0, 1.0], "reason": "outside the rule's domain"}]
    assert rep.per_point[:, :2].tolist() == pts[:-1].tolist()
    for row, x in zip(rep.per_point, pts[:-1]):
        (_, _, p_ihalf), *_ = metric.values(x[None])
        q = _counting_value(sys_.rhs(x))
        values = metric_sv_values(power(q, 0.5), sys_.jacobian(x), p_ihalf[0])
        # the pair's Cholesky quotient has the same singular values
        np.testing.assert_allclose(row[2:4], values, rtol=0.0, atol=1e-14)
        assert row[-1] == float(positive_sum(row[2:4]))


def test_bound_core_matches_per_point_loop_continuous():
    sys_ = linear_ode_system(np.array([[0.4, 1.0], [-1.0, 0.2]]))
    batches = []
    h = 0.125
    metric = MetricField.tabulated(
        2, _counting_rule(batches, lambda row: row[0] < -0.9 and row[1] < -0.9, sys_, h),
        label="counting", step=h)
    rep = bound(sys_, UNIT_BOX_2, metric, resolution=3)
    pts = sample_set(UNIT_BOX_2, 3)
    # one rule call on the 9 points
    assert batches == [pts.tolist()]
    assert rep.excluded == [{"state": [-1.0, -1.0], "reason": "outside the rule's domain"}]
    assert rep.map_step == h
    # a row propagated alone matches its batched propagation only to
    # rounding, so the loop reads its images from one batched call
    prop = propagate(sys_, pts, h, variational=True)
    for row, x, image, jac in zip(rep.per_point, pts[1:], prop.states[1:],
                                  prop.jacobians[1:]):
        (_, _, p_ihalf), *_ = metric.values(x[None])
        q = _counting_value(image)
        values = 2.0 * LN2 / h * metric_sv_values(power(q, 0.5), jac, p_ihalf[0])
        assert row[:2].tolist() == x.tolist()
        np.testing.assert_allclose(row[2:4], values, rtol=0.0, atol=1e-12)
        assert row[-1] == float(positive_sum(row[2:4]) / (2.0 * LN2))


JORDAN = np.array([[2.0, 1.0], [0.0, 2.0]])
def _excluded_on_two_levels(resolution, refine=False):
    """The counting metric on diag(2, 0.5), undefined at (1, 1) and at the
    nodes (-0.5, y) with y <= 0.  Refined from resolution 3, (1, 1) is
    excluded on the first lattice and the others on the doubled one, which
    puts them before it in node order."""
    sys_ = linear_map_system(np.diag([2.0, 0.5]))
    rule = _counting_rule([], lambda row: row.tolist() == [1.0, 1.0]
                          or (row[0] == -0.5 and row[1] <= 0.0), sys_)
    return bound(sys_, UNIT_BOX_2, MetricField.tabulated(2, rule, label="counting"),
                 resolution=resolution, refine=refine)


BLOCK_CASES = {
    "lanford-exp": lambda: bound(lanford_system(A0), lanford_region(A0), lanford_metric(A0),
                                 resolution=13),
    "flow-auto3": lambda: bound(lanford_system(A0), lanford_region(A0),
                                minimizing_metric(lanford_system(A0), 3, time_samples=16),
                                resolution=5),
    "jordan-auto8": lambda: bound(linear_map_system(JORDAN), UNIT_BOX_2,
                                  minimizing_metric(linear_map_system(JORDAN), 8), resolution=4),
    # rows (-0.5, y) with y <= 0 are outside the rule's domain: grid points
    # 5, 6 and 7 are excluded, on both sides of the boundary between blocks
    # of 7
    "counting": lambda: bound(
        linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]])), UNIT_BOX_2,
        MetricField.tabulated(2, _counting_rule(
            [], lambda row: row[0] == -0.5 and row[1] <= 0.0,
            linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))), label="counting"),
        resolution=5),
    "counting-refined": lambda: _excluded_on_two_levels(3, refine=True),
}


def _written(rep, stem):
    """The bytes ``rep.write(stem)`` writes, the report's then the table's,
    with the report's ``created`` stamp blanked."""
    rep.write(stem)
    with open(f"{stem}.report.json", encoding="utf-8") as fh:
        text = fh.read()
    with open(f"{stem}.points.csv", "rb") as fh:
        return text.replace(json.loads(text)["created"], "", 1), fh.read()


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_bound_blocks_change_no_result(monkeypatch, tmp_path, case):
    ref = BLOCK_CASES[case]()
    written = _written(ref, tmp_path / "default")
    for block_rows in (1, 7):
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
        assert _written(BLOCK_CASES[case](), tmp_path / f"rows{block_rows}") == written
    if case == "counting":
        states = [e["state"] for e in ref.excluded]
        assert [-0.5, -0.5] in states and [-0.5, 0.0] in states
    if case == "counting-refined":
        # the kept and the excluded rows of both levels, each merged into a
        # node-ordered subsequence of the uniform grid's
        uniform = _excluded_on_two_levels(ref.resolution)
        assert ref.refinements == 1 and ref.excluded[-1]["state"] == [1.0, 1.0]
        order = _node_order(ref.per_point, uniform.per_point)
        assert (order >= 0).all() and (np.diff(order) > 0).all()
        lost = [uniform.excluded.index(e) for e in ref.excluded]
        assert len(lost) == 4 and lost == sorted(set(lost))


def test_bound_block_without_kept_points_does_not_raise(monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 3)
    batches = []
    # the first row of the grid, a block of its own, is left out entirely
    sys_ = linear_map_system(np.diag([0.5, 0.5]))
    metric = MetricField.tabulated(2, _counting_rule(batches, lambda row: row[0] == -1.0, sys_),
                                   label="counting")
    rep = bound(sys_, UNIT_BOX_2, metric, resolution=3)
    assert [e["state"] for e in rep.excluded] == [[-1.0, -1.0], [-1.0, 0.0], [-1.0, 1.0]]
    assert len(rep.per_point) == 6 and len(batches) == 3
    batches.clear()
    metric = MetricField.tabulated(2, _counting_rule(batches, lambda row: True, sys_),
                                   label="counting")
    with pytest.raises(NumericError, match="every sample point was excluded"):
        bound(sys_, UNIT_BOX_2, metric, resolution=3)
    # every block was evaluated before the one refusal
    assert len(batches) == 3


@pytest.mark.parametrize("block_rows", [1, 2, _BLOCK_ROWS])
def test_report_numbers_shared_between_columns(tmp_path, monkeypatch, csv_table,
                                               report_tables, block_rows):
    # the same number, -0.0 beside 0.0, and NaN, each in several columns:
    # every column is deduplicated on its own and keeps every spelling
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
    rows = [[0.0, -0.0, 1.5, np.nan, 1.5],
            [-0.0, 0.0, np.nan, 1.5, -0.0],
            [1.5, np.nan, -0.0, 0.0, np.nan],
            [np.nan, 1.5, 0.0, -0.0, 0.0],
            [0.0, -0.0, 1.5, np.nan, 1.5]]
    rep = bound(linear_map_system(np.diag([2.0, 0.5])), UNIT_BOX_2,
                MetricField.identity(2), resolution=2)
    rep.per_point = np.array(rows)
    rep.write(tmp_path / "r")
    csv_table(tmp_path / "ref.csv", *_points_table(rep))
    assert (tmp_path / "r.points.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    text = (tmp_path / "r.report.json").read_text(encoding="utf-8")
    assert text == json.dumps(_stamped(rep, json.loads(text)["created"])) + "\n"
    (_, json_rows), (_, csv_rows) = report_tables(tmp_path / "r")
    for table in (json_rows, csv_rows):
        assert table.tobytes() == rep.per_point.tobytes()
