import json

import numpy as np
import pytest

from restent.errors import ConfigError, NumericError
from restent.dynamics import (
    CompactSet,
    identity_system,
    lanford_region,
    lanford_system,
    linear_map_system,
    linear_ode_system,
    propagate,
    sample_set,
)
from restent.entropy import (
    _CSV_BLOCK_ROWS,
    _inverse_factors,
    _inverted_barycenters,
    BoundReport,
    PointRecord,
    aitken_accelerate,
    ct_bound,
    dt_bound,
    lanford_closed_form,
    lanford_metric,
    lyapunov_oracle,
    metric_change_constant,
    minimizing_metric,
    minimizing_metric_dt,
    positive_sum,
    proximate_entropy,
)
from restent.metrics import LOG_ZERO, MetricField, metric_sv_values
from restent import spd

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
        rep = dt_bound(sys_, UNIT_BOX_2, metric, resolution=5)
        assert rep.bound == pytest.approx(0.0, abs=1e-10)
        assert rep.units == "bits/step"


def test_dt_bound_scalar_doubling_map():
    sys_ = linear_map_system(np.array([[2.0]]))
    rep = dt_bound(sys_, UNIT_BOX_1, MetricField.identity(1), resolution=5)
    assert rep.bound == pytest.approx(1.0, abs=1e-12)


def test_dt_bound_matches_oracle_for_diagonal_map():
    m = np.diag([2.0, 0.5])
    sys_ = linear_map_system(m)
    rep = dt_bound(sys_, UNIT_BOX_2, MetricField.identity(2), resolution=3)
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
    rep = dt_bound(sys_, CompactSet(bounds=((-1, 1),) * 3), MetricField.identity(3),
                   resolution=2)
    expected = positive_sum(np.log2(np.abs(eigs)))
    assert rep.bound == pytest.approx(float(expected), abs=1e-10)


def test_ct_bound_scalar_cases():
    decay = linear_ode_system(np.array([[-1.0]]))
    rep = ct_bound(decay, UNIT_BOX_1, MetricField.identity(1), resolution=3)
    assert rep.bound == pytest.approx(0.0, abs=1e-12)
    assert rep.per_point[0].spectrum[0] == pytest.approx(-2.0)
    grow = linear_ode_system(np.array([[1.0]]))
    rep = ct_bound(grow, UNIT_BOX_1, MetricField.identity(1), resolution=3)
    assert rep.bound == pytest.approx(1.0 / LN2, abs=1e-12)
    assert rep.units == "bits/time"


def test_ct_bound_lanford_reference_value():
    sys_ = lanford_system(A0)
    rep = ct_bound(sys_, lanford_region(A0), lanford_metric(A0), resolution=21)
    assert rep.bound == pytest.approx(lanford_closed_form(A0), abs=1e-12)
    # maximizer sits on the z-axis
    assert abs(rep.maximizer[0]) < 1e-9 and abs(rep.maximizer[1]) < 1e-9


def test_ct_bound_lanford_lambda_closed_forms():
    a = 0.8
    sys_ = lanford_system(a)
    region = lanford_region(a)
    rep = ct_bound(sys_, region, lanford_metric(a), resolution=9)
    for rec in rep.per_point:
        x, y, z = rec.state
        g = 2.0 * (a * z - z * z - x * x - y * y) / a
        lam1 = 2.0 * (a - 2.0 * z) + g
        lam23 = 2.0 * (a - 1.0 + z) + g
        expected = np.sort([lam1, lam23, lam23])[::-1]
        assert np.allclose(rec.spectrum, expected, atol=1e-8)


def _constant_rule(x):
    return np.broadcast_to(np.eye(2), (len(x), 2, 2)), [None] * len(x)


def test_ct_bound_requires_matching_time_type_and_pdot():
    sys_ = linear_map_system(np.eye(2))
    with pytest.raises(ConfigError):
        ct_bound(sys_, UNIT_BOX_2, MetricField.identity(2))
    ode = linear_ode_system(np.eye(2))
    # no orbital rule: the bound is taken on the time-step map
    tab = MetricField.tabulated(2, _constant_rule, label="tab", step=0.25)
    rep = ct_bound(ode, UNIT_BOX_2, tab, resolution=3)
    assert rep.map_step == 0.25
    assert rep.bound == pytest.approx(2.0 / LN2, abs=1e-9)
    rep = ct_bound(ode, UNIT_BOX_2, MetricField.identity(2), resolution=3)
    assert rep.map_step is None
    assert rep.bound == pytest.approx(2.0 / LN2, abs=1e-12)


def test_ct_bound_rejects_tabulated_metric_without_step():
    ode = linear_ode_system(np.eye(2))
    tab = MetricField.tabulated(2, _constant_rule, label="tab")
    with pytest.raises(ConfigError, match="time step"):
        ct_bound(ode, UNIT_BOX_2, tab, resolution=3)
    # a discrete bound needs no step
    rep = dt_bound(linear_map_system(np.eye(2)), UNIT_BOX_2, tab, resolution=3)
    assert rep.bound == 0.0


def test_ct_bound_excludes_rows_that_escape_within_the_map_step():
    # e^{40 t} passes the blow-up guard before t = 0.5 unless x = 0
    fast = linear_ode_system(np.array([[40.0]]))
    tab = MetricField.tabulated(1, lambda x: (np.ones((len(x), 1, 1)), [None] * len(x)),
                                label="tab", step=0.5)
    rep = ct_bound(fast, UNIT_BOX_1, tab, resolution=3)
    assert [e["state"] for e in rep.excluded] == [[-1.0], [1.0]]
    assert all("blew up within the map step" in e["reason"] for e in rep.excluded)
    assert [rec.state for rec in rep.per_point] == [[0.0]]
    assert rep.bound == pytest.approx(40.0 / LN2, rel=1e-9)


def test_dt_bound_wrong_time_type():
    with pytest.raises(ConfigError):
        dt_bound(lanford_system(), lanford_region(A0), MetricField.identity(3))


def test_dt_bound_flags_points_where_metric_is_undefined():
    sys_ = identity_system(1)

    def partial(x):
        reasons = ["metric value requested outside its domain"
                   if np.any(np.abs(row) > 0.5) else None for row in x]
        return np.eye(1) * (1.0 + x[:, 0] ** 2)[:, None, None], reasons

    metric = MetricField.tabulated(1, partial, label="partial")
    rep = dt_bound(sys_, UNIT_BOX_1, metric, resolution=5)
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
    p1 = minimizing_metric_dt(sys_, 1)
    assert np.allclose(p1.evaluate(np.array([0.3, -0.7])), np.eye(2))
    rep_auto = dt_bound(sys_, UNIT_BOX_2, p1, resolution=2)
    rep_id = dt_bound(sys_, UNIT_BOX_2, MetricField.identity(2), resolution=2)
    assert rep_auto.bound == pytest.approx(rep_id.bound, abs=1e-12)


def test_minimizing_metric_dt_scalar_chain():
    sys_ = linear_map_system(np.array([[2.0]]))
    for n in (2, 4, 6):
        metric = minimizing_metric_dt(sys_, n, tol=1e-12)
        value = metric.evaluate(np.array([0.2]))[0, 0]
        assert value == pytest.approx(2.0 ** (n - 1), rel=1e-8)
        rep = dt_bound(sys_, UNIT_BOX_1, metric, resolution=3)
        assert rep.bound == pytest.approx(1.0, abs=1e-8)


def test_minimizing_metric_dt_singular_jacobian_rejected():
    sys_ = linear_map_system(np.array([[1.0, 0.0], [0.0, 0.0]]))
    metric = minimizing_metric_dt(sys_, 3)
    with pytest.raises(NumericError, match="invertible"):
        metric.evaluate(np.array([0.1, 0.1]))


def test_minimizing_metric_dt_clipped_nonnormal_case():
    # eigenvalues 2 and 1/2: the Euclidean bound overshoots the true rate 1,
    # the metric sequence recovers it
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
    box = UNIT_BOX_2
    rep_id = dt_bound(sys_, box, MetricField.identity(2), resolution=2)
    assert rep_id.bound > 1.0 + 0.05
    bounds = []
    for n in (2, 4, 8):
        metric = minimizing_metric_dt(sys_, n, tol=3e-6)
        bounds.append(dt_bound(sys_, box, metric, resolution=2).bound)
    assert bounds[0] <= rep_id.bound + 1e-9
    assert all(b2 <= b1 + 0.01 for b1, b2 in zip(bounds, bounds[1:]))
    assert abs(bounds[-1] - 1.0) < 0.05


def test_unconverged_barycenter_is_excluded_with_reason(monkeypatch):
    monkeypatch.setattr(spd, "KARCHER_MAX_ITER", 1)
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
    metric = minimizing_metric_dt(sys_, 8, tol=1e-7)
    _, reasons = metric.values(np.array([[0.1, 0.2], [-0.3, 0.4]]))
    assert all("not converged after 1 iterations" in r for r in reasons)
    assert all("gradient residual" in r for r in reasons)
    with pytest.raises(NumericError, match="every sample point was excluded"):
        dt_bound(sys_, UNIT_BOX_2, metric, resolution=2)


def _orbit_loop_metric(system, steps, x, tol=1e-7):
    """Reference minimizing metric of a map at the rows of x, as ``(P,
    reasons)``: the Jacobian products of lengths 0..steps-1 accumulated along
    each orbit one map step at a time, then inverted and averaged like the
    library's."""
    prod = np.broadcast_to(np.eye(system.dim), (len(x), system.dim, system.dim))
    prods = [prod]
    for _ in range(steps - 1):
        prod = system.jacobian(x) @ prod
        x = system.rhs(x)
        prods.append(prod)
    reasons = [None] * len(x)
    factors = _inverse_factors(np.stack(prods, axis=1), reasons)
    return _inverted_barycenters(factors, reasons, tol), reasons


@pytest.mark.parametrize("steps", [1, 2, 8])
def test_minimizing_metric_of_a_map_matches_the_orbit_loop(steps):
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
    x = sample_set(UNIT_BOX_2, 5)
    metric = minimizing_metric(sys_, steps)
    assert (metric.label, metric.horizon, metric.step) == (f"auto:N={steps}", steps, None)
    p, reasons = metric.eval_rule(x)
    ref, ref_reasons = _orbit_loop_metric(sys_, steps, x)
    assert reasons == ref_reasons == [None] * len(x)
    np.testing.assert_array_equal(p, ref)


@pytest.mark.parametrize("steps", [0, 2.5])
def test_minimizing_metric_of_a_map_needs_a_whole_positive_step_count(steps):
    with pytest.raises(ConfigError, match="steps must be a whole number"):
        minimizing_metric(linear_map_system(np.diag([2.0, 0.5])), steps)


def test_map_bound_excludes_rows_that_blow_up_within_the_step():
    # the images of the x0 = +-1e8 columns pass the blow-up guard; those of
    # x0 = +-5e7 reach its norm 1e8 but do not exceed it
    sys_ = linear_map_system(np.diag([2.0, 0.5]))
    box = CompactSet(bounds=((-1e8, 1e8), (-1.0, 1.0)))
    rep = dt_bound(sys_, box, MetricField.identity(2), resolution=5)
    assert rep.bound == 1.0
    assert len(rep.excluded) == 10
    assert all(abs(e["state"][0]) == 1e8 for e in rep.excluded)
    assert {e["reason"] for e in rep.excluded} == {
        "trajectory of 'linmap' blew up within the map step at t=1"}
    assert len(rep.per_point) == 15


def test_minimizing_metric_of_a_map_excludes_orbits_that_blow_up():
    jordan = linear_map_system(np.array([[2.0, 1.0], [0.0, 2.0]]))
    _, reasons = minimizing_metric(jordan, 30).values(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert reasons == ["trajectory escaped at t=23 while building the minimizing metric",
                       None]
    # the benchmark's Jordan sweep stays clear of the guard
    _, reasons = minimizing_metric(jordan, 16).values(sample_set(UNIT_BOX_2, 2))
    assert reasons == [None] * 4


def test_minimizing_metric_ct_degenerate_horizon():
    sys_ = linear_ode_system(np.array([[0.7]]))
    metric = minimizing_metric(sys_, 1.0, time_samples=1)
    assert np.allclose(metric.evaluate(np.array([0.4])), np.eye(1))


def test_minimizing_metric_ct_scalar_growth():
    lam = 0.9
    sys_ = linear_ode_system(np.array([[lam]]))
    for horizon in (0.5, 1.5):
        metric = minimizing_metric(sys_, horizon, time_samples=9, tol=1e-10)
        # equal-weight log-mean of e^{-2 lam s} over the node grid
        value = metric.evaluate(np.array([0.1]))[0, 0]
        assert value == pytest.approx(np.exp(lam * horizon), rel=1e-6)
        rep = ct_bound(sys_, UNIT_BOX_1, metric, resolution=3)
        assert rep.bound == pytest.approx(lam / LN2, rel=1e-3)
    ode = linear_ode_system(np.array([[0.5]]))
    metric = minimizing_metric(ode, 1.0, time_samples=5, tol=1e-9)
    rep = ct_bound(ode, UNIT_BOX_1, metric, resolution=5)
    assert rep.bound == pytest.approx(0.5 / LN2, rel=1e-3)


def test_minimizing_metric_ct_lanford_converges_from_above():
    sys_ = lanford_system(A0)
    region = lanford_region(A0)
    ref = lanford_closed_form(A0)
    bounds = []
    for horizon in (1.0, 3.0):
        metric = minimizing_metric(sys_, horizon, time_samples=16, tol=1e-6)
        rep = ct_bound(sys_, region, metric, resolution=3)
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
    bounds = [ct_bound(sys_, region, minimizing_metric(sys_, t, time_samples=32),
                       resolution=5).bound
              for t in (2.0, 4.0, 8.0, 16.0)]
    assert all(ref - 1e-9 <= b <= ref + 1e-6 for b in bounds), bounds
    assert _nonincreasing(bounds), bounds


def test_minimizing_metric_ct_lanford_sweep_is_tight_and_nonincreasing():
    # the time-h map bound sits on the closed form at every horizon, and a
    # longer horizon does not raise it beyond rounding
    sys_, region = lanford_system(A0), lanford_region(A0)
    ref = lanford_closed_form(A0)
    bounds = [ct_bound(sys_, region, minimizing_metric(sys_, t, time_samples=32),
                       resolution=5).bound
              for t in (2.0, 4.0, 8.0, 16.0)]
    assert all(abs(b - ref) <= 1e-12 for b in bounds), [b - ref for b in bounds]
    assert _nonincreasing(bounds, slack=1e-12), [b - ref for b in bounds]


def test_minimizing_metric_ct_nonnormal_linode_sweep():
    sys_ = linear_ode_system(np.array([[0.5, 2.0], [0.0, -0.3]]))
    floor = proximate_entropy(sys_, [0.0, 0.0])     # 0.5 / ln 2
    bounds = [ct_bound(sys_, UNIT_BOX_2, minimizing_metric(sys_, t),
                       resolution=3).bound
              for t in (1.0, 2.0, 4.0, 8.0)]
    assert all(b >= floor - 1e-9 for b in bounds), bounds
    assert _nonincreasing(bounds), bounds


def test_lyapunov_oracle_identity_map():
    sys_ = identity_system(2)
    res = lyapunov_oracle(sys_, UNIT_BOX_2, horizons=(2, 4, 8), resolution=3)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in res.values)
    assert res.aitken == pytest.approx(0.0, abs=1e-12)
    assert res.states and len(res.exponents[0]) == 2


def test_lyapunov_oracle_excludes_blowups():
    sys_ = lanford_system(A0)
    box = CompactSet(bounds=((-0.4, 0.4), (-0.4, 0.4), (-0.3, 0.5)))
    res = lyapunov_oracle(sys_, box, horizons=(1.0, 3.0, 6.0), resolution=3)
    assert res.excluded
    assert np.isfinite(res.values[-1])


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
            p, q = metric.evaluate(x), metric.evaluate(y)
            s_metric = positive_sum(metric_sv_values(p, q, a_t))
            s_eucl = positive_sum(np.log2(np.linalg.svd(a_t, compute_uv=False)))
            gap = float(s_metric - s_eucl)
            assert -c_plus - 1e-8 <= gap <= c_plus + 1e-8


def test_refinement_loop_converges_and_reports():
    sys_ = lanford_system(0.75)
    rep = ct_bound(sys_, lanford_region(0.75), lanford_metric(0.75),
                   resolution=5, refine=True)
    assert rep.refinements >= 1
    assert rep.bound == pytest.approx(lanford_closed_form(0.75), abs=1e-6)
    assert rep.resolution[0] > 5


def test_report_round_trip_and_csv(tmp_path):
    sys_ = linear_map_system(np.diag([2.0, 0.5]))
    rep = dt_bound(sys_, UNIT_BOX_2, MetricField.identity(2), resolution=3)
    assert rep.bound == max(r.local for r in rep.per_point)
    assert all(r.local >= 0.0 for r in rep.per_point)
    jpath = tmp_path / "r.report.json"
    cpath = tmp_path / "r.points.csv"
    rep.to_json(jpath)
    back = BoundReport.from_json(jpath)
    assert back == rep
    rep.to_csv(cpath)
    text = cpath.read_text()
    assert text.splitlines()[0] == "x0,x1,s1,s2,local_bound"
    rep.to_csv(cpath)
    assert cpath.read_text() == text


def _points_table(rep):
    """Header and rows of a report's per-point table, in the reference form."""
    dim = len(rep.maximizer)
    nsv = len(rep.per_point[0].spectrum) if rep.per_point else dim
    header = [f"x{i}" for i in range(dim)] + [f"s{i + 1}" for i in range(nsv)] + ["local_bound"]
    return header, [r.state + r.spectrum + [r.local] for r in rep.per_point]


EDGE_VALUES = [-0.0, 1.0, 5e-324, 1e-300, 1.0 / 3.0, 1e22, 2.0 ** 53 + 2, LOG_ZERO,
               -1.5e-7, 123456789.0, np.inf, -np.inf, np.nan]


# per-point tables of five columns (two states, two spectra, the local bound)
TABLES = [
    # every edge value in every column
    [[v, -v, v, v, -v] for v in EDGE_VALUES],
    # exactly one block, then a table that crosses two block boundaries
    np.random.default_rng(7).standard_normal((_CSV_BLOCK_ROWS, 5)).tolist(),
    (np.random.default_rng(8).standard_normal((2 * _CSV_BLOCK_ROWS + 3, 5))
     * 10.0 ** np.random.default_rng(9).integers(-300, 300, (1, 5))).tolist(),
    # no points: the CSV header alone
    [],
]
TABLE_IDS = ["edge-values", "one-block", "block-boundaries", "empty"]


@pytest.mark.parametrize("rows", TABLES, ids=TABLE_IDS)
def test_points_csv_bytes_match_csv_module(tmp_path, csv_table, rows):
    rep = dt_bound(linear_map_system(np.diag([2.0, 0.5])), UNIT_BOX_2,
                   MetricField.identity(2), resolution=2)
    rep.per_point = [PointRecord(state=r[:2], spectrum=r[2:4], local=r[4]) for r in rows]
    rep.to_csv(tmp_path / "new.csv")
    csv_table(tmp_path / "ref.csv", *_points_table(rep))
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\r\n") == len(rows) + 1
    if not rows:
        assert new == b"x0,x1,s1,s2,local_bound\r\n"


@pytest.mark.parametrize("rows", TABLES, ids=TABLE_IDS)
def test_report_json_bytes_match_json_module(tmp_path, rows):
    rep = dt_bound(linear_map_system(np.diag([2.0, 0.5])), UNIT_BOX_2,
                   MetricField.identity(2), resolution=2)
    rep.per_point = [PointRecord(state=r[:2], spectrum=r[2:4], local=r[4]) for r in rows]
    rep.to_json(tmp_path / "r.report.json")
    new = (tmp_path / "r.report.json").read_text(encoding="utf-8")
    # the report is one line of up to a megabyte, too long for a diff on failure
    matches = new == json.dumps(rep.to_dict()) + "\n"
    assert matches
    back = BoundReport.from_json(tmp_path / "r.report.json")
    assert json.dumps(back.to_dict()) + "\n" == new
    # NaN != NaN, so the rows are compared apart from the other fields
    assert np.array_equal(back._table(), rep._table(), equal_nan=True)
    back.per_point, rep.per_point = [], []
    assert back == rep


def test_points_csv_bytes_survive_json_round_trip(tmp_path, csv_table):
    rep = ct_bound(lanford_system(A0), lanford_region(A0), lanford_metric(A0), resolution=7)
    rep.to_json(tmp_path / "r.report.json")
    back = BoundReport.from_json(tmp_path / "r.report.json")
    back.to_csv(tmp_path / "back.csv")
    rep.to_csv(tmp_path / "new.csv")
    csv_table(tmp_path / "ref.csv", *_points_table(rep))
    ref = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == ref
    assert (tmp_path / "back.csv").read_bytes() == ref


def test_report_from_dict_rejects_other_schema():
    sys_ = linear_map_system(np.diag([2.0, 0.5]))
    old = dt_bound(sys_, UNIT_BOX_2, MetricField.identity(2), resolution=3).to_dict()
    del old["map_step"]
    old.update(schema_version=1, pdot_mode="analytic")
    with pytest.raises(ConfigError, match="schema version 1.*reads schema 2"):
        BoundReport.from_dict(old)
    other = dt_bound(sys_, UNIT_BOX_2, MetricField.identity(2), resolution=3).to_dict()
    other["kind"] = "oracle"
    with pytest.raises(ConfigError, match="kind 'oracle'.*kind 'bound'"):
        BoundReport.from_dict(other)


def test_report_from_json_reads_schema_2_without_kind(tmp_path):
    # a schema-2 report written before reports carried their kind
    rep = dt_bound(linear_map_system(np.diag([2.0, 0.5])), UNIT_BOX_2,
                   MetricField.identity(2), resolution=3)
    old = rep.to_dict()
    del old["kind"]
    path = tmp_path / "old.report.json"
    path.write_text(json.dumps(old))
    assert BoundReport.from_json(path) == rep


def test_bound_dominates_oracle_spot():
    m = np.array([[2.0, 1.0], [0.0, 0.5]])
    sys_ = linear_map_system(m)
    rep = dt_bound(sys_, UNIT_BOX_2, MetricField.identity(2), resolution=2)
    res = lyapunov_oracle(sys_, UNIT_BOX_2, horizons=(4, 8, 16), resolution=3)
    for v in res.values:
        assert rep.bound + 1e-9 >= v


def _counting_rule(batches, undefined):
    """Tabulated rule recording every batch of rows it is asked for; rows
    where ``undefined`` holds get a reason instead of a value."""
    def rule(x):
        batches.append(x.tolist())
        p = np.empty((len(x), 2, 2))
        p[:, 0, 0] = 1.0 + x[:, 0] ** 2
        p[:, 1, 1] = 1.0 + x[:, 1] ** 2
        p[:, 0, 1] = p[:, 1, 0] = 0.3 * x[:, 1]
        return p, ["outside the rule's domain" if undefined(row) else None for row in x]
    return rule


def _distinct(rows):
    return len({tuple(r) for r in rows})


def test_bound_core_matches_per_point_loop_discrete():
    sys_ = linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]]))
    batches = []
    metric = MetricField.tabulated(
        2, _counting_rule(batches, lambda row: row[0] > 2.5), label="counting")
    rep = dt_bound(sys_, UNIT_BOX_2, metric, resolution=3)
    pts = sample_set(UNIT_BOX_2, 3)
    # one rule call on 9 points and 9 images; the origin is its own image,
    # so the rule sees 17 distinct rows
    assert len(batches) == 1
    assert len(batches[0]) == _distinct(batches[0]) == 17
    # the image (3, 0.5) of (1, 1) is undefined: that point is excluded
    assert rep.excluded == [{"state": [1.0, 1.0], "reason": "outside the rule's domain"}]
    assert [r.state for r in rep.per_point] == pts[:-1].tolist()
    for rec, x in zip(rep.per_point, pts[:-1]):
        p = metric.evaluate(x)
        q = metric.evaluate(sys_.rhs(x))
        values = metric_sv_values(p, q, sys_.jacobian(x))
        assert rec.spectrum == values.tolist()
        assert rec.local == float(positive_sum(values))


def test_bound_core_matches_per_point_loop_continuous():
    sys_ = linear_ode_system(np.array([[0.4, 1.0], [-1.0, 0.2]]))
    batches = []
    h = 0.125
    metric = MetricField.tabulated(
        2, _counting_rule(batches, lambda row: row[0] < -0.9 and row[1] < -0.9),
        label="counting", step=h)
    rep = ct_bound(sys_, UNIT_BOX_2, metric, resolution=3)
    pts = sample_set(UNIT_BOX_2, 3)
    # one rule call on 9 points and their 9 images under the time-h map; the
    # equilibrium at the origin flows onto itself bit for bit, so the rule
    # sees 17 distinct rows
    assert len(batches) == 1
    assert len(batches[0]) == _distinct(batches[0]) == 17
    assert rep.excluded == [{"state": [-1.0, -1.0], "reason": "outside the rule's domain"}]
    assert rep.map_step == h
    # a row propagated alone matches its batched propagation only to
    # rounding, so the loop reads its images from one batched call
    prop = propagate(sys_, pts, h, variational=True)
    for rec, x, image, jac in zip(rep.per_point, pts[1:], prop.states[1:],
                                  prop.jacobians[1:]):
        p = metric.evaluate(x)
        q = metric.evaluate(image)
        values = 2.0 * LN2 / h * metric_sv_values(p, q, jac)
        assert rec.state == x.tolist()
        assert rec.spectrum == values.tolist()
        assert rec.local == float(positive_sum(values) / (2.0 * LN2))
