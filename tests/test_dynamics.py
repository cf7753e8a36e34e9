import json

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate._ivp import dop853_coefficients

from restent.cli import _build_system, build_parser

from restent.errors import ConfigError, UnknownSystemError
from restent import dynamics
from restent.dynamics import (
    STEP_TOL,
    CompactSet,
    SystemModel,
    builtin_systems,
    default_region,
    grid_counts,
    identity_system,
    invariance_spot_check,
    lanford_region,
    lanford_system,
    linear_map_system,
    linear_ode_system,
    make_system,
    propagate,
)

from conftest import sample_set

A_DEFAULT = 2.0 / 3.0


def _flow(system, x0, t):
    return propagate(system, x0, t).states[0]


def test_flow_zero_horizon_is_identity():
    sys_ = lanford_system()
    x0 = np.array([0.1, -0.2, 0.3])
    assert np.allclose(_flow(sys_, x0, 0.0), x0)
    lin = linear_map_system(np.diag([2.0, 0.5]))
    assert np.allclose(_flow(lin, np.array([1.0, 1.0]), 0), [1.0, 1.0])


def test_lanford_equilibria_are_fixed():
    sys_ = lanford_system(A_DEFAULT)
    o2 = np.array([0.0, 0.0, A_DEFAULT])
    assert np.allclose(_flow(sys_, o2, 5.0), o2, atol=1e-12)
    assert np.allclose(_flow(sys_, np.zeros(3), 5.0), np.zeros(3), atol=1e-12)


def test_linear_ode_flow_matches_exponential():
    sys_ = linear_ode_system(np.array([[-1.0]]))
    out = _flow(sys_, np.array([1.0]), 1.0)
    assert abs(out[0] - np.exp(-1.0)) < 1e-8


def test_discrete_flow_composition():
    m = np.array([[0.0, 1.0], [-0.5, 0.3]])
    sys_ = linear_map_system(m)
    x0 = np.array([1.0, 2.0])
    assert np.allclose(_flow(sys_, x0, 3), np.linalg.matrix_power(m, 3) @ x0)
    with pytest.raises(ConfigError):
        propagate(sys_, x0, 1.5)


def _flow_jacobian(system, x0, t):
    return propagate(system, x0, t, variational=True).jacobians[0]


def test_cocycle_identity_and_linear():
    sys_ = lanford_system()
    assert np.allclose(_flow_jacobian(sys_, np.array([0.1, 0.0, 0.2]), 0.0), np.eye(3))
    m = np.array([[2.0, 1.0], [0.0, 0.5]])
    lin = linear_map_system(m)
    a5 = _flow_jacobian(lin, np.array([0.3, -0.4]), 5)
    assert np.allclose(a5, np.linalg.matrix_power(m, 5))
    ode = linear_ode_system(np.array([[0.2, 1.0], [0.0, -0.4]]))
    a_t = _flow_jacobian(ode, np.array([0.1, 0.1]), 2.0)
    assert np.allclose(a_t, scipy.linalg.expm(2.0 * np.array([[0.2, 1.0], [0.0, -0.4]])),
                       atol=1e-8)


def test_cocycle_composition_property_on_lanford():
    sys_ = lanford_system()
    rng = np.random.default_rng(21)
    region = lanford_region(A_DEFAULT)
    pts = sample_set(region, 5)
    for x0 in pts[rng.choice(len(pts), size=3, replace=False)]:
        s, t = 0.7, 1.1
        a_t = _flow_jacobian(sys_, x0, t)
        x_t = _flow(sys_, x0, t)
        a_s = _flow_jacobian(sys_, x_t, s)
        a_st = _flow_jacobian(sys_, x0, s + t)
        assert np.linalg.norm(a_st - a_s @ a_t) < 1e-6


def test_jacobian_consistency_finite_differences():
    rng = np.random.default_rng(22)
    systems = [
        lanford_system(0.8),
        linear_map_system(np.array([[2.0, 1.0], [0.0, 0.5]])),
        linear_ode_system(np.array([[0.0, 1.0], [-1.0, 0.0]])),
        identity_system(3),
    ]
    for sys_ in systems:
        pts = rng.uniform(-1.0, 1.0, size=(100, sys_.dim))
        jac = sys_.jacobian(pts)
        eps = 1e-6
        for i in range(sys_.dim):
            dv = np.zeros(sys_.dim)
            dv[i] = eps
            fd = (sys_.rhs(pts + dv) - sys_.rhs(pts - dv)) / (2 * eps)
            scale = np.maximum(1.0, np.abs(jac[..., i]))
            assert np.max(np.abs(fd - jac[..., i]) / scale) < 1e-5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_system_is_the_unit_linmap(n):
    ident, linmap = identity_system(n), linear_map_system(np.eye(n))
    assert (ident.name, ident.time_type, ident.dim, ident.params) == (
        "identity", "discrete", n, {"dim": n})
    pts = sample_set(CompactSet(bounds=((-1.0, 1.0),) * n), 5)
    assert ident.rhs(pts).tobytes() == linmap.rhs(pts).tobytes()
    assert ident.jacobian(pts).tobytes() == linmap.jacobian(pts).tobytes()
    np.testing.assert_array_equal(ident.rhs(pts), pts)


def test_blowup_guard_reports_escape(dop853):
    sys_ = lanford_system(A_DEFAULT)
    bad = np.array([0.5, 0.5, -0.5])       # z < 0 escapes in finite time
    # batched propagate freezes the bad point and keeps the good one
    o2 = np.array([0.0, 0.0, A_DEFAULT])
    prop = propagate(sys_, np.stack([bad, o2]), 20.0)
    assert prop.escaped.tolist() == [True, False]
    assert np.isfinite(prop.states).all()
    assert np.allclose(prop.states[1], o2, atol=1e-10)
    assert abs(prop.escape_times[0] - dop853(sys_, bad, 20.0).escape_time) < 1e-2


def test_a_map_row_whose_jacobian_overflows_escapes_at_that_step():
    # from (0, 1) the state of diag(1e200, 0.5) stays bounded, but the
    # Jacobian's first entry passes the float maximum at step 2: the row
    # escapes there, frozen at its step-1 state and Jacobian, as a flow's does
    prop = propagate(linear_map_system(np.diag([1e200, 0.5])), [[0.0, 1.0]], 3,
                     variational=True)
    assert prop.escaped.tolist() == [True] and prop.escape_times.tolist() == [2.0]
    assert prop.states.tolist() == [[0.0, 0.5]]
    assert prop.jacobians.tolist() == [[[1e200, 0.0], [0.0, 0.5]]]


def _interior_lanford_rows():
    """The resolution-11 lanford grid points off the separatrix surface."""
    pts = sample_set(lanford_region(A_DEFAULT), 11)
    level = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / 2 + (pts[:, 2] - A_DEFAULT / 2) ** 2
    return pts[level - (A_DEFAULT / 2) ** 2 < -1e-3]


def test_adaptive_state_error_within_tolerance_per_unit_time(dop853):
    sys_ = lanford_system(A_DEFAULT)
    interior = _interior_lanford_rows()
    t = 5.0
    adaptive = propagate(sys_, interior, t)
    reference = dop853(sys_, interior, t)
    assert 0 < adaptive.accepted.max() < 500
    err = np.max(np.linalg.norm(adaptive.states - reference.states, axis=-1))
    assert err <= STEP_TOL * t


def test_adaptive_global_error_within_tolerance_at_long_horizon(dop853):
    # the per-step tolerance also bounds the global error to t = 40, in the
    # state and in the flow Jacobian relative to 1 + |entry|
    sys_ = lanford_system(A_DEFAULT)
    interior = _interior_lanford_rows()
    assert len(interior) == 485
    t = 40.0
    adaptive = propagate(sys_, interior, t, variational=True)
    reference = dop853(sys_, interior, t, variational=True)
    state_err = np.max(np.abs(adaptive.states - reference.states))
    jac_err = np.max(np.abs(adaptive.jacobians - reference.jacobians)
                     / (1.0 + np.abs(reference.jacobians)))
    assert state_err <= STEP_TOL * t
    assert jac_err <= STEP_TOL * t


def test_nonfinite_error_estimate_rejects_the_step():
    # xdot = x/2 with a Jacobian that is NaN past x = 1.5: the row from 1.0
    # reaches 1.5 at t = 2 ln 1.5 and must escape there, frozen and finite,
    # instead of carrying NaN on; the row from 0.1 stays below 1.5
    def jac(x):
        return np.where(x[..., None] > 1.5, np.nan, 0.5)

    sys_ = SystemModel(name="nan-jacobian", time_type="continuous", dim=1,
                       rhs=lambda x: x / 2, jacobian=jac)
    prop = propagate(sys_, [[0.1], [1.0]], 2.0, variational=True)
    assert prop.escaped.tolist() == [False, True]
    assert abs(prop.escape_times[1] - 2 * np.log(1.5)) < 1e-9
    assert np.isfinite(prop.states).all() and np.isfinite(prop.jacobians).all()
    assert prop.states[0, 0] == pytest.approx(0.1 * np.e, rel=1e-10)
    assert prop.jacobians[0, 0, 0] == pytest.approx(np.e, rel=1e-10)


def test_a_row_propagates_as_it_would_alone():
    # the field of the test above: rows from 1.0, 1.4, 0.7 and 1.2 escape at
    # different times, between and on either side of the repeated record
    # times, after rejected steps; the rows from 0.1 and 0.5 run to the end
    def jac(x):
        return np.where(x[..., None] > 1.5, np.nan, 0.5)

    sys_ = SystemModel(name="nan-jacobian", time_type="continuous", dim=1,
                       rhs=lambda x: x / 2, jacobian=jac)
    x0 = [[0.1], [1.0], [1.4], [0.7], [0.5], [1.2]]
    marks = [0.5, 1.0, 1.0, 2.0]
    batch = propagate(sys_, x0, 2.0, variational=True, record_at=marks)
    assert batch.escaped.tolist() == [False, True, True, True, False, True]
    assert len(set(batch.escape_times[batch.escaped])) == 4
    assert batch.rejected[batch.escaped].min() > 0

    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    for i, row in enumerate(x0):
        alone = propagate(sys_, [row], 2.0, variational=True, record_at=marks)
        assert batch.escaped[i] == alone.escaped[0]
        assert close(batch.states[:, i], alone.states[:, 0])
        assert close(batch.jacobians[:, i], alone.jacobians[:, 0])
        if batch.escaped[i]:
            # OpenBLAS rounds the stage sums differently for different batch
            # widths, and at the NaN edge one ulp decides whether a stage is
            # NaN: the row from 0.7 takes 38 + 30 steps here and 41 + 31 alone
            assert close(batch.escape_times[i], alone.escape_times[0])
        else:
            assert batch.accepted[i] == alone.accepted[0]
            assert batch.rejected[i] == alone.rejected[0] == 0
            assert np.isnan(alone.escape_times[0])


def test_propagations_compare_by_identity():
    # a generated __eq__ would compare the array fields and raise
    system = linear_map_system(np.diag([2.0, 0.5]))
    first, second = (propagate(system, np.ones((2, 2)), 3.0, variational=True)
                     for _ in range(2))
    assert first == first and first != second


def test_dop853_tableau_matches_the_reference_coefficients():
    # all 16 rows of A: the 12 stages, the solution (row 12, B) and the
    # three extra stages of the continuous extension, and its matrix D
    ref = dop853_coefficients
    np.testing.assert_array_equal(dynamics._A, ref.A)
    np.testing.assert_array_equal(dynamics._A[12, :12], ref.B)
    np.testing.assert_array_equal(dynamics._D, ref.D)
    # the reference carries a thirteenth (FSAL) weight, zero in both estimates
    np.testing.assert_array_equal(dynamics._E5, ref.E5[:12])
    np.testing.assert_array_equal(dynamics._E3, ref.E3[:12])
    assert ref.E5[12] == 0 and ref.E3[12] == 0
    assert np.max(np.abs(dynamics._A[:12].sum(axis=1) - ref.C[:12])) <= 1e-15
    assert np.max(np.abs(dynamics._A[13:].sum(axis=1) - ref.C[13:])) <= 1e-15
    assert abs(dynamics._A[12].sum() - 1.0) <= 1e-15


def _spot_check_rows():
    """The resolution-9 lanford grid of the spot check and its 100 record
    times to t = 5."""
    return sample_set(lanford_region(A_DEFAULT), 9), np.linspace(0.05, 5.0, 100)


def test_dense_records_take_the_controllers_steps(dop853):
    # a step lands on the last record time it covers and reads the ones it
    # passes off the continuous extension: 100 record times no longer force
    # 100 steps, and every record stays within 1e-8 of a tight reference
    sys_ = lanford_system(A_DEFAULT)
    pts, marks = _spot_check_rows()
    prop = propagate(sys_, pts, 5.0, record_at=marks)
    assert prop.accepted.max() < 34
    ref = dop853(sys_, pts, 5.0, record_at=marks).states
    assert np.max(np.abs(prop.states - ref) / (1.0 + np.abs(ref))) <= 1e-8


def test_dense_variational_records_within_the_stated_error(dop853):
    sys_ = lanford_system(A_DEFAULT)
    pts, _ = _spot_check_rows()
    nodes = np.linspace(0.0, 3.0, 64)
    prop = propagate(sys_, pts, 3.0, variational=True, record_at=nodes)
    assert prop.accepted.max() < 63
    ref = dop853(sys_, pts, 3.0, variational=True, record_at=nodes)
    for got, want in ((prop.states, ref.states), (prop.jacobians, ref.jacobians)):
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-8


def test_sparse_records_are_landed_on_bit_for_bit():
    # no two of the oracle's record times share a step, so each is landed on
    # exactly as a run to that horizon lands on it
    sys_ = lanford_system(A_DEFAULT)
    pts = sample_set(lanford_region(A_DEFAULT), 7)
    prop = propagate(sys_, pts, 40.0, variational=True, record_at=[5.0, 10.0, 20.0, 40.0])
    alone = propagate(sys_, pts, 5.0, variational=True)
    np.testing.assert_array_equal(prop.states[0], alone.states)
    np.testing.assert_array_equal(prop.jacobians[0], alone.jacobians)


@pytest.mark.parametrize("factory", [linear_ode_system, linear_map_system], ids=["flow", "map"])
def test_an_empty_record_list_gives_no_records(factory):
    # the rows still run to the horizon: the row from 1e7 grows past the
    # blow-up guard, at t = ln 10 in the flow and at step 1 of the map
    system = factory(np.diag([10.0, 1.0, 1.0]) if factory is linear_map_system else np.eye(3))
    x0 = np.array([[0.1, 0.1, 0.1], [1e7, 0.0, 0.0]])
    prop = propagate(system, x0, 3.0, variational=True, record_at=[])
    assert prop.states.shape == (0, 2, 3)
    assert prop.jacobians.shape == (0, 2, 3, 3)
    assert prop.escaped.tolist() == [False, True]


def test_a_map_spot_check_over_no_steps_reports_none_escaped():
    report = invariance_spot_check(linear_map_system(np.diag([2.0, 0.5])),
                                   CompactSet(bounds=((-1.0, 1.0), (-1.0, 1.0))), 3, 0)
    assert (report.n_points, report.n_escaped, report.excluded) == (9, 0, [])


def test_record_times_are_hit_and_must_not_decrease():
    sys_ = linear_ode_system(np.array([[-1.0]]))
    marks = [0.0, 0.3, 0.3, 1.0]
    prop = propagate(sys_, np.array([1.0]), 1.0, record_at=marks)
    assert np.allclose(prop.states[:, 0, 0], np.exp(-np.array(marks)), atol=1e-10)
    with pytest.raises(ConfigError):
        propagate(sys_, np.array([1.0]), 1.0, record_at=[0.5, 0.2])


def test_map_records_once_per_requested_time_and_refuses_fractions():
    sys_ = linear_map_system(np.array([[2.0]]))
    prop = propagate(sys_, np.array([1.0]), 2, variational=True, record_at=[1, 1, 2])
    assert prop.states[:, 0, 0].tolist() == [2.0, 2.0, 4.0]
    assert prop.jacobians[:, 0, 0, 0].tolist() == [2.0, 2.0, 4.0]
    with pytest.raises(ConfigError, match="record time must be an integer"):
        propagate(sys_, np.array([1.0]), 3, record_at=[0.4, 2.6])


def test_propagate_refuses_a_state_of_another_dimension_and_a_record_past_the_horizon():
    sys_ = linear_ode_system(np.array([[-1.0]]))
    with pytest.raises(ConfigError, match="state dimension 2 != system dimension 1"):
        propagate(sys_, np.zeros((1, 2)), 1.0)
    with pytest.raises(ConfigError, match=r"record times must lie within \[0, horizon\]"):
        propagate(sys_, np.array([1.0]), 1.0, record_at=[0.5, 1.5])


@pytest.mark.parametrize("system,t,marks", [
    (lanford_system(), 5.0, [np.nan, 5.0]),
    (linear_map_system(np.eye(3)), np.inf, None),
], ids=["nan-record-time", "inf-steps"])
def test_nonfinite_horizon_or_record_time_is_config_error(system, t, marks):
    with pytest.raises(ConfigError):
        propagate(system, np.zeros((1, 3)), t, record_at=marks)


def test_sample_set_examples():
    one_d = CompactSet(bounds=((0.0, 1.0),))
    assert np.allclose(sample_set(one_d, 3).ravel(), [0.0, 0.5, 1.0])
    region = lanford_region(A_DEFAULT)
    pts = sample_set(region, 7)
    assert (pts[:, 2] >= 0.0).all()
    box = CompactSet(bounds=((-1.0, 1.0), (0.0, 2.0)))
    assert len(sample_set(box, (4, 5))) == 20
    with pytest.raises(ConfigError):
        sample_set(box, 1)
    tiny = CompactSet(bounds=((0.0, 1.0),), constraint=lambda x: x[..., 0] > 5.0)
    assert len(sample_set(tiny, 3)) == 0
    with pytest.raises(ConfigError, match="constraint excluded every grid point"):
        invariance_spot_check(identity_system(1), tiny, 3, 1)


def _meshgrid_sample(region, counts):
    """Reference grid: the whole box as one meshgrid, then filtered."""
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(region.bounds, counts)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return pts if region.constraint is None else pts[region.constraint(pts)]


@pytest.mark.parametrize("block_rows", [1, 7, dynamics._BLOCK_ROWS])
@pytest.mark.parametrize("region, counts", [
    (lanford_region(A_DEFAULT), [9, 8, 7]),
    (CompactSet(bounds=((-1.0, 1.0), (0.0, 2.0))), [13, 11]),
], ids=["constrained", "box"])
def test_sample_set_blocks_give_the_meshgrid(monkeypatch, block_rows, region, counts):
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
    pts = sample_set(region, counts)
    ref = _meshgrid_sample(region, counts)
    assert pts.shape == ref.shape and pts.tobytes() == ref.tobytes()


@pytest.mark.parametrize("resolution", [3.7, 2.5, [2.5, 3], [3, np.nan], [3, np.inf], [3, "x"]])
def test_grid_counts_refuse_fractions(resolution):
    with pytest.raises(ConfigError):
        grid_counts(resolution, 2)


def test_grid_counts_take_whole_numbers():
    assert grid_counts(3, 2) == [3, 3]
    assert grid_counts(3.0, 1) == [3]
    assert grid_counts([np.int64(4), 5.0], 2) == [4, 5]


def test_builtin_registry():
    reg = builtin_systems()
    assert {"lanford", "linmap", "linode", "identity"} <= set(reg)
    with pytest.raises(UnknownSystemError):
        make_system("nope")
    ident = make_system("identity", dim=2)
    assert np.allclose(ident.jacobian(np.zeros(2)), np.eye(2))
    lin = make_system("linmap", matrix=[[2.0, 0.0], [0.0, 0.5]])
    assert np.allclose(lin.jacobian(np.ones(2)), np.diag([2.0, 0.5]))


def test_lanford_jacobian_at_upper_equilibrium():
    a = A_DEFAULT
    sys_ = lanford_system(a)
    expected = np.array([
        [2.0 * a - 1.0, -1.0, 0.0],
        [1.0, 2.0 * a - 1.0, 0.0],
        [0.0, 0.0, -a],
    ])
    assert np.allclose(sys_.jacobian(np.array([0.0, 0.0, a])), expected)


def test_lanford_region_invariance_at_heteroclinic_parameter():
    sys_ = lanford_system(A_DEFAULT)
    region = lanford_region(A_DEFAULT)
    report = invariance_spot_check(sys_, region, 7, horizon=5.0)
    assert report.fraction == 0.0
    # O2 is a grid point of the bounding box at odd resolutions
    pts = sample_set(region, 7)
    o2 = np.array([0.0, 0.0, A_DEFAULT])
    assert np.min(np.linalg.norm(pts - o2, axis=1)) < 1e-12


def test_plain_box_fails_spot_check_for_lanford():
    sys_ = lanford_system(A_DEFAULT)
    box = CompactSet(bounds=((-1.2, 1.2), (-1.2, 1.2), (0.0, 1.0)))
    report = invariance_spot_check(sys_, box, 5, horizon=2.0)
    assert report.fraction > 0.0
    assert report.excluded


# the lanford plain box above: 120 of 125 leave; a map whose rows from
# x = +-1 blow up at step 1, frozen inside the box, and whose rows from
# (0, +-1) leave it at step 1
@pytest.mark.parametrize("system, box, resolution, horizon", [
    (lanford_system(A_DEFAULT), ((-1.2, 1.2), (-1.2, 1.2), (0.0, 1.0)), 5, 2.0),
    (linear_map_system(np.diag([1e9, 2.0])), ((-1.0, 1.0), (-1.0, 1.0)), 3, 3),
], ids=["flow", "map"])
@pytest.mark.parametrize("block_rows", [1, 7, dynamics._BLOCK_ROWS])
def test_spot_check_blocks_give_one_batchs_entries(monkeypatch, block_rows, system, box,
                                                   resolution, horizon):
    region = CompactSet(bounds=box)
    whole = invariance_spot_check(system, region, resolution, horizon)
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
    report = invariance_spot_check(system, region, resolution, horizon)
    assert ((report.n_points, report.n_blown, report.excluded)
            == (whole.n_points, whole.n_blown, whole.excluded))
    assert all(set(entry) == {"state", "reason"} for entry in report.excluded)
    reasons = [entry["reason"] for entry in report.excluded]
    if system.time_type == "continuous":
        assert (report.n_points, report.n_escaped, report.n_blown) == (125, 120, 0)
        assert reasons[:3] == ["left the set at t=0.05"] * 3
        assert report.excluded[0]["state"] == [-1.2, -1.2, 0.0]
    else:
        assert (report.n_points, report.n_escaped, report.n_blown) == (9, 8, 6)
        blown = "trajectory of 'linmap' blew up at t=1"
        assert reasons == [blown] * 3 + ["left the set at t=1"] * 2 + [blown] * 3


def test_default_region_and_config_loading(tmp_path):
    assert default_region(lanford_system()).kind == "box_with_constraint"
    assert default_region(identity_system(2)).kind == "box"

    def load(cfg):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(cfg))
        return _build_system(build_parser().parse_args(["bound", "--config", str(path)]))

    cfg = {"system": "lanford", "params": {"a": 0.75},
           "box": [[-1, 1], [-1, 1], [0, 1.5]], "resolution": 9}
    sys_, region, res, _ = load(cfg)
    assert sys_.params["a"] == 0.75
    assert region.bounds[2] == (0.0, 1.5)
    assert res == [9, 9, 9]
    sys2, region2, res2, _ = load({"system": "identity", "params": {"dim": 2}})
    assert sys2.name == "identity" and sys2.dim == 2
    assert region2.kind == "box" and res2 == [9, 9]
    with pytest.raises(ConfigError):
        load({"params": {}})
    with pytest.raises(ConfigError, match="matrix spec"):
        load({"system": "linmap", "params": {"matrix": [[1.0, 2.0], [3.0]]}})
