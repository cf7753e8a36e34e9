import json

import numpy as np
import pytest
import scipy.linalg

from restent.cli import _build_system, build_parser

from restent.errors import ConfigError, UnknownSystemError
from restent.dynamics import (
    STEP_TOL,
    CompactSet,
    auto_region,
    builtin_systems,
    default_region,
    identity_system,
    invariance_spot_check,
    lanford_region,
    lanford_system,
    linear_map_system,
    linear_ode_system,
    make_system,
    propagate,
    sample_set,
)

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


def test_adaptive_state_error_within_tolerance_per_unit_time(dop853):
    sys_ = lanford_system(A_DEFAULT)
    pts = sample_set(lanford_region(A_DEFAULT), 11)
    level = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / 2 + (pts[:, 2] - A_DEFAULT / 2) ** 2
    interior = pts[level - (A_DEFAULT / 2) ** 2 < -1e-3]
    t = 5.0
    adaptive = propagate(sys_, interior, t)
    reference = dop853(sys_, interior, t)
    assert 0 < adaptive.accepted.max() < 500
    err = np.max(np.linalg.norm(adaptive.states - reference.states, axis=-1))
    assert err <= STEP_TOL * t


def test_record_times_are_hit_and_must_not_decrease():
    sys_ = linear_ode_system(np.array([[-1.0]]))
    marks = [0.0, 0.3, 0.3, 1.0]
    prop = propagate(sys_, np.array([1.0]), 1.0, record_at=marks)
    assert np.allclose(prop.states[:, 0, 0], np.exp(-np.array(marks)), atol=1e-10)
    with pytest.raises(ConfigError):
        propagate(sys_, np.array([1.0]), 1.0, record_at=[0.5, 0.2])


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
    with pytest.raises(ConfigError):
        sample_set(tiny, 3)


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
    assert report.first_exit


def test_auto_region_returns_verified_set():
    sys_ = lanford_system(A_DEFAULT)
    region, report = auto_region(sys_, horizon=3.0, resolution=7)
    assert report.fraction == 0.0
    assert region.kind == "box_with_constraint"


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
    assert res == 9
    sys2, region2, res2, _ = load({"system": "identity", "params": {"dim": 2}})
    assert sys2.name == "identity" and sys2.dim == 2
    assert region2.kind == "box" and res2 == 9
    with pytest.raises(ConfigError):
        load({"params": {}})
    with pytest.raises(ConfigError, match="matrix spec"):
        load({"system": "linmap", "params": {"matrix": [[1.0, 2.0], [3.0]]}})
