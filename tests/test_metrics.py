import warnings

import numpy as np
import pytest
import scipy.linalg

from restent.errors import ConfigError, NumericError
from restent.dynamics import (
    CompactSet,
    identity_system,
    lanford_region,
    lanford_system,
    linear_map_system,
    linear_ode_system,
)
from restent.entropy import bound, positive_sum
from restent import metrics
from restent.metrics import (
    MetricField,
    ct_spectrum_values,
    lanford_metric,
    metric_change_constant,
    metric_sv_values,
)
from restent.spd import power, sym

from conftest import sample_set

from test_entropy import pulled_back_rule
from test_spd import rand_gl, rand_spd


def test_identity_metric_gives_plain_singular_values():
    rng = np.random.default_rng(30)
    metric = MetricField.identity(3)
    a = rand_gl(rng, 3)
    (_, q_half, _), *_ = metric.values(np.ones((1, 3)))
    (_, _, p_ihalf), *_ = metric.values(np.zeros((1, 3)))
    values = metric_sv_values(q_half[0], a, p_ihalf[0])
    expected = np.log2(np.linalg.svd(a, compute_uv=False))
    assert np.allclose(values, expected, atol=1e-12)


def test_scalar_metric_formula():
    p, q, a = 2.0, 8.0, -3.0
    metric = MetricField.analytic(
        1,
        lambda x: np.where(x[..., :1, None] > 0, q, p) * np.ones(x.shape[:-1] + (1, 1)),
        label="two-level",
    )
    (_, q_half, _), *_ = metric.values(np.array([[1.0]]))
    (_, _, p_ihalf), *_ = metric.values(np.array([[-1.0]]))
    values = metric_sv_values(q_half[0], np.array([[a]]), p_ihalf[0])
    assert np.allclose(values, [np.log2(abs(a) * np.sqrt(q / p))])


def test_metric_sv_matches_generalized_eigenproblem():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5):
        p = rand_spd(rng, n)
        q = rand_spd(rng, n)
        a = rand_gl(rng, n)
        ours = metric_sv_values(power(q, 0.5), a, power(p, -0.5))
        w = scipy.linalg.eigh(a.T @ q @ a, p, eigvals_only=True)
        oracle = 0.5 * np.log2(np.sort(w)[::-1])
        assert np.allclose(ours, oracle, atol=1e-8)


def test_three_way_equivalence_of_spectra():
    # SVD of B, generalized pencil roots, and the adjoint-product eigenvalues
    rng = np.random.default_rng(32)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        p, q, a = rand_spd(rng, n), rand_spd(rng, n), rand_gl(rng, n)
        by_svd = metric_sv_values(power(q, 0.5), a, power(p, -0.5))
        pencil = scipy.linalg.eigh(a.T @ q @ a, p, eigvals_only=True)
        by_pencil = 0.5 * np.log2(np.sort(pencil)[::-1])
        adjoint = np.linalg.eigvals(np.linalg.solve(p, a.T @ q @ a))
        by_adjoint = 0.5 * np.log2(np.sort(adjoint.real)[::-1])
        assert np.allclose(by_svd, by_pencil, atol=1e-8)
        assert np.allclose(by_svd, by_adjoint, atol=1e-8)


def test_singular_jacobian_sentinel():
    values = metric_sv_values(np.eye(2), np.eye(2), np.diag([2.0, 0.0]))
    assert values[0] == pytest.approx(1.0)
    assert values[1] == -np.inf
    assert positive_sum(values) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3])   # the 2x2 closed form and LAPACK
def test_tiny_singular_values_keep_their_logarithm(n):
    # below 1e-300 a singular value is not clipped: log2(1e-305) = -1013.19
    jac = np.diag([2.0] + [1.0] * (n - 2) + [1e-305])
    values = metric_sv_values(np.eye(n), jac, np.eye(n))
    assert values[0] == 1.0 and values[-1] == np.log2(1e-305)
    jac[-1, -1] = 0.0
    assert metric_sv_values(np.eye(n), jac, np.eye(n))[-1] == -np.inf


def _two_by_two_cases():
    rng = np.random.default_rng(29)
    plain = rng.standard_normal((2000, 2, 2))
    u, v = rng.standard_normal((2, 500, 2))
    graded = np.array([[1e150, 1.0], [1.0, 1e-150]])
    return {
        "random": plain,
        "scaled-up": plain * 1e150,
        "scaled-down": plain * 1e-150,
        "graded": plain * graded,
        "graded-rows": plain * graded[:, :1],
        "rank-1": u[:, :, None] * v[:, None, :],
        "near-overflow": rng.uniform(-0.4e308, 0.4e308, (500, 2, 2)),
        "near-underflow": plain * 1e-300,
    }


@pytest.mark.parametrize("name", list(_two_by_two_cases()))
def test_two_by_two_singular_values_match_lapack(name):
    # the closed form: the larger value relative to itself, the smaller
    # one relative to the larger, finite wherever LAPACK's are
    m = _two_by_two_cases()[name]
    ref = np.linalg.svd(m, compute_uv=False)
    got = metrics._sv2(m)
    assert np.isfinite(ref).all() and np.isfinite(got).all()
    assert (got[:, 0] >= got[:, 1]).all() and (got[:, 1] >= 0).all()
    eps = np.finfo(float).eps
    assert np.all(np.abs(got[:, 0] - ref[:, 0]) <= 2e-15 * ref[:, 0])
    assert np.all(np.abs(got[:, 1] - ref[:, 1]) <= 4 * eps * ref[:, 0])
    if name == "near-underflow":
        # |det| is below the smallest double here, the smaller value is not
        assert (m[:, 0, 0] * m[:, 1, 1] == 0).all() and (got[:, 1] > 0).all()


def test_two_by_two_closed_form_exact_cases_and_the_path_by_dimension():
    assert metrics._sv2(np.diag([2.0, 0.5])).tolist() == [2.0, 0.5]
    assert metrics._sv2(np.zeros((2, 2))).tolist() == [0.0, 0.0]
    assert metric_sv_values(np.eye(2), np.diag([2.0, 0.5]), np.eye(2)).tolist() == [1.0, -1.0]
    assert metric_sv_values(np.eye(2), np.zeros((2, 2)), np.eye(2)).tolist() == [-np.inf] * 2
    assert np.isnan(metric_sv_values(np.eye(2), np.full((2, 2), np.nan), np.eye(2))).all()
    # other dimensions stay on LAPACK
    a = np.random.default_rng(3).standard_normal((4, 3, 3))
    np.testing.assert_array_equal(
        metric_sv_values(np.eye(3), a, np.eye(3)),
        np.log2(np.linalg.svd(np.eye(3) @ a @ np.eye(3), compute_uv=False)))


@pytest.mark.parametrize("n", [2, 3])
def test_a_spectrum_refuses_the_rows_whose_matrix_is_not_finite(n):
    # the product or generator is checked before it is decomposed: eigvalsh
    # gives finite values ([0, -0]) for [[inf, nan], [nan, 1]], LAPACK's SVD
    # fails on the whole stack; -inf of a zero singular value stays
    rng = np.random.default_rng(5)
    jac = rng.standard_normal((4, n, n))
    jac[1, 0, 0], jac[2] = 1e308, np.nan
    jac[3, :, -1] = 0.0
    q_half = np.diag([1e11] + [1.0] * (n - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sv = metric_sv_values(q_half, jac, np.eye(n))
        ct = ct_spectrum_values(np.eye(n), np.eye(n), jac, np.zeros((n, n)))
    for values in (sv, ct):
        assert np.isnan(values[1:3]).all() and not np.isnan(values[[0, 3]]).any()
    np.testing.assert_array_equal(sv[[0, 3]], metric_sv_values(q_half, jac[[0, 3]], np.eye(n)))
    assert sv[3, -1] == -np.inf
    np.testing.assert_array_equal(ct[[0, 3]], ct_spectrum_values(
        np.eye(n), np.eye(n), jac[[0, 3]], np.zeros((n, n))))


def test_ct_spectrum_euclidean_case():
    rng = np.random.default_rng(33)
    j = rng.standard_normal((3, 3))
    values = ct_spectrum_values(np.eye(3), np.eye(3), j, np.zeros((3, 3)))
    expected = np.sort(np.linalg.eigvalsh(j + j.T))[::-1]
    assert np.allclose(values, expected, atol=1e-10)


def test_ct_spectrum_lanford_origin():
    a = 2.0 / 3.0
    sys_ = lanford_system(a)
    metric = lanford_metric(a)
    x = np.zeros(3)
    (p, _, p_ihalf), *_ = metric.values(x[None])
    values = ct_spectrum_values(p[0], p_ihalf[0], sys_.jacobian(x),
                                metric.orbital_derivative(x))
    assert np.allclose(values, [2 * a, 2 * (a - 1), 2 * (a - 1)], atol=1e-12)


def test_ct_spectrum_determinant_residual():
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = rand_spd(rng, n)
        j = rng.standard_normal((n, n))
        pd = sym(rng.standard_normal((n, n)))
        values = ct_spectrum_values(p, power(p, -0.5), j, pd)
        core = p @ j + j.T @ p + pd
        scale = max(1.0, np.linalg.norm(core), np.linalg.norm(p)) ** n
        for lam in values:
            assert abs(np.linalg.det(core - lam * p)) < 1e-8 * scale


def _with_pdot(pdot):
    """Identity metric on the plane whose orbital rule returns ``pdot(x)``."""
    return MetricField.analytic(2, MetricField.identity(2).eval_rule, pdot, label="pdot")


def test_orbital_derivative_rejects_asymmetric_pdot():
    metric = _with_pdot(lambda x: np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NumericError):
        metric.orbital_derivative(np.zeros(2))


def test_orbital_derivative_symmetry_check_does_not_depend_on_the_batch():
    # each row's tolerance scales with its own largest entry: a large
    # symmetric Pdot beside it does not let a small asymmetric one through
    small = np.array([[0.0, 1e-4], [0.0, 0.0]])
    large = np.diag([1e6, 1e6])
    with pytest.raises(NumericError, match="symmetric"):
        _with_pdot(lambda x: small).orbital_derivative(np.zeros(2))
    with pytest.raises(NumericError, match="symmetric"):
        _with_pdot(lambda x: np.stack([small, large])).orbital_derivative(np.zeros((2, 2)))
    assert _with_pdot(lambda x: large[None]).orbital_derivative(
        np.zeros((1, 2))).tolist() == [large.tolist()]


def _isclose_both_ways(pdot):
    """The symmetry check as ``np.isclose`` of each finite value against its
    transpose, over every entry."""
    finite = pdot[np.isfinite(pdot).all(axis=(-2, -1))]
    scale = np.maximum(1.0, np.abs(finite).max(axis=(-2, -1), keepdims=True, initial=0.0))
    with np.errstate(over="ignore"):
        return bool(np.isclose(finite, np.swapaxes(finite, -1, -2), atol=1e-9 * scale).all())


def _accepts(pdot):
    try:
        _with_pdot(lambda x: pdot).orbital_derivative(np.zeros((len(pdot), 2)))
    except NumericError:
        return False
    return True


@pytest.mark.parametrize("a", [3.0, -2.5, 1e-3, 0.0, 7e5])
@pytest.mark.parametrize("diagonal", [0.0, 50.0])
def test_pdot_symmetry_check_is_isclose_both_ways(a, diagonal):
    # off-diagonal pairs a, b stepped one ulp at a time across the tolerance
    # |a - b| <= 1e-9 scale + 1e-5 min(|a|, |b|), with a above and below
    sign = np.copysign(1.0, a) if a else 1.0
    near = a + sign * (1e-9 * max(1.0, diagonal, abs(a)) + 1e-5 * abs(a))
    scale = max(1.0, diagonal, abs(near))      # the largest entry, b near the edge
    edge = a + sign * (1e-9 * scale + 1e-5 * abs(a))
    seen = set()
    for b in edge + np.arange(-40, 41) * np.spacing(edge):
        for pair in ((a, b), (b, a)):
            pdot = np.array([[[diagonal, pair[0]], [pair[1], -diagonal]]])
            verdict = _accepts(pdot)
            assert verdict == _isclose_both_ways(pdot), (a, b)
            seen.add(verdict)
    assert seen == {True, False}


def test_pdot_symmetry_check_of_one_dimension_and_of_nonfinite_rows():
    one = MetricField.analytic(1, MetricField.identity(1).eval_rule,
                               lambda x: np.array([[[1e300]], [[-0.0]], [[np.nan]]]))
    assert one.orbital_derivative(np.zeros((3, 1)))[:2].tolist() == [[[1e300]], [[-0.0]]]
    # rows with inf or NaN are not checked, however asymmetric; the caller
    # excludes them
    nonfinite = np.array([[[np.nan, 1.0], [0.0, 0.0]], [[0.0, np.inf], [5.0, 0.0]],
                          [[1.0, 2.0], [2.0, 1.0]]])
    assert _accepts(nonfinite) and _isclose_both_ways(nonfinite)
    bad = np.concatenate([nonfinite, [[[0.0, 1.0], [0.0, 0.0]]]])
    assert not _accepts(bad) and not _isclose_both_ways(bad)
    # 1e308 beside -1e308 overflows |a - b| to inf, refused as isclose refuses it
    huge = np.array([[[0.0, 1e308], [-1e308, 0.0]]])
    assert not _accepts(huge) and not _isclose_both_ways(huge)


def _distinct_by_bytes(a):
    """The reference grouping of ``metrics._distinct``: a sort of each row's bytes."""
    rows = np.ascontiguousarray(a, dtype=float).reshape(len(a), int(np.prod(np.shape(a)[1:])))
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0]


def _one_bit_apart():
    base = np.random.default_rng(5).standard_normal((6, 2, 2))
    flipped = base.copy()
    flipped.reshape(-1).view(np.uint64)[[3, 17]] ^= np.uint64(1)
    return np.concatenate([base, flipped, base[::-1]])


DISTINCT_CASES = {
    "signed-zeros": np.array([[[0.0, -0.0], [-0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
                              [[-0.0, -0.0], [-0.0, -0.0]], [[0.0, -0.0], [-0.0, 0.0]]]),
    "nan-payloads": np.array([[[_nan_with_payload(p), 1.0], [1.0, 2.0]]
                              for p in (0, 1, 2, 1, 0, 1 << 40)]),
    "one-bit-apart": _one_bit_apart(),
    "empty": np.empty((0, 3, 3)),
    "1x1": np.array([[[2.0]], [[-0.0]], [[2.0]], [[np.nan]], [[0.0]], [[-0.0]]]),
    "9x9": np.random.default_rng(6).integers(0, 2, (40, 9, 9)).astype(float),
    "lanford": sym(lanford_metric().eval_rule(sample_set(lanford_region(), 9))),
}


@pytest.mark.parametrize("weights", ["hashed", "ones", "zeros"])
@pytest.mark.parametrize("case", list(DISTINCT_CASES))
def test_distinct_matches_the_byte_sort(monkeypatch, case, weights):
    # ones make rows that are permutations of each other share a key, zeros
    # make every row share one: the bitwise check must fall back on the sort
    if weights != "hashed":
        monkeypatch.setattr(metrics, "_ROW_WEIGHTS", np.full(
            64, weights == "ones", dtype=np.uint64))
    a = DISTINCT_CASES[case]
    first, inverse = metrics._distinct(a)
    ref_first, ref_inverse = _distinct_by_bytes(a)
    assert first.dtype == ref_first.dtype and inverse.dtype == ref_inverse.dtype
    assert first.tolist() == ref_first.tolist() and inverse.tolist() == ref_inverse.tolist()
    assert a[first][inverse].tobytes() == a.tobytes()


def test_bound_refuses_an_asymmetric_pdot():
    # the rule's own output is checked, before it is symmetrized
    metric = _with_pdot(lambda x: np.broadcast_to([[0.0, 5.0], [0.0, 0.0]],
                                                  x.shape[:-1] + (2, 2)))
    with pytest.raises(NumericError, match="orbital derivative must be symmetric"):
        bound(linear_ode_system(np.diag([1.0, -1.0])),
              CompactSet(bounds=((-1.0, 1.0), (-1.0, 1.0))), metric, 3)


def test_bound_excludes_rows_with_a_nonfinite_pdot():
    sys_ = linear_ode_system(np.diag([1.0, -1.0]))
    box = CompactSet(bounds=((-1.0, 1.0), (-1.0, 1.0)))
    metric = _with_pdot(lambda x: np.where((x[..., 0] == 1.0)[..., None, None], np.nan,
                                           np.zeros(x.shape[:-1] + (2, 2))))
    rep = bound(sys_, box, metric, 5)
    full = bound(sys_, box, MetricField.identity(2), 5)
    kept = full.per_point[:, 0] != 1.0
    assert [e["state"] for e in rep.excluded] == full.per_point[~kept, :2].tolist()
    assert {e["reason"] for e in rep.excluded} == {"non-finite orbital derivative"}
    assert len(rep.excluded) == 5
    assert np.array_equal(rep.per_point, full.per_point[kept])


def _map_and_analytic_spectra(system, region, metric, resolution, step):
    """Per-point spectra of bound on the time-step map (the metric
    wrapped as a tabulated rule with that step) and with the metric's
    analytic orbital derivative."""
    table = MetricField.tabulated(
        metric.dim, pulled_back_rule(system, metric.eval_rule, step), step=step)
    by_map = bound(system, region, table, resolution)
    exact = bound(system, region, metric, resolution)
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
    (_, q_half, _), *_ = metric.values(np.ones((1, 3)))
    (_, _, p_ihalf), *_ = metric.values(np.zeros((1, 3)))
    values = metric_sv_values(q_half[0], a, p_ihalf[0])
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
        lambda x: c * base.eval_rule(x),
        lambda x: c * base.orbital_derivative(x),
        label="scaled",
    )
    for _ in range(5):
        x = rng.uniform([-0.5, -0.5, 0.0], [0.5, 0.5, 0.8])
        phi_x = x + 0.01 * sys_.rhs(x)
        jac = sys_.jacobian(x)

        def spectra(metric):
            (p, _, r), *_ = metric.values(x[None])
            (_, q_half, _), *_ = metric.values(phi_x[None])
            return (metric_sv_values(q_half[0], jac, r[0]),
                    ct_spectrum_values(p[0], r[0], jac, metric.orbital_derivative(x)))

        (s1, c1), (s2, c2) = spectra(base), spectra(scaled)
        assert np.allclose(s1, s2, atol=1e-10)
        assert np.allclose(c1, c2, atol=1e-10)


def test_tabulated_metric_values_are_the_first_of_each_pair_and_reject_analytic_pdot():
    calls = []
    rule = pulled_back_rule(linear_map_system(np.diag([2.0, 3.0])),
                            lambda x: np.eye(2) * (1.0 + x[:, :1, None] ** 2), batches=calls)
    metric = MetricField.tabulated(2, rule, label="pairs")
    x = np.array([[0.5, 0.0], [0.0, 0.0], [0.5, 0.0], [-0.0, 0.0]])
    roots, inverse, failed, why = metric.values(x)
    p = roots[0][inverse]
    # one rule call on every row; its values of P are told apart bit for
    # bit, and 1 + 0.0 ** 2 and 1 + (-0.0) ** 2 are the same bits
    assert calls == [x.tolist()]
    assert len(roots[0]) == 2 and inverse.tolist() == [0, 1, 0, 1]
    assert failed.tolist() == [False] * 4 and why == {}
    assert np.array_equal(p[0], p[2]) and np.array_equal(p[0], 1.25 * np.eye(2))
    assert np.array_equal(p, rule(x)[0][:, 0])
    with pytest.raises(ConfigError):
        metric.orbital_derivative(x)


def test_metric_change_constant_refuses_a_point_without_a_metric_value():
    nan_metric = MetricField.analytic(2, lambda x: np.full(x.shape[:-1] + (2, 2), np.nan))
    with pytest.raises(NumericError, match="^metric value is not finite$"):
        metric_change_constant(nan_metric, np.zeros((3, 2)))


def test_metric_values_flag_rows_without_spd_value():
    metric = MetricField.analytic(
        1, lambda x: np.where(x[..., :1, None] > 0, 1.0, -1.0), label="sign")
    roots, inverse, failed, why = metric.values(np.array([[1.0], [-1.0], [2.0]]))
    p = roots[0][inverse]
    assert failed.tolist() == [False, True, False] and list(why) == [1]
    assert "not positive definite" in why[1]
    assert np.array_equal(p[[0, 2]], np.ones((2, 1, 1)))


def test_metric_dimension_mismatch():
    metric = MetricField.identity(3)
    with pytest.raises(ConfigError):
        metric.values(np.zeros((1, 2)))


def _stack_with_repeats(case):
    """A metric and a stack of points where it repeats values, with
    Jacobians and orbital derivatives: ``lanford-exp`` repeats a value per
    z level, the identity has one value, and the 2x2 table repeats values
    that share their first entry, two of them differing only in the sign
    of a zero."""
    rng = np.random.default_rng(47)
    if case == "lanford-exp":
        metric, sys_ = lanford_metric(), lanford_system()
        x = sample_set(lanford_region(), 5)
        return metric, x, sys_.jacobian(x), metric.orbital_derivative(x)
    if case == "identity":
        metric, x = MetricField.identity(3), rng.standard_normal((40, 3))
    else:
        signed = np.array([[[2.0, 0.0], [0.0, 0.5]], [[2.0, -0.0], [-0.0, 0.5]],
                           [[2.0, 0.3], [0.3, 1.0]]])
        metric, x = _table_metric(np.concatenate([signed[rng.integers(0, 3, 30)],
                                                  [rand_spd(rng, 2) for _ in range(10)]]))
    shape = (len(x), metric.dim, metric.dim)
    return metric, x, rng.standard_normal(shape), sym(rng.standard_normal(shape)) * metric.dim


def _table_metric(table):
    """Metric on the plane whose value at the point (i, 0) is ``table[i]``,
    with those points."""
    x = np.column_stack([np.arange(len(table)), np.zeros(len(table))])
    return MetricField.analytic(2, lambda s: table[s[:, 0].astype(int)], label="table"), x


@pytest.mark.parametrize("case", ["lanford-exp", "identity", "signed-zeros"])
def test_spectra_of_a_stack_are_its_row_by_row_spectra(case):
    metric, x, jac, pdot = _stack_with_repeats(case)

    def spectra(x, y, jac, pdot):
        # map spectra between P(x) and P(y), and the generator spectra at x
        roots, inverse, failed, _ = metric.values(np.concatenate([x, y]))
        assert not failed.any()
        at, to = inverse[:len(x)], inverse[len(x):]
        return (metric_sv_values(roots[1][to], jac, roots[2][at]),
                ct_spectrum_values(roots[0][at], roots[2][at], jac, pdot))

    by_stack = spectra(x, x[::-1], jac, pdot)
    by_row = [spectra(*rows) for rows in zip(x[:, None], x[::-1, None], jac[:, None],
                                             pdot[:, None])]
    for k in range(2):
        assert np.array_equal(by_stack[k], np.concatenate([row[k] for row in by_row]))


@pytest.mark.parametrize("rows", [31, 32, 33])
def test_metric_values_roots_are_spd_power_row_by_row(rows):
    # stacks on both sides of the 32 rows below which the roots once were
    # taken without deduplication; repeated values, values told apart only
    # by the sign of a zero, a value that is not positive definite and a NaN
    rng = np.random.default_rng(48)
    pool = np.concatenate([[[[2.0, 0.0], [0.0, 0.5]], [[2.0, -0.0], [-0.0, 0.5]],
                            [[1.0, 2.0], [2.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]],
                           [rand_spd(rng, 2) for _ in range(6)]])
    table = pool[rng.permutation(rows) % len(pool)]
    metric, x = _table_metric(table)
    roots, inverse, failed, why = metric.values(x)
    assert roots.shape == (3, len(pool), 2, 2)
    assert np.flatnonzero(failed).tolist() == sorted(why)
    for i, p in enumerate(table):
        assert np.array_equal(roots[0][inverse[i]], p, equal_nan=True)
        if np.isfinite(p).all() and np.linalg.eigvalsh(p)[0] > 0:
            assert not failed[i]
            assert np.array_equal(roots[1][inverse[i]], power(p, 0.5))
            assert np.array_equal(roots[2][inverse[i]], power(p, -0.5))
        else:
            assert ("not positive definite" if np.isfinite(p).all() else
                    "metric value is not finite") in why[i]
            assert np.isnan(roots[1:, inverse[i]]).all()


@pytest.mark.parametrize("case", ["map", "flow"])
def test_a_block_checks_and_decomposes_each_distinct_metric_value_once(monkeypatch, case):
    if case == "map":
        sys_, metric = linear_map_system(np.diag([2.0, 0.5])), MetricField.identity(2)
        region, distinct = CompactSet(bounds=((-1.0, 1.0), (-1.0, 1.0))), 1
    else:
        sys_, metric, region = lanford_system(), lanford_metric(), lanford_region()
        distinct = len(np.unique(sample_set(region, 9)[:, 2]))   # one value per z level
    distinct_calls, decomposed = [], []
    real_distinct, real_eigh = metrics._distinct, np.linalg.eigh

    def counted_distinct(a):
        distinct_calls.append(len(a))
        return real_distinct(a)

    def counted_eigh(a, *args, **kwargs):
        decomposed.append(len(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(metrics, "_distinct", counted_distinct)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    rep = bound(sys_, region, metric, 9)
    points = len(rep.per_point) + len(rep.excluded)
    assert distinct_calls == [2 * points if case == "map" else points]
    assert decomposed == [distinct]


def test_metric_values_reasons_per_row_on_a_mixed_stack():
    def ev(x):
        a = np.where(x[..., 0] < 0, -1.0, np.where(x[..., 0] > 5, np.nan, 1.0 + x[..., 0]))
        return np.eye(2) * np.stack([a, np.ones_like(a)], axis=-1)[..., None, :]

    x = np.array([[1.0, 0.0], [-1.0, 0.0], [6.0, 0.0], [1.0, 3.0], [-2.0, 1.0],
                  [7.0, 1.0], [2.0, 0.0], [0.0, 0.0], [-0.0, 0.0]])
    not_spd = "metric value is not positive definite (eigenvalues {})"
    not_finite = "metric value is not finite"
    expected = {1: not_spd.format("[-1.  1.]"), 2: not_finite,
                4: not_spd.format("[-1.  1.]"), 5: not_finite}
    analytic = MetricField.analytic(2, ev, label="mixed")
    roots, inverse, failed, why = analytic.values(x)
    p = roots[0][inverse]
    assert why == expected
    assert np.flatnonzero(failed).tolist() == [1, 2, 4, 5]
    for i, row in enumerate(x):
        *_, row_failed, row_why = analytic.values(row[None])
        assert row_failed.tolist() == [failed[i]] and row_why.get(0) == why.get(i)
    assert np.array_equal(p, sym(ev(x)), equal_nan=True)
    # a tabulated rule's own reason comes before the positive definiteness check
    tabulated = MetricField.tabulated(2, pulled_back_rule(
        identity_system(2), ev, why=lambda row: "far" if row[1] > 2 else None), label="mixed")
    *_, failed, why = tabulated.values(x)
    assert why == {**expected, 3: "far"}
    assert np.flatnonzero(failed).tolist() == [1, 2, 3, 4, 5]
