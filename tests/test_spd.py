import warnings

import numpy as np
import pytest

from restent.errors import NumericError
from restent.spd import (
    as_spd,
    congruence,
    distance,
    geodesic,
    karcher_barycenter,
    log_singular_values,
    lyapunov_solve,
    power,
    sym,
    vectorial_distance,
)
from restent.spd import _normalized_weights
from restent.props import _majorization_excess


def rand_spd(rng, n, spread=1.5):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.exp(rng.uniform(-spread, spread, size=n))
    return sym(q @ np.diag(w) @ q.T)


def rand_gl(rng, n):
    while True:
        g = rng.standard_normal((n, n))
        if np.linalg.cond(g) < 1e3:
            return g


def inductive_barycenter(
    atoms,
    weights=None,
    max_cycles: int = 10000,
    tol: float = 1e-9,
) -> np.ndarray:
    """Weighted barycenter of SPD matrices by cyclic geodesic interpolation.

    Starting from the first atom, step k moves the running mean toward atom
    ``k mod m`` (residue 0 meaning atom m) by the fraction
    s_k = w_{k mod m} / sum_{i<=k} w_{i mod m}.  The iteration stops when the
    distance between consecutive full-cycle iterates drops below ``tol``;
    exhausting ``max_cycles`` returns the last iterate with a warning carrying
    the distance achieved.

    The mean converges only as O(1/k) and its stopping rule does not bound
    the distance to the limit, so the package uses ``karcher_barycenter``;
    this one is the independent reference the tests compare it with.
    """
    atoms = [np.asarray(a, dtype=float) for a in atoms]
    m = len(atoms)
    if m == 0:
        raise NumericError("barycenter of an empty atom list")
    w = _normalized_weights(weights, m)
    if m == 1:
        return atoms[0]

    bar = atoms[0]
    mass = w[0]          # running l(k); k = 1 consumed by the start value
    k = 1
    prev_cycle = bar
    last_gap = np.inf
    for cycle in range(max_cycles):
        # First pass covers k = 2..m, later passes k = cm+1..(c+1)m, so the
        # convergence test always compares iterates at multiples of m.
        steps = m - 1 if cycle == 0 else m
        for _ in range(steps):
            k += 1
            j = (k - 1) % m          # residue 0 -> atom m -> index m-1
            mass += w[j]
            s = w[j] / mass if mass > 0 else 0.0
            bar = geodesic(bar, atoms[j], s)
        last_gap = distance(prev_cycle, bar)
        if last_gap < tol:
            return bar
        prev_cycle = bar
    warnings.warn(
        f"inductive barycenter stopped after {max_cycles} cycles; "
        f"last full-cycle move {last_gap:.3e} (tol {tol:.1e})",
        RuntimeWarning,
        stacklevel=2,
    )
    return bar


def test_sym_halves_before_adding():
    # m + m^T overflows, the sum of the halves does not
    m = np.array([[1.3e308, 1.0e308], [1.7e308, 1.3e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = sym(m)
    assert np.isfinite(s).all() and s[0, 1] == s[1, 0] == pytest.approx(1.35e308)
    # elsewhere it gives the bits of (m + m^T) / 2
    a = np.random.default_rng(3).standard_normal((50, 4, 4)) * 1e3
    assert sym(a).tobytes() == (0.5 * (a + np.swapaxes(a, -1, -2))).tobytes()


def test_as_spd_symmetrizes_and_rejects():
    m = np.array([[2.0, 0.1], [0.0, 1.0]])
    p = as_spd(m)
    assert np.allclose(p, p.T)
    with pytest.raises(NumericError):
        as_spd(np.diag([1.0, -1.0]))
    with pytest.raises(NumericError):
        as_spd(np.diag([1.0, 0.0]))
    assert np.array_equal(as_spd(np.eye(3)), np.eye(3))
    with pytest.raises(NumericError):
        as_spd(np.diag([1.0, 1e-15]))         # below the relative floor


def test_power_identity_cases():
    assert np.allclose(power(np.eye(3), 0.5), np.eye(3))
    assert np.allclose(power(np.diag([4.0, 1.0]), 0.5), np.diag([2.0, 1.0]))
    p = rand_spd(np.random.default_rng(1), 4)
    assert np.allclose(power(p, 1.0), p, atol=1e-12)
    assert np.allclose(power(p, 0.0), np.eye(4), atol=1e-12)


def test_power_negative_one_is_inverse():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5):
        p = rand_spd(rng, n)
        assert np.allclose(power(p, -1.0), np.linalg.inv(p), atol=1e-10)


def test_congruence_examples():
    rng = np.random.default_rng(3)
    p = rand_spd(rng, 3)
    q = rand_spd(rng, 3)
    assert np.allclose(congruence(np.eye(3), p), p)
    g = power(q, 0.5) @ power(p, -0.5)
    assert np.allclose(congruence(g, p), q, atol=1e-10)
    assert np.allclose(congruence(np.diag([2.0, 1.0]), np.eye(2)), np.diag([4.0, 1.0]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_kernels_equal_calls_one_matrix_at_a_time(n):
    rng = np.random.default_rng(40 + n)
    p = np.array([rand_spd(rng, n) for _ in range(4)])
    q = np.array([rand_spd(rng, n) for _ in range(4)])
    g = np.array([rand_gl(rng, n) for _ in range(4)])
    v = sym(rng.standard_normal((4, n, n)))
    stacked = (congruence(g, p), distance(p, q), lyapunov_solve(p, v))
    singles = [(congruence(g[i], p[i]), distance(p[i], q[i]), lyapunov_solve(p[i], v[i]))
               for i in range(4)]
    for got, want in zip(stacked, zip(*singles)):
        np.testing.assert_array_equal(got, np.array(want))
    assert stacked[1].shape == (4,)
    assert all(isinstance(d, float) for _, d, _ in singles)
    # one ill-conditioned matrix in the stack refuses the whole stack
    g[2] = np.diag([1.0] * (n - 1) + [0.0])
    with pytest.raises(NumericError, match="ill-conditioned"):
        congruence(g, p)
    v[1, 0, -1] += 1.0
    with pytest.raises(NumericError, match="symmetric"):
        lyapunov_solve(p, v)


def test_congruence_group_law_and_conditioning():
    rng = np.random.default_rng(4)
    p = rand_spd(rng, 3)
    g1, g2 = rand_gl(rng, 3), rand_gl(rng, 3)
    assert np.allclose(congruence(g1 @ g2, p), congruence(g1, congruence(g2, p)), atol=1e-10)
    with pytest.raises(NumericError):
        congruence(np.diag([1.0, 0.0, 1.0]), p)


def test_geodesic_endpoints_and_midpoint_symmetry():
    rng = np.random.default_rng(5)
    p = rand_spd(rng, 3)
    q = rand_spd(rng, 3)
    assert np.allclose(geodesic(p, q, 0.0), p, atol=1e-12)
    assert np.allclose(geodesic(p, q, 1.0), q, atol=1e-10)
    assert np.allclose(geodesic(p, q, 0.5), geodesic(q, p, 0.5), atol=1e-10)
    for t in (0.0, 0.3, 0.8):
        assert np.allclose(geodesic(p, p, t), p, atol=1e-12)


def test_geodesic_scalars_and_commuting_oracle():
    one = np.array([[1.0]])
    four = np.array([[4.0]])
    assert np.allclose(geodesic(one, four, 0.5), [[2.0]])
    # commuting atoms: entrywise geometric mean of eigenvalues in a shared basis
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    wa = np.array([1.0, 2.0, 5.0])
    wb = np.array([3.0, 0.5, 4.0])
    a = q @ np.diag(wa) @ q.T
    b = q @ np.diag(wb) @ q.T
    expected = q @ np.diag(np.sqrt(wa * wb)) @ q.T
    assert np.allclose(geodesic(as_spd(a), as_spd(b), 0.5), expected, atol=1e-10)


def test_log_singular_values():
    assert np.allclose(log_singular_values(np.eye(4)), np.zeros(4))
    assert np.allclose(log_singular_values(np.diag([4.0, 1.0])), [2.0, 0.0])
    rng = np.random.default_rng(7)
    g = rand_gl(rng, 4)
    oracle = 0.5 * np.log2(np.sort(np.linalg.eigvalsh(g.T @ g))[::-1])
    assert np.allclose(log_singular_values(g), oracle, atol=1e-10)
    with pytest.raises(NumericError):
        log_singular_values(np.diag([1.0, 0.0]))


def test_vectorial_distance_basics():
    rng = np.random.default_rng(8)
    p = rand_spd(rng, 3)
    assert np.allclose(vectorial_distance(p, p), np.zeros(3), atol=1e-10)
    assert np.allclose(vectorial_distance(np.array([[1.0]]), np.array([[4.0]])), [2.0])
    # d(I, p) equals the log singular vector of p
    assert np.allclose(
        vectorial_distance(np.eye(3), p), log_singular_values(p), atol=1e-10
    )
    assert distance(p, p) < 1e-10


def _congruent_pair(rng, n):
    """p = g diag(a) g^T and q = g diag(b) g^T with cond(g) < 10 and the
    entries of a and b in e^{+-9}: p #_t q = g diag(a^{1-t} b^t) g^T and the
    vectorial distance is the sorted log2(b / a), exactly."""
    while True:
        g = rng.standard_normal((n, n))
        if np.linalg.cond(g) < 10:
            break
    a, b = np.exp(rng.uniform(-9.0, 9.0, size=(2, n)))
    return g, a, b, g @ np.diag(a) @ g.T, g @ np.diag(b) @ g.T


@pytest.mark.parametrize("n", [2, 3, 5])
def test_geodesic_and_distance_of_spread_congruent_pairs(n):
    # a route through p^{-1/2} q p^{-1/2} loses about five digits here
    rng = np.random.default_rng(100 + n)
    for _ in range(50):
        g, a, b, p, q = _congruent_pair(rng, n)
        for t in (0.3, 0.7):
            exact = g @ np.diag(a ** (1 - t) * b ** t) @ g.T
            err = np.max(np.abs(geodesic(p, q, t) - exact)) / np.max(np.abs(exact))
            assert err < 1e-8
        expected = np.sort(np.log2(b / a))[::-1]
        assert np.max(np.abs(vectorial_distance(p, q) - expected)) < 1e-6


@pytest.mark.parametrize("bad", [np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
                                 np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0])])
def test_geodesic_and_distance_reject_a_non_pd_end_point(bad):
    good = np.eye(2)
    for p, q in ((bad, good), (good, bad)):
        with pytest.raises(NumericError):
            geodesic(p, q, 0.5)
        with pytest.raises(NumericError):
            vectorial_distance(p, q)


def test_majorization_order():
    # the excess is <= 0 exactly when x is majorized by y
    assert _majorization_excess(np.array([1.0, -1.0]), np.array([1.0, -1.0])) == 0.0
    assert _majorization_excess(np.array([1.0, -1.0]), np.array([2.0, -2.0])) == 0.0
    assert _majorization_excess(np.array([2.0, -2.0]), np.array([1.0, -1.0])) == 1.0
    # unequal totals fail even when partial sums are ordered
    assert _majorization_excess(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == 1.0
    # batched over leading axes, one excess per row
    x = np.array([[[1.0, -1.0], [2.0, -2.0]], [[1.0, 0.0], [0.5, 0.5]]])
    y = np.array([[[2.0, -2.0], [1.0, -1.0]], [[2.0, 0.0], [1.0, 0.0]]])
    assert _majorization_excess(x, y).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_barycenter_trivial_cases():
    rng = np.random.default_rng(9)
    p = rand_spd(rng, 3)
    assert np.allclose(inductive_barycenter([p]), p)
    assert np.allclose(inductive_barycenter([p, p, p, p]), p, atol=1e-9)


def test_barycenter_scalar_brute_force():
    # 1-D: the equal-weight barycenter minimizes the summed squared distance,
    # located at the geometric mean.  Confirm on a log grid.
    atoms = [np.array([[1.0]]), np.array([[4.0]])]
    bar = inductive_barycenter(atoms, tol=1e-12)
    assert abs(bar[0, 0] - 2.0) < 1e-8
    grid = np.exp(np.linspace(np.log(0.5), np.log(8.0), 4001))
    cost = [sum(distance(np.array([[g]]), a) ** 2 for a in atoms) for g in grid]
    assert abs(grid[int(np.argmin(cost))] - 2.0) < 1e-2


def test_barycenter_commuting_oracle():
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    spectra = [np.array([1.0, 2.0, 8.0]), np.array([4.0, 1.0, 2.0]), np.array([2.0, 4.0, 1.0])]
    atoms = [as_spd(q @ np.diag(w) @ q.T) for w in spectra]
    expected = q @ np.diag(np.exp(np.mean(np.log(spectra), axis=0))) @ q.T
    bar = inductive_barycenter(atoms, tol=1e-11)
    assert np.allclose(bar, expected, atol=1e-8)


def test_barycenter_weighted_two_atoms_is_geodesic_point():
    rng = np.random.default_rng(11)
    p, q = rand_spd(rng, 2), rand_spd(rng, 2)
    w = np.array([0.3, 0.7])
    bar = inductive_barycenter([p, q], weights=w, tol=1e-11, max_cycles=200000)
    assert np.allclose(bar, geodesic(p, q, 0.7), atol=1e-7)


def test_barycenter_nonconvergence_warns():
    rng = np.random.default_rng(12)
    atoms = [rand_spd(rng, 3) for _ in range(3)]
    with pytest.warns(RuntimeWarning, match="barycenter"):
        inductive_barycenter(atoms, tol=1e-15, max_cycles=5)


def test_barycenter_weight_validation():
    p = np.eye(2)
    with pytest.raises(NumericError):
        inductive_barycenter([p, p], weights=np.array([0.9, 0.5]))
    with pytest.raises(NumericError):
        inductive_barycenter([p, p], weights=np.array([1.5, -0.5]))


def test_barycenter_zero_weight_atom_is_ignored():
    rng = np.random.default_rng(18)
    p, q = rand_spd(rng, 2), rand_spd(rng, 2)
    bar = inductive_barycenter([p, q], weights=np.array([0.0, 1.0]), tol=1e-11)
    assert np.allclose(bar, q, atol=1e-9)


def test_lyapunov_solve():
    assert np.allclose(lyapunov_solve(np.eye(3), np.diag([2.0, 4.0, 6.0])), np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(lyapunov_solve(np.diag([2.0, 1.0]), np.diag([8.0, 2.0])), np.diag([2.0, 1.0]))
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 5):
        s = rand_spd(rng, n)
        v = sym(rng.standard_normal((n, n)))
        h = lyapunov_solve(s, v)
        assert np.linalg.norm(h @ s + s @ h - v) < 1e-10
    with pytest.raises(NumericError):
        lyapunov_solve(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_isometry_of_congruence():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = rng.integers(1, 5)
        p, q = rand_spd(rng, n), rand_spd(rng, n)
        g = rand_gl(rng, n)
        d1 = vectorial_distance(p, q)
        d2 = vectorial_distance(congruence(g, p), congruence(g, q))
        assert np.allclose(d1, d2, atol=1e-8)


def test_triangle_majorization():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = rng.integers(1, 5)
        p, q, r = (rand_spd(rng, n) for _ in range(3))
        lhs = vectorial_distance(p, q)
        rhs = vectorial_distance(p, r) + vectorial_distance(r, q)
        slack = 1e-8 * max(1.0, np.linalg.norm(lhs), np.linalg.norm(rhs))
        assert _majorization_excess(lhs, rhs) <= slack


def test_reversal_identity():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = rng.integers(1, 5)
        p, q = rand_spd(rng, n), rand_spd(rng, n)
        assert np.allclose(
            vectorial_distance(q, p), -vectorial_distance(p, q)[::-1], atol=1e-9
        )


def test_geodesic_segment_property():
    rng = np.random.default_rng(17)
    p, q = rand_spd(rng, 3), rand_spd(rng, 3)
    xi = vectorial_distance(p, q)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for i, t in enumerate(grid):
        for s in grid[i:]:
            d = vectorial_distance(geodesic(p, q, t), geodesic(p, q, s))
            assert np.allclose(d, (s - t) * xi, atol=1e-8)


def _factors(atoms):
    return np.linalg.cholesky(np.array(atoms))


def test_karcher_commuting_atoms_give_geometric_mean():
    rng = np.random.default_rng(20)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    spectra = np.exp(rng.uniform(-2.0, 2.0, size=(4, 3)))
    atoms = [sym(q @ np.diag(s) @ q.T) for s in spectra]
    expected = q @ np.diag(np.exp(np.mean(np.log(spectra), axis=0))) @ q.T
    bar, residual = karcher_barycenter(_factors(atoms))
    assert np.allclose(bar, expected, rtol=0, atol=1e-12)
    assert residual < 1e-9


def test_karcher_two_weighted_atoms_is_geodesic_point():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        p, q = rand_spd(rng, n), rand_spd(rng, n)
        bar, _ = karcher_barycenter(_factors([p, q]), weights=[0.3, 0.7], tol=1e-12)
        assert np.allclose(bar, geodesic(p, q, 0.7), rtol=0, atol=1e-10)


def test_karcher_congruence_equivariance():
    rng = np.random.default_rng(22)
    atoms = [rand_spd(rng, 3) for _ in range(4)]
    g = rand_gl(rng, 3)
    w = rng.dirichlet(np.ones(4))
    bar, _ = karcher_barycenter(_factors(atoms), weights=w, tol=1e-12)
    moved, _ = karcher_barycenter(_factors([congruence(g, a) for a in atoms]),
                                  weights=w, tol=1e-12)
    # both are within tol of their limits, which congruence maps onto each other
    assert distance(congruence(g, bar), moved) < 1e-10


def test_karcher_zero_weight_atom_is_ignored():
    rng = np.random.default_rng(23)
    p, q, r = rand_spd(rng, 2), rand_spd(rng, 2), rand_spd(rng, 2)
    bar, _ = karcher_barycenter(_factors([p, q]), weights=[0.0, 1.0], tol=1e-12)
    assert np.allclose(bar, q, rtol=0, atol=1e-10)
    bar, _ = karcher_barycenter(_factors([p, q, r]), weights=[0.5, 0.0, 0.5],
                                tol=1e-12)
    assert np.allclose(bar, geodesic(p, r, 0.5), rtol=0, atol=1e-10)


def test_karcher_batch_equals_rows_one_by_one():
    rng = np.random.default_rng(24)
    atoms = np.array([[rand_spd(rng, 3, spread=3.0) for _ in range(16)]
                      for _ in range(5)])
    bars, residuals = karcher_barycenter(_factors(atoms), tol=1e-10)
    for row, bar, residual in zip(atoms, bars, residuals):
        alone, res = karcher_barycenter(_factors(row), tol=1e-10)
        assert np.array_equal(alone, bar)
        assert res == residual


def test_karcher_weights_per_row_equal_rows_one_by_one():
    rng = np.random.default_rng(26)
    factors = _factors([[rand_spd(rng, 3, spread=2.0) for _ in range(4)] for _ in range(5)])
    weights = rng.dirichlet(np.ones(4), size=5)
    bars, residuals = karcher_barycenter(factors, weights=weights, tol=1e-11)
    for row, w, bar, residual in zip(factors, weights, bars, residuals):
        alone, res = karcher_barycenter(row, weights=w, tol=1e-11)
        assert np.array_equal(alone, bar)
        assert res == residual
    # uniform weights, per row or shared, take the path of weights=None
    uniform, _ = karcher_barycenter(factors, tol=1e-11)
    for w in (np.full(4, 0.25), np.full((5, 4), 0.25)):
        np.testing.assert_array_equal(karcher_barycenter(factors, weights=w, tol=1e-11)[0],
                                      uniform)
    with pytest.raises(NumericError, match="weights"):
        karcher_barycenter(factors, weights=weights[:3])


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("k", [3, 16, 64])
def test_karcher_residual_bounds_distance_to_barycenter(n, k):
    # half the summed squared distance is 1-strongly geodesically convex, so
    # the gradient norm the solver stops on bounds the distance to the limit
    rng = np.random.default_rng(100 * n + k)
    factors = _factors([[rand_spd(rng, n, spread=3.0) for _ in range(k)]
                        for _ in range(3)])
    ref, ref_residual = karcher_barycenter(factors, tol=1e-13)
    assert np.all(ref_residual < 1e-13)
    for tol in (1e-4, 1e-7):
        bars, residuals = karcher_barycenter(factors, tol=tol)
        assert np.all(residuals < tol)
        for bar, exact in zip(bars, ref):
            assert distance(bar, exact) <= tol


def test_karcher_clipped_nonnormal_atoms_converge_without_warning():
    # the atoms of auto:N=8 on [[2,1],[0,1/2]]: the 8 inverse-Gram atoms
    # (condition numbers up to about 6e8), and the Gram atoms of the factors
    # (M^j)^T that minimizing_metric passes, in both of its windows, nodes
    # 0..7 and 1..8 (9e9 at node 8)
    m = np.array([[2.0, 1.0], [0.0, 0.5]])
    powers = [np.linalg.matrix_power(m, j) for j in range(9)]
    gram = np.array([p.T for p in powers])
    for factors in (np.array([np.linalg.inv(p) for p in powers[:8]]), gram[:8], gram[1:]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bar, residual = karcher_barycenter(factors, tol=3e-6)
        assert residual < 3e-6
        as_spd(bar)                          # raises unless positive definite


def test_karcher_agrees_with_inductive_reference():
    rng = np.random.default_rng(25)
    atoms = [rand_spd(rng, 3, spread=0.6) for _ in range(3)]
    reference = inductive_barycenter(atoms, tol=1e-9, max_cycles=100000)
    # the inductive stopping rule does not bound its error; measure it as
    # the gradient norm at the reference, which bounds its distance to the
    # true barycenter
    root_inv = power(reference, -0.5)
    grad = np.zeros((3, 3))
    for a in atoms:
        w, u = np.linalg.eigh(sym(root_inv @ a @ root_inv))
        grad += (u * np.log(w)) @ u.T / 3.0
    reference_error = np.linalg.norm(grad) / np.log(2.0)
    bar, residual = karcher_barycenter(_factors(atoms), tol=1e-12)
    assert distance(bar, reference) <= reference_error + residual
    assert distance(bar, reference) < 1e-5


def test_karcher_shape_and_weight_validation():
    with pytest.raises(NumericError):
        karcher_barycenter(np.ones((2, 3)))
    with pytest.raises(NumericError):
        karcher_barycenter(np.array([np.eye(2)] * 2), weights=[0.9, 0.5])


def test_power_of_a_stack_of_distinct_matrices_is_its_row_by_row_power():
    rng = np.random.default_rng(48)
    for n in (1, 2, 3, 5):
        p = np.array([rand_spd(rng, n) for _ in range(12)])
        w, u = np.linalg.eigh(sym(p))
        for t in (0.5, -0.5, -1.0):
            by_stack = power(p, t)
            assert np.array_equal(by_stack, [power(row, t) for row in p])
            assert np.array_equal(by_stack, sym((u * w[..., None, :] ** t) @ np.swapaxes(u, -1, -2)))
