"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s to see them).

Criterion 4 contains one deliberately strict assertion that fails on this
matrix: for M = [[2,1],[0,2]] the two singular values multiply to |det M| = 4
and both exceed 1, so the identity-metric one-step bound equals exactly
2 bits/step rather than exceeding it.  The assertion is kept as stated; the
measured value is printed either way.
"""
import numpy as np
import pytest

from restent.dynamics import (
    CompactSet,
    identity_system,
    invariance_spot_check,
    lanford_region,
    lanford_system,
    linear_map_system,
    linear_ode_system,
    sample_set,
)
from restent.entropy import (
    bound,
    lanford_closed_form,
    lanford_metric,
    lyapunov_oracle,
    metric_change_constant,
    minimizing_metric,
    proximate_entropy,
)
from restent.metrics import MetricField
from restent.props import run_property_suite

A_VALUES = (2.0 / 3.0, 0.75, 1.0)
A_HET = 2.0 / 3.0
UNIT_BOX_2 = CompactSet(bounds=((-1.0, 1.0), (-1.0, 1.0)))
JORDAN = np.array([[2.0, 1.0], [0.0, 2.0]])


@pytest.fixture(scope="module")
def lanford_oracle_result():
    system = lanford_system(A_HET)
    region = lanford_region(A_HET)
    return lyapunov_oracle(system, region, horizons=(5.0, 10.0, 20.0, 40.0),
                           resolution=11)


@pytest.fixture(scope="module")
def jordan_sweep():
    system = linear_map_system(JORDAN)
    bounds = {}
    for n in (1, 2, 4, 8, 16):
        metric = minimizing_metric(system, n, tol=1e-5)
        bounds[n] = bound(system, UNIT_BOX_2, metric, resolution=2).bound
    return bounds


def test_criterion_1_lanford_reproduction():
    for a in A_VALUES:
        system = lanford_system(a)
        region = lanford_region(a)
        if abs(a - A_HET) < 1e-12:
            inv = invariance_spot_check(system, region, 9, 5.0)
            assert inv.fraction == 0.0
        report = bound(system, region, lanford_metric(a), resolution=21,
                       refine=True)
        reference = lanford_closed_form(a)
        assert report.bound == pytest.approx(reference, abs=1e-3)
        for row in report.per_point:
            x, y, z = row[:3]
            shift = 2.0 * (a * z - z * z - x * x - y * y) / a
            lam1 = 2.0 * (a - 2.0 * z) + shift
            lam23 = 2.0 * (a - 1.0 + z) + shift
            expected = np.sort([lam1, lam23, lam23])[::-1]
            assert np.allclose(row[3:6], expected, atol=1e-8)
        print(f"criterion 1 PASS (a={a:.4g}): bound {report.bound:.6f} vs "
              f"reference {reference:.6f}, spectra match closed forms")


def test_criterion_2_lower_upper_pinch():
    for a in A_VALUES:
        system = lanford_system(a)
        lower = proximate_entropy(system, np.array([0.0, 0.0, a]))
        reference = lanford_closed_form(a)
        assert lower == pytest.approx(reference, abs=1e-10)
        print(f"criterion 2 PASS (a={a:.4g}): equilibrium estimate "
              f"{lower:.12f} = closed form {reference:.12f}")


def test_criterion_3_oracle_convergence(lanford_oracle_result):
    reference = lanford_closed_form(A_HET)
    res = lanford_oracle_result
    assert res.horizons[-1] == 40.0
    assert abs(res.values[-1] - reference) <= 0.05
    assert abs(res.aitken - reference) <= 0.01
    print(f"criterion 3 PASS: oracle(40) {res.values[-1]:.6f}, aitken "
          f"{res.aitken:.6f}, reference {reference:.6f}")


def test_criterion_4_linear_exactness_and_sweep(jordan_sweep):
    diag = linear_map_system(np.diag([2.0, 0.5]))
    b = bound(diag, UNIT_BOX_2, MetricField.identity(2), resolution=3).bound
    orc = lyapunov_oracle(diag, UNIT_BOX_2, horizons=(3, 9, 27), resolution=3)
    assert b == pytest.approx(1.0, abs=1e-12)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in orc.values)
    bounds = [jordan_sweep[n] for n in (1, 2, 4, 8, 16)]
    assert abs(bounds[-1] - 2.0) < 0.05
    assert all(b2 <= b1 + 0.01 for b1, b2 in zip(bounds, bounds[1:]))
    print(f"criterion 4 PASS (exactness + sweep): diagonal bound {b:.12f}, "
          f"sweep {['%.4f' % v for v in bounds]} -> 2")


def test_criterion_4_identity_metric_strict_overshoot():
    system = linear_map_system(JORDAN)
    b = bound(system, UNIT_BOX_2, MetricField.identity(2), resolution=2).bound
    print(f"criterion 4 strict-overshoot check: identity-metric bound "
          f"{b!r} vs 2.0")
    assert b > 2.0, (
        f"identity-metric bound is {b!r}: the singular values of [[2,1],[0,2]] "
        "multiply to |det| = 4 with both above 1, so the bound equals 2 "
        "exactly and cannot strictly exceed it")


def test_criterion_5_property_suite():
    results = run_property_suite(seed=42, instances=200, dims=(1, 2, 3, 5))
    failures = [r for r in results if not r.passed]
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"criterion 5 {flag}: {r.name} worst {r.worst:.3e} "
              f"tol {r.tolerance:.1e} ({r.instances} instances)")
    assert not failures, [(r.name, r.worst, r.tolerance) for r in failures]


def test_criterion_6_bound_dominates_oracle(lanford_oracle_result):
    cases = []

    ident = identity_system(2)
    rep = bound(ident, UNIT_BOX_2, MetricField.identity(2), resolution=3)
    orc = lyapunov_oracle(ident, UNIT_BOX_2, horizons=(2, 5, 9), resolution=3)
    cases.append(("identity-map/identity", rep, orc, 0.0))

    diag = linear_map_system(np.diag([2.0, 0.5]))
    rep = bound(diag, UNIT_BOX_2, MetricField.identity(2), resolution=3)
    orc = lyapunov_oracle(diag, UNIT_BOX_2, horizons=(3, 9, 27), resolution=3)
    cases.append(("diag-map/identity", rep, orc, 0.0))

    jordan = linear_map_system(JORDAN)
    rep = bound(jordan, UNIT_BOX_2, MetricField.identity(2), resolution=2)
    orc = lyapunov_oracle(jordan, UNIT_BOX_2, horizons=(4, 8, 16), resolution=2)
    cases.append(("jordan-map/identity", rep, orc, 0.0))
    metric8 = minimizing_metric(jordan, 8, tol=1e-5)
    rep8 = bound(jordan, UNIT_BOX_2, metric8, resolution=2)
    c8 = metric_change_constant(metric8, sample_set(UNIT_BOX_2, 2))
    cases.append(("jordan-map/auto:N=8", rep8, orc, c8))

    saddle = linear_ode_system(np.diag([1.0, -1.0]))
    rep = bound(saddle, UNIT_BOX_2, MetricField.identity(2), resolution=3)
    orc = lyapunov_oracle(saddle, UNIT_BOX_2, horizons=(2.0, 4.0, 8.0),
                          resolution=3)
    cases.append(("saddle-ode/identity", rep, orc, 0.0))

    lan = lanford_system(A_HET)
    region = lanford_region(A_HET)
    pts = sample_set(region, 11)
    rep = bound(lan, region, lanford_metric(A_HET), resolution=11)
    c_ad = metric_change_constant(lanford_metric(A_HET), pts)
    cases.append(("lanford/adapted", rep, lanford_oracle_result, c_ad))
    rep_id = bound(lan, region, MetricField.identity(3), resolution=11)
    cases.append(("lanford/identity", rep_id, lanford_oracle_result, 0.0))

    for name, rep, orc, c_metric in cases:
        for t, val in zip(orc.horizons, orc.values):
            slack = 1e-6 + c_metric / t
            assert rep.bound + slack >= val, (
                f"{name}: bound {rep.bound} + slack {slack} < oracle({t}) {val}")
    print(f"criterion 6 PASS: bound >= oracle - slack on {len(cases)} "
          f"system/metric pairs at every tested horizon")


def test_criterion_7_asymptotic_claims_covered_by_trends(
        lanford_oracle_result, jordan_sweep):
    # Exact infimum attainment is an asymptotic statement; what is checkable
    # at desk scale is that the surrogates of criteria 3-4 move the right way.
    reference = lanford_closed_form(A_HET)
    gaps = [abs(v - reference) for v in lanford_oracle_result.values]
    assert gaps[-1] <= gaps[0] + 1e-9
    bounds = [jordan_sweep[n] for n in (1, 2, 4, 8, 16)]
    assert abs(bounds[-1] - 2.0) <= abs(bounds[0] - 2.0) + 0.01
    assert all(b2 <= b1 + 0.01 for b1, b2 in zip(bounds, bounds[1:]))
    print("criterion 7 PASS: no equality asserted for the infimum; monotone "
          "convergence surrogates from criteria 3-4 hold")
