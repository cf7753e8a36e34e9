"""Shared test fixtures."""
import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from restent.dynamics import BLOWUP_NORM, grid_counts, lattice_points


def sample_set(region, resolution):
    """The nodes of the uniform lattice of ``resolution`` points per axis
    (one count, or one per axis) over the box that the constraint keeps, in
    row-major order: ``lattice_points`` of the whole lattice."""
    counts = grid_counts(resolution, region.dim)
    return lattice_points(region, counts, range(int(np.prod(counts))))[0]


def _dop853_flow(system, x0, t, variational=False, record_at=None):
    """Reference propagation of a continuous-time system: scipy's DOP853 on
    all rows stacked into one state vector (rtol 1e-13, atol 1e-15), with
    the variational matrix appended per row when asked.

    Returns ``states`` and ``jacobians`` shaped like ``propagate``'s, and
    ``escape_time``: None, or the time at which the first row reaches the
    blow-up norm; the integration stops there, and states and jacobians are
    None."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    m, n = x0.shape
    y0 = x0
    if variational:
        y0 = np.concatenate([x0, np.tile(np.eye(n).ravel(), (m, 1))], axis=1)
    width = y0.shape[1]

    def field(_, y):
        rows = y.reshape(m, width)
        x = rows[:, :n]
        out = np.empty_like(rows)
        out[:, :n] = system.rhs(x)
        if variational:
            out[:, n:] = (system.jacobian(x) @ rows[:, n:].reshape(m, n, n)).reshape(m, -1)
        return out.ravel()

    def escape(_, y):
        return BLOWUP_NORM - np.linalg.norm(y.reshape(m, width)[:, :n], axis=1).max()

    escape.terminal = True
    marks = [t] if record_at is None else list(record_at)
    sol = solve_ivp(field, (0.0, t), y0.ravel(), method="DOP853", t_eval=marks,
                    events=escape, rtol=1e-13, atol=1e-15)
    if len(sol.t_events[0]):
        return SimpleNamespace(states=None, jacobians=None,
                               escape_time=float(sol.t_events[0][0]))
    ys = sol.y.T.reshape(-1, m, width)
    if record_at is None:
        ys = ys[0]
    jacs = ys[..., n:].reshape(ys.shape[:-1] + (n, n)) if variational else None
    return SimpleNamespace(states=ys[..., :n], jacobians=jacs, escape_time=None)


@pytest.fixture
def dop853():
    """The reference propagation ``_dop853_flow``."""
    return _dop853_flow


def _csv_table(path, header, rows):
    """Reference CSV writer: ``csv.writer`` with every value formatted by
    ``format(v, ".17g")``, one ``writerow`` per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") for v in row])


@pytest.fixture
def csv_table():
    """The reference CSV writer ``_csv_table``."""
    return _csv_table


def _report_tables(stem):
    """The table of ``{stem}.report.json`` and of ``{stem}.points.csv``,
    each as ``(columns, rows)`` with the rows a float array."""
    with open(f"{stem}.report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(f"{stem}.points.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    width = len(report["columns"])
    return ((report["columns"], np.array(report["per_point"], dtype=float).reshape(-1, width)),
            (header, np.array(rows, dtype=float).reshape(-1, len(header))))


@pytest.fixture
def report_tables():
    """The JSON and CSV tables of a report, ``_report_tables``."""
    return _report_tables
