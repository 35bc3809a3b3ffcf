"""CSV and SVG emission: the one-`%` formatters against the per-value
formatters they replace (`oracles.py`), bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vibrolang import svg
from vibrolang.cli import _csv
from vibrolang.microsim import Trajectory, TrajectoryConfig, simulate
from vibrolang.model import DiscreteBath

from oracles import csv_per_value, polyline_points, trajectory_csv_per_row

EXTREMES = [0.0, -0.0, 5e-324, -5e-324,
            1.7976931348623157e308, -1.7976931348623157e308]


def _with_neighbours(values):
    """Each value and the floats just below and just above it."""
    v = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(v, -np.inf), v,
                           np.nextafter(v, np.inf)])


def _halfway_12():
    """Decimal strings whose 13th significant digit is a 5, so that `%.12e`
    rounds on it, at exponents across the float range."""
    rng = np.random.default_rng(11)
    return _with_neighbours([
        float("%s%d.%012d5e%d" % (sign, lead, frac, exp))
        for sign, lead, frac, exp in zip(
            rng.choice(["", "-"], 200), rng.integers(1, 10, 200),
            rng.integers(0, 10**12, 200), rng.integers(-300, 300, 200))])


def _halfway_2():
    """x.xx5 values, on which a two-decimal format rounds."""
    return _with_neighbours(np.arange(-300, 300) / 100.0 + 0.005)


def _csv_tables():
    rng = np.random.default_rng(5)
    wide = rng.standard_normal(400) * 10.0 ** rng.uniform(-300, 300, 400)
    h12, h2 = _halfway_12(), _halfway_2()
    return {
        "extremes": [EXTREMES, EXTREMES[::-1]],
        "halfway-12th": [h12, h12[::-1]],
        "halfway-2nd": [h2, h2[::-1], h2 * 1e-3],
        "nonfinite": [[np.nan, np.inf, -np.inf, 1.0],
                      [1.0, -np.inf, np.nan, np.inf]],
        "wide": [wide[:200], wide[200:]],
        "zero-rows": [np.empty(0), np.empty(0), np.empty(0)],
        "one-row": [[0.1], [-2.5e-7], [3.0]],
        "one-column": [wide],
    }


@pytest.mark.parametrize("name", list(_csv_tables()))
def test_csv_matches_per_value_oracle(name):
    columns = _csv_tables()[name]
    header = ",".join("c%d" % i for i in range(len(columns)))
    assert _csv(header, columns) == csv_per_value(header, columns)


def _csv_equal(values, cols=1):
    table = np.asarray(values, dtype=float).reshape(-1, cols)
    columns = list(table.T)
    return _csv("h", columns) == csv_per_value("h", columns)


def test_csv_powers_of_ten_and_neighbours():
    powers = [float("1e%d" % k) for k in range(-307, 309)]
    assert _csv_equal(_with_neighbours(powers), cols=3)


def test_csv_rounding_up_into_the_next_decade():
    # 9.9999999999995e k is a decimal tie at the 13th digit: it and its
    # neighbours round up to 1.000000000000e(k+1) or stay below, by the
    # float's exact value; 9.99999999999996e k always rounds up
    ties = [float("9.9999999999995e%d" % k) for k in range(-300, 300)]
    ups = [float("9.99999999999996e%d" % k) for k in range(-300, 300)]
    assert _csv_equal(np.concatenate([_with_neighbours(ties), ups]), cols=2)


def test_csv_exponent_width_edges_and_subnormals():
    edges = [float("%se%d" % (m, e)) for m in ("1", "1.5", "1.797693134862")
             for e in (-100, -99, 99, 100, 307, 308)]
    subnormals = 5e-324 * 2.0 ** np.arange(0, 53)
    values = np.concatenate([_with_neighbours(edges), subnormals,
                             -subnormals, [2.2250738585072014e-308]])
    assert _csv_equal(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 4))
@example([np.nan, np.inf, -np.inf, -0.0], 2)  # non-finite
@example([1e-295, -5e-324, 1e300, -1.7976931348623157e308], 1)  # |x| range
@example([1.0000000000005, 2.5e-7, 1.2345678901235e100], 3)  # near 1/2
@example([9.99999999999996e-3, -9.99999999999996e5], 2)  # M reaches 10^13
@example([1e23, 1e-5, 0.1], 1)  # log10 one off
def test_csv_property(values, cols):
    values = values[:len(values) // cols * cols]
    assert _csv_equal(values, cols)


def _points_equal(x, y):
    def same(v):
        return v
    return (svg._points(x, y, same, same)
            == polyline_points(x, y, same, same))


@pytest.mark.parametrize("digits", [1, 2, 3, 4])
def test_svg_halfway_pixels_by_integer_digits(digits):
    # x.xx5 at integer parts of 1 to 4 digits, negative too, with neighbours
    lead = 10 ** (digits - 1)
    px = _with_neighbours(np.arange(lead, lead + 300) + 0.005
                          + np.arange(300) % 100 / 100.0)
    assert _points_equal(px, -px[::-1])
    assert _points_equal(-px, px)


def test_svg_negative_and_exact_tie_pixels():
    ties = np.arange(-4000, 4000) / 8.0  # binary ties at the 3rd decimal
    small = np.array([-0.0, 0.0, -0.004, -0.005, -0.0051, 0.005, 5e-324])
    assert _points_equal(ties, ties[::-1])
    assert _points_equal(small, -small)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats()), max_size=40))
@example([(np.nan, np.inf), (-np.inf, -0.0)])  # non-finite
@example([(1e8, -99999999.995), (1e11, -1e11)])  # too wide for the path
@example([(1e20, 0.125), (71.375, -0.375)])  # wider than a slot; ties
def test_svg_points_property(pairs):
    x = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    assert _points_equal(x, y)


def _trajectory(m, n, rng):
    """A Trajectory of m molecules and n samples with special values mixed
    into its columns."""
    def col(*shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-20, 20, shape)
        flat = a.reshape(-1)
        flat[:min(len(flat), 6)] = EXTREMES[:min(len(flat), 6)]
        return a

    shape = (n,) if m == 1 else (m, n)
    pair = m == 2
    return Trajectory(times=np.arange(n) * 0.1, Q=col(*shape), P=col(*shape),
                      E=col(*shape), e_plus=col(n) if pair else None,
                      e_minus=col(n) if pair else None)


@pytest.mark.parametrize("m, n", [(1, 50), (2, 50), (3, 50), (2, 1),
                                  (2, 0)])
def test_trajectory_csv_matches_per_row_oracle(m, n):
    traj = _trajectory(m, n, np.random.default_rng(m * 100 + n))
    assert traj.to_csv() == trajectory_csv_per_row(traj)


def test_simulated_pair_trajectory_csv_matches_oracle():
    bath = DiscreteBath(n_cells=20, k0=12.25, m0=1.0, dk=2.0706279240848657)
    traj = simulate(1.0, bath, (-1, 1),
                    TrajectoryConfig(t_max=4.0, q0=(1.0, -1.0)))
    text = traj.to_csv()
    assert text.split(b"\n", 1)[0] == b"t,Q1,P1,Q2,P2,E1,E2,Eplus,Eminus"
    assert text == trajectory_csv_per_row(traj)


def _svg_both(monkeypatch, curves, **kw):
    """The plot as line_plot renders it, and as it renders with the
    per-point polyline formatter in place."""
    fast = svg.line_plot(curves, **kw)
    monkeypatch.setattr(svg, "_points", polyline_points)
    return fast, svg.line_plot(curves, **kw)


def test_svg_halfway_points_match_oracle(monkeypatch):
    # x on [0, 1] maps to px = 70 + 550 x, so these x land on x.xx5 pixels
    px = _halfway_2() + 370.0
    x = np.concatenate([[0.0, 1.0], (px - 70.0) / 550.0, [-0.0, 5e-324]])
    y = np.sin(40.0 * x)
    fast, slow = _svg_both(monkeypatch, [(x, y, "a"), (x, -y, "")])
    assert "<polyline" in fast and fast == slow


def test_svg_logy_drops_non_positive_points(monkeypatch):
    x = np.linspace(-3.0, 3.0, 601)
    y = np.exp(-x * x) * np.cos(5.0 * x)
    y[::7] = 0.0
    y[::11] = np.nan
    y[5] = np.inf
    fast, slow = _svg_both(monkeypatch, [(x, y, "E"), (x, y * 1e-6, "F")],
                           xlabel="t", ylabel="E", logy=True)
    assert fast == slow


def test_svg_single_point_curve_matches_oracle(monkeypatch):
    fast, slow = _svg_both(monkeypatch, [([0.25], [1e-3], "one")])
    assert fast == slow
