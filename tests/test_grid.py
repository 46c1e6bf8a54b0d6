import numpy as np
import pytest

from conftest import random_field
from weakkam.expr import parse
from weakkam.grid import (Field, GridMismatchError, TorusGrid, constant_field,
                          field_from_expr, lipschitz, sup_diff)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(4)
    with pytest.raises(ValueError):
        TorusGrid(16.0)
    g = TorusGrid(16)
    assert g.h == 0.0625
    assert g.nodes[3] == 0.1875


def test_field_from_expr_zero():
    g = TorusGrid(8)
    f = field_from_expr(g, parse("0"))
    assert np.all(f.values == 0.0)


def test_field_from_expr_cosine_symmetry():
    # four equally spaced nodes hit the quarter-period values of the cosine
    g = TorusGrid(8)
    f = field_from_expr(g, parse("cos(2*pi*x)"))
    assert f.values[0] == pytest.approx(1.0, abs=1e-12)
    assert f.values[2] == pytest.approx(0.0, abs=1e-12)
    assert f.values[4] == pytest.approx(-1.0, abs=1e-12)
    assert f.values[6] == pytest.approx(0.0, abs=1e-12)


def test_field_from_expr_identity_nodes():
    g = TorusGrid(8)
    f = field_from_expr(g, parse("x"))
    assert np.allclose(f.values, np.arange(8) / 8)


def test_field_rejects_other_variables():
    g = TorusGrid(8)
    with pytest.raises(ValueError, match="only use x"):
        field_from_expr(g, parse("x+p"))


def test_interp_constant():
    g = TorusGrid(8)
    f = constant_field(g, 3.25)
    for x in (0.0, 0.01, 0.999, -4.7, 13.2):
        assert f.interp(x) == pytest.approx(3.25)


def test_interp_midpoint():
    g = TorusGrid(8)
    vals = np.zeros(8)
    vals[1] = 1.0
    f = Field(g, vals)
    # halfway between nodes 0 and 1: convex combination of 0 and 1
    assert f.interp(g.h / 2) == pytest.approx(0.5)


def test_interp_against_analytic_cosine():
    g = TorusGrid(64)
    f = field_from_expr(g, parse("cos(2*pi*x)"))
    x = 0.013
    exact = np.cos(2 * np.pi * x)
    # error bound h^2 (2 pi)^2 / 8
    assert abs(f.interp(x) - exact) < 5e-3


def test_interp_exact_at_nodes():
    g = TorusGrid(32)
    rng = np.random.default_rng(0)
    f = random_field(g, rng)
    for i in range(g.n):
        assert f.interp(g.nodes[i]) == f.values[i]


def test_interp_monotone_in_node_values():
    g = TorusGrid(16)
    rng = np.random.default_rng(1)
    f = random_field(g, rng)
    xs = rng.uniform(0, 1, 200)
    base = f.interp(xs)
    for k in (0, 5, 15):
        bumped_vals = f.values.copy()
        bumped_vals[k] += 1.0
        bumped = Field(g, bumped_vals)
        assert np.all(bumped.interp(xs) >= base - 1e-15)


def test_sup_diff_trivials():
    g = TorusGrid(8)
    rng = np.random.default_rng(2)
    f = random_field(g, rng)
    assert sup_diff(f, f) == 0.0
    assert sup_diff(f, Field(g, f.values + 0.3)) == pytest.approx(0.3)


def test_sup_diff_enumerated():
    g = TorusGrid(8)
    vals = np.zeros(8)
    vals[:3] = [0.0, 2.0, -1.0]
    f = Field(g, vals)
    zero = constant_field(g, 0.0)
    assert sup_diff(f, zero) == 2.0


def test_sup_diff_metric_properties():
    g = TorusGrid(16)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f, gg, h = (random_field(g, rng) for _ in range(3))
        assert sup_diff(f, gg) == pytest.approx(sup_diff(gg, f))
        assert sup_diff(f, h) <= sup_diff(f, gg) + sup_diff(gg, h) + 1e-14


def test_grid_mismatch():
    f = constant_field(TorusGrid(8), 1.0)
    g = constant_field(TorusGrid(16), 1.0)
    with pytest.raises(GridMismatchError):
        sup_diff(f, g)


def test_field_rejects_nonfinite():
    g = TorusGrid(8)
    with pytest.raises(ValueError):
        Field(g, [np.inf] + [0.0] * 7)


def test_field_values_readonly():
    g = TorusGrid(8)
    f = constant_field(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_lipschitz():
    g = TorusGrid(8)
    vals = np.zeros(8)
    vals[3] = 0.5
    assert lipschitz(Field(g, vals)) == pytest.approx(0.5 / g.h)
