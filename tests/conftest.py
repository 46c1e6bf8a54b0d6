import numpy as np
import pytest

from weakkam import TorusGrid, builtin, legendre
from weakkam.expr import parse
from weakkam.grid import Field, field_from_expr
from weakkam.semigroup import stationary_solve

PHI_SRC = "sin(2*pi*x)/(2*pi)"
DPHI_SRC = "cos(2*pi*x)"


def random_field(g, rng, scale=0.5, modes=3):
    """Smooth random trigonometric polynomial on the grid."""
    xs = g.nodes
    vals = rng.normal(0.0, scale) * np.ones(g.n)
    for kmode in range(1, modes + 1):
        vals += rng.normal(0, scale / kmode) * np.cos(2 * np.pi * kmode * xs)
        vals += rng.normal(0, scale / kmode) * np.sin(2 * np.pi * kmode * xs)
    return Field(g, vals)


@pytest.fixture(scope="session")
def g64():
    return TorusGrid(64)


@pytest.fixture(scope="session")
def g128():
    return TorusGrid(128)


@pytest.fixture(scope="session")
def g256():
    return TorusGrid(256)


@pytest.fixture(scope="session")
def eikonal_cos_128(g128):
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})
    return spec, legendre(spec, g128, 49, 49)


@pytest.fixture(scope="session")
def eikonal_cos_256(g256):
    spec = builtin("eikonal", {"V": "cos(2*pi*x)"})
    return spec, legendre(spec, g256, 65, 65)


@pytest.fixture(scope="session")
def example_setup(g128):
    """The explicit worked instance: stationary solution near phi, with table."""
    spec = builtin("example_ex",
                   {"phi": PHI_SRC, "dphi": DPHI_SRC, "theta": 0.5, "zeta": 1.0})
    lt = legendre(spec, g128, 49, 49)
    phi = field_from_expr(g128, parse(PHI_SRC))
    res = stationary_solve(phi, spec, lt, dt=1e-3, tol=1e-6, T_max=40.0)
    assert res.converged
    return {"spec": spec, "lt": lt, "phi": phi, "u_minus": Field(g128, res.values), "grid": g128}
