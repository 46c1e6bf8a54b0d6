"""Periodic 1-D grids, sampled fields, interpolation and sup norms.

The unit circle [0, 1) is the spatial domain for every solver in this
package, and every formula is written for x in [0, 1).  Fields are
immutable samplings on a uniform grid; combining two fields requires
identical grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Expr

__all__ = [
    "TorusGrid",
    "Field",
    "GridMismatchError",
    "field_from_expr",
    "constant_field",
    "sup_diff",
    "lipschitz",
]


class GridMismatchError(ValueError):
    """Two fields on different grids were combined."""


@dataclass(frozen=True)
class TorusGrid:
    """n uniform nodes on the unit circle, spacing h = 1/n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 8:
            raise ValueError(f"node count must be an integer >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * self.h


@dataclass(frozen=True)
class Field:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def _check(self, other: "Field"):
        if self.grid != other.grid:
            raise GridMismatchError(f"grid mismatch: {self.grid} vs {other.grid}")

    def interp(self, x):
        """Periodic piecewise-linear interpolation; exact at grid nodes."""
        g = self.grid
        s = np.asarray(x, dtype=float) / g.h
        i0 = np.floor(s).astype(int)
        th = s - i0
        # snap to nodes so node queries are exact despite rounding in x/h
        th = np.where(th < 1e-12, 0.0, th)
        th = np.where(th > 1.0 - 1e-12, 1.0, th)
        i0 = np.mod(i0, g.n)
        i1 = np.mod(i0 + 1, g.n)
        out = self.values[i0] * (1.0 - th) + self.values[i1] * th
        if np.ndim(x) == 0:
            return float(out)
        return out

    def mean(self) -> float:
        return float(self.values.mean())


def field_from_expr(g: TorusGrid, e: Expr) -> Field:
    """Sample a formula in the single variable x at the grid nodes."""
    extra = e.variables() - {"x"}
    if extra:
        raise ValueError(f"field formula may only use x, found {sorted(extra)}")
    vals = e.evaluate({"x": g.nodes})
    vals = np.broadcast_to(np.asarray(vals, dtype=float), (g.n,))
    return Field(g, vals)


def constant_field(g: TorusGrid, c: float) -> Field:
    return Field(g, np.full(g.n, float(c)))


def sup_diff(f: Field, g: Field) -> float:
    """Discrete sup-norm distance max_i |f_i - g_i|."""
    f._check(g)
    return float(np.max(np.abs(f.values - g.values)))


def lipschitz(f: Field) -> float:
    """Discrete Lipschitz constant max |f_{i+1} - f_i| / h (periodic)."""
    d = np.abs(np.diff(f.values, append=f.values[0]))
    return float(d.max() / f.grid.h)
