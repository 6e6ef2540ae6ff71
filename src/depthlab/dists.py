"""Input distributions as explicit uniform supports.

Three variants: uniform on [0,1] (a midpoint quadrature grid), exhaustive
enumeration of {+-1}^n, and the induced pair distribution on
{+-1}^n x {z-set}.  Every support is uniform: each of its m points has
weight 1/m, so every expectation in the lab is the mean of the m values.
A distribution stores its points and nothing else.  The Boolean side
(``boolfn``, ``sq``) takes none: a table's columns are its own support.
Only kernel-hardness builds the sign enumeration, and only for
``FeatureMap.__call__``, which checks the feature table's read against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import enumerate_signs

__all__ = [
    "InputDistribution",
    "uniform_cube",
    "uniform_signs",
    "induced_pair",
]

MAX_ENUM_BITS = 20  # enumeration cap: at most 2^20 support points
MAX_GRID_POINTS = 2**24  # GD grid cap (the default 2^(n+4) grid at n = 20): 128 MiB of points


@dataclass(frozen=True)
class InputDistribution:
    kind: str
    points: np.ndarray  # (m, dim); int8 for sign domains, float64 otherwise

    def __post_init__(self):
        self.points.flags.writeable = False

    @property
    def weight(self) -> float:
        """The weight 1/m of each of the m support points."""
        return 1.0 / self.n_points

    @property
    def is_full_enumeration(self) -> bool:
        """Whether the points are the canonical enumeration of {+-1}^n."""
        return self.kind == "uniform_signs"

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def points_float(self) -> np.ndarray:
        """The points as float64: the points themselves on a float grid, else a copy."""
        return np.asarray(self.points, dtype=np.float64)


def uniform_cube(grid: int) -> InputDistribution:
    """Uniform on [0,1] as the fixed midpoint quadrature grid of ``grid`` points.

    The grid is midpoint so dyadic breakpoints of square-wave targets are
    never sampled exactly.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    x = np.arange(grid, dtype=np.float64)  # built in place: one grid-sized array
    x += 0.5
    x /= grid
    return InputDistribution("uniform_cube", x[:, None])


def uniform_signs(n: int) -> InputDistribution:
    """Exhaustive uniform enumeration of {+-1}^n, n <= 20."""
    if n > MAX_ENUM_BITS:
        raise ValueError(f"enumeration cap is n <= {MAX_ENUM_BITS}")
    return InputDistribution("uniform_signs", enumerate_signs(n))


def induced_pair(n: int, zset: np.ndarray) -> InputDistribution:
    """Uniform on {+-1}^n x {z^(1),...,z^(d)}: rows are (x, z) concatenations.

    x ranges over the full sign enumeration (outer loop) and z over the
    given set (inner loop), each pair weighted 1/(2^n * d).
    """
    zset = np.asarray(zset, dtype=np.int8)
    d = zset.shape[0]
    if zset.ndim != 2 or zset.shape[1] != n or not np.all(np.abs(zset) == 1):
        raise ValueError("zset must be a (d, n) matrix of +-1")
    if n + int(np.ceil(np.log2(max(d, 1)))) > MAX_ENUM_BITS + 4:
        raise ValueError("induced pair support too large")
    X = enumerate_signs(n)
    pts = np.concatenate(
        [np.repeat(X, d, axis=0), np.tile(zset, (2**n, 1))], axis=1
    )
    return InputDistribution("induced_pair", pts)
