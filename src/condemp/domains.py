"""Model domains: intervals and axis-aligned rectangles with a weight e^V.

The state space is either [a, b] or [a, b] x [c, d].  The reference measure
is mu(dx) = e^{V(x)} dx normalized to a probability measure; on rectangles
only V = 0 is supported.  A potential is given as a tabulated smooth function
on its own grid and is interpolated with a cubic spline where needed.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


class DomainError(ValueError):
    pass


def finite_real(v) -> bool:
    """A finite real number, not a bool (nor a JSON integer beyond floats)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _real_vector(values, what: str) -> np.ndarray:
    """A 1D list, tuple or array of finite reals, none a bool, as floats."""
    if isinstance(values, np.ndarray) and values.ndim == 1:
        values = values.tolist()
    if not (isinstance(values, (list, tuple)) and all(finite_real(v) for v in values)):
        raise DomainError(f"{what} must be a 1D list of finite real numbers")
    return np.array(values, dtype=float)


@dataclass(frozen=True)
class Potential:
    """Tabulated smooth potential V on a 1D grid covering [a, b]."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = _real_vector(self.nodes, "domain.potential.nodes")
        values = _real_vector(self.values, "domain.potential.values")
        if nodes.shape != values.shape:
            raise DomainError("potential grid and values must be 1D arrays of equal length")
        if nodes.size < 4:
            raise DomainError("potential grid too coarse (need at least 4 nodes)")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("potential grid must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @cached_property
    def spline(self) -> CubicSpline:
        """The interpolating spline, built once per potential."""
        return CubicSpline(self.nodes, self.values)

    def __call__(self, x):
        return self.spline(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Domain:
    """Interval [a, b] or rectangle [a, b] x [c, d] with boundary condition.

    Bounds are finite reals, not bools, and every axis length L keeps the
    eigenvalue scale (pi / L)^2 a positive float."""

    kind: str                      # "interval" | "rectangle"
    bounds: tuple                  # (a, b) or (a, b, c, d)
    boundary: str = DIRICHLET      # "dirichlet" | "neumann"
    potential: Potential | None = None

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.boundary not in (DIRICHLET, NEUMANN):
            raise DomainError(f"unknown boundary condition {self.boundary!r}")
        b = tuple(_real_vector(self.bounds, "domain.bounds").tolist())
        object.__setattr__(self, "bounds", b)
        if self.kind == "interval":
            if len(b) != 2:
                raise DomainError("interval needs bounds (a, b)")
            if not b[1] > b[0]:
                raise DomainError("interval requires b > a")
        else:
            if len(b) != 4:
                raise DomainError("rectangle needs bounds (a, b, c, d)")
            if not (b[1] > b[0] and b[3] > b[2]):
                raise DomainError("rectangle requires b > a and d > c")
            if self.potential is not None:
                raise DomainError("rectangle supports only zero potential")
        for L in self.lengths:
            # the lowest eigenvalue scale; a product, so an overflow reads inf, not an error
            q = (np.pi / L) * (np.pi / L)
            if not 0.0 < q < np.inf:
                raise DomainError(f"domain.bounds give an axis of length {L!r}: "
                                  f"(pi/L)^2 = {q!r} is outside the float range")
        if self.potential is not None:
            lo, hi = self.potential.nodes[0], self.potential.nodes[-1]
            if lo > b[0] + 1e-12 or hi < b[1] - 1e-12:
                raise DomainError("potential grid must cover the whole interval")

    @property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2

    @property
    def axes(self) -> tuple:
        """(lo, hi) per axis."""
        return tuple(zip(self.bounds[::2], self.bounds[1::2]))

    @property
    def lengths(self) -> tuple:
        return tuple(hi - lo for lo, hi in self.axes)

    def potential_values(self, x) -> np.ndarray:
        """V evaluated at 1D nodes x (zero when no potential is set)."""
        x = np.asarray(x, dtype=float)
        if self.potential is None:
            return np.zeros_like(x)
        return self.potential(x)

    def contains_interior(self, point) -> bool:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return p.size >= self.dim and all(lo < x < hi for x, (lo, hi) in zip(p, self.axes))

    def to_dict(self) -> dict:
        doc = {"kind": self.kind, "bounds": list(self.bounds), "boundary": self.boundary}
        if self.potential is not None:
            doc["potential"] = {
                "nodes": self.potential.nodes.tolist(),
                "values": self.potential.values.tolist(),
            }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Domain":
        pot = None
        if doc.get("potential") is not None:
            pot = Potential(doc["potential"]["nodes"], doc["potential"]["values"])
        return cls(kind=doc["kind"], bounds=doc["bounds"],
                   boundary=doc.get("boundary", DIRICHLET), potential=pot)


def unit_interval(boundary: str = DIRICHLET, potential: Potential | None = None) -> Domain:
    return Domain(kind="interval", bounds=(0.0, 1.0), boundary=boundary, potential=potential)


def rectangle(a: float, b: float, c: float, d: float, boundary: str = DIRICHLET) -> Domain:
    return Domain(kind="rectangle", bounds=(a, b, c, d), boundary=boundary)
