"""Floating-point quaternion scalar type and the small algebra built on it.

Coordinates follow the 1, i, j, k basis.  The unit check is tolerant;
there is no exact-rational mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tol import UNIT_NORM


@dataclass(frozen=True)
class Quaternion:
    """Quaternion w + x*i + y*j + z*k with float64 coordinates."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion | float") -> "Quaternion":
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        # Hamilton product, i*j = k and cyclic; order matters.
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def __truediv__(self, other: float) -> "Quaternion":
        return self * (1.0 / other)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self) -> "Quaternion":
        return self / self.norm()

    # -- structure --------------------------------------------------------

    def is_unit(self) -> bool:
        """|q| = 1 within UNIT_NORM; False when a coordinate is NaN."""
        return abs(self.norm() - 1.0) <= UNIT_NORM

    # -- conversions ------------------------------------------------------

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(arr) -> "Quaternion":
        w, x, y, z = (float(v) for v in arr)
        return Quaternion(w, x, y, z)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def parse_quaternion(text: str) -> Quaternion:
    """Parse a literal ``(w,x,y,z)``; the parentheses are optional."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated fields, got {text!r}")
    w, x, y, z = (float(p) for p in parts)
    return Quaternion(w, x, y, z)


def format_quaternion(q: Quaternion) -> str:
    """Render ``(w,x,y,z)`` with 17 significant digits, enough for a
    bit-exact round trip."""
    return "(" + ",".join("%.17g" % v for v in (q.w, q.x, q.y, q.z)) + ")"
