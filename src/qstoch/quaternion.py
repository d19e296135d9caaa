"""Floating-point quaternion scalar type and the small algebra built on it.

Coordinates follow the 1, i, j, k basis.  All comparisons are tolerant;
there is no exact-rational mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitConjugator, NotPure

UNIT_TOL = 1e-9
PURE_TOL = 1e-9


@dataclass(frozen=True)
class Quaternion:
    """Quaternion w + x*i + y*j + z*k with float64 coordinates."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Quaternion | float") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other: "Quaternion | float") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other: "Quaternion | float") -> "Quaternion":
        return _coerce(other) - self

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

    def __rmul__(self, other: float) -> "Quaternion":
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, other: "Quaternion | float") -> "Quaternion":
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        return self * other.inverse()

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def normalized(self) -> "Quaternion":
        return self / self.norm()

    # -- structure --------------------------------------------------------

    @property
    def scalar_part(self) -> float:
        return self.w

    def pure_part(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def pure_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_pure(self, tol: float = PURE_TOL) -> bool:
        return abs(self.w) <= tol

    def is_unit(self, tol: float = UNIT_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def is_complex(self, tol: float = PURE_TOL) -> bool:
        """True when the j and k coordinates vanish."""
        return abs(self.y) <= tol and abs(self.z) <= tol

    def is_real(self, tol: float = PURE_TOL) -> bool:
        return abs(self.x) <= tol and abs(self.y) <= tol and abs(self.z) <= tol

    def approx_eq(self, other: "Quaternion", tol: float = 1e-9) -> bool:
        return (self - _coerce(other)).norm() <= tol

    # -- conversions ------------------------------------------------------

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(arr) -> "Quaternion":
        w, x, y, z = (float(v) for v in arr)
        return Quaternion(w, x, y, z)

    @staticmethod
    def from_complex(c: complex) -> "Quaternion":
        return Quaternion(c.real, c.imag, 0.0, 0.0)

    def __str__(self) -> str:
        return format_quaternion(self)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _coerce(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value), 0.0, 0.0, 0.0)
    raise TypeError(f"cannot interpret {value!r} as a quaternion")


def mul(q: Quaternion, r: Quaternion) -> Quaternion:
    """Hamilton product q*r.  Not commutative."""
    return _coerce(q) * _coerce(r)


def pure_part(q: Quaternion) -> Quaternion:
    """Drop the scalar coordinate."""
    return _coerce(q).pure_part()


def conjugate_by(q: Quaternion, x: Quaternion) -> Quaternion:
    """Return x*q*x^-1 for a unit-norm conjugator x.

    Preserves the norm and the scalar part of q.
    """
    q, x = _coerce(q), _coerce(x)
    if abs(x.norm() - 1.0) > UNIT_TOL:
        raise NonUnitConjugator(f"|x| = {x.norm()!r} is not 1 within {UNIT_TOL}")
    return x * q * x.conjugate()


def pure_dot_cross(p: Quaternion, q: Quaternion) -> tuple[float, Quaternion]:
    """Euclidean dot and cross product of two pure quaternions.

    Satisfies p*q = -dot + cross as quaternions.
    """
    p, q = _coerce(p), _coerce(q)
    if not p.is_pure() or not q.is_pure():
        raise NotPure("pure_dot_cross requires pure quaternions")
    dot = p.x * q.x + p.y * q.y + p.z * q.z
    cross = Quaternion(
        0.0,
        p.y * q.z - p.z * q.y,
        p.z * q.x - p.x * q.z,
        p.x * q.y - p.y * q.x,
    )
    return dot, cross


def aligning_conjugator(q: Quaternion, tol: float = PURE_TOL) -> Quaternion:
    """Unit x such that x*q*x^-1 is complex with nonnegative i coordinate.

    Conjugation rotates the pure part; x implements the rotation taking the
    pure direction of q onto the i axis.  Returns 1 when q is already real.
    """
    q = _coerce(q)
    pn = q.pure_norm()
    if pn <= tol:
        return ONE
    vx, vy, vz = q.x / pn, q.y / pn, q.z / pn
    c = vx  # cosine of the angle to the i axis
    if c >= 1.0 - 1e-15:
        return ONE
    if c <= -1.0 + 1e-15:
        return J  # half turn about j sends i to -i
    # axis = v x i, normalized; rotation by angle arccos(c) about it maps v to i.
    ax, ay, az = 0.0, vz, -vy
    an = math.hypot(ay, az)
    ay, az = ay / an, az / an
    half_c = math.sqrt((1.0 + c) / 2.0)
    half_s = math.sqrt((1.0 - c) / 2.0)
    return Quaternion(half_c, half_s * ax, half_s * ay, half_s * az)


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


def format_quaternion(q: Quaternion, digits: int = 17) -> str:
    """Render ``(w,x,y,z)`` with enough digits for a bit-exact round trip."""
    fmt = f"%.{digits}g"
    return "(" + ",".join(fmt % v for v in (q.w, q.x, q.y, q.z)) + ")"
