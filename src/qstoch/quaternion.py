"""Floating-point quaternions: the one algebra, and a value type.

Coordinates follow the 1, i, j, k basis.  Every product, conjugate and norm
runs on float arrays whose last axis holds the four coordinates: qmul,
qconj, qnormsq and qnorm broadcast over leading axes.  Quaternion is the
value type that parsing, formatting and family parameters need; it does no
arithmetic.  The unit check is tolerant; there is no exact-rational mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tol import UNIT_NORM


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (...,4) coordinate arrays, broadcasting; i*j = k
    and cyclic, so order matters."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qnormsq(a: np.ndarray) -> np.ndarray:
    return (a * a).sum(axis=-1)


def qnorm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(qnormsq(a))


@dataclass(frozen=True)
class Quaternion:
    """Quaternion w + x*i + y*j + z*k with float64 coordinates."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def is_unit(self) -> bool:
        """|q| = 1 within UNIT_NORM; False when a coordinate is NaN or the
        norm overflows."""
        with np.errstate(over="ignore"):
            return abs(qnorm(self.as_array()) - 1.0) <= UNIT_NORM

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)


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
