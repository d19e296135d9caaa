"""Quaternionic Hadamard families.

Two 4x4 families (a two-parameter one with a real entry and a generic
three-parameter one) and the six 3x3 families that are unbiased to the
Fourier matrix.  The 3x3 matrices share the frame

    [[1, 1,   1  ],
     [a, a*z, a*z^2],
     [b, b*z^2, b*z]]

with z = -1/2 + s*i + t*j on the circle s^2 + t^2 = 3/4; such a frame is
automatically Hadamard, and the families pin down which (a, b, z) are also
unbiased to the Fourier matrix.  Array-valued builders (suffix _arr) power
the grid sweeps in the MUB search; family3_matrix, p_value, generic3 and
special3 are their one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DegenerateP, NoRealSolution, WrongSize
from .qmatrix import QMatrix, qconj, qmul
from .quaternion import I as QI
from .quaternion import ONE, Quaternion

R32 = math.sqrt(3.0) / 2.0
OMEGA = Quaternion(-0.5, R32, 0.0, 0.0)

FAMILY_IDS = ("generic", "s1", "s2", "s3", "s4", "s5")

# |p(a, s, t)| at or below this marks the stratum where a special family
# takes over from the generic one
P_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# 4x4 families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Special4Params:
    """Unit a in span{1,i} and unit b in span{1,j}."""

    a: Quaternion
    b: Quaternion

    def __post_init__(self):
        if abs(self.a.norm() - 1.0) > 1e-9 or abs(self.b.norm() - 1.0) > 1e-9:
            raise BadParams("a and b must be unit quaternions")
        if self.a.y != 0.0 or self.a.z != 0.0:
            raise BadParams("a must lie in span{1,i}")
        if self.b.x != 0.0 or self.b.z != 0.0:
            raise BadParams("b must lie in span{1,j}")


def special4(params: Special4Params) -> QMatrix:
    """Two-parameter 4x4 Hadamard family with a -1 entry."""
    a, b = params.a, params.b
    x = (ONE + a + b - a * b) * -0.5
    z = (ONE + a - b + a * b) * -0.5
    y = (ONE - a + b + a * b) * -0.5
    w = (ONE - a - b - a * b) * -0.5
    return QMatrix.from_entries([
        [ONE, ONE, ONE, ONE],
        [ONE, -ONE, b, -b],
        [ONE, a, x, z],
        [ONE, -a, y, w],
    ])


@dataclass(frozen=True)
class Generic4Params:
    """Unit a in span{1,i,j} away from -1, and unit pure x in span{i,j}."""

    a: Quaternion
    x: Quaternion

    def __post_init__(self):
        if abs(self.a.norm() - 1.0) > 1e-9 or abs(self.x.norm() - 1.0) > 1e-9:
            raise BadParams("a and x must be unit quaternions")
        if self.a.z != 0.0:
            raise BadParams("a must lie in span{1,i,j}")
        if self.x.w != 0.0 or self.x.z != 0.0:
            raise BadParams("x must be pure in span{i,j}")
        if (ONE + self.a).norm() <= 1e-9:
            raise BadParams("a = -1 is a pole of the family")


def generic4(params: Generic4Params) -> QMatrix:
    """Three-parameter 4x4 Hadamard family without real entries beyond the
    dephased frame.  The second and third rows are squares of unit
    quaternions built from a and x; the last row closes the column sums."""
    a, x = params.a, params.x
    ahat = Quaternion(a.w, a.x, 0.0, 0.0)
    u_hat_i = (ONE + ahat).normalized() * QI
    u_full = (ONE + a).normalized()
    b = u_hat_i * u_hat_i
    c = (x * u_full) * (x * u_full)
    d = (x * u_hat_i) * (x * u_hat_i)
    return QMatrix.from_entries([
        [ONE, ONE, ONE, ONE],
        [ONE, a, b, -(ONE + a + b)],
        [ONE, c, d, -(ONE + c + d)],
        [ONE, -(ONE + a + c), -(ONE + b + d), ONE + a + b + c + d],
    ])


# ---------------------------------------------------------------------------
# scalar invariants of the 3x3 problem
# ---------------------------------------------------------------------------


def p_value(a: Quaternion, s: float, t: float) -> float:
    """(a3^2 + a4^2) s + (a1 a4 - a2 a3) t."""
    return float(p_arr(a.as_array(), s, t))


def family3_matrix(a: Quaternion, b: Quaternion, zeta: Quaternion) -> QMatrix:
    """The shared 3x3 Hadamard frame for the six families."""
    return QMatrix(family3_matrix_arr(a.as_array(), b.as_array(),
                                      zeta.as_array()))


# ---------------------------------------------------------------------------
# generic 3x3 family
# ---------------------------------------------------------------------------


def generic3(a: Quaternion, branch: str = "+") -> QMatrix | None:
    """Member of the generic family above a: the roots of phi(a,s,t) = 0 on
    the circle in ascending angle, '+' taking the first and '-' the second,
    then the third-row phases from the unbiasedness system.  Returns None
    when phi has no root for this a; raises DegenerateP when phi vanishes on
    the whole circle or p vanishes at the root (one of the special families
    covers that stratum).  This is the one-row case of generic3_arr."""
    if abs(a.norm() - 1.0) > 1e-9:
        raise BadParams("a must be a unit quaternion")
    if branch not in ("+", "-"):
        raise BadParams("branch must be '+' or '-'")
    arr = a.as_array()[None, :]
    thetas, valid = phi_circle_roots_arr(arr)
    if not valid.any():
        if not np.any(alphas_arr(arr)):
            raise DegenerateP("phi vanishes on the whole circle")
        return None
    roots = np.sort(thetas[valid])
    roots = roots[np.diff(roots, prepend=-1.0) > 1e-9]
    theta = roots[0] if branch == "+" or len(roots) == 1 else roots[1]
    frames, ok = generic3_arr(arr, np.array([theta]))
    if not ok[0]:
        raise DegenerateP("p(a,s,t) vanishes at the selected root")
    return QMatrix(frames[0])


# ---------------------------------------------------------------------------
# special 3x3 families
# ---------------------------------------------------------------------------


def _ellipse_solution(b0: np.ndarray, bw: np.ndarray, psi: np.ndarray,
                      ok: np.ndarray):
    """Points with |b0 + bw @ w| = 1 along direction psi from the ellipse
    center, for stacks b0 (N,4), bw (N,4,2) and psi (N,).  Only rows with
    ok set are solved; the returned mask also drops the rows where the
    unit-norm constraint has no real solution."""
    out = np.full(b0.shape, np.nan)
    b0, bw, psi = b0[ok], bw[ok], psi[ok]
    bwt = np.swapaxes(bw, 1, 2)
    m = bwt @ bw
    c = bwt @ b0[:, :, None]
    center = np.linalg.solve(m, -c)
    rho = (1.0 - b0[:, None, :] @ b0[:, :, None]
           + np.swapaxes(c, 1, 2) @ np.linalg.solve(m, c))[:, 0, 0]
    real = rho >= 0.0
    u = np.stack([np.cos(psi), np.sin(psi)], axis=1)[:, :, None]
    r = np.sqrt(np.where(real, rho, 0.0) / (np.swapaxes(u, 1, 2) @ m @ u)[:, 0, 0])
    points = b0 + (bw @ (center + r[:, None, None] * u))[:, :, 0]
    ok = ok.copy()
    ok[ok] = real
    out[ok] = points[real]
    return out, ok


def _signs(variants: np.ndarray, bits: int) -> np.ndarray:
    """(bits, N) array of signs: bit k of a variant set means -1."""
    if np.any((variants < 0) | (variants >= 1 << bits)):
        raise BadParams(f"variant must be in [0, {1 << bits})")
    return 1.0 - 2.0 * ((variants >> np.arange(bits)[:, None]) & 1)


def _quat(w, x, y, z) -> np.ndarray:
    """Stack coordinates (arrays or scalars, broadcast) into (...,4)."""
    return np.stack(np.broadcast_arrays(w, x, y, z), axis=-1)


_SPECIAL_PARAMS = {"s1": ("beta", "theta"), "s2": ("theta", "psi"),
                   "s3": ("theta", "psi"), "s4": ("psi",), "s5": ("a1", "psi")}


def special3_arr(family_id: str, params, variants):
    """Members of a special family for a batch of parameter rows.

    params is (N, k) with one row per member, variants (N,) the sign
    variants (see special3).  Returns the (N,3,3,4) frames and a mask that
    is False where special3 raises NoRealSolution; those rows are not
    family members.
    """
    if family_id not in _SPECIAL_PARAMS:
        raise BadParams(f"unknown special family {family_id!r}")
    names = _SPECIAL_PARAMS[family_id]
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != len(names):
        raise BadParams(f"{family_id} takes ({', '.join(names)})")
    variants = np.asarray(variants)
    ok = np.ones(params.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        if family_id == "s1":
            beta, theta = params.T
            a, b, zeta = _quat(1.0, 0.0, 0.0, 0.0), _zeta_arr(beta), _zeta_arr(theta)
        elif family_id == "s2":
            theta, psi = params.T
            (sel,) = _signs(variants, 1)
            zeta = _zeta_arr(theta)
            a = np.where(sel[:, None] > 0, zeta, qmul(zeta, zeta))
            cos, sin = np.cos(psi), np.sin(psi)
            g = a[:, 1] * cos + a[:, 2] * sin
            h = a[:, 2] * cos - a[:, 1] * sin
            b = _quat(1.0 - 2.0 * g * g, g * cos, g * sin, 2.0 * g * h)
        elif family_id == "s3":
            theta, psi = params.T
            (sel,) = _signs(variants, 1)
            ax = sel * R32
            b2 = ax / 2.0 + (math.sqrt(3.0) / 4.0) * np.cos(psi)
            b3 = (math.sqrt(3.0) / 4.0) * np.sin(psi)
            a = _quat(-0.5, ax, 0.0, 0.0)
            b = _quat(1.0 - 2.0 * ax * b2, b2, b3, 2.0 * ax * b3)
            zeta = _zeta_arr(theta)
        elif family_id == "s4":
            (psi,) = params.T
            e2, e3, et = _signs(variants, 3)
            a2, a3 = e2 * math.sqrt(3.0) / 4.0, e3 * math.sqrt(3.0) / 4.0
            a4 = 4.0 * a2 * a3
            a = _quat(0.25, a2, a3, a4)
            zeta = _quat(-0.5, 0.0, et * R32, 0.0)
            bw = np.stack([_quat(0.0, 1.0, -(16.0 / 3.0) * a2 * a3, 0.0),
                           _quat(-(4.0 / 3.0) * a4, 0.0, (32.0 / 9.0) * a3 * a4,
                                 1.0)], axis=-1)
            b, ok = _ellipse_solution(_quat(-0.5, 0.0, 2.0 * a3, 0.0), bw, psi, ok)
        else:  # s5
            a1, psi = params.T
            e2, e3, e4, et = _signs(variants, 4)
            a2 = e2 * (1.0 - a1) / math.sqrt(3.0)
            q = (1.0 - a1) * (1.0 + 2.0 * a1) / 6.0
            a3 = e3 * np.sqrt(q)
            a4 = e4 * np.sqrt(3.0 * q)
            a = _quat(a1, a2, a3, a4)
            t = et * 2.0 * np.abs(a3)
            s = -(a1 * a4 - a2 * a3) * t / (a3 * a3 + a4 * a4)
            # a1 outside (-1/2, 1), or a sign combination off the (s,t) circle
            ok = (-0.5 < a1) & (a1 < 1.0) & (np.abs(s * s + t * t - 0.75) <= 1e-9)
            zeta = _quat(-0.5, s, t, 0.0)
            bw = np.stack([_quat(0.0, -a3 / a2, 1.0, 0.0),
                           _quat(-a2 / a3, 1.0 / (2.0 * a3), 0.0, 1.0)], axis=-1)
            b0 = _quat(-0.5, (1.0 - a1) / (2.0 * a2), 0.0, 0.0)
            b, ok = _ellipse_solution(b0, bw, psi, ok)
        return family3_matrix_arr(a, b, zeta), ok


def special3(family_id: str, params, variant: int = 0) -> QMatrix:
    """Member of one of the five special families.

    Continuous parameters per family (all angles in radians):
      s1: (beta, theta)   b = -1/2 + (sqrt3/2)(cos beta i + sin beta j), zeta(theta)
      s2: (theta, psi)    a = zeta or zeta^2 (variant bit 0), b completed from psi
      s3: (theta, psi)    a = omega or omega^2 (variant bit 0)
      s4: (psi,)          variant bits: sign(a2), sign(a3), sign(t)
      s5: (a1, psi)       variant bits: sign(a2), sign(a3), sign(a4), sign(t)
    The completion solves the family's linear constraints plus |b| = 1;
    NoRealSolution signals an infeasible sign combination.  This is the
    one-row case of special3_arr.
    """
    frames, ok = special3_arr(family_id, [tuple(params)], [variant])
    if not ok[0]:
        raise NoRealSolution(f"{family_id} has no real member for these "
                             "parameters and signs")
    return QMatrix(frames[0])


# ---------------------------------------------------------------------------
# family membership verification
# ---------------------------------------------------------------------------


def read_family3(m: QMatrix) -> tuple[Quaternion, Quaternion, Quaternion]:
    """(a, b, zeta) read from the frame: a = M21, b = M31, zeta = conj(a) M22."""
    if m.rows != 3 or m.cols != 3:
        raise WrongSize("family frames are 3x3")
    a = m.entry(1, 0)
    b = m.entry(2, 0)
    zeta = a.conjugate() * m.entry(1, 1)
    return a, b, zeta


def _frame_residual(m: QMatrix, a: Quaternion, b: Quaternion,
                    zeta: Quaternion) -> float:
    frame = family3_matrix(a, b, zeta)
    return float(np.max(np.abs(m.data - frame.data)))


def verify_family3(m: QMatrix, family_id: str, tol: float = 1e-9) -> bool:
    """Check the defining constraints of the named family on the parameters
    read off the matrix."""
    if family_id not in FAMILY_IDS:
        raise BadParams(f"unknown family {family_id!r}")
    a, b, zeta = read_family3(m)
    s, t = zeta.x, zeta.y
    checks = [
        abs(a.norm() - 1.0), abs(b.norm() - 1.0), abs(zeta.norm() - 1.0),
        abs(zeta.w + 0.5), abs(zeta.z),
        _frame_residual(m, a, b, zeta),
    ]
    if max(checks) > tol:
        return False
    pv = p_value(a, s, t)
    if family_id == "generic":
        alpha0, alpha1, alpha2 = alphas_arr(a.as_array())
        b_mat, v = mub3_system_arr(a.as_array(), zeta.as_array())
        residuals = [abs(4 * alpha0 * s * s + 8 * alpha1 * s * t + alpha2),
                     float(np.linalg.norm(b_mat @ b.as_array() - v))]
        return max(residuals) <= tol and abs(pv) > P_FLOOR
    if family_id == "s1":
        residuals = [(a - ONE).norm(), abs(b.w + 0.5), abs(b.z)]
    elif family_id == "s2":
        match = min((a - zeta).norm(), (a - zeta * zeta).norm())
        residuals = [match,
                     abs(b.w - (1 - 2 * (a.x * b.x + a.y * b.y))),
                     abs(b.z - 2 * (a.y * b.x - a.x * b.y))]
    elif family_id == "s3":
        match = min((a - OMEGA).norm(), (a - OMEGA * OMEGA).norm())
        residuals = [match,
                     abs(b.w - (1 - 2 * a.x * b.x)),
                     abs(b.z - 2 * a.x * b.y)]
    elif family_id == "s4":
        residuals = [abs(a.w - 0.25), abs(a.x ** 2 - 3.0 / 16.0),
                     abs(a.y ** 2 - 3.0 / 16.0), abs(a.z - 4 * a.x * a.y),
                     abs(b.w + 0.5 + (4.0 / 3.0) * a.z * b.z),
                     abs(b.y - (2 * a.y / 3.0) * (1 - 4 * b.w - 8 * a.x * b.x)),
                     abs(s)]
    else:  # s5
        residuals = [abs(3 * a.x ** 2 - (1 - a.w) ** 2),
                     abs(6 * a.y ** 2 - (1 - a.w) * (1 + 2 * a.w)),
                     abs(a.z ** 2 - 3 * a.y ** 2),
                     abs(pv),
                     abs(b.w + 0.5 + a.x * b.z / a.y),
                     abs(b.x - ((1 - a.w) / (2 * a.x) - a.y * b.y / a.x
                                + b.z / (2 * a.y))),
                     abs(t * t - 4 * a.y ** 2)]
    return max(residuals) <= tol


# ---------------------------------------------------------------------------
# vectorized internals for grid sweeps
# ---------------------------------------------------------------------------


def alphas_arr(a: np.ndarray):
    """alpha coefficients for a (...,4) array of unit quaternions."""
    a1, a2, a3, a4 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    alpha0 = 1 - a1 + 4 * a1 * a2 ** 2 + 2 * a1 * a4 ** 2 + 2 * a2 * a3 * a4 \
        - 2 * a3 ** 2 - 2 * a4 ** 2
    alpha1 = a1 ** 2 * a4 - a2 ** 2 * a4 + 2 * a1 * a2 * a3 - a1 * a4 + a2 * a3
    alpha2 = 1 - a1 + 4 * a1 * a2 ** 2 + 4 * a1 * a3 ** 2 - 2 * a1 * a4 ** 2 \
        - 6 * a2 * a3 * a4
    return alpha0, alpha1, alpha2


def p_arr(a: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    return (a[..., 2] ** 2 + a[..., 3] ** 2) * s + (a[..., 0] * a[..., 3]
                                                    - a[..., 1] * a[..., 2]) * t


def phi_circle_roots_arr(a: np.ndarray):
    """Analytic roots of phi on the circle for a batch of a values.

    On the circle phi(theta) = K + Pc cos 2theta + Qc sin 2theta, so roots
    come from a single arccos; each a contributes up to four angles.
    Returns (thetas (N,4), valid (N,4)).
    """
    alpha0, alpha1, alpha2 = alphas_arr(a)
    k = 1.5 * alpha0 + alpha2
    pc = 1.5 * alpha0
    qc = 3.0 * alpha1
    mag = np.hypot(pc, qc)
    delta = np.arctan2(qc, pc)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosval = np.where(mag > 0, -k / np.where(mag > 0, mag, 1.0), 2.0)
    valid_base = (mag > 1e-15) & (np.abs(cosval) <= 1.0)
    psi = np.arccos(np.clip(cosval, -1.0, 1.0))
    th0 = 0.5 * (delta + psi)
    th1 = 0.5 * (delta - psi)
    thetas = np.stack([th0, th1, th0 + np.pi, th1 + np.pi], axis=1) % (2 * np.pi)
    valid = np.repeat(valid_base[:, None], 4, axis=1)
    return thetas, valid


_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
_ONE = np.array([1.0, 0.0, 0.0, 0.0])
_W = OMEGA.as_array()
_W2 = (OMEGA * OMEGA).as_array()


def mub3_system_arr(a: np.ndarray, zeta: np.ndarray):
    """Linear system B b = v expressing unbiasedness to the Fourier matrix,
    for (...,4) arrays a and zeta: (...,4,4) matrices and (...,4) sides.

    The four equations are <1 + w^-i a z^j, 1 + w^i b z^-j> = 1 for
    i, j in {0,1}, written with the real inner product <p,q> = Re(conj(p) q).
    Since Re(x e_m y) = s_m (y x)_m with s = (1,-1,-1,-1), row (i,j) of B is
    s * (z^-j (w^i + z^-j conj(a) w^2i)) and v = -Re(w^-i a z^j), where
    z^-1 = z^2 as z^3 = 1.  Rows are ordered (0,0),(0,1),(1,0),(1,1); with
    this order the five signed determinants d_i of the augmented matrix
    (drop column i) satisfy d5 = 3 p(a,s,t)^2 and
    8(sum d_i^2 - d5^2) = 9 d5 phi(a,s,t).
    """
    abar = qconj(a)
    zeta2 = qmul(zeta, zeta)
    abar_w2 = qmul(abar, _W2)
    rows = [_ONE + abar, qmul(zeta2, _ONE + qmul(zeta2, abar)),
            _W + abar_w2, qmul(zeta2, _W + qmul(zeta2, abar_w2))]
    az = qmul(a, zeta)
    re_w2 = _SIGNS * _W2  # q @ re_w2 = Re(w^2 q) = Re(w^-1 q)
    v = -np.stack([a[..., 0], az[..., 0], a @ re_w2, az @ re_w2], axis=-1)
    return _SIGNS * np.stack(rows, axis=-2), v


def family3_matrix_arr(a: np.ndarray, b: np.ndarray,
                       zeta: np.ndarray) -> np.ndarray:
    """Family frames for (...,4) arrays a, b and zeta, shape (...,3,3,4);
    the zeta^2 entries are (a*zeta)*zeta and (b*zeta)*zeta."""
    lead = np.broadcast_shapes(a.shape, b.shape, zeta.shape)[:-1]
    out = np.empty(lead + (3, 3, 4))
    out[..., 0, :, :] = [1.0, 0.0, 0.0, 0.0]
    out[..., 1, 0, :] = a
    out[..., 1, 1, :] = qmul(a, zeta)
    out[..., 1, 2, :] = qmul(out[..., 1, 1, :], zeta)
    out[..., 2, 0, :] = b
    out[..., 2, 2, :] = qmul(b, zeta)
    out[..., 2, 1, :] = qmul(out[..., 2, 2, :], zeta)
    return out


def _zeta_arr(theta: np.ndarray) -> np.ndarray:
    out = np.zeros(theta.shape + (4,))
    out[..., 0] = -0.5
    out[..., 1] = R32 * np.cos(theta)
    out[..., 2] = R32 * np.sin(theta)
    return out


def generic3_arr(a: np.ndarray, theta: np.ndarray):
    """Members of the generic family for base points a (N,4) and roots
    theta (N,) of phi on the circle: zeta = -1/2 + (sqrt3/2)(cos theta i +
    sin theta j), and the third row b solves the unbiasedness system.
    Returns the (M,3,3,4) frames of the rows where |p| > P_FLOOR, and that
    (N,) mask; past the floor the system determinant d5 = 3 p^2 is nonzero.
    """
    zeta = _zeta_arr(theta)
    ok = np.abs(p_arr(a, zeta[:, 1], zeta[:, 2])) > P_FLOOR
    a, zeta = a[ok], zeta[ok]
    b_mat, v = mub3_system_arr(a, zeta)
    b = np.linalg.solve(b_mat, v[:, :, None])[:, :, 0]
    return family3_matrix_arr(a, b, zeta), ok


def generic_family_chunks(resolution: int, chunk_size: int = 8192):
    """Yield (N,3,3,4) batches sweeping the generic family.

    The base point a runs over a resolution^3 Euler grid on the unit
    3-sphere (offset to avoid poles); each grid point contributes its
    analytic phi roots with p above P_FLOOR.
    """
    res = int(resolution)
    chi = (np.arange(res) + 0.5) * np.pi / res
    eta = (np.arange(res) + 0.5) * np.pi / res
    xi = np.arange(res) * 2.0 * np.pi / res
    grid = np.stack(np.meshgrid(chi, eta, xi, indexing="ij"), axis=-1).reshape(-1, 3)
    for start in range(0, grid.shape[0], chunk_size):
        block = grid[start:start + chunk_size]
        c1, e1, x1 = block[:, 0], block[:, 1], block[:, 2]
        a = np.stack([
            np.cos(c1),
            np.sin(c1) * np.cos(e1),
            np.sin(c1) * np.sin(e1) * np.cos(x1),
            np.sin(c1) * np.sin(e1) * np.sin(x1),
        ], axis=1)
        thetas, valid = phi_circle_roots_arr(a)
        frames, _ = generic3_arr(np.repeat(a, 4, axis=0)[valid.ravel()],
                                 thetas[valid])
        if len(frames):
            yield frames


def special_family_points(family_id: str, resolution: int) -> np.ndarray:
    """All grid points of a special family at the given per-axis resolution,
    as an (N,3,3,4) array ordered by (variant, first parameter, second
    parameter).  Infeasible sign combinations are skipped."""
    res = int(resolution)
    angles = np.arange(res) * 2.0 * np.pi / res
    axes = {"s1": [(0,), angles, angles], "s2": [(0, 1), angles, angles],
            "s3": [(0, 1), angles, angles], "s4": [range(8), angles],
            "s5": [range(16), -0.5 + (np.arange(res) + 0.5) * 1.5 / res, angles]}
    if family_id not in axes:
        raise BadParams(f"unknown special family {family_id!r}")
    variant, *params = (g.ravel() for g in np.meshgrid(
        *(np.asarray(ax) for ax in axes[family_id]), indexing="ij"))
    frames, ok = special3_arr(family_id, np.stack(params, axis=1), variant)
    return frames[ok]
