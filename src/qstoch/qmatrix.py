"""Dense quaternion matrices over the right vector space H^n.

A matrix is stored as a float64 array of shape (rows, cols, 4); the last
axis carries the 1, i, j, k coordinates.  This storage, and the QMAT text
format, is the interface every module and file sees.  The array helpers
(qmul, qconj, qmat_mul, ...) broadcast over leading axes and are reused by
the heavier numerical modules.

Products and orthonormalization run on the complex adjoint representation
chi (F. Zhang, LAA 251, 1997).  chi replaces an entry z1 + z2 j, with
z1 = w + x i and z2 = y + z i, by the 2x2 block [[z1, z2], [-conj z2,
conj z1]]: Zhang's form with rows and columns interleaved.  It turns
quaternion products and adjoints into complex ones, and the even rows of
chi(A) are the float storage viewed as complex, so they cost no copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NonFinite, NonUnitConjugator,
                     ZeroInFrame)
from .quaternion import Quaternion, format_quaternion, parse_quaternion

# ---------------------------------------------------------------------------
# array-level quaternion algebra
# ---------------------------------------------------------------------------


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (...,4) coordinate arrays, broadcasting."""
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
    return np.sum(a * a, axis=-1)


def qnorm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(qnormsq(a))


# -- complex adjoint kernel (see the module docstring for chi) ---------------

_ODD_ROW_SIGNS = np.array([-1.0, 1.0])


def _chi_rows(a: np.ndarray) -> np.ndarray:
    """Even rows of chi(A): (..., r, c, 4) floats to (..., r, 2c) complex."""
    a = np.ascontiguousarray(a, dtype=float)
    return a.view(complex).reshape(a.shape[:-2] + (2 * a.shape[-2],))


def _chi_from_rows(z: np.ndarray) -> np.ndarray:
    """chi(A) from its even rows: (..., r, 2c) to (..., 2r, 2c) complex."""
    pairs = z.reshape(z.shape[:-1] + (-1, 2))  # (z1, z2)
    odd = pairs[..., ::-1].conj() * _ODD_ROW_SIGNS  # (-conj z2, conj z1)
    shape = z.shape[:-2] + (2 * z.shape[-2], z.shape[-1])
    return np.stack([pairs, odd], axis=-3).reshape(shape)


def _chi(a: np.ndarray) -> np.ndarray:
    """chi(A): (..., r, c, 4) floats to (..., 2r, 2c) complex."""
    return _chi_from_rows(_chi_rows(a))


def _from_chi_rows(z: np.ndarray) -> np.ndarray:
    """Inverse of _chi_rows: (..., r, 2c) complex to (..., r, c, 4) floats."""
    z = np.ascontiguousarray(z)
    return z.view(float).reshape(z.shape[:-1] + (z.shape[-1] // 2, 4))


def _qr_retract(x: np.ndarray) -> np.ndarray:
    """Even rows of the Q factor of x = QR with diag(R) real and positive.

    That factor is unique, so for x = chi(A) it is chi of the matrix that
    right-scalar Gram-Schmidt makes from the columns of A.  Only the even
    rows are returned: rounding moves the odd rows off the chi pattern, and
    an iteration that fed them back would let that error grow.
    """
    q, r = np.linalg.qr(x)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q[..., ::2, :] * (d / np.abs(d))[..., None, :]


def qmat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion matrix product of (...,n,m,4) and (...,m,k,4) arrays.

    Products are taken left to right; order matters over H.  Computed as
    the even rows of chi(A) chi(B), one complex matmul that broadcasts over
    the leading axes.
    """
    return _from_chi_rows(_chi_rows(a) @ _chi(b))


def qmat_adjoint(a: np.ndarray) -> np.ndarray:
    return qconj(np.swapaxes(a, -3, -2))


def qmat_eye(n: int) -> np.ndarray:
    out = np.zeros((n, n, 4))
    out[np.arange(n), np.arange(n), 0] = 1.0
    return out


def qexpm(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Power-series exponential of a square quaternion matrix.

    Adequate for the small, small-norm inputs used in tangent retractions;
    the series is truncated once a term underflows.
    """
    n = a.shape[0]
    result = qmat_eye(n)
    term = qmat_eye(n)
    for k in range(1, terms + 1):
        term = qmat_mul(term, a) / k
        result = result + term
        if np.max(np.abs(term)) < 1e-300:
            break
    return result


# ---------------------------------------------------------------------------
# QMatrix
# ---------------------------------------------------------------------------


class QMatrix:
    """Immutable dense quaternion matrix."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 4:
            raise DimensionMismatch(f"expected (rows, cols, 4) array, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFinite("quaternion matrix has a NaN or infinite entry")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_entries(rows: list[list[Quaternion]]) -> "QMatrix":
        arr = np.array([[q.as_array() for q in row] for row in rows])
        return QMatrix(arr)

    @staticmethod
    def from_real(mat) -> "QMatrix":
        mat = np.asarray(mat, dtype=float)
        out = np.zeros(mat.shape + (4,))
        out[..., 0] = mat
        return QMatrix(out)

    @staticmethod
    def from_complex(mat) -> "QMatrix":
        mat = np.asarray(mat, dtype=complex)
        out = np.zeros(mat.shape + (4,))
        out[..., 0] = mat.real
        out[..., 1] = mat.imag
        return QMatrix(out)

    # -- shape and access ---------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_array(self.data[i, j])

    def norms(self) -> np.ndarray:
        return qnorm(self.data)

    def squared_norms(self) -> np.ndarray:
        return qnormsq(self.data)

    def scalar_parts(self) -> np.ndarray:
        return self.data[..., 0].copy()

    def to_complex(self) -> np.ndarray:
        """Complex matrix view; ignores j and k coordinates."""
        return self.data[..., 0] + 1j * self.data[..., 1]

    def max_jk(self) -> float:
        """Largest j/k coordinate in absolute value (0 for a complex matrix)."""
        return float(np.max(np.abs(self.data[..., 2:]))) if self.data.size else 0.0

    def max_imag(self) -> float:
        """Largest non-real coordinate in absolute value."""
        return float(np.max(np.abs(self.data[..., 1:]))) if self.data.size else 0.0

    # -- algebra -------------------------------------------------------------

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return QMatrix(qmat_mul(self.data, other.data))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.data + other.data)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.data - other.data)

    def __mul__(self, s: float) -> "QMatrix":
        return QMatrix(self.data * float(s))

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "QMatrix":
        return QMatrix(self.data / float(s))

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.data)

    def adjoint(self) -> "QMatrix":
        """Conjugate transpose."""
        return QMatrix(qmat_adjoint(self.data))

    def conjugate(self) -> "QMatrix":
        """Entrywise quaternion conjugate (no transpose)."""
        return QMatrix(qconj(self.data))

    def approx_eq(self, other: "QMatrix", tol: float = 1e-9) -> bool:
        if self.data.shape != other.data.shape:
            return False
        return float(np.max(qnorm(self.data - other.data))) <= tol

    # -- predicates ----------------------------------------------------------

    def unitary_defect(self) -> float:
        """Max entry norm of M*M - I."""
        gram = qmat_mul(qmat_adjoint(self.data), self.data)
        return float(np.max(qnorm(gram - qmat_eye(self.cols))))

    def is_symplectic(self, tol: float = 1e-9) -> bool:
        if not self.is_square:
            return False
        return self.unitary_defect() <= tol

    def is_hadamard(self, tol: float = 1e-9) -> bool:
        """Unit-norm entries and M*M = nI, both within tol."""
        if not self.is_square:
            return False
        n = self.rows
        if np.max(np.abs(self.norms() - 1.0)) > tol:
            return False
        gram = qmat_mul(qmat_adjoint(self.data), self.data)
        return float(np.max(qnorm(gram - n * qmat_eye(n)))) <= tol

    def splits(self, tol: float = 1e-9) -> bool:
        """True when some PMQ is a direct sum of smaller square blocks.

        Rows and columns are the two sides of a bipartite graph with an edge
        where the entry norm exceeds tol; the matrix splits exactly when the
        graph is disconnected.
        """
        if not self.is_square:
            raise DimensionMismatch("splits is defined for square matrices")
        n = self.rows
        adj = self.norms() > tol
        seen_rows = np.zeros(n, dtype=bool)
        seen_cols = np.zeros(n, dtype=bool)
        stack = [("r", 0)]
        seen_rows[0] = True
        while stack:
            kind, idx = stack.pop()
            if kind == "r":
                for j in np.nonzero(adj[idx])[0]:
                    if not seen_cols[j]:
                        seen_cols[j] = True
                        stack.append(("c", j))
            else:
                for i in np.nonzero(adj[:, idx])[0]:
                    if not seen_rows[i]:
                        seen_rows[i] = True
                        stack.append(("r", i))
        return not (seen_rows.all() and seen_cols.all())

    # -- normal forms ---------------------------------------------------------

    def dephase(self, tol: float = 1e-9) -> tuple["QMatrix", "MonomialTransform", "MonomialTransform"]:
        """Left/right unit-diagonal scaling making row 1 and column 1 real >= 0.

        The left diagonal is conj(M[i,0])/|M[i,0]|, which turns column 1 into
        entry norms; the right diagonal then fixes row 1 without touching
        column 1.  Entry (1,1) of the result is |M[0,0]|.  The output is a
        dephased form, not a canonical representative of the equivalence
        class (permutations can change it).
        """
        col = self.data[:, 0, :]
        row_norms = qnorm(col)
        if np.min(row_norms) <= tol:
            raise ZeroInFrame("zero entry in the first column")
        left = qconj(col) / row_norms[:, None]
        m1 = qmul(left[:, None, :], self.data)
        row = m1[0, :, :]
        col_norms = qnorm(row)
        if np.min(col_norms) <= tol:
            raise ZeroInFrame("zero entry in the first row")
        right = qconj(row) / col_norms[:, None]
        m2 = qmul(m1, right[None, :, :])
        n_rows, n_cols = self.rows, self.cols
        tl = MonomialTransform(tuple(range(n_rows)),
                               tuple(Quaternion.from_array(q) for q in left), "left")
        tr = MonomialTransform(tuple(range(n_cols)),
                               tuple(Quaternion.from_array(q) for q in right), "right")
        return QMatrix(m2), tl, tr

    def entrywise_conjugate(self, x: Quaternion) -> "QMatrix":
        """Conjugate every entry by the unit quaternion x."""
        if abs(x.norm() - 1.0) > 1e-9:
            raise NonUnitConjugator(f"|x| = {x.norm()!r} is not 1")
        xa = x.as_array()
        return QMatrix(qmul(qmul(xa, self.data), qconj(xa)))

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# monomial transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialTransform:
    """Permutation combined with unit-quaternion phases, acting on one side.

    As a matrix this is P @ diag(phases) for side "left" and
    diag(phases) @ P for side "right", with P the permutation matrix of
    ``permutation`` (entry (permutation[j], j) equal to 1).
    """

    permutation: tuple[int, ...]
    phases: tuple[Quaternion, ...]
    side: str = "left"

    def __post_init__(self):
        for p in self.phases:
            if abs(p.norm() - 1.0) > 1e-9:
                raise NonUnitConjugator("monomial phases must be unit quaternions")
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")

    def matrix(self) -> QMatrix:
        n = len(self.permutation)
        out = np.zeros((n, n, 4))
        for j, i in enumerate(self.permutation):
            if self.side == "left":
                out[i, j] = self.phases[j].as_array()
            else:
                out[i, j] = self.phases[i].as_array()
        return QMatrix(out)

    def apply(self, m: QMatrix) -> QMatrix:
        if self.side == "left":
            return self.matrix() @ m
        return m @ self.matrix()


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def identity(n: int) -> QMatrix:
    return QMatrix(qmat_eye(n))


def diag(entries: list[Quaternion]) -> QMatrix:
    n = len(entries)
    out = np.zeros((n, n, 4))
    for i, q in enumerate(entries):
        out[i, i] = q.as_array()
    return QMatrix(out)


def permutation_matrix(perm) -> QMatrix:
    """P with entry (perm[j], j) = 1; perm maps column index to row index."""
    n = len(perm)
    out = np.zeros((n, n, 4))
    for j, i in enumerate(perm):
        out[i, j, 0] = 1.0
    return QMatrix(out)


def fourier(n: int) -> QMatrix:
    """Unitary Fourier matrix with entries w^{(i-1)(j-1)}/sqrt(n), w = e^{2 pi i/n}."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    idx = np.arange(n)
    angles = 2.0 * np.pi * np.outer(idx, idx) / n
    out = np.zeros((n, n, 4))
    out[..., 0] = np.cos(angles) / np.sqrt(n)
    out[..., 1] = np.sin(angles) / np.sqrt(n)
    return QMatrix(out)


def random_quaternion_array(shape, rng) -> np.ndarray:
    return rng.standard_normal(tuple(shape) + (4,))


def gram_schmidt_columns(arr: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of an (m,n,4) array, m >= n.

    The result is what column-by-column Gram-Schmidt gives when each
    projection coefficient multiplies on the right, consistent with H^n as
    a right vector space: A = QR with R upper triangular and diag(R) > 0.
    It is computed as the QR factorization of chi(A).
    """
    return _from_chi_rows(_qr_retract(_chi(arr)))


def random_symplectic(n: int, seed: int = 0) -> QMatrix:
    """Haar-like symplectic sample: Gaussian quaternion entries, then
    column-by-column Gram-Schmidt with right scalar multiplication."""
    rng = np.random.default_rng(seed)
    return QMatrix(gram_schmidt_columns(random_quaternion_array((n, n), rng)))


def haar_orthogonal(n: int, rng) -> np.ndarray:
    """Haar O(n) sample via QR of a Gaussian matrix with sign-fixed R."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def haar_unitary(n: int, rng) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# QMAT / rmat text format
# ---------------------------------------------------------------------------


def write_qmat(m: QMatrix) -> str:
    lines = [f"qmat {m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(format_quaternion(m.entry(i, j)) for j in range(m.cols)))
    return "\n".join(lines) + "\n"


def write_rmat(mat: np.ndarray) -> str:
    mat = np.asarray(mat, dtype=float)
    lines = [f"rmat {mat.shape[0]} {mat.shape[1]}"]
    for row in mat:
        lines.append(" ".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def read_matrix_text(text: str) -> tuple[str, object]:
    """Parse QMAT/rmat text; returns ("qmat", QMatrix) or ("rmat", ndarray)."""
    tokens = text.split()
    if len(tokens) < 3:
        raise ValueError("truncated matrix file")
    kind, rows, cols = tokens[0], int(tokens[1]), int(tokens[2])
    body = tokens[3:]
    if kind not in ("qmat", "rmat"):
        raise ValueError(f"unknown matrix header {kind!r}")
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows} x {cols}")
    if len(body) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(body)}")
    if kind == "qmat":
        arr = np.array([parse_quaternion(t).as_array() for t in body])
        arr = arr.reshape(rows, cols, 4)
    else:
        arr = np.array([float(t) for t in body]).reshape(rows, cols)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite matrix entry")
    return kind, (QMatrix(arr) if kind == "qmat" else arr)


def read_qmatrix_text(text: str) -> QMatrix:
    """Read either format as a QMatrix (rmat entries become real quaternions)."""
    kind, value = read_matrix_text(text)
    if kind == "qmat":
        return value
    return QMatrix.from_real(value)


def load_matrix(path: str):
    with open(path, "r", encoding="ascii") as fh:
        return read_matrix_text(fh.read())


def load_qmatrix(path: str) -> QMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return read_qmatrix_text(fh.read())
