"""Dense quaternion matrices over the right vector space H^n.

A matrix is stored as a float64 array of shape (rows, cols, 4); the last
axis carries the 1, i, j, k coordinates.  This storage, and the QMAT text
format, is the interface every module and file sees.  The matrix helpers
(qmat_mul, qmat_adjoint, ...) broadcast over leading axes, like the entry
algebra of qstoch.quaternion they build on, and are reused by the heavier
numerical modules.

Products and orthonormalization run on the complex adjoint representation
chi (F. Zhang, LAA 251, 1997).  chi replaces an entry z1 + z2 j, with
z1 = w + x i and z2 = y + z i, by the 2x2 block [[z1, z2], [-conj z2,
conj z1]]: Zhang's form with rows and columns interleaved.  It turns
quaternion products and adjoints into complex ones, and the even rows of
chi(A) are the float storage viewed as complex, so they cost no copy.
"""

from __future__ import annotations

import numpy as np

from .errors import QStochError
from .quaternion import (Quaternion, format_quaternion, parse_quaternion, qconj,
                         qmul, qnorm, qnormsq)
from .tol import APPROX_EQ, GROUP, HADAMARD, ZERO_ENTRY

# -- complex adjoint kernel (see the module docstring for chi) ---------------

_ODD_ROW_SIGNS = np.array([-1.0, 1.0])


def _chi_rows(a: np.ndarray) -> np.ndarray:
    """Even rows of chi(A): (..., r, c, 4) floats to (..., r, 2c) complex."""
    a = np.ascontiguousarray(a, dtype=float)
    return a.view(complex).reshape(a.shape[:-2] + (2 * a.shape[-2],))


def _odd_rows(pairs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The odd rows (-conj z2, conj z1) of chi from the (..., 2) pairs
    (z1, z2) of its even rows, written into out when given."""
    out = np.conjugate(pairs[..., ::-1], out=out)
    out *= _ODD_ROW_SIGNS
    return out


def _chi_from_rows(z: np.ndarray) -> np.ndarray:
    """chi(A) from its even rows: (..., r, 2c) to (..., 2r, 2c) complex."""
    pairs = z.reshape(z.shape[:-1] + (-1, 2))  # (z1, z2)
    odd = _odd_rows(pairs)
    shape = z.shape[:-2] + (2 * z.shape[-2], z.shape[-1])
    return np.stack([pairs, odd], axis=-3).reshape(shape)


def _chi(a: np.ndarray) -> np.ndarray:
    """chi(A): (..., r, c, 4) floats to (..., 2r, 2c) complex."""
    return _chi_from_rows(_chi_rows(a))


def _from_chi_rows(z: np.ndarray) -> np.ndarray:
    """Inverse of _chi_rows: (..., r, 2c) complex to (..., r, c, 4) floats."""
    z = np.ascontiguousarray(z)
    return z.view(float).reshape(z.shape[:-1] + (z.shape[-1] // 2, 4))


def _qr_positive(x: np.ndarray) -> np.ndarray:
    """The Q factor of x = QR with diag(R) real and positive, the unique
    one; d/|d| is sign(d) exactly for real nonzero d."""
    q, r = np.linalg.qr(x)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _qr_retract(x: np.ndarray) -> np.ndarray:
    """Even rows of _qr_positive(x).

    For x = chi(A) that factor is chi of the matrix that right-scalar
    Gram-Schmidt makes from the columns of A.  Only the even rows are
    returned: rounding moves the odd rows off the chi pattern, and an
    iteration that fed them back would let that error grow.
    """
    return _qr_positive(x)[..., ::2, :]


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


# ---------------------------------------------------------------------------
# QMatrix
# ---------------------------------------------------------------------------


class QMatrix:
    """Immutable dense quaternion matrix."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 4 or 0 in arr.shape:
            raise QStochError(
                f"expected (rows, cols, 4) array with rows, cols >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise QStochError("quaternion matrix has a NaN or infinite entry")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    # -- construction ------------------------------------------------------

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
        return Quaternion(*(float(v) for v in self.data[i, j]))

    def norms(self) -> np.ndarray:
        return qnorm(self.data)

    def squared_norms(self) -> np.ndarray:
        return qnormsq(self.data)

    def max_jk(self) -> float:
        """Largest j/k coordinate in absolute value (0 for a complex matrix)."""
        return float(np.max(np.abs(self.data[..., 2:])))

    def max_imag(self) -> float:
        """Largest non-real coordinate in absolute value."""
        return float(np.max(np.abs(self.data[..., 1:])))

    # -- algebra -------------------------------------------------------------

    def __truediv__(self, s: float) -> "QMatrix":
        return QMatrix(self.data / float(s))

    def approx_eq(self, other: "QMatrix") -> bool:
        if self.data.shape != other.data.shape:
            return False
        return float(np.max(qnorm(self.data - other.data))) <= APPROX_EQ

    # -- predicates ----------------------------------------------------------

    def unitary_defect(self) -> float:
        """Max entry norm of M*M - I."""
        gram = qmat_mul(qmat_adjoint(self.data), self.data)
        return float(np.max(qnorm(gram - qmat_eye(self.cols))))

    def is_symplectic(self, tol: float = GROUP) -> bool:
        """Square with unitary_defect() <= tol: the one group-membership
        check, for O(n) and U(n) points too."""
        if not self.is_square:
            return False
        return self.unitary_defect() <= tol

    def is_hadamard(self, tol: float = HADAMARD) -> bool:
        """Unit-norm entries and M*M = nI, both within tol."""
        if not self.is_square:
            return False
        n = self.rows
        if np.max(np.abs(self.norms() - 1.0)) > tol:
            return False
        gram = qmat_mul(qmat_adjoint(self.data), self.data)
        return float(np.max(qnorm(gram - n * qmat_eye(n)))) <= tol

    def splits(self, tol: float = ZERO_ENTRY) -> bool:
        """True when some PMQ is a direct sum of smaller square blocks.

        Rows and columns are the two sides of a bipartite graph with an edge
        where the entry norm exceeds tol; the matrix splits exactly when the
        graph is disconnected.  The component of row 0 grows by whole
        neighbourhoods until it stops changing.
        """
        if not self.is_square:
            raise QStochError("splits is defined for square matrices")
        adj = self.norms() > tol
        rows = np.arange(self.rows) == 0
        while True:
            cols = adj[rows].any(axis=0)
            grown = rows | adj[:, cols].any(axis=1)
            if (grown == rows).all():
                return not (rows.all() and cols.all())
            rows = grown

    # -- normal forms ---------------------------------------------------------

    def dephase(self) -> "QMatrix":
        """Left/right unit-diagonal scaling making row 1 and column 1 real >= 0.

        The left diagonal is conj(M[i,0])/|M[i,0]|, which turns column 1 into
        entry norms; the right diagonal then fixes row 1 without touching
        column 1.  Entry (1,1) of the result is |M[0,0]|.  The output is a
        dephased form, not a canonical representative of the equivalence
        class (permutations can change it).
        """
        col = self.data[:, 0, :]
        row_norms = qnorm(col)
        if np.min(row_norms) <= ZERO_ENTRY:
            raise QStochError("zero entry in the first column")
        left = qconj(col) / row_norms[:, None]
        m1 = qmul(left[:, None, :], self.data)
        row = m1[0, :, :]
        col_norms = qnorm(row)
        if np.min(col_norms) <= ZERO_ENTRY:
            raise QStochError("zero entry in the first row")
        right = qconj(row) / col_norms[:, None]
        return QMatrix(qmul(m1, right[None, :, :]))

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def identity(n: int) -> QMatrix:
    return QMatrix(qmat_eye(n))


def fourier(n: int) -> QMatrix:
    """Unitary Fourier matrix with entries w^{(i-1)(j-1)}/sqrt(n), w = e^{2 pi i/n}."""
    if n < 1:
        raise QStochError("n must be >= 1")
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
    return _qr_positive(rng.standard_normal((n, n)))


def haar_unitary(n: int, rng) -> np.ndarray:
    return _qr_positive(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))


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
