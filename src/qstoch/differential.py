"""Jacobians of the entrywise squared-norm maps on O(n), U(n), Sp(n).

The differential at a group point P has one column per tangent basis
direction E@P: the coordinates, in the zero-row/column-sum basis, of the
scalar part of conj(P) o (E@P) taken entrywise.  Each basis generator has
two nonzero entries, E[i,j] = e_u and E[j,i] = sigma e_u (sigma = -1 for
the skew A^{i,j}, +1 for the symmetric u C^{i,j}), so E@P has only two
nonzero rows, e_u P_j at row i and sigma e_u P_i at row j.  The column is
therefore zero outside rows i and j, where its entries are

    Re(conj(P_ic) e_u P_jc)   and   sigma Re(conj(P_jc) e_u P_ic),

computed for all generators at once.  The conventional factor 2 of the
true derivative is omitted; rank and criticality are unaffected and the
finite-difference tests account for it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QStochError
from .qmatrix import QMatrix, haar_orthogonal
from .quaternion import qmul
from .tol import (GROUP, RANK_FLOOR, RANK_RATIO, REDUCED_REGULAR, REDUCED_ZERO,
                  SCALAR_FIELD, ZERO_BAND, ZERO_ENTRY)

MAP_KINDS = ("r", "c", "h")


# ---------------------------------------------------------------------------
# tangent basis
# ---------------------------------------------------------------------------

_UNIT_AXES = {"r": (), "c": (1,), "h": (1, 2, 3)}


def _generator_table(map_kind: str, n: int) -> np.ndarray:
    """The basis generators E as the columns (u, i, j, sigma) of a (4, G)
    int array: E[i,j] = e_u, E[j,i] = sigma e_u, every other entry zero.

    Order: A^{i,j} = (0, i<j, -1) lexicographic, then the iC, jC, kC
    blocks u C^{i,j} = (u, i<=j, +1), each lexicographic.
    """
    if n < 2:
        raise QStochError("n must be >= 2")
    rows = [(0, i, j, -1) for i, j in zip(*np.triu_indices(n, 1))]
    rows += [(u, i, j, 1) for u in _UNIT_AXES[map_kind]
             for i, j in zip(*np.triu_indices(n))]
    return np.array(rows, dtype=int).T


def b_coordinates(m: np.ndarray) -> np.ndarray:
    """Coordinates of zero-row/column-sum matrices (..., n, n) in the
    B^{i,j} basis, B^{i,j} = e_ij - e_in - e_nj + e_nn for i,j <= n-1.

    Each B^{i,j} is the only basis element supported at (i,j) for
    i,j <= n-1, so the coordinates are just the top-left block, row-major.
    """
    return m[..., :-1, :-1].reshape(m.shape[:-2] + (-1,))


# ---------------------------------------------------------------------------
# Jacobian assembly
# ---------------------------------------------------------------------------


def _check_point(map_kind: str, p: QMatrix) -> None:
    if map_kind not in MAP_KINDS:
        raise QStochError(f"unknown map kind {map_kind!r}")
    if map_kind == "r" and p.max_imag() > SCALAR_FIELD:
        raise QStochError("map r needs a real matrix")
    if map_kind == "c" and p.max_jk() > SCALAR_FIELD:
        raise QStochError("map c needs a complex matrix")
    if not p.is_symplectic():
        raise QStochError(f"point is not in the group within {GROUP}")


def _real_dot(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Re(conj(p) t) of (..., 4) arrays, summed in qmul's order."""
    return (p[..., 0] * t[..., 0] + p[..., 1] * t[..., 1]
            + p[..., 2] * t[..., 2] + p[..., 3] * t[..., 3])


def jacobian(map_kind: str, p: QMatrix) -> np.ndarray:
    """Differential of the squared-norm map at p in the explicit bases, a
    ((n-1)^2, dim) array."""
    _check_point(map_kind, p)
    n = p.rows
    pd = p.data
    u, i, j, sigma = _generator_table(map_kind, n)
    g = np.arange(u.size)
    e_ij = np.zeros((u.size, 1, 4))
    e_ij[g, 0, u] = 1.0
    e_ji = np.zeros((u.size, 1, 4))
    e_ji[g, 0, u] = sigma
    image = np.zeros((u.size, n, n))
    image[g, j] = _real_dot(pd[j], qmul(e_ji, pd[i]))
    image[g, i] = _real_dot(pd[i], qmul(e_ij, pd[j]))
    return b_coordinates(image).T


def rank_report(m: np.ndarray, tol: float = RANK_RATIO):
    """(rank, singular values, gap ratio).  The rank counts singular values
    above max(tol * sigma_max * max(rows, cols), RANK_FLOOR), so rounding
    noise adds no rank.  The gap ratio compares the last retained singular
    value with the first discarded one, or with the threshold when the
    matrix has full numerical rank."""
    s = np.linalg.svd(m, compute_uv=False)
    threshold = max(tol * s.max(initial=0.0) * max(m.shape), RANK_FLOOR)
    rank = int(np.sum(s > threshold))
    if rank == 0:
        return 0, s, np.inf
    if rank < s.size and s[rank] > 0.0:
        gap = s[rank - 1] / s[rank]
    else:
        gap = s[rank - 1] / threshold
    return rank, s, float(gap)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyResult:
    map_kind: str
    n: int
    verdict: str  # "regular", "singular" (map r) or "critical" (maps c, h)
    rank: int
    domain_dim: int
    codomain_dim: int
    pattern_verdict: str | None

    def report_line(self) -> str:
        return (f"map={self.map_kind} n={self.n} rank={self.rank} "
                f"dim_domain={self.domain_dim} dim_codomain={self.codomain_dim} "
                f"verdict={self.verdict}")


# the sizes at which the zero-pattern rules decide, per map
_PATTERN_SIZES = {"r": range(2, 5), "c": range(2, 4), "h": range(2, 4)}


def _zero_mask_stable(norms: np.ndarray):
    """Zero mask at ZERO_ENTRY, or None when a norm sits in the ambiguous band."""
    band = (norms > ZERO_ENTRY) & (norms < ZERO_ENTRY * ZERO_BAND)
    if band.any():
        return None
    return norms <= ZERO_ENTRY


def _pattern_verdict(map_kind: str, p: QMatrix) -> str:
    """The zero-pattern verdict, or "undecided" near a tolerance.

    A point whose zero mask splits it is degenerate for every map.  For
    map r, n = 4 has a second type: zeros form a transversal, everything
    else nonzero.  For maps c and h at n = 3, the entries of the matrix
    dephased at its largest zero-free frame all lie in one complex plane,
    span{1, u}: it is critical when they are real and regular when one is
    far from real.  The component of a pure part off the largest one's
    direction u guards against borderline input.
    """
    norms = p.norms()
    zero = _zero_mask_stable(norms)
    if zero is None:
        return "undecided"
    if p.splits():
        return "singular" if map_kind == "r" else "critical"
    if map_kind == "r":
        transversal = (zero.sum() == 4 and (zero.sum(axis=0) == 1).all()
                       and (zero.sum(axis=1) == 1).all())
        return "singular" if p.rows == 4 and transversal else "regular"
    if p.rows == 2:
        return "regular"
    frame = np.minimum.outer(norms.min(axis=1), norms.min(axis=0))
    r, c = np.unravel_index(np.argmax(frame), frame.shape)
    if frame[r, c] <= ZERO_ENTRY * ZERO_BAND:
        return "undecided"
    dephased = QMatrix(np.roll(p.data, (-r, -c), axis=(0, 1))).dephase()
    pure = dephased.data[..., 1:].reshape(-1, 3)
    sizes = np.linalg.norm(pure, axis=1)
    imag = sizes.max()
    if imag <= REDUCED_ZERO:
        return "critical"
    u = pure[np.argmax(sizes)] / imag
    if np.linalg.norm(pure - np.outer(pure @ u, u), axis=1).max() > REDUCED_ZERO:
        return "undecided"
    return "regular" if imag >= REDUCED_REGULAR else "undecided"


def classify_point(map_kind: str, p: QMatrix, tol: float = RANK_RATIO,
                   cross_check: bool = True) -> ClassifyResult:
    """Rank-based singular/critical/regular verdict with an optional
    zero-pattern cross check.

    The rank verdict compares rank(dphi) against dim O(n) for map r and
    against (n-1)^2 for maps c and h, the Jacobian's columns and rows.  With
    cross_check, when the pattern machinery supports the size (n <= 4 for r,
    n <= 3 for c and h) and does not report "undecided", a disagreement with
    the rank verdict raises QStochError; other sizes skip the check.
    """
    jac = jacobian(map_kind, p)
    rank = rank_report(jac, tol)[0]
    n = p.rows
    cdim, ddim = jac.shape
    if map_kind == "r":
        verdict = "singular" if rank < ddim else "regular"
    else:
        verdict = "critical" if rank < cdim else "regular"
    pattern = None
    if cross_check and n in _PATTERN_SIZES[map_kind]:
        pattern = _pattern_verdict(map_kind, p)
        if pattern != "undecided" and pattern != verdict:
            raise QStochError(
                f"rank verdict {verdict} but pattern verdict {pattern} "
                f"(map {map_kind}, n={n})")
    return ClassifyResult(map_kind, n, verdict, rank, ddim, cdim, pattern)


# ---------------------------------------------------------------------------
# a sampler shared by the classification tests and the benchmark
# ---------------------------------------------------------------------------


def shuffled_block_sum(rng, sizes) -> np.ndarray:
    """Random orthogonal direct sum with shuffled rows and columns; splits."""
    n = sum(sizes)
    out = np.zeros((n, n))
    pos = 0
    for k in sizes:
        out[pos:pos + k, pos:pos + k] = haar_orthogonal(k, rng)
        pos += k
    pr, pc = rng.permutation(n), rng.permutation(n)
    return out[np.ix_(pr, pc)]
