"""Independent reference computations the benchmark checks outputs against.

None of these call qstoch, so a defect in a qstoch kernel cannot hide
itself in the check.

* Quaternion matrices go through the complex adjoint representation:
  Q = Z1 + Z2 j maps to the 2n x 2n complex matrix [[Z1, Z2], [-conj Z2,
  conj Z1]], a ring homomorphism that turns the quaternion adjoint into the
  complex conjugate transpose.  Entry (p, q) of A*B then has squared norm
  |Z1_pq|^2 + |Z2_pq|^2, read off the top blocks of chi(A)^H chi(B).
* The sign-feasibility minima are found by meet in the middle: split the n
  terms in two halves, enumerate each half's signed sums, sort one side and
  search it for the negation of the other.
"""

from __future__ import annotations

import numpy as np


def complex_adjoint(a: np.ndarray) -> np.ndarray:
    """chi(A) for an (n, m, 4) quaternion array."""
    z1 = a[..., 0] + 1j * a[..., 1]
    z2 = a[..., 2] + 1j * a[..., 3]
    return np.block([[z1, z2], [-z2.conj(), z1.conj()]])


def adjoint_product_normsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared entry norms of the quaternion product A* B."""
    n = a.shape[1]
    prod = complex_adjoint(a).conj().T @ complex_adjoint(b)
    return np.abs(prod[:n, :n]) ** 2 + np.abs(prod[:n, n:]) ** 2


def unbiased_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max deviation of |(A* B)_pq|^2 from 1/n."""
    return float(np.max(np.abs(adjoint_product_normsq(a, b) - 1.0 / a.shape[0])))


def unitary_defect(a: np.ndarray) -> float:
    """Max entry norm of A* A - I."""
    n = a.shape[1]
    prod = complex_adjoint(a).conj().T @ complex_adjoint(a)
    prod[:n, :n] -= np.eye(n)
    return float(np.sqrt(np.max(np.abs(prod[:n, :n]) ** 2
                                + np.abs(prod[:n, n:]) ** 2)))


def _signed_sums(t: np.ndarray, fix_first: bool) -> np.ndarray:
    """All signed sums of the columns of t (rows are pairs), (pairs, 2^k)."""
    k = t.shape[1]
    free = k - 1 if fix_first else k
    idx = np.arange(1 << free)
    bits = (idx[:, None] >> np.arange(free)[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    if fix_first:
        signs = np.hstack([np.ones((signs.shape[0], 1)), signs])
    return t @ signs.T


def sigma_minima(b: np.ndarray) -> np.ndarray:
    """min over signs of |sum_k s_k sqrt(b_ki b_kj)| for every column pair
    and then every row pair (i < j), in the order sigma_pair_minima uses."""
    n = b.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cols = [np.sqrt(b[:, i] * b[:, j]) for i, j in pairs]
    rows = [np.sqrt(b[i, :] * b[j, :]) for i, j in pairs]
    t = np.array(cols + rows)
    half = (n + 1) // 2
    left = _signed_sums(t[:, :half], fix_first=True)
    right = np.sort(_signed_sums(t[:, half:], fix_first=False), axis=1)
    out = np.empty(t.shape[0])
    last = right.shape[1] - 1
    for p in range(t.shape[0]):
        pos = np.searchsorted(right[p], -left[p])
        lo = right[p][np.clip(pos - 1, 0, last)]
        hi = right[p][np.clip(pos, 0, last)]
        out[p] = min(np.abs(left[p] + lo).min(), np.abs(left[p] + hi).min())
    return out
