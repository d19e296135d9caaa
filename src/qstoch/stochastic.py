"""Bistochastic matrices and membership machinery for ortho/qu-stochastic sets.

Everything here works on plain float arrays; quaternion inputs enter only
through phi, the entrywise squared-norm map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotBistochastic, NotUnitary, TooLarge, WrongSize
from .qmatrix import QMatrix

BISTOCHASTIC_TOL = 1e-9
ENTRY_FLOOR = -1e-12


class BistochasticMatrix:
    """Nonnegative square matrix with unit row and column sums."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NotBistochastic(f"expected a square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NotBistochastic("matrix has a NaN or infinite entry")
        if np.min(arr) < ENTRY_FLOOR:
            raise NotBistochastic(f"negative entry {np.min(arr)!r}")
        rows = np.abs(arr.sum(axis=1) - 1.0)
        cols = np.abs(arr.sum(axis=0) - 1.0)
        if max(rows.max(), cols.max()) > BISTOCHASTIC_TOL:
            raise NotBistochastic("row/column sums deviate from 1 beyond tolerance")
        # entries in [ENTRY_FLOOR, 0) are zeros up to rounding; their square
        # roots would be NaN
        arr = np.maximum(arr, 0.0)
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    def __setattr__(self, name, value):
        raise AttributeError("BistochasticMatrix is immutable")

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"BistochasticMatrix(n={self.n})"


@dataclass(frozen=True)
class SignPattern:
    """An n x n matrix of +-1 signs."""

    n: int
    signs: np.ndarray

    def signed_sqrt(self, b: BistochasticMatrix) -> np.ndarray:
        return self.signs * np.sqrt(b.mat)


def phi(m: QMatrix) -> BistochasticMatrix:
    """Entrywise squared norm of an orthogonal/unitary/symplectic matrix."""
    if not m.is_square:
        raise NotUnitary("phi requires a square matrix")
    if m.unitary_defect() > 1e-8:
        raise NotUnitary("input is not in the unitary group within 1e-8")
    return BistochasticMatrix(m.squared_norms())


def van_der_waerden(n: int) -> BistochasticMatrix:
    """The constant 1/n matrix, barycenter of the Birkhoff polytope."""
    if n < 1:
        raise WrongSize("n must be >= 1")
    return BistochasticMatrix(np.full((n, n), 1.0 / n))


# ---------------------------------------------------------------------------
# membership tests for n = 3 and the polynomial system for n = 4
# ---------------------------------------------------------------------------


def ortho3_residual(b: BistochasticMatrix) -> float:
    """Residual of the degree-4 orthostochasticity equation for n = 3.

    With (x, y, z, w) the top-left 2x2 block, the matrix is orthostochastic
    exactly when (1-x-y-z-w+xw+yz)^2 = 4xyzw.
    """
    if b.n != 3:
        raise WrongSize("ortho3 is defined for 3x3 matrices")
    x, y = b.mat[0, 0], b.mat[0, 1]
    z, w = b.mat[1, 0], b.mat[1, 1]
    return float((1 - x - y - z - w + x * w + y * z) ** 2 - 4 * x * y * z * w)


def ortho3_test(b: BistochasticMatrix, tol: float = 1e-9) -> bool:
    return abs(ortho3_residual(b)) <= tol


def _pair_residual(t2: np.ndarray) -> float:
    """Sign-feasibility residual for four nonnegative squared terms t2.

    Equals the product of (t1 +- t2 +- t3 +- t4) over all sign choices, so it
    vanishes exactly when some signing of the square roots sums to zero.
    """
    s = (t2[0] + t2[1] - t2[2] - t2[3]) ** 2 - 4 * t2[0] * t2[1] - 4 * t2[2] * t2[3]
    return float(s * s - 64.0 * np.prod(t2))


def sigma_poly_4(b: BistochasticMatrix) -> list[float]:
    """The 12 polynomial residuals of the n = 4 sign-feasibility system.

    Order: column pairs (1,2),(1,3),(1,4),(2,3),(2,4),(3,4), then row pairs
    in the same order.  All residuals vanish on orthostochastic matrices.
    """
    if b.n != 4:
        raise WrongSize("sigma_poly_4 is defined for 4x4 matrices")
    out = []
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for i, j in pairs:
        out.append(_pair_residual(b.mat[:, i] * b.mat[:, j]))
    for i, j in pairs:
        out.append(_pair_residual(b.mat[i, :] * b.mat[j, :]))
    return out


# ---------------------------------------------------------------------------
# Sigma_n by meet in the middle
# ---------------------------------------------------------------------------

_SIGMA_MAX_N = 24


def _signed_sums(t: np.ndarray) -> np.ndarray:
    """All 2^k signed sums of the k columns of t, one row of sums per row of
    t; bit m of a sum's index flips the sign of column m."""
    k = t.shape[1]
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return t @ (1.0 - 2.0 * bits).T


def sigma_pair_minima(b: BistochasticMatrix) -> list[tuple[str, int, int, float]]:
    """Best achievable |sum of signed sqrt products| for every row/column pair.

    Min |sum_k s_k t_k| is a partition problem, solved exactly by meet in the
    middle (Horowitz & Sahni, JACM 21, 1974): the signed sums of the first
    (n+1)//2 terms (first sign fixed +1) meet the sorted signed sums of the
    rest, and the best partner of a left sum l is a neighbour of -l in that
    order.  This takes about 2^(n/2) steps per pair instead of 2^(n-1).
    Returns tuples (kind, i, j, min_abs) with kind "col" or "row" and
    0-based indices, column pairs first.
    """
    n = b.n
    if n > _SIGMA_MAX_N:
        raise TooLarge(f"sigma system enumeration capped at n = {_SIGMA_MAX_N}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [("col", i, j) for i, j in pairs] + [("row", i, j) for i, j in pairs]
    t = np.array([np.sqrt(b.mat[:, i] * b.mat[:, j]) for i, j in pairs]
                 + [np.sqrt(b.mat[i, :] * b.mat[j, :]) for i, j in pairs]
                 ).reshape(len(labels), n)
    half = (n + 1) // 2
    left = t[:, :1] + _signed_sums(t[:, 1:half])
    right = np.sort(_signed_sums(t[:, half:]), axis=1)
    pos = np.empty(left.shape, dtype=np.intp)
    for p in range(len(labels)):
        pos[p] = np.searchsorted(right[p], -left[p])
    last = right.shape[1] - 1
    below = np.take_along_axis(right, np.maximum(pos - 1, 0), axis=1)
    above = np.take_along_axis(right, np.minimum(pos, last), axis=1)
    best = np.minimum(np.abs(left + below), np.abs(left + above)).min(axis=1)
    return [(k, i, j, float(m)) for (k, i, j), m in zip(labels, best)]


def sigma_check(b: BistochasticMatrix, tol: float = 1e-9) -> bool:
    """True when every pair of rows and columns admits a vanishing signing."""
    return all(m <= tol for _, _, _, m in sigma_pair_minima(b))


# ---------------------------------------------------------------------------
# brute-force orthostochasticity oracle for n <= 5
# ---------------------------------------------------------------------------

_BRUTE_MAX_N = 5


def orthostochastic_bruteforce(b: BistochasticMatrix, tol: float = 1e-8):
    """Search sign patterns making sqrt(B) orthogonal; None when there is none.

    Fixing the first row and column to +1 loses nothing: signs of an
    orthogonal preimage can always be dephased over R, and a sign at a zero
    entry is immaterial, so it is kept +1.  Patterns are completed column
    by column: a candidate column (first sign +1) survives only when its
    inner product with every placed column, and its squared norm minus 1,
    are within tol.  Of the complete patterns the one returned is the first
    in the scan order where bit (r-1)(n-1)+(c-1) of the index is the sign
    of entry (r, c), so the result is deterministic.
    """
    n = b.n
    if n > _BRUTE_MAX_N:
        raise TooLarge(f"pattern search capped at n = {_BRUTE_MAX_N}")
    root = np.sqrt(b.mat)
    if not abs(root[:, 0] @ root[:, 0] - 1.0) <= tol:
        return None
    flips = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    row_bit = (n - 1) * np.arange(n - 1)  # index bit of entry (r, 1), r >= 1
    placed = root[None, :, :1]  # (partial patterns, n, columns placed)
    index = np.zeros(1, dtype=np.int64)
    for c in range(1, n):
        # flipping a zero entry changes no inner product, only the index
        f = flips[~(flips & (root[1:, c] == 0.0)).any(axis=1)]
        cand = root[:, c] * np.hstack([np.ones((len(f), 1)), 1.0 - 2.0 * f])
        norm_ok = np.abs(np.einsum("kr,kr->k", cand, cand) - 1.0) <= tol
        inner = np.einsum("prc,kr->pkc", placed, cand)
        p, q = np.nonzero((np.abs(inner) <= tol).all(axis=2) & norm_ok)
        if p.size == 0:
            return None
        placed = np.concatenate([placed[p], cand[q, :, None]], axis=2)
        index = index[p] + (f[q] << (row_bit + c - 1)).sum(axis=1)
    bits = (index.min() >> np.arange((n - 1) * (n - 1))) & 1
    signs = np.ones((n, n))
    signs[1:, 1:] = (1.0 - 2.0 * bits).reshape(n - 1, n - 1)
    return SignPattern(n, signs)


# ---------------------------------------------------------------------------
# permutation segments
# ---------------------------------------------------------------------------


def permutation_array(perm) -> np.ndarray:
    """Real permutation matrix with entry (perm[j], j) = 1."""
    n = len(perm)
    out = np.zeros((n, n))
    out[np.asarray(perm), np.arange(n)] = 1.0
    return out


def _cycles(perm) -> list[list[int]]:
    n = len(perm)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cur, cyc = start, []
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur)
            cur = perm[cur]
        cycles.append(cyc)
    return cycles


@dataclass(frozen=True)
class SegmentVerdict:
    verdict: str  # "orthostochastic" or "not_qustochastic"
    matrix: BistochasticMatrix
    witness: np.ndarray | None  # orthogonal matrix X with X*X = matrix entries


def segment_block_analysis(sigma, tau, p: float) -> SegmentVerdict:
    """Classify the segment p*P_sigma + (1-p)*P_tau by the cycle type of
    sigma^-1 tau.

    All cycles of length <= 2 give an orthostochastic point with an explicit
    orthogonal witness built from 2x2 rotation blocks; a longer cycle makes
    the midpoint fail the sign-feasibility system, so the verdict is
    not_qustochastic (reported at p = 1/2).
    """
    if not (0.0 < p < 1.0):
        raise WrongSize("p must lie strictly between 0 and 1")
    sigma = tuple(sigma)
    tau = tuple(tau)
    n = len(sigma)
    inv_sigma = [0] * n
    for j, i in enumerate(sigma):
        inv_sigma[i] = j
    rho = tuple(inv_sigma[tau[j]] for j in range(n))
    cycles = _cycles(rho)
    if all(len(c) <= 2 for c in cycles):
        comb = p * permutation_array(sigma) + (1 - p) * permutation_array(tau)
        y = np.zeros((n, n))
        sp, sq = np.sqrt(p), np.sqrt(1 - p)
        for cyc in cycles:
            if len(cyc) == 1:
                y[cyc[0], cyc[0]] = 1.0
            else:
                a, bidx = cyc
                y[a, a] = y[bidx, bidx] = sp
                y[a, bidx] = sq
                y[bidx, a] = -sq
        witness = permutation_array(sigma) @ y
        return SegmentVerdict("orthostochastic", BistochasticMatrix(comb), witness)
    mid = 0.5 * permutation_array(sigma) + 0.5 * permutation_array(tau)
    return SegmentVerdict("not_qustochastic", BistochasticMatrix(mid), None)


# ---------------------------------------------------------------------------
# distance from J_3 to the orthostochastic surface
# ---------------------------------------------------------------------------


def _rotation_and_partials(angles: np.ndarray):
    """Z-Y-Z Euler rotation and its three partial derivatives."""
    a, b, c = angles
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    rza = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
    drza = np.array([[-sa, -ca, 0], [ca, -sa, 0], [0, 0, 0]])
    ryb = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    dryb = np.array([[-sb, 0, cb], [0, 0, 0], [-cb, 0, -sb]])
    rzc = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
    drzc = np.array([[-sc, -cc, 0], [cc, -sc, 0], [0, 0, 0]])
    r = rza @ ryb @ rzc
    return r, (drza @ ryb @ rzc, rza @ dryb @ rzc, rza @ ryb @ drzc)


def _j3_objective(angles: np.ndarray):
    r, partials = _rotation_and_partials(angles)
    dev = r * r - 1.0 / 3.0
    f = float(np.sum(dev * dev))
    grad = np.array([4.0 * np.sum(dev * r * dr) for dr in partials])
    return f, grad


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call: the import takes
    most of a second and only the J_3 distance needs it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    minimizer: BistochasticMatrix
    iterations: int
    restarts: int


def distance_j3_report(restarts: int = 100, seed: int = 0) -> DistanceResult:
    """Multi-start descent for the Frobenius distance from J_3 to the
    orthostochastic surface.

    The search runs over SO(3) in Z-Y-Z angles with the exact chain-rule
    gradient (sign flips do not change the image, so SO(3) covers it) and
    keeps the best local minimum across restarts.
    """
    if restarts < 1:
        raise WrongSize("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    best_f = np.inf
    best_angles = None
    total_iter = 0
    for _ in range(restarts):
        x0 = rng.uniform(0.0, 2.0 * np.pi, size=3)
        res = minimize(_j3_objective, x0, jac=True, method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 500})
        total_iter += int(res.nit)
        if res.fun < best_f:
            best_f = float(res.fun)
            best_angles = res.x
    r, _ = _rotation_and_partials(best_angles)
    minimizer = BistochasticMatrix(r * r)
    return DistanceResult(float(np.sqrt(best_f)), minimizer, total_iter, restarts)


def distance_j3(restarts: int = 100, seed: int = 0) -> tuple[float, BistochasticMatrix]:
    res = distance_j3_report(restarts, seed)
    return res.distance, res.minimizer


# ---------------------------------------------------------------------------
# the order-16 counterexample to sufficiency of Sigma_n
# ---------------------------------------------------------------------------

_PRIMES_15 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def hurwitz_radon_matrix(seed: int = 0) -> BistochasticMatrix:
    """Weighted sum of the regular representation of (Z/2)^4.

    Entry (alpha, beta) equals the weight of the group element alpha xor
    beta, so rows and columns are permutations of the weight vector and the
    matrix is symmetric bistochastic.  Weights emulate numbers whose
    pairwise square-root products are rationally independent: the first 15
    primes divided by 400, with seeded jitter only breaking ties.
    The resulting matrix satisfies the full sign-feasibility system, while
    its non-orthostochasticity is a structural fact that brute force cannot
    reach at this size.
    """
    rng = np.random.default_rng(seed)
    weights = np.empty(16)
    jitter = 1.0 + 1e-10 * rng.random(15)
    weights[1:] = np.array(_PRIMES_15, dtype=float) * jitter / 400.0
    weights[0] = 1.0 - weights[1:].sum()
    alpha = np.arange(16)
    table = alpha[:, None] ^ alpha[None, :]
    return BistochasticMatrix(weights[table])
