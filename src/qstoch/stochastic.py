"""Bistochastic matrices and membership machinery for ortho/qu-stochastic sets.

Everything here works on plain float arrays; quaternion inputs enter only
through phi, the entrywise squared-norm map.  The distance from J_3 to the
orthostochastic surface is searched with mub's Sp(n) descent, which a real
orthogonal start keeps in O(3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QStochError
from .mub import _descend
from .qmatrix import QMatrix, haar_orthogonal, qmat_eye
from .tol import BISTOCHASTIC_SUM, BRUTE_GRAM, ENTRY_FLOOR, GROUP, SIGMA_MIN


class BistochasticMatrix:
    """Nonnegative square matrix with unit row and column sums."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise QStochError(
                f"expected a square matrix with n >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise QStochError("matrix has a NaN or infinite entry")
        if np.min(arr) < ENTRY_FLOOR:
            raise QStochError(f"negative entry {float(np.min(arr))!r}")
        rows = np.abs(arr.sum(axis=1) - 1.0)
        cols = np.abs(arr.sum(axis=0) - 1.0)
        if max(rows.max(), cols.max()) > BISTOCHASTIC_SUM:
            raise QStochError("row/column sums deviate from 1 beyond tolerance")
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


def phi(m: QMatrix) -> BistochasticMatrix:
    """Entrywise squared norm of an orthogonal/unitary/symplectic matrix."""
    if not m.is_symplectic():
        raise QStochError(f"input is not in the unitary group within {GROUP}")
    return BistochasticMatrix(m.squared_norms())


def van_der_waerden(n: int) -> BistochasticMatrix:
    """The constant 1/n matrix, barycenter of the Birkhoff polytope."""
    if n < 1:
        raise QStochError("n must be >= 1")
    return BistochasticMatrix(np.full((n, n), 1.0 / n))


# ---------------------------------------------------------------------------
# membership tests for n = 3 and the polynomial system for n = 4
# ---------------------------------------------------------------------------


def ortho3_residual(b: BistochasticMatrix) -> float:
    """Residual of the degree-4 orthostochasticity equation for n = 3.

    With (x, y, z, w) the top-left 2x2 block, the matrix is orthostochastic
    exactly when (1-x-y-z-w+xw+yz)^2 = 4xyzw.  The residual scales with the
    fourth power of the entries, so ortho3_test does not decide by it.
    """
    if b.n != 3:
        raise QStochError("ortho3 is defined for 3x3 matrices")
    x, y = b.mat[0, 0], b.mat[0, 1]
    z, w = b.mat[1, 0], b.mat[1, 1]
    return float((1 - x - y - z - w + x * w + y * z) ** 2 - 4 * x * y * z * w)


def ortho3_test(b: BistochasticMatrix) -> bool:
    """The Sigma_3 verdict, which is exact at n = 3: two orthogonal columns
    of a signed sqrt(B) fix the third up to sign."""
    if b.n != 3:
        raise QStochError("ortho3 is defined for 3x3 matrices")
    return sigma_pair_minima(b).feasible


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
        raise QStochError("sigma_poly_4 is defined for 4x4 matrices")
    return [_pair_residual(t2) for t2 in _pair_products(b)]


# ---------------------------------------------------------------------------
# Sigma_n by meet in the middle
# ---------------------------------------------------------------------------

_SIGMA_MAX_N = 24
# signed sums one merge block holds, so that each of its arrays stays
# within 128 KiB; the pairs per block follow from n
_SIGMA_BLOCK_SUMS = 1 << 14
# an int64 with every bit but the sign bit
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
# added to the gaps between neighbours from the same side, which are no
# candidates, so that none of them can be a row's minimum
_SAME_SIDE = np.finfo(float).max


def _index_bits(k: int) -> np.ndarray:
    """The (2^k, k) 0/1 matrix whose row m holds the bits of m, lowest
    first."""
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def _pair_products(b: BistochasticMatrix) -> np.ndarray:
    """b_ki b_kj for every column pair in np.triu_indices order, then every
    row pair in the same order, one row per pair."""
    n = b.n
    i, j = np.triu_indices(n, 1)
    lines = np.stack([b.mat.T, b.mat])  # columns, then rows
    return (lines[:, i] * lines[:, j]).reshape(-1, n)


def _nearest_cross_gaps(neg_left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per row, min |r - x| over x in neg_left and r in right, except that
    a zero may come out as -0.0.

    Both sides go into one row, sorted, and the answer is the smallest gap
    between sorted neighbours from different sides.  The sort runs on int64
    keys that order like the floats and carry the side in their lowest bit.
    Every sum is at most sum_k t_k <= 1 + BISTOCHASTIC_SUM in absolute value
    (Cauchy-Schwarz on two lines of B), so its key needs 62 bits and the
    shift by one cannot overflow.
    """
    both = np.concatenate([neg_left, right], axis=1)
    keys = both.view(np.int64)
    keys ^= (keys >> 63) & _MAGNITUDE
    keys <<= 1
    keys[:, neg_left.shape[1]:] |= 1
    keys.sort(axis=1)
    same = ((keys[:, 1:] ^ keys[:, :-1]) & 1) == 0
    keys >>= 1
    keys ^= (keys >> 63) & _MAGNITUDE  # both now holds the sorted sums
    gaps = both[:, 1:] - both[:, :-1]
    gaps += same * _SAME_SIDE
    return gaps.min(axis=1)


@dataclass(frozen=True, eq=False)
class SigmaMinima:
    """The pair minima of sigma_pair_minima as one read-only float64 array,
    column pairs first, then row pairs, each in np.triu_indices order.

    Iterating it yields the rows (kind, i, j, min_abs), with kind "col" or
    "row" and 0-based indices, built when read; len counts them.
    """

    n: int
    minima: np.ndarray

    def __post_init__(self):
        self.minima.setflags(write=False)

    @property
    def feasible(self) -> bool:
        """The Sigma_n verdict: every pair admits a vanishing signing."""
        return bool(np.all(self.minima <= SIGMA_MIN))

    def __len__(self) -> int:
        return len(self.minima)

    def __iter__(self):
        pairs = np.transpose(np.triu_indices(self.n, 1)).tolist()
        kinds = ["col"] * len(pairs) + ["row"] * len(pairs)
        return ((kind, i, j, m) for kind, (i, j), m
                in zip(kinds, pairs * 2, self.minima.tolist()))


def sigma_pair_minima(b: BistochasticMatrix) -> SigmaMinima:
    """Best achievable |sum of signed sqrt products| for every row/column pair.

    Min |sum_k s_k t_k| is a partition problem, solved exactly by meet in the
    middle (Horowitz & Sahni, JACM 21, 1974): the signed sums l of the first
    (n+1)//2 terms (first sign fixed +1) meet the signed sums r of the rest.
    fl(l + r) is monotone in r, so the best |l + r| lies between neighbours
    of the merged sorted -l and r, and |r - (-l)| is exactly |l + r|.  This
    takes about 2^(n/2) steps per pair instead of 2^(n-1).  Pairs go through
    the merge in blocks whose size follows from n and _SIGMA_BLOCK_SUMS.
    """
    n = b.n
    if n > _SIGMA_MAX_N:
        raise QStochError(f"sigma system enumeration capped at n = {_SIGMA_MAX_N}")
    t = np.sqrt(_pair_products(b))
    half = (n + 1) // 2
    width = (1 << (half - 1)) + (1 << (n - half))  # sums per pair
    # bit m of a sum's index flips the sign of term m; the sums are
    # t @ signs.T, an operand layout the minima's bits depend on
    left = 1.0 - 2.0 * _index_bits(half - 1)
    right = 1.0 - 2.0 * _index_bits(n - half)
    # an even number of pairs, so that with n(n-1) pairs no block has one
    # row: numpy multiplies a one-row matrix with gemv, whose rounding
    # differs from gemm's, and the minima's bits depend on it
    block = 2 * max(1, _SIGMA_BLOCK_SUMS // (2 * width))
    best = np.empty(len(t))
    for start in range(0, len(t), block):
        tb = t[start:start + block]
        best[start:start + block] = _nearest_cross_gaps(
            -(tb[:, :1] + tb[:, 1:half] @ left.T), tb[:, half:] @ right.T)
    return SigmaMinima(n, np.abs(best))


# ---------------------------------------------------------------------------
# brute-force orthostochasticity oracle for n <= 5
# ---------------------------------------------------------------------------

_BRUTE_MAX_N = 5


def orthostochastic_bruteforce(b: BistochasticMatrix):
    """Search sign patterns making sqrt(B) orthogonal; None when there is none.

    Fixing the first row and column to +1 loses nothing: signs of an
    orthogonal preimage can always be dephased over R, and a sign at a zero
    entry is immaterial, so it is kept +1.  The scan index of a pattern has
    bit (r-1)(n-1)+(c-1) set when entry (r, c) is -1.  Rows are completed
    from the last to the second, each row's sign vectors in increasing bit
    order, so the partial patterns stay in scan order and the first
    complete one has the smallest index.  A candidate row survives when its
    inner product with every placed row is within BRUTE_GRAM; the rows of
    sqrt(B) have norm 1 within BISTOCHASTIC_SUM, below BRUTE_GRAM.
    """
    n = b.n
    if n > _BRUTE_MAX_N:
        raise QStochError(f"pattern search capped at n = {_BRUTE_MAX_N}")
    root = np.sqrt(b.mat)
    flips = _index_bits(n - 1)
    signs = np.ones((1, n, n))  # (partial patterns, n, n)
    for r in range(n - 1, 0, -1):
        f = flips[~(flips & (root[r, 1:] == 0.0)).any(axis=1)]
        cand = np.hstack([np.ones((len(f), 1)), 1.0 - 2.0 * f])
        # the first row and the rows placed so far
        placed = (signs * root)[:, [0, *range(r + 1, n)]]
        inner = np.einsum("pqc,kc->pkq", placed, cand * root[r])
        p, k = np.nonzero((np.abs(inner) <= BRUTE_GRAM).all(axis=2))
        if p.size == 0:
            return None
        signs = signs[p]
        signs[:, r] = cand[k]
    return SignPattern(n, signs[0])


# ---------------------------------------------------------------------------
# permutation segments
# ---------------------------------------------------------------------------


def permutation_array(perm) -> np.ndarray:
    """Real permutation matrix with entry (perm[j], j) = 1."""
    n = len(perm)
    out = np.zeros((n, n))
    out[np.asarray(perm), np.arange(n)] = 1.0
    return out


@dataclass(frozen=True)
class SegmentVerdict:
    verdict: str  # "orthostochastic" or "not_qustochastic"
    matrix: BistochasticMatrix
    witness: np.ndarray | None  # orthogonal matrix X with X*X = matrix entries


def segment_block_analysis(sigma, tau, p: float) -> SegmentVerdict:
    """Classify the segment p*P_sigma + (1-p)*P_tau by rho = sigma^-1 tau.

    When rho is an involution, all its cycles have length <= 2 and the point
    is orthostochastic, with an explicit orthogonal witness built from 2x2
    rotation blocks; a longer cycle makes the midpoint fail the
    sign-feasibility system, so the verdict is not_qustochastic (reported at
    p = 1/2).
    """
    if not (0.0 < p < 1.0):
        raise QStochError("p must lie strictly between 0 and 1")
    p_sigma, p_tau = permutation_array(sigma), permutation_array(tau)
    rho = np.argsort(sigma)[np.asarray(tau)]
    j = np.arange(len(rho))
    if np.array_equal(rho[rho], j):
        # each 2-cycle (a, b), a < b, gets the block [[sp, sq], [-sq, sp]]
        y = np.diag(np.where(rho == j, 1.0, np.sqrt(p)))
        y[j, rho] += np.sign(rho - j) * np.sqrt(1 - p)
        comb = p * p_sigma + (1 - p) * p_tau
        return SegmentVerdict("orthostochastic", BistochasticMatrix(comb),
                              p_sigma @ y)
    mid = 0.5 * p_sigma + 0.5 * p_tau
    return SegmentVerdict("not_qustochastic", BistochasticMatrix(mid), None)


# ---------------------------------------------------------------------------
# distance from J_3 to the orthostochastic surface
# ---------------------------------------------------------------------------


def minimize(start: np.ndarray) -> tuple[np.ndarray, float, int]:
    """One restart of the J_3 distance search from a real orthogonal start.

    At a real R the objective sum (r_ij^2 - 1/3)^2 is the Sp(3) descent's
    objective toward the one basis I_3, and from a real start every
    gradient, projection and retraction of that descent stays real, so it
    runs over O(3).  Returns R, the objective at R and the accepted steps.
    """
    w, _, steps = _descend(QMatrix.from_real(start).data, [qmat_eye(3)])
    r = w[..., 0]
    dev = r * r - 1.0 / 3.0
    return r, float(np.sum(dev * dev)), steps


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    minimizer: BistochasticMatrix
    iterations: int
    restarts: int


def distance_j3_report(restarts: int = 100, seed: int = 0) -> DistanceResult:
    """Multi-start descent for the Frobenius distance from J_3 to the
    orthostochastic surface.

    Each restart runs minimize from a Haar O(3) start; the result keeps
    the best local minimum across restarts, and its iterations are the
    accepted descent steps summed over them.
    """
    if restarts < 1:
        raise QStochError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    best_f = np.inf
    best_r = None
    total_iter = 0
    for _ in range(restarts):
        r, f, steps = minimize(haar_orthogonal(3, rng))
        total_iter += steps
        if f < best_f:
            best_f, best_r = f, r
    minimizer = BistochasticMatrix(best_r * best_r)
    return DistanceResult(float(np.sqrt(best_f)), minimizer, total_iter, restarts)


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
