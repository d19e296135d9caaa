"""Mutually unbiased bases over H^n.

A basis is a symplectic matrix whose columns are the basis vectors; a set
of bases is unbiased when every cross inner product has squared norm 1/n.
The size of such a set is at most 2n+1; the bound is attained for n = 2.
For n = 3 the module carries the two explicit four-element families, a
grid-plus-stabilizer extension search over the third-basis families, and a
direct descent search used to cross-check maximality claims.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import hadamard
from .errors import (BadParams, DimensionMismatch, NotNormalized,
                     NotSymplectic, TooManyBases)
from .qmatrix import (_ODD_ROW_SIGNS, QMatrix, _chi, _from_chi_rows,
                      _qr_retract, fourier, gram_schmidt_columns, identity,
                      qconj, qmat_adjoint, qmat_eye, qmat_mul, qmul, qnormsq,
                      random_quaternion_array, read_matrix_text, write_qmat)
from .quaternion import ONE, Quaternion

UNBIASED_TOL = 1e-9
SYMPLECTIC_TOL = 1e-9


def cross_gram_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max deviation of the squared norms of (A* B) entries from 1/n."""
    n = a.shape[0]
    gram = qmat_mul(qmat_adjoint(a), b)
    return float(np.max(np.abs(qnormsq(gram) - 1.0 / n)))


def is_unbiased(a: QMatrix, b: QMatrix, tol: float = UNBIASED_TOL) -> bool:
    """True when all squared cross inner products equal 1/n within tol.

    Equivalently sqrt(n) A*B is a Hadamard matrix.
    """
    if a.rows != b.rows or a.cols != b.cols or not a.is_square:
        raise DimensionMismatch("unbiasedness needs two square matrices of one size")
    for m in (a, b):
        if m.unitary_defect() > 1e-8:
            raise NotSymplectic("bases must be symplectic within 1e-8")
    return cross_gram_deviation(a.data, b.data) <= tol


@dataclass(frozen=True)
class MubSet:
    """Ordered collection of pairwise unbiased orthonormal bases."""

    n: int
    bases: tuple[QMatrix, ...]

    def __post_init__(self):
        if len(self.bases) > 2 * self.n + 1:
            raise TooManyBases(
                f"{len(self.bases)} bases exceed the bound {2 * self.n + 1}")
        for b in self.bases:
            if b.rows != self.n or b.cols != self.n:
                raise DimensionMismatch("all bases must be n x n")
            if b.unitary_defect() > SYMPLECTIC_TOL:
                raise NotSymplectic("basis fails the symplectic check at 1e-9")
        for i in range(len(self.bases)):
            for j in range(i + 1, len(self.bases)):
                dev = cross_gram_deviation(self.bases[i].data, self.bases[j].data)
                if dev > UNBIASED_TOL:
                    raise BadParams(
                        f"bases {i} and {j} are not unbiased (deviation {dev:.2e})")

    def __len__(self) -> int:
        return len(self.bases)


# ---------------------------------------------------------------------------
# explicit families
# ---------------------------------------------------------------------------


def complete_mub_h2() -> MubSet:
    """The five-element (= 2n+1) set for n = 2: identity plus the four
    sign matrices with second rows (q, -q) for q in {1, i, j, k}."""
    s = 1.0 / math.sqrt(2.0)
    bases = [identity(2)]
    for axis in range(4):
        arr = np.zeros((2, 2, 4))
        arr[0, 0, 0] = arr[0, 1, 0] = s
        arr[1, 0, axis] = s
        arr[1, 1, axis] = -s
        bases.append(QMatrix(arr))
    return MubSet(2, tuple(bases))


def _check_cube_root(q: Quaternion, name: str) -> None:
    if (abs(q.norm() - 1.0) > 1e-9 or abs(q.w + 0.5) > 1e-9
            or abs(q.z) > 1e-9):
        raise BadParams(f"{name} must be -1/2 + s i + t j with s^2 + t^2 = 3/4")


def one_param_h3(s: float, t: float) -> MubSet:
    """Four bases {I, F_3, A(s,t)/sqrt3, A(-s,-t)/sqrt3} with A the circulant
    with diagonal zeta = -1/2 + s i + t j."""
    if abs(s * s + t * t - 0.75) > 1e-9:
        raise BadParams("(s,t) must lie on the circle s^2 + t^2 = 3/4")
    root3 = math.sqrt(3.0)

    def circ(sv: float, tv: float) -> QMatrix:
        zeta = Quaternion(-0.5, sv, tv, 0.0)
        return QMatrix.from_entries([
            [zeta, ONE, ONE],
            [ONE, zeta, ONE],
            [ONE, ONE, zeta],
        ]) / root3

    return MubSet(3, (identity(3), fourier(3), circ(s, t), circ(-s, -t)))


def three_param_h3(a: Quaternion, b: Quaternion, c: Quaternion) -> MubSet:
    """Four bases {I, F_3, A/sqrt3, B/sqrt3} indexed by three quaternionic
    cube roots of unity orthogonal to k."""
    for q, name in ((a, "a"), (b, "b"), (c, "c")):
        _check_cube_root(q, name)
    root3 = math.sqrt(3.0)
    bbar = b.conjugate()
    mat_a = QMatrix.from_entries([
        [ONE, ONE, ONE],
        [ONE, a, a * a],
        [b, b * a * a, b * a],
    ]) / root3
    mat_b = QMatrix.from_entries([
        [ONE, ONE, ONE],
        [ONE, c, c * c],
        [bbar, bbar * c * c, bbar * c],
    ]) / root3
    return MubSet(3, (identity(3), fourier(3), mat_a, mat_b))


# ---------------------------------------------------------------------------
# operator-frame orthogonality
# ---------------------------------------------------------------------------


def qtrace(m: np.ndarray):
    """Trace of a quaternion matrix: twice the sum of the diagonal scalar
    parts.  Broadcasts over leading axes."""
    return 2.0 * np.trace(m[..., 0], axis1=-2, axis2=-1)


def operator_frame_orthogonality(mubset) -> float:
    """Max |Tr(E_i F_j)| over cross-basis pairs, where E_i is the projector
    onto the i-th basis vector minus I/n.  Vanishes exactly on unbiased
    sets.  Accepts a MubSet or a plain sequence of bases (the latter is
    handy for measuring how far a biased collection is from unbiased)."""
    bases = mubset.bases if isinstance(mubset, MubSet) else tuple(mubset)
    n = bases[0].rows
    ops = []
    for basis in bases:
        cols = np.swapaxes(basis.data, 0, 1)[:, :, None, :]  # n columns, n x 1
        ops.append(qmat_mul(cols, qmat_adjoint(cols)) - qmat_eye(n) / n)
    worst = 0.0
    for bi in range(len(ops)):
        for bj in range(bi + 1, len(ops)):
            traces = qtrace(qmat_mul(ops[bi][:, None], ops[bj][None, :]))
            worst = max(worst, float(np.max(np.abs(traces))))
    return worst


# ---------------------------------------------------------------------------
# mub set files: concatenated QMAT blocks separated by blank lines
# ---------------------------------------------------------------------------


def write_mubset(mubset: MubSet) -> str:
    return "\n".join(write_qmat(b) for b in mubset.bases)


def read_mubset_matrices(text: str) -> list[QMatrix]:
    blocks = [blk for blk in re.split(r"\n\s*\n", text) if blk.strip()]
    bases = []
    for blk in blocks:
        kind, m = read_matrix_text(blk)
        bases.append(m if kind == "qmat" else QMatrix.from_real(m))
    if not bases:
        raise BadParams("no matrices in mub set file")
    return bases


def read_mubset(text: str) -> MubSet:
    bases = read_mubset_matrices(text)
    return MubSet(bases[0].rows, tuple(bases))


# ---------------------------------------------------------------------------
# descent on Sp(n): shared by the polish step and the direct search
# ---------------------------------------------------------------------------

class _ChiBuffer:
    """A preallocated chi(W), 2n x 2n, whose odd rows are rebuilt from its
    even rows, so the iterate stays exactly on the chi pattern."""

    def __init__(self, n: int):
        self.full = np.empty((2 * n, 2 * n), dtype=complex)
        blocks = self.full.reshape(n, 2, n, 2)
        self.even = self.full[::2]
        self._swapped = blocks[:, 0, :, ::-1]  # (z2, z1) of every entry
        self._odd = blocks[:, 1]  # (-conj z2, conj z1)

    def rebuild(self) -> None:
        np.conjugate(self._swapped, out=self._odd)
        self._odd *= _ODD_ROW_SIGNS


def _cholesky_retract(c: np.ndarray, out: _ChiBuffer) -> None:
    """Write the Q factor of c = QR, diag(R) > 0, into out.

    c^H c = R^H R, so R is the upper Cholesky factor of c^H c and Q = c R^-1:
    the factor _qr_retract returns, at half the cost.  (chol of conj(c^H c)
    is conj of the lower factor, so its transpose is R.)  For c = x - s g
    with x in Sp(n) and g tangent at x, x^H g is skew, so c^H c = I +
    s^2 g^H g has eigenvalues in [1, 1 + s^2 |g|_2^2], and that ratio, the
    condition number of R squared, bounds the orthogonality Cholesky QR
    loses.
    """
    r = np.linalg.cholesky(c.T @ c.conj()).T
    np.matmul(c[::2], np.linalg.inv(r), out=out.even)
    out.rebuild()


def _deviations(x: np.ndarray, chi_targets: np.ndarray):
    """chi(W* B) for every target at chi(W) = x, the deviations of its
    squared entry norms from 1/n, and the objective, their sum of squares.

    chi_targets = [chi(B_1) ... chi(B_T)] side by side.  The squared norms
    are read off the float view of the even rows, which hold the entries.
    """
    n = x.shape[0] // 2
    y = x.conj().T @ chi_targets
    coords = y[::2].view(float).reshape(n, -1, 4)
    dev = (coords * coords).sum(axis=-1) - 1.0 / n
    flat = dev.ravel()
    return y, dev, float(flat @ flat)


def _gradient(y: np.ndarray, dev: np.ndarray,
              chi_targets: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the objective in the 4n^2 real coordinates of
    W, in chi form: with G = 4 dev * (W* B) entrywise, sum_t B_t G_t^*."""
    n = dev.shape[0]
    g = y.reshape(n, 2, -1, 2) * (4.0 * dev)[:, None, :, None]
    return chi_targets @ g.reshape(2 * n, -1).conj().T


def _riemannian_grad(x: np.ndarray, euclid: np.ndarray) -> np.ndarray:
    """Project a chi-form gradient onto the tangent space of Sp(n) at x."""
    xg = x.conj().T @ euclid
    return euclid - x @ (0.5 * (xg + xg.conj().T))


def _descend(start: np.ndarray, targets: list[np.ndarray], max_iter: int = 2000,
             viol_goal: float = 1e-10):
    """Backtracking gradient descent over Sp(n) with a QR retraction.

    W and the targets stay in chi form for the whole descent; the result
    converts back once, and its violation is measured on that result.  A
    trial step costs a Cholesky QR retraction and the objective; the
    gradient and the violation are formed only at accepted points.
    """
    chi_targets = np.concatenate([_chi(b) for b in targets], axis=1)
    x, cand = _ChiBuffer(start.shape[0]), _ChiBuffer(start.shape[0])
    x.even[...] = _qr_retract(_chi(start))
    x.rebuild()
    y, dev, value = _deviations(x.full, chi_targets)
    step = 0.1
    for _ in range(max_iter):
        if np.abs(dev).max() <= viol_goal:
            break
        rgrad = _riemannian_grad(x.full, _gradient(y, dev, chi_targets))
        # the squared norm in the 4n^2 real coordinates of W: chi doubles it
        flat = rgrad.ravel().view(float)
        gnorm2 = 0.5 * float(flat @ flat)
        if gnorm2 < 1e-30:
            break
        while step > 1e-14:
            _cholesky_retract(x.full - step * rgrad, cand)
            cand_y, cand_dev, cand_value = _deviations(cand.full, chi_targets)
            if cand_value <= value - 0.3 * step * gnorm2:
                x, cand = cand, x
                y, dev, value = cand_y, cand_dev, cand_value
                step *= 1.5
                break
            step *= 0.5
        else:  # no step down to 1e-14 decreased the objective
            break
    w = _from_chi_rows(x.even)
    return w, max(cross_gram_deviation(w, b) for b in targets)


def direct_maximality_search(mubset: MubSet, restarts: int = 50,
                             seed: int = 0) -> tuple[float, QMatrix]:
    """Descent over Sp(n) for a basis unbiased to every member of the set.

    Returns the smallest violation found and the achieving matrix.  A
    violation bounded away from zero across restarts is evidence (not
    proof) that the set is maximal; a violation below 1e-8 exhibits an
    extension.
    """
    targets = [b.data for b in mubset.bases]
    n = mubset.n
    best_viol = np.inf
    best_w = None
    for r in range(restarts):
        rng = np.random.default_rng(seed * 1_000_003 + r)
        start = gram_schmidt_columns(random_quaternion_array((n, n), rng))
        w, viol = _descend(start, targets)
        if viol < best_viol:
            best_viol = viol
            best_w = w
    return float(best_viol), QMatrix(best_w)


# ---------------------------------------------------------------------------
# extension search over the third-basis families
# ---------------------------------------------------------------------------


def _conj_transforms(conj_grid: int) -> np.ndarray:
    """Component maps of entrywise conjugation by e^{i theta} and by
    j e^{i theta}: a rotation by 2 theta in the (j,k) plane, optionally
    followed by the flip that negates i and k."""
    thetas = np.arange(conj_grid) * np.pi / conj_grid
    rot = np.zeros((conj_grid, 4, 4))
    rot[:, 0, 0] = rot[:, 1, 1] = 1.0
    rot[:, 2, 2] = rot[:, 3, 3] = np.cos(2 * thetas)
    rot[:, 3, 2] = np.sin(2 * thetas)
    rot[:, 2, 3] = -rot[:, 3, 2]
    flip = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    return np.concatenate([rot, flip * rot])


_W_POWS = np.array([[1.0, 0.0, 0.0, 0.0], hadamard.OMEGA.as_array(),
                    (hadamard.OMEGA * hadamard.OMEGA).as_array()])
# the stabilizer moves of the (I, F_3) pair up to right monomials: a cyclic
# row shift by m, then left multiplication of row r by omega^(p r)
_MOVES = np.array([(m, p) for m in range(3) for p in range(3)])
_ROWS = np.arange(3)
_SURVIVOR_BATCH = 1 << 15


def _moved_frames(batch: np.ndarray, frames: np.ndarray,
                  moves: np.ndarray) -> np.ndarray:
    """Frames batch[frames] under the moves _MOVES[moves], shape (S,3,3,4)."""
    shift, zpow = _MOVES[moves].T
    rows = batch[frames[:, None], (_ROWS + shift[:, None]) % 3]
    return qmul(_W_POWS[(zpow[:, None] * _ROWS) % 3][:, :, None, :], rows)


def _fold_probe(probe: np.ndarray, transforms: np.ndarray) -> np.ndarray:
    """The prefilter as one matrix, shape (12, 4, 9, X).

    For a frame with first column f, move (m, p) and conjugation T_x, the
    prefilter tests |sum_k T_x(conj c_k) p_k| with c_k = omega^(p k) f_(k+m)
    and p the probe.  T_x is an inner automorphism, so this equals
    |sum_r conj(f_r) P_r| with P_r = conj(omega^(p k)) T_x^-1(p_k) and
    k = r - m mod 3: moves and conjugations act on the probe alone.  Entry
    (r, d, c, move, x) is coordinate c of e_d P_r.
    """
    k = (_ROWS - _MOVES[:, :1]) % 3
    scale = qconj(_W_POWS[(_MOVES[:, 1:] * k) % 3])
    back = np.einsum("xdc,kd->xkc", transforms, probe)  # T_x^-1(p_k)
    folded = qmul(scale[:, None], np.swapaxes(back[:, k], 0, 1))
    right = qmul(np.eye(4)[:, None, None, None, :], folded)  # (d, move, x, r, c)
    return right.transpose(3, 0, 4, 1, 2).reshape((12, 4) + folded.shape[:2])


def _prefilter(batch: np.ndarray, fold: np.ndarray, tol: float) -> np.ndarray:
    """Survivor mask (N, 9, X) of the first cross inner product test."""
    n = len(batch)
    inner = qconj(batch[:, :, 0, :]).reshape(n, 12) @ fold.reshape(12, -1)
    norms = np.square(inner, out=inner).reshape((n,) + fold.shape[1:]).sum(axis=1)
    # |norms / 3 - 1 / 3| in place: the sweep's peak memory is this function's
    np.abs(np.subtract(np.divide(norms, 3.0, out=norms), 1.0 / 3.0, out=norms),
           out=norms)
    return norms <= tol


@dataclass
class _SearchState:
    checked: int = 0
    near_misses: int = 0


def _family_batches(grid: int, chunk: int = 4096):
    for batch in hadamard.generic_family_chunks(grid, chunk_size=chunk):
        for start in range(0, batch.shape[0], chunk):
            yield "generic", batch[start:start + chunk]
    for fam in ("s1", "s2", "s3", "s4", "s5"):
        pts = hadamard.special_family_points(fam, grid)
        for start in range(0, pts.shape[0], chunk):
            yield fam, pts[start:start + chunk]


def extend_search(mubset: MubSet, grid: int = 64, conj_grid: int = 32,
                  state: _SearchState | None = None) -> QMatrix | None:
    """Grid search for a basis extending a normalized 3x3 set.

    Sweeps the six third-basis families at the given per-parameter grid
    resolution; each family matrix is pushed through the stabilizer moves
    of the (I, F_3) pair (cyclic row shifts and clock-phase row scalings)
    and entrywise conjugations by e^{i theta} and j e^{i theta}.  A
    candidate within 1e-3 of unbiasedness to the whole set is polished by
    local descent and accepted only below 1e-9.  Candidates are scanned in
    a fixed order (family, grid point, move, conjugation angle), so the
    first hit is deterministic.  Returns None when the sweep is exhausted,
    which is maximality evidence at this resolution only.
    """
    if mubset.n != 3:
        raise NotNormalized("extension search is implemented for n = 3")
    if len(mubset.bases) < 2:
        raise NotNormalized("need at least the identity/Fourier prefix")
    if not mubset.bases[0].approx_eq(identity(3), 1e-9) \
            or not mubset.bases[1].approx_eq(fourier(3), 1e-9):
        raise NotNormalized("set must start with the identity and Fourier bases")
    if state is None:
        state = _SearchState()
    targets = [b.data for b in mubset.bases]
    # [B_1 ... B_T] side by side: one product checks a candidate against all
    all_targets = np.concatenate(targets, axis=1)
    transforms = _conj_transforms(conj_grid)
    root3 = math.sqrt(3.0)
    probe = targets[2][:, 0, :] if len(targets) > 2 else targets[1][:, 0, :]
    fold = _fold_probe(probe, transforms)
    coarse_tol = 1e-3
    # survivors are checked in blocks that grow, so an early hit stays cheap
    block = 256

    for _fam, batch in _family_batches(grid):
        mask = _prefilter(batch, fold, coarse_tol + 1e-9)
        state.checked += mask.size
        # row-major order is the scan order: frame, move, conjugation
        nidx, midx, xidx = np.nonzero(mask)
        lo = 0
        while lo < nidx.size:
            hi = min(lo + block, nidx.size)
            block = min(2 * block, _SURVIVOR_BATCH)
            cands = np.einsum("scd,sijd->sijc", transforms[xidx[lo:hi]],
                              _moved_frames(batch, nidx[lo:hi], midx[lo:hi]),
                              optimize=True) / root3
            # no name holds the Gram products, so they are freed here and
            # not kept alive through the next batch's prefilter
            devs = np.max(np.abs(qnormsq(qmat_mul(qmat_adjoint(cands), all_targets))
                                 - 1.0 / 3.0), axis=(-2, -1))
            for pos in np.flatnonzero(devs <= coarse_tol):
                if devs[pos] <= 1e-9:
                    return QMatrix(cands[pos])
                state.near_misses += 1
                polished, viol = _descend(cands[pos], targets)
                if viol <= 1e-9:
                    return QMatrix(polished)
            lo = hi
    return None
