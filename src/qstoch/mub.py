"""Mutually unbiased bases over H^n.

A basis is a symplectic matrix whose columns are the basis vectors; a set
of bases is unbiased when every cross inner product has squared norm 1/n.
The size of such a set is at most 2n+1; the bound is attained for n = 2.
For n = 3 the module carries the two explicit four-element families, a
grid-plus-stabilizer extension search over the third-basis families, and a
direct descent search used to cross-check maximality claims.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import hadamard
from .errors import QStochError
from .qmatrix import (QMatrix, _chi, _from_chi_rows, _odd_rows, _qr_retract,
                      fourier, gram_schmidt_columns, identity, qmat_adjoint,
                      qmat_eye, qmat_mul, random_quaternion_array,
                      read_qmatrix_text, write_qmat)
from .quaternion import ONE, Quaternion, qconj, qmul, qnormsq
from .tol import (DESCENT_GOAL, DESCENT_STALL, GRADIENT_FLOOR, GROUP,
                  NEAR_MISS, STEP_FLOOR, UNBIASED)


def cross_gram_deviation(a: np.ndarray, b: np.ndarray):
    """Max deviation of the squared norms of (A* B) entries from 1/n, over
    the last two axes: a stack of A gives one deviation for each."""
    n = a.shape[-3]
    gram = qmat_mul(qmat_adjoint(a), b)
    return np.max(np.abs(qnormsq(gram) - 1.0 / n), axis=(-2, -1))


def check_bases(n: int, bases) -> float:
    """Raise unless bases are at most 2n+1 pairwise unbiased n x n
    symplectic matrices; return the worst cross_gram_deviation of a pair
    (0 for fewer than two bases)."""
    if len(bases) > 2 * n + 1:
        raise QStochError(f"{len(bases)} bases exceed the bound {2 * n + 1}")
    for b in bases:
        if b.rows != n or b.cols != n:
            raise QStochError("all bases must be n x n")
        if not b.is_symplectic():
            raise QStochError(f"basis fails the symplectic check at {GROUP}")
    worst = 0.0
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            dev = cross_gram_deviation(bases[i].data, bases[j].data)
            if dev > UNBIASED:
                raise QStochError(
                    f"bases {i} and {j} are not unbiased (deviation {dev:.2e})")
            worst = max(worst, dev)
    return worst


@dataclass(frozen=True)
class MubSet:
    """Ordered collection of pairwise unbiased orthonormal bases."""

    n: int
    bases: tuple[QMatrix, ...]

    def __post_init__(self):
        check_bases(self.n, self.bases)


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


def one_param_h3(s: float, t: float) -> MubSet:
    """Four bases {I, F_3, A(s,t)/sqrt3, A(-s,-t)/sqrt3} with A the circulant
    with diagonal zeta = -1/2 + s i + t j."""
    if not hadamard.on_zeta_circle(np.array([-0.5, s, t, 0.0])):
        raise QStochError("(s,t) must lie on the circle s^2 + t^2 = 3/4")
    root3 = math.sqrt(3.0)
    one = ONE.as_array()

    def circ(sv: float, tv: float) -> QMatrix:
        zeta = np.array([-0.5, sv, tv, 0.0])
        return QMatrix(np.array([
            [zeta, one, one],
            [one, zeta, one],
            [one, one, zeta],
        ]) / root3)

    return MubSet(3, (identity(3), fourier(3), circ(s, t), circ(-s, -t)))


def three_param_h3(a: Quaternion, b: Quaternion, c: Quaternion) -> MubSet:
    """Four bases {I, F_3, A/sqrt3, B/sqrt3} indexed by three quaternionic
    cube roots of unity orthogonal to k."""
    for q, name in ((a, "a"), (b, "b"), (c, "c")):
        if not hadamard.on_zeta_circle(q.as_array()):
            raise QStochError(
                f"{name} must be -1/2 + s i + t j with s^2 + t^2 = 3/4")
    root3 = math.sqrt(3.0)
    one = ONE.as_array()

    def frame(z: np.ndarray, row: np.ndarray) -> QMatrix:
        """[[1, 1, 1], [1, z, z z], [r, (r z) z, r z]] / sqrt3, r = row."""
        rz = qmul(row, z)
        return QMatrix(np.array([
            [one, one, one],
            [one, z, qmul(z, z)],
            [row, qmul(rz, z), rz],
        ]) / root3)

    a, b, c = (q.as_array() for q in (a, b, c))
    return MubSet(3, (identity(3), fourier(3), frame(a, b), frame(c, qconj(b))))


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
    """The blocks of a mub set file; rmat blocks become real QMatrix."""
    bases = [read_qmatrix_text(blk) for blk in re.split(r"\n\s*\n", text)
             if blk.strip()]
    if not bases:
        raise QStochError("no matrices in mub set file")
    return bases


# ---------------------------------------------------------------------------
# descent on Sp(n): shared by the polish step and the direct search
# ---------------------------------------------------------------------------

# accepted steps over which a restart must lower its objective by more than
# DESCENT_STALL of its value to go on
_STALL_WINDOW = 20
# accepted steps after which a restart stops in any case
_MAX_STEPS = 2000


class _ChiBuffer:
    """A preallocated chi(W), 2n x 2n, whose odd rows are rebuilt from its
    even rows, so the iterate stays exactly on the chi pattern."""

    def __init__(self, n: int):
        self.full = np.empty((2 * n, 2 * n), dtype=complex)
        blocks = self.full.reshape(n, 2, n, 2)
        self.even = self.full[::2]
        self._pairs = blocks[:, 0]  # (z1, z2) of every entry
        self._odd = blocks[:, 1]

    def rebuild(self) -> None:
        _odd_rows(self._pairs, out=self._odd)


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
    dev = qnormsq(coords) - 1.0 / n
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


def _descend(start: np.ndarray, targets: list[np.ndarray]):
    """Backtracking gradient descent over Sp(n) with a QR retraction.

    W and the targets stay in chi form for the whole descent; the result
    converts back once, and its violation is measured on that result.  A
    trial step costs a Cholesky QR retraction and the objective; the
    gradient and the violation are formed only at accepted points, where
    the five stops that direct_maximality_search lists are tested, with
    _MAX_STEPS accepted steps as the cap.  Returns W, its violation and the
    number of accepted steps.
    """
    chi_targets = np.concatenate([_chi(b) for b in targets], axis=1)
    x, cand = _ChiBuffer(start.shape[0]), _ChiBuffer(start.shape[0])
    x.even[...] = _qr_retract(_chi(start))
    x.rebuild()
    y, dev, value = _deviations(x.full, chi_targets)
    values = [value]  # the objective at each accepted point
    step = 0.1
    for _ in range(_MAX_STEPS):
        if np.abs(dev).max() <= DESCENT_GOAL:
            break
        if (len(values) > _STALL_WINDOW and values[-1 - _STALL_WINDOW] - value
                <= DESCENT_STALL * value):
            break
        rgrad = _riemannian_grad(x.full, _gradient(y, dev, chi_targets))
        # the squared norm in the 4n^2 real coordinates of W: chi doubles it
        flat = rgrad.ravel().view(float)
        gnorm2 = 0.5 * float(flat @ flat)
        if gnorm2 < GRADIENT_FLOOR:
            break
        while step > STEP_FLOOR:
            _cholesky_retract(x.full - step * rgrad, cand)
            cand_y, cand_dev, cand_value = _deviations(cand.full, chi_targets)
            if cand_value <= value - 0.3 * step * gnorm2:
                x, cand = cand, x
                y, dev, value = cand_y, cand_dev, cand_value
                values.append(value)
                step *= 1.5
                break
            step *= 0.5
        else:  # no step down to STEP_FLOOR decreased the objective
            break
    w = _from_chi_rows(x.even)
    return (w, max(cross_gram_deviation(w, b) for b in targets),
            len(values) - 1)


def direct_maximality_search(mubset: MubSet, restarts: int = 50,
                             seed: int = 0) -> tuple[float, QMatrix]:
    """Descent over Sp(n) for a basis unbiased to every member of the set.

    Restart r starts from Gram-Schmidt of a Gaussian quaternion matrix drawn
    with seed * 1_000_003 + r.  Each restart stops at the first of five
    reasons:

    - goal: its violation is at most DESCENT_GOAL;
    - stall: its objective fell by at most DESCENT_STALL of its value over
      the last _STALL_WINDOW accepted steps;
    - gradient floor: its squared Riemannian gradient norm is below
      GRADIENT_FLOOR;
    - step floor: no step down to STEP_FLOOR lowered its objective;
    - cap: it has taken _MAX_STEPS (2000) accepted steps.

    Returns the smallest violation found and the achieving matrix, the
    first restart's on a tie.  A violation bounded away from zero across
    restarts is evidence (not proof) that the set is maximal; a violation
    below 1e-8 exhibits an extension.
    """
    if restarts < 1:
        raise QStochError("restarts must be >= 1")
    targets = [b.data for b in mubset.bases]
    n = mubset.n
    best_viol = np.inf
    best_w = None
    for r in range(restarts):
        rng = np.random.default_rng(seed * 1_000_003 + r)
        start = gram_schmidt_columns(random_quaternion_array((n, n), rng))
        w, viol, _ = _descend(start, targets)
        if viol < best_viol:
            best_viol = viol
            best_w = w
    return float(best_viol), QMatrix(best_w)


def is_maximality_evidence(violation: float) -> bool:
    """The maximality verdict on a direct_maximality_search violation: at
    least NEAR_MISS, so no restart came near a basis that extends the set."""
    return violation >= NEAR_MISS


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


# the stabilizer moves of the (I, F_3) pair up to right monomials: a cyclic
# row shift by m, then left multiplication of row r by omega^(p r)
_MOVES = np.array([(m, p) for m in range(3) for p in range(3)])
_ROWS = np.arange(3)
_SURVIVOR_BATCH = 1 << 14
_BATCH = 4096
_TRI = np.triu_indices(9)


def _moved_frames(batch: np.ndarray, frames: np.ndarray,
                  moves: np.ndarray) -> np.ndarray:
    """Frames batch[frames] under the moves _MOVES[moves], shape (S,3,3,4)."""
    shift, zpow = _MOVES[moves].T
    rows = batch[frames[:, None], (_ROWS + shift[:, None]) % 3]
    scale = hadamard.OMEGA_POWERS[(zpow[:, None] * _ROWS) % 3]
    return qmul(scale[:, :, None, :], rows)


def _prefilter_weights(probe: np.ndarray, transforms: np.ndarray) -> np.ndarray:
    """The prefilter as a quadratic form, weights (45, 9 X).

    For a frame with first column f, move (m, p) and conjugation T_x, the
    prefilter tests |sum_k T_x(conj c_k) p_k| with c_k = omega^(p k) f_(k+m)
    and p the probe.  T_x is an inner automorphism, so this equals
    |sum_r conj(f_r) P_r| with P_r = conj(omega^(p k)) T_x^-1(p_k) and
    k = r - m mod 3: moves and conjugations act on the probe alone.  Its
    square over 3 is h^T M h in the 9 coordinates h of f = (1, a, b) not
    fixed at 0; the weight of the monomial h_k h_l, k <= l, is M_kl, doubled
    off the diagonal."""
    k = (_ROWS - _MOVES[:, :1]) % 3
    scale = qconj(hadamard.OMEGA_POWERS[(_MOVES[:, 1:] * k) % 3])
    back = np.einsum("xdc,kd->xkc", transforms, probe)  # T_x^-1(p_k)
    folded = qmul(scale[:, None], np.swapaxes(back[:, k], 0, 1))
    # (d, move, x, r, c): conj(e_d) P_r, the term of conj(f_r) P_r in f_rd
    right = qmul(qconj(np.eye(4))[:, None, None, None, :], folded)
    fold = right.transpose(3, 0, 4, 1, 2).reshape((12, 4, -1))[np.r_[0, 4:12]]
    form = np.einsum("kcx,lcx->klx", fold, fold) * (2.0 - np.eye(9))[..., None]
    return form[_TRI] / 3.0


def _prefilter(rows: np.ndarray, weights: np.ndarray, tol: float) -> np.ndarray:
    """Survivor mask (N, 9, X) of the first cross inner product test, for
    the (N, 3, 4) rows (a, b, zeta) of N frames."""
    n = len(rows)
    # h^T, so that each monomial is a product of two contiguous rows
    h = np.concatenate([np.ones((1, n)), rows[:, :2].reshape(n, 8).T])
    norms = (h[_TRI[0]] * h[_TRI[1]]).T @ weights
    np.abs(np.subtract(norms, 1.0 / 3.0, out=norms), out=norms)
    return (norms <= tol).reshape(n, 9, -1)


@functools.lru_cache(maxsize=1)
def _sweep_table(grid: int):
    """The read-only (a, b, zeta) rows of every family member at this grid in
    scan order, and the bounds of the sweep's batches: at most _BATCH rows,
    none across a family or a chunk of _BATCH generic grid points."""
    parts = list(hadamard.generic_family_rows(grid, chunk_size=_BATCH))
    parts += [hadamard.special_family_rows(f, grid) for f in hadamard.FAMILY_IDS[1:]]
    rows = np.concatenate(parts)
    bounds = np.cumsum([0] + [min(_BATCH, len(p) - lo) for p in parts
                              for lo in range(0, len(p), _BATCH)])
    rows.flags.writeable = bounds.flags.writeable = False
    return rows, bounds


def extend_search(mubset: MubSet, grid: int = 64, conj_grid: int = 32,
                  state: SimpleNamespace | None = None) -> QMatrix | None:
    """Grid search for a basis extending a normalized 3x3 set.

    Sweeps the six third-basis families at the given per-parameter grid
    resolution; each family matrix is pushed through the stabilizer moves
    of the (I, F_3) pair (cyclic row shifts and clock-phase row scalings)
    and entrywise conjugations by e^{i theta} and j e^{i theta}.  A
    candidate within NEAR_MISS of unbiasedness to the whole set is polished
    by local descent and accepted only within UNBIASED.  Candidates are
    scanned in a fixed order (family, grid point, move, conjugation angle),
    so the first hit is deterministic.  Returns None when the sweep is
    exhausted, which is maximality evidence at this resolution only.
    """
    if grid < 1 or conj_grid < 1:
        raise QStochError("grid and conj_grid must be >= 1")
    if mubset.n != 3:
        raise QStochError("extension search is implemented for n = 3")
    if len(mubset.bases) < 2:
        raise QStochError("need at least the identity/Fourier prefix")
    if not mubset.bases[0].approx_eq(identity(3)) \
            or not mubset.bases[1].approx_eq(fourier(3)):
        raise QStochError("set must start with the identity and Fourier bases")
    if state is None:
        state = SimpleNamespace(checked=0, near_misses=0)
    targets = [b.data for b in mubset.bases]
    # [B_1 ... B_T] side by side: one product checks a candidate against all
    all_targets = np.concatenate(targets, axis=1)
    transforms = _conj_transforms(conj_grid)
    probe = targets[2][:, 0, :] if len(targets) > 2 else targets[1][:, 0, :]
    weights = _prefilter_weights(probe, transforms)
    table, bounds = _sweep_table(grid)
    # survivors are checked in blocks that grow, so an early hit stays cheap
    block = 256

    for start, stop in zip(bounds[:-1], bounds[1:]):
        mask = _prefilter(table[start:stop], weights, NEAR_MISS + UNBIASED)
        state.checked += mask.size
        hit = mask.any(axis=(1, 2))
        batch = hadamard.family3_matrix_arr(table[start:stop][hit])
        # row-major order is the scan order: frame, move, conjugation
        nidx, midx, xidx = np.nonzero(mask[hit])
        lo = 0
        while lo < nidx.size:
            hi = min(lo + block, nidx.size)
            block = min(2 * block, _SURVIVOR_BATCH)
            cands = np.einsum("scd,sijd->sijc", transforms[xidx[lo:hi]],
                              _moved_frames(batch, nidx[lo:hi], midx[lo:hi]),
                              optimize=True) / math.sqrt(3.0)
            devs = cross_gram_deviation(cands, all_targets)
            for pos in np.flatnonzero(devs <= NEAR_MISS):
                if devs[pos] <= UNBIASED:
                    return QMatrix(cands[pos])
                state.near_misses += 1
                polished, viol, _ = _descend(cands[pos], targets)
                if viol <= UNBIASED:
                    return QMatrix(polished)
            lo = hi
    return None
