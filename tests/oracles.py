"""Loop, broadcast and exhaustive implementations kept as references.

These are the direct quaternion formulations that the complex-adjoint
kernels in qstoch.qmatrix, the folded prefilter of the H^3 extension sweep
and the batched 3x3 families replaced, the scalar generic 3x3 family (a
scan for the roots of phi, the unbiasedness system one basis quaternion at
a time, Cramer's rule) and the broadcast form of that system that the
closed form in qstoch.hadamard replaced, the Sp(n) descent loop with
a Householder QR retraction and a full objective at every trial step that
the lean loop in qstoch.mub replaced, the exhaustive sign
enumerations that the meet-in-the-middle sigma search and the column-by-
column pattern completion in qstoch.stochastic replaced, the one-
searchsorted-per-pair lookup that the sigma search's blocked merge
replaced, the Jacobian
built one dense generator at a time that the two-row columns in
qstoch.differential replaced, the depth-first split test and the
n = 2 zero-mask rules that QMatrix.splits replaced, and the n = 3 pattern
rule of maps c and h that searched its corner over every permutation pair
and rotated the dephased matrix's (2,2) entry onto the i axis before it
read i coordinates, which the dephased pure-part rule replaced.  They share no code
path with those beyond the elementwise Hamilton product (plus the
generic-family generator feeding the sweep, and the chi conversions and
the start-point QR of the descent), so a defect cannot hide in a
comparison against them.  The references for code that multiplies with
qstoch.quaternion.qmul (the unbiasedness system, and the aligning rotation
and entrywise conjugation of the old n = 3 rule) multiply through
conftest's left-multiplication matrix instead, so they do not share the
formula they check.

Three references read a setting of the code they check: descend_qr takes
the stall window of qstoch.mub's descent, so both stop by the same rule,
tangent_generators reads qstoch.differential's generator table, and
sigma_pair_minima_searchsorted forms its signed sums as t times the sign
matrix from qstoch.stochastic's _index_bits, in the program's operand
layout, because every minimum's bits depend on that product's rounding.
The Birkhoff and zero-diagonal O(4) samplers and the power-series matrix
exponential used by the tests live here too.
"""

import itertools
import math

import numpy as np

from qstoch import hadamard, mub
from qstoch.differential import _generator_table, _zero_mask_stable
from qstoch.errors import DegenerateP, QStochError
from qstoch.mub import cross_gram_deviation
from qstoch.qmatrix import (QMatrix, _chi, _chi_from_rows, _from_chi_rows,
                            _qr_retract, qmat_eye, qmat_mul)
from qstoch.quaternion import qconj, qmul, qnormsq
from qstoch.stochastic import (BistochasticMatrix, SignPattern, _index_bits,
                               permutation_array)
from qstoch.tol import (DESCENT_STALL, REDUCED_REGULAR, REDUCED_ZERO,
                        ZERO_BAND, ZERO_ENTRY)

from conftest import ref_mul


def hamilton_qmat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion matrix product of (...,n,m,4) and (...,m,k,4) arrays as
    one broadcast Hamilton product summed over the inner index."""
    prod = qmul(a[..., :, :, None, :], b[..., None, :, :, :])
    return prod.sum(axis=-3)


def gram_schmidt_loop(arr: np.ndarray, passes: int = 2) -> np.ndarray:
    """Column-by-column Gram-Schmidt of an (m,n,4) array.

    Column j is corrected by col_j -= col_l * <col_l, col_j>; the projection
    coefficient multiplies on the right, consistent with H^n as a right
    vector space.  A second pass stabilizes near-dependent frames.
    """
    a = arr.copy()
    n = a.shape[1]
    for _ in range(passes):
        for j in range(n):
            for l in range(j):
                coef = qmul(qconj(a[:, l, :]), a[:, j, :]).sum(axis=0)
                a[:, j, :] -= qmul(a[:, l, :], coef[None, :])
            nrm = np.sqrt(qnormsq(a[:, j, :]).sum())
            a[:, j, :] /= nrm
    return a


# ---------------------------------------------------------------------------
# the Sp(n) descent with a Householder QR retraction
# ---------------------------------------------------------------------------


def descent_objective(x: np.ndarray, chi_targets: np.ndarray):
    """Objective at chi(W) = x, its chi-form Euclidean gradient and the
    violation max |dev|, all from one pass over chi(W* B_t)."""
    n = x.shape[0] // 2
    y = x.conj().T @ chi_targets
    sq = y.real ** 2 + y.imag ** 2
    dev = sq[::2].reshape(n, -1, 2).sum(axis=-1) - 1.0 / n
    g = y.reshape(n, 2, -1, 2) * (4.0 * dev)[:, None, :, None]
    grad = chi_targets @ g.reshape(2 * n, -1).conj().T
    return float(np.sum(dev * dev)), grad, float(np.max(np.abs(dev)))


def _stalled(values: list) -> bool:
    """The stall stop of mub._descend on the objective values at accepted
    points: the last _STALL_WINDOW steps lowered it by at most DESCENT_STALL
    of its value."""
    window = mub._STALL_WINDOW
    return (len(values) > window
            and values[-1 - window] - values[-1] <= DESCENT_STALL * values[-1])


def descend_qr(start: np.ndarray, targets, max_iter: int = 2000,
               viol_goal: float = 1e-10, trials: list | None = None):
    """Backtracking descent over Sp(n) that retracts every trial step by
    Householder QR and evaluates the objective with its gradient there.

    It stops as mub._descend does, stall included.  trials, when given,
    receives (value, armijo_bound) for each trial step in order; the step
    is accepted when value <= armijo_bound.
    """
    chi_targets = np.concatenate([_chi(b) for b in targets], axis=1)
    x = _chi_from_rows(_qr_retract(_chi(start)))
    value, grad, viol = descent_objective(x, chi_targets)
    values = [value]
    step = 0.1
    for _ in range(max_iter):
        xg = x.conj().T @ grad
        rgrad = grad - x @ (0.5 * (xg + xg.conj().T))
        gnorm2 = 0.5 * float(np.sum(rgrad.real ** 2 + rgrad.imag ** 2))
        if gnorm2 < 1e-30 or viol <= viol_goal or _stalled(values):
            break
        moved = False
        while step > 1e-14:
            cand = _chi_from_rows(_qr_retract(x - step * rgrad))
            cand_value, cand_grad, cand_viol = descent_objective(cand, chi_targets)
            bound = value - 0.3 * step * gnorm2
            if trials is not None:
                trials.append((cand_value, bound))
            if cand_value <= bound:
                x, value, grad, viol = cand, cand_value, cand_grad, cand_viol
                values.append(value)
                step *= 1.5
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    w = _from_chi_rows(x[::2])
    return w, max(cross_gram_deviation(w, b) for b in targets)


# ---------------------------------------------------------------------------
# the H^3 extension sweep before the folded prefilter
# ---------------------------------------------------------------------------

R32 = math.sqrt(3.0) / 2.0
_OMEGA = np.array([-0.5, R32, 0.0, 0.0])
_W_POWS = [np.array([1.0, 0.0, 0.0, 0.0]), _OMEGA, qmul(_OMEGA, _OMEGA)]
MOVES = [(m, p) for m in range(3) for p in range(3)]


def conj_transforms(conj_grid: int) -> np.ndarray:
    """Component maps of conjugation by e^{i theta} and by j e^{i theta},
    built from the Hamilton product itself: column d of the map of u is
    the coordinates of u e_d conj(u)."""
    thetas = np.arange(conj_grid) * np.pi / conj_grid
    rot = np.stack([np.cos(thetas), np.sin(thetas), 0 * thetas, 0 * thetas], -1)
    units = np.concatenate([rot, qmul(np.array([0.0, 0.0, 1.0, 0.0]), rot)])
    basis = np.eye(4)[None, :, :]
    images = qmul(qmul(units[:, None, :], basis), qconj(units)[:, None, :])
    return np.swapaxes(images, 1, 2)


def left_move(batch: np.ndarray, shift: int, zpow: int) -> np.ndarray:
    """Cyclic row shift, then row r scaled on the left by omega^(zpow r)."""
    out = np.roll(batch, -shift, axis=-3)
    if zpow % 3:
        for row in range(3):
            scale = _W_POWS[(zpow * row) % 3]
            out[..., row, :, :] = qmul(scale, out[..., row, :, :])
    return out


def broadcast_prefilter(batch: np.ndarray, probe: np.ndarray,
                        transforms: np.ndarray, tol: float):
    """Every move of every frame, conjugated every way, then the first cross
    inner product against the probe by broadcast Hamilton products.
    Returns the moved stack and the survivors as (frame, move, conj) rows
    in scan order."""
    moved = np.stack([left_move(batch, m, p) for m, p in MOVES])
    col0 = qconj(moved[:, :, :, 0, :])  # (9, N, 3, 4)
    rotated = np.einsum("xcd,mnkd->mxnkc", transforms, col0)
    inner = qmul(rotated, probe[None, None, None, :, :]).sum(axis=-2)
    mask = np.abs(qnormsq(inner) / 3.0 - 1.0 / 3.0) <= tol  # (9, X, N)
    midx, xidx, nidx = np.nonzero(mask)
    order = np.lexsort((xidx, midx, nidx))
    return moved, np.stack([nidx, midx, xidx], axis=1)[order]


def extend_search_loop(mubset, grid: int, conj_grid: int, chunk: int = 4096):
    """The sweep as a scan over every candidate: the broadcast prefilter, the
    scalar special-family loop below, and a per-candidate check.  Returns
    (found, checked, near_misses); near misses are counted, not polished."""
    targets = [b.data for b in mubset.bases]
    transforms = conj_transforms(conj_grid)
    probe = targets[2][:, 0, :] if len(targets) > 2 else targets[1][:, 0, :]
    batches = [b for b in hadamard.generic_family_chunks(grid, chunk_size=chunk)]
    batches += [special_family_points_loop(f, grid)
                for f in ("s1", "s2", "s3", "s4", "s5")]
    checked = near = 0
    for pts in batches:
        for start in range(0, pts.shape[0], chunk):
            batch = pts[start:start + chunk]
            moved, survivors = broadcast_prefilter(batch, probe, transforms,
                                                   1e-3 + 1e-9)
            checked += 9 * transforms.shape[0] * batch.shape[0]
            for n, m, x in survivors:
                cand = np.einsum("cd,ijd->ijc", transforms[x],
                                 moved[m, n]) / math.sqrt(3.0)
                dev = max(np.max(np.abs(qnormsq(hamilton_qmat_mul(
                    qconj(np.swapaxes(cand, 0, 1)), t)) - 1.0 / 3.0))
                    for t in targets)
                if dev <= 1e-9:
                    return cand, checked, near
                near += dev <= 1e-3
    return None, checked, near


# ---------------------------------------------------------------------------
# the special 3x3 families, one member at a time
# ---------------------------------------------------------------------------


def _zeta(theta: float) -> np.ndarray:
    return np.array([-0.5, R32 * math.cos(theta), R32 * math.sin(theta), 0.0])


def _frame(a: np.ndarray, b: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    one = np.array([1.0, 0.0, 0.0, 0.0])
    az, bz = qmul(a, zeta), qmul(b, zeta)
    return np.array([[one, one, one], [a, az, qmul(az, zeta)],
                     [b, qmul(bz, zeta), bz]])


def ellipse_point(b0: np.ndarray, bw: np.ndarray, psi: float):
    """Point with |b0 + bw @ w| = 1 along direction psi from the ellipse
    center, or None when the unit-norm constraint has no real solution."""
    m = bw.T @ bw
    c = bw.T @ b0
    center = np.linalg.solve(m, -c)
    rho = 1.0 - b0 @ b0 + c @ np.linalg.solve(m, c)
    if rho < 0.0:
        return None
    u = np.array([math.cos(psi), math.sin(psi)])
    return b0 + bw @ (center + math.sqrt(rho / (u @ m @ u)) * u)


def special3_scalar(family_id: str, params, variant: int = 0):
    """One special-family frame as a (3,3,4) array, or None where the
    family has no real member."""
    signs = [1.0 - 2.0 * ((variant >> k) & 1) for k in range(4)]
    if family_id == "s1":
        beta, theta = params
        return _frame(np.array([1.0, 0.0, 0.0, 0.0]), _zeta(beta), _zeta(theta))
    if family_id == "s2":
        theta, psi = params
        zeta = _zeta(theta)
        a = zeta if signs[0] > 0 else qmul(zeta, zeta)
        g = a[1] * math.cos(psi) + a[2] * math.sin(psi)
        h = a[2] * math.cos(psi) - a[1] * math.sin(psi)
        b = np.array([1.0 - 2.0 * g * g, g * math.cos(psi), g * math.sin(psi),
                      2.0 * g * h])
        return _frame(a, b, zeta)
    if family_id == "s3":
        theta, psi = params
        ax = signs[0] * R32
        b2 = ax / 2.0 + (math.sqrt(3.0) / 4.0) * math.cos(psi)
        b3 = (math.sqrt(3.0) / 4.0) * math.sin(psi)
        b = np.array([1.0 - 2.0 * ax * b2, b2, b3, 2.0 * ax * b3])
        return _frame(np.array([-0.5, ax, 0.0, 0.0]), b, _zeta(theta))
    if family_id == "s4":
        (psi,) = params
        e2, e3, et = signs[:3]
        a2, a3 = e2 * math.sqrt(3.0) / 4.0, e3 * math.sqrt(3.0) / 4.0
        a4 = 4.0 * a2 * a3
        bw = np.zeros((4, 2))
        bw[0, 1] = -(4.0 / 3.0) * a4
        bw[1, 0] = 1.0
        bw[2, 0] = -(16.0 / 3.0) * a2 * a3
        bw[2, 1] = (32.0 / 9.0) * a3 * a4
        bw[3, 1] = 1.0
        b = ellipse_point(np.array([-0.5, 0.0, 2.0 * a3, 0.0]), bw, psi)
        if b is None:
            return None
        return _frame(np.array([0.25, a2, a3, a4]), b,
                      np.array([-0.5, 0.0, et * R32, 0.0]))
    a1, psi = params
    if not -0.5 < a1 < 1.0:
        return None
    e2, e3, e4, et = signs
    a2 = e2 * (1.0 - a1) / math.sqrt(3.0)
    q = (1.0 - a1) * (1.0 + 2.0 * a1) / 6.0
    a3 = e3 * math.sqrt(q)
    a4 = e4 * math.sqrt(3.0 * q)
    t = et * 2.0 * abs(a3)
    s = -(a1 * a4 - a2 * a3) * t / (a3 * a3 + a4 * a4)
    if abs(s * s + t * t - 0.75) > 1e-9:
        return None
    bw = np.zeros((4, 2))
    bw[0, 1] = -a2 / a3
    bw[1, 0] = -a3 / a2
    bw[1, 1] = 1.0 / (2.0 * a3)
    bw[2, 0] = 1.0
    bw[3, 1] = 1.0
    b = ellipse_point(np.array([-0.5, (1.0 - a1) / (2.0 * a2), 0.0, 0.0]),
                       bw, psi)
    if b is None:
        return None
    return _frame(np.array([a1, a2, a3, a4]), b, np.array([-0.5, s, t, 0.0]))


def special_family_points_loop(family_id: str, resolution: int) -> np.ndarray:
    """The grid of a special family, one special3_scalar call per point, in
    the order (variant, first parameter, second parameter)."""
    angles = np.arange(resolution) * 2.0 * np.pi / resolution
    if family_id == "s1":
        combos = [(0, (b, th)) for b in angles for th in angles]
    elif family_id in ("s2", "s3"):
        combos = [(v, (th, psi)) for v in (0, 1) for th in angles
                  for psi in angles]
    elif family_id == "s4":
        combos = [(v, (psi,)) for v in range(8) for psi in angles]
    else:
        a1_grid = -0.5 + (np.arange(resolution) + 0.5) * 1.5 / resolution
        combos = [(v, (a1, psi)) for v in range(16) for a1 in a1_grid
                  for psi in angles]
    frames = [special3_scalar(family_id, prm, v) for v, prm in combos]
    frames = [f for f in frames if f is not None]
    return np.array(frames).reshape(-1, 3, 3, 4)


# ---------------------------------------------------------------------------
# the generic 3x3 family, one member at a time
# ---------------------------------------------------------------------------

OMEGA = np.array([-0.5, R32, 0.0, 0.0])
_ONE = np.array([1.0, 0.0, 0.0, 0.0])


def circle_point(theta: float) -> tuple[float, float]:
    return R32 * math.cos(theta), R32 * math.sin(theta)


def alpha_coeffs(a: np.ndarray) -> tuple[float, float, float]:
    a1, a2, a3, a4 = (float(v) for v in a)
    alpha0 = 1 - a1 + 4 * a1 * a2 ** 2 + 2 * a1 * a4 ** 2 + 2 * a2 * a3 * a4 \
        - 2 * a3 ** 2 - 2 * a4 ** 2
    alpha1 = a1 ** 2 * a4 - a2 ** 2 * a4 + 2 * a1 * a2 * a3 - a1 * a4 + a2 * a3
    alpha2 = 1 - a1 + 4 * a1 * a2 ** 2 + 4 * a1 * a3 ** 2 - 2 * a1 * a4 ** 2 \
        - 6 * a2 * a3 * a4
    return alpha0, alpha1, alpha2


def phi_value(a: np.ndarray, s: float, t: float) -> float:
    """4 alpha0 s^2 + 8 alpha1 s t + alpha2; vanishing selects the generic family."""
    alpha0, alpha1, alpha2 = alpha_coeffs(a)
    return 4 * alpha0 * s * s + 8 * alpha1 * s * t + alpha2


def _qpow3(q: np.ndarray, k: int) -> np.ndarray:
    out = _ONE
    for _ in range(k % 3):
        out = ref_mul(out, q)
    return out


def unbiased_system(a: np.ndarray, s: float, t: float):
    """The system B b = v of hadamard.mub3_system_arr, one entry at a time
    as <1 + w^-i a z^j, 1 + w^i b z^-j> with b = e_m, plus the five signed
    determinants d_i of the augmented matrix (drop column i)."""
    if abs(np.linalg.norm(a) - 1.0) > 1e-9:
        raise QStochError("a must be a unit quaternion")
    if abs(s * s + t * t - 0.75) > 1e-9:
        raise QStochError("(s, t) must satisfy s^2 + t^2 = 3/4")
    zeta = np.array([-0.5, s, t, 0.0])
    abar = qconj(a)
    b_mat = np.zeros((4, 4))
    v = np.zeros(4)
    for r, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        wi = _qpow3(OMEGA, i)
        w2i = _qpow3(OMEGA, 2 * i)
        wmi = _qpow3(OMEGA, -i)
        zj = _qpow3(zeta, j)
        zmj = _qpow3(zeta, -j)
        pre = ref_mul(ref_mul(zmj, abar), w2i)
        for m, e in enumerate(np.eye(4)):
            ez = ref_mul(e, zmj)
            b_mat[r, m] = ref_mul(wi, ez)[0] + ref_mul(pre, ez)[0]
        v[r] = -ref_mul(ref_mul(wmi, a), zj)[0]
    aug = np.hstack([b_mat, v[:, None]])
    dets = tuple(float(np.linalg.det(np.delete(aug, i, axis=1))) for i in range(5))
    return b_mat, v, dets


_SCAN_POINTS = 720


def _phi_of_theta(a: np.ndarray, theta: float) -> float:
    s, t = circle_point(theta)
    return phi_value(a, s, t)


def phi_circle_roots_scan(a: np.ndarray) -> list[float]:
    """Roots of phi on the (s,t) circle by bracketing a 720-point scan of the
    angle and bisecting each sign change."""
    thetas = np.linspace(0.0, 2.0 * np.pi, _SCAN_POINTS + 1)
    values = phi_value(a, R32 * np.cos(thetas), R32 * np.sin(thetas)).tolist()
    thetas = thetas.tolist()
    roots: list[float] = []
    for k in range(_SCAN_POINTS):
        lo, hi = thetas[k], thetas[k + 1]
        flo, fhi = values[k], values[k + 1]
        if flo == 0.0:
            roots.append(lo)
            continue
        if (flo < 0.0) == (fhi < 0.0):
            continue
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            fm = _phi_of_theta(a, mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm < 0.0) == (flo < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    deduped: list[float] = []
    for r in roots:
        if all(abs(r - d) > 1e-9 for d in deduped):
            deduped.append(r)
    return deduped


def solve_b(a: np.ndarray, s: float, t: float) -> np.ndarray:
    """Phase vector of the third row, by Cramer's rule with validated signs.

    With d_i the determinants of unbiased_system, b_m = (-1)^(m+1) d_m / d5
    (0-based m).  Falls back to a direct solve if the residual check fails.
    """
    b_mat, v, dets = unbiased_system(a, s, t)
    d5 = dets[4]
    if abs(d5) < 1e-14:
        raise DegenerateP("system determinant vanishes")
    coords = np.array([(-1) ** (m + 1) * dets[m] / d5 for m in range(4)])
    if (abs(np.linalg.norm(coords) - 1.0) > 1e-7
            or np.linalg.norm(b_mat @ coords - v) > 1e-9):
        coords = np.linalg.solve(b_mat, v)
    return coords


def generic3_scan(a: np.ndarray, branch: str = "+",
                  roots: list[float] | None = None):
    """hadamard.generic3 by the scan and Cramer's rule: the (3,3,4) frame,
    None when phi has no root, DegenerateP when p vanishes at the root.
    roots, when given, are phi_circle_roots_scan(a) computed once."""
    if roots is None:
        roots = phi_circle_roots_scan(a)
    if not roots:
        return None
    theta = roots[0] if branch == "+" or len(roots) == 1 else roots[1]
    s, t = circle_point(theta)
    aw, ax, ay, az = a
    if abs((ay ** 2 + az ** 2) * s + (aw * az - ax * ay) * t) <= 1e-6:
        raise DegenerateP("p(a,s,t) vanishes at the selected root")
    return _frame(a, solve_b(a, s, t), np.array([-0.5, s, t, 0.0]))


def mub3_system_broadcast(a: np.ndarray, zeta: np.ndarray):
    """The unbiasedness system for (N,4) arrays by broadcast products
    through the left-multiplication matrix, one per basis quaternion:
    (N,4,4) matrices, (N,4) sides."""
    n = a.shape[0]
    one = np.array([1.0, 0.0, 0.0, 0.0])
    b_mat = np.zeros((n, 4, 4))
    v = np.zeros((n, 4))
    abar = qconj(a)
    z_pows = [np.broadcast_to(one, a.shape), zeta, ref_mul(zeta, zeta)]
    basis = np.eye(4)
    for r, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        wi = _W_POWS[i % 3]
        w2i = _W_POWS[(2 * i) % 3]
        wmi = _W_POWS[(-i) % 3]
        zj = z_pows[j % 3]
        zmj = z_pows[(-j) % 3]
        pre = ref_mul(zmj, ref_mul(abar, w2i))
        for m in range(4):
            e = basis[m]
            b_mat[:, r, m] = ref_mul(wi, ref_mul(e, zmj))[:, 0] \
                + ref_mul(pre, ref_mul(e, zmj))[:, 0]
        v[:, r] = -ref_mul(wmi, ref_mul(a, zj))[:, 0]
    return b_mat, v


def system_dets_arr(b_mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The five drop-a-column determinants of the augmented systems
    [B | v] for (N,4,4) B and (N,4) v, shape (N,5)."""
    aug = np.concatenate([b_mat, v[:, :, None]], axis=2)
    dets = np.empty((b_mat.shape[0], 5))
    for i in range(5):
        cols = [c for c in range(5) if c != i]
        dets[:, i] = np.linalg.det(aug[:, :, cols])
    return dets


# ---------------------------------------------------------------------------
# the sign-feasibility system and the pattern brute force, exhaustively
# ---------------------------------------------------------------------------


def birkhoff_sample(n: int, rng) -> BistochasticMatrix:
    """Convex combination of at most n^2 random permutation matrices with
    Dirichlet-uniform weights."""
    m = int(rng.integers(1, n * n + 1))
    weights = rng.dirichlet(np.ones(m))
    out = np.zeros((n, n))
    for w in weights:
        out += w * permutation_array(rng.permutation(n))
    return BistochasticMatrix(out)


def _sign_block(n: int, start: int, count: int) -> np.ndarray:
    """Rows are sign vectors of length n; the first sign is fixed +1."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(n - 1, dtype=np.uint64)[None, :]) & 1
    signs = np.empty((count, n))
    signs[:, 0] = 1.0
    signs[:, 1:] = 1.0 - 2.0 * bits.astype(float)
    return signs


def sigma_pair_minima_exhaustive(b: BistochasticMatrix, block: int = 1 << 14):
    """Every pair's min |sum of signed sqrt products| over all 2^(n-1) sign
    vectors (first sign +1), as (kind, i, j, min_abs) in the program's
    order: column pairs, then row pairs."""
    n = b.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [("col", i, j) for i, j in pairs] + [("row", i, j) for i, j in pairs]
    t = np.array([np.sqrt(b.mat[:, i] * b.mat[:, j]) for i, j in pairs]
                 + [np.sqrt(b.mat[i, :] * b.mat[j, :]) for i, j in pairs])
    t = t.reshape(len(labels), n)
    best = np.full(len(labels), np.inf)
    total = 1 << (n - 1)
    for start in range(0, total, block):
        signs = _sign_block(n, start, min(block, total - start))
        best = np.minimum(best, np.abs(signs @ t.T).min(axis=0))
    return [(k, i, j, float(m)) for (k, i, j), m in zip(labels, best)]


def sigma_pair_minima_searchsorted(b: BistochasticMatrix):
    """The meet-in-the-middle minima with one np.searchsorted per pair: the
    signed sums of all pairs at once, each pair's right sums sorted, and
    each left sum l paired with the neighbours of -l among them.  Rows
    (kind, i, j, min_abs) in the program's order."""
    n = b.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [("col", i, j) for i, j in pairs] + [("row", i, j) for i, j in pairs]
    t = np.array([np.sqrt(b.mat[:, i] * b.mat[:, j]) for i, j in pairs]
                 + [np.sqrt(b.mat[i, :] * b.mat[j, :]) for i, j in pairs]
                 ).reshape(len(labels), n)
    half = (n + 1) // 2
    left = t[:, :1] + t[:, 1:half] @ (1.0 - 2.0 * _index_bits(half - 1)).T
    right = np.sort(t[:, half:] @ (1.0 - 2.0 * _index_bits(n - half)).T, axis=1)
    pos = np.empty(left.shape, dtype=np.intp)
    for p in range(len(labels)):
        pos[p] = np.searchsorted(right[p], -left[p])
    last = right.shape[1] - 1
    below = np.take_along_axis(right, np.maximum(pos - 1, 0), axis=1)
    above = np.take_along_axis(right, np.minimum(pos, last), axis=1)
    best = np.minimum(np.abs(left + below), np.abs(left + above)).min(axis=1)
    return [(k, i, j, float(m)) for (k, i, j), m in zip(labels, best)]


def orthostochastic_bruteforce_tensor(b: BistochasticMatrix, tol: float = 1e-8):
    """All 2^((n-1)^2) sign patterns with first row and column +1 as one
    tensor, Gram-checked at once; the first hit in index order (bit
    (r-1)(n-1)+(c-1) is the sign of entry (r, c)), or None."""
    n = b.n
    free = (n - 1) * (n - 1)
    idx = np.arange(1 << free, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(free, dtype=np.uint64)[None, :]) & 1
    pats = np.ones((1 << free, n, n))
    pats[:, 1:, 1:] = (1.0 - 2.0 * bits.astype(float)).reshape(1 << free, n - 1, n - 1)
    cands = pats * np.sqrt(b.mat)
    grams = np.einsum("pki,pkj->pij", cands, cands)
    dev = np.max(np.abs(grams - np.eye(n)), axis=(1, 2))
    hits = np.nonzero(dev <= tol)[0]
    if hits.size == 0:
        return None
    return SignPattern(n, pats[hits[0]].copy())


# ---------------------------------------------------------------------------
# the zero-pattern rules before they went through QMatrix.splits
# ---------------------------------------------------------------------------


def splits_dfs(adj: np.ndarray) -> bool:
    """True when the bipartite row/column graph with the n x n adjacency
    adj is disconnected, by a depth-first search from row 0."""
    n = adj.shape[0]
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


def pattern_verdict_2x2(zero: np.ndarray, degenerate: str) -> str:
    """The n = 2 zero-mask rule of the pattern cross check: a zero
    anti-diagonal or a zero diagonal gives degenerate ("singular" for map
    r, "critical" for maps c and h), any other mask "regular"."""
    if (zero[0, 1] and zero[1, 0]) or (zero[0, 0] and zero[1, 1]):
        return degenerate
    return "regular"


# ---------------------------------------------------------------------------
# the n = 3 pattern rule through an aligning rotation
# ---------------------------------------------------------------------------


def aligning_conjugator(q: np.ndarray) -> np.ndarray:
    """Unit x such that x*q*x^-1 is complex with nonnegative i coordinate.

    Conjugation rotates the pure part; x implements the rotation taking the
    pure direction of q onto the i axis.  Returns 1 when q is already real
    (pure part at most 1e-9), and a half turn about j when it points along
    -i (cosine within 1e-15 of -1).
    """
    pn = math.sqrt(q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    if pn <= 1e-9:
        return _ONE
    vx, vy, vz = q[1] / pn, q[2] / pn, q[3] / pn
    c = vx  # cosine of the angle to the i axis
    if c >= 1.0 - 1e-15:
        return _ONE
    if c <= -1.0 + 1e-15:
        return np.array([0.0, 0.0, 1.0, 0.0])  # half turn about j: i to -i
    # axis = v x i, normalized; rotation by angle arccos(c) about it maps v to i.
    ax, ay, az = 0.0, vz, -vy
    an = math.hypot(ay, az)
    ay, az = ay / an, az / an
    half_c = math.sqrt((1.0 + c) / 2.0)
    half_s = math.sqrt((1.0 - c) / 2.0)
    return np.array([half_c, half_s * ax, half_s * ay, half_s * az])


def entrywise_conjugate(m: QMatrix, x: np.ndarray) -> QMatrix:
    """x m_ij x^-1 for every entry, x a unit quaternion as a (4,) array."""
    return QMatrix(ref_mul(ref_mul(x, m.data), qconj(x)))


def pattern_verdict_3x3_aligned(p: QMatrix) -> str:
    """The n = 3 pattern verdict of maps c and h by reduction to a complex
    matrix.

    Take the zero-free frame (row pr[0], column pc[0]) with the largest
    smallest entry norm, the first in the order of the permutation pairs,
    and dephase there; conjugate every entry by the rotation taking the
    (2,2) entry's pure direction onto i, after which the unitarity relations
    leave every entry in the complex plane.  The matrix is critical when
    its largest non-real coordinate is at most REDUCED_ZERO and regular at
    REDUCED_REGULAR or above; a j or k coordinate above REDUCED_ZERO after
    the reduction, a frame in the zero band, or an entry norm in the band
    leave it undecided.
    """
    norms = p.norms()
    if _zero_mask_stable(norms) is None:
        return "undecided"
    if p.splits():
        return "critical"
    perms = list(itertools.permutations(range(3)))
    best = None
    best_min = 0.0
    for pr in perms:
        for pc in perms:
            frame_min = min(norms[pr, pc[0]].min(), norms[pr[0], pc].min())
            if frame_min > best_min:
                best_min = frame_min
                best = (pr, pc)
    if best is None or best_min <= ZERO_ENTRY * ZERO_BAND:
        return "undecided"
    pr, pc = best
    dephased = QMatrix(p.data[np.ix_(pr, pc)]).dephase()
    reduced = entrywise_conjugate(dephased,
                                  aligning_conjugator(dephased.data[1, 1]))
    if reduced.max_jk() > REDUCED_ZERO:
        return "undecided"
    imag = reduced.max_imag()
    if imag <= REDUCED_ZERO:
        return "critical"
    if imag >= REDUCED_REGULAR:
        return "regular"
    return "undecided"


# ---------------------------------------------------------------------------
# the differential one dense generator at a time
# ---------------------------------------------------------------------------


def tangent_bases(n: int):
    """Skew A^{i,j} (i<j), symmetric C^{i,j} (i<=j), and the B^{i,j} basis of
    the zero-row/column-sum space (i,j <= n-1), as real arrays."""
    if n < 2:
        raise QStochError("n must be >= 2")
    a_list = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = 1.0
            m[j, i] = -1.0
            a_list.append(m)
    c_list = []
    for i in range(n):
        for j in range(i, n):
            m = np.zeros((n, n))
            m[i, j] = 1.0
            m[j, i] = 1.0
            c_list.append(m)
    b_list = []
    for i in range(n - 1):
        for j in range(n - 1):
            m = np.zeros((n, n))
            m[i, j] = 1.0
            m[n - 1, n - 1] = 1.0
            m[i, n - 1] = -1.0
            m[n - 1, j] = -1.0
            b_list.append(m)
    return a_list, c_list, b_list


def generators_from_bases(map_kind: str, n: int) -> list[np.ndarray]:
    """Dense (n,n,4) generators: the A^{i,j} in the real coordinate, then
    the C^{i,j} in the i, j, k coordinates in turn."""
    a_list, c_list, _ = tangent_bases(n)
    gens = []
    for a in a_list:
        g = np.zeros((n, n, 4))
        g[..., 0] = a
        gens.append(g)
    for axis in {"r": (), "c": (1,), "h": (1, 2, 3)}[map_kind]:
        for c in c_list:
            g = np.zeros((n, n, 4))
            g[..., axis] = c
            gens.append(g)
    return gens


def tangent_generators(map_kind: str, n: int) -> np.ndarray:
    """Skew-hermitian generators E, in the basis order of
    qstoch.differential, as a (G, n, n, 4) quaternion-coordinate array read
    from its generator table.  Tangent vectors at P are E @ P."""
    u, i, j, sigma = _generator_table(map_kind, n)
    g = np.arange(u.size)
    gens = np.zeros((u.size, n, n, 4))
    gens[g, i, j, u] = 1.0
    gens[g, j, i, u] = sigma
    return gens


def jacobian_by_generators(map_kind: str, p) -> np.ndarray:
    """Jacobian entries ((n-1)^2, G): for each dense generator E, the full
    product E @ P, the entrywise Re(conj(P) o E@P), and its top-left block
    row-major."""
    pd = p.data
    cols = []
    for gen in generators_from_bases(map_kind, p.rows):
        image = qmul(qconj(pd), hamilton_qmat_mul(gen, pd))[..., 0]
        cols.append(image[:-1, :-1].reshape(-1))
    return np.array(cols).T


def qexpm(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Power-series exponential of a square quaternion matrix, truncated
    once a term underflows.  Adequate for the small, small-norm directions
    of the finite-difference tests."""
    n = a.shape[0]
    result = qmat_eye(n)
    term = qmat_eye(n)
    for k in range(1, terms + 1):
        term = qmat_mul(term, a) / k
        result = result + term
        if np.max(np.abs(term)) < 1e-300:
            break
    return result


def zero_diagonal_orthogonal(rng, min_offdiag: float = 0.05,
                             max_tries: int = 100) -> np.ndarray:
    """Random orthogonal 4x4 matrix with zero diagonal and nonzero
    off-diagonal entries.

    Conjugating the standard orthogonal complex structure by a Haar rotation
    keeps it skew, hence zero-diagonal; sign flips of rows and columns add
    non-skew representatives.
    """
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    j4 = np.block([[j2, np.zeros((2, 2))], [np.zeros((2, 2)), j2]])
    for _ in range(max_tries):
        g = rng.standard_normal((4, 4))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        x = q @ j4 @ q.T
        off = np.abs(x[~np.eye(4, dtype=bool)])
        if off.min() >= min_offdiag:
            d1 = np.diag(rng.choice([-1.0, 1.0], size=4))
            d2 = np.diag(rng.choice([-1.0, 1.0], size=4))
            return d1 @ x @ d2
    raise RuntimeError("failed to draw a zero-diagonal orthogonal matrix")
