"""Loop and broadcast implementations kept as references for the kernels.

These are the direct quaternion formulations that the complex-adjoint
kernels in qstoch.qmatrix replaced.  They share no code path with those
kernels beyond the elementwise Hamilton product, so a kernel defect cannot
hide in a comparison against them.
"""

import numpy as np

from qstoch.qmatrix import qconj, qmul, qnormsq


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
