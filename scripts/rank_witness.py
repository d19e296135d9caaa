#!/usr/bin/env python3
"""Rank of the squared-norm differential at the 4x4 special-family point
with a = i and sqrt(2) b = 1 + j.

A full rank of 9 here shows the quaternionic image has interior near the
barycenter of the 4x4 Birkhoff polytope, which the complex image does not.
"""

import math

import numpy as np

from qstoch.differential import jacobian, rank_report
from qstoch.hadamard import Special4Params, special4
from qstoch.quaternion import I as QI
from qstoch.quaternion import Quaternion


def main() -> None:
    b = Quaternion(1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), 0.0)
    h = special4(Special4Params(QI, b))
    assert h.is_hadamard(1e-12)
    jac = jacobian("h", h / 2)
    rank, svals, gap = rank_report(jac)
    print(f"jacobian shape: {jac.shape}")
    print(f"rank: {rank}  gap_ratio: {gap:.3e}")
    print("singular values:", np.array_str(svals, precision=6))


if __name__ == "__main__":
    main()
