"""The input checks of the public functions, one case per check.

Each case gives a function an input that its contract rules out and
asserts the error class it raises with the message that names the check,
or the False that a predicate returns.
check_bases on a basis of another size is TestIsUnbiased's case in
tests/test_mub.py.
"""

import math

import numpy as np
import pytest

from qstoch.cli import main
from qstoch.differential import jacobian
from qstoch.errors import DegenerateP, QStochError
from qstoch.hadamard import (Generic4Params, generic3, read_family3, special3,
                             special_family_rows, verify_family3)
from qstoch.mub import MubSet, complete_mub_h2, extend_search, one_param_h3
from qstoch.qmatrix import QMatrix, fourier, identity, read_matrix_text
from qstoch.quaternion import I as QI
from qstoch.quaternion import K as QK
from qstoch.quaternion import ONE, Quaternion
from qstoch.stochastic import (distance_j3_report, ortho3_residual,
                               sigma_poly_4, van_der_waerden)

# a unit a near 1 whose first root of phi has |p| below P_FLOOR, the
# stratum that the special families cover
NEAR_ONE = Quaternion(math.cos(1e-3), 0.0, math.sin(1e-3), 0.0)

RAISES = {
    "jacobian-unknown-map": (lambda: jacobian("x", identity(2)),
                             QStochError, "unknown map kind"),
    "generic4-a-with-k-part": (lambda: Generic4Params(QK, QI),
                               QStochError, "a must lie in span"),
    "generic4-x-with-k-part": (lambda: Generic4Params(ONE, QK),
                               QStochError, "x must be pure"),
    "generic4-x-with-real-part": (lambda: Generic4Params(ONE, ONE),
                                  QStochError, "x must be pure"),
    # a unit within UNIT_NORM whose span{1,i} part is exactly -1: generic4
    # would divide by |1 + ahat| = 0
    "generic4-ahat-at-pole": (
        lambda: Generic4Params(Quaternion(-1.0, 0.0, 1e-5, 0.0), QI),
        QStochError, "a = -1 is a pole"),
    "special3-non-finite-params": (
        lambda: special3("s4", (math.inf,)),
        QStochError, r"s4 parameters \(psi\) must be finite"),
    "one-param-h3-nan": (lambda: one_param_h3(math.nan, 0.0),
                         QStochError, "must lie on the circle"),
    "generic3-unknown-branch": (lambda: generic3(QI, "0"),
                                QStochError, "branch must be"),
    "generic3-p-vanishes-at-root": (lambda: generic3(NEAR_ONE, "+"),
                                    DegenerateP, "at the selected root"),
    "read-family3-not-3x3": (lambda: read_family3(identity(2)),
                             QStochError, "family frames are 3x3"),
    "verify-family3-unknown-family": (
        lambda: verify_family3(identity(3), "s9"),
        QStochError, "unknown family"),
    "special-rows-unknown-family": (
        lambda: special_family_rows("generic", 4),
        QStochError, "unknown special family"),
    "extend-search-n2": (lambda: extend_search(complete_mub_h2(), 2, 2),
                         QStochError, "implemented for n = 3"),
    "extend-search-one-basis": (
        lambda: extend_search(MubSet(3, (identity(3),)), 2, 2),
        QStochError, "need at least the identity/Fourier prefix"),
    "qmatrix-is-immutable": (lambda: setattr(identity(2), "data", None),
                             AttributeError, "immutable"),
    "bistochastic-is-immutable": (
        lambda: setattr(van_der_waerden(2), "mat", None),
        AttributeError, "immutable"),
    "splits-non-square": (lambda: QMatrix(np.ones((2, 3, 4))).splits(),
                          QStochError, "defined for square matrices"),
    "dephase-zero-in-first-row": (
        lambda: QMatrix.from_real([[1.0, 0.0], [1.0, 1.0]]).dephase(),
        QStochError, "zero entry in the first row"),
    "fourier-0": (lambda: fourier(0), QStochError, "n must be >= 1"),
    "matrix-text-under-three-tokens": (lambda: read_matrix_text("qmat 2\n"),
                                       ValueError, "truncated"),
    "ortho3-residual-at-n4": (lambda: ortho3_residual(van_der_waerden(4)),
                              QStochError, "ortho3 is defined for 3x3"),
    "sigma-poly-4-at-n3": (lambda: sigma_poly_4(van_der_waerden(3)),
                           QStochError, "sigma_poly_4 is defined for 4x4"),
    "distance-j3-no-restarts": (lambda: distance_j3_report(0),
                                QStochError, "restarts must be >= 1"),
}


@pytest.mark.parametrize("name", sorted(RAISES))
def test_rejected_input_raises_its_error_class(name):
    call, error, message = RAISES[name]
    with pytest.raises(error, match=message):
        call()


RECTANGLE = QMatrix(np.ones((2, 3, 4)))

FALSE = {
    "approx-eq-across-shapes": lambda: identity(2).approx_eq(identity(3)),
    "is-symplectic-non-square": RECTANGLE.is_symplectic,
    "is-hadamard-non-square": RECTANGLE.is_hadamard,
    # the identity's frame has a = b = 0, off the unit sphere
    "verify-family3-frame-check": lambda: verify_family3(identity(3), "generic"),
    # an s1 frame has a = 1, and the s5 residuals divide by its i and j parts
    "verify-family3-s5-on-s1-frame": lambda: verify_family3(
        special3("s1", (0.3, 1.1)), "s5"),
}


@pytest.mark.parametrize("name", sorted(FALSE))
def test_rejected_input_makes_the_predicate_false(name):
    assert FALSE[name]() is False


def test_truncated_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "short.qmat"
    path.write_text("qmat 2\n")
    assert main(["phi", str(path)]) == 2
    assert capsys.readouterr().err == "error: truncated matrix file\n"
