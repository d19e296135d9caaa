"""src/qstoch ships what the program calls, and no surface that only tests
reach.

A module-level function or class that nothing in src/qstoch or scripts/
names is test-only surface, and so is a method that no program path calls.
The first check finds the former by name; the second keeps the methods
that were deleted for that reason from coming back, which a check by name
cannot do where numpy or another class uses the same name (np.diag,
Quaternion.conjugate, QMatrix.approx_eq).
"""

import ast
from collections.abc import Sequence
from pathlib import Path

import pytest

import qstoch
from qstoch import mub, qmatrix, quaternion
from qstoch.mub import MubSet
from qstoch.qmatrix import QMatrix
from qstoch.quaternion import ONE, Quaternion
from qstoch.stochastic import SigmaMinima

SRC = Path(qstoch.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# only the frozen bench/ and tests call these; moving them out of src/qstoch
# is ROADMAP item 1
BENCH_ONLY = {"generic_family_chunks", "haar_unitary", "random_symplectic",
              "shuffled_block_sum", "special_family_points", "van_der_waerden"}
# the paper's checks: acceptance criteria 07 and 13 and the family tests
# call them
PAPER_CHECKS = {"operator_frame_orthogonality", "segment_block_analysis",
                "verify_family3"}


def _defined():
    """{name: module file} of every module-level function and class."""
    return {node.name: path.name
            for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _named():
    """Every name src/qstoch and scripts/ use: a Name, an Attribute or an
    import alias.  A def or class line binds its name without naming it."""
    names = set()
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_module_level_name_has_a_program_caller():
    defined, named = _defined(), _named()
    uncalled = {name: module for name, module in defined.items()
                if name not in named and name not in BENCH_ONLY | PAPER_CHECKS}
    assert uncalled == {}


def test_the_exceptions_are_still_exceptions():
    """Each excepted name is defined and still has no program caller, so
    the lists shrink when a name moves out or gains a caller."""
    defined, named = _defined(), _named()
    for name in BENCH_ONLY | PAPER_CHECKS:
        assert name in defined and name not in named, name


DELETED_METHODS = [
    (QMatrix, ["__add__", "__sub__", "__neg__", "conjugate", "__matmul__",
               "__mul__", "__rmul__", "adjoint"]),
    (Quaternion, ["__rsub__", "__rmul__", "__str__", "__radd__", "approx_eq",
                  "inverse"]),
    (MubSet, ["__len__"]),
    (SigmaMinima, ["__getitem__", "__eq__"]),
]


@pytest.mark.parametrize("cls,names", DELETED_METHODS,
                         ids=[cls.__name__ for cls, _ in DELETED_METHODS])
def test_deleted_methods_stay_deleted(cls, names):
    # vars, not hasattr: object supplies __str__ and __eq__ to every class
    assert sorted(set(names) & set(vars(cls))) == []


def test_deleted_functions_and_bases_stay_deleted():
    assert not hasattr(qmatrix, "diag")
    assert not hasattr(quaternion, "_coerce")
    assert not hasattr(mub, "is_unbiased")
    assert not issubclass(SigmaMinima, Sequence)
    # Quaternion division takes a scalar only
    with pytest.raises(TypeError):
        ONE / ONE
