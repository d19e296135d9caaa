"""src/qstoch ships what the program calls, and no surface that only tests
reach.

A module-level function or class that nothing in src/qstoch or scripts/
names is test-only surface, and so is a method that no program path calls.
The first check finds the former by name; the second keeps the methods
that were deleted for that reason from coming back, which a check by name
cannot do where numpy or another class uses the same name (np.diag,
Quaternion.conjugate, QMatrix.approx_eq).  The same holds for exception
classes: a subclass of QStochError exists only for a caller that catches it.
"""

import ast
from collections.abc import Sequence
from pathlib import Path

import pytest

import qstoch
from qstoch import errors, mub, qmatrix, quaternion
from qstoch.mub import MubSet
from qstoch.qmatrix import QMatrix
from qstoch.quaternion import ONE, Quaternion
from qstoch.stochastic import SigmaMinima

SRC = Path(qstoch.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TESTS = Path(__file__).resolve().parent

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


# Quaternion's scalar arithmetic (__add__ to normalized) copied the array
# algebra of qstoch.quaternion, and from_entries built matrices through it;
# QMatrix.entry, from_array's one caller, builds the value type itself
DELETED_METHODS = [
    (QMatrix, ["__add__", "__sub__", "__neg__", "conjugate", "__matmul__",
               "__mul__", "__rmul__", "adjoint", "from_entries"]),
    (Quaternion, ["__rsub__", "__rmul__", "__str__", "__radd__", "approx_eq",
                  "inverse", "__add__", "__sub__", "__neg__", "__mul__",
                  "__truediv__", "conjugate", "norm_sq", "norm",
                  "normalized", "from_array"]),
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
    # Quaternion is a value type: no arithmetic
    with pytest.raises(TypeError):
        ONE / ONE
    with pytest.raises(TypeError):
        ONE * ONE


def _is_hamilton_real_part(node) -> bool:
    """p0*q0 - p1*q1 - p2*q2 - p3*q3: four products joined by three
    subtractions."""
    terms = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        terms.append(node.right)
        node = node.left
    terms.append(node)
    return len(terms) == 4 and all(
        isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult) for t in terms)


def _hamilton_real_parts(paths):
    """{(file, innermost function)} of every Hamilton real part in paths;
    the function is "" at module level."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # breadth first: inner functions win
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                name = getattr(fn, "name", "<lambda>")
                owner.update((id(node), name) for node in ast.walk(fn))
        found |= {(path.name, owner.get(id(node), ""))
                  for node in ast.walk(tree) if _is_hamilton_real_part(node)}
    return found


def test_one_hamilton_product():
    """The real part of a Hamilton product is written once in src/qstoch,
    in quaternion.qmul; every other product calls it or the chi kernel."""
    assert _hamilton_real_parts(sorted(SRC.glob("*.py"))) == {
        ("quaternion.py", "qmul")}


# the classes a failed precondition raised before the one QStochError
DELETED_ERRORS = ["NonFinite", "DimensionMismatch", "ZeroInFrame",
                  "NotUnitary", "NotBistochastic", "WrongSize", "TooLarge",
                  "NotInGroup", "WrongScalarField", "InternalInconsistency",
                  "BadParams", "NotSymplectic", "TooManyBases",
                  "NotNormalized"]
ERRORS = {"QStochError", "DegenerateP", "NoRealSolution"}
# malformed text and immutable types; argparse turns ArgumentTypeError
# into a usage error
OTHER_RAISES = {"ValueError", "AttributeError", "ArgumentTypeError"}


def _nodes(paths):
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text()))


def _exception_names(node):
    """The class names a raise or an except clause names."""
    if node is None:
        return set()
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*map(_exception_names, node.elts))
    return {node.attr if isinstance(node, ast.Attribute) else node.id}


def test_errors_defines_the_three_classes():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type)}
    assert defined == ERRORS
    assert [name for name in DELETED_ERRORS if hasattr(errors, name)] == []


def test_src_raises_only_the_package_errors():
    raised = set()
    for node in _nodes(sorted(SRC.glob("*.py"))):
        if isinstance(node, ast.Raise):
            raised |= _exception_names(node.exc)
    assert raised - ERRORS - OTHER_RAISES == set()


def test_each_error_subclass_has_a_catcher():
    """A subclass of QStochError is there for a caller that tells it apart
    from a real error; an except clause that names it is that caller."""
    paths = (sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
             + sorted(TESTS.glob("*.py")))
    caught = set()
    for node in _nodes(paths):
        if isinstance(node, ast.ExceptHandler):
            caught |= _exception_names(node.type)
    subclasses = {name for name, value in vars(errors).items()
                  if isinstance(value, type)
                  and issubclass(value, errors.QStochError)
                  and value is not errors.QStochError}
    assert subclasses - caught == set()
