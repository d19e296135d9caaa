"""The tolerance policy: every threshold is a named float in qstoch.tol."""

import ast
import re
import tokenize
from pathlib import Path

import qstoch
from qstoch import tol

SRC = Path(qstoch.__file__).parent
E_NOTATION = re.compile(r"^[0-9.]+[eE][-+]?[0-9]+$")
# the Hurwitz-Radon weights' tie-breaking jitter is data, not a tolerance
ALLOWED = {("stochastic.py", "jitter = 1.0 + 1e-10 * rng.random(15)")}


def test_no_e_notation_literal_outside_tol():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tol.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NUMBER and E_NOTATION.match(tok.string):
                    if (path.name, tok.line.strip()) not in ALLOWED:
                        found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring nodes of a module, class or function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value,
                                                          ast.Constant):
                found.add(id(first.value))
    return found


def test_no_threshold_text_in_strings():
    """Messages format a threshold from its tol.py name, so the text cannot
    go stale when the constant changes."""
    number = re.compile(r"[0-9][eE][-+]?[0-9]")
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docs and number.search(node.value)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_tol_defines_only_float_constants():
    tree = ast.parse((SRC / "tol.py").read_text())
    doc, *body = tree.body
    assert isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
    for node in body:
        assert isinstance(node, ast.Assign), ast.dump(node)
        (target,) = node.targets
        assert isinstance(target, ast.Name) and target.id.isupper()
        value = node.value
        if isinstance(value, ast.UnaryOp):
            assert isinstance(value.op, ast.USub)
            value = value.operand
        assert isinstance(value, ast.Constant) and type(value.value) is float
    names = [n for n in vars(tol) if not n.startswith("__")]
    assert len(names) == len(body)
    assert all(type(getattr(tol, n)) is float for n in names)


def _identifiers(tree: ast.AST):
    """(name, line) of every name, attribute and imported name in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _retired_uses(retired: set[str]) -> list[str]:
    """Where a retired constant is still named in src, scripts or tests,
    or still defined in tol."""
    root = SRC.parents[1]
    found = [f"tol.py: {name}" for name in sorted(retired & set(vars(tol)))]
    for folder in ("src", "scripts", "tests"):
        for path in sorted((root / folder).rglob("*.py")):
            for name, line in _identifiers(ast.parse(path.read_text())):
                if name in retired:
                    found.append(f"{path.relative_to(root)}:{line}: {name}")
    return found


def test_group_membership_has_one_owner():
    """Only QMatrix.is_symplectic compares unitary_defect() with tol.GROUP,
    so every verb draws the group boundary in the same place."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "qmatrix.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "unitary_defect" in (
                    getattr(node.func, "attr", None),
                    getattr(node.func, "id", None)):
                found.append(f"{path.name}:{node.lineno}: unitary_defect()")
    assert found + _retired_uses({"GROUP_POINT", "GROUP_BASIS"}) == []


def test_verdict_thresholds_have_one_owner():
    """SIGMA_MIN is read only in qstoch.stochastic (SigmaMinima.feasible,
    which ortho3_test returns at n = 3), and NEAR_MISS only in qstoch.mub
    (is_maximality_evidence); the CLI and the scripts take those verdicts.
    ORTHO3_RESIDUAL, the quartic's absolute threshold, and PURE_PART, the
    pure-part norm below which the n = 3 pattern rule's aligning rotation
    took an entry as real, are retired."""
    owners = {"SIGMA_MIN": "stochastic.py", "NEAR_MISS": "mub.py"}
    found = _retired_uses({"ORTHO3_RESIDUAL", "PURE_PART"})
    paths = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "scripts").glob("*.py"))
    for path in paths:
        if path.name == "tol.py":
            continue
        for name, line in _identifiers(ast.parse(path.read_text())):
            if owners.get(name, path.name) != path.name:
                found.append(f"{path.name}:{line}: {name}")
    assert found == []
