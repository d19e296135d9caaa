"""Fuzzing of the QMAT/rmat parsers and the CLI with malformed files.

Each strategy starts from a well-formed matrix file and breaks it in one of
the ways a hand-edited or cut-off file breaks: a truncated body, a bad
header (dimensions below 1 included), a quaternion literal with the wrong number of fields, unbalanced
parentheses, or a block with no entries.  The parsers must raise ValueError
or a QStochError, and every verb that reads the file must exit 2 or 3 with
an ``error:`` line, never a traceback.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qstoch.cli import main
from qstoch.errors import QStochError
from qstoch.mub import read_mubset_matrices
from qstoch.qmatrix import read_matrix_text

# every verb that reads a matrix or mub set file, with {f} for the file
FILE_VERBS = [
    ["phi", "{f}"], ["verify-hadamard", "{f}"], ["verify-symplectic", "{f}"],
    ["dephase", "{f}"], ["splits", "{f}"], ["ortho3", "{f}"], ["sigma", "{f}"],
    ["bruteforce-ortho", "{f}"], ["jacobian", "--map", "c", "--file", "{f}"],
    ["rank", "--map", "h", "--file", "{f}"],
    ["classify", "--map", "r", "--file", "{f}"], ["mub", "check", "{f}"],
    ["mub", "extend", "{f}", "--grid", "2", "--conj-grid", "1"],
    ["mub", "maximality", "{f}", "--restarts", "1"],
]

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def matrix_files(draw):
    """(kind, rows, cols, entry tokens) of a well-formed matrix file."""
    kind = draw(st.sampled_from(["qmat", "rmat"]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=4 * rows * cols,
                           max_size=4 * rows * cols))
    if kind == "qmat":
        entries = ["(" + ",".join(repr(v) for v in values[4 * k:4 * k + 4]) + ")"
                   for k in range(rows * cols)]
    else:
        entries = [repr(v) for v in values[:rows * cols]]
    return kind, rows, cols, entries


def _render(header, entries, cols):
    lines = [" ".join(header)]
    lines += [" ".join(entries[r:r + cols]) for r in range(0, len(entries), cols)]
    return "\n".join(lines) + "\n"


@st.composite
def malformed_files(draw):
    kind, rows, cols, entries = draw(matrix_files())
    header = [kind, str(rows), str(cols)]
    fault = draw(st.sampled_from(
        ["truncated", "kind", "dims", "nonpositive", "arity", "parens", "empty"]))
    if fault == "truncated":
        entries = entries[:draw(st.integers(0, len(entries) - 1))]
    elif fault == "kind":
        header[0] = draw(st.sampled_from(["QMAT", "mat", "qmatrix", "cmat", "(1,0,0,0)"]))
    elif fault == "dims":
        slot = draw(st.sampled_from([1, 2]))
        header[slot] = draw(st.sampled_from(
            ["0", "-1", "1.5", "two", "", str(int(header[slot]) + 1)]))
    elif fault == "nonpositive":  # with as many entries as the header asks
        r, c = draw(st.sampled_from(
            [(0, 0), (0, cols), (rows, 0), (-1, -1), (-1, -cols), (-rows, -1)]))
        header[1:] = [str(r), str(c)]
        entries = entries[:max(r * c, 0)]
    elif fault == "arity":
        k = draw(st.integers(0, len(entries) - 1))
        fields = draw(st.sampled_from([1, 2, 3, 5, 6]))
        entries[k] = "(" + ",".join(["0.5"] * fields) + ")"
    elif fault == "parens":
        k = draw(st.integers(0, len(entries) - 1))
        broken = ["(" + entries[k], entries[k] + ")", "((" + entries[k].strip("()")]
        if kind == "qmat":
            broken += [entries[k][1:], entries[k][:-1]]
        entries[k] = draw(st.sampled_from(broken))
    else:
        entries = []
        if draw(st.booleans()):
            header = []
    return _render(header, entries, cols)


@FUZZ
@given(text=malformed_files())
def test_read_matrix_text_rejects_malformed_files(text):
    try:
        read_matrix_text(text)
    except (ValueError, QStochError):
        return
    raise AssertionError(f"accepted a malformed file:\n{text}")


@FUZZ
@given(data=matrix_files(), bad=malformed_files(), first=st.booleans(),
       gap=st.sampled_from(["\n", "\n\n", " \n\t\n", "\n\n\n"]))
def test_read_mubset_matrices_rejects_a_malformed_block(data, bad, first, gap):
    assume(bad.strip())  # blank lines only separate the blocks of a mub file
    kind, rows, cols, entries = data
    good = _render([kind, str(rows), str(cols)], entries, cols)
    text = bad + gap + good if first else good + gap + bad
    try:
        read_mubset_matrices(text)
    except (ValueError, QStochError):
        return
    raise AssertionError(f"accepted a malformed mub file:\n{text}")


@FUZZ
@given(text=malformed_files(), argv=st.sampled_from(FILE_VERBS))
def test_cli_reports_malformed_files(text, argv, tmp_path_factory, capsys):
    path = tmp_path_factory.mktemp("fuzz") / "bad.mat"
    path.write_text(text)
    capsys.readouterr()
    rc = main([a.format(f=path) for a in argv])
    err = capsys.readouterr().err
    assert rc in (2, 3), (rc, text)
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("text", ["qmat 0 0\n", "rmat 0 0\n", "rmat -1 -1\n1\n"])
@pytest.mark.parametrize("argv", FILE_VERBS)
def test_non_positive_dimensions_are_a_usage_error(argv, text, tmp_path, capsys):
    path = tmp_path / "empty.mat"
    path.write_text(text)
    assert main([a.format(f=path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(
        "error: matrix dimensions must be positive")


@FUZZ
@given(data=matrix_files())
def test_unbroken_files_parse(data):
    # the faults above are all that stands between these files and a parse
    kind, rows, cols, entries = data
    parsed_kind, value = read_matrix_text(
        _render([kind, str(rows), str(cols)], entries, cols))
    shape = value.data.shape[:2] if kind == "qmat" else value.shape
    assert parsed_kind == kind and shape == (rows, cols)
