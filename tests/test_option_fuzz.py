"""Fuzzing of the numeric options that reach the quaternion constructions.

Each test varies one option of ``construct`` or ``mub h3-*`` while every
other option holds a valid value.  A quaternion literal (--a, --b, --c,
--x) starts from a valid or boundary value, and each coordinate may be
replaced by NaN, an infinity, 1e308, a subnormal, -0.0 or any float; --s,
--t and each --params entry are drawn the same way.  Every run must exit
0, 1, 2 or 3 and leave stderr empty or one ``error:`` line that names the
option's own condition: no traceback, no numpy warning, and no message from
a later check that the bad value slipped through to.
"""

import math
import re
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qstoch.cli import main

R32 = math.sqrt(3.0) / 2.0
SPECIAL = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324,
           1e-310, -0.0, 0.0]
FUZZ = settings(max_examples=200, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def values(base: float):
    return st.one_of(st.just(base), st.sampled_from(SPECIAL), st.floats())


def literals(*bases):
    """A quaternion literal grown from one of the bases."""
    return st.sampled_from(bases).flatmap(
        lambda base: st.tuples(*map(values, base))).map(
        lambda coords: "(" + ",".join(map(repr, coords)) + ")")


CUBE_ROOTS = ((-0.5, R32, 0.0, 0.0), (-0.5, 0.0, R32, 0.0),
              (-0.5, R32 * math.cos(1.0), R32 * math.sin(1.0), 0.0))
VALID = {"a": "(0.6,0.8,0,0)", "b": "(0.6,0,0.8,0)", "x": "(0,0.6,0.8,0)",
         "cube": "(-0.5,0.8660254037844386,0,0)"}

UNIT = "{} must be unit quaternions"
# (argv before the fuzzed option, the other options, the literal bases,
# the conditions the fuzzed option may fail)
QUATERNION_CASES = {
    "a": [
        (["construct", "special4"], ["--b=" + VALID["b"]],
         [(0.6, 0.8, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)],
         [UNIT.format("a and b"), "a must lie in span{1,i}"]),
        (["construct", "generic4"], ["--x=" + VALID["x"]],
         [(0.6, 0.8, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (0.6, 0.0, 0.8, 0.0)],
         [UNIT.format("a and x"), "a must lie in span{1,i,j}",
          "a = -1 is a pole of the family"]),
        (["construct", "generic3"], [],
         [(0.6, 0.0, 0.8, 0.0), (1.0, 0.0, 0.0, 0.0)],
         ["a must be a unit quaternion", "phi vanishes on the whole circle",
          "p(a,s,t) vanishes at the selected root"]),
        (["mub", "h3-three-param"],
         ["--b=" + VALID["cube"], "--c=" + VALID["cube"]], CUBE_ROOTS,
         ["a must be -1/2 + s i + t j with s^2 + t^2 = 3/4"]),
    ],
    "b": [
        (["construct", "special4"], ["--a=" + VALID["a"]],
         [(0.6, 0.0, 0.8, 0.0), (1.0, 0.0, 0.0, 0.0)],
         [UNIT.format("a and b"), "b must lie in span{1,j}"]),
        (["mub", "h3-three-param"],
         ["--a=" + VALID["cube"], "--c=" + VALID["cube"]], CUBE_ROOTS,
         ["b must be -1/2 + s i + t j with s^2 + t^2 = 3/4"]),
    ],
    "c": [
        (["mub", "h3-three-param"],
         ["--a=" + VALID["cube"], "--b=" + VALID["cube"]], CUBE_ROOTS,
         ["c must be -1/2 + s i + t j with s^2 + t^2 = 3/4"]),
    ],
    "x": [
        (["construct", "generic4"], ["--a=" + VALID["a"]],
         [(0.0, 0.6, 0.8, 0.0), (0.0, 1.0, 0.0, 0.0)],
         [UNIT.format("a and x"), "x must be pure in span{i,j}"]),
    ],
}

# inputs a defect once slipped through: generic4's a within UNIT_NORM of
# a unit whose span{1,i} part is -1 (a division by zero)
EXAMPLES = {"a": [(1, "(-1.0,0.0,1e-05,0.0)")]}

CIRCLE = "(s,t) must lie on the circle s^2 + t^2 = 3/4"
# a valid row of parameters per special family, and its parameter names
PARAMS = {"s1": ((0.3, 0.4), "beta, theta"), "s2": ((0.3, 1.1), "theta, psi"),
          "s3": ((0.3, 1.1), "theta, psi"), "s4": ((1.2,), "psi"),
          "s5": ((0.2, 1.3), "a1, psi")}


def run(argv, capsys):
    """main(argv) as the command line runs it: exit code, stdout, stderr.
    A warning, which the command line would print to stderr, is raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_names_condition(code, err, conditions):
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert err == ""
    else:
        pattern = "|".join(map(re.escape, conditions))
        assert re.fullmatch(f"error: ({pattern})\n", err), err


@pytest.mark.parametrize("option", sorted(QUATERNION_CASES))
def test_quaternion_option(option, capsys):
    cases = QUATERNION_CASES[option]

    @FUZZ
    @given(st.sampled_from(range(len(cases))).flatmap(
        lambda k: st.tuples(st.just(k), literals(*cases[k][2]))))
    def check(drawn):
        k, literal = drawn
        verb, others, _, conditions = cases[k]
        code, out, err = run(verb + [f"--{option}={literal}"] + others, capsys)
        if code == 1:  # only generic3 finds nothing, and says so
            assert verb[-1] == "generic3" and out == "construct=none\n"
        assert_names_condition(code, err, conditions)

    for drawn in EXAMPLES.get(option, []):
        check = example(drawn)(check)
    check()


@pytest.mark.parametrize("option", ["s", "t"])
def test_circle_option(option, capsys):
    other = "t" if option == "s" else "s"

    @FUZZ
    @given(values(R32), st.sampled_from([0.0, R32]))
    def check(value, partner):
        code, _, err = run(["mub", "h3-one-param", f"--{option}={value!r}",
                            f"--{other}={partner!r}"], capsys)
        assert code != 1
        assert_names_condition(code, err, [CIRCLE])

    check()


def test_params_option(capsys):
    @FUZZ
    @given(st.sampled_from(sorted(PARAMS)).flatmap(lambda family: st.tuples(
        st.just(family),
        st.one_of(st.tuples(*map(values, PARAMS[family][0])),
                  st.lists(values(0.5), max_size=3)))))
    @example(("s5", (1e308, 1.3)))  # an overflow warning in s5's completion
    def check(drawn):
        family, params = drawn
        names = PARAMS[family][1]
        code, _, err = run(["construct", "special3", f"--family={family}",
                            "--params=" + ",".join(map(repr, params))], capsys)
        assert code != 1
        assert_names_condition(code, err, [
            f"{family} takes ({names})",
            f"{family} parameters ({names}) must be finite",
            f"{family} has no real member for these parameters and signs"])

    check()
