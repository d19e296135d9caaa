"""The errors qstoch raises when an input fails a precondition.

A failed precondition raises QStochError, and its message names the
condition; the command line prints it as ``error: <message>`` and exits 3.
A new subclass needs a caller that catches it: no caller tells the others
apart, so they would only be names.  Malformed text raises ValueError.
"""


class QStochError(Exception):
    """An input fails a precondition of the operation."""


class DegenerateP(QStochError):
    """The linear system for the third-row phase vector is degenerate.

    A caller that samples family parameters catches it to skip a point
    where the family has no member, without swallowing a real error.
    """


class NoRealSolution(QStochError):
    """Constraint completion has no real solution for these parameters.

    A caller that samples family parameters catches it to skip a point
    where the family has no member, without swallowing a real error.
    """
