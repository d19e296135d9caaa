"""Every threshold qstoch compares a residual with, each named once.

The comment above a constant names the quantity it bounds, and so its
unit.  A check passes when that quantity is at most the constant, unless
the comment says otherwise.
"""

# -- group membership: the max entry norm of M*M - I ---------------------------

# M*M - I of a point of O(n), U(n) or Sp(n); is_symplectic's default, read by
# phi, jacobian, MubSet and verify-symplectic
GROUP = 1e-9
# | |m_ij| - 1 | and the max entry norm of M*M - nI of a Hadamard matrix
HADAMARD = 1e-9

# -- entry and coordinate size -------------------------------------------------

# | |q| - 1 | of a quaternion taken as unit
UNIT_NORM = 1e-9
# max entry norm of the difference of two matrices taken as equal
APPROX_EQ = 1e-9
# largest coordinate outside R (map r) or C (map c) of a Jacobian point
SCALAR_FIELD = 1e-9
# entry norm at or below which dephase, splits and classify take an entry as 0
ZERO_ENTRY = 1e-9

# -- squared-norm deviation: max | |(A*B)_ij|^2 - 1/n | ------------------------

# deviation of an unbiased pair of bases
UNBIASED = 1e-9
# deviation of a candidate worth polishing; mub maximality exits 0 at or above it
NEAR_MISS = 1e-3
# deviation at which the descent over Sp(n) stops
DESCENT_GOAL = 1e-10

# -- bistochastic matrices -----------------------------------------------------

# | row or column sum - 1 |
BISTOCHASTIC_SUM = 1e-9
# lowest entry accepted, and then rounded up to 0 (a lower bound, not a size)
ENTRY_FLOOR = -1e-12

# -- sign sums -----------------------------------------------------------------

# min over signs of |sum_k s_k sqrt(b_ki b_kj)| for a row or column pair in Sigma_n
SIGMA_MIN = 1e-9
# |inner product| of two rows of a signed sqrt(B)
BRUTE_GRAM = 1e-8

# -- singular values and the classify cross-check ------------------------------

# singular value over sigma_max * max(rows, cols) below which it adds no rank
RANK_RATIO = 1e-10
# singular value at or below which it adds no rank; a Jacobian entry is at
# most 1 in absolute value at a group point, so this is in entry units
RANK_FLOOR = 1e-12
# ratio: entry norms in (ZERO_ENTRY, ZERO_BAND * ZERO_ENTRY) leave the pattern undecided
ZERO_BAND = 1000.0
# pure-part norm of an entry of the dephased 3x3 matrix taken as 0, and the
# component of a pure part off the plane of the largest one taken as 0
REDUCED_ZERO = 1e-7
# largest pure-part norm of an entry of the dephased 3x3 matrix; regular at or above
REDUCED_REGULAR = 1e-4

# -- 3x3 family parameters -----------------------------------------------------

# |p(a,s,t)| at or below which a special family takes over from the generic one
P_FLOOR = 1e-6
# |s^2 + t^2 - 3/4|, |Re zeta + 1/2| and |k coordinate| of zeta = -1/2 + s i + t j
ZETA_CIRCLE = 1e-9
# largest constraint residual of a 3x3 family member; verify_family3's default
FAMILY_RESIDUAL = 1e-9
# angle in radians at or below which two roots of phi on the circle are one
ROOT_MERGE = 1e-9
# |1 + ahat|, ahat the span{1,i} part of a (so at most |1 + a|), at or below
# which generic4's a is the pole a = -1
A_POLE = 1e-9

# -- solver floors -------------------------------------------------------------

# descent step length at or below which no step decreased the objective
STEP_FLOOR = 1e-14
# squared Riemannian gradient norm below which the descent stops
GRADIENT_FLOOR = 1e-30
# ratio: fall of the descent objective over mub._STALL_WINDOW accepted steps,
# over its value, at or below which a restart stops
DESCENT_STALL = 1e-6
# size of the phi amplitude taken as degenerate
DEGENERATE = 1e-15
