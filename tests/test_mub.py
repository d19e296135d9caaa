import math

import numpy as np
import pytest
from conftest import qdiag, ref_mul
from oracles import descend_qr, descent_objective

from qstoch import mub
from qstoch.errors import QStochError
from qstoch.mub import (MubSet, check_bases, complete_mub_h2,
                        cross_gram_deviation, direct_maximality_search,
                        extend_search, one_param_h3,
                        operator_frame_orthogonality, read_mubset_matrices,
                        three_param_h3, write_mubset)
from qstoch.qmatrix import (QMatrix, _chi, _chi_from_rows, _from_chi_rows,
                            _qr_retract, fourier, gram_schmidt_columns,
                            identity, qconj, qmat_adjoint, qmat_mul, qmul,
                            random_quaternion_array, random_symplectic,
                            write_qmat)
from qstoch.quaternion import I as QI
from qstoch.quaternion import ONE, Quaternion
from qstoch.stochastic import permutation_array
from qstoch.tol import NEAR_MISS

R32 = math.sqrt(3) / 2


def cube_root(theta: float) -> Quaternion:
    return Quaternion(-0.5, R32 * math.cos(theta), R32 * math.sin(theta), 0.0)


def square(q: Quaternion) -> Quaternion:
    return Quaternion(*ref_mul(q.as_array(), q.as_array()))


def h_basis(q: Quaternion) -> QMatrix:
    one, q = ONE.as_array(), q.as_array()
    return QMatrix(np.array([[one, one], [q, -q]]) * (1 / math.sqrt(2)))


class TestIsUnbiased:
    """Unbiasedness as cross_gram_deviation measures it and check_bases
    decides it."""

    def test_examples(self):
        assert cross_gram_deviation(identity(2).data, h_basis(ONE).data) <= 1e-9
        assert check_bases(3, (identity(3), fourier(3))) <= 1e-9
        assert cross_gram_deviation(identity(2).data, identity(2).data) > 1e-9
        with pytest.raises(QStochError, match="are not unbiased"):
            check_bases(2, (identity(2), identity(2)))

    def test_rejects_mismatched(self):
        with pytest.raises(QStochError, match="all bases must be n x n"):
            check_bases(2, (identity(2), identity(3)))

    def test_rejects_non_symplectic(self):
        with pytest.raises(QStochError, match="fails the symplectic check"):
            check_bases(2, (identity(2), QMatrix.from_real(np.ones((2, 2)))))

    def test_rejects_what_mubset_rejects(self):
        # unitary defect 2.4e-9, cross deviation to F_3 8.0e-10: the group
        # threshold, not the unbiasedness one, rejects the pair
        a = QMatrix((1 + 1.2e-9) * identity(3).data)
        assert cross_gram_deviation(a.data, fourier(3).data) <= 1e-9
        with pytest.raises(QStochError, match="fails the symplectic check"):
            check_bases(3, (a, fourier(3)))
        with pytest.raises(QStochError, match="fails the symplectic check"):
            MubSet(3, (a, fourier(3)))

    def test_equivalent_to_hadamard_criterion(self, rng):
        a = random_symplectic(3, seed=31)
        b = random_symplectic(3, seed=32)
        gram = QMatrix(math.sqrt(3) * qmat_mul(qmat_adjoint(a.data), b.data))
        assert (cross_gram_deviation(a.data, b.data) <= 1e-9) \
            == gram.is_hadamard(3 * 1e-9)


class TestCompleteH2:
    def test_size_and_pairs(self):
        s = complete_mub_h2()
        assert len(s.bases) == 5 == 2 * s.n + 1
        for i in range(5):
            for j in range(i + 1, 5):
                dev = cross_gram_deviation(s.bases[i].data, s.bases[j].data)
                assert dev < 1e-12

    def test_complex_members_form_complex_3mub(self):
        s = complete_mub_h2()
        complex_members = [b for b in s.bases if b.max_jk() < 1e-15]
        assert len(complex_members) == 3  # identity, real H, and the i-basis
        for i in range(3):
            for j in range(i + 1, 3):
                dev = cross_gram_deviation(complex_members[i].data,
                                           complex_members[j].data)
                assert dev <= 1e-12

    def test_sixth_basis_fails_validation(self):
        s = complete_mub_h2()
        with pytest.raises(QStochError, match="6 bases exceed the bound 5"):
            MubSet(2, s.bases + (random_symplectic(2, seed=1),))


class TestH3Families:
    def test_one_param_complex_point(self):
        s = one_param_h3(R32, 0.0)
        assert len(s.bases) == 4
        for b in s.bases:
            assert b.max_jk() < 1e-15  # the complex member of the family

    def test_one_param_quaternionic_point(self):
        s = one_param_h3(0.0, R32)
        assert len(s.bases) == 4
        assert s.bases[2].max_jk() > 0.1

    def test_one_param_rejects_off_circle(self):
        with pytest.raises(QStochError, match="must lie on the circle"):
            one_param_h3(0.5, 0.5)

    def test_three_param_matches_one_param_at_diagonal(self):
        z = cube_root(1.3)
        s3 = three_param_h3(z, z, z)
        assert len(s3.bases) == 4

    def test_three_param_at_complex_roots(self):
        omega = cube_root(0.0)
        s = three_param_h3(omega, square(omega), omega)
        assert len(s.bases) == 4

    def test_three_param_cross_pair_norm(self, rng):
        # the (second column, second column) cross pair has squared norm 3
        # before normalization
        roots = [cube_root(th) for th in rng.uniform(0, 2 * np.pi, 3)]
        a, b, c = (q.as_array() for q in roots)
        val = (ONE.as_array() + ref_mul(ref_mul(a, a), c)
               + ref_mul(ref_mul(ref_mul(a, b), c), c))
        assert val @ val == pytest.approx(3.0, abs=1e-12)
        three_param_h3(*roots)

    def test_three_param_rejects_bad_root(self):
        with pytest.raises(QStochError, match="a must be -1/2"):
            three_param_h3(QI, cube_root(0.1), cube_root(0.2))

    def test_three_param_rejects_nan_root(self):
        with pytest.raises(QStochError, match="a must be -1/2"):
            three_param_h3(Quaternion(-0.5, float("nan"), 0, 0),
                           cube_root(0.1), cube_root(0.2))


class TestOperatorFrame:
    def test_complete_h2(self):
        assert operator_frame_orthogonality(complete_mub_h2()) < 1e-12

    def test_identity_fourier_pair(self):
        s = MubSet(3, (identity(3), fourier(3)))
        assert operator_frame_orthogonality(s) < 1e-12

    def test_biased_pair_detected(self):
        # duplicated identity bases are far from unbiased; the operator
        # frame overlap is macroscopic
        assert operator_frame_orthogonality([identity(2), identity(2)]) > 0.5

    def test_one_param_family(self):
        assert operator_frame_orthogonality(one_param_h3(0.0, R32)) < 1e-9


class TestUnbiasednessInvariance:
    def test_right_monomial_invariance(self, rng):
        a = random_symplectic(3, seed=41)
        b = random_symplectic(3, seed=42)
        base = cross_gram_deviation(a.data, b.data)
        phases = [Quaternion(*(v / np.linalg.norm(v)))
                  for v in rng.standard_normal((3, 4))]
        mono = qmat_mul(QMatrix.from_real(permutation_array((2, 0, 1))).data,
                        qdiag(phases))
        assert cross_gram_deviation(a.data, qmat_mul(b.data, mono)) == \
            pytest.approx(base, abs=1e-12)

    def test_simultaneous_left_invariance(self, rng):
        a = random_symplectic(3, seed=43)
        b = random_symplectic(3, seed=44)
        u = random_symplectic(3, seed=45)
        base = cross_gram_deviation(a.data, b.data)
        assert cross_gram_deviation(qmat_mul(u.data, a.data),
                                    qmat_mul(u.data, b.data)) == \
            pytest.approx(base, abs=1e-10)

    def test_entrywise_conjugation_invariance(self, rng):
        a = random_symplectic(3, seed=46)
        b = random_symplectic(3, seed=47)
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        base = cross_gram_deviation(a.data, b.data)
        assert cross_gram_deviation(qmul(qmul(x, a.data), qconj(x)),
                                    qmul(qmul(x, b.data), qconj(x))) == \
            pytest.approx(base, abs=1e-10)


class TestDescentKernel:
    def _chi_targets(self, mubset):
        return np.concatenate([_chi(b.data) for b in mubset.bases], axis=1)

    def test_gradient_matches_central_differences(self):
        s = one_param_h3(0.0, R32)
        chi_targets = self._chi_targets(s)
        w = random_symplectic(3, seed=21).data

        def value(v):
            return mub._deviations(_chi(v), chi_targets)[2]

        y, dev, _ = mub._deviations(_chi(w), chi_targets)
        grad = _from_chi_rows(mub._gradient(y, dev, chi_targets)[::2])
        h = 1e-6
        numeric = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            step = np.zeros_like(w)
            step[idx] = h
            numeric[idx] = (value(w + step) - value(w - step)) / (2 * h)
        assert np.max(np.abs(grad - numeric)) < 1e-8 * max(1.0, np.max(np.abs(grad)))

    def test_objective_violation_matches_cross_gram_deviation(self):
        s = one_param_h3(R32, 0.0)
        w = random_symplectic(3, seed=22).data
        _, dev, _ = mub._deviations(_chi(w), self._chi_targets(s))
        want = max(cross_gram_deviation(w, b.data) for b in s.bases)
        assert np.max(np.abs(dev)) == pytest.approx(want, abs=1e-14)

    def test_objective_and_gradient_match_one_pass_objective(self):
        s = three_param_h3(*(cube_root(2 * math.pi * k / 3) for k in range(3)))
        chi_targets = self._chi_targets(s)
        x = _chi(random_symplectic(3, seed=24).data)
        y, dev, value = mub._deviations(x, chi_targets)
        want_value, want_grad, want_viol = descent_objective(x, chi_targets)
        assert value == pytest.approx(want_value, rel=1e-14)
        assert np.max(np.abs(dev)) == pytest.approx(want_viol, rel=1e-14)
        assert np.max(np.abs(mub._gradient(y, dev, chi_targets) - want_grad)) < 1e-14

    def test_riemannian_gradient_is_tangent(self):
        s = one_param_h3(0.0, R32)
        x = _chi(random_symplectic(3, seed=23).data)
        y, dev, _ = mub._deviations(x, self._chi_targets(s))
        rgrad = mub._riemannian_grad(x, mub._gradient(y, dev, self._chi_targets(s)))
        skew = x.conj().T @ rgrad
        assert np.max(np.abs(skew + skew.conj().T)) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("size", [1e-3, 0.63, 10.0])
    def test_cholesky_retraction_matches_qr(self, n, size):
        # size is s |g|_2 for the trial point c = x - s g, g tangent at x;
        # the descent stays below 0.5 on the H^2 and H^3 sets
        rng = np.random.default_rng(n)
        x = _chi(random_symplectic(n, seed=n).data)
        g = mub._riemannian_grad(x, _chi(rng.standard_normal((n, n, 4))))
        c = x - size * g / np.linalg.norm(g, 2)
        out = mub._ChiBuffer(n)
        mub._cholesky_retract(c, out)
        assert np.max(np.abs(out.even - _qr_retract(c))) < 1e-13
        assert np.array_equal(out.full, _chi_from_rows(out.even))
        assert np.max(np.abs(out.full.conj().T @ out.full - np.eye(2 * n))) < 1e-13

    def test_long_descent_matches_gram_schmidt_descent(self):
        # with an off-grid third basis, restarts 0-2 still lower the
        # objective by more than DESCENT_STALL per window when they reach
        # the 2000-step cap.  Descending with a Hamilton-product gradient
        # and a Householder QR retraction ends within 1e-13 of the same
        # points; a retraction that let the odd rows of chi(W) drift would
        # not
        s = _off_grid_prefix()
        targets = [b.data for b in s.bases]
        for r in range(3):
            start = _start(s.n, r)
            w, viol, _ = mub._descend(start, targets)
            trials = []
            w_ref, viol_ref = descend_qr(start, targets, trials=trials)
            assert sum(v <= bound for v, bound in trials) == 2000
            assert viol == pytest.approx(viol_ref, abs=1e-9)
            assert np.max(np.abs(w - w_ref)) < 1e-9
            assert QMatrix(w).is_symplectic(1e-12)


def _start(n: int, restart: int, seed: int = 0) -> np.ndarray:
    """direct_maximality_search's start for this restart and seed."""
    rng = np.random.default_rng(seed * 1_000_003 + restart)
    return gram_schmidt_columns(random_quaternion_array((n, n), rng))


def _off_grid_prefix():
    return MubSet(3, one_param_h3(R32 * math.cos(1), R32 * math.sin(1)).bases[:3])


DESCENT_SETS = {
    "one_param": lambda: one_param_h3(0.0, R32),
    "three_param": lambda: three_param_h3(
        *(cube_root(2 * math.pi * k / 3) for k in range(3))),
    "pair": lambda: MubSet(3, (identity(3), fourier(3))),
    "complete_h2": complete_mub_h2,
}


def _lean_descent(monkeypatch, start, targets, max_steps):
    """mub._descend's result, capped at max_steps accepted steps, and the
    objective at each of its trial steps."""
    values = []
    deviations = mub._deviations

    def record(x, chi_targets):
        out = deviations(x, chi_targets)
        values.append(out[2])
        return out

    monkeypatch.setattr(mub, "_deviations", record)
    monkeypatch.setattr(mub, "_MAX_STEPS", max_steps)
    w, _, _ = mub._descend(start, targets)
    return w, values[1:]  # values[0] is the start


@pytest.mark.parametrize("name", sorted(DESCENT_SETS))
@pytest.mark.parametrize("restart", range(3))
def test_short_descent_matches_qr_descent(monkeypatch, name, restart):
    s = DESCENT_SETS[name]()
    targets = [b.data for b in s.bases]
    start = _start(s.n, restart)
    trials = []
    w_ref, _ = descend_qr(start, targets, max_iter=60, trials=trials)
    w, values = _lean_descent(monkeypatch, start, targets, 60)
    ref = [v for v, _ in trials]
    # Each trial value fixes the step it was taken with, so equal values
    # mean equal Armijo decisions and equal steps.  Once the objective sits
    # on its floor, the decisions compare last bits and rounding settles
    # them; the complete H^2 set is on its floor, 1, everywhere on Sp(2).
    floor = min(ref + values, default=np.inf)
    firm = next((k for k, v in enumerate(ref) if v <= floor + 1e-12), len(ref))
    k = min(firm + 1, len(ref))
    assert len(values) >= k
    assert np.max(np.abs(np.subtract(values[:k], ref[:k])), initial=0.0) < 1e-12
    if name == "complete_h2":
        assert np.max(np.abs(np.subtract(ref + values, 1.0)), initial=0.0) < 1e-12
    else:
        assert firm >= 20
    if name == "one_param":
        # its minimizers form a continuum: rounding moves the end along it
        chi_targets = np.concatenate([_chi(b) for b in targets], axis=1)
        for end in (w, w_ref):
            assert descent_objective(_chi(end), chi_targets)[0] < floor + 1e-12
    else:
        assert np.max(np.abs(w - w_ref)) < 1e-12


def _without_stall(monkeypatch):
    """mub._descend as it ran before the stall stop: a window longer than
    the 2000-step cap never closes."""
    monkeypatch.setattr(mub, "_STALL_WINDOW", 2001)


def test_flat_restart_stops_by_stall(monkeypatch):
    # the objective of this restart is flat to 6 digits from about its
    # 40th step; without the stall stop it runs to the 2000-step cap
    s = DESCENT_SETS["three_param"]()
    targets = [b.data for b in s.bases]
    start = _start(s.n, 0)
    _, values = _lean_descent(monkeypatch, start, targets, 2000)
    assert len(values) + 1 < 200
    _without_stall(monkeypatch)
    _, values = _lean_descent(monkeypatch, start, targets, 2000)
    assert len(values) + 1 > 2000


# {I, F_3}, the theta = 0 prefix of one_param_h3 and the first two and three
# bases of the complete H^2 set extend; the count of 50 restarts at seed 0
# that find an extension
POSITIVE_CONTROLS = {
    "pair": (DESCENT_SETS["pair"], 50),
    "prefix3": (lambda: MubSet(3, one_param_h3(R32, 0.0).bases[:3]), 49),
    "h2_two": (lambda: MubSet(2, complete_mub_h2().bases[:2]), 50),
    "h2_three": (lambda: MubSet(2, complete_mub_h2().bases[:3]), 50),
}


@pytest.mark.parametrize("name", sorted(POSITIVE_CONTROLS))
def test_stall_stop_keeps_every_extension(monkeypatch, name):
    build, want = POSITIVE_CONTROLS[name]
    s = build()
    targets = [b.data for b in s.bases]
    starts = [_start(s.n, r) for r in range(50)]
    viol = [mub._descend(x, targets)[1] for x in starts]
    _without_stall(monkeypatch)
    no_stall = [mub._descend(x, targets)[1] for x in starts]
    assert np.sum(np.array(viol) < 1e-8) == np.sum(np.array(no_stall) < 1e-8) == want


@pytest.mark.parametrize("build", [
    complete_mub_h2, lambda: one_param_h3(R32, 0.0),
    lambda: one_param_h3(0.0, R32), DESCENT_SETS["three_param"]])
def test_maximal_sets_stay_blocked(build):
    viol, _ = direct_maximality_search(build(), restarts=50, seed=0)
    assert viol >= NEAR_MISS


class TestSearches:
    def test_extend_finds_candidate_for_bare_pair(self):
        s = MubSet(3, (identity(3), fourier(3)))
        c = extend_search(s, grid=8, conj_grid=4)
        assert c is not None
        # raises unless c is symplectic and unbiased to both bases
        assert check_bases(3, (identity(3), fourier(3), c)) <= 1e-9

    def test_extend_requires_normalized_prefix(self):
        s = MubSet(3, (fourier(3), identity(3)))
        with pytest.raises(QStochError, match="must start with the identity"):
            extend_search(s, grid=4, conj_grid=2)

    def test_direct_search_finds_extension_of_pair(self):
        s = MubSet(2, (identity(2), h_basis(ONE)))
        viol, witness = direct_maximality_search(s, restarts=10, seed=3)
        assert viol < 1e-8
        assert witness.is_symplectic(1e-8)

    def test_direct_search_blocked_on_complete_set(self):
        viol, _ = direct_maximality_search(complete_mub_h2(), restarts=10, seed=3)
        assert viol > 0.1

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_direct_search_needs_a_restart(self, restarts):
        with pytest.raises(QStochError, match="restarts must be >= 1"):
            direct_maximality_search(complete_mub_h2(), restarts=restarts)

    @pytest.mark.parametrize("grid, conj_grid", [(0, 2), (-3, 2), (4, 0)])
    def test_extend_search_needs_a_grid_point(self, grid, conj_grid):
        s = MubSet(3, (identity(3), fourier(3)))
        with pytest.raises(QStochError,
                           match="grid and conj_grid must be >= 1"):
            extend_search(s, grid=grid, conj_grid=conj_grid)

    def test_direct_search_deterministic(self):
        s = MubSet(2, (identity(2), h_basis(ONE)))
        v1, w1 = direct_maximality_search(s, restarts=5, seed=7)
        v2, w2 = direct_maximality_search(s, restarts=5, seed=7)
        assert v1 == v2
        assert np.array_equal(w1.data, w2.data)

    def test_three_param_family_not_extendible(self):
        # coarse-grid version of the maximality evidence for the three
        # parameter family; the acceptance suite runs the one-parameter
        # family at full resolution
        omega = cube_root(0.0)
        s = three_param_h3(omega, omega, square(omega))
        assert extend_search(s, grid=12, conj_grid=8) is None
        viol, _ = direct_maximality_search(s, restarts=20, seed=2)
        assert viol >= 1e-3


class TestMubIO:
    def test_round_trip(self):
        s = complete_mub_h2()
        back = read_mubset_matrices(write_mubset(s))
        assert len(back) == 5
        for b1, b2 in zip(s.bases, back):
            assert np.array_equal(b1.data, b2.data)

    def test_rejects_empty(self):
        with pytest.raises(QStochError, match="no matrices in mub set file"):
            read_mubset_matrices("\n\n")

    @pytest.mark.parametrize("separator", ["\n", "  \n", "\t\n \n", "\n\n\n"])
    def test_blank_separator_may_hold_whitespace(self, separator):
        text = write_qmat(identity(3)) + separator + write_qmat(fourier(3))
        bases = read_mubset_matrices(text)
        assert len(bases) == 2
        assert np.array_equal(bases[1].data, fourier(3).data)
