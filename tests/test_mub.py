import math

import numpy as np
import pytest
from oracles import descend_qr, descent_objective

from qstoch import mub
from qstoch.errors import (BadParams, DimensionMismatch, NotNormalized,
                           NotSymplectic, TooManyBases)
from qstoch.mub import (MubSet, complete_mub_h2, cross_gram_deviation,
                        direct_maximality_search, extend_search, is_unbiased,
                        one_param_h3, operator_frame_orthogonality,
                        read_mubset, read_mubset_matrices, three_param_h3,
                        write_mubset)
from qstoch.qmatrix import (QMatrix, _chi, _chi_from_rows, _from_chi_rows,
                            _qr_retract, diag, fourier, gram_schmidt_columns,
                            identity, permutation_matrix,
                            random_quaternion_array, random_symplectic,
                            write_qmat)
from qstoch.quaternion import I as QI
from qstoch.quaternion import ONE, Quaternion

R32 = math.sqrt(3) / 2


def cube_root(theta: float) -> Quaternion:
    return Quaternion(-0.5, R32 * math.cos(theta), R32 * math.sin(theta), 0.0)


def h_basis(q: Quaternion) -> QMatrix:
    s = 1 / math.sqrt(2)
    return QMatrix.from_entries([[ONE * s, ONE * s], [q * s, -(q * s)]])


class TestIsUnbiased:
    def test_examples(self):
        assert is_unbiased(identity(2), h_basis(ONE))
        assert is_unbiased(identity(3), fourier(3))
        assert not is_unbiased(identity(2), identity(2))

    def test_rejects_mismatched(self):
        with pytest.raises(DimensionMismatch):
            is_unbiased(identity(2), identity(3))

    def test_rejects_non_symplectic(self):
        with pytest.raises(NotSymplectic):
            is_unbiased(identity(2), QMatrix.from_real(np.ones((2, 2))))

    def test_equivalent_to_hadamard_criterion(self, rng):
        a = random_symplectic(3, seed=31)
        b = random_symplectic(3, seed=32)
        gram = math.sqrt(3) * (a.adjoint() @ b)
        assert is_unbiased(a, b, 1e-9) == gram.is_hadamard(3 * 1e-9)


class TestCompleteH2:
    def test_size_and_pairs(self):
        s = complete_mub_h2()
        assert len(s) == 5 == 2 * s.n + 1
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
                assert is_unbiased(complex_members[i], complex_members[j], 1e-12)

    def test_sixth_basis_fails_validation(self):
        s = complete_mub_h2()
        with pytest.raises(TooManyBases):
            MubSet(2, s.bases + (random_symplectic(2, seed=1),))


class TestH3Families:
    def test_one_param_complex_point(self):
        s = one_param_h3(R32, 0.0)
        assert len(s) == 4
        for b in s.bases:
            assert b.max_jk() < 1e-15  # the complex member of the family

    def test_one_param_quaternionic_point(self):
        s = one_param_h3(0.0, R32)
        assert len(s) == 4
        assert s.bases[2].max_jk() > 0.1

    def test_one_param_rejects_off_circle(self):
        with pytest.raises(BadParams):
            one_param_h3(0.5, 0.5)

    def test_three_param_matches_one_param_at_diagonal(self):
        z = cube_root(1.3)
        s3 = three_param_h3(z, z, z)
        assert len(s3) == 4

    def test_three_param_at_complex_roots(self):
        omega = cube_root(0.0)
        s = three_param_h3(omega, omega * omega, omega)
        assert len(s) == 4

    def test_three_param_cross_pair_norm(self, rng):
        # the (second column, second column) cross pair has squared norm 3
        # before normalization
        a, b, c = (cube_root(th) for th in rng.uniform(0, 2 * np.pi, 3))
        val = ONE + a * a * c + a * b * c * c
        assert val.norm_sq() == pytest.approx(3.0, abs=1e-12)
        three_param_h3(a, b, c)

    def test_three_param_rejects_bad_root(self):
        with pytest.raises(BadParams):
            three_param_h3(QI, cube_root(0.1), cube_root(0.2))


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
        phases = [Quaternion(*v).normalized() for v in rng.standard_normal((3, 4))]
        mono = permutation_matrix((2, 0, 1)) @ diag(phases)
        assert cross_gram_deviation(a.data, (b @ mono).data) == \
            pytest.approx(base, abs=1e-12)

    def test_simultaneous_left_invariance(self, rng):
        a = random_symplectic(3, seed=43)
        b = random_symplectic(3, seed=44)
        u = random_symplectic(3, seed=45)
        base = cross_gram_deviation(a.data, b.data)
        assert cross_gram_deviation((u @ a).data, (u @ b).data) == \
            pytest.approx(base, abs=1e-10)

    def test_entrywise_conjugation_invariance(self, rng):
        a = random_symplectic(3, seed=46)
        b = random_symplectic(3, seed=47)
        x = Quaternion(*rng.standard_normal(4)).normalized()
        base = cross_gram_deviation(a.data, b.data)
        assert cross_gram_deviation(a.entrywise_conjugate(x).data,
                                    b.entrywise_conjugate(x).data) == \
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
        # this restart runs to the 2000-iteration cap.  Descending with a
        # Hamilton-product gradient and a Gram-Schmidt retraction ends at
        # violation 0.11320497646536 (to 13 digits); a retraction that let
        # the odd rows of chi(W) drift stopped early near 0.11267
        s = three_param_h3(*(cube_root(2 * math.pi * k / 3) for k in range(3)))
        viol, w = direct_maximality_search(s, restarts=1, seed=0)
        assert viol == pytest.approx(0.11320497646536, abs=1e-9)
        assert w.is_symplectic(1e-12)


DESCENT_SETS = {
    "one_param": lambda: one_param_h3(0.0, R32),
    "three_param": lambda: three_param_h3(
        *(cube_root(2 * math.pi * k / 3) for k in range(3))),
    "pair": lambda: MubSet(3, (identity(3), fourier(3))),
    "complete_h2": complete_mub_h2,
}


def _lean_descent(monkeypatch, start, targets, max_iter):
    """mub._descend's result and the objective at each of its trial steps."""
    values = []
    deviations = mub._deviations

    def record(x, chi_targets):
        out = deviations(x, chi_targets)
        values.append(out[2])
        return out

    monkeypatch.setattr(mub, "_deviations", record)
    w, _ = mub._descend(start, targets, max_iter=max_iter)
    return w, values[1:]  # values[0] is the start


@pytest.mark.parametrize("name", sorted(DESCENT_SETS))
@pytest.mark.parametrize("restart", range(3))
def test_short_descent_matches_qr_descent(monkeypatch, name, restart):
    s = DESCENT_SETS[name]()
    targets = [b.data for b in s.bases]
    rng = np.random.default_rng(restart)  # direct_maximality_search's, seed 0
    start = gram_schmidt_columns(random_quaternion_array((s.n, s.n), rng))
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


class TestSearches:
    def test_extend_finds_candidate_for_bare_pair(self):
        s = MubSet(3, (identity(3), fourier(3)))
        c = extend_search(s, grid=8, conj_grid=4)
        assert c is not None
        assert c.is_symplectic(1e-9)
        assert is_unbiased(c, identity(3), 1e-9)
        assert is_unbiased(c, fourier(3), 1e-9)

    def test_extend_requires_normalized_prefix(self):
        s = MubSet(3, (fourier(3), identity(3)))
        with pytest.raises(NotNormalized):
            extend_search(s, grid=4, conj_grid=2)

    def test_direct_search_finds_extension_of_pair(self):
        s = MubSet(2, (identity(2), h_basis(ONE)))
        viol, witness = direct_maximality_search(s, restarts=10, seed=3)
        assert viol < 1e-8
        assert witness.is_symplectic(1e-8)

    def test_direct_search_blocked_on_complete_set(self):
        viol, _ = direct_maximality_search(complete_mub_h2(), restarts=10, seed=3)
        assert viol > 0.1

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
        s = three_param_h3(omega, omega, omega * omega)
        assert extend_search(s, grid=12, conj_grid=8) is None
        viol, _ = direct_maximality_search(s, restarts=20, seed=2)
        assert viol >= 1e-3


class TestMubIO:
    def test_round_trip(self):
        s = complete_mub_h2()
        back = read_mubset(write_mubset(s))
        assert len(back) == 5
        for b1, b2 in zip(s.bases, back.bases):
            assert np.array_equal(b1.data, b2.data)

    def test_rejects_empty(self):
        with pytest.raises(BadParams):
            read_mubset("\n\n")

    @pytest.mark.parametrize("separator", ["\n", "  \n", "\t\n \n", "\n\n\n"])
    def test_blank_separator_may_hold_whitespace(self, separator):
        text = write_qmat(identity(3)) + separator + write_qmat(fourier(3))
        bases = read_mubset_matrices(text)
        assert len(bases) == 2
        assert bases[1].approx_eq(fourier(3), 0.0)
