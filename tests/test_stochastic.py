import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (birkhoff_sample, orthostochastic_bruteforce_tensor,
                     sigma_pair_minima_exhaustive)
from qstoch.errors import NotBistochastic, NotUnitary, TooLarge, WrongSize
from qstoch.qmatrix import QMatrix, fourier, haar_orthogonal, random_symplectic
from qstoch.stochastic import (BistochasticMatrix, SignPattern,
                               distance_j3, distance_j3_report,
                               hurwitz_radon_matrix, ortho3_residual,
                               ortho3_test, orthostochastic_bruteforce,
                               permutation_array, phi, segment_block_analysis,
                               sigma_check, sigma_pair_minima, sigma_poly_4,
                               van_der_waerden)

HADAMARD4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                      [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


def brute_sign_feasible(t, tol=1e-9):
    """Oracle: exhaustive signing over all 2^n vectors, no symmetry tricks."""
    for signs in itertools.product((1.0, -1.0), repeat=len(t)):
        if abs(np.dot(signs, t)) <= tol:
            return True
    return False


class TestBistochasticType:
    def test_rejects_bad_sums(self):
        with pytest.raises(NotBistochastic):
            BistochasticMatrix(np.array([[0.5, 0.4], [0.5, 0.6]]))

    def test_rejects_negative(self):
        with pytest.raises(NotBistochastic):
            BistochasticMatrix(np.array([[1.2, -0.2], [-0.2, 1.2]]))

    def test_entries_within_the_floor_become_zero(self):
        # the identity up to rounding: -1e-13 passes the -1e-12 entry floor,
        # and a NaN square root of it used to fail sigma and the brute force
        near = np.array([[1.0000000000001, -1e-13], [-1e-13, 1.0000000000001]])
        b = BistochasticMatrix(near)
        assert np.array_equal(b.mat, np.where(near < 0, 0.0, near))
        with np.errstate(invalid="raise"):
            assert [m for *_, m in sigma_pair_minima(b)] == [0.0, 0.0]
            assert np.array_equal(orthostochastic_bruteforce(b).signs, np.ones((2, 2)))
        with pytest.raises(NotBistochastic):
            BistochasticMatrix(np.array([[1.0 + 2e-12, -2e-12], [-2e-12, 1.0 + 2e-12]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(NotBistochastic):
            BistochasticMatrix(np.full((3, 3), value))
        mat = np.full((3, 3), 1.0 / 3.0)
        mat[1, 2] = value
        with pytest.raises(NotBistochastic):
            BistochasticMatrix(mat)


class TestPhi:
    def test_fourier_hits_barycenter(self):
        b = phi(fourier(3))
        assert np.max(np.abs(b.mat - 1.0 / 3.0)) < 1e-14

    def test_permutation_fixed(self):
        p = permutation_array((2, 0, 1))
        assert np.array_equal(phi(QMatrix.from_real(p)).mat, p)

    def test_rotation(self):
        c, s = math.cos(0.4), math.sin(0.4)
        rot = QMatrix.from_real(np.array([[c, -s], [s, c]]))
        assert np.max(np.abs(phi(rot).mat - [[c * c, s * s], [s * s, c * c]])) < 1e-15

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            phi(QMatrix.from_real(np.ones((2, 2))))

    def test_symplectic_images_bistochastic(self):
        for n in range(2, 7):
            b = phi(random_symplectic(n, seed=n))
            assert np.max(np.abs(b.mat.sum(axis=0) - 1)) < 1e-10
            assert np.max(np.abs(b.mat.sum(axis=1) - 1)) < 1e-10


class TestVanDerWaerden:
    def test_small(self):
        assert van_der_waerden(1).mat[0, 0] == 1.0
        assert np.all(van_der_waerden(3).mat == pytest.approx(1 / 3))
        van_der_waerden(7)  # constructor validates bistochasticity

    def test_rejects_zero(self):
        with pytest.raises(WrongSize):
            van_der_waerden(0)


class TestOrtho3:
    def test_j3_fails_with_known_residual(self):
        j3 = van_der_waerden(3)
        assert ortho3_residual(j3) == pytest.approx(1 / 81 - 4 / 81)
        assert not ortho3_test(j3)

    def test_closest_point_passes_with_equal_sides(self):
        b = BistochasticMatrix(np.array([[1, 4, 4], [4, 1, 4], [4, 4, 1]]) / 9)
        x, y, z, w = b.mat[0, 0], b.mat[0, 1], b.mat[1, 0], b.mat[1, 1]
        lhs = (1 - x - y - z - w + x * w + y * z) ** 2
        rhs = 4 * x * y * z * w
        assert lhs == pytest.approx(64 / 6561)
        assert rhs == pytest.approx(64 / 6561)
        assert ortho3_test(b)

    def test_identity_passes(self):
        assert ortho3_test(BistochasticMatrix(np.eye(3)))

    def test_wrong_size(self):
        with pytest.raises(WrongSize):
            ortho3_test(van_der_waerden(4))


class TestSigmaPoly4:
    def test_orthostochastic_image_vanishes(self):
        b = phi(QMatrix.from_real(HADAMARD4 / 2))
        assert max(abs(r) for r in sigma_poly_4(b)) < 1e-12

    def test_permutations_vanish(self, rng):
        for _ in range(5):
            p = BistochasticMatrix(permutation_array(tuple(rng.permutation(4))))
            assert max(abs(r) for r in sigma_poly_4(p)) == 0.0

    def test_circulant_counterexample(self):
        b = BistochasticMatrix(0.5 * np.array(
            [[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
        assert max(abs(r) for r in sigma_poly_4(b)) > 1e-3

    def test_residual_is_signing_product(self, rng):
        # the residual equals the product of all sign combinations, so it
        # vanishes exactly when a signing is feasible
        from qstoch.stochastic import _pair_residual
        for _ in range(50):
            t = rng.uniform(0, 1, 4)
            prod = 1.0
            for signs in itertools.product((1.0, -1.0), repeat=3):
                prod *= t[0] + np.dot(signs, t[1:])
            assert _pair_residual(t ** 2) == pytest.approx(prod, rel=1e-9, abs=1e-12)


class TestSigmaCheck:
    def test_j6_passes(self):
        assert sigma_check(van_der_waerden(6))

    def test_j3_fails_vs_exhaustive_oracle(self):
        j3 = van_der_waerden(3)
        assert not sigma_check(j3)
        t = np.sqrt(j3.mat[:, 0] * j3.mat[:, 1])
        assert not brute_sign_feasible(t)

    def test_matches_oracle_on_small_samples(self, rng):
        for _ in range(20):
            b = birkhoff_sample(4, rng)
            minima = sigma_pair_minima(b)
            for kind, i, j, m in minima:
                vec = b.mat[:, i] * b.mat[:, j] if kind == "col" \
                    else b.mat[i, :] * b.mat[j, :]
                assert brute_sign_feasible(np.sqrt(vec)) == (m <= 1e-9)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            sigma_check(van_der_waerden(25))


def _minima(rows):
    return np.array([m for _, _, _, m in rows])


def _sparse_birkhoff(n, rng, terms):
    """A few weighted permutations, so most entries are exactly zero."""
    out = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(terms)):
        out += w * permutation_array(rng.permutation(n))
    return BistochasticMatrix(out)


def _block_sum(n, rng):
    """A shuffled direct sum of J_2 blocks (and a 1x1 block for odd n):
    orthostochastic, with zero entries and many sign patterns that work."""
    out = np.zeros((n, n))
    for start in range(0, n - 1, 2):
        out[start:start + 2, start:start + 2] = 0.5
    if n % 2:
        out[-1, -1] = 1.0
    out = out[rng.permutation(n)][:, rng.permutation(n)]
    return BistochasticMatrix(out)


SAMPLE_KINDS = ("birkhoff", "haar", "sparse", "blocks", "j", "perm", "hr")


@st.composite
def bistochastic_inputs(draw, n_min, n_max):
    """Birkhoff samples, phi(Haar O(n)), inputs with zero entries, and exact
    cancellations: J_n, permutation matrices and the order-16 matrix."""
    kind = draw(st.sampled_from(SAMPLE_KINDS))
    if kind == "hr":
        return hurwitz_radon_matrix(seed=draw(st.integers(0, 99)))
    n = draw(st.integers(n_min, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "birkhoff":
        return birkhoff_sample(n, rng)
    if kind == "haar":
        return phi(QMatrix.from_real(haar_orthogonal(n, rng)))
    if kind == "sparse":
        return _sparse_birkhoff(n, rng, draw(st.integers(1, 3)))
    if kind == "blocks":
        return _block_sum(n, rng)
    if kind == "j":
        return van_der_waerden(n)
    return BistochasticMatrix(permutation_array(rng.permutation(n)))


class TestSigmaMeetInTheMiddle:
    """The meet-in-the-middle minima against the exhaustive enumeration."""

    @staticmethod
    def check(b):
        got = sigma_pair_minima(b)
        want = sigma_pair_minima_exhaustive(b)
        assert [g[:3] for g in got] == [w[:3] for w in want]
        got, want = _minima(got), _minima(want)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
        assert np.array_equal(got <= 1e-9, want <= 1e-9)

    @settings(max_examples=80, deadline=None)
    @given(bistochastic_inputs(2, 16))
    def test_matches_exhaustive(self, b):
        self.check(b)

    @pytest.mark.parametrize("n", [18, 20])
    def test_matches_exhaustive_large(self, n):
        rng = np.random.default_rng(1000 + n)
        generic = birkhoff_sample(n, rng)
        self.check(generic)
        assert not sigma_check(generic)
        image = phi(QMatrix.from_real(haar_orthogonal(n, rng)))
        self.check(image)
        assert sigma_check(image)

    def test_exact_cancellations(self):
        for b in (van_der_waerden(2), van_der_waerden(6),
                  BistochasticMatrix(np.eye(7)), hurwitz_radon_matrix(seed=0)):
            self.check(b)
            assert sigma_check(b)

    def test_order_and_labels(self):
        rows = sigma_pair_minima(van_der_waerden(4))
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert [r[:3] for r in rows] == ([("col", i, j) for i, j in pairs]
                                         + [("row", i, j) for i, j in pairs])

    def test_n1_has_no_pairs(self):
        assert sigma_pair_minima(van_der_waerden(1)) == []
        assert sigma_check(van_der_waerden(1))


def _pattern_is_orthogonal(b, index, tol=1e-8):
    n = b.n
    signs = np.ones((n, n))
    bits = (index >> np.arange((n - 1) ** 2)) & 1
    signs[1:, 1:] = (1.0 - 2.0 * bits).reshape(n - 1, n - 1)
    x = signs * np.sqrt(b.mat)
    return np.max(np.abs(x.T @ x - np.eye(n))) <= tol


class TestBruteforceCompletion:
    """Column-by-column completion against the all-patterns tensor."""

    @staticmethod
    def check(b):
        got = orthostochastic_bruteforce(b)
        want = orthostochastic_bruteforce_tensor(b)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.n == want.n
            assert np.array_equal(got.signs, want.signs)
        return got

    @settings(max_examples=120, deadline=None)
    @given(bistochastic_inputs(1, 5).filter(lambda b: b.n <= 5))
    def test_matches_tensor(self, b):
        self.check(b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_structured_inputs(self, n, rng):
        inputs = [van_der_waerden(n), BistochasticMatrix(np.eye(n)),
                  BistochasticMatrix(permutation_array(rng.permutation(n))),
                  _block_sum(n, rng), _sparse_birkhoff(n, rng, 2)]
        for b in inputs:
            self.check(b)

    def test_j4_picks_the_first_of_many_patterns(self):
        j4 = van_der_waerden(4)
        pattern = self.check(j4)
        index = int(np.sum((pattern.signs[1:, 1:].ravel() < 0) << np.arange(9)))
        hits = [k for k in range(1 << 9) if _pattern_is_orthogonal(j4, k)]
        assert len(hits) > 1 and index == hits[0]

    def test_n1(self):
        pattern = orthostochastic_bruteforce(van_der_waerden(1))
        assert isinstance(pattern, SignPattern) and pattern.n == 1
        assert np.array_equal(pattern.signs, [[1.0]])


class TestBruteforce:
    def test_j4_has_hadamard_signing(self):
        pattern = orthostochastic_bruteforce(van_der_waerden(4))
        assert pattern is not None
        x = pattern.signed_sqrt(van_der_waerden(4))
        assert np.max(np.abs(x.T @ x - np.eye(4))) < 1e-12

    def test_j3_has_none(self):
        assert orthostochastic_bruteforce(van_der_waerden(3)) is None

    def test_permutation_all_plus(self):
        p = BistochasticMatrix(permutation_array((1, 2, 0)))
        pattern = orthostochastic_bruteforce(p)
        assert pattern is not None
        assert np.all(pattern.signs == 1.0)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            orthostochastic_bruteforce(van_der_waerden(6))

    def test_success_implies_sigma(self, rng):
        hits = 0
        for _ in range(40):
            b = birkhoff_sample(3, rng)
            if orthostochastic_bruteforce(b) is not None:
                hits += 1
                assert sigma_check(b, tol=1e-7)
        assert hits > 0

    def test_agrees_with_ortho3_on_samples(self, rng):
        for _ in range(100):
            b = phi(QMatrix.from_real(haar_orthogonal(3, rng)))
            assert ortho3_test(b)
            assert orthostochastic_bruteforce(b) is not None
        for _ in range(100):
            b = birkhoff_sample(3, rng)
            assert ortho3_test(b) == (orthostochastic_bruteforce(b) is not None)

    def test_known_degenerate_scale_divergence(self):
        # with near-zero entries the quartic residual collapses even though
        # the matrix is far from orthostochastic; the absolute 1e-9
        # threshold of ortho3_test then disagrees with the sign search.
        # This pins the behavior of both sides on a concrete witness.
        w = 1.98798764e-04
        b = BistochasticMatrix(np.array([
            [1.0 - w, w, 0.0],
            [0.0, 1.0 - 0.972075668 - w, 0.972075668 + w],
            [w, 0.972075668, 1.0 - 0.972075668 - w],
        ]))
        assert abs(ortho3_residual(b)) < 1e-9  # degenerate false positive
        assert orthostochastic_bruteforce(b) is None  # truly not a member


class TestSegments:
    def test_transposition_segment_is_orthostochastic(self):
        v = segment_block_analysis((0, 1, 2), (1, 0, 2), 0.3)
        assert v.verdict == "orthostochastic"
        x = v.witness
        assert np.max(np.abs(x.T @ x - np.eye(3))) < 1e-12
        assert np.max(np.abs(x * x - v.matrix.mat)) < 1e-12

    def test_three_cycle_not_qustochastic(self):
        v = segment_block_analysis((0, 1, 2), (1, 2, 0), 0.5)
        assert v.verdict == "not_qustochastic"
        assert not sigma_check(v.matrix)
        expected = 0.5 * (np.eye(3) + permutation_array((1, 2, 0)))
        assert np.array_equal(v.matrix.mat, expected)

    def test_equal_permutations(self, rng):
        s = tuple(int(v) for v in rng.permutation(5))
        v = segment_block_analysis(s, s, 0.7)
        assert v.verdict == "orthostochastic"

    def test_rejects_endpoint_p(self):
        with pytest.raises(WrongSize):
            segment_block_analysis((0, 1), (1, 0), 1.0)


class TestDistanceJ3:
    def test_finds_known_minimum(self):
        dist, minimizer = distance_j3(restarts=30, seed=2)
        assert dist == pytest.approx(math.sqrt(2) / 3, abs=1e-6)
        target = np.array([[1, 4, 4], [4, 1, 4], [4, 4, 1]]) / 9
        best = min(
            np.max(np.abs(minimizer.mat[np.ix_(pr, pc)] - target))
            for pr in itertools.permutations(range(3))
            for pc in itertools.permutations(range(3)))
        assert best < 1e-5

    def test_saddle_value_not_returned(self):
        dist, _ = distance_j3(restarts=30, seed=5)
        assert dist < 0.5 - 1e-3

    def test_deterministic(self):
        r1 = distance_j3_report(restarts=5, seed=9)
        r2 = distance_j3_report(restarts=5, seed=9)
        assert r1.distance == r2.distance
        assert np.array_equal(r1.minimizer.mat, r2.minimizer.mat)
        assert r1.iterations == r2.iterations


class TestHurwitzRadon:
    def test_first_row_is_weight_vector(self):
        x = hurwitz_radon_matrix(seed=0)
        assert np.array_equal(x.mat[0], x.mat[:, 0])
        # row alpha is a permutation of row 0
        for alpha in range(16):
            assert np.array_equal(np.sort(x.mat[alpha]), np.sort(x.mat[0]))

    def test_symmetric(self):
        x = hurwitz_radon_matrix(seed=3)
        assert np.array_equal(x.mat, x.mat.T)

    def test_group_table_structure(self):
        x = hurwitz_radon_matrix(seed=1)
        weights = x.mat[0]
        for alpha in range(16):
            for beta in range(16):
                assert x.mat[alpha, beta] == weights[alpha ^ beta]

    def test_satisfies_sigma(self):
        assert sigma_check(hurwitz_radon_matrix(seed=0))
