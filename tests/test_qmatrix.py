import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gram_schmidt_loop, hamilton_qmat_mul
from qstoch.errors import (DimensionMismatch, NonFinite, NonUnitConjugator,
                           ZeroInFrame)
from qstoch.qmatrix import (MonomialTransform, QMatrix, diag, fourier,
                            gram_schmidt_columns, identity,
                            permutation_matrix, qmat_mul, qnorm, qnormsq,
                            random_symplectic, read_matrix_text,
                            read_qmatrix_text, write_qmat, write_rmat)
from qstoch.quaternion import I as QI
from qstoch.quaternion import J as QJ
from qstoch.quaternion import K as QK
from qstoch.quaternion import ONE, Quaternion, aligning_conjugator


def complex_fourier(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)


class TestAdjoint:
    def test_identity(self):
        assert identity(3).adjoint().approx_eq(identity(3), 0.0)

    def test_involution(self, rng):
        m = QMatrix(rng.standard_normal((3, 5, 4)))
        assert m.adjoint().adjoint().approx_eq(m, 0.0)

    def test_fourier_unitarity_against_complex_oracle(self):
        f3 = fourier(3)
        oracle = complex_fourier(3)
        assert np.max(np.abs(f3.to_complex() - oracle)) < 1e-15
        gram = f3.adjoint() @ f3
        assert gram.approx_eq(identity(3), 1e-12)


class TestMatmul:
    def test_permutation_homomorphism(self, rng):
        for _ in range(20):
            s = tuple(int(v) for v in rng.permutation(5))
            t = tuple(int(v) for v in rng.permutation(5))
            st = tuple(s[t[j]] for j in range(5))
            lhs = permutation_matrix(s) @ permutation_matrix(t)
            assert lhs.approx_eq(permutation_matrix(st), 0.0)

    def test_quaternion_diagonals(self):
        prod = diag([QI, QI]) @ diag([QJ, QJ])
        assert prod.approx_eq(diag([QK, QK]), 0.0)

    def test_adjoint_antihomomorphism(self, rng):
        a = QMatrix(rng.standard_normal((3, 4, 4)))
        b = QMatrix(rng.standard_normal((4, 2, 4)))
        assert (a @ b).adjoint().approx_eq(b.adjoint() @ a.adjoint(), 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            identity(2) @ identity(3)


# leading (batch) shapes of the two operands: none, one side batched, both
# batched alike, and both broadcast against each other
BATCH_SHAPES = [((), ()), ((3,), ()), ((), (2,)), ((4,), (4,)),
                ((2, 1), (3,)), ((1, 3), (2, 1))]


@st.composite
def product_operands(draw):
    r, m, k = (draw(st.integers(1, 8)) for _ in range(3))
    batch_a, batch_b = draw(st.sampled_from(BATCH_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return (scale * rng.standard_normal(batch_a + (r, m, 4)),
            rng.standard_normal(batch_b + (m, k, 4)))


class TestComplexAdjointKernel:
    @settings(max_examples=200, deadline=None)
    @given(product_operands())
    def test_qmat_mul_matches_hamilton_oracle(self, operands):
        a, b = operands
        got = qmat_mul(a, b)
        want = hamilton_qmat_mul(a, b)
        assert got.shape == want.shape
        # relative to sum_l |a_il| |b_lj|, the natural size of entry (i, j)
        bound = qnorm(a) @ qnorm(b)
        assert np.all(qnorm(got - want) <= 1e-12 * bound)

    def test_qmat_mul_accepts_views(self, rng):
        a = rng.standard_normal((5, 4, 4))
        b = rng.standard_normal((5, 3, 4))
        at = np.swapaxes(a, 0, 1)  # a non-contiguous (4, 5, 4) view
        assert np.max(np.abs(qmat_mul(at, b) - hamilton_qmat_mul(at, b))) < 1e-12

    @pytest.mark.parametrize("rows,cols", [(n, n) for n in range(1, 9)]
                             + [(5, 3), (8, 1)])
    def test_qr_retraction_matches_gram_schmidt(self, rows, cols):
        a = np.random.default_rng(rows * 10 + cols).standard_normal((rows, cols, 4))
        got = gram_schmidt_columns(a)
        assert np.max(np.abs(got - gram_schmidt_loop(a))) < 1e-12
        gram = QMatrix(hamilton_qmat_mul(QMatrix(got).adjoint().data, got))
        assert gram.approx_eq(identity(cols), 1e-12)
        if rows == cols:
            assert QMatrix(got).is_symplectic(1e-12)

    def test_qr_retraction_keeps_orthonormal_input(self):
        w = random_symplectic(4, seed=3).data
        assert np.max(np.abs(gram_schmidt_columns(w) - w)) < 1e-12


class TestPredicates:
    def test_symplectic_examples(self):
        assert identity(4).is_symplectic(1e-15)
        s = 1 / math.sqrt(2)
        h_i = QMatrix.from_entries([[ONE * s, ONE * s], [QI * s, -QI * s]])
        assert h_i.is_symplectic(1e-12)
        ones = QMatrix.from_real(np.ones((2, 2)))
        assert not ones.is_symplectic(1e-9)

    def test_hadamard_examples(self):
        h2 = QMatrix.from_real(np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert h2.is_hadamard(1e-15)
        assert (math.sqrt(3) * fourier(3)).is_hadamard(1e-12)
        assert not identity(2).is_hadamard(1e-9)

    def test_splits_examples(self):
        assert identity(3).splits()
        assert not fourier(3).splits()
        arr = np.zeros((3, 3, 4))
        arr[0, 1, 0] = arr[1, 0, 0] = arr[2, 2, 0] = 1.0
        assert QMatrix(arr).splits()

    def test_splits_invariant_under_permutations(self, rng):
        m = random_symplectic(4, seed=11)
        base = m.splits()
        for _ in range(10):
            p = permutation_matrix(tuple(int(v) for v in rng.permutation(4)))
            q = permutation_matrix(tuple(int(v) for v in rng.permutation(4)))
            assert (p @ m @ q).splits() == base


class TestDephase:
    def test_recovers_hadamard_from_diagonal_twist(self):
        h2 = QMatrix.from_real(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
        twisted = diag([QI, QJ]) @ h2
        dephased, left, right = twisted.dephase()
        assert dephased.approx_eq(h2, 1e-12)
        # the returned transforms reproduce the dephased matrix
        rebuilt = right.apply(left.apply(twisted))
        assert rebuilt.approx_eq(dephased, 1e-12)

    def test_idempotent(self, rng):
        m = random_symplectic(3, seed=7)
        d1, _, _ = m.dephase()
        d2, _, _ = d1.dephase()
        assert d2.approx_eq(d1, 1e-12)

    def test_frame_real_nonnegative(self, rng):
        arr = rng.standard_normal((4, 4, 4))
        arr /= qnorm(arr)[..., None]
        d, _, _ = QMatrix(arr).dephase()
        assert np.max(np.abs(d.data[0, :, 1:])) < 1e-12
        assert np.max(np.abs(d.data[:, 0, 1:])) < 1e-12
        assert np.min(d.data[0, :, 0]) > 0
        assert np.min(d.data[:, 0, 0]) > 0
        assert d.entry(0, 0).w == pytest.approx(qnorm(arr[0, 0]), rel=1e-12)

    def test_zero_frame_rejected(self):
        with pytest.raises(ZeroInFrame):
            identity(3).dephase()


class TestEntrywiseConjugate:
    def test_identity_conjugator(self, rng):
        m = random_symplectic(3, seed=3)
        assert m.entrywise_conjugate(ONE).approx_eq(m, 0.0)

    def test_preserves_hadamard_and_symplectic(self):
        h = math.sqrt(3) * fourier(3)
        x = Quaternion(0.5, 0.5, 0.5, 0.5)
        assert h.entrywise_conjugate(x).is_hadamard(1e-12)
        w = random_symplectic(3, seed=9)
        assert w.entrywise_conjugate(x).is_symplectic(1e-9)

    def test_can_make_single_entry_complex(self):
        w = random_symplectic(3, seed=5)
        x = aligning_conjugator(w.entry(1, 1))
        cw = w.entrywise_conjugate(x)
        e = cw.entry(1, 1)
        assert abs(e.y) < 1e-12 and abs(e.z) < 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitConjugator):
            identity(2).entrywise_conjugate(Quaternion(1, 1, 0, 0))


class TestFourier:
    def test_n2(self):
        expect = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        assert np.max(np.abs(fourier(2).data[..., 0] - expect)) < 1e-15
        assert fourier(2).max_imag() < 1e-15

    def test_n3_entry(self):
        # entry (2,3): omega^2 / sqrt(3)
        omega2 = complex(-0.5, -math.sqrt(3) / 2)
        got = fourier(3).to_complex()[1, 2] * math.sqrt(3)
        assert abs(got - omega2) < 1e-12

    def test_n5_symplectic(self):
        assert fourier(5).is_symplectic(1e-12)


class TestRandomSymplectic:
    def test_symplectic_and_deterministic(self):
        w1 = random_symplectic(3, seed=4)
        w2 = random_symplectic(3, seed=4)
        assert w1.is_symplectic(1e-10)
        assert np.array_equal(w1.data, w2.data)
        assert not np.array_equal(w1.data, random_symplectic(3, seed=5).data)

    def test_rows_and_columns_unit_norm(self):
        w = random_symplectic(5, seed=1)
        sq = qnormsq(w.data)
        assert np.max(np.abs(sq.sum(axis=0) - 1)) < 1e-10
        assert np.max(np.abs(sq.sum(axis=1) - 1)) < 1e-10

    def test_image_is_bistochastic(self):
        w = random_symplectic(4, seed=2)
        sq = qnormsq(w.data)
        assert np.max(np.abs(sq.sum(axis=0) - 1)) < 1e-10
        assert np.max(np.abs(sq.sum(axis=1) - 1)) < 1e-10
        assert sq.min() > -1e-12


class TestLemmaColumnForm:
    def test_dephased_hadamard_columns(self):
        # dephased 4x4 Hadamard column (1, a, x, y): with h = x + (1+a)/2,
        # h is orthogonal to 1+a and 2|h| = |1-a|
        from qstoch.hadamard import (Generic4Params, Special4Params, generic4,
                                     special4)
        mats = [
            special4(Special4Params(Quaternion(0.6, 0.8, 0, 0),
                                    Quaternion(-0.28, 0, 0.96, 0))),
            generic4(Generic4Params(
                Quaternion(0.3, 0.4, math.sqrt(1 - 0.25), 0).normalized(),
                Quaternion(0, 0.6, 0.8, 0))),
        ]
        for m in mats:
            for col in range(1, 4):
                a = m.entry(1, col)
                if (a - ONE).norm() < 1e-9:
                    continue
                x = m.entry(2, col)
                one_plus_a = ONE + a
                h = x + one_plus_a * 0.5
                dot = sum(h.as_array() * one_plus_a.as_array())
                assert abs(dot) < 1e-9
                assert 2 * h.norm() == pytest.approx((ONE - a).norm(), abs=1e-9)


class TestTextFormats:
    def test_qmat_round_trip_bit_exact(self, rng):
        m = random_symplectic(3, seed=12)
        kind, back = read_matrix_text(write_qmat(m))
        assert kind == "qmat"
        assert np.array_equal(back.data, m.data)

    def test_rmat_round_trip(self, rng):
        mat = rng.standard_normal((3, 5))
        kind, back = read_matrix_text(write_rmat(mat))
        assert kind == "rmat"
        assert np.array_equal(back, mat)

    def test_rmat_reads_as_real_qmatrix(self):
        m = read_qmatrix_text("rmat 2 2\n1 0\n0 1\n")
        assert m.approx_eq(identity(2), 0.0)

    def test_rejects_unknown_header(self):
        with pytest.raises(ValueError):
            read_matrix_text("xmat 2 2\n1 0 0 1\n")

    @pytest.mark.parametrize("text", [
        "qmat 1 2\n(1,0,0,0) (nan,0,0,0)\n",
        "qmat 1 1\n(0,0,inf,0)\n",
        "rmat 2 2\n1 0\n0 nan\n",
        "rmat 1 1\n-inf\n",
    ])
    def test_rejects_non_finite_entries(self, text):
        with pytest.raises(ValueError):
            read_matrix_text(text)


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_qmatrix_rejects(self, value):
        arr = np.zeros((2, 2, 4))
        arr[1, 0, 2] = value
        with pytest.raises(NonFinite):
            QMatrix(arr)


class TestMonomialTransform:
    def test_matrix_shape_left_right(self):
        phases = (QI, QJ, QK)
        perm = (1, 2, 0)
        left = MonomialTransform(perm, phases, "left")
        right = MonomialTransform(perm, phases, "right")
        # left: P @ diag(phases); right: diag(phases) @ P
        p = permutation_matrix(perm)
        assert left.matrix().approx_eq(p @ diag(list(phases)), 0.0)
        assert right.matrix().approx_eq(diag(list(phases)) @ p, 0.0)

    def test_rejects_non_unit_phase(self):
        with pytest.raises(NonUnitConjugator):
            MonomialTransform((0,), (Quaternion(2, 0, 0, 0),), "left")
