"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output).  Run order follows the criterion numbering.
"""

import itertools
import math
import time

import numpy as np

from oracles import (birkhoff_sample, qexpm, system_dets_arr,
                     tangent_generators, zero_diagonal_orthogonal)
from qstoch import differential, hadamard, mub, stochastic
from qstoch.qmatrix import (QMatrix, fourier, haar_orthogonal, haar_unitary,
                            qmat_adjoint, qmat_mul, qnormsq,
                            random_symplectic)
from qstoch.quaternion import I as QI
from qstoch.quaternion import Quaternion

R32 = math.sqrt(3) / 2


def _report(number: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.2f}s){suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_01_distance_j3():
    start = time.time()
    res = stochastic.distance_j3_report(restarts=100, seed=1)
    dist, minimizer = res.distance, res.minimizer
    elapsed = time.time() - start
    target = np.array([[1, 4, 4], [4, 1, 4], [4, 4, 1]]) / 9.0
    perm_gap = min(
        np.max(np.abs(minimizer.mat[np.ix_(pr, pc)] - target))
        for pr in itertools.permutations(range(3))
        for pc in itertools.permutations(range(3)))
    ok = (abs(dist - math.sqrt(2) / 3) < 1e-6 and perm_gap < 1e-5
          and elapsed < 10.0)
    _report(1, "distance J3 to orthostochastic surface", ok, elapsed,
            f"distance={dist:.10f} perm_gap={perm_gap:.2e}")


def test_02_rank9_witness():
    start = time.time()
    b = Quaternion(1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0)
    witness = hadamard.special4(hadamard.Special4Params(QI, b)) / 2
    jac = differential.jacobian("h", witness)
    rank, _, gap = differential.rank_report(jac, tol=1e-10)
    elapsed = time.time() - start
    ok = rank == 9 and gap > 1e3 and elapsed < 1.0
    _report(2, "rank-9 witness in the 4x4 special family", ok, elapsed,
            f"rank={rank} gap_ratio={gap:.2e}")


def test_03_oracle_equivalence_n3():
    start = time.time()
    rng = np.random.default_rng(101)
    disagreements = 0
    for _ in range(5000):
        b = stochastic.phi(QMatrix.from_real(haar_orthogonal(3, rng)))
        eq = stochastic.ortho3_test(b)
        brute = stochastic.orthostochastic_bruteforce(b) is not None
        disagreements += eq != brute
    for _ in range(5000):
        b = birkhoff_sample(3, rng)
        eq = stochastic.ortho3_test(b)
        brute = stochastic.orthostochastic_bruteforce(b) is not None
        disagreements += eq != brute
    elapsed = time.time() - start
    ok = disagreements == 0 and elapsed < 60.0
    _report(3, "ortho3 equation vs brute-force oracle on 10^4 samples", ok,
            elapsed, f"disagreements={disagreements}")


def test_04_hadamard_family_grids():
    start = time.time()
    failures = 0
    angles20 = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    for al in angles20:
        for be in angles20:
            m = hadamard.special4(hadamard.Special4Params(
                Quaternion(math.cos(al), math.sin(al), 0, 0),
                Quaternion(math.cos(be), 0, math.sin(be), 0)))
            failures += not m.is_hadamard(1e-9)
    angles12 = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    half12 = np.linspace(0.05, np.pi - 0.05, 12)
    count = 0
    for chi in half12:
        for eta in angles12:
            a = Quaternion(math.cos(chi), math.sin(chi) * math.cos(eta),
                           math.sin(chi) * math.sin(eta), 0)
            if math.hypot(1 + a.w, a.x, a.y, a.z) <= 1e-9:
                continue
            for xi in angles12:
                x = Quaternion(0, math.cos(xi), math.sin(xi), 0)
                m = hadamard.generic4(hadamard.Generic4Params(a, x))
                failures += not m.is_hadamard(1e-9)
                count += 1
    elapsed = time.time() - start
    ok = failures == 0 and count == 12 ** 3 and elapsed < 30.0
    _report(4, "special 20x20 and generic 12^3 grids are Hadamard", ok,
            elapsed, f"failures={failures} generic_points={count}")


def test_05_determinant_identities():
    start = time.time()
    rng = np.random.default_rng(55)
    n = 10_000
    a = rng.standard_normal((n, 4))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    theta = rng.uniform(0, 2 * np.pi, n)
    zeta = np.zeros((n, 4))
    zeta[:, 0] = -0.5
    zeta[:, 1] = R32 * np.cos(theta)
    zeta[:, 2] = R32 * np.sin(theta)
    dets = system_dets_arr(*hadamard.mub3_system_arr(a, zeta))
    pv = hadamard.p_arr(a, zeta[:, 1], zeta[:, 2])
    alpha0, alpha1, alpha2 = hadamard.alphas_arr(a)
    s, t = zeta[:, 1], zeta[:, 2]
    phiv = 4 * alpha0 * s * s + 8 * alpha1 * s * t + alpha2
    err1 = float(np.max(np.abs(dets[:, 4] - 3 * pv ** 2)))
    err2 = float(np.max(np.abs(
        8 * (np.sum(dets[:, :4] ** 2, axis=1) - dets[:, 4] ** 2)
        - 9 * dets[:, 4] * phiv)))
    elapsed = time.time() - start
    ok = err1 <= 1e-9 and err2 <= 1e-8 and elapsed < 10.0
    _report(5, "determinant identities on 10^4 samples", ok, elapsed,
            f"err_d5={err1:.2e} err_sum={err2:.2e}")


def test_06_six_families():
    start = time.time()
    rng = np.random.default_rng(66)
    f3d = fourier(3).data

    def valid(m):
        gram = qmat_mul(qmat_adjoint(f3d), m.data / math.sqrt(3))
        unb = float(np.max(np.abs(qnormsq(gram) - 1 / 3)))
        return m.is_hadamard(1e-9) and unb <= 1e-9

    produced = 0
    bad = 0
    while produced < 50:
        v = rng.standard_normal(4)
        a = Quaternion(*(v / np.linalg.norm(v)))
        try:
            m = hadamard.generic3(a, "+" if produced % 2 else "-")
        except hadamard.DegenerateP:
            continue
        if m is None:
            continue
        produced += 1
        bad += not valid(m)
    for family, variants in (("s1", 1), ("s2", 2), ("s3", 2), ("s4", 8),
                             ("s5", 16)):
        done = 0
        while done < 20:
            if family == "s4":
                params = (rng.uniform(0, 2 * np.pi),)
            elif family == "s5":
                params = (rng.uniform(-0.45, 0.95), rng.uniform(0, 2 * np.pi))
            else:
                params = (rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
            try:
                m = hadamard.special3(family, params, int(rng.integers(variants)))
            except hadamard.NoRealSolution:
                continue
            done += 1
            bad += not valid(m)
    elapsed = time.time() - start
    ok = bad == 0
    _report(6, "all six third-basis families verify", ok, elapsed,
            f"invalid={bad}")


def test_07_complete_h2_mub():
    start = time.time()
    s = mub.complete_mub_h2()
    worst_pair = max(
        mub.cross_gram_deviation(s.bases[i].data, s.bases[j].data)
        for i in range(5) for j in range(i + 1, 5))
    frame = mub.operator_frame_orthogonality(s)
    elapsed = time.time() - start
    ok = len(s.bases) == 5 and worst_pair <= 1e-12 and frame <= 1e-12
    _report(7, "complete five-basis set in H^2", ok, elapsed,
            f"worst_pair={worst_pair:.2e} frame={frame:.2e}")


def test_08_h3_families_validate():
    start = time.time()
    worst = 0.0
    for k in range(16):
        theta = 2 * np.pi * k / 16
        s = mub.one_param_h3(R32 * math.cos(theta), R32 * math.sin(theta))
        for i in range(4):
            worst = max(worst, s.bases[i].unitary_defect())
            for j in range(i + 1, 4):
                worst = max(worst, mub.cross_gram_deviation(
                    s.bases[i].data, s.bases[j].data))
    roots = [Quaternion(-0.5, R32 * math.cos(th), R32 * math.sin(th), 0)
             for th in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
    for a in roots:
        for b in roots:
            for c in roots:
                s = mub.three_param_h3(a, b, c)
                for i in range(4):
                    worst = max(worst, s.bases[i].unitary_defect())
                    for j in range(i + 1, 4):
                        worst = max(worst, mub.cross_gram_deviation(
                            s.bases[i].data, s.bases[j].data))
    elapsed = time.time() - start
    ok = worst <= 1e-10
    _report(8, "one and three parameter families are 4-MUB", ok, elapsed,
            f"worst_deviation={worst:.2e}")


def test_09_maximality_evidence():
    start = time.time()
    s = mub.one_param_h3(R32, 0.0)
    found = mub.extend_search(s, grid=64, conj_grid=32)
    viol, _ = mub.direct_maximality_search(s, restarts=50, seed=1)
    elapsed = time.time() - start
    ok = found is None and viol >= 1e-3 and elapsed < 600.0
    _report(9, "no 5th basis at grid 64 / conj 32 (evidence only)", ok,
            elapsed, f"found={found is not None} violation={viol:.3e}")


def test_10_sigma16_counterexample_structure():
    start = time.time()
    x = stochastic.hurwitz_radon_matrix(seed=0)
    minima = stochastic.sigma_pair_minima(x)
    sigma_ok = all(m <= 1e-9 for _, _, _, m in minima)
    weights = x.mat[0]
    structure_ok = all(
        x.mat[alpha, beta] == weights[alpha ^ beta]
        for alpha in range(16) for beta in range(16))
    rows = np.abs(x.mat.sum(axis=1) - 1).max()
    cols = np.abs(x.mat.sum(axis=0) - 1).max()
    elapsed = time.time() - start
    ok = (sigma_ok and structure_ok and len(minima) == 240
          and max(rows, cols) <= 1e-9 and elapsed < 60.0)
    _report(10, "order-16 matrix satisfies all 240 sign systems", ok, elapsed,
            f"pairs={len(minima)} sigma_ok={sigma_ok}")


def test_11_critical_point_classifications():
    start = time.time()
    rng = np.random.default_rng(11)
    ok = True
    detail = []
    # (a) Haar O(3) samples are regular; split matrices are singular/critical
    for _ in range(1000):
        res = differential.classify_point("r", QMatrix.from_real(
            haar_orthogonal(3, rng)))
        if res.verdict != "regular":
            ok = False
            detail.append("haar-o3")
            break
    for sizes in ((1, 1), (1, 2), (2, 2), (1, 3)):
        n = sum(sizes)
        x = QMatrix.from_real(differential.shuffled_block_sum(rng, sizes))
        if differential.classify_point("r", x).verdict != "singular":
            ok = False
            detail.append(f"split-r-{sizes}")
        for mk in ("c", "h"):
            if differential.classify_point(mk, x).verdict != "critical":
                ok = False
                detail.append(f"split-{mk}-{sizes}")
    # (b) n = 2: only diagonal/anti-diagonal points are singular
    for _ in range(1000):
        x = haar_orthogonal(2, rng)
        res = differential.classify_point("r", QMatrix.from_real(x))
        is_exceptional = min(abs(x[0, 0]), abs(x[0, 1])) < 1e-9
        if (res.verdict == "singular") != is_exceptional:
            ok = False
            detail.append("haar-o2")
            break
    for d in itertools.product((1.0, -1.0), repeat=2):
        diag_m = np.diag(d)
        anti = np.array([[0.0, d[0]], [d[1], 0.0]])
        for x in (diag_m, anti):
            res = differential.classify_point("r", QMatrix.from_real(x))
            if res.verdict != "singular":
                ok = False
                detail.append("exceptional")
    # (c) zero-diagonal O(4) witnesses: singular with vanishing 3x3 minors
    for _ in range(10):
        x = zero_diagonal_orthogonal(rng)
        res = differential.classify_point("r", QMatrix.from_real(x))
        if res.verdict != "singular":
            ok = False
            detail.append("zero-diag")
        for i in range(4):
            keep = [k for k in range(4) if k != i]
            if abs(np.linalg.det(x[np.ix_(keep, keep)])) > 1e-9:
                ok = False
                detail.append("minor")
    elapsed = time.time() - start
    _report(11, "singular/critical point classifications", ok, elapsed,
            ",".join(detail) if detail else "all cases")


def test_12_jacobian_correctness():
    start = time.time()
    rng = np.random.default_rng(12)
    eps = 1e-6
    worst_rel = 0.0
    for mk in ("r", "c", "h"):
        for n in (2, 3, 4):
            for _ in range(20):
                if mk == "r":
                    p = QMatrix.from_real(haar_orthogonal(n, rng))
                elif mk == "c":
                    p = QMatrix.from_complex(haar_unitary(n, rng))
                else:
                    p = random_symplectic(n, seed=int(rng.integers(1 << 30)))
                gens = tangent_generators(mk, n)
                coeffs = rng.standard_normal(len(gens))
                direction = sum(c * g for c, g in zip(coeffs, gens))
                plus = qmat_mul(qexpm(eps * direction), p.data)
                minus = qmat_mul(qexpm(-eps * direction), p.data)
                fd = differential.b_coordinates(
                    (qnormsq(plus) - qnormsq(minus)) / (2 * eps))
                jv = 2.0 * (differential.jacobian(mk, p) @ coeffs)
                worst_rel = max(worst_rel,
                                np.linalg.norm(fd - jv) / np.linalg.norm(jv))
    ranks_equal = True
    for _ in range(100):
        n = int(np.random.default_rng(int(rng.integers(1 << 30))).integers(2, 5))
        z = QMatrix.from_complex(haar_unitary(n, rng))
        if differential.rank_report(differential.jacobian("c", z))[0] != \
                differential.rank_report(differential.jacobian("h", z))[0]:
            ranks_equal = False
            break
    elapsed = time.time() - start
    ok = worst_rel < 1e-6 and ranks_equal
    _report(12, "finite differences and rank equality", ok, elapsed,
            f"worst_rel={worst_rel:.2e} ranks_equal={ranks_equal}")


def test_13_involution_dichotomy():
    start = time.time()
    rng = np.random.default_rng(13)
    ok = True
    involutions = 0
    longcycles = 0
    for _ in range(200):
        sigma = tuple(int(v) for v in rng.permutation(6))
        tau = tuple(int(v) for v in rng.permutation(6))
        p = float(rng.uniform(0.05, 0.95))
        verdict = stochastic.segment_block_analysis(sigma, tau, p)
        inv_sigma = [0] * 6
        for j, i in enumerate(sigma):
            inv_sigma[i] = j
        rho = tuple(inv_sigma[tau[j]] for j in range(6))
        is_involution = all(rho[rho[j]] == j for j in range(6))
        if is_involution:
            involutions += 1
            if verdict.verdict != "orthostochastic":
                ok = False
                break
            w = verdict.witness
            if np.max(np.abs(w.T @ w - np.eye(6))) > 1e-10:
                ok = False
                break
            if np.max(np.abs(w * w - verdict.matrix.mat)) > 1e-10:
                ok = False
                break
        else:
            longcycles += 1
            if verdict.verdict != "not_qustochastic":
                ok = False
                break
            if stochastic.sigma_pair_minima(verdict.matrix).feasible:
                ok = False
                break
    elapsed = time.time() - start
    ok = ok and involutions > 0 and longcycles > 0
    _report(13, "involution dichotomy over 200 segment draws", ok, elapsed,
            f"involutions={involutions} long={longcycles}")
