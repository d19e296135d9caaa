"""The three workloads: seeded inputs, jobs, and the checks on their outputs.

A workload builds a pool of input cycles from the seed during set-up; the
timed loop runs whole cycles in order and wraps around the pool, so every
job key that repeats must give an identical summary (the determinism
check).  ``Job.run`` is the only code inside the timed region; checks run
after timing, against expected verdicts recorded when the input was made
and against the independent computations in ``reference``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
from qstoch import cli, differential, hadamard, mub, stochastic
from qstoch.qmatrix import (QMatrix, fourier, haar_orthogonal, haar_unitary,
                            identity, random_symplectic, write_qmat,
                            write_rmat)
from qstoch.quaternion import Quaternion

import reference

R32 = math.sqrt(3.0) / 2.0
DISTANCE_J3 = math.sqrt(2.0) / 3.0

# tolerances of the paper's claims, as the acceptance suite states them
VERDICT_TOL = 1e-9          # sign sums, residuals, unbiasedness
MAXIMAL_VIOLATION = 1e-3    # a maximal set keeps the descent this far away
EXTENSION_VIOLATION = 1e-8  # below this the descent exhibits an extension
DISTANCE_TOL = 1e-6
MINIMA_TOL = 1e-12          # program minima against the reference minima
ORTHOGONAL_TOL = 1e-8


@dataclass
class Job:
    key: str                      # equal keys mean equal inputs
    kind: str
    run: Callable[[dict], object]  # run(ctx) -> raw output; the timed part
    # check(raw) -> (summary, error or None, counter increments)
    check: Callable[[object], tuple]


class InProcess:
    """A workload whose jobs call qstoch inside the benchmark process."""

    in_process = True

    def cycle(self, c: int) -> list[Job]:
        return self.pool[c % len(self.pool)]

    def peak_rss_mb(self, records) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _sub_seed(rng) -> int:
    return int(rng.integers(1 << 31))


# ---------------------------------------------------------------------------
# h3_maximality
# ---------------------------------------------------------------------------

H3_GRID = 8
H3_CONJ_GRID = 16
H3_POOL = 4
H3_ONE_PARAM_PER_CYCLE = 10
# descent restarts per job kind; 0 means the sweep's certificate settles it
H3_RESTARTS = {"one_param": 1, "three_param": 1, "pair": 2, "prefix3": 0}
H3_MAXIMAL = ("one_param", "three_param")


def _cube_root(k: int) -> Quaternion:
    theta = 2.0 * math.pi * k / 3.0
    return Quaternion(-0.5, R32 * math.cos(theta), R32 * math.sin(theta), 0.0)


def _h3_job(key: str, kind: str, build, dseed: int) -> Job:
    restarts = H3_RESTARTS[kind]

    def run(ctx):
        s = build()
        ctx["targets"] = len(s.bases)
        state = SimpleNamespace(checked=0, near_misses=0)
        found = mub.extend_search(s, H3_GRID, H3_CONJ_GRID, state=state)
        descent = (mub.direct_maximality_search(s, restarts, dseed)
                   if restarts else None)
        return s, state, found, descent

    def check(raw):
        s, state, found, descent = raw
        counts = {"mub.extend.candidates": state.checked,
                  "mub.extend.near_misses": state.near_misses}
        bases = [b.data for b in s.bases]
        viol = descent[0] if descent else None
        if kind in H3_MAXIMAL:
            err = None
            if found is not None:
                err = "sweep found an extension of a maximal set"
            elif not viol >= MAXIMAL_VIOLATION:
                err = f"descent violation {viol:.3e} below {MAXIMAL_VIOLATION}"
            return f"maximal viol={viol!r}", err, counts
        if found is None:
            return "none", "sweep missed the extension", counts
        err = None
        dev = max(reference.unbiased_deviation(found.data, b) for b in bases)
        defect = reference.unitary_defect(found.data)
        if dev > VERDICT_TOL or defect > VERDICT_TOL:
            err = f"extension off by {dev:.2e} (symplectic defect {defect:.2e})"
        elif descent:
            wdev = max(reference.unbiased_deviation(descent[1].data, b)
                       for b in bases)
            if viol > EXTENSION_VIOLATION or wdev > EXTENSION_VIOLATION:
                err = f"descent stopped at {viol:.2e}, witness off by {wdev:.2e}"
        digest = hashlib.sha256(found.data.tobytes()).hexdigest()[:16]
        return f"extension {digest} viol={viol!r}", err, counts

    return Job(key, kind, run, check)


class H3Maximality(InProcess):
    """Maximality jobs in H^3: extension sweep, then the descent search."""

    name = "h3_maximality"

    def setup(self, seed: int, workdir: Path) -> None:
        # stratified circle angles: one seeded offset, evenly spread, so
        # that seeds differ in inputs but not in how hard the mix is
        rng = _rng(seed, 1)
        k = H3_POOL * H3_ONE_PARAM_PER_CYCLE
        angles = 2.0 * math.pi * (rng.permutation(k) + rng.uniform()) / k
        self.pool = [self._cycle(seed, p, angles[p::H3_POOL])
                     for p in range(H3_POOL)]
        # warm-up: first-call costs of numpy, einsum planning and the sweep
        s = mub.one_param_h3(R32, 0.0)
        mub.extend_search(s, H3_GRID, H3_CONJ_GRID)
        mub.direct_maximality_search(s, 1, seed)

    def _cycle(self, seed: int, p: int, angles) -> list[Job]:
        rng = _rng(seed, 1, p)
        jobs = []
        for i, th in enumerate(angles):
            jobs.append(_h3_job(
                f"p{p}.one_param.{i}", "one_param",
                lambda th=float(th): mub.one_param_h3(R32 * math.cos(th),
                                                      R32 * math.sin(th)),
                _sub_seed(rng)))
        # distinct cube roots: every descent restart on this set runs to the
        # 2000-iteration cap, the descent's measured tail; the seed varies
        # the restart, not the set, so the cap's cost is the same each run
        jobs.append(_h3_job(
            f"p{p}.three_param", "three_param",
            lambda: mub.three_param_h3(*(_cube_root(k) for k in range(3))),
            _sub_seed(rng)))
        jobs.append(_h3_job(
            f"p{p}.pair", "pair",
            lambda: mub.MubSet(3, (identity(3), fourier(3))), _sub_seed(rng)))
        # the third basis sits on the sweep's angle grid, so the sweep's
        # survivor check meets an exact fourth basis
        th = 2.0 * math.pi * int(rng.integers(H3_GRID)) / H3_GRID

        def prefix3(th=th):
            full = mub.one_param_h3(R32 * math.cos(th), R32 * math.sin(th))
            return mub.MubSet(3, full.bases[:3])

        jobs.append(_h3_job(f"p{p}.prefix3", "prefix3", prefix3, _sub_seed(rng)))
        return jobs


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

ORACLES_POOL = 3
# thirty questions at n = 14 make the median job a plateau of one kind
SIGMA_INPUTS = ((("ortho", 20), ("birkhoff", 20), ("ortho", 18), ("hurwitz", 16))
                + (("ortho", 14), ("birkhoff", 14)) * 15)
DISTANCE_RESTARTS = 10
# a generic Birkhoff input misses sign feasibility on some pair by this much
BIRKHOFF_MARGIN = 1e-6


def _orthostochastic(n: int, rng) -> np.ndarray:
    return stochastic.phi(QMatrix.from_real(haar_orthogonal(n, rng))).mat


def _generic_birkhoff(n: int, rng) -> np.ndarray:
    """Dirichlet mix of n^2 random permutations: a generic interior point,
    outside the orthostochastic set (which has lower dimension) and
    checked to miss sign feasibility by BIRKHOFF_MARGIN."""
    for _ in range(10):
        weights = rng.dirichlet(np.ones(n * n))
        out = np.zeros((n, n))
        for w in weights:
            out[rng.permutation(n), np.arange(n)] += w
        if np.max(reference.sigma_minima(out)) > BIRKHOFF_MARGIN:
            return out
    raise RuntimeError("no generic Birkhoff sample found")


def _check_signs(b: np.ndarray, signs: np.ndarray) -> str | None:
    x = signs * np.sqrt(b)
    dev = float(np.max(np.abs(x.T @ x - np.eye(b.shape[0]))))
    return None if dev <= ORTHOGONAL_TOL else f"sign pattern off by {dev:.2e}"


def _sigma_job(key, b, expected, ref) -> Job:
    bm = stochastic.BistochasticMatrix(b)
    n = b.shape[0]

    def check(minima):
        values = np.array([m for _, _, _, m in minima])
        verdict = bool(np.all(values <= VERDICT_TOL))
        counts = ({"stochastic.sigma.early_exits": 1} if values.max() == 0.0
                  else {"stochastic.sigma.sign_vectors": 1 << (n - 1)})
        err = None
        if verdict != expected:
            err = f"sigma verdict {verdict}, expected {expected}"
        elif values.shape != ref.shape or np.max(np.abs(values - ref)) > MINIMA_TOL:
            err = "pair minima differ from the reference"
        return f"sigma={verdict} {values.tobytes().hex()[:32]}", err, counts

    return Job(key, f"sigma{n}", lambda ctx: stochastic.sigma_pair_minima(bm),
               check)


def _brute_job(key, b, expected) -> Job:
    bm = stochastic.BistochasticMatrix(b)

    def check(pattern):
        found = pattern is not None
        if found != expected:
            return f"pattern={found}", f"pattern found={found}, expected {expected}", {}
        err = _check_signs(b, pattern.signs) if found else None
        return f"pattern={found}", err, {}

    return Job(key, f"bruteforce{b.shape[0]}",
               lambda ctx: stochastic.orthostochastic_bruteforce(bm), check)


def _ortho3_job(key, b, expected) -> Job:
    bm = stochastic.BistochasticMatrix(b)

    def run(ctx):
        return (stochastic.ortho3_test(bm),
                stochastic.orthostochastic_bruteforce(bm))

    def check(raw):
        eq, pattern = raw
        err = None
        if eq != expected or (pattern is not None) != expected:
            err = (f"ortho3 says {eq}, brute force says {pattern is not None}, "
                   f"expected {expected}")
        elif pattern is not None:
            err = _check_signs(b, pattern.signs)
        return f"ortho3={eq}", err, {}

    return Job(key, "ortho3", run, check)


def _poly4_job(key, b, expected) -> Job:
    bm = stochastic.BistochasticMatrix(b)

    def check(residuals):
        verdict = max(abs(r) for r in residuals) <= VERDICT_TOL
        err = None if verdict == expected else f"poly4 verdict {verdict}"
        return f"poly4={verdict} {residuals!r}", err, {}

    return Job(key, "poly4", lambda ctx: stochastic.sigma_poly_4(bm), check)


def _classify_job(key, map_kind, point, expected) -> Job:
    def check(res):
        err = None if res.verdict == expected else \
            f"classified {res.verdict}, expected {expected}"
        return res.report_line(), err, {}

    return Job(key, f"classify_{map_kind}{point.rows}",
               lambda ctx: differential.classify_point(map_kind, point), check)


def _distance_job(key, dseed) -> Job:
    def check(res):
        err = None
        if abs(res.distance - DISTANCE_J3) > DISTANCE_TOL:
            err = f"distance {res.distance!r}, expected sqrt(2)/3"
        return f"distance={res.distance!r} it={res.iterations}", err, {}

    return Job(key, "distance_j3",
               lambda ctx: stochastic.distance_j3_report(DISTANCE_RESTARTS, dseed),
               check)


def _classify_points(rng):
    """(map, point, expected verdict): generic points of each group are
    regular; shuffled block sums split, so they are singular or critical."""
    out = []
    for n in (2, 3, 4):
        out.append(("r", QMatrix.from_real(haar_orthogonal(n, rng)), "regular"))
        out.append(("c", QMatrix.from_complex(haar_unitary(n, rng)), "regular"))
        out.append(("h", random_symplectic(n, _sub_seed(rng)), "regular"))
    for sizes in ((1, 2), (2, 2)):
        for map_kind, verdict in (("r", "singular"), ("c", "critical"),
                                  ("h", "critical")):
            x = differential.shuffled_block_sum(rng, sizes)
            out.append((map_kind, QMatrix.from_real(x), verdict))
    return out


class Oracles(InProcess):
    """Membership and classification questions at the stated mix."""

    name = "oracles"

    def setup(self, seed: int, workdir: Path) -> None:
        self.pool = [self._cycle(seed, p) for p in range(ORACLES_POOL)]
        # warm-up: the pattern tables of the brute force and first calls
        for n in (3, 4, 5):
            stochastic.orthostochastic_bruteforce(stochastic.van_der_waerden(n))
        stochastic.distance_j3_report(1, seed)
        stochastic.sigma_pair_minima(stochastic.van_der_waerden(8))
        differential.classify_point("h", random_symplectic(3, seed))

    def _cycle(self, seed: int, p: int) -> list[Job]:
        rng = _rng(seed, 2, p)
        jobs = []
        for i, (kind, n) in enumerate(SIGMA_INPUTS):
            if kind == "ortho":
                b, expected = _orthostochastic(n, rng), True
            elif kind == "birkhoff":
                b, expected = _generic_birkhoff(n, rng), False
            else:
                b = stochastic.hurwitz_radon_matrix(_sub_seed(rng)).mat
                expected = True
            ref = reference.sigma_minima(b)
            if expected and ref.max() > VERDICT_TOL:
                raise RuntimeError(f"{kind} input is not sign feasible")
            jobs.append(_sigma_job(f"p{p}.sigma.{kind}{n}.{i}", b, expected, ref))
        b4 = {True: _orthostochastic(4, rng), False: _generic_birkhoff(4, rng)}
        for n in (4, 5):
            for expected in (True, False):
                b = b4[expected] if n == 4 else (
                    _orthostochastic(n, rng) if expected
                    else _generic_birkhoff(n, rng))
                jobs.append(_brute_job(f"p{p}.brute{n}.{expected}", b, expected))
        for expected, b in b4.items():
            jobs.append(_poly4_job(f"p{p}.poly4.{expected}", b, expected))
        for i in range(3):
            jobs.append(_ortho3_job(f"p{p}.ortho3.t{i}", _orthostochastic(3, rng), True))
            jobs.append(_ortho3_job(f"p{p}.ortho3.f{i}", _generic_birkhoff(3, rng), False))
        for i, (map_kind, point, verdict) in enumerate(_classify_points(rng)):
            jobs.append(_classify_job(f"p{p}.classify.{i}", map_kind, point, verdict))
        jobs.append(_distance_job(f"p{p}.distance", _sub_seed(rng)))
        return jobs


# ---------------------------------------------------------------------------
# cli_verbs
# ---------------------------------------------------------------------------

SPAWN_TIMEOUT_S = 120.0


def _floats(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split()])


def _read_rmat(text: str) -> np.ndarray:
    head, _, body = text.partition("\n")
    kind, rows, cols = head.split()
    if kind != "rmat":
        raise ValueError(f"expected rmat, got {kind!r}")
    return _floats(body).reshape(int(rows), int(cols))


def _read_qmat(text: str) -> np.ndarray:
    head, _, body = text.partition("\n")
    kind, rows, cols = head.split()
    if kind != "qmat":
        raise ValueError(f"expected qmat, got {kind!r}")
    vals = _floats(body.replace("(", " ").replace(")", " ").replace(",", " "))
    return vals.reshape(int(rows), int(cols), 4)


def _sylvester(k: int) -> np.ndarray:
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


def _expect_line(line: str):
    def check(out: str):
        return None if out == line + "\n" else f"stdout {out[:80]!r}"
    return check


def _expect_prefix(prefix: str):
    def check(out: str):
        return None if out.startswith(prefix) else f"stdout {out[:80]!r}"
    return check


@dataclass
class Verb:
    name: str
    args: list[str]
    exit_code: int
    check: Callable[[str], str | None]  # check(stdout) -> error or None


def spawn(argv, env, cwd, stderr_path: Path):
    """Run a child to completion; returns (wall_s, exit code, stdout, maxrss_kb).

    The child is reaped with wait4 so its own peak RSS is read; a timer
    kills it after SPAWN_TIMEOUT_S.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=cwd)
        killer = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, usage.ru_maxrss


class CliVerbs:
    """Fresh ``python -m qstoch.cli`` processes over a fixed verb mix."""

    name = "cli_verbs"
    in_process = False

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        src = str(Path(cli.__file__).resolve().parents[1])
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        workdir.mkdir(parents=True, exist_ok=True)
        rng = _rng(seed, 3)
        files: dict[str, str] = {}
        b3 = _orthostochastic(3, rng)
        b4 = _orthostochastic(4, rng)
        r16 = stochastic.hurwitz_radon_matrix(_sub_seed(rng)).mat
        w4 = random_symplectic(4, _sub_seed(rng))
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        mubset = mub.one_param_h3(R32 * math.cos(th), R32 * math.sin(th))
        al, be = rng.uniform(0.0, 2.0 * math.pi, 2)
        h4 = hadamard.special4(hadamard.Special4Params(
            Quaternion(math.cos(al), math.sin(al), 0.0, 0.0),
            Quaternion(math.cos(be), 0.0, math.sin(be), 0.0)))
        # 64 x 64 quaternion Hadamard: real Sylvester H_16 (x) a special4 member
        h64 = QMatrix((_sylvester(4)[:, None, :, None, None]
                       * h4.data[None, :, None, :, :]).reshape(64, 64, 4))
        w128 = random_symplectic(128, _sub_seed(rng))
        for name, ok in (("H4", h4.is_hadamard(VERDICT_TOL)),
                         ("H64", h64.is_hadamard(VERDICT_TOL)),
                         ("H64 reference",
                          reference.unitary_defect(h64.data / 8.0) <= VERDICT_TOL),
                         ("W128", reference.unitary_defect(w128.data) <= VERDICT_TOL),
                         ("W4", reference.unitary_defect(w4.data) <= VERDICT_TOL)):
            if not ok:
                raise RuntimeError(f"generated input {name} fails its check")
        files["B3.rmat"] = write_rmat(b3)
        files["B4.rmat"] = write_rmat(b4)
        files["R16.rmat"] = write_rmat(r16)
        files["W4.qmat"] = write_qmat(w4)
        files["M.mub"] = mub.write_mubset(mubset)
        files["H64.qmat"] = write_qmat(h64)
        files["W128.qmat"] = write_qmat(w128)
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="ascii")
        f = {name: str(workdir / name) for name in files}
        dseed = _sub_seed(rng)
        phi128 = np.sum(w128.data * w128.data, axis=-1)

        def poly4(out):
            vals = _floats(out.removeprefix("residuals "))
            return None if vals.size == 12 and np.max(np.abs(vals)) <= VERDICT_TOL \
                else f"residuals {out[:80]!r}"

        def distance(out):
            value = float(out.split("\n", 1)[0].removeprefix("distance="))
            return None if abs(value - DISTANCE_J3) <= DISTANCE_TOL \
                else f"distance {value!r}"

        def dephased64(out):
            m = _read_qmat(out)
            frame = np.concatenate([m[0], m[:, 0]])
            if np.max(np.abs(frame[:, 1:])) > VERDICT_TOL or frame[:, 0].min() < 0:
                return "first row or column not real and nonnegative"
            if reference.unitary_defect(m / 8.0) > VERDICT_TOL:
                return "dephased matrix is not Hadamard"
            return None

        def phi_128(out):
            dev = float(np.max(np.abs(_read_rmat(out) - phi128)))
            return None if dev <= 1e-15 else f"phi off by {dev:.2e}"

        self.verbs = [
            Verb("ortho3", ["ortho3", f["B3.rmat"]], 0,
                 _expect_prefix("orthostochastic=true ")),
            Verb("sigma_poly", ["sigma", "--poly", f["B4.rmat"]], 0, poly4),
            Verb("sigma16", ["sigma", f["R16.rmat"]], 0,
                 _expect_line("sigma=true pairs=240")),
            Verb("rank_h4", ["rank", "--map", "h", "--file", f["W4.qmat"]], 0,
                 _expect_line("map=h n=4 rank=9 dim_domain=36 dim_codomain=9 "
                              "verdict=regular")),
            Verb("mub_check", ["mub", "check", f["M.mub"]], 0,
                 _expect_prefix("mub=true size=4 ")),
            Verb("distance_j3", ["distance-j3", "--restarts", "20", "--seed",
                                 str(dseed)], 0, distance),
            Verb("hadamard64", ["verify-hadamard", f["H64.qmat"]], 0,
                 _expect_line("hadamard=true")),
            Verb("dephase64", ["dephase", f["H64.qmat"]], 0, dephased64),
            Verb("symplectic128", ["verify-symplectic", f["W128.qmat"]], 0,
                 _expect_line("symplectic=true")),
            Verb("phi128", ["phi", f["W128.qmat"]], 0, phi_128),
        ]
        self.jobs = [self._job(v, False) for v in self.verbs]
        self.in_process_jobs = [self._job(v, True) for v in self.verbs]

    def cycle(self, c: int) -> list[Job]:
        return self.jobs

    def peak_rss_mb(self, records) -> float:
        return max(raw[2] for _, _, raw in records if isinstance(raw, tuple)) / 1024.0

    def _job(self, verb: Verb, in_process: bool) -> Job:
        argv = [sys.executable, "-m", "qstoch.cli", *verb.args]
        stderr_path = self.workdir / "stderr.txt"

        if in_process:
            def run(ctx):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(verb.args))
                return code, buf.getvalue(), 0
        else:
            def run(ctx):
                _, code, out, rss = spawn(argv, self.env, self.workdir,
                                          stderr_path)
                return code, out.decode("ascii", "replace"), rss

        def check(raw):
            code, out, _ = raw
            err = None
            if code != verb.exit_code:
                err = f"exit {code}, expected {verb.exit_code}"
            else:
                try:
                    err = verb.check(out)
                except ValueError as exc:
                    err = f"unreadable stdout: {exc}"
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            return f"exit={code} stdout={digest}", err, {}

        return Job(verb.name, verb.name, run, check)


WORKLOADS = {w.name: w for w in (H3Maximality, Oracles, CliVerbs)}
