"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

The last tests run every workload for one cycle, traced and untraced, so
the file takes about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_code_under_test()

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _main(*argv: str) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if code == 0 else None


# ---------------------------------------------------------------------------
# BENCHMARK.json against the code
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_metric_names_and_units_follow_the_grammar():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def _toy_module():
    mod = SimpleNamespace()

    def inner(x):
        return sum(range(x))

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    def gen(n):
        yield from range(n)

    mod.inner, mod.outer, mod.gen = inner, outer, gen
    return mod


def test_self_time_is_duration_minus_children():
    mod = _toy_module()
    originals = (mod.inner, mod.outer, mod.gen)
    t = Tracer()
    t.wrap(mod, "inner", "toy.inner")
    t.wrap(mod, "outer", "toy.outer", record=True)
    t.wrap_generator(mod, "gen", "toy.gen")
    with t.job("j1", "toy") as span:
        mod.outer(20000)
        assert list(mod.gen(3)) == [0, 1, 2]
    t.restore()
    assert (mod.inner, mod.outer, mod.gen) == originals
    assert t.calls("toy.inner") == 2 and t.calls("toy.gen") == 4
    assert math.isclose(t.self_s("toy.outer"),
                        t.total_s("toy.outer") - t.total_s("toy.inner"),
                        rel_tol=1e-9, abs_tol=1e-12)
    job, outer = t.spans[0], t.spans[1]
    assert job["name"] == "job.toy" and job["parent"] is None
    assert outer["parent"] == 0 and outer["job"] == "j1"
    layer = t.layer_self_s()
    assert math.isclose(sum(layer.values()), span.wall, rel_tol=1e-9)


def test_install_wraps_and_restore_removes_every_binding():
    from qstoch import cli, differential, hadamard, mub, qmatrix, stochastic
    mods = (cli, differential, hadamard, mub, qmatrix, stochastic,
            qmatrix.QMatrix)
    before = {(id(m), k): v for m in mods for k, v in vars(m).items()}
    t = Tracer()
    layers.install(t)
    wrapped = [(m, k) for m in mods for k, v in vars(m).items()
               if hasattr(v, "__wrapped__")]
    t.restore()
    assert len(wrapped) > 40
    after = {(id(m), k): v for m in mods for k, v in vars(m).items()}
    assert after == before


# ---------------------------------------------------------------------------
# statistics and references
# ---------------------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(30, 0, -1))) == (20, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_import_self_ms_sums_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |        350 | scipy.optimize",
        "import time:        10 |         10 |   numpy.core",
        "import time:        20 |         30 | numpy",
        "import time:         5 |        385 | qstoch",
    ])
    assert run.import_self_ms(text) == pytest.approx(
        {"scipy": 0.35, "numpy": 0.03, "qstoch": 0.005})


@pytest.mark.parametrize("n", [3, 5, 8])
def test_reference_sigma_minima_match_the_program(n):
    from qstoch import stochastic
    import numpy as np
    rng = np.random.default_rng(n)
    b = workloads._generic_birkhoff(n, rng)
    program = [m for _, _, _, m in stochastic.sigma_pair_minima(
        stochastic.BistochasticMatrix(b))]
    assert np.max(np.abs(reference.sigma_minima(b) - program)) <= 1e-12


def test_reference_adjoint_product_matches_qmat_mul():
    import numpy as np
    from qstoch.qmatrix import qmat_adjoint, qmat_mul, qnormsq, random_symplectic
    a = random_symplectic(5, 1).data
    b = random_symplectic(5, 2).data
    want = qnormsq(qmat_mul(qmat_adjoint(a), b))
    assert np.max(np.abs(reference.adjoint_product_normsq(a, b) - want)) < 1e-12
    assert reference.unitary_defect(a) < 1e-12
    assert reference.unitary_defect(2 * a) > 1.0


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------


def test_refuses_to_run_without_the_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "oracles",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    code, result = _main("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", "0")
    assert code == 0 and result["correct"], result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(run.END_TO_END)
    for name, m in result["metrics"].items():
        assert m["unit"] == run.END_TO_END[name]
        assert math.isfinite(m["value"]) and m["value"] > 0, name


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    code, result = _main("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", "1")
    assert code == 0 and result["correct"], result
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == list(layers.PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["trace.overhead_frac"] > -0.5
    # the separation the workloads were chosen for
    share = {layer: metrics[f"{layer}.self_frac"] for layer in layers.LAYERS}
    assert math.isclose(sum(share.values()), 1.0, rel_tol=1e-6)
    if workload == "h3_maximality":
        assert share["mub"] + share["hadamard"] + share["qmatrix"] > 0.5
        assert share["stochastic"] == share["differential"] == 0.0
    elif workload == "oracles":
        assert share["stochastic"] + share["differential"] > 0.5
        assert share["mub"] == share["hadamard"] == 0.0
    else:
        assert metrics["cli.import.p50_frac"] > 0.5
