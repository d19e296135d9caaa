"""The qstoch names the benchmark in bench/ reads still exist.

bench/layers.py wraps qstoch functions by name and bench/workloads.py calls
them, so removing one of them breaks the benchmark while every other unit
test passes.  These checks take milliseconds and run no workload.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from oracles import birkhoff_sample
from qstoch import cli, differential, hadamard, mub, qmatrix, stochastic

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = {m.__name__.rsplit(".", 1)[1]: m
           for m in (cli, differential, hadamard, mub, qmatrix, stochastic)}


@pytest.fixture
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def test_layers_install_and_restore(bench_path):
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    before = {name: vars(m).copy() for name, m in MODULES.items()}
    try:
        layers.install(tracer)
    finally:
        tracer.restore()
    assert {name: vars(m) for name, m in MODULES.items()} == before
    importlib.import_module("workloads")


def test_workloads_attributes_exist():
    """Every qstoch_module.name that workloads.py spells out resolves."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    missing = sorted(
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
        and not hasattr(MODULES[node.value.id], node.attr))
    assert missing == []


@pytest.mark.parametrize("n", [3, 8, 14])
def test_sigma_rows_unpack_as_the_bench_reads_them(n):
    """workloads.py and test_bench.py unpack each sigma_pair_minima row into
    four names and collect the minima; the rows are built from one array."""
    result = stochastic.sigma_pair_minima(birkhoff_sample(n, np.random.default_rng(n)))
    assert [m for _, _, _, m in result] == result.minima.tolist()
    assert len(result) == n * (n - 1)
