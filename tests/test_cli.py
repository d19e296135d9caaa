import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qstoch
from qstoch.cli import main
from qstoch.mub import complete_mub_h2, write_mubset
from qstoch.qmatrix import (fourier, identity, random_symplectic,
                            read_matrix_text, write_qmat, write_rmat)
from qstoch.stochastic import van_der_waerden


@pytest.fixture
def workdir(tmp_path):
    files = {}

    def put(name, text):
        path = tmp_path / name
        path.write_text(text)
        files[name] = str(path)
        return str(path)

    put("f3.qmat", write_qmat(math.sqrt(3) * fourier(3)))
    put("f3_unit.qmat", write_qmat(fourier(3)))
    put("i2.qmat", write_qmat(identity(2)))
    put("i3.qmat", write_qmat(identity(3)))
    put("j3.rmat", write_rmat(van_der_waerden(3).mat))
    put("j4.rmat", write_rmat(van_der_waerden(4).mat))
    put("w3.qmat", write_qmat(random_symplectic(3, seed=6)))
    put("o3.rmat", write_rmat(np.eye(3)))
    return tmp_path, files


class TestVerification:
    def test_verify_hadamard(self, workdir, capsys):
        _, files = workdir
        assert main(["verify-hadamard", files["f3.qmat"]]) == 0
        assert "hadamard=true" in capsys.readouterr().out
        assert main(["verify-hadamard", files["i2.qmat"]]) == 1

    def test_verify_symplectic(self, workdir):
        _, files = workdir
        assert main(["verify-symplectic", files["w3.qmat"]]) == 0
        assert main(["verify-symplectic", files["f3.qmat"]]) == 1

    def test_splits(self, workdir):
        _, files = workdir
        assert main(["splits", files["i3.qmat"]]) == 0
        assert main(["splits", files["f3_unit.qmat"]]) == 1


class TestStochasticCommands:
    def test_phi_roundtrip(self, workdir, capsys):
        _, files = workdir
        assert main(["phi", files["f3_unit.qmat"]]) == 0
        kind, mat = read_matrix_text(capsys.readouterr().out)
        assert kind == "rmat"
        assert np.max(np.abs(mat - 1 / 3)) < 1e-12

    def test_phi_rejects_nonunitary(self, workdir, tmp_path):
        path = tmp_path / "bad.qmat"
        path.write_text(write_qmat(2.0 * identity(2)))
        assert main(["phi", str(path)]) == 3

    def test_ortho3(self, workdir):
        _, files = workdir
        assert main(["ortho3", files["j3.rmat"]]) == 1
        assert main(["ortho3", files["o3.rmat"]]) == 0

    def test_sigma_and_poly(self, workdir, capsys, tmp_path):
        _, files = workdir
        assert main(["sigma", files["j3.rmat"]]) == 1
        assert main(["sigma", files["j4.rmat"]]) == 0
        capsys.readouterr()
        assert main(["--format", "csv", "sigma", "--poly", files["j4.rmat"]]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "index,residual"
        assert len(out.splitlines()) == 13

    def test_bruteforce(self, workdir, capsys):
        _, files = workdir
        assert main(["bruteforce-ortho", files["j4.rmat"]]) == 0
        kind, signs = read_matrix_text(capsys.readouterr().out)
        assert kind == "rmat" and set(np.unique(signs)) <= {1.0, -1.0}
        assert main(["bruteforce-ortho", files["j3.rmat"]]) == 1

    def test_distance_csv_deterministic(self, capsys):
        argv = ["--format", "csv", "distance-j3", "--restarts", "5", "--seed", "1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        header, row = first.strip().splitlines()
        assert header == "distance,iterations,restarts"
        assert abs(float(row.split(",")[0]) - math.sqrt(2) / 3) < 1e-6

    def test_distance_text_output_pinned(self, capsys):
        assert main(["distance-j3", "--restarts", "5", "--seed", "1"]) == 0
        assert capsys.readouterr().out == (
            "distance=0.4714045208\n"
            "rmat 3 3\n"
            "0.11111111171663658 0.44444444452398774 0.44444444375937553\n"
            "0.44444444361420526 0.44444444512255499 0.11111111126323964\n"
            "0.444444444669158 0.11111111035345712 0.44444444497738478\n")
        assert main(["--format", "csv", "distance-j3", "--restarts", "5",
                     "--seed", "1"]) == 0
        assert capsys.readouterr().out == (
            "distance,iterations,restarts\n0.47140452079103157,71,5\n")

    def test_import_leaves_scipy_optimize_unloaded(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qstoch.__file__))
        code = ("import sys, qstoch.cli; "
                "print('scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"

    def test_n1_sigma_and_bruteforce(self, tmp_path, capsys):
        path = tmp_path / "one.rmat"
        path.write_text("rmat 1 1\n1\n")
        assert main(["sigma", str(path)]) == 0
        assert capsys.readouterr().out == "sigma=true pairs=0\n"
        assert main(["--format", "csv", "sigma", str(path)]) == 0
        assert capsys.readouterr().out == "kind,i,j,min_abs\n"
        assert main(["bruteforce-ortho", str(path)]) == 0
        assert capsys.readouterr().out == "rmat 1 1\n1\n"

    def test_entries_within_the_floor_count_as_zero(self, tmp_path, capsys):
        path = tmp_path / "near_eye.rmat"
        path.write_text("rmat 2 2\n1.0000000000001 -1e-13\n-1e-13 1.0000000000001\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sigma", str(path)]) == 0
            assert capsys.readouterr().out == "sigma=true pairs=2\n"
            assert main(["--format", "csv", "sigma", str(path)]) == 0
            assert capsys.readouterr().out == "kind,i,j,min_abs\ncol,0,1,0\nrow,0,1,0\n"
            assert main(["bruteforce-ortho", str(path)]) == 0
            assert capsys.readouterr().out == "rmat 2 2\n1 1\n1 1\n"
        assert capsys.readouterr().err == ""

    def test_hurwitz_radon(self, capsys):
        assert main(["hurwitz-radon", "--seed", "0"]) == 0
        kind, mat = read_matrix_text(capsys.readouterr().out)
        assert kind == "rmat" and mat.shape == (16, 16)


class TestJacobianCommands:
    def test_rank_line(self, workdir, capsys, tmp_path):
        from qstoch.hadamard import Special4Params, special4
        from qstoch.quaternion import I as QI
        from qstoch.quaternion import Quaternion
        b = Quaternion(1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0)
        witness = special4(Special4Params(QI, b)) / 2
        path = tmp_path / "witness.qmat"
        path.write_text(write_qmat(witness))
        assert main(["rank", "--map", "h", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rank=9" in out
        assert "map=h n=4" in out
        assert "dim_domain=36 dim_codomain=9" in out

    def test_jacobian_emits_rmat(self, workdir, capsys):
        _, files = workdir
        assert main(["jacobian", "--map", "c", "--file", files["f3_unit.qmat"]]) == 0
        kind, mat = read_matrix_text(capsys.readouterr().out)
        assert kind == "rmat" and mat.shape == (4, 9)

    def test_classify(self, workdir, capsys):
        _, files = workdir
        assert main(["classify", "--map", "r", "--file", files["i3.qmat"]]) == 0
        assert "verdict=singular" in capsys.readouterr().out

    def test_wrong_field_is_numeric_error(self, workdir):
        _, files = workdir
        assert main(["jacobian", "--map", "r", "--file", files["f3_unit.qmat"]]) == 3


class TestConstructCommands:
    def test_special4(self, capsys):
        assert main(["construct", "special4", "--a", "(1,0,0,0)",
                     "--b", "1,0,0,0"]) == 0
        kind, m = read_matrix_text(capsys.readouterr().out)
        assert kind == "qmat" and m.is_hadamard(1e-12)

    def test_generic4(self, capsys):
        assert main(["construct", "generic4", "--a", "(0.6,0.8,0,0)",
                     "--x", "(0,0.6,0.8,0)"]) == 0
        kind, m = read_matrix_text(capsys.readouterr().out)
        assert m.is_hadamard(1e-9)

    def test_generic3_branch(self, capsys):
        rc = main(["construct", "generic3", "--a", "(0.5,0.5,0.5,0.5)",
                   "--branch", "+"])
        out = capsys.readouterr().out
        if rc == 0:
            kind, m = read_matrix_text(out)
            assert m.is_hadamard(1e-9)
        else:
            assert rc in (1, 3)

    def test_special3(self, capsys):
        assert main(["construct", "special3", "--family", "s1",
                     "--params", "0.4,1.2"]) == 0
        kind, m = read_matrix_text(capsys.readouterr().out)
        assert m.is_hadamard(1e-9)

    def test_special3_requires_family(self, capsys):
        assert main(["construct", "special3", "--params", "0.4,1.2"]) == 2

    def test_missing_and_malformed_arguments(self):
        assert main(["construct", "special4", "--a", "(1,0,0,0)"]) == 2
        assert main(["construct", "special4", "--a", "garbage",
                     "--b", "(1,0,0,0)"]) == 2

    def test_bad_params_exit_code(self):
        assert main(["construct", "special4", "--a", "(0,0,1,0)",
                     "--b", "(1,0,0,0)"]) == 3


class TestMubCommands:
    def test_check_true_and_false(self, workdir, capsys, tmp_path):
        _, files = workdir
        assert main(["mub", "check", files["i3.qmat"], files["f3_unit.qmat"]]) == 0
        assert "mub=true size=2" in capsys.readouterr().out
        assert main(["mub", "check", files["i2.qmat"], files["i2.qmat"]]) == 1
        assert "mub=false" in capsys.readouterr().out

    def test_h2_complete_output_is_valid_mubset(self, capsys, tmp_path):
        assert main(["mub", "h2-complete"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "h2.mub"
        path.write_text(text)
        assert main(["mub", "check", str(path)]) == 0

    def test_h3_one_param(self, capsys):
        assert main(["mub", "h3-one-param", "--s", str(math.sqrt(3) / 2),
                     "--t", "0"]) == 0
        blocks = capsys.readouterr().out.split("\n\n")
        assert len([b for b in blocks if b.strip()]) == 4

    def test_h3_three_param(self, capsys):
        z = f"(-0.5,{math.sqrt(3) / 2},0,0)"
        assert main(["mub", "h3-three-param", "--a", z, "--b", z, "--c", z]) == 0

    def test_extend_on_pair(self, capsys, tmp_path):
        path_i = tmp_path / "i3.qmat"
        path_f = tmp_path / "f3.qmat"
        path_i.write_text(write_qmat(identity(3)))
        path_f.write_text(write_qmat(fourier(3)))
        assert main(["mub", "extend", str(path_i), str(path_f),
                     "--grid", "6", "--conj-grid", "4"]) == 0
        kind, m = read_matrix_text(capsys.readouterr().out)
        assert m.is_symplectic(1e-9)

    def test_maximality_on_complete_set(self, capsys, tmp_path):
        path = tmp_path / "h2.mub"
        path.write_text(write_mubset(complete_mub_h2()))
        assert main(["--format", "csv", "mub", "maximality", str(path),
                     "--restarts", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "violation,restarts,seed"


class TestUsageErrors:
    def test_unknown_verb_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file(self, tmp_path):
        assert main(["verify-hadamard", str(tmp_path / "nope.qmat")]) == 2

    @pytest.mark.parametrize("argv", [
        ["phi", "{q}"], ["verify-symplectic", "{q}"], ["verify-hadamard", "{q}"],
        ["rank", "--map", "h", "--file", "{q}"], ["mub", "maximality", "{q}"],
        ["sigma", "{r}"], ["ortho3", "{r}"],
    ])
    def test_non_finite_entry_is_an_error(self, argv, tmp_path, capsys):
        q = tmp_path / "nan.qmat"
        q.write_text("qmat 3 3\n" + "(1,0,0,0) (0,0,0,0) (0,0,0,0)\n"
                     "(0,0,0,0) (nan,0,0,0) (0,0,0,0)\n"
                     "(0,0,0,0) (0,0,0,0) (1,0,0,0)\n")
        r = tmp_path / "nan.rmat"
        r.write_text("rmat 3 3\n0.5 0.5 0\n0.5 nan 0\n0 0 1\n")
        rc = main([a.format(q=q, r=r) for a in argv])
        err = capsys.readouterr().err
        assert rc in (2, 3)
        assert err.startswith("error:") and "Traceback" not in err
