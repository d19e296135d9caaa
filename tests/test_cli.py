import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qstoch
from qstoch.cli import main
from qstoch.hadamard import verify_family3
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
        outputs = []
        for branch in "+-":
            assert main(["construct", "generic3", "--a", "(0.6,0,0.8,0)",
                         "--branch", branch]) == 0
            outputs.append(capsys.readouterr().out)
            kind, m = read_matrix_text(outputs[-1])
            assert kind == "qmat" and m.is_hadamard(1e-9)
            assert verify_family3(m, "generic")
        assert outputs[0] != outputs[1]

    def test_generic3_without_member(self, capsys):
        assert main(["construct", "generic3", "--a", "(0.5,0.5,0.5,0.5)",
                     "--branch", "+"]) == 1
        assert capsys.readouterr().out == "construct=none\n"

    def test_generic3_output_pinned(self, capsys):
        assert main(["construct", "generic3", "--a", "(0.6,0,0.8,0)"]) == 0
        assert capsys.readouterr().out == (
            "qmat 3 3\n"
            "(1,0,0,0) (1,0,0,0) (1,0,0,0)\n"
            "(0.59999999999999998,0,0.80000000000000004,0) "
            "(-0.65777087639996634,0.44497190922573976,"
            "-0.1316718427000253,-0.59329587896765312) "
            "(0.05777087639996635,-0.44497190922573976,"
            "-0.66832815729997475,0.59329587896765301)\n"
            "(-0.37499999999999994,0.82915619758885006,"
            "4.3307262898104993e-17,0.41457809879442503) "
            "(0.80241869381244224,0.048934306649053919,"
            "-0.13975424859373697,-0.57809897375199559) "
            "(-0.42741869381244224,-0.87809050423790391,"
            "0.13975424859373692,0.16352087495757059)\n")
        assert main(["construct", "generic3", "--a", "(0.6,0,0.8,0)",
                     "--branch", "-"]) == 0
        assert capsys.readouterr().out == (
            "qmat 3 3\n"
            "(1,0,0,0) (1,0,0,0) (1,0,0,0)\n"
            "(0.59999999999999998,0,0.80000000000000004,0) "
            "(-0.65777087639996634,-0.44497190922573976,"
            "-0.13167184270002524,0.59329587896765312) "
            "(0.057770876399966344,0.4449719092257397,"
            "-0.66832815729997486,-0.59329587896765301)\n"
            "(-0.37500000000000006,-0.82915619758884984,"
            "7.5184031410026854e-17,-0.41457809879442498) "
            "(0.80241869381244213,-0.048934306649053919,"
            "-0.13975424859373692,0.57809897375199548) "
            "(-0.42741869381244219,0.8780905042379038,"
            "0.13975424859373678,-0.16352087495757056)\n")

    def test_special3_output_pinned(self, capsys):
        assert main(["construct", "special3", "--family", "s4", "--params",
                     "1.2", "--variant", "3"]) == 0
        assert capsys.readouterr().out == (
            "qmat 3 3\n"
            "(1,0,0,0) (1,0,0,0) (1,0,0,0)\n"
            "(0.25,-0.4330127018922193,-0.4330127018922193,"
            "0.74999999999999989) (0.24999999999999994,"
            "-0.43301270189221924,0.4330127018922193,"
            "-0.74999999999999989) (-0.49999999999999989,"
            "0.86602540378443849,-5.5511151231257827e-17,"
            "5.5511151231257827e-17)\n"
            "(-0.53173801108754981,-0.058374922149811909,"
            "-0.84429838012450709,0.031738011087549811) "
            "(-0.46531484001809881,0.05667338494231626,"
            "0.88264781582188312,0.034685159981901123) "
            "(0.99705285110564856,0.0017015372074956417,"
            "-0.038349435697376089,-0.066423171069450934)\n")

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

    def test_extend_output_pinned(self, capsys, tmp_path):
        path_i = tmp_path / "i3.qmat"
        path_f = tmp_path / "f3.qmat"
        path_i.write_text(write_qmat(identity(3)))
        path_f.write_text(write_qmat(fourier(3)))
        assert main(["mub", "extend", str(path_i), str(path_f),
                     "--grid", "6", "--conj-grid", "4"]) == 0
        assert capsys.readouterr().out == (
            "qmat 3 3\n"
            "(0.57735026918962584,0,0,0) (0.57735026918962584,0,0,0) "
            "(0.57735026918962584,0,0,0)\n"
            "(0.55767753582520529,0.038675134594812872,"
            "0.14433756729740643,0) (-0.31299682684520136,"
            "-0.43630534568153534,0.17153400103472791,"
            "0.12482007665797309) (-0.24468070898000391,"
            "0.39763021108672242,-0.31587156833213431,"
            "-0.12482007665797309)\n"
            "(-0.22053594528217585,-0.14215341691968736,"
            "-0.45839100821465739,-0.23316800770654081) "
            "(0.016239134532252168,-0.19570842520198098,"
            "0.15123230964001869,0.52143707642330372) "
            "(0.2042968107499237,0.33786184212166837,0.30715869857463868,"
            "-0.28826906871676305)\n")

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
