import ast
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qstoch
from qstoch import cli
from qstoch.cli import main
from qstoch.hadamard import verify_family3
from qstoch.mub import (MubSet, complete_mub_h2, one_param_h3, three_param_h3,
                        write_mubset)
from oracles import birkhoff_sample
from qstoch.qmatrix import (QMatrix, fourier, haar_orthogonal, identity, qmul,
                            random_symplectic, read_matrix_text, write_qmat,
                            write_rmat)
from qstoch.quaternion import Quaternion
from qstoch.stochastic import phi, van_der_waerden

R32 = math.sqrt(3) / 2
MAXIMALITY_SETS = {
    "complete_h2": complete_mub_h2,
    "one_param_s": lambda: one_param_h3(R32, 0.0),
    "one_param_t": lambda: one_param_h3(0.0, R32),
    "pair": lambda: MubSet(3, (identity(3), fourier(3))),
    "three_param": lambda: three_param_h3(*(
        Quaternion(-0.5, R32 * math.cos(a), R32 * math.sin(a), 0.0)
        for a in (2 * math.pi * k / 3 for k in range(3)))),
}


@pytest.fixture
def workdir(tmp_path):
    files = {}

    def put(name, text):
        path = tmp_path / name
        path.write_text(text)
        files[name] = str(path)
        return str(path)

    put("f3.qmat", write_qmat(QMatrix(math.sqrt(3) * fourier(3).data)))
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

    @pytest.mark.parametrize("argv, code, out, err", [
        (["verify-symplectic", "{a}"], 1, "symplectic=false\n", ""),
        (["mub", "check", "{a}", "{f}"], 1,
         "mub=false size=2 reason=basis fails the symplectic check at 1e-09\n",
         ""),
        (["phi", "{a}"], 3, "",
         "error: input is not in the unitary group within 1e-09\n"),
        (["jacobian", "--map", "h", "--file", "{a}"], 3, "",
         "error: point is not in the group within 1e-09\n"),
        (["classify", "--map", "h", "--file", "{a}"], 3, "",
         "error: point is not in the group within 1e-09\n"),
    ], ids=["verify-symplectic", "mub-check", "phi", "jacobian", "classify"])
    def test_one_group_threshold(self, argv, code, out, err, workdir, capsys):
        # unitary defect 2.4e-9: every verb that asks for a group point
        # rejects it at the one threshold tol.GROUP
        tmp_path, files = workdir
        a = tmp_path / "a.qmat"
        a.write_text(write_qmat(QMatrix((1 + 1.2e-9) * identity(3).data)))
        assert main([x.format(a=a, f=files["f3_unit.qmat"]) for x in argv]) == code
        assert capsys.readouterr() == (out, err)


class TestStochasticCommands:
    def test_phi_roundtrip(self, workdir, capsys):
        _, files = workdir
        assert main(["phi", files["f3_unit.qmat"]]) == 0
        kind, mat = read_matrix_text(capsys.readouterr().out)
        assert kind == "rmat"
        assert np.max(np.abs(mat - 1 / 3)) < 1e-12

    def test_phi_rejects_nonunitary(self, workdir, tmp_path):
        path = tmp_path / "bad.qmat"
        path.write_text(write_qmat(QMatrix(2.0 * identity(2).data)))
        assert main(["phi", str(path)]) == 3

    def test_ortho3(self, workdir):
        _, files = workdir
        assert main(["ortho3", files["j3.rmat"]]) == 1
        assert main(["ortho3", files["o3.rmat"]]) == 0

    def test_ortho3_small_entries(self, small_entry_witness, tmp_path, capsys):
        # the quartic's residual is printed; the verdict is Sigma_3's
        path = tmp_path / "small.rmat"
        path.write_text(write_rmat(small_entry_witness))
        assert main(["ortho3", str(path)]) == 1
        assert main(["--format", "csv", "ortho3", str(path)]) == 1
        assert capsys.readouterr().out == (
            "orthostochastic=false residual=3.037996e-11\n"
            "orthostochastic,residual\nfalse,3.0379958405429876e-11\n")

    def test_sigma_and_poly(self, workdir, capsys, tmp_path):
        _, files = workdir
        assert main(["sigma", files["j3.rmat"]]) == 1
        assert main(["sigma", files["j4.rmat"]]) == 0
        capsys.readouterr()
        assert main(["--format", "csv", "sigma", "--poly", files["j4.rmat"]]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "index,residual"
        assert len(out.splitlines()) == 13
        # near J_4 the poly residuals shrink like distance^3 (all <= 6.25e-14
        # here), but the matrix is not orthostochastic
        near = van_der_waerden(4).mat + 1e-3 * np.array(
            [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        path = tmp_path / "near_j4.rmat"
        path.write_text(write_rmat(near))
        assert main(["sigma", str(path)]) == 1
        assert main(["sigma", "--poly", str(path)]) == 1
        assert main(["bruteforce-ortho", str(path)]) == 1

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
            "0.44444444404420236 0.44444444473360067 0.11111111122219702\n"
            "0.4444444443085479 0.11111111046388664 0.44444444522756554\n"
            "0.11111111164724971 0.44444444480251277 0.4444444435502376\n")
        assert main(["--format", "csv", "distance-j3", "--restarts", "5",
                     "--seed", "1"]) == 0
        assert capsys.readouterr().out == (
            "distance,iterations,restarts\n0.47140452079103168,182,5\n")

    def test_import_leaves_scipy_optimize_unloaded(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qstoch.__file__))
        code = ("import sys, qstoch.cli; "
                "print('scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"

    def test_distance_j3_loads_no_scipy(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qstoch.__file__))
        code = ("import contextlib, io, sys, qstoch.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    qstoch.cli.main(['distance-j3', '--restarts', '2'])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_no_module_imports_scipy(self):
        found = []
        for path in sorted(Path(qstoch.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []

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

    def test_jacobian_output_pinned(self, workdir, capsys, tmp_path):
        _, files = workdir
        assert main(["jacobian", "--map", "c", "--file", files["f3_unit.qmat"]]) == 0
        assert capsys.readouterr().out == (
            "rmat 4 9\n"
            "0.33333333333333343 0.33333333333333343 0 0 0 0 0 0 0\n"
            "-0.1666666666666666 -0.16666666666666685 0 0 "
            "-0.28867513459481298 0.28867513459481287 0 0 0\n"
            "-0.33333333333333343 0 0.33333333333333343 0 0 0 0 0 0\n"
            "0.1666666666666666 0 -0.16666666666666663 0 "
            "0.28867513459481298 0 0 -0.28867513459481298 0\n")
        path = tmp_path / "w4.qmat"
        path.write_text(write_qmat(random_symplectic(4, seed=4)))
        assert main(["jacobian", "--map", "h", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        # 2914 bytes of 9 x 36 entries; the digest pins all of them
        assert out.startswith("rmat 9 36\n-0.0039741606481850031 "
                              "0.095289358487423342 -0.077643962290452048 0 ")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "866956986fdded332a1a9875b804a475f173fce0e2c546ea0643efc65352e43c")

    @pytest.mark.parametrize("verb", ["jacobian", "rank", "classify"])
    def test_one_by_one_is_numeric_error(self, verb, tmp_path, capsys):
        path = tmp_path / "one.qmat"
        path.write_text(write_qmat(identity(1)))
        assert main([verb, "--map", "h", "--file", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 2\n"


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

    def test_generic3_non_finite_a_is_an_error(self, capsys):
        assert main(["construct", "generic3", "--a", "(1,0,0,nan)"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a must be a unit quaternion\n"

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

    @pytest.mark.parametrize("family, variant, bound", [
        ("s1", "-5", 1), ("s1", "1", 1), ("s3", "2", 2)])
    def test_special3_variant_out_of_range(self, family, variant, bound,
                                           capsys):
        # s1 has no sign bits, so 0 is its only variant
        assert main(["construct", "special3", "--family", family, "--params",
                     "0.3,0.4", "--variant", variant]) == 3
        assert capsys.readouterr() == (
            "", f"error: variant must be in [0, {bound})\n")

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

    def test_check_quotes_the_group_threshold(self, workdir, capsys):
        # the threshold is formatted from tol.GROUP
        _, files = workdir
        assert main(["mub", "check", files["i3.qmat"], files["f3.qmat"]]) == 1
        assert capsys.readouterr().out == (
            "mub=false size=2 reason=basis fails the symplectic check at "
            "1e-09\n")

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

    def test_h3_three_param_rejects_a_bad_quaternion(self, capsys):
        argv = ["mub", "h3-three-param", "--a", "xyz", "--b", "1", "--c", "1"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: expected 4 comma-separated fields, got 'xyz'\n")

    @pytest.mark.parametrize("argv", [
        ["check", "f"], ["h2-complete"], ["h3-one-param", "--s", "0", "--t", "0"],
        ["h3-three-param", "--a", "1", "--b", "1", "--c", "1"], ["extend", "f"],
        ["maximality", "f"]])
    def test_each_subcommand_has_a_handler(self, argv):
        args = cli.build_parser().parse_args(["mub", *argv])
        assert args.func.__name__.startswith("_cmd_mub_")
        assert not hasattr(cli, "_cmd_mub")

    def test_missing_subcommand_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mub"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "qstoch mub: error: the following arguments are required: "
            "mub_command\n")

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

    @pytest.mark.parametrize("grid", [["--grid", "0"], ["--grid", "-3"],
                                      ["--conj-grid", "0"]])
    def test_extend_needs_a_grid_point(self, grid, capsys, tmp_path):
        path = tmp_path / "pair.mub"
        path.write_text(write_mubset(MubSet(3, (identity(3), fourier(3)))))
        assert main(["mub", "extend", str(path), "--grid", "4",
                     "--conj-grid", "2", *grid]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid and conj_grid must be >= 1\n"

    def test_maximality_on_complete_set(self, capsys, tmp_path):
        path = tmp_path / "h2.mub"
        path.write_text(write_mubset(complete_mub_h2()))
        assert main(["--format", "csv", "mub", "maximality", str(path),
                     "--restarts", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "violation,restarts,seed"


    @pytest.mark.parametrize("name, seed, line, code", [
        ("complete_h2", 0, "violation=2.662e-01 restarts=50", 0),
        ("complete_h2", 1, "violation=2.690e-01 restarts=50", 0),
        ("one_param_s", 0, "violation=2.399e-01 restarts=50", 0),
        ("one_param_s", 1, "violation=2.502e-01 restarts=50", 0),
        ("one_param_t", 0, "violation=2.222e-01 restarts=50", 0),
        ("one_param_t", 1, "violation=2.222e-01 restarts=50", 0),
        ("pair", 0, "violation=1.864e-11 restarts=50", 1),
        ("pair", 1, "violation=2.722e-11 restarts=50", 1),
        # the stall stop ends these restarts on their plateau, short of the
        # 1.065e-01 / 1.061e-01 that the 2000-step cap reached
        ("three_param", 0, "violation=1.059e-01 restarts=50", 0),
        ("three_param", 1, "violation=1.057e-01 restarts=50", 0),
    ])
    def test_maximality_output_pinned(self, name, seed, line, code, capsys,
                                      tmp_path):
        path = tmp_path / f"{name}.mub"
        path.write_text(write_mubset(MAXIMALITY_SETS[name]()))
        assert main(["mub", "maximality", str(path), "--restarts", "50",
                     "--seed", str(seed)]) == code
        assert capsys.readouterr().out == line + "\n"

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_maximality_needs_a_restart(self, restarts, capsys, tmp_path):
        path = tmp_path / "h2.mub"
        path.write_text(write_mubset(complete_mub_h2()))
        assert main(["mub", "maximality", str(path),
                     "--restarts", restarts]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: restarts must be >= 1\n"


class TestUsageErrors:
    def test_unknown_verb_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file(self, tmp_path):
        assert main(["verify-hadamard", str(tmp_path / "nope.qmat")]) == 2

    @pytest.mark.parametrize("verb", [["phi"], ["mub", "check"]])
    def test_unreadable_path_is_a_usage_error(self, verb, tmp_path, capsys):
        """A path that cannot be read, here a directory, exits 2 with an
        error line, not 1 (verified false) with a traceback."""
        assert main([*verb, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "-inf", "x"])
    @pytest.mark.parametrize("verb", ["verify-hadamard", "verify-symplectic",
                                      "splits", "rank"])
    def test_tol_must_be_finite_and_positive(self, verb, tol, workdir, capsys):
        _, files = workdir
        args = ["--map", "h", "--file"] if verb == "rank" else []
        with pytest.raises(SystemExit) as exc:
            main([verb, *args, files["w3.qmat"], f"--tol={tol}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol: tolerance must be finite and > 0" in captured.err

    @pytest.mark.parametrize("verb", ["verify-hadamard", "verify-symplectic",
                                      "splits", "rank"])
    def test_tol_accepts_positive_values(self, verb, workdir, capsys):
        _, files = workdir
        args = ["--map", "h", "--file"] if verb == "rank" else []
        assert main([verb, *args, files["w3.qmat"], "--tol", "1e-6"]) in (0, 1)
        assert capsys.readouterr().out.count("\n") == 1

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


# ---------------------------------------------------------------------------
# golden outputs: stdout, stderr and exit code of each verb on fixed input
# ---------------------------------------------------------------------------

CONF4 = np.array([[0, 1, 1, 1], [1, 0, 1, -1], [1, -1, 0, 1],
                  [1, 1, -1, 0]]) / math.sqrt(3)  # orthogonal, zero diagonal


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _sigma_input(kind, n):
    """A seeded orthostochastic or generic Birkhoff n x n matrix."""
    rng = np.random.default_rng(n)
    if kind == "ortho":
        return phi(QMatrix.from_real(haar_orthogonal(n, rng))).mat
    return birkhoff_sample(n, rng).mat


@pytest.fixture
def golden_files(workdir):
    tmp_path, files = workdir
    cube = [Quaternion(-0.5, R32 * math.cos(a), R32 * math.sin(a), 0.0)
            for a in (2 * math.pi * k / 3 for k in range(3))]
    # a zero-free O(3) point, and the same point with unit-quaternion row
    # phases: critical for maps c and h without splitting
    o3 = haar_orthogonal(3, np.random.default_rng(3))
    phases = np.array([[0.6, 0.0, 0.8, 0.0], [0.0, 0.6, 0.0, 0.8],
                       [0.5, 0.5, 0.5, 0.5]])
    texts = {
        "sp2.qmat": write_qmat(random_symplectic(2, seed=1)),
        "sp4.qmat": write_qmat(random_symplectic(4, seed=4)),
        "u2.qmat": write_qmat(QMatrix.from_complex([[0.6, 0.8j],
                                                    [0.8j, 0.6]])),
        "rot2.rmat": write_rmat(_rotation(0.3)),
        "anti2.rmat": write_rmat(_rotation(math.pi / 2)),
        "conf4.rmat": write_rmat(CONF4),
        "conf4sq.rmat": write_rmat(CONF4 ** 2),
        "haar_o3.rmat": write_rmat(o3),
        "tw3.qmat": write_qmat(QMatrix(qmul(phases[:, None, :],
                                            QMatrix.from_real(o3).data))),
        "h2.mub": write_mubset(complete_mub_h2()),
        "three_param.mub": write_mubset(three_param_h3(*cube)),
        "one_param_s.mub": write_mubset(MAXIMALITY_SETS["one_param_s"]()),
        "mixed.mub": write_rmat(np.eye(3)) + "\n" + write_qmat(fourier(3)),
        # inputs that fail a precondition
        "j6.rmat": write_rmat(van_der_waerden(6).mat),
        "j25.rmat": write_rmat(van_der_waerden(25).mat),
        "one.rmat": "rmat 1 1\n1\n",
        "rect.rmat": "rmat 2 3\n0.5 0.5 0\n0.5 0.5 0\n",
        "rect.qmat": write_qmat(QMatrix(np.ones((2, 3, 4)))),
        "zrow.qmat": write_qmat(QMatrix.from_real([[1.0, 0.0], [1.0, 1.0]])),
        "sums.rmat": "rmat 2 2\n0.5 0.5\n0.5 0.6\n",
        "neg.rmat": "rmat 2 2\n1.5 -0.5\n-0.5 1.5\n",
        "empty.mub": "\n",
    }
    for n in (20, 24):
        for kind in ("ortho", "birkhoff"):
            texts[f"{kind}{n}.rmat"] = write_rmat(_sigma_input(kind, n))
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        files[name] = str(tmp_path / name)
    return files


# (argv with {file} names, exit code, stdout or the SHA-256 of a stdout
# longer than 100 characters, stderr with {file} names)
GOLDEN = [
    ('verify-hadamard {f3.qmat}', 0, 'hadamard=true\n', ''),
    ('verify-hadamard {i2.qmat}', 1, 'hadamard=false\n', ''),
    ('verify-hadamard {w3.qmat} --tol 0.5', 1, 'hadamard=false\n', ''),
    ('verify-symplectic {w3.qmat}', 0, 'symplectic=true\n', ''),
    ('verify-symplectic {f3.qmat}', 1, 'symplectic=false\n', ''),
    ('verify-symplectic {o3.rmat}', 0, 'symplectic=true\n', ''),
    ('splits {i3.qmat}', 0, 'splits=true\n', ''),
    ('splits {f3_unit.qmat}', 1, 'splits=false\n', ''),
    ('splits {conf4.rmat}', 1, 'splits=false\n', ''),
    ('splits {anti2.rmat}', 0, 'splits=true\n', ''),
    ('splits {f3.qmat} --tol 2', 0, 'splits=true\n', ''),
    ('phi {w3.qmat}',
     0, '3b7916aad64200d29fe049d1d428eec64509ca0c89b30958bbc7a763806bb539',
     ''),
    ('phi {sp4.qmat}',
     0, '778645a3d9c1940037e7dd91d60331a9902b726a24410736df805be7854ac59a',
     ''),
    ('dephase {f3.qmat}',
     0, '0eaa3e304a88fe2857f861a40d2c316c48a4792e9a0344a391772ec8a5a46148',
     ''),
    ('dephase {w3.qmat}',
     0, '07b77948c20066e5e6bc36544c864c5b2672037b395778c51b520eb6490f244f',
     ''),
    ('hurwitz-radon',
     0, '56f6b9232abc7bb7b1745d66697006cab39cce24594f812c1db1a96c560a215b',
     ''),
    ('hurwitz-radon --seed 2',
     0, 'cdb08be1a40a5e71d0a7f9ef3d813eac1668cc2b4bf699bba917597f70084020',
     ''),
    ('classify --map r --file {rot2.rmat}',
     0, 'map=r n=2 rank=1 dim_domain=1 dim_codomain=1 verdict=regular\n', ''),
    # the rotation by pi/2 has cos(pi/2) = 6e-17 on its diagonal, and its
    # Jacobian is rounding noise that RANK_FLOOR counts as rank 0
    ('classify --map r --file {anti2.rmat}',
     0, 'map=r n=2 rank=0 dim_domain=1 dim_codomain=1 verdict=singular\n', ''),
    ('classify --map r --file {i2.qmat}',
     0, 'map=r n=2 rank=0 dim_domain=1 dim_codomain=1 verdict=singular\n', ''),
    ('classify --map r --file {o3.rmat}',
     0, 'map=r n=3 rank=0 dim_domain=3 dim_codomain=4 verdict=singular\n', ''),
    ('classify --map r --file {conf4.rmat}',
     0, 'map=r n=4 rank=5 dim_domain=6 dim_codomain=9 verdict=singular\n', ''),
    ('classify --map c --file {u2.qmat}',
     0, 'map=c n=2 rank=1 dim_domain=4 dim_codomain=1 verdict=regular\n', ''),
    ('classify --map c --file {anti2.rmat}',
     0, 'map=c n=2 rank=0 dim_domain=4 dim_codomain=1 verdict=critical\n', ''),
    ('classify --map c --file {i2.qmat}',
     0, 'map=c n=2 rank=0 dim_domain=4 dim_codomain=1 verdict=critical\n', ''),
    ('classify --map c --file {f3_unit.qmat}',
     0, 'map=c n=3 rank=4 dim_domain=9 dim_codomain=4 verdict=regular\n', ''),
    ('classify --map c --file {i3.qmat}',
     0, 'map=c n=3 rank=0 dim_domain=9 dim_codomain=4 verdict=critical\n', ''),
    ('classify --map c --file {haar_o3.rmat}',
     0, 'map=c n=3 rank=3 dim_domain=9 dim_codomain=4 verdict=critical\n', ''),
    ('classify --map h --file {haar_o3.rmat}',
     0, 'map=h n=3 rank=3 dim_domain=21 dim_codomain=4 verdict=critical\n',
     ''),
    ('classify --map h --file {tw3.qmat}',
     0, 'map=h n=3 rank=3 dim_domain=21 dim_codomain=4 verdict=critical\n',
     ''),
    ('classify --map h --file {sp2.qmat}',
     0, 'map=h n=2 rank=1 dim_domain=10 dim_codomain=1 verdict=regular\n', ''),
    ('classify --map h --file {anti2.rmat}',
     0, 'map=h n=2 rank=0 dim_domain=10 dim_codomain=1 verdict=critical\n',
     ''),
    ('classify --map h --file {w3.qmat}',
     0, 'map=h n=3 rank=4 dim_domain=21 dim_codomain=4 verdict=regular\n', ''),
    ('classify --map h --file {sp4.qmat}',
     0, 'map=h n=4 rank=9 dim_domain=36 dim_codomain=9 verdict=regular\n', ''),
    ('rank --map r --file {rot2.rmat}',
     0, 'map=r n=2 rank=1 dim_domain=1 dim_codomain=1 verdict=regular\n', ''),
    ('rank --map r --file {anti2.rmat}',
     0, 'map=r n=2 rank=0 dim_domain=1 dim_codomain=1 verdict=singular\n', ''),
    ('rank --map c --file {anti2.rmat}',
     0, 'map=c n=2 rank=0 dim_domain=4 dim_codomain=1 verdict=critical\n', ''),
    ('rank --map h --file {anti2.rmat}',
     0, 'map=h n=2 rank=0 dim_domain=10 dim_codomain=1 verdict=critical\n',
     ''),
    ('rank --map r --file {conf4.rmat}',
     0, 'map=r n=4 rank=5 dim_domain=6 dim_codomain=9 verdict=singular\n', ''),
    ('rank --map c --file {f3_unit.qmat}',
     0, 'map=c n=3 rank=4 dim_domain=9 dim_codomain=4 verdict=regular\n', ''),
    ('rank --map c --file {i2.qmat}',
     0, 'map=c n=2 rank=0 dim_domain=4 dim_codomain=1 verdict=critical\n', ''),
    ('rank --map h --file {w3.qmat}',
     0, 'map=h n=3 rank=4 dim_domain=21 dim_codomain=4 verdict=regular\n', ''),
    ('rank --map h --file {sp4.qmat} --tol 0.01',
     0, 'map=h n=4 rank=6 dim_domain=36 dim_codomain=9 verdict=critical\n',
     ''),
    ('construct special4 --a (0.6,0.8,0,0) --b (0.6,0,0.8,0)',
     0, 'e22314e384d569741dd482f7107af0315d02c54dcd48773b39b80da786bc4503',
     ''),
    ('construct generic4 --a (0.6,0.8,0,0) --x (0,0.6,0.8,0)',
     0, '1f76422c2eed1d1fb1d83340c30a56a265d0e1f314efe58a8c54e9f6e5ffc894',
     ''),
    ('construct special3 --family s1 --params 0.4,1.2',
     0, 'dc1cffafc63109a27d7efd9b6dee24401752a85711c54e3f683701f6b9656039',
     ''),
    ('construct special3 --family s1 --params 0.4,1.2 --variant 0',
     0, 'dc1cffafc63109a27d7efd9b6dee24401752a85711c54e3f683701f6b9656039',
     ''),
    ('construct special3 --family s2 --params 0.3,1.1',
     0, 'c0083c70e09c62d47eaea161d970dc34152ac7be5ddb746bcf5aa5b963167833',
     ''),
    ('construct special3 --family s2 --params 0.3,1.1 --variant 1',
     0, '006c4b19323c8e183ecf5cb02b858d2dcc33d83e38cb73809d318ef5bd72dc05',
     ''),
    ('construct special3 --family s2 --params 0.3,1.1 --variant 2',
     3, '', 'error: variant must be in [0, 2)\n'),
    ('construct special3 --family s3 --params 0.3,1.1 --variant 1',
     0, '1428f96c5f4cf0d2d582fa64b81e0a57c32459a674e95ed21ccd079805af3ac1',
     ''),
    ('construct special3 --family s4 --params 1.2 --variant 5',
     0, 'a98adca593cb17fca14a1a3f61f8ccbb0ad68abab76a260e0ebe0f25e72d68c8',
     ''),
    ('construct special3 --family s4 --params 1.2 --variant 8',
     3, '', 'error: variant must be in [0, 8)\n'),
    ('construct special3 --family s4 --params 1.2,0.5',
     3, '', 'error: s4 takes (psi)\n'),
    ('construct special3 --family s5 --params 0.2,1.3 --variant 0',
     0, '8485273aef6d06ab17e7c11043f5c240d3d60ffb0399b551033dedc051c3ea6a',
     ''),
    ('construct special3 --family s5 --params 0.2,1.3 --variant 9',
     3, '', 'error: s5 has no real member for these parameters and signs\n'),
    ('construct special3 --family s5 --params 0.2,1.3 --variant 16',
     3, '', 'error: variant must be in [0, 16)\n'),
    ('construct special3 --family s5 --params 0.2,1.3 --variant -1',
     3, '', 'error: variant must be in [0, 16)\n'),
    ('mub check {i3.qmat} {f3_unit.qmat}',
     0, 'mub=true size=2 worst_pair_deviation=1.110e-16\n', ''),
    ('mub check {o3.rmat} {f3_unit.qmat}',
     0, 'mub=true size=2 worst_pair_deviation=1.110e-16\n', ''),
    ('mub check {mixed.mub}',
     0, 'mub=true size=2 worst_pair_deviation=1.110e-16\n', ''),
    ('mub check {h2.mub}',
     0, 'mub=true size=5 worst_pair_deviation=2.220e-16\n', ''),
    ('mub check {i2.qmat} {i2.qmat}',
     1, ('mub=false size=2 reason=bases 0 and 1 are not unbiased (deviation '
         '5.00e-01)\n'),
     ''),
    ('mub check {three_param.mub}',
     0, 'mub=true size=4 worst_pair_deviation=2.776e-16\n', ''),
    ('mub h2-complete',
     0, 'a266b76a91021a6e02a4a948468c71c4cb2b484ec1ded03c738dd589214fb4df',
     ''),
    ('mub h3-one-param --s 0.8660254037844386 --t 0',
     0, '6437d96dacffb34791bcbd7e84eb4293f528fb94fd21279d4f38b97273f21e85',
     ''),
    ('mub extend {one_param_s.mub} --grid 2 --conj-grid 2',
     1, 'extension=none grid=2 conj_grid=2\n', ''),
    ('mub h3-three-param --a (-0.5,0.8660254037844386,0,0) '
     '--b (-0.5,0,0.8660254037844386,0) --c (-0.5,-0.8660254037844386,0,0)',
     0, '37f5b92ab379d1ba35256a6de6c66d92e0bdf4ae5eb98758597cd2466dc55616',
     ''),
    ('--format csv sigma {j4.rmat}',
     0, 'd20c8a02cac54827986d254384b1e1fa6d302eeeb093e01d894cd9b7d3628005',
     ''),
    ('--format csv sigma {j3.rmat}',
     1, '53ce87f0bb0ad87e211774b6b7782aab9525bc01a574d651434e492fbb1c0159',
     ''),
    ('--format csv sigma {ortho20.rmat}',
     0, 'a6d8b0a72a4d9cca93108b441d7f80831003ec3851999adeb68114b4a3cf4d36',
     ''),
    ('sigma {ortho20.rmat}', 0, 'sigma=true pairs=380\n', ''),
    ('--format csv sigma {birkhoff20.rmat}',
     1, 'd6a7d3f94611c7f30be6a5a8f98d39c92f8353aabab7f573c300920351d9a87b',
     ''),
    ('sigma {birkhoff20.rmat}', 1, 'sigma=false pairs=380\n', ''),
    ('--format csv sigma {ortho24.rmat}',
     0, 'c0b2f368bf122e1e55bcc6cd46b975930432950eeeec9b84d691815825e6a0db',
     ''),
    ('sigma {ortho24.rmat}', 0, 'sigma=true pairs=552\n', ''),
    ('--format csv sigma {birkhoff24.rmat}',
     1, '65708183980dc60c7e160152110601fcd5a1c1cfdac584496165c517f4f2db12',
     ''),
    ('sigma {birkhoff24.rmat}', 1, 'sigma=false pairs=552\n', ''),
    ('--format csv sigma --poly {j4.rmat}',
     0, ('index,residual\n0,0\n1,0\n2,0\n3,0\n4,0\n5,0\n6,0\n7,0\n8,'
         '0\n9,0\n10,0\n11,0\n'),
     ''),
    ('--format csv ortho3 {j3.rmat}',
     1, 'orthostochastic,residual\nfalse,-0.037037037037037063\n', ''),
    ('--format csv ortho3 {o3.rmat}',
     0, 'orthostochastic,residual\ntrue,0\n', ''),
    ('ortho3 {f3_unit.qmat}',
     3, '', 'error: {f3_unit.qmat}: expected an rmat file\n'),
    ('bruteforce-ortho {j3.rmat}', 1, 'pattern=none\n', ''),
    ('bruteforce-ortho {o3.rmat}', 0, 'rmat 3 3\n1 1 1\n1 1 1\n1 1 1\n', ''),
    ('bruteforce-ortho {conf4sq.rmat}',
     0, 'rmat 4 4\n1 1 1 1\n1 1 -1 1\n1 1 1 -1\n1 -1 1 1\n', ''),
    # a failed precondition: the message each check gives on the command
    # line, and exit 3 (exit 1 with reason= where mub check reports it)
    ('sigma {j25.rmat}',
     3, '', 'error: sigma system enumeration capped at n = 24\n'),
    ('bruteforce-ortho {j6.rmat}',
     3, '', 'error: pattern search capped at n = 5\n'),
    ('construct generic4 --a (-1,0,0,0) --x (0,1,0,0)',
     3, '', 'error: a = -1 is a pole of the family\n'),
    ('jacobian --map r --file {u2.qmat}',
     3, '', 'error: map r needs a real matrix\n'),
    ('jacobian --map c --file {w3.qmat}',
     3, '', 'error: map c needs a complex matrix\n'),
    ('mub check {i3.qmat} {i3.qmat} {i3.qmat} {i3.qmat} {i3.qmat} {i3.qmat} '
     '{i3.qmat} {i3.qmat}',
     1, 'mub=false size=8 reason=8 bases exceed the bound 7\n', ''),
    ('mub extend {h2.mub}',
     3, '', 'error: extension search is implemented for n = 3\n'),
    ('dephase {i2.qmat}',
     3, '', 'error: zero entry in the first column\n'),
    ('dephase {zrow.qmat}',
     3, '', 'error: zero entry in the first row\n'),
    ('mub h3-one-param --s 0 --t 0',
     3, '', 'error: (s,t) must lie on the circle s^2 + t^2 = 3/4\n'),
    ('mub h3-one-param --s nan --t 0',
     3, '', 'error: (s,t) must lie on the circle s^2 + t^2 = 3/4\n'),
    ('construct special3 --family s1 --params nan,1.2',
     3, '', 'error: s1 parameters (beta, theta) must be finite\n'),
    ('sigma {sums.rmat}',
     3, '', 'error: row/column sums deviate from 1 beyond tolerance\n'),
    ('sigma {neg.rmat}',
     3, '', 'error: negative entry -0.5\n'),
    ('sigma {rect.rmat}',
     3, '', 'error: expected a square matrix with n >= 1, got shape (2, 3)\n'),
    ('construct special4 --a (1,1,0,0) --b (1,0,0,0)',
     3, '', 'error: a and b must be unit quaternions\n'),
    ('construct special4 --a (0.6,0,0.8,0) --b (0.6,0,0.8,0)',
     3, '', 'error: a must lie in span{1,i}\n'),
    ('construct special4 --a (0.6,0.8,0,0) --b (0.6,0.8,0,0)',
     3, '', 'error: b must lie in span{1,j}\n'),
    ('construct generic4 --a (2,0,0,0) --x (0,1,0,0)',
     3, '', 'error: a and x must be unit quaternions\n'),
    ('construct generic4 --a (0.6,0,0,0.8) --x (0,1,0,0)',
     3, '', 'error: a must lie in span{1,i,j}\n'),
    ('construct generic4 --a (1,0,0,0) --x (0,0,0,1)',
     3, '', 'error: x must be pure in span{i,j}\n'),
    ('construct generic3 --a (2,0,0,0)',
     3, '', 'error: a must be a unit quaternion\n'),
    ('construct generic3 --a (1,0,0,0)',
     3, '', 'error: phi vanishes on the whole circle\n'),
    ('construct generic3 --a (0.9999995000000417,0,0.0009999998333333417,0)',
     3, '', 'error: p(a,s,t) vanishes at the selected root\n'),
    ('ortho3 {j4.rmat}',
     3, '', 'error: ortho3 is defined for 3x3 matrices\n'),
    ('--format csv sigma --poly {j3.rmat}',
     3, '', 'error: sigma_poly_4 is defined for 4x4 matrices\n'),
    ('distance-j3 --restarts 0',
     3, '', 'error: restarts must be >= 1\n'),
    ('phi {f3.qmat}',
     3, '', 'error: input is not in the unitary group within 1e-09\n'),
    ('jacobian --map c --file {f3.qmat}',
     3, '', 'error: point is not in the group within 1e-09\n'),
    ('jacobian --map r --file {one.rmat}',
     3, '', 'error: n must be >= 2\n'),
    ('splits {rect.qmat}',
     3, '', 'error: splits is defined for square matrices\n'),
    ('mub check {i2.qmat} {i3.qmat}',
     1, 'mub=false size=2 reason=all bases must be n x n\n', ''),
    ('mub check {f3.qmat} {i3.qmat}',
     1, 'mub=false size=2 reason=basis fails the symplectic check at 1e-09\n',
     ''),
    ('mub h3-three-param --a (1,0,0,0) --b (-0.5,0,0.8660254037844386,0) --c '
     '(-0.5,-0.8660254037844386,0,0)',
     3, '', 'error: a must be -1/2 + s i + t j with s^2 + t^2 = 3/4\n'),
    ('mub check {empty.mub}',
     3, '', 'error: no matrices in mub set file\n'),
    ('mub maximality {one_param_s.mub} --restarts 0',
     3, '', 'error: restarts must be >= 1\n'),
    ('mub extend {one_param_s.mub} --grid 0',
     3, '', 'error: grid and conj_grid must be >= 1\n'),
    ('mub extend {i3.qmat}',
     3, '', 'error: need at least the identity/Fourier prefix\n'),
    ('mub extend {f3_unit.qmat} {i3.qmat}',
     3, '', 'error: set must start with the identity and Fourier bases\n'),
]


@pytest.mark.parametrize("line, code, out, err", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_output(line, code, out, err, golden_files, capsys):
    argv = [golden_files[tok[1:-1]] if tok.startswith("{") else tok
            for tok in line.split()]
    assert main(argv) == code
    captured = capsys.readouterr()
    got = captured.out
    if len(got) > 100:
        got = hashlib.sha256(got.encode()).hexdigest()
    for name, path in golden_files.items():
        err = err.replace("{" + name + "}", path)
    assert (got, captured.err) == (out, err)
