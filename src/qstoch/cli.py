"""Command line interface.

One executable exposing the package operations with file-based input and
output, meant for scripted reproduction.  Exit codes: 0 for verified-true
or constructed, 1 for verified-false or nothing-found, 2 for usage errors,
3 for numerical precondition failures.  Every randomized command takes
--seed (default 0); wall-clock time is never used.
"""

from __future__ import annotations

import argparse
import sys

from . import differential, hadamard, mub, stochastic
from .errors import QStochError
from .qmatrix import (QMatrix, load_matrix, load_qmatrix, write_qmat,
                      write_rmat)
from .quaternion import parse_quaternion
from .stochastic import BistochasticMatrix

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


def _load_bistochastic(path: str) -> BistochasticMatrix:
    kind, value = load_matrix(path)
    if kind == "qmat":
        raise QStochError(f"{path}: expected an rmat file")
    return BistochasticMatrix(value)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_phi(args) -> int:
    b = stochastic.phi(load_qmatrix(args.file))
    sys.stdout.write(write_rmat(b.mat))
    return EXIT_TRUE


def _cmd_verify_hadamard(args) -> int:
    ok = load_qmatrix(args.file).is_hadamard(args.tol)
    print(f"hadamard={'true' if ok else 'false'}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_verify_symplectic(args) -> int:
    ok = load_qmatrix(args.file).is_symplectic(args.tol)
    print(f"symplectic={'true' if ok else 'false'}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_dephase(args) -> int:
    result, _, _ = load_qmatrix(args.file).dephase()
    sys.stdout.write(write_qmat(result))
    return EXIT_TRUE


def _cmd_splits(args) -> int:
    ok = load_qmatrix(args.file).splits(args.tol)
    print(f"splits={'true' if ok else 'false'}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_jacobian(args) -> int:
    jac = differential.jacobian(args.map, load_qmatrix(args.file))
    sys.stdout.write(write_rmat(jac.entries))
    return EXIT_TRUE


def _cmd_classify(args) -> int:
    """classify, and rank: the same verdict without the pattern cross-check."""
    res = differential.classify_point(args.map, load_qmatrix(args.file),
                                      tol=args.tol, cross_check=args.cross_check)
    print(res.report_line())
    return EXIT_TRUE


def _cmd_ortho3(args) -> int:
    b = _load_bistochastic(args.file)
    residual = stochastic.ortho3_residual(b)
    ok = abs(residual) <= 1e-9
    if args.format == "csv":
        print("orthostochastic,residual")
        print(f"{'true' if ok else 'false'},{residual:.17g}")
    else:
        print(f"orthostochastic={'true' if ok else 'false'} residual={residual:.6e}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_sigma(args) -> int:
    b = _load_bistochastic(args.file)
    if args.poly:
        residuals = stochastic.sigma_poly_4(b)
        if args.format == "csv":
            print("index,residual")
            for i, r in enumerate(residuals):
                print(f"{i},{r:.17g}")
        else:
            print("residuals " + " ".join(f"{r:.6e}" for r in residuals))
        ok = max(abs(r) for r in residuals) <= 1e-9
    else:
        minima = stochastic.sigma_pair_minima(b)
        ok = all(m <= 1e-9 for _, _, _, m in minima)
        if args.format == "csv":
            print("kind,i,j,min_abs")
            for kind, i, j, m in minima:
                print(f"{kind},{i},{j},{m:.17g}")
        else:
            print(f"sigma={'true' if ok else 'false'} pairs={len(minima)}")
    return EXIT_TRUE if ok else EXIT_FALSE


def _cmd_bruteforce_ortho(args) -> int:
    b = _load_bistochastic(args.file)
    pattern = stochastic.orthostochastic_bruteforce(b)
    if pattern is None:
        print("pattern=none")
        return EXIT_FALSE
    sys.stdout.write(write_rmat(pattern.signs))
    return EXIT_TRUE


def _cmd_distance_j3(args) -> int:
    res = stochastic.distance_j3_report(args.restarts, args.seed)
    if args.format == "csv":
        print("distance,iterations,restarts")
        print(f"{res.distance:.17g},{res.iterations},{res.restarts}")
    else:
        print(f"distance={res.distance:.10f}")
        sys.stdout.write(write_rmat(res.minimizer.mat))
    return EXIT_TRUE


def _cmd_hurwitz_radon(args) -> int:
    b = stochastic.hurwitz_radon_matrix(args.seed)
    sys.stdout.write(write_rmat(b.mat))
    return EXIT_TRUE


def _require(args, *names) -> list[str]:
    values = [getattr(args, n) for n in names]
    missing = [n for n, v in zip(names, values) if v is None]
    if missing:
        raise _UsageError("construct " + args.kind + " requires "
                          + " ".join(f"--{n}" for n in missing))
    return values


def _cmd_construct(args) -> int:
    if args.kind == "special4":
        a, b = _require(args, "a", "b")
        m = hadamard.special4(hadamard.Special4Params(
            parse_quaternion(a), parse_quaternion(b)))
    elif args.kind == "generic4":
        a, x = _require(args, "a", "x")
        m = hadamard.generic4(hadamard.Generic4Params(
            parse_quaternion(a), parse_quaternion(x)))
    elif args.kind == "generic3":
        (a,) = _require(args, "a")
        m = hadamard.generic3(parse_quaternion(a), args.branch)
        if m is None:
            print("construct=none")
            return EXIT_FALSE
    else:
        (family,) = _require(args, "family")
        params = [float(p) for p in args.params.split(",")] if args.params else []
        m = hadamard.special3(family, params, args.variant)
    sys.stdout.write(write_qmat(m))
    return EXIT_TRUE


def _load_bases(paths) -> list[QMatrix]:
    bases: list[QMatrix] = []
    for path in paths:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
        bases.extend(mub.read_mubset_matrices(text))
    return bases


def _load_mubset(paths) -> mub.MubSet:
    bases = tuple(_load_bases(paths))
    return mub.MubSet(bases[0].rows, bases)


def _cmd_mub(args) -> int:
    if args.mub_command == "check":
        bases = _load_bases(args.files)
        try:
            mubset = mub.MubSet(bases[0].rows, tuple(bases))
        except QStochError as exc:
            print(f"mub=false size={len(bases)} reason={exc}")
            return EXIT_FALSE
        worst = 0.0
        for i in range(len(mubset)):
            for j in range(i + 1, len(mubset)):
                worst = max(worst, mub.cross_gram_deviation(
                    mubset.bases[i].data, mubset.bases[j].data))
        print(f"mub=true size={len(mubset)} worst_pair_deviation={worst:.3e}")
        return EXIT_TRUE
    if args.mub_command == "h2-complete":
        sys.stdout.write(mub.write_mubset(mub.complete_mub_h2()))
        return EXIT_TRUE
    if args.mub_command == "h3-one-param":
        sys.stdout.write(mub.write_mubset(mub.one_param_h3(args.s, args.t)))
        return EXIT_TRUE
    if args.mub_command == "h3-three-param":
        mubset = mub.three_param_h3(parse_quaternion(args.a),
                                    parse_quaternion(args.b),
                                    parse_quaternion(args.c))
        sys.stdout.write(mub.write_mubset(mubset))
        return EXIT_TRUE
    if args.mub_command == "extend":
        mubset = _load_mubset(args.files)
        found = mub.extend_search(mubset, args.grid, args.conj_grid)
        if found is None:
            print(f"extension=none grid={args.grid} conj_grid={args.conj_grid}")
            return EXIT_FALSE
        sys.stdout.write(write_qmat(found))
        return EXIT_TRUE
    if args.mub_command == "maximality":
        mubset = _load_mubset(args.files)
        viol, witness = mub.direct_maximality_search(mubset, args.restarts,
                                                     args.seed)
        if args.format == "csv":
            print("violation,restarts,seed")
            print(f"{viol:.17g},{args.restarts},{args.seed}")
        else:
            print(f"violation={viol:.3e} restarts={args.restarts}")
        return EXIT_TRUE if viol >= 1e-3 else EXIT_FALSE
    raise QStochError(f"unknown mub command {args.mub_command!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstoch",
        description="quaternionic stochastic-matrix and Hadamard/MUB toolkit")
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="entrywise squared-norm image")
    p.add_argument("file")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("verify-hadamard")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_verify_hadamard)

    p = sub.add_parser("verify-symplectic")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_verify_symplectic)

    p = sub.add_parser("dephase")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dephase)

    p = sub.add_parser("splits")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_splits)

    p = sub.add_parser("jacobian")
    p.add_argument("--map", choices=differential.MAP_KINDS, required=True)
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_jacobian)

    p = sub.add_parser("rank")
    p.add_argument("--map", choices=differential.MAP_KINDS, required=True)
    p.add_argument("--file", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_classify, cross_check=False)

    p = sub.add_parser("classify")
    p.add_argument("--map", choices=differential.MAP_KINDS, required=True)
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_classify, tol=1e-10, cross_check="auto")

    p = sub.add_parser("ortho3")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ortho3)

    p = sub.add_parser("sigma")
    p.add_argument("file")
    p.add_argument("--poly", action="store_true",
                   help="emit the twelve 4x4 polynomial residuals instead")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("bruteforce-ortho")
    p.add_argument("file")
    p.set_defaults(func=_cmd_bruteforce_ortho)

    p = sub.add_parser("distance-j3")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_distance_j3)

    p = sub.add_parser("hurwitz-radon")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_hurwitz_radon)

    p = sub.add_parser("construct")
    p.add_argument("kind",
                   choices=("special4", "generic4", "generic3", "special3"))
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--x")
    p.add_argument("--branch", choices=("+", "-"), default="+")
    p.add_argument("--family", choices=("s1", "s2", "s3", "s4", "s5"))
    p.add_argument("--params")
    p.add_argument("--variant", type=int, default=0)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("mub")
    msub = p.add_subparsers(dest="mub_command", required=True)

    m = msub.add_parser("check")
    m.add_argument("files", nargs="+")

    msub.add_parser("h2-complete")

    m = msub.add_parser("h3-one-param")
    m.add_argument("--s", type=float, required=True)
    m.add_argument("--t", type=float, required=True)

    m = msub.add_parser("h3-three-param")
    m.add_argument("--a", required=True)
    m.add_argument("--b", required=True)
    m.add_argument("--c", required=True)

    m = msub.add_parser("extend")
    m.add_argument("files", nargs="+")
    m.add_argument("--grid", type=int, default=64)
    m.add_argument("--conj-grid", type=int, default=32)

    m = msub.add_parser("maximality")
    m.add_argument("files", nargs="+")
    m.add_argument("--restarts", type=int, default=50)
    m.add_argument("--seed", type=int, default=0)

    p.set_defaults(func=_cmd_mub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QStochError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (_UsageError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
