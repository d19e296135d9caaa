#!/usr/bin/env python3
"""qstoch benchmark.

    python3 bench/run.py --workload h3_maximality --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Run it from any directory; it benchmarks the qstoch sources in ``src/``
next to this ``bench/`` directory and refuses to run without them.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Workloads,
metrics and the measured facts behind them are described in README.md.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREADS = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS = 3  # processes per untraced run; each sets up once
SPAWN_REPEATS = 5  # each of: bare interpreter, import, -X importtime
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Raised:
    """Stands in for the output of a job that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# code under test and machine
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qstoch").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def load_code_under_test() -> dict:
    """Import qstoch from this checkout's src/ and record which code it is."""
    init = SRC / "qstoch" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no qstoch sources at {SRC}; run from a qstoch checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qstoch
    import qstoch.cli  # noqa: F401  (imports every qstoch module)
    import_ms = 1e3 * (time.perf_counter() - start)
    if Path(qstoch.__file__).resolve() != init.resolve():
        raise BenchError(f"qstoch imported from {qstoch.__file__}, not {init}")
    top = _git("rev-parse", "--show-toplevel")
    commit = (_git("rev-parse", "HEAD")
              if top and Path(top).resolve() == ROOT else None)
    if commit and _git("status", "--porcelain", "--", "src"):
        raise BenchError(f"src/ differs from commit {commit}; commit it first")
    return {"qstoch_file": qstoch.__file__, "commit": commit or "unknown",
            "src_sha256": src_digest(), "import_ms": import_ms}


def check_child_import(env) -> None:
    """Child processes must import the same qstoch as this one."""
    done = subprocess.run(
        [sys.executable, "-c", "import qstoch.cli; print(qstoch.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    want = (SRC / "qstoch" / "cli.py").resolve()
    if done.returncode != 0 or Path(done.stdout.strip()).resolve() != want:
        raise BenchError(f"child processes import qstoch.cli from "
                         f"{done.stdout.strip() or done.stderr.strip()!r}")


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu_affinity": BLAS_THREADS, "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  With too few samples, the max."""
    s = sorted(values)
    idx = len(s) - 1 - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s) - 1
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - 1 - idx


def import_self_ms(text: str) -> dict[str, float]:
    """``-X importtime`` self times summed per top-level package, in ms."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        out[package] = out.get(package, 0.0) + int(self_us) / 1e3
    return out


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


def run_job(job, ctx):
    try:
        return job.run(ctx)
    except Exception as exc:  # a failing job is counted, not fatal
        return Raised(exc)


def timed_jobs(workload, seconds: float, cycles) -> list:
    """Closed loop over whole cycles of ``cycles``, stopping at the cycle
    boundary nearest to ``seconds`` (after one cycle at least), so every
    run holds the stated mix.  Returns [(job, wall_s, raw)]."""
    records = []
    ctx: dict = {}
    start = time.perf_counter()
    for c in cycles:
        cycle_start = time.perf_counter()
        for job in workload.cycle(c):
            t0 = time.perf_counter()
            raw = run_job(job, ctx)
            records.append((job, time.perf_counter() - t0, raw))
        end = time.perf_counter()
        if end - start + (end - cycle_start) / 2 >= seconds:
            return records
    return records


def traced_replay(jobs, tracer) -> list:
    """Run ``jobs`` again under the tracer; returns [(job, wall_s, raw)]."""
    import layers
    out = []
    layers.install(tracer)
    try:
        for i, job in enumerate(jobs):
            with tracer.job(f"{i}:{job.key}", job.kind) as span:
                raw = run_job(job, tracer.ctx)
            out.append((job, span.wall, raw))
    finally:
        tracer.restore()
    return out


def check(records) -> tuple[list, dict]:
    """Check every output.  Returns rows [key, kind, wall_s, summary, error]
    and the totals of the counters the checks read off the outputs."""
    rows, totals = [], {}
    for job, wall, raw in records:
        if isinstance(raw, Raised):
            rows.append([job.key, job.kind, wall, "", f"raised {raw.text}"])
            continue
        try:
            summary, err, counts = job.check(raw)
        except Exception as exc:  # a malformed output is a failed job
            summary, err, counts = "", f"check raised {exc!r}", {}
        rows.append([job.key, job.kind, wall, summary, err])
        for name, value in counts.items():
            totals[name] = totals.get(name, 0.0) + value
    return rows, totals


def failures(rows) -> list[str]:
    """One line per failed job: a wrong output, or an output that differs
    from an earlier run of the same key (same inputs)."""
    out, seen = [], {}
    for key, _, _, summary, err in rows:
        if err:
            out.append(f"{key}: {err}")
        elif seen.setdefault(key, summary) != summary:
            out.append(f"{key}: output differs between runs "
                       f"({seen[key]} / {summary})")
    return out


def by_kind(rows) -> dict[str, list]:
    kinds: dict[str, list] = {}
    for _, kind, wall, _, _ in rows:
        kinds.setdefault(kind, []).append(wall)
    return kinds


def mix_rate(rows, mix: dict[str, int], ok_frac: float) -> float:
    """Correct verdicts per second at the stated mix (``mix`` counts the
    jobs of each kind in one cycle), every job costed at its kind's median
    wall time: one slow outlier, such as a descent restart that runs to
    the iteration cap, moves the tail and not this rate."""
    kinds = by_kind(rows)
    cycle_s = sum(n * statistics.median(kinds[k]) for k, n in mix.items())
    return ok_frac * sum(mix.values()) / cycle_s


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def worker(workload, seed: int, seconds: float, index: int,
           spawned_at: float) -> dict:
    """One process of an untraced run: set up, then run cycles index,
    index + WORKERS, ... for ``seconds``."""
    workdir = OUT / f"{workload.name}-{os.getpid()}"
    try:
        workload.setup(seed, workdir)
        setup_s = time.monotonic() - spawned_at
        if not workload.in_process:
            check_child_import(workload.env)
        records = timed_jobs(workload, seconds,
                             itertools.count(index, WORKERS))
        rows, _ = check(records)
        mix = collections.Counter(job.kind for job in workload.cycle(index))
        return {"setup_s": setup_s, "rows": rows, "mix": mix,
                "peak_rss_mb": workload.peak_rss_mb(records)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(workload, seed: int, seconds: float):
    """Untraced run in WORKERS fresh processes, one after another, so that
    set-up is measured WORKERS times and no single process's placement
    decides the figures.  Returns (metrics, samples, failures, attempted)."""
    from workloads import spawn
    err = OUT / f"worker-{os.getpid()}.err"
    parts = []
    for index in range(WORKERS):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload",
                workload.name, "--seed", str(seed), "--seconds",
                str(seconds / WORKERS), "--worker", str(index),
                "--spawned-at", repr(time.monotonic())]
        _, code, out, _ = spawn(argv, dict(os.environ), ROOT, err)
        if code != 0:
            raise BenchError(f"worker {index} failed: {err.read_text()}")
        parts.append(json.loads(out.decode().strip().splitlines()[-1]))
    err.unlink()
    rows = [row for part in parts for row in part["rows"]]
    failed = failures(rows)
    walls = [row[2] for row in rows]
    tail_s, tail_pct, beyond = tail(walls)
    ok_frac = 1.0 - len(failed) / len(rows)
    mix = parts[0]["mix"]
    setup = [part["setup_s"] for part in parts]
    metrics = {
        "setup_s": statistics.median(setup),
        "verdicts_per_s": mix_rate(rows, mix, ok_frac),
        "latency_p50_ms": 1e3 * statistics.median(walls),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "ok_frac": ok_frac,
    }
    samples = {
        "setup_s": len(setup), "verdicts_per_s": len(rows),
        "latency_p50_ms": len(walls),
        "latency_tail_ms": f"{len(walls)}, p{tail_pct:.1f}, {beyond} beyond",
        "peak_rss_mb": len(parts), "ok_frac": len(rows),
        "kind_n_p50_max_ms": {
            k: [len(v), round(1e3 * statistics.median(v), 3),
                round(1e3 * max(v), 3)]
            for k, v in sorted(by_kind(rows).items())},
    }
    return metrics, samples, failed, len(rows)


def traced(workload, seed: int, seconds: float, code: dict):
    """Traced run in one process: half the time untraced, then the same
    jobs traced.  Returns (metrics, samples, failures, attempted, tracer)."""
    import layers
    from tracer import Tracer
    from workloads import spawn

    tracer = Tracer()
    records = timed_jobs(workload, seconds / 2, itertools.count())
    rows, _ = check(records)
    untraced_walls = [wall for _, wall, _ in records]
    extra = {"import.qstoch_ms": code["import_ms"]}
    samples = {"jobs": len(records)}
    if workload.in_process:
        replay_jobs = [job for job, _, _ in records]
    else:
        # the verbs in-process through cli.main: once untraced, once traced
        env, err = workload.env, OUT / f"spawn-{os.getpid()}.err"
        p50_ms = 1e3 * statistics.median(untraced_walls)
        interp = [spawn([sys.executable, "-c", "pass"], env, ROOT, err)[0]
                  for _ in range(SPAWN_REPEATS)]
        imported = [spawn([sys.executable, "-c", "import qstoch.cli"],
                          env, ROOT, err)[0] for _ in range(SPAWN_REPEATS)]
        packages: dict[str, list] = {"scipy": [], "numpy": []}
        for _ in range(SPAWN_REPEATS):
            spawn([sys.executable, "-X", "importtime", "-c", "import qstoch.cli"],
                  env, ROOT, err)
            by_package = import_self_ms(err.read_text())
            for name, values in packages.items():
                values.append(by_package.get(name, 0.0))
        err.unlink()
        replay_jobs = workload.in_process_jobs
        untraced = []
        for job in replay_jobs:
            t0 = time.perf_counter()
            raw = run_job(job, {})
            untraced.append((job, time.perf_counter() - t0, raw))
        rows += check(untraced)[0]
        untraced_walls = [wall for _, wall, _ in untraced]
        interp_ms = 1e3 * statistics.median(interp)
        import_ms = 1e3 * statistics.median(imported) - interp_ms
        main_ms = 1e3 * statistics.median(untraced_walls)
        extra.update({
            "cli.interp_start_ms": interp_ms,
            "cli.import_ms": import_ms,
            "cli.import.scipy_ms": statistics.median(packages["scipy"]),
            "cli.import.numpy_ms": statistics.median(packages["numpy"]),
            "cli.main_ms": main_ms,
            "cli.spawn_overhead_ms": p50_ms - interp_ms - import_ms - main_ms,
            "cli.import.p50_frac": import_ms / p50_ms,
        })
        samples.update({"cli.spawns": SPAWN_REPEATS, "cli.main_ms": len(untraced),
                        "cli.p50_ms": len(records)})
    replayed = traced_replay(replay_jobs, tracer)
    traced_rows, totals = check(replayed)
    rows += traced_rows
    for name, value in totals.items():
        tracer.count(name, value)
    extra["trace.overhead_frac"] = (sum(w for _, w, _ in replayed)
                                    / sum(untraced_walls) - 1.0)
    samples["traced_jobs"] = len(replayed)
    metrics = layers.per_layer_metrics(tracer, extra)
    return metrics, samples, failures(rows), len(rows), tracer


def report(metrics: dict, units: dict, samples: dict, failed: list,
           attempted: int, info: dict) -> None:
    print("record " + json.dumps(info, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:16.6f} {units[name]}")
    for line in failed[:20]:
        print("FAILED " + line)
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced, each in its own process."""
    from workloads import WORKLOADS
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            raise BenchError(f"{name} failed: {done.stderr.strip()}")
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}")
        print("\n".join(line for line in lines[:-1] if line.startswith(" ")))
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=("h3_maximality", "oracles", "cli_verbs", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one process of an untraced run, started by end_to_end
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        code = load_code_under_test()
        import workloads
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        workload = workloads.WORKLOADS[args.workload]()
        if args.worker is not None:
            print(json.dumps(worker(workload, args.seed, args.seconds,
                                    args.worker, args.spawned_at)))
            return 0
        info = {"machine": machine(), "code": code, "workload": args.workload,
                "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        if not args.trace:
            metrics, samples, failed, attempted = end_to_end(
                workload, args.seed, args.seconds)
            units = END_TO_END
        else:
            import layers
            workdir = OUT / f"{args.workload}-{os.getpid()}"
            try:
                workload.setup(args.seed, workdir)
                if not workload.in_process:
                    check_child_import(workload.env)
                metrics, samples, failed, attempted, tracer = traced(
                    workload, args.seed, args.seconds, code)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            units = layers.PER_LAYER
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(
                {**info, "metrics": metrics, **tracer.dump()}))
            info["trace_file"] = str(trace_file.relative_to(ROOT))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(metrics, units, samples, failed, attempted, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
