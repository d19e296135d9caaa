"""Which qstoch bindings the traced run wraps, and the per-layer metrics.

A span name is ``<layer>.<function>``; the layer is the qstoch module that
owns the code (``qmatrix``, ``quaternion``, ``hadamard``, ``mub``,
``stochastic``, ``differential``, ``cli``).  The root span of each job is
named ``job.<kind>``; its self time is benchmark glue plus program code
that runs outside every wrapped call, and is reported as ``bench``.
"""

from __future__ import annotations

QMAT_SMALL = "qmatrix.qmat_mul.small"   # every dimension <= 4
QMAT_MID = "qmatrix.qmat_mul.mid"
QMAT_LARGE = "qmatrix.qmat_mul.large"   # some dimension >= 32
FLOPS_PER_QMUL = 28  # 16 multiplies and 12 adds per Hamilton product

LAYERS = ("quaternion", "qmatrix", "hadamard", "mub", "stochastic",
          "differential", "cli", "bench")

# name -> unit, in the order they are printed
PER_LAYER = {
    "qmatrix.qmul.calls": "count",
    "qmatrix.qmul.products": "count",
    "qmatrix.qmul.self_s": "s",
    "qmatrix.qmul.gflops": "GFLOP/s",
    "qmatrix.qmat_mul.small.self_s": "s",
    "qmatrix.qmat_mul.small.total_s": "s",
    "qmatrix.qmat_mul.large.self_s": "s",
    "qmatrix.qmat_mul.large.total_s": "s",
    "qmatrix.gram_schmidt_columns.calls": "count",
    "qmatrix.gram_schmidt_columns.self_s": "s",
    "qmatrix.read_matrix_text.self_s": "s",
    "qmatrix.read_matrix_text.bytes": "bytes",
    "qmatrix.write_qmat.self_s": "s",
    "quaternion.parse_quaternion.self_s": "s",
    "hadamard.frames": "count",
    "hadamard.family_gen.self_s": "s",
    "hadamard.family_gen.total_s": "s",
    "hadamard.special3.feasible_ratio": "ratio",
    "mub.extend.candidates": "count",
    "mub.extend.survivors": "count",
    "mub.extend.survivor_ratio": "ratio",
    "mub.extend.near_misses": "count",
    "mub.extend.self_s": "s",
    "mub.descent.restarts": "count",
    "mub.descent.retractions": "count",
    "mub.direct_search.self_s": "s",
    "stochastic.sigma.calls": "count",
    "stochastic.sigma.self_s": "s",
    "stochastic.sigma.sign_vectors": "count",
    "stochastic.sigma.early_exits": "count",
    "stochastic.bruteforce.calls": "count",
    "stochastic.bruteforce.self_s": "s",
    "stochastic.distance_j3.iterations": "count",
    "stochastic.distance_j3.self_s": "s",
    "stochastic.minimize.self_s": "s",
    "differential.jacobian.self_s": "s",
    "differential.rank_report.self_s": "s",
    "differential.classify.pattern_s": "s",
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import.scipy_ms": "ms",
    "cli.import.numpy_ms": "ms",
    "cli.main_ms": "ms",
    "cli.spawn_overhead_ms": "ms",
    "cli.import.p50_frac": "ratio",
    "import.qstoch_ms": "ms",
    **{f"{layer}.self_frac": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


def _qmat_name(args, kwargs) -> str:
    a, b = args[0], args[1]
    n = max(a.shape[-3], a.shape[-2], b.shape[-2])
    if n <= 4:
        return QMAT_SMALL
    return QMAT_LARGE if n >= 32 else QMAT_MID


def install(tracer) -> None:
    """Wrap every traced binding.  ``tracer.restore()`` undoes it."""
    from qstoch import cli, differential, hadamard, mub, qmatrix, stochastic
    from qstoch.qmatrix import QMatrix

    count = tracer.count

    def products(args, kwargs, result):
        count("qmatrix.qmul.products", result.size // 4)

    def survivors(args, kwargs, result):
        # the survivor check multiplies one batch of candidates by each of
        # the set's bases; the running job puts the base count in ctx
        if args[0].ndim == 4:
            count("mub.extend.survivors",
                  args[0].shape[0] / tracer.ctx.get("targets", 1))

    def retraction(args, kwargs, result):
        count("mub.descent.retractions")

    def restarts(args, kwargs, result):
        count("mub.descent.restarts",
              args[1] if len(args) > 1 else kwargs.get("restarts", 50))

    def feasible(args, kwargs, result):
        count("hadamard.special3.feasible")

    def frames(args, kwargs, result):
        count("hadamard.frames", result.shape[0])

    def chunk_frames(item):
        count("hadamard.frames", item.shape[0])

    def iterations(args, kwargs, result):
        count("stochastic.distance_j3.iterations", result.iterations)

    def text_bytes(args, kwargs, result):
        count("qmatrix.read_matrix_text.bytes", len(args[0]))

    w = tracer.wrap
    # kernels, wrapped at each module that binds them
    for mod in (qmatrix, mub, hadamard, differential):
        w(mod, "qmul", "qmatrix.qmul", after=products)
    w(qmatrix, "qmat_mul", _qmat_name)
    w(mub, "qmat_mul", _qmat_name, after=survivors)
    w(qmatrix, "gram_schmidt_columns", "qmatrix.gram_schmidt_columns")
    w(mub, "gram_schmidt_columns", "qmatrix.gram_schmidt_columns",
      after=retraction)
    for attr in ("qconj", "qnormsq", "qmat_adjoint"):
        w(mub, attr, "qmatrix.elementwise")
    w(QMatrix, "unitary_defect", "qmatrix.unitary_defect")
    w(QMatrix, "is_hadamard", "qmatrix.is_hadamard")
    w(qmatrix, "read_matrix_text", "qmatrix.read_matrix_text", after=text_bytes)
    for mod in (qmatrix, mub, cli):
        w(mod, "write_qmat", "qmatrix.write_qmat")
    for mod in (qmatrix, cli):
        w(mod, "write_rmat", "qmatrix.write_rmat")
    w(qmatrix, "parse_quaternion", "quaternion.parse_quaternion")
    w(qmatrix, "format_quaternion", "quaternion.format_quaternion")
    # hadamard family generation, as mub.extend_search reaches it
    tracer.wrap_generator(hadamard, "generic_family_chunks",
                          "hadamard.family_gen", after=chunk_frames)
    w(hadamard, "special_family_points", "hadamard.family_gen", after=frames)
    w(hadamard, "special3", "hadamard.special3", after=feasible)
    # mub entry points
    w(mub, "extend_search", "mub.extend_search", record=True)
    w(mub, "direct_maximality_search", "mub.direct_maximality_search",
      record=True, after=restarts)
    for attr in ("one_param_h3", "three_param_h3"):
        w(mub, attr, "mub.construct")
    # stochastic
    w(stochastic, "sigma_pair_minima", "stochastic.sigma_pair_minima",
      record=True)
    w(stochastic, "orthostochastic_bruteforce", "stochastic.bruteforce",
      record=True)
    w(stochastic, "ortho3_test", "stochastic.ortho3_test")
    w(stochastic, "sigma_poly_4", "stochastic.sigma_poly_4")
    w(stochastic, "distance_j3_report", "stochastic.distance_j3_report",
      record=True, after=iterations)
    w(stochastic, "minimize", "stochastic.minimize")
    w(stochastic, "phi", "stochastic.phi")
    # differential
    w(differential, "jacobian", "differential.jacobian")
    w(differential, "rank_report", "differential.rank_report")
    w(differential, "classify_point", "differential.classify_point",
      record=True)
    # cli, run in-process
    w(cli, "main", "cli.main", record=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric; ``extra`` supplies the ones measured outside
    the tracer (import and spawn timings, the overhead ratio)."""
    t, c = tracer, tracer.counters
    qmul_self = t.self_s("qmatrix.qmul")
    survivors = c["mub.extend.survivors"]
    candidates = c["mub.extend.candidates"]
    job_wall = sum(s["end"] - s["start"] for s in t.spans
                   if s["name"].startswith("job."))
    layer_self = t.layer_self_s()
    layer_self["bench"] = layer_self.pop("job", 0.0)
    out = {
        "qmatrix.qmul.calls": t.calls("qmatrix.qmul"),
        "qmatrix.qmul.products": c["qmatrix.qmul.products"],
        "qmatrix.qmul.self_s": qmul_self,
        "qmatrix.qmul.gflops": _ratio(
            FLOPS_PER_QMUL * c["qmatrix.qmul.products"], qmul_self) / 1e9,
        "qmatrix.qmat_mul.small.self_s": t.self_s(QMAT_SMALL),
        "qmatrix.qmat_mul.small.total_s": t.total_s(QMAT_SMALL),
        "qmatrix.qmat_mul.large.self_s": t.self_s(QMAT_LARGE),
        "qmatrix.qmat_mul.large.total_s": t.total_s(QMAT_LARGE),
        "qmatrix.gram_schmidt_columns.calls":
            t.calls("qmatrix.gram_schmidt_columns"),
        "qmatrix.gram_schmidt_columns.self_s":
            t.self_s("qmatrix.gram_schmidt_columns"),
        "qmatrix.read_matrix_text.self_s": t.self_s("qmatrix.read_matrix_text"),
        "qmatrix.read_matrix_text.bytes": c["qmatrix.read_matrix_text.bytes"],
        "qmatrix.write_qmat.self_s": t.self_s("qmatrix.write_qmat"),
        "quaternion.parse_quaternion.self_s":
            t.self_s("quaternion.parse_quaternion"),
        "hadamard.frames": c["hadamard.frames"],
        "hadamard.family_gen.self_s": t.self_s("hadamard.family_gen"),
        "hadamard.family_gen.total_s": t.total_s("hadamard.family_gen"),
        "hadamard.special3.feasible_ratio": _ratio(
            c["hadamard.special3.feasible"], t.calls("hadamard.special3")),
        "mub.extend.candidates": candidates,
        "mub.extend.survivors": survivors,
        "mub.extend.survivor_ratio": _ratio(survivors, candidates),
        "mub.extend.near_misses": c["mub.extend.near_misses"],
        "mub.extend.self_s": t.self_s("mub.extend_search"),
        "mub.descent.restarts": c["mub.descent.restarts"]
        + c["mub.extend.near_misses"],
        "mub.descent.retractions": c["mub.descent.retractions"],
        "mub.direct_search.self_s": t.self_s("mub.direct_maximality_search"),
        "stochastic.sigma.calls": t.calls("stochastic.sigma_pair_minima"),
        "stochastic.sigma.self_s": t.self_s("stochastic.sigma_pair_minima"),
        "stochastic.sigma.sign_vectors": c["stochastic.sigma.sign_vectors"],
        "stochastic.sigma.early_exits": c["stochastic.sigma.early_exits"],
        "stochastic.bruteforce.calls": t.calls("stochastic.bruteforce"),
        "stochastic.bruteforce.self_s": t.self_s("stochastic.bruteforce"),
        "stochastic.distance_j3.iterations":
            c["stochastic.distance_j3.iterations"],
        "stochastic.distance_j3.self_s":
            t.self_s("stochastic.distance_j3_report"),
        "stochastic.minimize.self_s": t.self_s("stochastic.minimize"),
        "differential.jacobian.self_s": t.self_s("differential.jacobian"),
        "differential.rank_report.self_s": t.self_s("differential.rank_report"),
        "differential.classify.pattern_s":
            t.self_s("differential.classify_point"),
        **{f"{layer}.self_frac": _ratio(layer_self.get(layer, 0.0), job_wall)
           for layer in LAYERS},
    }
    for name in PER_LAYER:
        out.setdefault(name, extra.get(name, 0.0))
    return {k: float(out[k]) for k in PER_LAYER}
