"""The traced layers: which library names are wrapped, and how a trace dump
becomes the per-layer metrics of ``BENCHMARK.json``.

``profiles`` and ``cli`` get no hook: profile realisation is well under 1%
of every workload and the benchmark calls the library, not the CLI.
"""

from __future__ import annotations

from tracer import Hook, self_times


def _count_matrices(tracer, args, kwargs, result) -> None:
    tracer.bump("montecarlo.haar_batch.matrices", args[1] if len(args) > 1 else kwargs["count"])


def _crosscheck(tracer, args, kwargs, result) -> None:
    route_a, route_b = result
    tracer.bump("exact_moments.crosscheck.pairs")
    tracer.bump("exact_moments.crosscheck.agree", int(route_a == route_b))


MC = "ringmoments.montecarlo:"
EX = "ringmoments.exact_moments:"
HOOKS = [
    Hook("montecarlo.haar_batch", MC + "haar_batch", observe=_count_matrices),
    Hook("montecarlo.sample_A_batch", MC + "sample_A_batch"),
    Hook("montecarlo.extreme_eigenvalues", MC + "extreme_eigenvalues"),
    Hook("montecarlo.spectrum_records", MC + "spectrum_records"),
    Hook("weingarten.wg_class_table", "ringmoments.weingarten:wg_class_table"),
    Hook("weingarten.wg_character_table", "ringmoments.weingarten:wg_character_table"),
    Hook("haar_moments.entry_moment", "ringmoments.haar_moments:entry_moment"),
    Hook("exact_moments.f_paths", EX + "f_paths", observe=_crosscheck),
    Hook("exact_moments.g_paths", EX + "g_paths", observe=_crosscheck),
    Hook("exact_moments.trace_moment_uu", EX + "trace_moment_uu"),
    Hook("exact_moments.trace_moment_sq", EX + "trace_moment_sq"),
    Hook("permutations.Permutation.mul", "ringmoments.permutations:Permutation.__mul__", span=False),
    Hook("permutations.Permutation.init", "ringmoments.permutations:Permutation.__init__", span=False),
]

# (metric, unit, better); the name's last part says where the value comes from
PER_LAYER = [
    ("montecarlo.haar_batch.calls", "count", "lower"),
    ("montecarlo.haar_batch.matrices", "count", "lower"),
    ("montecarlo.haar_batch.self_s", "s", "lower"),
    ("montecarlo.sample_A_batch.self_s", "s", "lower"),
    ("montecarlo.extreme_eigenvalues.calls", "count", "lower"),
    ("montecarlo.extreme_eigenvalues.self_s", "s", "lower"),
    ("montecarlo.spectrum_records.self_s", "s", "lower"),
    ("weingarten.wg_class_table.builds", "count", "lower"),
    ("weingarten.wg_class_table.self_s", "s", "lower"),
    ("weingarten.wg_character_table.builds", "count", "lower"),
    ("weingarten.wg_character_table.self_s", "s", "lower"),
    ("haar_moments.entry_moment.calls", "count", "lower"),
    ("haar_moments.entry_moment.self_s", "s", "lower"),
    ("exact_moments.f_paths.calls", "count", "lower"),
    ("exact_moments.f_paths.self_s", "s", "lower"),
    ("exact_moments.g_paths.calls", "count", "lower"),
    ("exact_moments.g_paths.self_s", "s", "lower"),
    ("exact_moments.trace_moment_uu.self_s", "s", "lower"),
    ("exact_moments.trace_moment_sq.self_s", "s", "lower"),
    ("exact_moments.crosscheck.agree_ratio", "ratio", "higher"),
    ("permutations.Permutation.mul.calls", "count", "lower"),
    ("permutations.Permutation.init.calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

CROSSCHECKED = {"exact_moments.f_paths", "exact_moments.g_paths"}
COUNT_METRICS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def layer_values(dump: dict, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics from one trace dump.  A layer the workload does
    not reach reads 0.  A metric whose hook is absent is left out, so that a
    comparison cannot mistake a lost hook for a gain."""
    selfs = self_times(dump["spans"])
    counts, builds = dump["counts"], dump["builds"]
    pairs = counts.get("exact_moments.crosscheck.pairs", 0)
    absent = set(dump["absent"])
    values: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if layer in absent or (field == "agree_ratio" and CROSSCHECKED <= absent):
            continue
        if field == "self_s":
            values[name] = selfs.get(layer, 0.0)
        elif field == "builds":
            values[name] = builds.get(layer, 0)
        elif name == "exact_moments.crosscheck.agree_ratio":
            agree = counts.get("exact_moments.crosscheck.agree", 0)
            values[name] = agree / pairs if pairs else 0.0
        elif name == "trace.overhead_s":
            values[name] = overhead_s
        else:
            values[name] = counts.get(name, 0)
    return values
