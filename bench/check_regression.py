#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json trajectory.

Compares the current bench outputs (BENCH_kernels.json, BENCH_runtime.json,
BENCH_serving.json, BENCH_cluster.json, BENCH_cache.json,
BENCH_shard.json, BENCH_search.json, BENCH_adaptive.json,
BENCH_obs.json, plus the BREAKDOWN_obs.json latency-attribution
artifact) against the recorded baselines in bench/baselines/ and fails
(exit 1) with a delta table when a gated metric regresses beyond the
tolerance (+-25%) or a file breaks its schema.

Every gated file is one ``Bench`` entry in the ``BENCHES`` table below;
adding a bench means adding one entry.  An entry holds

- schema predicates: absolute checks on one file (``.bench == "cache"``,
  ``.results[].hits + coalesced + misses == requests``, headline bits
  that must be true).  They run first, on the baseline and on the
  current file; each violation is printed with the file and its JSON path
  and fails the run;
- gate rows: ``(mode, field, ...)`` groups and keyed ``Cells``
  collections, walked in order against the baseline.  Modes are

  - ``exact``: deterministic counts, policy names and headline bits.
    The batch former, router, cache and tracer are trace-driven in
    virtual time, so any drift is a policy change, not noise;
  - ``higher``: dimensionless ratios (kernel speedups over the scalar
    reference, the workspace-reuse speedup), checked against
    ``baseline * (1 - tolerance)`` -- improvements never fail;
  - ``info-higher`` / ``info-lower``: absolute measurements (GFLOP/s,
    milliseconds, tokens/s) and thread-scaling factors, which vary with
    the host that recorded the baseline: reported, never enforced;
  - ``info``: host facts with no direction, such as the dispatched int8
    kernel ISA in the ``host`` stamp: reported, never enforced.

  A baseline cell with no current match, or a current cell the baseline
  lacks, is a FAIL row naming the cell.

``--update`` re-records the baselines instead of gating: every current
file is copied over its counterpart in the baselines directory, provided
all of them exist and pass their schema.  Use it from a fresh local run
in the same PR that justifies the shift.

The table is printed to stdout and, when $GITHUB_STEP_SUMMARY is set,
appended there as Markdown so every CI run shows its perf trajectory.
"""

import argparse
import collections
import json
import os
import shutil
import sys

OK, FAIL, INFO = "ok", "FAIL", "info"

# Allowed relative regression on ``higher`` / ``lower`` rows.
TOLERANCE = 0.25


class _Missing:
    def __repr__(self):
        return "missing"


# What ``resolve`` yields for an absent key, index or container.
MISSING = _Missing()


def resolve(doc, path):
    """(JSON path, value) pairs for a dotted ``path`` such as ``a.b[].c``.

    ``x[]`` fans out over every element of list ``x`` and ``x[0]`` takes
    one; an absent key, index or container resolves to MISSING.
    """
    nodes = [("", doc)]
    for segment in filter(None, path.split(".")):
        name, _, index = segment.partition("[")
        nxt = []
        for where, value in nodes:
            if name:
                where += "." + name
                value = value.get(name, MISSING) if isinstance(
                    value, dict) else MISSING
            if index == "]":
                if isinstance(value, list):
                    nxt += [("%s[%d]" % (where, i), v)
                            for i, v in enumerate(value)]
                else:
                    nxt.append((where + "[]", MISSING))
            elif index:
                i = int(index[:-1])
                where += "[%d]" % i
                ok = isinstance(value, list) and i < len(value)
                nxt.append((where, value[i] if ok else MISSING))
            else:
                nxt.append((where, value))
        nodes = nxt
    return nodes


def fetch(doc, path):
    """The one value at a ``[]``-free path; ``a|length`` is len(a)."""
    length = path.endswith("|length")
    [(_, value)] = resolve(doc, path.removesuffix("|length"))
    if length:
        return len(value) if isinstance(value, list) else MISSING
    return value


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class Check:
    """One schema predicate: ``test`` on the value at a path, described by
    ``what``.  A value of the wrong shape (absent, wrong type) fails it."""

    def __init__(self, what, test):
        self.what = what
        self.test = test

    def holds(self, value):
        if value is MISSING:
            return False
        try:
            return bool(self.test(value))
        except (KeyError, IndexError, TypeError, AttributeError):
            return False


NUM = Check("a number", is_num)
STR = Check("a string", lambda v: isinstance(v, str))
BOOL = Check("a boolean", lambda v: isinstance(v, bool))
OBJECT = Check("an object", lambda v: isinstance(v, dict))


def eq(x):
    def test(v):
        # JSON true is not 1, though Python's True == 1.
        return v == x and isinstance(v, bool) == isinstance(x, bool)
    return Check("== %s" % json.dumps(x), test)


TRUE = eq(True)


def ge(x):
    return Check(">= %s" % x, lambda v: is_num(v) and v >= x)


def gt(x):
    return Check("> %s" % x, lambda v: is_num(v) and v > x)


def le(x):
    return Check("<= %s" % x, lambda v: is_num(v) and v <= x)


def lt(x):
    return Check("< %s" % x, lambda v: is_num(v) and v < x)


def length(n):
    return Check("length >= %d" % n,
                 lambda v: isinstance(v, (list, str)) and len(v) >= n)


def has(*keys):
    return Check("has %s" % ", ".join(keys),
                 lambda v: isinstance(v, dict) and all(k in v for k in keys))


class Cells:
    """A keyed collection of gated cells.

    Each baseline cell at ``path`` is matched to the current cell with the
    same ``key`` fields (by position when ``key`` is None) and gated by
    ``rows``.  ``name`` labels a matched cell's rows and ``missing`` an
    unmatched cell; both are ``str.format`` patterns over the key.
    """

    def __init__(self, path, key, name, rows, missing=None):
        self.path = path
        self.key = key
        self.name = name
        self.rows = rows
        self.missing = missing or name

    def cells(self, doc):
        """(key, cell) pairs in file order; none when ``path`` is absent."""
        cells = fetch(doc, self.path)
        if not isinstance(cells, list):
            return []
        if self.key is None:
            return [((i,), cell) for i, cell in enumerate(cells)]
        # List or object key values compare by their JSON text so that a
        # malformed current file cannot make a key unhashable.
        return [(tuple(json.dumps(v) if isinstance(v, (list, dict)) else v
                       for v in (fetch(cell, k) for k in self.key)), cell)
                for cell in cells]


def label(pattern, key):
    return pattern.format(*("%g" % v if isinstance(v, float) else v
                            for v in key))


Bench = collections.namedtuple("Bench", "file name schema rows")

BENCHES = [
    Bench("BENCH_kernels.json", "kernels", schema=[
        ("bench", eq("kernels")),
        ("schema_version", eq(1)),
        ("arch", STR),
        ("shapes", length(4)),
        ("shapes[].m", ge(1)),
        ("shapes[].k", ge(1)),
        ("shapes[].n", ge(1)),
        ("shapes[].scalar_gflops", NUM),
        ("shapes[].tiled_gflops", NUM),
        ("shapes[].speedup", NUM),
        ("min_speedup", NUM),
        ("geomean_speedup", NUM),
        ("int8_shapes", length(3)),
        ("int8_shapes[].label", STR),
        ("int8_shapes[].m", ge(1)),
        ("int8_shapes[].k", ge(1)),
        ("int8_shapes[].n", ge(1)),
        ("int8_shapes[].scalar_gops", NUM),
        ("int8_shapes[].packed_gops", NUM),
        ("int8_shapes[].speedup", NUM),
        ("int8_shapes[].prepacked_gops", NUM),
        ("int8_min_speedup", NUM),
        ("int8_pack_layer_ms", NUM),
        ("atsel_shapes", length(6)),
        ("atsel_shapes[].label", STR),
        ("atsel_shapes[].n", ge(1)),
        ("atsel_shapes[].d", ge(1)),
        ("atsel_shapes[].top_k", ge(1)),
        ("atsel_shapes[].bits", ge(1)),
        ("atsel_shapes[].reference_us", NUM),
        ("atsel_shapes[].select_us", NUM),
        ("atsel_shapes[].speedup", NUM),
        ("atsel_shapes[].bit_exact", TRUE),
        ("atsel_shapes[].attention_us", NUM),
        ("atsel_shapes[].select_share", NUM),
        ("atsel_min_speedup", NUM),
        ("gelu_speedup", NUM),
        # GELU is the one float op that is not libm-exact: its declared
        # error bound against a double-precision GELU.
        ("gelu_max_abs_err", le(1e-6)),
        # Every elementwise body the host runs (GELU, quantize) must give
        # the portable body's bits.
        ("elementwise_arch", STR),
        ("gelu_isas", length(1)),
        ("gelu_isas[].isa", STR),
        ("gelu_isas[].us", NUM),
        ("gelu_isas[].bit_exact", TRUE),
        ("quantize_shapes", length(2)),
        ("quantize_shapes[].label", STR),
        ("quantize_shapes[].isas", length(1)),
        ("quantize_shapes[].isas[].isa", STR),
        ("quantize_shapes[].isas[].us", NUM),
        ("quantize_shapes[].isas[].bit_exact", TRUE),
    ], rows=[
        # The int8 kernel ISA is picked at run time, so a baseline recorded
        # on another host may name another one: shown next to the ratios
        # it explains, not gated.
        ("info", ("kernel_arch", "host.kernel_arch")),
        ("info", ("elementwise_arch", "elementwise_arch")),
        ("higher", "min_speedup", "geomean_speedup", "int8_min_speedup",
         "atsel_min_speedup", "gelu_speedup"),
        # Packing one BERT-base layer's int8 weights at load: host time.
        ("info-lower", "int8_pack_layer_ms"),
        Cells("shapes", ("label",), "{}", missing="shape {}", rows=[
            ("info-higher", "speedup", "tiled_gflops"),
        ]),
        # Float and int8 cells share labels, so int8 rows carry a prefix.
        Cells("int8_shapes", ("label",), "int8 {}", missing="shape int8 {}",
              rows=[
                  ("info-higher", "speedup", "packed_gops",
                   "prepacked_gops"),
              ]),
        Cells("atsel_shapes", ("label",), "{}", missing="shape {}", rows=[
            ("info-higher", "speedup"),
            ("info-lower", "select_us", "attention_us", "select_share"),
        ]),
    ]),
    Bench("BENCH_runtime.json", "runtime", schema=[
        ("bench", eq("runtime")),
        ("schema_version", eq(1)),
        ("workspace.alloc_ms", NUM),
        ("workspace.workspace_ms", NUM),
        ("workspace.speedup", NUM),
        ("scaling", length(3)),
        ("scaling[].threads", ge(1)),
        ("scaling[].ms_per_batch", NUM),
        ("scaling[].tokens_per_s", NUM),
    ], rows=[
        ("higher", "workspace.speedup"),
        ("info-lower", "workspace.workspace_ms"),
        # Scaling factors depend on the recording host's core count (a
        # 1-core baseline would make the gate vacuous on CI and a CI
        # baseline would flake on smaller hosts), so report-only.
        Cells("scaling", ("threads",), "scaling[{}]",
              missing="scaling threads={}", rows=[
                  ("info-higher", "speedup", "tokens_per_s"),
              ]),
    ]),
    Bench("BENCH_cluster.json", "cluster", schema=[
        ("bench", eq("cluster")),
        ("schema_version", eq(1)),
        ("results", length(1)),
        ("results[].requests", ge(1)),
        ("results[].batches", ge(1)),
        ("results[].replicas", ge(2)),
        ("results[].policy", STR),
        ("results[]", Check("admitted == requests",
                             lambda r: r["admitted"] == r["requests"])),
        ("results[].rejected", eq(0)),
        ("results[].mean_batch_fill", gt(0), le(1.000001)),
        ("results[]", has("p50_ms", "p99_ms")),
        ("results[].throughput_rps", NUM),
        ("results[].request_imbalance", ge(1)),
        ("comparisons", length(1)),
        ("comparisons[].fill_gain", NUM),
        ("comparisons[].p99_ratio", NUM),
        ("comparisons[].bucketed_wins", BOOL),
        ("bucketed_beats_round_robin", TRUE),
    ], rows=[
        # Routing and forming are trace-driven: counts must match exactly.
        Cells("results", ("arrival_rps", "replicas", "policy"),
              "rps={}/x{}/{}", rows=[
                  ("exact", "requests", "batches", "admitted", "rejected",
                   "rerouted"),
                  ("info-higher", ("fill", "mean_batch_fill")),
                  ("info-lower", "p99_ms"),
              ]),
        Cells("comparisons", ("arrival_rps", "replicas"), "rps={}/x{}",
              missing="comparison rps={}/x{}", rows=[
                  ("info-higher", "fill_gain"),
                  ("info-lower", "p99_ratio"),
              ]),
        # The headline the ROADMAP acceptance rides on: once recorded true,
        # the bucketed-beats-round-robin bit may never silently flip back.
        ("exact", "bucketed_beats_round_robin"),
    ]),
    Bench("BENCH_cache.json", "cache", schema=[
        ("bench", eq("cache")),
        ("schema_version", eq(1)),
        ("results", length(1)),
        ("results[].requests", ge(1)),
        ("results[].population", ge(1)),
        ("results[].eviction", STR),
        ("results[].duplicate_rate", ge(0), le(1)),
        ("results[]", Check(
            "hits + coalesced + misses == requests",
            lambda r: r["hits"] + r["coalesced"] + r["misses"]
            == r["requests"])),
        ("results[].hit_rate", ge(0), le(1)),
        ("results[]", has("cached_p99_ms", "uncached_p99_ms")),
        ("results[].p99_ratio", NUM),
        ("results[].throughput_gain", NUM),
        ("results[].wins", BOOL),
        ("results", Check("any(.gated)",
                           lambda rs: any(r.get("gated") for r in rs))),
        ("cache_beats_uncached_at_dup_gate", TRUE),
    ], rows=[
        # The trace, the cache and the virtual clock are all
        # deterministic: lookup outcomes and store churn match exactly.
        Cells("results", ("population", "skew", "eviction"),
              "pop={}/s={}/{}", rows=[
                  ("exact", "requests", "batches", "hits", "coalesced",
                   "misses", "evictions", "insertions"),
                  ("info-lower", "p99_ratio"),
                  ("info-higher", "throughput_gain"),
              ]),
        # The headline: once recorded true, the cached-beats-uncached-at-
        # >=20%-duplicates bit may never flip back.
        ("exact", "cache_beats_uncached_at_dup_gate"),
    ]),
    Bench("BENCH_serving.json", "serving", schema=[
        ("bench", eq("serving")),
        ("schema_version", eq(1)),
        ("results", length(1)),
        ("results[].requests", ge(1)),
        ("results[].batches", ge(1)),
        ("results[]", has("p50_ms", "p95_ms", "p99_ms")),
        ("results[].throughput_rps", NUM),
        ("results[].busy_frac", ge(0), le(1.000001)),
        ("results[].exec_wall_s", NUM),
    ], rows=[
        Cells("results", ("arrival_rps", "policy"), "rps={}/{}", rows=[
            ("exact", "requests", "batches", "accepted", "rejected"),
            ("info-lower", "p95_ms"),
            ("info-higher", "throughput_rps"),
        ]),
    ]),
    Bench("BENCH_shard.json", "shard", schema=[
        ("bench", eq("shard")),
        ("schema_version", eq(1)),
        ("host.kernel_arch", STR),
        ("results", length(1)),
        ("results[].seq_len", ge(1)),
        ("results[].degree", ge(2)),
        ("results[].interconnect", STR),
        ("results[].requests", ge(1)),
        ("results[].batches", ge(1)),
        ("results[].compute_share", gt(0), le(1.000001)),
        ("results[].comm_fraction", ge(0), le(1)),
        ("results[]", has("replicated_p99_ms", "sharded_p99_ms")),
        ("results[].p99_ratio", NUM),
        ("results[].sharded_wins", BOOL),
        ("crossovers", length(1)),
        ("crossovers[].degree", ge(2)),
        ("crossovers[].crossover_len", NUM),
        ("sharding_beats_replication_at_long_seq", TRUE),
    ], rows=[
        # Both engines replay the same trace in virtual time against
        # deterministic accounting models: counts must match exactly.
        Cells("results", ("seq_len", "degree", "interconnect"),
              "len={}/x{}/{}", rows=[
                  ("exact", "requests", "batches"),
                  ("info-lower", "p99_ratio", "comm_fraction"),
              ]),
        # Sharding wins carry a 1% margin, so the crossover sequence
        # length is stable against libm-level drift and gates exactly
        # (0 = sharding never won for this degree x interconnect).
        Cells("crossovers", ("degree", "interconnect"), "x{}/{}",
              missing="crossover x{}/{}", rows=[
                  ("exact", "crossover_len"),
              ]),
        # The headline: once recorded true, the tensor-parallel-beats-
        # replication-at-long-sequences bit may never flip back.
        ("exact", "sharding_beats_replication_at_long_seq"),
    ]),
    Bench("BENCH_search.json", "search", schema=[
        ("bench", eq("search")),
        ("schema_version", eq(1)),
        ("trace.requests", ge(1)),
        ("trace.duplicate_rate", ge(0), le(1)),
        ("sa.chains", ge(1)),
        ("sa.steps", ge(1)),
        ("sa", Check("evaluations >= chains",
                      lambda sa: sa["evaluations"] >= sa["chains"])),
        ("baselines", length(8)),
        ("baselines[].name", STR),
        ("baselines[].replicas", ge(1)),
        ("baselines[].completed", ge(1)),
        ("baselines[]", has("p99_ms")),
        ("baselines[].energy_j", gt(0)),
        ("baselines[].cost", NUM),
        ("winner.replicas", ge(1)),
        ("winner.backend_slots", ge(1)),
        ("winner.policy", STR),
        ("winner.cache_mode", STR),
        ("winner", Check("design.replicas|length == replicas",
                          lambda w: len(w["design"]["replicas"])
                          == w["replicas"])),
        ("pareto", length(1)),
        ("pareto[]", has("p99_ms")),
        ("pareto[].energy_j", gt(0)),
        ("pareto[].design", OBJECT),
        ("", Check("chains|length == sa.chains",
                    lambda d: len(d["chains"]) == d["sa"]["chains"])),
        ("chains[].proposed", ge(1)),
        ("chains[].invalid", ge(0)),
        ("headline.p99_speedup", gt(0)),
        ("headline.sa_beats_best_baseline", TRUE),
    ], rows=[
        # The SA walk is a pure function of (space, evaluator, seed) and
        # the evaluator replays a fixed trace through the
        # byte-deterministic cluster twin, so the winning configuration --
        # not just its score -- must reproduce exactly on any host.
        ("exact", "winner.replicas", "winner.backend_slots",
         "winner.policy", "winner.cache_mode", "winner.chain",
         "winner.completed", "winner.rejected", "sa.evaluations",
         ("pareto.size", "pareto|length")),
        ("info-lower", "winner.p99_ms", "winner.energy_j"),
        ("info-higher", "headline.p99_speedup"),
        # The headline: once recorded true, the SA-matches-or-beats-every-
        # hand-tuned-baseline bit (p99 at the shared offered load, and
        # never Pareto-dominated) may never flip back.
        ("exact", ("sa_beats_best_baseline",
                   "headline.sa_beats_best_baseline")),
    ]),
    Bench("BENCH_adaptive.json", "adaptive", schema=[
        ("bench", eq("adaptive")),
        ("schema_version", eq(1)),
        ("slo_ms", gt(0)),
        ("accuracy_floor", gt(0), lt(1)),
        ("ramp", length(3)),
        ("ladder", length(2)),
        ("ladder[].top_k", ge(1)),
        ("ladder[].escalate", BOOL),
        ("ladder[].accuracy", gt(0), le(1)),
        ("results", length(3)),
        ("results[].config", STR),
        ("results[].requests", ge(1)),
        ("results[]", Check("accepted + rejected == requests",
                             lambda r: r["accepted"] + r["rejected"]
                             == r["requests"])),
        ("results[].reject_rate", ge(0), le(1)),
        ("results[]", has("p50_ms", "p99_ms")),
        ("results[].mean_accuracy", gt(0), le(1)),
        ("results[].meets_floor", BOOL),
        ("results[0].config", eq("adaptive")),
        ("", Check("results[0].tiers|length == ladder|length",
                    lambda d: len(d["results"][0]["tiers"])
                    == len(d["ladder"]))),
        ("determinism.bit_identical", TRUE),
        ("determinism.degraded_requests", ge(1)),
        ("headline.p99_within_slo", TRUE),
        ("headline.accuracy_above_floor", TRUE),
        ("headline.lower_reject_than_baselines", TRUE),
        ("headline.adaptive_beats_fixed", TRUE),
    ], rows=[
        # Every cell is accounting-only virtual time over a fixed ramp
        # trace, so admission and batching counts match exactly.  Tier
        # accuracies are fidelity-model outputs quantized to 1e-4; the
        # stream mean is a weighted sum of those constants over exact
        # counts, so it gates exactly too.
        Cells("results", ("config",), "{}", rows=[
            ("exact", "requests", "accepted", "rejected", "batches",
             "mean_accuracy"),
            ("info-lower", "p99_ms"),
            Cells("tiers", None, "tiers[{}]", rows=[
                ("exact", "requests", "batches", "escalated"),
            ]),
        ]),
        ("exact", "determinism.bit_identical",
         "determinism.degraded_requests"),
        # The headline: once recorded true, the adaptive-holds-SLO-with-
        # fewer-rejects-above-the-floor bits may never flip back.
        ("exact", "headline.p99_within_slo", "headline.accuracy_above_floor",
         "headline.lower_reject_than_baselines",
         "headline.adaptive_beats_fixed"),
    ]),
    Bench("BENCH_obs.json", "obs", schema=[
        ("bench", eq("obs")),
        ("schema_version", eq(1)),
        ("results", length(2)),
        ("results[].requests", ge(1)),
        ("results[].batches", ge(1)),
        ("results[].trace_events", ge(1)),
        ("results[].trace_dropped", eq(0)),
        ("results[]", has("p99_ms")),
        ("results[].throughput_rps", NUM),
        ("overhead.overhead_frac", NUM),
        ("overhead.overhead_ok", TRUE),
        ("bit_exact.outputs_identical", TRUE),
        ("bit_exact.report_identical", TRUE),
        ("determinism.byte_identical", TRUE),
        ("determinism.analysis_identical", TRUE),
        ("determinism.trace_bytes", ge(1)),
        ("breakdown.gap_free", TRUE),
        ("breakdown.reconstruction_exact", TRUE),
        ("breakdown.matches_report", TRUE),
        ("breakdown.unattributed", eq(0)),
        ("capture.roundtrip_identical", TRUE),
        ("capture.file_loaded", TRUE),
        ("capture.file_matches", TRUE),
        ("capture.replay_identical", TRUE),
        ("overflow.dropped", ge(1)),
        ("overflow.accounted_ok", TRUE),
        ("manifest.name", eq("bench_obs/serving_sweep")),
        ("manifest.config", OBJECT),
    ], rows=[
        # The trace is deterministic and every span is emitted from the
        # virtual-time schedule, so event counts -- like the serving
        # counts they mirror -- must match exactly.
        Cells("results", ("arrival_rps",), "rps={}", rows=[
            ("exact", "requests", "batches", "accepted", "rejected",
             "trace_events", "trace_dropped"),
            ("info-lower", "p99_ms"),
        ]),
        # Tracing changes nothing (bit-exact outputs and report), the
        # exported streams are byte-identical across thread counts, every
        # request's stage segments tile its latency, .lattetrace
        # round-trips and replays exactly, overflow is accounted exactly,
        # and the enabled-path overhead stays under its 3% budget.
        ("exact", "bit_exact.outputs_identical",
         "bit_exact.report_identical", "determinism.byte_identical",
         "determinism.analysis_identical", "breakdown.requests",
         "breakdown.rejected", "breakdown.unattributed", "breakdown.stages",
         "breakdown.gap_free", "breakdown.reconstruction_exact",
         "breakdown.matches_report", "breakdown.dominant_tail_stage",
         "capture.version", "capture.roundtrip_identical",
         "capture.file_loaded", "capture.file_matches",
         "capture.replay_identical", "overflow.recorded", "overflow.dropped",
         "overhead.overhead_ok"),
        # The measured fraction itself is wall-clock: report-only.
        ("info-lower", "overhead.overhead_frac"),
    ]),
    # The structural facts of the latency breakdown gate exactly (the
    # attribution walk is byte-deterministic virtual time); the
    # millisecond values are host-independent too but gate as info so a
    # deliberate service-model change fails on its own bench, not twice.
    # tools/trace_diff names the stage behind a p99 movement.
    Bench("BREAKDOWN_obs.json", "breakdown", schema=[
        ("schema_version", eq(1)),
        ("requests", ge(1)),
        ("gap_free", TRUE),
        ("reconstruction_exact", TRUE),
        ("stages", length(1)),
        ("stages[].stage", STR),
        ("stages[].requests", ge(1)),
        ("stages[].share", ge(0), le(1.000001)),
        ("stages[]", has("p50_ms", "p95_ms", "p99_ms")),
        ("tail.requests", ge(1)),
        ("tail.dominant_stage", STR),
        ("tail.dominant_share", gt(0)),
        ("critical_path", STR, length(1)),
    ], rows=[
        ("exact", "schema_version", "requests", "rejected", "unattributed",
         "gap_free", "reconstruction_exact", "tail.dominant_stage"),
        ("info-lower", "end_to_end.p99_ms"),
        Cells("stages", ("stage",), "{}", missing="stage {}", rows=[
            ("exact", "requests"),
            ("info-lower", "p99_ms", "share"),
        ]),
    ]),
]


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as e:
        # A truncated or hand-mangled file: name it instead of dumping a
        # stack trace (missing files stay None so callers can phrase the
        # "did the bench run?" hint themselves).
        print("error: %s is not valid JSON (%s)" % (path, e),
              file=sys.stderr)
        sys.exit(2)


def report_violations(path, schema, doc):
    """Print each schema predicate ``doc`` (read from ``path``) breaks;
    return how many."""
    count = 0
    for pattern, *checks in schema:
        for where, value in resolve(doc, pattern):
            for check in checks:
                if check.holds(value):
                    continue
                shown = "missing" if value is MISSING else json.dumps(value)
                if len(shown) > 60:
                    shown = shown[:57] + "..."
                print("error: %s: %s: expected %s, got %s"
                      % (path, where or ".", check.what, shown),
                      file=sys.stderr)
                count += 1
    return count


class Gate:
    def __init__(self):
        self.rows = []  # (bench, metric, baseline, current, delta, mode, status)
        self.failed = False

    def _delta(self, base, cur):
        if not isinstance(base, (int, float)) or not isinstance(cur,
                                                                (int, float)):
            return None  # exact-gated strings (policy names etc.)
        if base == 0:
            return 0.0 if cur == 0 else float("inf")
        return (cur - base) / abs(base)

    def check(self, bench, metric, base, cur, mode):
        """mode: 'higher' | 'lower' | 'exact' | 'info' | 'info-higher' |
        'info-lower'"""
        if base is MISSING or cur is MISSING:
            status = FAIL
        elif mode.startswith("info"):
            status = INFO
        elif mode == "exact":
            status = OK if base == cur else FAIL
        elif not (is_num(base) and is_num(cur)):
            status = FAIL
        elif mode == "higher":
            status = OK if cur >= base * (1 - TOLERANCE) else FAIL
        else:  # lower is better
            status = OK if cur <= base * (1 + TOLERANCE) else FAIL
        if status == FAIL:
            self.failed = True
        self.rows.append(
            (bench, metric, base, cur, self._delta(base, cur), mode, status)
        )

    def missing(self, bench, what):
        self.rows.append((bench, what, None, None, None, "exact", FAIL))
        self.failed = True

    def walk(self, bench, rows, base, cur, prefix=""):
        """Gate ``cur`` against ``base`` row by row, in table order."""
        for row in rows:
            if isinstance(row, Cells):
                base_cells = row.cells(base)
                cur_cells = row.cells(cur)
                cur_by_key = dict(cur_cells)
                for key, cell in base_cells:
                    if key not in cur_by_key:
                        self.missing(bench, prefix + label(row.missing, key))
                        continue
                    self.walk(bench, row.rows, cell, cur_by_key[key],
                              prefix + label(row.name, key) + ".")
                base_keys = {key for key, _ in base_cells}
                for key, _ in cur_cells:
                    if key not in base_keys:
                        self.missing(bench, prefix + label(row.missing, key)
                                     + " (new, not in baseline)")
                continue
            mode, *fields = row
            for field in fields:
                if isinstance(field, str):
                    field = (field, field)
                name, path = field
                self.check(bench, prefix + name, fetch(base, path),
                           fetch(cur, path), mode)

    def render(self, out, markdown):
        if markdown:
            out.write("### Perf gate (tolerance ±%d%%)\n\n" % (TOLERANCE * 100))
            out.write("| bench | metric | baseline | current | delta | gate | status |\n")
            out.write("|---|---|---:|---:|---:|---|---|\n")
            fmt = "| {} | {} | {} | {} | {} | {} | {} |\n"
        else:
            out.write("perf gate (tolerance +-%d%%)\n" % (TOLERANCE * 100))
            fmt = "  {:<8} {:<34} {:>12} {:>12} {:>8} {:<12} {}\n"
            out.write(fmt.format("bench", "metric", "baseline", "current",
                                 "delta", "gate", "status"))

        def num(v):
            if v is None:
                return "missing"
            if isinstance(v, float):
                return "%.4g" % v
            return str(v)

        for bench, metric, base, cur, delta, mode, status in self.rows:
            d = "" if delta is None else "%+.1f%%" % (delta * 100)
            out.write(fmt.format(bench, metric, num(base), num(cur), d, mode,
                                 status))
        out.write("\n")


def rerecord(current, baselines):
    """Copy every current file over its baseline, or none of them."""
    docs = [(bench, os.path.join(current, bench.file)) for bench in BENCHES]
    docs = [(bench, path, load(path)) for bench, path in docs]
    missing = [bench.file for bench, _, doc in docs if doc is None]
    if missing:
        print("error: missing current %s (run the benches before "
              "--update)" % ", ".join(missing), file=sys.stderr)
        return 2
    # A run that breaks its schema must not become the next baseline.
    broken = sum(report_violations(path, bench.schema, doc)
                 for bench, path, doc in docs)
    if broken:
        print("error: refusing to re-record: %d schema violation(s) above"
              % broken, file=sys.stderr)
        return 2
    for bench, src, _ in docs:
        dst = os.path.join(baselines, bench.file)
        shutil.copyfile(src, dst)
        print("re-recorded %s -> %s" % (src, dst))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baselines", default="bench/baselines",
                    help="directory with recorded BENCH_*.json baselines")
    ap.add_argument("--current", default=".",
                    help="directory with freshly produced BENCH_*.json")
    ap.add_argument("--update", action="store_true",
                    help="re-record the baselines from the current "
                         "BENCH_*.json files instead of gating")
    args = ap.parse_args()

    if args.update:
        return rerecord(args.current, args.baselines)

    pairs = []
    for bench in BENCHES:
        base_path = os.path.join(args.baselines, bench.file)
        cur_path = os.path.join(args.current, bench.file)
        base, cur = load(base_path), load(cur_path)
        if base is None:
            print("error: missing baseline %s" % bench.file, file=sys.stderr)
            return 2
        if cur is None:
            print("error: missing current %s (did the bench run?)"
                  % bench.file, file=sys.stderr)
            return 2
        pairs.append((bench, base_path, base, cur_path, cur))

    # Schema first, on both sides: a broken file is named by its JSON path
    # before any row compares against it.
    broken = 0
    for bench, base_path, base, cur_path, cur in pairs:
        broken += report_violations(base_path, bench.schema, base)
        broken += report_violations(cur_path, bench.schema, cur)

    gate = Gate()
    for bench, _, base, _, cur in pairs:
        gate.walk(bench.name, bench.rows, base, cur)

    gate.render(sys.stdout, markdown=False)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            gate.render(f, markdown=True)

    if broken:
        print("perf gate: %d schema violation(s) listed above" % broken,
              file=sys.stderr)
    if gate.failed:
        print("perf gate: REGRESSION beyond tolerance", file=sys.stderr)
    if broken or gate.failed:
        return 1
    print("perf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
