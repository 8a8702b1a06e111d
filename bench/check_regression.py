#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json trajectory.

Compares the current bench outputs (BENCH_kernels.json, BENCH_runtime.json,
BENCH_serving.json, BENCH_cluster.json, BENCH_cache.json,
BENCH_shard.json, BENCH_search.json, BENCH_adaptive.json,
BENCH_obs.json, plus the BREAKDOWN_obs.json latency-attribution
artifact) against the
recorded baselines in
bench/baselines/ and
fails (exit 1) with a delta table when a gated metric regresses beyond the
tolerance (default +-25%).  Each bench registers its compare function with
the ``@bench_compare`` decorator; the gating loop and --update both walk
that registry.

``--update`` re-records the baselines instead of gating: every current
BENCH_*.json is copied over its counterpart in the baselines directory.
Use it from a fresh local run in the same PR that justifies the shift.

Gated by default are the metrics that are stable across host machines:

- dimensionless ratios (kernel speedups over the scalar reference, the
  workspace-reuse speedup), checked against ``baseline * (1 - tolerance)``
  -- improvements never fail;
- deterministic counts (serving requests/batches/accepted/rejected per
  rate x policy cell, cluster routing counts per rate x replicas x policy
  cell, cache hit/miss/coalesce/eviction counts per population x skew x
  eviction cell), checked exactly: the batch former, router and cache are
  trace-driven, so any drift is a policy change, not noise;
- the cluster headline bit (length-bucketed routing beats round-robin on
  batch density or p99 in at least one cell), the cache headline bit
  (cached beats uncached on p99 and throughput in every cell with >= 20%
  duplicates) and the shard headline bit (tensor-parallel sharding beats
  replication on p99 for at least one long-sequence cell), checked
  exactly.

Absolute measurements (GFLOP/s, milliseconds, tokens/s) and thread-scaling
factors vary with the host that recorded the baseline, so they are
reported in the table but only enforced with --strict (useful when
comparing runs from the same machine).

The table is printed to stdout and, when $GITHUB_STEP_SUMMARY is set,
appended there as Markdown so every CI run shows its perf trajectory.
"""

import argparse
import json
import os
import shutil
import sys

OK, FAIL, INFO = "ok", "FAIL", "info"

# Per-bench compare dispatch: (filename, compare_fn) pairs in registration
# order.  Registering a compare function against its BENCH_*.json file is
# all it takes to add a bench to the gate and to --update's re-record set
# -- no if/elif arm to extend.
BENCHES = []


def bench_compare(filename):
    """Decorator: register ``fn`` as the gate for ``filename``."""
    def register(fn):
        BENCHES.append((filename, fn))
        return fn
    return register


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


class Gate:
    def __init__(self, tolerance, strict):
        self.tolerance = tolerance
        self.strict = strict
        self.rows = []  # (bench, metric, baseline, current, delta, mode, status)
        self.notes = []  # (bench, line): attribution strings under the table
        self.failed = False

    def _delta(self, base, cur):
        if not isinstance(base, (int, float)) or not isinstance(cur,
                                                                (int, float)):
            return None  # exact-gated strings (policy names etc.)
        if base == 0:
            return 0.0 if cur == 0 else float("inf")
        return (cur - base) / abs(base)

    def check(self, bench, metric, base, cur, mode):
        """mode: 'higher' | 'lower' | 'exact' | 'info-higher' | 'info-lower'"""
        info = mode.startswith("info")
        direction = mode.split("-")[-1]
        if info and not self.strict:
            status = INFO
        elif mode == "exact":
            status = OK if base == cur else FAIL
        elif direction == "higher":
            status = OK if cur >= base * (1 - self.tolerance) else FAIL
        else:  # lower is better
            status = OK if cur <= base * (1 + self.tolerance) else FAIL
        if status == FAIL:
            self.failed = True
        self.rows.append(
            (bench, metric, base, cur, self._delta(base, cur), mode, status)
        )

    def missing(self, bench, what):
        self.rows.append((bench, what, None, None, None, "exact", FAIL))
        self.failed = True

    def note(self, bench, line):
        """Free-form attribution line rendered under the delta table."""
        self.notes.append((bench, line))

    def render(self, out, markdown):
        if markdown:
            out.write("### Perf gate (tolerance ±%d%%)\n\n" % (self.tolerance * 100))
            out.write("| bench | metric | baseline | current | delta | gate | status |\n")
            out.write("|---|---|---:|---:|---:|---|---|\n")
            fmt = "| {} | {} | {} | {} | {} | {} | {} |\n"
        else:
            out.write("perf gate (tolerance +-%d%%)\n" % (self.tolerance * 100))
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
        if self.notes:
            if markdown:
                out.write("**Stage attribution**\n\n")
                for bench, line in self.notes:
                    out.write("- `%s`: %s\n" % (bench, line))
            else:
                out.write("stage attribution:\n")
                for bench, line in self.notes:
                    out.write("  [%s] %s\n" % (bench, line))
            out.write("\n")


@bench_compare("BENCH_kernels.json")
def compare_kernels(gate, base, cur):
    gate.check("kernels", "min_speedup", base["min_speedup"],
               cur["min_speedup"], "higher")
    gate.check("kernels", "geomean_speedup", base["geomean_speedup"],
               cur["geomean_speedup"], "higher")
    gate.check("kernels", "int8_min_speedup", base["int8_min_speedup"],
               cur["int8_min_speedup"], "higher")
    # Float and int8 cells share labels, so int8 rows carry a prefix.
    for key, prefix, rate in (("shapes", "", "tiled_gflops"),
                              ("int8_shapes", "int8 ", "packed_gops")):
        cur_shapes = {s["label"]: s for s in cur[key]}
        for shape in base[key]:
            label = prefix + shape["label"]
            got = cur_shapes.get(shape["label"])
            if got is None:
                gate.missing("kernels", "shape %s" % label)
                continue
            gate.check("kernels", "%s.speedup" % label, shape["speedup"],
                       got["speedup"], "info-higher")
            gate.check("kernels", "%s.%s" % (label, rate), shape[rate],
                       got[rate], "info-higher")


@bench_compare("BENCH_runtime.json")
def compare_runtime(gate, base, cur):
    gate.check("runtime", "workspace.speedup", base["workspace"]["speedup"],
               cur["workspace"]["speedup"], "higher")
    gate.check("runtime", "workspace.workspace_ms",
               base["workspace"]["workspace_ms"],
               cur["workspace"]["workspace_ms"], "info-lower")
    cur_scaling = {p["threads"]: p for p in cur["scaling"]}
    for point in base["scaling"]:
        threads = point["threads"]
        got = cur_scaling.get(threads)
        if got is None:
            gate.missing("runtime", "scaling threads=%d" % threads)
            continue
        # Scaling factors depend on the recording host's core count (a
        # 1-core baseline would make the gate vacuous on CI and a CI
        # baseline would flake on smaller hosts), so report-only.
        gate.check("runtime", "scaling[%d].speedup" % threads,
                   point["speedup"], got["speedup"], "info-higher")
        gate.check("runtime", "scaling[%d].tokens_per_s" % threads,
                   point["tokens_per_s"], got["tokens_per_s"], "info-higher")


@bench_compare("BENCH_cluster.json")
def compare_cluster(gate, base, cur):
    def key(r):
        return (r["arrival_rps"], r["replicas"], r["policy"])

    cur_results = {key(r): r for r in cur["results"]}
    for res in base["results"]:
        k = key(res)
        name = "rps=%g/x%d/%s" % k
        got = cur_results.get(k)
        if got is None:
            gate.missing("cluster", name)
            continue
        # Routing and forming are trace-driven: counts must match exactly.
        for field in ("requests", "batches", "admitted", "rejected",
                      "rerouted"):
            gate.check("cluster", "%s.%s" % (name, field), res[field],
                       got[field], "exact")
        gate.check("cluster", "%s.fill" % name, res["mean_batch_fill"],
                   got["mean_batch_fill"], "info-higher")
        gate.check("cluster", "%s.p99_ms" % name, res["p99_ms"],
                   got["p99_ms"], "info-lower")
    cur_cmp = {(c["arrival_rps"], c["replicas"]): c
               for c in cur["comparisons"]}
    for cmp in base["comparisons"]:
        k = (cmp["arrival_rps"], cmp["replicas"])
        name = "rps=%g/x%d" % k
        got = cur_cmp.get(k)
        if got is None:
            gate.missing("cluster", "comparison %s" % name)
            continue
        gate.check("cluster", "%s.fill_gain" % name, cmp["fill_gain"],
                   got["fill_gain"], "info-higher")
        gate.check("cluster", "%s.p99_ratio" % name, cmp["p99_ratio"],
                   got["p99_ratio"], "info-lower")
    # The headline the ROADMAP acceptance rides on: once recorded true, the
    # bucketed-beats-round-robin bit may never silently flip back.
    gate.check("cluster", "bucketed_beats_round_robin",
               base["bucketed_beats_round_robin"],
               cur["bucketed_beats_round_robin"], "exact")


@bench_compare("BENCH_cache.json")
def compare_cache(gate, base, cur):
    def key(r):
        return (r["population"], r["skew"], r["eviction"])

    cur_results = {key(r): r for r in cur["results"]}
    for res in base["results"]:
        k = key(res)
        name = "pop=%d/s=%g/%s" % k
        got = cur_results.get(k)
        if got is None:
            gate.missing("cache", name)
            continue
        # The trace, the cache and the virtual clock are all deterministic:
        # lookup outcomes and store churn must match exactly.
        for field in ("requests", "batches", "hits", "coalesced", "misses",
                      "evictions", "insertions"):
            gate.check("cache", "%s.%s" % (name, field), res[field],
                       got[field], "exact")
        gate.check("cache", "%s.p99_ratio" % name, res["p99_ratio"],
                   got["p99_ratio"], "info-lower")
        gate.check("cache", "%s.throughput_gain" % name,
                   res["throughput_gain"], got["throughput_gain"],
                   "info-higher")
    # The headline the acceptance rides on: once recorded true, the
    # cached-beats-uncached-at->=20%-duplicates bit may never flip back.
    gate.check("cache", "cache_beats_uncached_at_dup_gate",
               base["cache_beats_uncached_at_dup_gate"],
               cur["cache_beats_uncached_at_dup_gate"], "exact")


@bench_compare("BENCH_serving.json")
def compare_serving(gate, base, cur):
    def key(r):
        return (r["arrival_rps"], r["policy"])

    cur_results = {key(r): r for r in cur["results"]}
    for res in base["results"]:
        k = key(res)
        name = "rps=%g/%s" % k
        got = cur_results.get(k)
        if got is None:
            gate.missing("serving", name)
            continue
        for field in ("requests", "batches", "accepted", "rejected"):
            gate.check("serving", "%s.%s" % (name, field), res[field],
                       got[field], "exact")
        gate.check("serving", "%s.p95_ms" % name, res["p95_ms"],
                   got["p95_ms"], "info-lower")
        gate.check("serving", "%s.throughput_rps" % name,
                   res["throughput_rps"], got["throughput_rps"],
                   "info-higher")


@bench_compare("BENCH_shard.json")
def compare_shard(gate, base, cur):
    def key(r):
        return (r["seq_len"], r["degree"], r["interconnect"])

    cur_results = {key(r): r for r in cur["results"]}
    for res in base["results"]:
        k = key(res)
        name = "len=%d/x%d/%s" % k
        got = cur_results.get(k)
        if got is None:
            gate.missing("shard", name)
            continue
        # Both engines replay the same trace in virtual time against
        # deterministic accounting models: counts must match exactly.
        for field in ("requests", "batches"):
            gate.check("shard", "%s.%s" % (name, field), res[field],
                       got[field], "exact")
        gate.check("shard", "%s.p99_ratio" % name, res["p99_ratio"],
                   got["p99_ratio"], "info-lower")
        gate.check("shard", "%s.comm_fraction" % name,
                   res["comm_fraction"], got["comm_fraction"], "info-lower")
    cur_crossovers = {(c["degree"], c["interconnect"]): c
                      for c in cur["crossovers"]}
    for xo in base["crossovers"]:
        k = (xo["degree"], xo["interconnect"])
        name = "x%d/%s" % k
        got = cur_crossovers.get(k)
        if got is None:
            gate.missing("shard", "crossover %s" % name)
            continue
        # Sharding wins carry a 1% margin, so the crossover sequence
        # length is stable against libm-level drift and gates exactly
        # (0 = sharding never won for this degree x interconnect).
        gate.check("shard", "%s.crossover_len" % name,
                   xo["crossover_len"], got["crossover_len"], "exact")
    # The headline the acceptance rides on: once recorded true, the
    # tensor-parallel-beats-replication-at-long-sequences bit may never
    # flip back.
    gate.check("shard", "sharding_beats_replication_at_long_seq",
               base["sharding_beats_replication_at_long_seq"],
               cur["sharding_beats_replication_at_long_seq"], "exact")


@bench_compare("BENCH_search.json")
def compare_search(gate, base, cur):
    # The SA walk is a pure function of (space, evaluator, seed) and the
    # evaluator replays a fixed trace through the byte-deterministic
    # cluster twin, so the winning configuration -- not just its score --
    # must reproduce exactly on any host.
    for field in ("replicas", "backend_slots", "policy", "cache_mode",
                  "chain", "completed", "rejected"):
        gate.check("search", "winner.%s" % field, base["winner"][field],
                   cur["winner"][field], "exact")
    gate.check("search", "sa.evaluations", base["sa"]["evaluations"],
               cur["sa"]["evaluations"], "exact")
    gate.check("search", "pareto.size", len(base["pareto"]),
               len(cur["pareto"]), "exact")
    gate.check("search", "winner.p99_ms", base["winner"]["p99_ms"],
               cur["winner"]["p99_ms"], "info-lower")
    gate.check("search", "winner.energy_j", base["winner"]["energy_j"],
               cur["winner"]["energy_j"], "info-lower")
    gate.check("search", "headline.p99_speedup",
               base["headline"]["p99_speedup"],
               cur["headline"]["p99_speedup"], "info-higher")
    # The headline the acceptance rides on: once recorded true, the
    # SA-matches-or-beats-every-hand-tuned-baseline bit (p99 at the shared
    # offered load, and never Pareto-dominated) may never flip back.
    gate.check("search", "sa_beats_best_baseline",
               base["headline"]["sa_beats_best_baseline"],
               cur["headline"]["sa_beats_best_baseline"], "exact")


@bench_compare("BENCH_adaptive.json")
def compare_adaptive(gate, base, cur):
    cur_results = {r["config"]: r for r in cur["results"]}
    for res in base["results"]:
        name = res["config"]
        got = cur_results.get(name)
        if got is None:
            gate.missing("adaptive", name)
            continue
        # Every cell is accounting-only virtual time over a fixed ramp
        # trace, so admission and batching counts must match exactly.
        for field in ("requests", "accepted", "rejected", "batches"):
            gate.check("adaptive", "%s.%s" % (name, field), res[field],
                       got[field], "exact")
        # Tier accuracies are fidelity-model outputs quantized to 1e-4;
        # the stream mean is a weighted sum of those constants over exact
        # counts, so it gates exactly too.
        gate.check("adaptive", "%s.mean_accuracy" % name,
                   res["mean_accuracy"], got["mean_accuracy"], "exact")
        gate.check("adaptive", "%s.p99_ms" % name, res["p99_ms"],
                   got["p99_ms"], "info-lower")
        for i, tier in enumerate(res.get("tiers", [])):
            got_tier = got["tiers"][i]
            for field in ("requests", "batches", "escalated"):
                gate.check("adaptive", "%s.tiers[%d].%s" % (name, i, field),
                           tier[field], got_tier[field], "exact")
    gate.check("adaptive", "determinism.bit_identical",
               base["determinism"]["bit_identical"],
               cur["determinism"]["bit_identical"], "exact")
    gate.check("adaptive", "determinism.degraded_requests",
               base["determinism"]["degraded_requests"],
               cur["determinism"]["degraded_requests"], "exact")
    # The headline the acceptance rides on: once recorded true, the
    # adaptive-holds-SLO-with-fewer-rejects-above-the-floor bit may never
    # flip back.
    for field in ("p99_within_slo", "accuracy_above_floor",
                  "lower_reject_than_baselines", "adaptive_beats_fixed"):
        gate.check("adaptive", "headline.%s" % field,
                   base["headline"][field], cur["headline"][field], "exact")


@bench_compare("BENCH_obs.json")
def compare_obs(gate, base, cur):
    def key(r):
        return r["arrival_rps"]

    cur_results = {key(r): r for r in cur["results"]}
    for res in base["results"]:
        k = key(res)
        name = "rps=%g" % k
        got = cur_results.get(k)
        if got is None:
            gate.missing("obs", name)
            continue
        # The trace is deterministic and every span is emitted from the
        # virtual-time schedule, so event counts -- like the serving
        # counts they mirror -- must match exactly.
        for field in ("requests", "batches", "accepted", "rejected",
                      "trace_events", "trace_dropped"):
            gate.check("obs", "%s.%s" % (name, field), res[field],
                       got[field], "exact")
        gate.check("obs", "%s.p99_ms" % name, res["p99_ms"],
                   got["p99_ms"], "info-lower")
    # The contracts the acceptance rides on: tracing changes nothing
    # (bit-exact outputs and report), the exported streams are
    # byte-identical across thread counts, overflow is accounted exactly,
    # and the enabled-path overhead stays under its 3% budget.
    gate.check("obs", "bit_exact.outputs_identical",
               base["bit_exact"]["outputs_identical"],
               cur["bit_exact"]["outputs_identical"], "exact")
    gate.check("obs", "bit_exact.report_identical",
               base["bit_exact"]["report_identical"],
               cur["bit_exact"]["report_identical"], "exact")
    gate.check("obs", "determinism.byte_identical",
               base["determinism"]["byte_identical"],
               cur["determinism"]["byte_identical"], "exact")
    gate.check("obs", "determinism.analysis_identical",
               base["determinism"]["analysis_identical"],
               cur["determinism"]["analysis_identical"], "exact")
    # The attribution contract: every request's stage segments tile its
    # end-to-end latency with no unattributed gap, the breakdown
    # percentiles are bitwise the pooled report's, and nothing fell out
    # of the walk.
    for field in ("requests", "rejected", "unattributed", "stages",
                  "gap_free", "reconstruction_exact", "matches_report",
                  "dominant_tail_stage"):
        gate.check("obs", "breakdown.%s" % field, base["breakdown"][field],
                   cur["breakdown"][field], "exact")
    # The persistence contract: .lattetrace round-trips byte-exactly, the
    # committed canonical capture still matches the generator, and a
    # capture -> replay cycle reproduces the exact analysis artifacts.
    for field in ("version", "roundtrip_identical", "file_loaded",
                  "file_matches", "replay_identical"):
        gate.check("obs", "capture.%s" % field, base["capture"][field],
                   cur["capture"][field], "exact")
    for field in ("recorded", "dropped"):
        gate.check("obs", "overflow.%s" % field, base["overflow"][field],
                   cur["overflow"][field], "exact")
    gate.check("obs", "overhead.overhead_ok",
               base["overhead"]["overhead_ok"],
               cur["overhead"]["overhead_ok"], "exact")
    # The measured fraction itself is wall-clock and host-dependent:
    # report-only.
    gate.check("obs", "overhead.overhead_frac",
               base["overhead"]["overhead_frac"],
               cur["overhead"]["overhead_frac"], "info-lower")


def breakdown_attribution(base, cur):
    """One root-cause line for a p99 movement between two breakdowns.

    Stage shares are the per-stage p99 deltas normalized by their
    absolute sum (so the line is meaningful even when stages moved in
    opposite directions); for fleet breakdowns the dominant stage is
    refined with the track group where it moved most.  Mirrors
    tools/trace_diff so CI and local forensics tell one story.
    """
    delta_ms = cur["end_to_end"]["p99_ms"] - base["end_to_end"]["p99_ms"]
    base_stages = {s["stage"]: s for s in base["stages"]}
    deltas = {}
    for s in cur["stages"]:
        b = base_stages.get(s["stage"])
        if b is not None:
            deltas[s["stage"]] = s["p99_ms"] - b["p99_ms"]
    abs_sum = sum(abs(d) for d in deltas.values())
    if not deltas or abs_sum == 0:
        return "p99 %+.3f ms, no stage moved" % delta_ms
    stage = max(deltas, key=lambda k: abs(deltas[k]))
    where = stage
    base_groups = {g["group"]: g for g in base.get("groups", [])}
    best = 0.0
    for g in cur.get("groups", []):
        bg = base_groups.get(g["group"])
        if bg is None:
            continue
        bg_stages = {s["stage"]: s for s in bg["stages"]}
        for s in g["stages"]:
            b = bg_stages.get(s["stage"])
            if b is None or s["stage"] != stage:
                continue
            d = abs(s["p99_ms"] - b["p99_ms"])
            if d > best:
                best = d
                where = "%s on %s" % (stage, g["group"])
    return "p99 %+.3f ms, %.0f%% from %s" % (
        delta_ms, 100.0 * abs(deltas[stage]) / abs_sum, where)


@bench_compare("BREAKDOWN_obs.json")
def compare_breakdown(gate, base, cur):
    """Stage-by-stage diff of the recorded latency breakdown.

    The structural facts gate exactly (the attribution walk is
    byte-deterministic virtual time); the millisecond values are
    host-independent too but gate as info so a deliberate service-model
    change fails on its own bench, not twice.  Every run -- pass or fail
    -- also emits the stage-attribution line, so a perf-gate failure
    ships its root cause.
    """
    gate.check("breakdown", "schema_version", base["schema_version"],
               cur["schema_version"], "exact")
    for field in ("requests", "rejected", "unattributed", "gap_free",
                  "reconstruction_exact"):
        gate.check("breakdown", field, base[field], cur[field], "exact")
    gate.check("breakdown", "tail.dominant_stage",
               base["tail"]["dominant_stage"],
               cur["tail"]["dominant_stage"], "exact")
    gate.check("breakdown", "end_to_end.p99_ms",
               base["end_to_end"]["p99_ms"],
               cur["end_to_end"]["p99_ms"], "info-lower")
    cur_stages = {s["stage"]: s for s in cur["stages"]}
    for s in base["stages"]:
        name = s["stage"]
        got = cur_stages.get(name)
        if got is None:
            gate.missing("breakdown", "stage %s" % name)
            continue
        gate.check("breakdown", "%s.requests" % name, s["requests"],
                   got["requests"], "exact")
        gate.check("breakdown", "%s.p99_ms" % name, s["p99_ms"],
                   got["p99_ms"], "info-lower")
        gate.check("breakdown", "%s.share" % name, s["share"],
                   got["share"], "info-lower")
    for name in cur_stages:
        if not any(s["stage"] == name for s in base["stages"]):
            gate.missing("breakdown", "stage %s (new, not in baseline)"
                         % name)
    gate.note("breakdown", breakdown_attribution(base, cur))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baselines", default="bench/baselines",
                    help="directory with recorded BENCH_*.json baselines")
    ap.add_argument("--current", default=".",
                    help="directory with freshly produced BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative regression on gated ratios")
    ap.add_argument("--strict", action="store_true",
                    help="also gate machine-dependent absolute metrics "
                         "(same-host comparisons only)")
    ap.add_argument("--update", action="store_true",
                    help="re-record the baselines from the current "
                         "BENCH_*.json files instead of gating")
    args = ap.parse_args()

    benches = tuple(BENCHES)

    if args.update:
        # Check every current file first so a partial run cannot leave the
        # baselines directory half re-recorded.
        missing = [name for name, _ in benches
                   if load(os.path.join(args.current, name)) is None]
        if missing:
            print("error: missing current %s (run the benches before "
                  "--update)" % ", ".join(missing), file=sys.stderr)
            return 2
        for name, _ in benches:
            src = os.path.join(args.current, name)
            dst = os.path.join(args.baselines, name)
            shutil.copyfile(src, dst)
            print("re-recorded %s -> %s" % (src, dst))
        return 0

    gate = Gate(args.tolerance, args.strict)
    for name, compare in benches:
        base = load(os.path.join(args.baselines, name))
        cur = load(os.path.join(args.current, name))
        if base is None:
            print("error: missing baseline %s" % name, file=sys.stderr)
            return 2
        if cur is None:
            print("error: missing current %s (did the bench run?)" % name,
                  file=sys.stderr)
            return 2
        try:
            compare(gate, base, cur)
        except KeyError as e:
            # A baseline (or current) file predating a schema change: name
            # the missing key instead of dumping a stack trace.
            print("error: %s is missing key %s -- re-record the baseline "
                  "with:  python3 bench/check_regression.py --update"
                  % (name, e), file=sys.stderr)
            return 2

    gate.render(sys.stdout, markdown=False)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            gate.render(f, markdown=True)

    if gate.failed:
        print("perf gate: REGRESSION beyond tolerance", file=sys.stderr)
        return 1
    print("perf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
