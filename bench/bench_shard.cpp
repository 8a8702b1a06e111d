// Tensor-parallel sharding benchmark: sweeps sequence length x shard
// degree x interconnect generation and emits machine-readable JSON
// (BENCH_shard.json, or argv[1]) for the CI perf-gate job.
//
// The question each cell answers: given the same silicon budget (D
// devices), is it better to run D independent replicas (each serving
// whole batches at the base speed) or one D-wide tensor-parallel gang
// (every batch sped up to the ShardPlan's compute share, but paying the
// interconnect for collectives)?  Both sides replay the same Poisson
// trace of fixed-length requests through an accounting-only ServingEngine
// -- identical batches, pure virtual time -- so every number is
// deterministic run to run at any thread count.
//
// The offered load is scaled to a fixed fraction of the *replicated*
// fleet's capacity in every cell, so cells differ only in how the two
// backends spend that capacity: replication keeps D queues short but
// every batch costs the full base latency, while the gang serves one
// queue at share * base + comm.  Short sequences cannot amortize the
// per-hop latency floor (and the gang's lower total throughput bites),
// long ones can -- the crossover the gate records.  The headline: the
// gang must beat replication on p99 in at least one long-sequence cell.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json_writer.hpp"

namespace latte {
namespace {

// Capacity-sealed batches of exactly this many requests (the huge former
// timeout below never fires mid-trace), so both backends price identical
// lengths vectors.
constexpr std::size_t kBatch = 4;
// Offered load as a fraction of the replicated fleet's saturation
// throughput.  High enough that queueing is visible, low enough that the
// replicated baseline stays stable.
constexpr double kLoadFactor = 0.55;
constexpr std::size_t kRequests = 160;

InterconnectConfig FastInterconnect() {
  InterconnectConfig icn;  // NoC-class links: 200 GB/s, 1 us per hop
  icn.link_bytes_per_s = 200e9;
  icn.hop_latency_s = 1e-6;
  return icn;
}

InterconnectConfig SlowInterconnect() {
  InterconnectConfig icn;  // PCIe/DRAM-class: 16 GB/s, 10 us per hop,
  icn.link_bytes_per_s = 16e9;  // collectives over 1 MiB spill to DRAM
  icn.hop_latency_s = 10e-6;
  icn.dram_spill_bytes = std::size_t{1} << 20;
  icn.dram_bytes_per_s = 8e9;
  return icn;
}

/// Poisson arrivals at `rate`, every request exactly `seq_len` tokens
/// (the controlled variable of the sweep; dataset length jitter would
/// blur the crossover).  Same gap sampling as GeneratePoissonTrace.
std::vector<TimedRequest> FixedLengthTrace(double rate, std::size_t seq_len,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TimedRequest> trace;
  trace.reserve(kRequests);
  double t = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    double u = rng.NextUniform();
    if (u < 1e-300) u = 1e-300;
    t += -std::log(u) / rate;
    trace.push_back({t, seq_len});
  }
  return trace;
}

ServingEngineConfig BaseEngine(const BatchServiceModel& service) {
  ServingEngineConfig cfg;
  cfg.former.max_batch = kBatch;
  cfg.former.timeout_s = 1e9;  // seal by capacity only
  cfg.execute = false;         // accounting-only: pure virtual time
  cfg.service = service;
  return cfg;
}

struct Cell {
  std::size_t seq_len = 0;
  std::size_t degree = 0;
  std::string interconnect;
  double arrival_rps = 0;
  double base_batch_s = 0;   ///< unsharded service time of one full batch
  double share = 0;          ///< critical-path compute share of the gang
  double comm_batch_s = 0;   ///< collective seconds per full batch
  ServingReport replicated;
  ServingReport sharded;
  double p99_ratio = 0;      ///< sharded p99 / replicated p99
  bool wins = false;
};

}  // namespace
}  // namespace latte

int main(int argc, char** argv) {
  using namespace latte;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_shard.json";

  // Accounting-only mode never touches the tensors; half-scale BERT keeps
  // ModelInstance construction cheap while the 6-head encoder still makes
  // degree 4 an uneven (2/2/1/1) head split -- the plan shape worth
  // benchmarking, not just the divisible case.
  const ModelConfig model_cfg = ScaledDown(BertBase(), 2);
  const ModelInstance model(model_cfg, 2026);
  ServiceModelSpec base_spec;
  base_spec.base = ServiceModelSpec::Base::kAccelerator;
  base_spec.model = model_cfg;
  const BatchServiceModel base_service = BuildServiceModel(base_spec);
  const auto ops = EncoderOps(model_cfg.encoder, AttentionMode::kDense);

  const std::vector<std::size_t> seq_lens = {64, 256, 1024, 4096};
  const std::vector<std::size_t> degrees = {2, 4};
  const std::vector<std::pair<std::string, InterconnectConfig>> interconnects =
      {{"fast", FastInterconnect()}, {"slow", SlowInterconnect()}};

  std::vector<Cell> cells;
  for (std::size_t seq_len : seq_lens) {
    const std::vector<std::size_t> batch_lens(kBatch, seq_len);
    const double base_batch_s = base_service(batch_lens);
    for (std::size_t degree : degrees) {
      // Saturation throughput of `degree` replicas is degree * kBatch /
      // base_batch_s; offer a fixed fraction of it so the replicated
      // baseline is comparably loaded in every cell.
      const double rate = kLoadFactor * degree * kBatch / base_batch_s;
      const auto trace = FixedLengthTrace(rate, seq_len, /*seed=*/11);
      for (const auto& [icn_name, icn_cfg] : interconnects) {
        ShardServiceConfig shard;
        shard.degree = degree;
        shard.interconnect = icn_cfg;

        ServingEngineConfig rep_cfg = BaseEngine(base_service);
        rep_cfg.workers = degree;
        ServingEngine replicated(model, rep_cfg);

        ServingEngineConfig shard_cfg = BaseEngine(base_service);
        shard_cfg.workers = 1;  // the whole gang is one backend slot
        shard_cfg.backend = BackendMode::kSharded;
        shard_cfg.shard = shard;
        ServingEngine sharded(model, shard_cfg);

        Cell cell;
        cell.seq_len = seq_len;
        cell.degree = degree;
        cell.interconnect = icn_name;
        cell.arrival_rps = rate;
        cell.base_batch_s = base_batch_s;

        ShardPlanConfig plan_cfg;
        plan_cfg.shards = degree;
        plan_cfg.row_parallel_ffn2 = shard.row_parallel_ffn2;
        const ShardPlan plan = MakeShardPlan(model_cfg.encoder, plan_cfg);
        const InterconnectModel icn(icn_cfg);
        cell.share =
            PartitionOpWeights(ops, plan, model_cfg.encoder,
                               static_cast<double>(seq_len)).MaxShare();
        cell.comm_batch_s =
            static_cast<double>(kBatch * model_cfg.layers) *
            ShardLayerCommSeconds(plan, model_cfg.encoder, icn, seq_len);

        cell.replicated = replicated.Replay(trace).report();
        cell.sharded = sharded.Replay(trace).report();
        cell.p99_ratio =
            cell.sharded.p99_latency_s / cell.replicated.p99_latency_s;
        // A win needs margin so libm-level float drift between hosts
        // cannot flip the gated summary bit.
        cell.wins = cell.p99_ratio <= 0.99;
        cells.push_back(std::move(cell));
      }
    }
  }

  // Crossover per (degree, interconnect): the shortest swept sequence
  // length from which sharding keeps beating replication on p99 through
  // the end of the sweep (0 = it never does).
  struct Crossover {
    std::size_t degree = 0;
    std::string interconnect;
    std::size_t crossover_len = 0;
  };
  std::vector<Crossover> crossovers;
  bool headline = false;
  const std::size_t long_len = seq_lens.back();
  for (std::size_t degree : degrees) {
    for (const auto& [icn_name, icn_cfg] : interconnects) {
      Crossover xo;
      xo.degree = degree;
      xo.interconnect = icn_name;
      for (auto it = seq_lens.rbegin(); it != seq_lens.rend(); ++it) {
        const auto cell = std::find_if(
            cells.begin(), cells.end(), [&](const Cell& c) {
              return c.seq_len == *it && c.degree == degree &&
                     c.interconnect == icn_name;
            });
        if (!cell->wins) break;
        xo.crossover_len = *it;
        if (*it >= long_len) headline = true;
      }
      crossovers.push_back(std::move(xo));
    }
  }

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("shard");
  json.Key("schema_version").Value(std::size_t{1});
  StampHost(json);
  json.Key("model").Value(model_cfg.name);
  json.Key("requests").Value(kRequests);
  json.Key("batch").Value(kBatch);
  json.Key("load_factor").Value(kLoadFactor);
  json.Key("results");
  json.BeginArray();

  TextTable table({"seq_len", "degree", "interconnect", "batches",
                          "share", "comm frac", "repl p99 (ms)",
                          "shard p99 (ms)", "p99 ratio", "winner"});
  for (const Cell& cell : cells) {
    const double shard_batch_s =
        cell.share * cell.base_batch_s + cell.comm_batch_s;
    const double comm_fraction = cell.comm_batch_s / shard_batch_s;
    json.BeginObject();
    json.Key("seq_len").Value(cell.seq_len);
    json.Key("degree").Value(cell.degree);
    json.Key("interconnect").Value(cell.interconnect);
    json.Key("arrival_rps").Value(cell.arrival_rps);
    json.Key("requests").Value(cell.replicated.requests);
    json.Key("batches").Value(cell.replicated.batches);
    json.Key("base_batch_ms").Value(cell.base_batch_s * 1e3);
    json.Key("compute_share").Value(cell.share);
    json.Key("comm_batch_ms").Value(cell.comm_batch_s * 1e3);
    json.Key("comm_fraction").Value(comm_fraction);
    json.Key("replicated_p50_ms").Value(cell.replicated.p50_latency_s * 1e3);
    json.Key("replicated_p99_ms").Value(cell.replicated.p99_latency_s * 1e3);
    json.Key("sharded_p50_ms").Value(cell.sharded.p50_latency_s * 1e3);
    json.Key("sharded_p99_ms").Value(cell.sharded.p99_latency_s * 1e3);
    json.Key("p99_ratio").Value(cell.p99_ratio);
    json.Key("sharded_wins").Value(cell.wins);
    json.EndObject();

    table.AddRow({std::to_string(cell.seq_len), std::to_string(cell.degree),
                  cell.interconnect,
                  std::to_string(cell.replicated.batches),
                  Fmt(cell.share, 3), Fmt(comm_fraction, 3),
                  Fmt(cell.replicated.p99_latency_s * 1e3, 2),
                  Fmt(cell.sharded.p99_latency_s * 1e3, 2),
                  Fmt(cell.p99_ratio, 3),
                  cell.wins ? "sharded" : "replicated"});
  }
  json.EndArray();

  json.Key("crossovers");
  json.BeginArray();
  for (const auto& xo : crossovers) {
    json.BeginObject();
    json.Key("degree").Value(xo.degree);
    json.Key("interconnect").Value(xo.interconnect);
    json.Key("crossover_len").Value(xo.crossover_len);
    json.EndObject();
  }
  json.EndArray();
  json.Key("sharding_beats_replication_at_long_seq").Value(headline);
  json.EndObject();

  std::printf(
      "== Tensor-parallel vs replication: seq_len x degree x "
      "interconnect ==\n\n");
  std::printf("%s\n", table.Render().c_str());
  std::printf("crossover (shortest len from which sharding wins p99):\n");
  for (const auto& xo : crossovers) {
    if (xo.crossover_len > 0) {
      std::printf("  degree %zu, %s: len >= %zu\n", xo.degree,
                  xo.interconnect.c_str(), xo.crossover_len);
    } else {
      std::printf("  degree %zu, %s: never\n", xo.degree,
                  xo.interconnect.c_str());
    }
  }
  // Write the JSON before any failure exit: when the headline regresses,
  // CI still gets the per-cell numbers as an artifact to debug with.
  if (!json.WriteFile(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  if (!headline) {
    std::fprintf(stderr,
                 "error: tensor-parallel sharding beat replication in no "
                 "long-sequence cell; the cost model (or this sweep) "
                 "regressed\n");
    return 1;
  }
  return 0;
}
