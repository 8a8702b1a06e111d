#include "serve/shard_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace latte {

ConfigIssues CheckShardServiceConfig(const ShardServiceConfig& cfg) {
  ConfigIssues issues;
  if (cfg.degree < 2) {
    AddIssue(issues, "degree",
             "must be >= 2 (a 1-shard gang is plain replication)");
  }
  MergePrefixed(issues, "interconnect",
                CheckInterconnectConfig(cfg.interconnect));
  return issues;
}

BatchServiceModel MakeShardedServiceModel(BatchServiceModel base,
                                          const ModelConfig& model,
                                          const ShardServiceConfig& cfg) {
  ThrowOnIssues("ShardServiceConfig", CheckShardServiceConfig(cfg));
  if (!base) {
    throw std::invalid_argument(
        "MakeShardedServiceModel: base service model is empty");
  }
  const EncoderConfig enc = model.encoder;
  const std::size_t layers = model.layers;
  const ShardPlan plan =
      MakeShardPlan(enc, {cfg.degree, cfg.row_parallel_ffn2});
  const InterconnectModel icn(cfg.interconnect);
  // The operator inventory prices the dense workflow: the conservative
  // shape (sparse attention only shrinks the head-parallel bucket).
  const std::vector<OpSpec> ops = EncoderOps(enc, AttentionMode::kDense);
  const std::size_t min_len = cfg.min_sharded_len;
  return [base = std::move(base), enc, layers, plan, icn, ops,
          min_len](const std::vector<std::size_t>& lengths) {
    const double base_s = base(lengths);
    if (lengths.empty()) return base_s;
    const std::size_t max_len =
        *std::max_element(lengths.begin(), lengths.end());
    if (min_len > 0 && max_len < min_len) return base_s;
    const double share =
        PartitionOpWeights(ops, plan, enc, static_cast<double>(max_len))
            .MaxShare();
    double comm_s = 0;
    for (const std::size_t len : lengths) {
      comm_s += static_cast<double>(layers) *
                ShardLayerCommSeconds(plan, enc, icn, len);
    }
    return base_s * share + comm_s;
  };
}

BatchServiceModel MakeShardCommModel(const ModelConfig& model,
                                     const ShardServiceConfig& cfg) {
  ThrowOnIssues("ShardServiceConfig", CheckShardServiceConfig(cfg));
  const EncoderConfig enc = model.encoder;
  const std::size_t layers = model.layers;
  const ShardPlan plan =
      MakeShardPlan(enc, {cfg.degree, cfg.row_parallel_ffn2});
  const InterconnectModel icn(cfg.interconnect);
  const std::size_t min_len = cfg.min_sharded_len;
  return [enc, layers, plan, icn,
          min_len](const std::vector<std::size_t>& lengths) {
    if (lengths.empty()) return 0.0;
    const std::size_t max_len =
        *std::max_element(lengths.begin(), lengths.end());
    if (min_len > 0 && max_len < min_len) return 0.0;
    double comm_s = 0;
    for (const std::size_t len : lengths) {
      comm_s += static_cast<double>(layers) *
                ShardLayerCommSeconds(plan, enc, icn, len);
    }
    return comm_s;
  };
}

}  // namespace latte
