#include "model/inference.hpp"

#include <algorithm>
#include <stdexcept>

namespace latte {

ModelInstance::ModelInstance(const ModelConfig& cfg, std::uint64_t seed)
    : cfg_(cfg) {
  Rng rng(seed);
  layers_.reserve(cfg.layers);
  qlayers_.reserve(cfg.layers);
  for (std::size_t l = 0; l < cfg.layers; ++l) {
    layers_.push_back(MakeEncoderWeights(rng, cfg.encoder));
    qlayers_.push_back(QuantizedEncoderWeights::FromFloat(layers_.back()));
  }
}

MatrixF ModelInstance::Forward(const MatrixF& x, const InferenceConfig& inf,
                               std::vector<LayerRunStats>* stats,
                               AttentionScratch* scratch,
                               Workspace* workspace) const {
  if (stats != nullptr) stats->clear();
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  const bool int8 = inf.mode == InferenceMode::kDenseInt8 ||
                    inf.mode == InferenceMode::kSparseInt8;

  LayerRunStats layer_stats;
  SparseAttentionStats s;  // one per call: its candidate copy is reused
  AttentionFn attn = DenseAttention;
  if (inf.mode == InferenceMode::kSparseFloat ||
      inf.mode == InferenceMode::kSparseInt8) {
    attn = [&inf, &layer_stats, &s, scratch](const MatrixF& q,
                                             const MatrixF& k,
                                             const MatrixF& v, Workspace& w) {
      AttentionScratch& sc = scratch != nullptr ? *scratch : w.attention();
      MatrixF ctx = SparseAttention(q, k, v, inf.sparse, &s, sc);
      layer_stats.exact_macs += s.exact_macs;
      layer_stats.lut_multiplies += s.lut_multiplies;
      return ctx;
    };
  }

  MatrixF h = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layer_stats = {};
    h = int8 ? EncoderForward(h, qlayers_[l], cfg_.encoder, attn, ws)
             : EncoderForward(h, layers_[l], cfg_.encoder, attn, ws);
    if (stats != nullptr) stats->push_back(layer_stats);
  }
  return h;
}

std::vector<MatrixF> ModelInstance::ForwardBatch(
    const std::vector<MatrixF>& xs, const InferenceConfig& inf,
    BatchRunner& runner,
    std::vector<std::vector<LayerRunStats>>* stats) const {
  std::vector<MatrixF> out(xs.size());
  if (stats != nullptr) {
    stats->assign(xs.size(), {});
  }
  runner.Run(xs.size(), [&](std::size_t i, Workspace& ws) {
    auto* seq_stats = stats != nullptr ? &(*stats)[i] : nullptr;
    out[i] = Forward(xs[i], inf, seq_stats, nullptr, &ws);
  });
  return out;
}

ModelConfig ScaledDown(const ModelConfig& model, std::size_t factor) {
  if (factor == 0) {
    throw std::invalid_argument("ScaledDown: factor must be >= 1");
  }
  ModelConfig small = model;
  small.name = model.name + "/" + std::to_string(factor);
  small.layers = std::max<std::size_t>(1, model.layers / factor);
  const std::size_t head_dim = model.encoder.head_dim();
  small.encoder.hidden =
      std::max<std::size_t>(head_dim, model.encoder.hidden / factor);
  // Keep head_dim constant so attention behaves like the full model.
  small.encoder.heads = std::max<std::size_t>(1, small.encoder.hidden / head_dim);
  small.encoder.hidden = small.encoder.heads * head_dim;
  small.encoder.ffn_dim = 4 * small.encoder.hidden;
  return small;
}

}  // namespace latte
