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

  const bool sparse = inf.mode == InferenceMode::kSparseFloat ||
                      inf.mode == InferenceMode::kSparseInt8;
  const bool int8 = inf.mode == InferenceMode::kDenseInt8 ||
                    inf.mode == InferenceMode::kSparseInt8;

  MatrixF h = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    LayerRunStats layer_stats;
    AttentionFn attn;
    if (sparse) {
      const SparseAttentionConfig sa = inf.sparse;
      auto* out = stats != nullptr ? &layer_stats : nullptr;
      attn = [sa, out, scratch](const MatrixF& q, const MatrixF& k,
                                const MatrixF& v) {
        SparseAttentionStats s;
        MatrixF ctx = scratch != nullptr
                          ? SparseAttention(q, k, v, sa, &s, *scratch)
                          : SparseAttention(q, k, v, sa, &s);
        if (out != nullptr) {
          out->exact_macs += s.exact_macs;
          out->lut_multiplies += s.lut_multiplies;
        }
        return ctx;
      };
    } else if (workspace != nullptr) {
      // Lease the score matrix and pack buffer from the per-worker arena
      // (bit-identical to DenseAttention, which runs the same code on a
      // call-local Workspace).
      attn = [workspace](const MatrixF& q, const MatrixF& k,
                         const MatrixF& v) {
        return DenseAttentionWorkspace(q, k, v, *workspace);
      };
    } else {
      attn = DenseAttention;
    }
    if (int8) {
      h = QuantizedEncoderForward(
          h, qlayers_[l], cfg_.encoder, attn,
          workspace != nullptr ? workspace->gemm() : ThreadLocalGemmScratch());
    } else if (workspace != nullptr) {
      h = EncoderForwardWorkspace(h, layers_[l], cfg_.encoder, attn,
                                  *workspace);
    } else {
      h = EncoderForward(h, layers_[l], cfg_.encoder, attn);
    }
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
    out[i] = Forward(xs[i], inf, seq_stats, &ws.attention(), &ws);
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
