#pragma once
// Functional multi-layer inference engine.
//
// Instantiates real weights for a model configuration and runs the full
// encoder stack in any of four execution modes: {float, int8 fixed-point}
// x {dense, sparse Top-k} -- the four corners the paper's co-design moves
// between (fp32 GPU baseline -> 8-bit FPGA datapath -> sparse attention).
// The FPGA performance story lives in fpga/; this engine is the functional
// twin used for correctness and fidelity experiments on full models.

#include "core/sparse_attention.hpp"
#include "model/config.hpp"
#include "nn/qlinear.hpp"
#include "runtime/batch_runner.hpp"

namespace latte {

/// Which datapath to run.
enum class InferenceMode {
  kDenseFloat,   ///< fp32 + dense attention (the CPU/GPU reference)
  kSparseFloat,  ///< fp32 + sparse Top-k attention
  kDenseInt8,    ///< int8 matmuls + dense attention
  kSparseInt8,   ///< int8 matmuls + sparse attention (the FPGA datapath)
};

/// Inference knobs.
struct InferenceConfig {
  InferenceMode mode = InferenceMode::kSparseInt8;
  SparseAttentionConfig sparse;  ///< used by the sparse modes
};

/// Per-layer execution statistics (sparse modes only; zero otherwise).
struct LayerRunStats {
  std::size_t exact_macs = 0;
  std::size_t lut_multiplies = 0;
};

/// A model with materialized weights.
///
/// Weights are deterministic given the seed; int8 copies are prepared at
/// construction so Forward() is const and thread-compatible.
class ModelInstance {
 public:
  /// Materializes `cfg.layers` encoder layers of weights.
  ModelInstance(const ModelConfig& cfg, std::uint64_t seed);

  /// Runs the full encoder stack on x (n x hidden): every mode runs the
  /// one EncoderForward body, on the float or the int8 weights, with dense
  /// or sparse attention.
  /// If `stats` is non-null it receives one entry per layer.
  /// Every layer's GEMM pack buffers and attention scratch come from
  /// `workspace`, or from a call-local Workspace when it is null.  If
  /// `scratch` is non-null the sparse modes lease their per-row
  /// temporaries from it instead.  Outputs are bit-identical either way
  /// (same kernels, different buffers).
  MatrixF Forward(const MatrixF& x, const InferenceConfig& inf,
                  std::vector<LayerRunStats>* stats = nullptr,
                  AttentionScratch* scratch = nullptr,
                  Workspace* workspace = nullptr) const;

  /// Batched forward: runs every sequence of `xs` through the stack
  /// concurrently on `runner`.  Sequences are independent, so outputs are
  /// bit-identical to calling Forward() in a loop, at any worker count.
  /// If `stats` is non-null it receives one per-layer vector per sequence.
  std::vector<MatrixF> ForwardBatch(
      const std::vector<MatrixF>& xs, const InferenceConfig& inf,
      BatchRunner& runner,
      std::vector<std::vector<LayerRunStats>>* stats = nullptr) const;

  const ModelConfig& config() const { return cfg_; }
  std::size_t layer_count() const { return layers_.size(); }

  /// Materialized float weights of layer `i` (bounds-checked).  The
  /// adaptive layer's escalation probe reads layer 0's Q/K projections to
  /// score candidate-selector margins without running a forward pass.
  const EncoderWeights& layer(std::size_t i) const { return layers_.at(i); }

 private:
  ModelConfig cfg_;
  std::vector<EncoderWeights> layers_;
  std::vector<QuantizedEncoderWeights> qlayers_;
};

/// Shrinks a model configuration for functional experiments (hidden and
/// layer count divided by `factor`, heads adjusted to keep head_dim).
/// BERT-base / 6 -> 2 layers, hidden 128, 2 heads.
ModelConfig ScaledDown(const ModelConfig& model, std::size_t factor);

}  // namespace latte
