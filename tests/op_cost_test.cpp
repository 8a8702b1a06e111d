// Tests for the operator cost inventory -- the ground truth every
// performance model consumes.

#include <gtest/gtest.h>

#include "model/config.hpp"
#include "nn/op_cost.hpp"

namespace latte {
namespace {

EncoderConfig BertBaseEncoder() {
  EncoderConfig cfg;
  cfg.hidden = 768;
  cfg.heads = 12;
  return cfg;
}

TEST(CostPolyTest, EvalAndAdd) {
  CostPoly a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(a.Eval(10), 123.0);
  CostPoly b{0.5, 0.0, 1.0};
  const CostPoly c = a + b;
  EXPECT_DOUBLE_EQ(c.Eval(2), 1.5 * 4 + 2.0 * 2 + 4.0);
}

TEST(EncoderOpsTest, DenseHasQuadraticAttention) {
  const auto ops = EncoderOps(BertBaseEncoder(), AttentionMode::kDense);
  bool found_quad = false;
  for (const auto& op : ops) {
    if (op.kind == OpKind::kScoreMatMul) {
      EXPECT_GT(op.flops.quad, 0.0);
      found_quad = true;
    }
  }
  EXPECT_TRUE(found_quad);
}

TEST(EncoderOpsTest, SparseModeIsLinearInN) {
  // The paper's central complexity claim: every sparse-mode operator is
  // O(n) in DSP work (the quadratic part lives in LUT fabric).
  const auto ops = EncoderOps(BertBaseEncoder(), AttentionMode::kSparseTopK, 30);
  for (const auto& op : ops) {
    EXPECT_EQ(op.flops.quad, 0.0) << OpKindName(op.kind);
  }
}

TEST(EncoderOpsTest, SparsePreselectionUsesLutFabric) {
  const auto ops = EncoderOps(BertBaseEncoder(), AttentionMode::kSparseTopK, 30);
  bool found = false;
  for (const auto& op : ops) {
    if (op.kind == OpKind::kAttentionSelect) {
      EXPECT_GT(op.lut_ops.quad, 0.0);  // Q'K'^T is still n^2, on LUTs
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EncoderOpsTest, DenseTotalMatchesClosedForm) {
  // Total dense FLOPs at n: QKV+out projections 8h^2 n, FFN 4h f n,
  // score+context matmuls 4h n^2, scale+mask 2H n^2, softmax 5H n^2,
  // LayerNorms 16 h n, GELU 10 f n.
  const auto cfg = BertBaseEncoder();
  const double h = 768, H = 12, f = 3072, n = 128;
  const auto ops = EncoderOps(cfg, AttentionMode::kDense);
  const double got = TotalFlops(ops, n);
  const double expect = 8 * h * h * n + 4 * h * f * n + 4 * h * n * n +
                        7 * H * n * n + 16 * h * n + 10 * f * n;
  EXPECT_NEAR(got, expect, expect * 1e-12);
}

TEST(EncoderOpsTest, SparseBeatsDenseAtLongLengths) {
  const auto cfg = BertBaseEncoder();
  const auto dense = EncoderOps(cfg, AttentionMode::kDense);
  const auto sparse = EncoderOps(cfg, AttentionMode::kSparseTopK, 30);
  EXPECT_LT(TotalFlops(sparse, 512), TotalFlops(dense, 512));
  EXPECT_LT(TotalFlops(sparse, 821), TotalFlops(dense, 821));
}

TEST(EncoderOpsTest, AttentionScopeIsScoreToContext) {
  const auto ops = EncoderOps(BertBaseEncoder(), AttentionMode::kDense);
  for (const auto& op : ops) {
    const bool expect_attention = op.kind == OpKind::kScoreMatMul ||
                                  op.kind == OpKind::kScale ||
                                  op.kind == OpKind::kMask ||
                                  op.kind == OpKind::kSoftmax ||
                                  op.kind == OpKind::kContextMatMul;
    EXPECT_EQ(op.in_attention, expect_attention) << OpKindName(op.kind);
  }
}

TEST(EncoderOpsTest, AttentionReductionMatchesPaperClaim) {
  // "With a Top-30 sparse attention, the attention computation complexity
  // can be reduced by more than 80% in average" -- at the SQuAD average
  // length 177 the score..context FLOPs must shrink by > 80%.
  const auto cfg = BertBaseEncoder();
  const auto dense = EncoderOps(cfg, AttentionMode::kDense);
  const auto sparse = EncoderOps(cfg, AttentionMode::kSparseTopK, 30);
  const double d = AttentionFlops(dense, 177);
  const double s = AttentionFlops(sparse, 177);
  EXPECT_LT(s, 0.2 * d);
}

TEST(EncoderOpsTest, StageHintsCoverFig2Partition) {
  const auto ops = EncoderOps(BertBaseEncoder(), AttentionMode::kSparseTopK, 30);
  for (const auto& op : ops) {
    EXPECT_GE(op.stage_hint, 1);
    EXPECT_LE(op.stage_hint, 3);
    if (op.kind == OpKind::kQkvProjection ||
        op.kind == OpKind::kAttentionSelect) {  // Stage 1: MM | At-Sel
      EXPECT_EQ(op.stage_hint, 1) << OpKindName(op.kind);
    }
    if (op.kind == OpKind::kSparseScore ||
        op.kind == OpKind::kSparseContext) {  // Stage 2: At-Comp
      EXPECT_EQ(op.stage_hint, 2) << OpKindName(op.kind);
    }
    if (op.kind == OpKind::kFfn1 || op.kind == OpKind::kGelu ||
        op.kind == OpKind::kFfn2) {  // Stage 3: FdFwd
      EXPECT_EQ(op.stage_hint, 3) << OpKindName(op.kind);
    }
  }
}

TEST(EncoderOpsTest, TopKScalesSparseCost) {
  const auto cfg = BertBaseEncoder();
  const auto k10 = EncoderOps(cfg, AttentionMode::kSparseTopK, 10);
  const auto k50 = EncoderOps(cfg, AttentionMode::kSparseTopK, 50);
  EXPECT_LT(AttentionFlops(k10, 177), AttentionFlops(k50, 177));
}

// ----------------------------------------------------------- ModelZoo ----

TEST(ModelZooTest, Table1Shapes) {
  const auto zoo = ModelZoo();
  ASSERT_EQ(zoo.size(), 4u);
  EXPECT_EQ(zoo[0].name, "DistilBERT");
  EXPECT_EQ(zoo[0].layers, 6u);
  EXPECT_EQ(zoo[0].encoder.hidden, 768u);
  EXPECT_EQ(zoo[0].encoder.heads, 12u);
  EXPECT_EQ(zoo[1].name, "BERT-base");
  EXPECT_EQ(zoo[1].layers, 12u);
  EXPECT_EQ(zoo[2].name, "RoBERTa");
  EXPECT_EQ(zoo[3].name, "BERT-large");
  EXPECT_EQ(zoo[3].layers, 24u);
  EXPECT_EQ(zoo[3].encoder.hidden, 1024u);
  EXPECT_EQ(zoo[3].encoder.heads, 16u);
}

// Dense FLOPs of a model's full encoder stack at sequence length n.
double DenseStackFlops(const ModelConfig& m, double n) {
  return static_cast<double>(m.layers) *
         TotalFlops(EncoderOps(m.encoder, AttentionMode::kDense), n);
}

TEST(ModelZooTest, DistilBertIsHalfOfBertBase) {
  const double n = 128;
  EXPECT_NEAR(DenseStackFlops(DistilBert(), n),
              0.5 * DenseStackFlops(BertBase(), n), 1.0);
}

TEST(ModelZooTest, BertLargeHeavierThanBase) {
  EXPECT_GT(DenseStackFlops(BertLarge(), 128),
            2.0 * DenseStackFlops(BertBase(), 128));
}

// Property sweep over lengths: dense total is monotonically increasing and
// superlinear; sparse total is linear (ratio of flops at 2n vs n == 2).
class CostScalingProperty : public ::testing::TestWithParam<double> {};

TEST_P(CostScalingProperty, SparseLinearDenseSuperlinear) {
  const double n = GetParam();
  const auto cfg = BertBaseEncoder();
  const auto dense = EncoderOps(cfg, AttentionMode::kDense);
  const auto sparse = EncoderOps(cfg, AttentionMode::kSparseTopK, 30);
  EXPECT_GT(TotalFlops(dense, 2 * n), 2.0 * TotalFlops(dense, n));
  EXPECT_NEAR(TotalFlops(sparse, 2 * n), 2.0 * TotalFlops(sparse, n),
              1e-6 * TotalFlops(sparse, n));
}

INSTANTIATE_TEST_SUITE_P(Lengths, CostScalingProperty,
                         ::testing::Values(32.0, 128.0, 512.0, 821.0));

}  // namespace
}  // namespace latte
