// Tests for the hardware unit models added on top of the core algorithm:
// the e^x LUT, the systolic II=1 Top-k sorting network, the HBM channel
// apportionment and the int8 inference path.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/exp_lut.hpp"
#include "core/fused_kernel.hpp"
#include "core/merge_sorter.hpp"
#include "core/sparse_attention.hpp"
#include "fpga/hbm.hpp"
#include "fpga/pipeline_sim.hpp"
#include "model/config.hpp"
#include "nn/qlinear.hpp"
#include "tensor/matmul.hpp"
#include "tensor/rng.hpp"

namespace latte {
namespace {

// ---------------------------------------------------------------- ExpLut --

TEST(ExpLutTest, AccurateOverWorkingRange) {
  ExpLut lut(64);
  EXPECT_LT(lut.MaxRelativeError(), 2e-3);
  for (float x : {-10.f, -1.f, 0.f, 0.5f, 1.f, 5.f, 20.f}) {
    EXPECT_NEAR(lut.Eval(x), std::exp(x), 2e-3 * std::exp(x)) << x;
  }
}

TEST(ExpLutTest, ResolutionImprovesAccuracy) {
  EXPECT_LT(ExpLut(256).MaxRelativeError(), ExpLut(16).MaxRelativeError());
}

TEST(ExpLutTest, SaturatesExtremes) {
  ExpLut lut;
  EXPECT_TRUE(std::isfinite(lut.Eval(1000.f)));
  EXPECT_GT(lut.Eval(1000.f), 1e37f);
  EXPECT_GE(lut.Eval(-1000.f), 0.f);
  EXPECT_LT(lut.Eval(-1000.f), 1e-37f);
}

TEST(ExpLutTest, MonotoneNonDecreasing) {
  ExpLut lut(64);
  float prev = lut.Eval(-30.f);
  for (float x = -29.9f; x < 30.f; x += 0.05f) {
    const float cur = lut.Eval(x);
    EXPECT_GE(cur, prev * (1 - 1e-6f)) << x;
    prev = cur;
  }
}

TEST(ExpLutTest, RejectsTinyTable) {
  EXPECT_THROW(ExpLut(1), std::invalid_argument);
}

TEST(ExpLutTest, PluggedIntoFusedKernelMatchesExp) {
  Rng rng(3);
  const auto q = rng.NormalMatrix(1, 32, 0.0, 1.0);
  const auto ks = rng.NormalMatrix(8, 32, 0.0, 1.0);
  ExpLut lut(128);
  FusedKernelConfig with;
  with.scale = 0.2f;
  with.exp_lut = &lut;
  FusedKernelConfig without;
  without.scale = 0.2f;
  const auto a = FusedScoreKernel(q.row(0), ks, with);
  const auto b = FusedScoreKernel(q.row(0), ks, without);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(a.exp_scores[j], b.exp_scores[j],
                2e-3f * b.exp_scores[j] + 1e-9f);
  }
}

// --------------------------------------------------------- SystolicTopK --

TEST(SystolicSorterTest, MatchesBehaviouralStreamingTopK) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(300);
    const std::size_t k = 1 + rng.NextIndex(40);
    std::vector<std::int32_t> row(n);
    for (auto& x : row) {
      x = static_cast<std::int32_t>(rng.NextIndex(60)) - 30;  // many ties
    }
    const auto systolic = SystolicTopK(row, k);
    const auto behavioural = TopK(row, k);
    ASSERT_EQ(systolic.size(), behavioural.size());
    for (std::size_t i = 0; i < systolic.size(); ++i) {
      EXPECT_EQ(systolic[i].index, behavioural[i].index);
      EXPECT_EQ(systolic[i].score, behavioural[i].score);
    }
  }
}

TEST(SystolicSorterTest, IiOneCycleAccounting) {
  SystolicTopKSorter sorter(8);
  for (int i = 0; i < 100; ++i) {
    sorter.Clock(i, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(sorter.cycles(), 100u);                 // one element per cycle
  EXPECT_EQ(sorter.compare_exchanges(), 800u);      // k comparators per cycle
  EXPECT_EQ(sorter.drain_latency(), 8u);
}

TEST(SystolicSorterTest, ResetReusable) {
  SystolicTopKSorter sorter(2);
  sorter.Clock(5, 0);
  sorter.Reset();
  EXPECT_EQ(sorter.cycles(), 0u);
  EXPECT_TRUE(sorter.Drain().empty());
  sorter.Clock(1, 1);
  ASSERT_EQ(sorter.Drain().size(), 1u);
  EXPECT_EQ(sorter.Drain()[0].index, 1u);
}

TEST(SystolicSorterTest, SortedOutput) {
  Rng rng(9);
  SystolicTopKSorter sorter(16);
  for (int i = 0; i < 500; ++i) {
    sorter.Clock(static_cast<std::int32_t>(rng.NextIndex(1000)),
                 static_cast<std::uint32_t>(i));
  }
  const auto out = sorter.Drain();
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].score, out[i].score);
  }
}

TEST(SystolicSorterTest, RejectsZeroK) {
  EXPECT_THROW(SystolicTopKSorter(0), std::invalid_argument);
}

// ------------------------------------------------------------------ HBM --

TEST(HbmTest, ChannelsSumToAvailable) {
  const auto spec = AlveoU280Slr0();
  const std::vector<double> demand = {1.0, 2.0, 3.0};
  const auto ch = ApportionChannels(spec, demand);
  std::size_t sum = 0;
  for (auto c : ch) sum += c;
  EXPECT_EQ(sum, spec.hbm_channels);
}

TEST(HbmTest, ProportionalToDemand) {
  const auto spec = AlveoU280Slr0();  // 32 channels
  const std::vector<double> demand = {1.0, 3.0};
  const auto ch = ApportionChannels(spec, demand);
  EXPECT_EQ(ch[0], 8u);
  EXPECT_EQ(ch[1], 24u);
}

TEST(HbmTest, ZeroDemandGetsNothingTinyDemandGetsOne) {
  const auto spec = AlveoU280Slr0();
  const std::vector<double> demand = {0.0, 1e-9, 1.0};
  const auto ch = ApportionChannels(spec, demand);
  EXPECT_EQ(ch[0], 0u);
  EXPECT_GE(ch[1], 1u);
  EXPECT_GE(ch[2], 1u);
}

TEST(HbmTest, RejectsNegativeAndOversubscription) {
  const auto spec = AlveoU280Slr0();
  EXPECT_THROW(ApportionChannels(spec, std::vector<double>{-1.0}),
               std::invalid_argument);
  std::vector<double> too_many(spec.hbm_channels + 1, 1.0);
  EXPECT_THROW(ApportionChannels(spec, too_many), std::invalid_argument);
}

TEST(HbmTest, StreamBandwidthScalesWithChannels) {
  const auto spec = AlveoU280Slr0();
  EXPECT_DOUBLE_EQ(StreamBandwidth(spec, spec.hbm_channels),
                   spec.SustainedHbm());
  EXPECT_DOUBLE_EQ(StreamBandwidth(spec, 0), 0.0);
}

// ---------------------------------------------------------------- int8 ---

TEST(QuantizedLinearTest, TracksFloatLayerClosely) {
  Rng rng(11);
  const Linear l = MakeLinear(rng, 64, 48);
  const QuantizedLinear q = QuantizedLinear::FromFloat(l);
  const auto x = rng.NormalMatrix(10, 64, 0.0, 1.0);
  const auto yf = l.Forward(x);
  const auto yq = q.Forward(x);
  ASSERT_EQ(yq.rows(), yf.rows());
  ASSERT_EQ(yq.cols(), yf.cols());
  EXPECT_GT(MeanRowCosine(yq, yf), 0.999);
  // Relative Frobenius error of 8-bit symmetric quantization stays small.
  const MatrixF zero(yf.rows(), yf.cols());
  const double rel =
      FrobeniusDistance(yq, yf) / FrobeniusDistance(yf, zero);
  EXPECT_LT(rel, 0.02);
}

TEST(QuantizedLinearTest, MacCount) {
  Rng rng(12);
  const QuantizedLinear q =
      QuantizedLinear::FromFloat(MakeLinear(rng, 8, 16));
  EXPECT_EQ(q.MacCount(10), 10u * 8u * 16u);
}

TEST(QuantizedLinearTest, InputWidthChecked) {
  Rng rng(13);
  const QuantizedLinear q =
      QuantizedLinear::FromFloat(MakeLinear(rng, 8, 8));
  MatrixF bad(2, 4);
  EXPECT_THROW(q.Forward(bad), std::invalid_argument);
}

TEST(QuantizedLinearTest, NonFiniteActivationThrows) {
  // The activation quantizer rejects NaN/Inf instead of coding them.
  Rng rng(16);
  const QuantizedLinear q =
      QuantizedLinear::FromFloat(MakeLinear(rng, 8, 8));
  MatrixF x = rng.NormalMatrix(2, 8, 0.0, 1.0);
  x(1, 3) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(q.Forward(x), std::invalid_argument);
  x(1, 3) = std::numeric_limits<float>::infinity();
  GemmScratch scratch;
  MatrixF y;
  EXPECT_THROW(q.ForwardInto(x, scratch, y), std::invalid_argument);
}

TEST(QuantizedLinearTest, ScratchChoiceKeepsBits) {
  Rng rng(17);
  const QuantizedLinear q =
      QuantizedLinear::FromFloat(MakeLinear(rng, 40, 24));
  const MatrixF x = rng.NormalMatrix(9, 40, 0.0, 1.0);
  GemmScratch scratch;
  MatrixF y;
  q.ForwardInto(x, scratch, y);
  EXPECT_EQ(y, q.Forward(x));
  // W was packed once, at load: a call never packs it into the scratch,
  // and repeated calls at one shape stop growing it.
  EXPECT_EQ(scratch.wpack.capacity(), 0u);
  const std::size_t bytes = scratch.CapacityBytes();
  for (int round = 0; round < 3; ++round) {
    q.ForwardInto(x, scratch, y);
    EXPECT_EQ(scratch.CapacityBytes(), bytes) << "round " << round;
  }
}

TEST(QuantizedEncoderTest, MatchesFloatEncoder) {
  Rng rng(14);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 4;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto qw = QuantizedEncoderWeights::FromFloat(w);
  const auto x = rng.NormalMatrix(24, 64, 0.0, 1.0);
  Workspace ws;
  const auto yf = EncoderForward(x, w, cfg, DenseAttention, ws);
  const auto yq = EncoderForward(x, qw, cfg, DenseAttention, ws);
  EXPECT_GT(MeanRowCosine(yq, yf), 0.995);
}

TEST(QuantizedEncoderTest, WorksWithSparseAttention) {
  Rng rng(15);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 4;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto qw = QuantizedEncoderWeights::FromFloat(w);
  const auto x = rng.NormalMatrix(32, 64, 0.0, 1.0);
  SparseAttentionConfig sa;
  sa.top_k = 32;  // degenerate-dense: isolates int8 error
  Workspace ws;
  const auto yq = EncoderForward(x, qw, cfg, MakeSparseAttentionFn(sa), ws);
  const auto yf = EncoderForward(x, w, cfg, DenseAttention, ws);
  EXPECT_GT(MeanRowCosine(yq, yf), 0.99);
}

}  // namespace
}  // namespace latte
