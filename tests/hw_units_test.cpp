// Tests for the HBM channel apportionment and the int8 inference path.

#include <gtest/gtest.h>

#include <limits>

#include "core/sparse_attention.hpp"
#include "fpga/hbm.hpp"
#include "nn/qlinear.hpp"
#include "tensor/matmul.hpp"
#include "tensor/rng.hpp"

namespace latte {
namespace {

// ------------------------------------------------------------------ HBM --

TEST(HbmTest, ChannelsSumToAvailable) {
  const auto spec = AlveoU280Slr0();
  const std::vector<double> demand = {1.0, 2.0, 3.0};
  std::vector<std::size_t> ch(demand.size());
  ApportionChannels(spec, demand, ch);
  std::size_t sum = 0;
  for (auto c : ch) sum += c;
  EXPECT_EQ(sum, spec.hbm_channels);
}

TEST(HbmTest, ProportionalToDemand) {
  const auto spec = AlveoU280Slr0();  // 32 channels
  const std::vector<double> demand = {1.0, 3.0};
  std::vector<std::size_t> ch(demand.size());
  ApportionChannels(spec, demand, ch);
  EXPECT_EQ(ch[0], 8u);
  EXPECT_EQ(ch[1], 24u);
}

TEST(HbmTest, ZeroDemandGetsNothingTinyDemandGetsOne) {
  const auto spec = AlveoU280Slr0();
  const std::vector<double> demand = {0.0, 1e-9, 1.0};
  std::vector<std::size_t> ch(demand.size());
  ApportionChannels(spec, demand, ch);
  EXPECT_EQ(ch[0], 0u);
  EXPECT_GE(ch[1], 1u);
  EXPECT_GE(ch[2], 1u);
}

TEST(HbmTest, RejectsNegativeAndOversubscription) {
  const auto spec = AlveoU280Slr0();
  std::vector<std::size_t> one(1);
  EXPECT_THROW(ApportionChannels(spec, std::vector<double>{-1.0}, one),
               std::invalid_argument);
  std::vector<double> too_many(spec.hbm_channels + 1, 1.0);
  std::vector<std::size_t> out(too_many.size());
  EXPECT_THROW(ApportionChannels(spec, too_many, out), std::invalid_argument);
  EXPECT_THROW(ApportionChannels(spec, std::vector<double>{1.0, 2.0}, one),
               std::invalid_argument);
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
