// Tests for the streaming Top-k selector (the II=1 merge-sort model).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/topk.hpp"
#include "tensor/rng.hpp"

namespace latte {
namespace {

TEST(StreamingTopKTest, RejectsZeroK) {
  EXPECT_THROW(StreamingTopK(0), std::invalid_argument);
}

TEST(StreamingTopKTest, FewerElementsThanKReturnsAll) {
  StreamingTopK sel(10);
  sel.Push(3, 0);
  sel.Push(1, 1);
  sel.Push(2, 2);
  ASSERT_EQ(sel.Result().size(), 3u);
  EXPECT_EQ(sel.Result()[0].score, 3);
  EXPECT_EQ(sel.Result()[1].score, 2);
  EXPECT_EQ(sel.Result()[2].score, 1);
}

TEST(StreamingTopKTest, KeepsBestK) {
  StreamingTopK sel(2);
  for (std::int32_t v : {5, 9, 1, 7, 3}) {
    sel.Push(v, static_cast<std::uint32_t>(v));
  }
  ASSERT_EQ(sel.Result().size(), 2u);
  EXPECT_EQ(sel.Result()[0].score, 9);
  EXPECT_EQ(sel.Result()[1].score, 7);
}

TEST(StreamingTopKTest, TieBreaksTowardSmallerIndex) {
  StreamingTopK sel(2);
  sel.Push(5, 3);
  sel.Push(5, 1);
  sel.Push(5, 2);
  ASSERT_EQ(sel.Result().size(), 2u);
  EXPECT_EQ(sel.Result()[0].index, 1u);
  EXPECT_EQ(sel.Result()[1].index, 2u);
}

TEST(StreamingTopKTest, CyclesEqualsPushedElements) {
  StreamingTopK sel(4);
  for (int i = 0; i < 37; ++i) {
    sel.Push(i, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(sel.cycles(), 37u);
}

TEST(StreamingTopKTest, ResetClearsState) {
  StreamingTopK sel(2);
  sel.Push(10, 0);
  sel.Reset();
  EXPECT_EQ(sel.pushed(), 0u);
  EXPECT_TRUE(sel.Result().empty());
}

TEST(StreamingTopKTest, PushReportsAdmission) {
  StreamingTopK sel(1);
  EXPECT_TRUE(sel.Push(5, 0));
  EXPECT_FALSE(sel.Push(3, 1));  // worse than current best
  EXPECT_TRUE(sel.Push(9, 2));
}

TEST(StreamingTopKTest, NegativeScoresHandled) {
  StreamingTopK sel(2);
  sel.Push(-5, 0);
  sel.Push(-1, 1);
  sel.Push(-9, 2);
  EXPECT_EQ(sel.Result()[0].score, -1);
  EXPECT_EQ(sel.Result()[1].score, -5);
}

TEST(TopKTest, MatchesFullSort) {
  Rng rng(77);
  std::vector<std::int32_t> row(200);
  for (auto& x : row) {
    x = static_cast<std::int32_t>(rng.NextIndex(1000)) - 500;
  }
  const auto got = TopK(row, 20);
  auto sorted = row;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  ASSERT_EQ(got.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(got[i].score, sorted[i]);
  }
}

TEST(TopKTest, EmptyRowYieldsEmpty) {
  EXPECT_TRUE(TopK({}, 5).empty());
}

// Property sweep: streaming selection == sort-based selection for many
// (n, k) shapes including k > n.
class TopKProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(TopKProperty, StreamingEqualsSortBased) {
  const auto [n, k] = GetParam();
  Rng rng(1000 + n * 31 + k);
  std::vector<std::int32_t> row(n);
  for (auto& x : row) {
    x = static_cast<std::int32_t>(rng.NextIndex(50)) - 25;  // many ties
  }
  const auto got = TopK(row, k);

  // Reference: stable sort by (score desc, index asc).
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (row[a] != row[b]) return row[a] > row[b];
    return a < b;
  });
  const std::size_t expect = std::min(n, k);
  ASSERT_EQ(got.size(), expect);
  for (std::size_t i = 0; i < expect; ++i) {
    EXPECT_EQ(got[i].index, order[i]) << "position " << i;
    EXPECT_EQ(got[i].score, row[order[i]]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopKProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 5, 32, 100, 500),
                       ::testing::Values<std::size_t>(1, 3, 10, 30, 600)));

}  // namespace
}  // namespace latte
