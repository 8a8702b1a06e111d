// Tests for the design-space search layer: DesignPoint exact JSON
// round-trip, unified per-field validation, menu-bounded mutation over
// long seeded walks, evaluator byte-determinism, thread-count-invariant
// annealing, and the headline gate -- SA matches or beats every
// hand-tuned bench_cluster baseline on the shared trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "latte/latte.hpp"

namespace latte {
namespace {

using search::AnnealingConfig;
using search::AnnealSearch;
using search::BackendSlots;
using search::CheckDesignPoint;
using search::CheckInSpace;
using search::DesignEvaluator;
using search::DesignPoint;
using search::DesignPointFromJson;
using search::DesignPointToJson;
using search::DesignScore;
using search::Dominates;
using search::MutateDesign;
using search::ReplicaDesign;
using search::SampleDesign;
using search::SearchResult;

DesignPoint SmallDesign(std::size_t replicas = 2) {
  DesignPoint dp;
  for (std::size_t i = 0; i < replicas; ++i) {
    ReplicaDesign rd;
    rd.former.max_batch = 8;
    rd.former.timeout_s = 0.02;
    rd.workers = 1;
    rd.top_k = 30;
    dp.replicas.push_back(rd);
  }
  return dp;
}

/// The hand-tuned bench_cluster fleet shapes as DesignPoints: fleets of
/// 2 and 4 behind the four load-balancing policies, 8-deep 50 ms batch
/// formers, one worker per replica, no cache.
std::vector<DesignPoint> BenchClusterBaselines() {
  const std::vector<std::size_t> fleets = {2, 4};
  const std::vector<RouterPolicy> policies = {
      RouterPolicy::kRoundRobin, RouterPolicy::kJoinShortestQueue,
      RouterPolicy::kLeastOutstandingTokens, RouterPolicy::kLengthBucketed};
  std::vector<DesignPoint> baselines;
  for (const std::size_t fleet : fleets) {
    for (const RouterPolicy policy : policies) {
      DesignPoint dp;
      for (std::size_t i = 0; i < fleet; ++i) {
        ReplicaDesign rd;
        rd.former.max_batch = 8;
        rd.former.timeout_s = 0.05;
        rd.workers = 1;
        rd.top_k = 30;
        dp.replicas.push_back(rd);
      }
      dp.router.policy = policy;
      if (policy == RouterPolicy::kLengthBucketed) {
        dp.router.length_edges = fleet >= 4
                                     ? std::vector<std::size_t>{105, 152, 219}
                                     : std::vector<std::size_t>{152};
      }
      baselines.push_back(dp);
    }
  }
  return baselines;
}

const DesignEvaluator& SharedEvaluator() {
  static const DesignEvaluator evaluator;
  return evaluator;
}

TEST(DesignPointTest, JsonRoundTripIsExact) {
  DesignPoint dp = SmallDesign(2);
  dp.replicas[1].backend = BackendMode::kSharded;
  dp.replicas[1].shard.degree = 4;
  dp.replicas[1].former.timeout_s = 0.1 / 3.0;  // not exactly representable
  dp.replicas[1].former.sort_by_length = true;
  dp.router.policy = RouterPolicy::kLengthBucketed;
  dp.router.length_edges = {105, 152, 219};
  dp.cache_mode = ClusterCacheMode::kShared;
  dp.cache.enabled = true;
  dp.cache.eviction = EvictionPolicy::kSegmentedLru;
  dp.cache.capacity_bytes = 8u << 20;
  dp.cache.ttl_s = 12.5;

  const std::string json = DesignPointToJson(dp);
  const DesignPoint back = DesignPointFromJson(json);
  EXPECT_EQ(json, DesignPointToJson(back));
  EXPECT_EQ(back.replicas[1].former.timeout_s,
            dp.replicas[1].former.timeout_s);  // bit-exact double
  EXPECT_EQ(back.replicas[1].backend, BackendMode::kSharded);
  EXPECT_TRUE(back.cache.enabled);  // implied by mode on parse
  EXPECT_TRUE(CheckDesignPoint(back).empty());
}

TEST(DesignPointTest, JsonRejectsMalformedInput) {
  EXPECT_THROW(DesignPointFromJson("{"), std::invalid_argument);
  EXPECT_THROW(DesignPointFromJson("{}"), std::invalid_argument);
  const std::string json = DesignPointToJson(SmallDesign());
  EXPECT_THROW(DesignPointFromJson(json + "x"), std::invalid_argument);
  // A fractional count is rejected, not truncated.
  std::string fractional = json;
  const std::size_t at = fractional.find("\"workers\":");
  ASSERT_NE(at, std::string::npos);
  fractional.insert(fractional.find_first_of(",}", at), ".5");
  EXPECT_THROW(DesignPointFromJson(fractional), std::invalid_argument);
}

TEST(DesignPointTest, JsonRejectsNestingPastTheDepthLimit) {
  // 200 000 nested arrays once overflowed the recursive parser's stack;
  // every reader sharing it must refuse them with the offending offset.
  const std::size_t deep = 200000;
  const std::string bomb = std::string(deep, '[') + std::string(deep, ']');
  EXPECT_THROW(DesignPointFromJson(bomb), std::invalid_argument);
  EXPECT_THROW(TraceFromJson(bomb), std::invalid_argument);
  try {
    search::ParseJson(bomb);
    ADD_FAILURE() << "ParseJson accepted " << deep << " nested arrays";
  } catch (const std::invalid_argument& e) {
    const std::string offset =
        "at offset " + std::to_string(search::kMaxJsonDepth);
    EXPECT_NE(std::string(e.what()).find(offset), std::string::npos)
        << e.what();
  }
  const std::size_t limit = search::kMaxJsonDepth;
  const std::string ok = std::string(limit, '[') + std::string(limit, ']');
  EXPECT_NO_THROW(search::ParseJson(ok));
}

TEST(DesignPointTest, CheckNamesEveryIllegalField) {
  DesignPoint dp = SmallDesign(2);
  dp.replicas[0].former.max_batch = 0;
  dp.replicas[1].workers = 0;
  dp.replicas[1].top_k = 0;
  ConfigIssues issues = CheckDesignPoint(dp);
  EXPECT_TRUE(HasIssueFor(issues, "replicas[0].former.max_batch"));
  EXPECT_TRUE(HasIssueFor(issues, "replicas[1].workers"));
  EXPECT_TRUE(HasIssueFor(issues, "replicas[1].top_k"));

  dp = SmallDesign(1);
  dp.replicas[0].backend = BackendMode::kSharded;
  dp.replicas[0].shard.degree = 1;
  EXPECT_TRUE(HasIssueFor(CheckDesignPoint(dp), "replicas[0].shard.degree"));

  dp = SmallDesign(2);
  dp.router.policy = RouterPolicy::kLengthBucketed;  // no edges
  EXPECT_TRUE(HasIssueFor(CheckDesignPoint(dp), "router.length_edges"));

  dp = SmallDesign(2);
  dp.cache_mode = ClusterCacheMode::kShared;
  dp.cache.eviction = EvictionPolicy::kSegmentedLru;
  dp.cache.protected_fraction = 0;
  EXPECT_TRUE(
      HasIssueFor(CheckDesignPoint(dp), "cache.protected_fraction"));

  EXPECT_TRUE(HasIssueFor(CheckDesignPoint(DesignPoint{}), "replicas"));
  EXPECT_TRUE(CheckDesignPoint(SmallDesign()).empty());
}

TEST(DesignPointTest, AdaptersMatchHandWrittenConfigs) {
  DesignPoint dp = SmallDesign(2);
  dp.replicas[0].queue_capacity = 64;
  dp.replicas[0].top_k = 16;
  dp.cache_mode = ClusterCacheMode::kPerReplica;
  dp.cache.enabled = true;
  const ClusterConfig cfg = search::ClusterConfigFromDesignPoint(dp);
  ASSERT_EQ(cfg.replicas.size(), 2u);
  EXPECT_EQ(cfg.replicas[0].engine.former.max_batch, 8u);
  EXPECT_EQ(cfg.replicas[0].engine.queue_capacity, 64u);
  EXPECT_EQ(cfg.replicas[0].engine.inference.sparse.top_k, 16u);
  EXPECT_EQ(cfg.cache.mode, ClusterCacheMode::kPerReplica);
  EXPECT_EQ(cfg.router.policy, dp.router.policy);
}

TEST(DesignSpaceTest, SampleAlwaysLandsInSpace) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const DesignPoint dp = SampleDesign(rng);
    const ConfigIssues issues = CheckInSpace(dp);
    ASSERT_TRUE(issues.empty())
        << issues[0].field << " " << issues[0].reason;
    EXPECT_LE(BackendSlots(dp), search::kMaxBackendSlots);
  }
}

TEST(DesignSpaceTest, MutationStaysMenuValuedOverTenThousandSteps) {
  Rng rng(17);
  DesignPoint cur = SampleDesign(rng);
  std::size_t over_budget = 0;
  for (int step = 0; step < 10000; ++step) {
    const DesignPoint prop = MutateDesign(cur, rng);
    const ConfigIssues issues = CheckInSpace(prop);
    if (issues.empty()) {
      cur = prop;
      continue;
    }
    // The only legal way out of the space is the slot budget; every knob
    // must stay on its menu.
    for (const ConfigIssue& issue : issues) {
      EXPECT_EQ(issue.field, "replicas") << issue.field << " " << issue.reason;
    }
    ++over_budget;
  }
  EXPECT_GT(over_budget, 0u);  // the rejection path is actually exercised
}

TEST(DesignSpaceTest, CheckInSpaceNamesOffMenuKnobs) {
  DesignPoint dp = SmallDesign(1);
  dp.replicas[0].former.max_batch = 7;  // legal, but off the menu
  EXPECT_TRUE(
      HasIssueFor(CheckInSpace(dp), "replicas[0].former.max_batch"));
  dp = SmallDesign(1);
  dp.replicas[0].workers = 4;
  dp.replicas[0].backend = BackendMode::kSharded;
  dp.replicas[0].shard.degree = 2;  // 8 slots > budget of 6
  EXPECT_TRUE(HasIssueFor(CheckInSpace(dp), "replicas"));
}

// The serialized size and FNV-1a 64 digest of a design's JSON record.
struct Recorded {
  std::size_t bytes;
  std::uint64_t fnv1a;
};

Recorded Record(const DesignPoint& dp) {
  const std::string json = DesignPointToJson(dp);
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : json) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return {json.size(), h};
}

// Records of SampleDesign at seeds 1-8, taken when every menu of the
// space was still a settable field at its default.  The menus are
// constants now; a change that moves any sample moves these records.
constexpr Recorded kSampleRecords[] = {
    {2810, 0x8fe24a9b31d92bc6u}, {2148, 0x50326822a12d2eb4u},
    {1570, 0xab313e74391a69ebu}, {1551, 0xec143c2cd8f851ecu},
    {2319, 0x9f5b3cababf7f89au}, {2172, 0x6d092a83b9afa6beu},
    {1522, 0x841abbf3c2f22771u}, {2151, 0x46bfba038c0e7cdbu},
};

// Records of the 200 proposals of a MutateDesign walk from the seed-17
// sample (accepting each proposal CheckInSpace passes), taken at the
// same point.
constexpr Recorded kWalkRecords[] = {
    {2797, 0x7e118611ed556d31u}, {2796, 0xe2ad0f9332d17510u},
    {2795, 0x6ebfa3fda097a61fu}, {2796, 0x2c28e70dd0874e98u},
    {2813, 0x1a13dac225324047u}, {2813, 0x59b609eaec1990f3u},
    {2816, 0x9441089eb1353f35u}, {2813, 0x77bba315ab037095u},
    {2823, 0xde3849112d256522u}, {2820, 0xb6759325aad10facu},
    {2823, 0xe704330075242b4du}, {2826, 0xdbf20fbb7ef94eddu},
    {2831, 0x758dc09c8a79ab68u}, {2834, 0x62c2d7f4344a119fu},
    {2817, 0xbdb3b843091b1946u}, {2968, 0x9d194c9a4d9e4cb0u},
    {2969, 0x070398345b014569u}, {2969, 0x320209ebd69b20a3u},
    {2966, 0xbc8b90b7ab2b9f31u}, {2972, 0xbd91d240f4bd192fu},
    {2338, 0xcf1591bf745df1e9u}, {2339, 0xa01600bbfd1aa23bu},
    {2334, 0xf1c4936a8c8b3a9cu}, {1537, 0x0b31e0d02dfa8cb6u},
    {1534, 0x26ce614b5a9567f8u}, {1551, 0x11211211c98146a1u},
    {2181, 0xad40b0278b6e7fc4u}, {1551, 0x11211211c98146a1u},
    {1563, 0x22ae0d497b822d5bu}, {933, 0xe19470406a4bfe86u},
    {933, 0x35198b4eee286f1fu}, {1096, 0x3e749c65d5bb9461u},
    {1895, 0x39ce8d76ad8c1d1du}, {1585, 0x4c60c2b2766df2f8u},
    {2221, 0xa0f07d05b9cf719au}, {2218, 0x200d8ef6734acc60u},
    {2854, 0x2851d58f0503db42u}, {2837, 0xe4fa8e46a0b51eafu},
    {2837, 0xbd9c8927b7065a5bu}, {2834, 0x21c1dee73ba3ecbdu},
    {2837, 0xe4fa8e46a0b51eafu}, {2830, 0x0b9c65dd1ae93a6au},
    {2829, 0xa241cb5ccaa95447u}, {2829, 0xe308f5f36104b1e3u},
    {2828, 0x1c374acec00b6582u}, {2827, 0x1a0f4a9cf3f66549u},
    {2827, 0x810fc5225b91a7fdu}, {2191, 0x8c0e41cca3722617u},
    {1558, 0x1bc496a38fb0bb5fu}, {1559, 0xf7ffa572514d79feu},
    {1566, 0x5b783bdfb4e90e93u}, {1712, 0x3b15e5effeaecb0fu},
    {1700, 0x844dc61aaaf0b05du}, {1700, 0x29c3ee25184fd199u},
    {1697, 0x5c3c26372826afc5u}, {1697, 0x3abcd0dd4abf1073u},
    {1063, 0x9221fe8f1c91b68bu}, {1064, 0x33c959068d27c304u},
    {1063, 0x1ab8928bc8dea9f7u}, {1063, 0xcff8aa70c7e9aea8u},
    {1066, 0x10d1e707c821ba08u}, {1066, 0xecfc8f9e86bdb981u},
    {1065, 0x51f87d623b49531fu}, {1842, 0xfcda9245e0477afeu},
    {1082, 0x96bbaeecccabef1cu}, {1081, 0x70f1dcf2321db7c4u},
    {1083, 0xe9f13eddc5f36d02u}, {1876, 0x031ed1ed22e5a172u},
    {937, 0x95e29d7c3e517bdbu}, {1084, 0xbabd734155b9ce25u},
    {1091, 0x99ef0b6c2224174cu}, {1092, 0x1e7a049c03cd7ce4u},
    {946, 0xdc215b140ff987abu}, {934, 0xda4cd90d6d50a121u},
    {937, 0x76385df76a5fe41eu}, {932, 0xde1da41af9781fc3u},
    {929, 0x3840f85eff06395eu}, {928, 0xa9f03fa1980e6abbu},
    {928, 0xa9f03fa1980e6abbu}, {927, 0x9854fa5eed8f1762u},
    {927, 0x9854fa5eed8f1762u}, {930, 0xcb5bca850bc3e386u},
    {927, 0x9854fa5eed8f1762u}, {927, 0x1c943a7bdd0e3483u},
    {928, 0xddd1c9f27900bcfdu}, {938, 0x96c7c167a3df27c6u},
    {938, 0x6c3babf6eea775a1u}, {1570, 0x96d61705c8e41105u},
    {1570, 0x96d61705c8e41105u}, {1088, 0x77b79da8fb52377eu},
    {1088, 0x77b79da8fb52377eu}, {1071, 0x6c470d0f5facd0adu},
    {1071, 0xdf8389ce74e3a80bu}, {1071, 0x6c470d0f5facd0adu},
    {1072, 0x74356b352abc5aa6u}, {1071, 0x2c614d6f9bbcf0cdu},
    {926, 0xf75687540fd2217au}, {1541, 0x50d3b0b7b67d92d5u},
    {1541, 0x50d3b0b7b67d92d5u}, {1541, 0x50d3b0b7b67d92d5u},
    {943, 0xe319f81eeb0269c7u}, {1575, 0xff730b3cca096313u},
    {926, 0xf75687540fd2217au}, {927, 0x0d2d78ce7a2d335bu},
    {944, 0xeff40172dd5cd4f8u}, {944, 0x012d0c2d213e8f6cu},
    {944, 0xe4448a566336644cu}, {945, 0x2680efdd4322fd7du},
    {1579, 0x798c282433bfd1f7u}, {945, 0x860eef4a5882e243u},
    {942, 0x628f633067eb6daau}, {932, 0x0299614d243d81efu},
    {920, 0x61af16306ff612aau}, {903, 0xd83f0f7127ee3c85u},
    {913, 0xc64b46dcc9deb6a4u}, {913, 0x7c394eae3013ecc1u},
    {930, 0x62dac9dd294d2242u}, {929, 0x6b30eda0ac65499du},
    {1074, 0xcf86e7891d7beeafu}, {1074, 0xcf86e7891d7beeafu},
    {1077, 0xe6aa7df23cc41932u}, {933, 0xf44d27be587e1a22u},
    {936, 0x0d4937178b71619au}, {935, 0xc922700fdc4bfce3u},
    {935, 0xc6eeb8c9c62a25a6u}, {935, 0x9867e775a3b48c9cu},
    {935, 0x9f5a65ce17a554ddu}, {934, 0x9e3fb3fcaffe26b4u},
    {935, 0x3f2e27b63a15a799u}, {934, 0xf0976169ec62527fu},
    {917, 0x2be1097641cb84bcu}, {917, 0x6bce8992ce2e8a51u},
    {917, 0x3b5f78659d84c91fu}, {917, 0xcb842711b33df452u},
    {917, 0x7d3c112aafafe54du}, {1535, 0x11f20b8c8e57f58cu},
    {917, 0x7d3c112aafafe54du}, {1535, 0x11f20b8c8e57f58cu},
    {1534, 0xaa972ef14f926885u}, {1531, 0x93e222e950a2bb6du},
    {1531, 0x8d91867255c39317u}, {914, 0x05357bcacd54b23fu},
    {915, 0xb398f27c26b7ea56u}, {905, 0x93ef84bf5385be79u},
    {908, 0x53ea10747968f10fu}, {909, 0x4723f1031ada9969u},
    {919, 0x5b200710fe01e66cu}, {919, 0x98949577fe10dfdfu},
    {916, 0x0c837490e8e20fc5u}, {1538, 0x1497228086c64b02u},
    {1528, 0x2a3209587bdd9f4bu}, {1538, 0x1497228086c64b02u},
    {1551, 0x16f403a4e259b3d0u}, {2170, 0xab2178050be74199u},
    {1551, 0x16f403a4e259b3d0u}, {932, 0xf895e7682021637bu},
    {1551, 0x16f403a4e259b3d0u}, {1551, 0x16f403a4e259b3d0u},
    {1551, 0x528f80320e985e14u}, {1551, 0xedae837aa0a34e7cu},
    {1695, 0x4c09e3e71a524a72u}, {1692, 0xa2475711eb1f5988u},
    {1076, 0xb016adfe3efc6c95u}, {1064, 0xc61ed53a230af97cu},
    {1071, 0xca8a232b44530413u}, {1852, 0xf42c5cdc6a95c270u},
    {1852, 0xe54ec006e6bbe2c7u}, {1071, 0xe918ede348693fb8u},
    {1071, 0xef8dee054d42fcf1u}, {1070, 0x2253a6d9fabf6316u},
    {1071, 0xa420c7618bbf6571u}, {1070, 0x912219d1846195c4u},
    {1070, 0xe8e73cbe53e2ce9du}, {1070, 0x6f4fc5129460adcfu},
    {1850, 0x045811fb9fc65a82u}, {1867, 0x7d67e7802b110271u},
    {1706, 0x275d1d1b00946bfcu}, {1703, 0x0fb49c1b2f94fafau},
    {1706, 0x53ceca06965ad1f7u}, {2486, 0x2e007334e9807969u},
    {2491, 0x69a5070f56f603a3u}, {2492, 0x2a79e7a73fbe8336u},
    {2489, 0xd435d93ac6cf2d52u}, {2489, 0xf887fa460bb4966cu},
    {2187, 0x54fd027ef24ea150u}, {2184, 0xe019d082aa4d6b74u},
    {2187, 0xc3e08f009b90d38fu}, {2186, 0x1055cc03aa118b20u},
    {2183, 0x71e41900b77b2394u}, {2183, 0x441e2d54c3bcfd84u},
    {2822, 0x336c55d07ce9a4b0u}, {1550, 0x9e809cfab648b170u},
    {931, 0x8095b7ec4efd20fdu}, {931, 0x654bc2c4afbb8e97u},
    {930, 0xb2059886682e67a0u}, {1075, 0x3557437cf9814d36u},
    {1076, 0x640b9e5ee666c2b5u}, {1075, 0xee6d3fd4b83d0058u},
    {914, 0x26986687369aed2fu}, {930, 0x097edcd759eb6ccau},
};

TEST(DesignSpaceTest, SamplesMatchTheRecordedDesigns) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const DesignPoint dp = SampleDesign(rng);
    const Recorded got = Record(dp);
    const Recorded& want = kSampleRecords[seed - 1];
    EXPECT_EQ(got.bytes, want.bytes) << "seed " << seed;
    EXPECT_EQ(got.fnv1a, want.fnv1a)
        << "seed " << seed << ": " << DesignPointToJson(dp);
  }
}

TEST(DesignSpaceTest, MutationWalkMatchesTheRecordedDesigns) {
  Rng rng(17);
  DesignPoint cur = SampleDesign(rng);
  for (std::size_t step = 0; step < std::size(kWalkRecords); ++step) {
    const DesignPoint prop = MutateDesign(cur, rng);
    const Recorded got = Record(prop);
    ASSERT_EQ(got.bytes, kWalkRecords[step].bytes) << "step " << step;
    ASSERT_EQ(got.fnv1a, kWalkRecords[step].fnv1a)
        << "step " << step << ": " << DesignPointToJson(prop);
    if (CheckInSpace(prop).empty()) cur = prop;
  }
}

TEST(DesignEvaluatorTest, EvaluationIsByteDeterministic) {
  const DesignEvaluator& evaluator = SharedEvaluator();
  DesignPoint dp = BenchClusterBaselines()[3];  // 2x length-bucketed
  dp.cache_mode = ClusterCacheMode::kShared;
  dp.cache.enabled = true;
  const DesignScore a = evaluator.Evaluate(dp);
  const DesignScore b = evaluator.Evaluate(dp);
  const DesignScore c = DesignEvaluator().Evaluate(dp);
  ASSERT_TRUE(a.valid);
  for (const DesignScore* s : {&b, &c}) {
    EXPECT_EQ(a.p99_s, s->p99_s);
    EXPECT_EQ(a.throughput_rps, s->throughput_rps);
    EXPECT_EQ(a.energy_j, s->energy_j);
    EXPECT_EQ(a.cost, s->cost);
    EXPECT_EQ(a.completed, s->completed);
    EXPECT_EQ(a.rejected, s->rejected);
  }
}

TEST(DesignEvaluatorTest, InvalidDesignsComeBackRejectedNotThrown) {
  DesignPoint dp = SmallDesign(1);
  dp.replicas[0].workers = 0;
  const DesignScore score = SharedEvaluator().Evaluate(dp);
  EXPECT_FALSE(score.valid);
  EXPECT_TRUE(HasIssueFor(score.issues, "replicas[0].workers"));
  EXPECT_TRUE(std::isinf(score.cost));
}

TEST(AnnealingTest, PortableExpMatchesLibmClosely) {
  for (double x = -30; x <= 0; x += 0.37) {
    EXPECT_NEAR(search::PortableExp(x), std::exp(x),
                std::abs(std::exp(x)) * 1e-9 + 1e-300);
  }
  EXPECT_EQ(search::PortableExp(0), 1.0);
  EXPECT_EQ(search::PortableExp(-1000), 0.0);
}

TEST(AnnealingTest, SearchIsDeterministicAtAnyThreadCount) {
  AnnealingConfig cfg;
  cfg.chains = 3;
  cfg.steps = 15;
  cfg.seed = 5;
  cfg.threads = 1;
  const SearchResult one = AnnealSearch(SharedEvaluator(), cfg);
  cfg.threads = 4;
  const SearchResult four = AnnealSearch(SharedEvaluator(), cfg);

  ASSERT_TRUE(one.best_score.valid);
  EXPECT_EQ(DesignPointToJson(one.best), DesignPointToJson(four.best));
  EXPECT_EQ(one.best_score.cost, four.best_score.cost);
  EXPECT_EQ(one.best_chain, four.best_chain);
  EXPECT_EQ(one.evaluations, four.evaluations);
  ASSERT_EQ(one.pareto.size(), four.pareto.size());
  for (std::size_t i = 0; i < one.pareto.size(); ++i) {
    EXPECT_EQ(DesignPointToJson(one.pareto[i].point),
              DesignPointToJson(four.pareto[i].point));
    EXPECT_EQ(one.pareto[i].score.cost, four.pareto[i].score.cost);
  }
  ASSERT_EQ(one.chains.size(), four.chains.size());
  for (std::size_t i = 0; i < one.chains.size(); ++i) {
    EXPECT_EQ(one.chains[i].proposed, four.chains[i].proposed);
    EXPECT_EQ(one.chains[i].invalid, four.chains[i].invalid);
    EXPECT_EQ(one.chains[i].accepted, four.chains[i].accepted);
    EXPECT_EQ(one.chains[i].best_cost, four.chains[i].best_cost);
  }
}

TEST(AnnealingTest, ParetoFrontIsNonDominatedAndCountsInvalids) {
  AnnealingConfig cfg;
  cfg.chains = 2;
  cfg.steps = 30;
  cfg.seed = 9;
  cfg.threads = 2;
  const SearchResult result = AnnealSearch(SharedEvaluator(), cfg);
  ASSERT_FALSE(result.pareto.empty());
  for (std::size_t i = 0; i < result.pareto.size(); ++i) {
    for (std::size_t j = 0; j < result.pareto.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          Dominates(result.pareto[i].score, result.pareto[j].score));
    }
  }
  std::size_t invalid = 0;
  for (const search::ChainStats& chain : result.chains) {
    invalid += chain.invalid;
  }
  EXPECT_GT(invalid, 0u);  // rejected mutations flow through the validators
}

TEST(AnnealingTest, BeatsOrTiesEveryHandTunedBaseline) {
  const DesignEvaluator& evaluator = SharedEvaluator();
  std::vector<DesignScore> baseline_scores;
  double best_baseline_cost = std::numeric_limits<double>::infinity();
  for (const DesignPoint& baseline : BenchClusterBaselines()) {
    ASSERT_TRUE(CheckInSpace(baseline).empty());
    const DesignScore score = evaluator.Evaluate(baseline);
    ASSERT_TRUE(score.valid);
    best_baseline_cost = std::min(best_baseline_cost, score.cost);
    baseline_scores.push_back(score);
  }

  AnnealingConfig cfg;
  cfg.chains = 3;
  cfg.steps = 60;
  cfg.seed = 1;
  const SearchResult result = AnnealSearch(evaluator, cfg);
  ASSERT_TRUE(result.best_score.valid);
  EXPECT_LE(result.best_score.cost, best_baseline_cost);
  for (const DesignScore& baseline : baseline_scores) {
    EXPECT_FALSE(Dominates(baseline, result.best_score));
  }
}

}  // namespace
}  // namespace latte
