// Correctness of every ablation/extension knob: the L2 bound toggles, the
// L2AP ic-slack, and the AP-only (red lines) variant. Every configuration
// must produce the exact same join output — the knobs trade work, never
// results.
#include <gtest/gtest.h>

#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectMatchesOracle;
using ::sssj::testing::PairSet;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;

Stream TestStream(uint64_t seed) {
  RandomStreamSpec spec;
  spec.n = 300;
  spec.dims = 30;
  spec.max_nnz = 7;
  spec.seed = seed;
  return RandomStream(spec);
}

class L2TogglesTest : public ::testing::TestWithParam<int> {};

TEST_P(L2TogglesTest, EveryBoundComboMatchesOracle) {
  const int mask = GetParam();
  L2IndexOptions opts;
  opts.use_remscore_bound = mask & 1;
  opts.use_l2bound = mask & 2;
  opts.use_ps1_bound = mask & 4;

  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.03, &params));
  const Stream stream = TestStream(100 + mask);

  StreamL2Index index(params, opts);
  CollectorSink sink;
  for (const StreamItem& item : stream) index.ProcessArrival(item, &sink);
  ExpectMatchesOracle(stream, params, sink.pairs());
}

INSTANTIATE_TEST_SUITE_P(AllCombos, L2TogglesTest, ::testing::Range(0, 8));

// A bound only skips work: on one stream, all eight combos must emit the
// very same pairs — same ids, same timestamps, same dot and sim bits. The
// generate scan's "a remscore rejection is final" shortcut relies on it.
TEST(L2TogglesTest, EveryBoundComboEmitsBitIdenticalPairs) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.03, &params));
  const Stream stream = TestStream(42);

  const auto run = [&](int mask, RunStats* stats) {
    L2IndexOptions opts;
    opts.use_remscore_bound = mask & 1;
    opts.use_l2bound = mask & 2;
    opts.use_ps1_bound = mask & 4;
    StreamL2Index index(params, opts);
    CollectorSink sink;
    for (const StreamItem& item : stream) index.ProcessArrival(item, &sink);
    *stats = index.stats();
    return sink.SortedPairs();
  };

  RunStats all_off;
  const std::vector<ResultPair> reference = run(0, &all_off);
  ASSERT_FALSE(reference.empty()) << "degenerate test input";
  for (int mask = 1; mask < 8; ++mask) {
    RunStats stats;
    const std::vector<ResultPair> got = run(mask, &stats);
    ASSERT_EQ(got.size(), reference.size()) << "mask " << mask;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].a, reference[i].a) << "mask " << mask << " at " << i;
      ASSERT_EQ(got[i].b, reference[i].b) << "mask " << mask << " at " << i;
      EXPECT_EQ(got[i].ta, reference[i].ta) << "mask " << mask << " at " << i;
      EXPECT_EQ(got[i].tb, reference[i].tb) << "mask " << mask << " at " << i;
      EXPECT_EQ(got[i].dot, reference[i].dot) << "mask " << mask << " at " << i;
      EXPECT_EQ(got[i].sim, reference[i].sim) << "mask " << mask << " at " << i;
    }
    if (mask & 1) {  // the admission bound must actually reject something
      EXPECT_LT(stats.candidates_generated, all_off.candidates_generated)
          << "mask " << mask;
    }
  }
}

TEST(L2TogglesTest, DisablingBoundsIncreasesWork) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.8, 0.01, &params));
  const Stream stream = TestStream(7);

  const auto run = [&](const L2IndexOptions& opts) {
    StreamL2Index index(params, opts);
    CollectorSink sink;
    for (const StreamItem& item : stream) index.ProcessArrival(item, &sink);
    return index.stats();
  };

  const RunStats all_on = run({});
  L2IndexOptions none;
  none.use_remscore_bound = false;
  none.use_l2bound = false;
  none.use_ps1_bound = false;
  const RunStats all_off = run(none);

  EXPECT_LE(all_on.candidates_generated, all_off.candidates_generated);
  EXPECT_LE(all_on.full_dots, all_off.full_dots);
  EXPECT_EQ(all_on.pairs_emitted, all_off.pairs_emitted);
}

class IcSlackTest : public ::testing::TestWithParam<double> {};

TEST_P(IcSlackTest, SlackedL2apMatchesOracle) {
  const double slack = GetParam();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  const Stream stream = TestStream(200);

  StreamL2apIndex index(params, slack);
  CollectorSink sink;
  for (const StreamItem& item : stream) index.ProcessArrival(item, &sink);
  ExpectMatchesOracle(stream, params, sink.pairs());
}

INSTANTIATE_TEST_SUITE_P(Slacks, IcSlackTest,
                         ::testing::Values(0.0, 0.05, 0.2, 0.5, 0.9));

TEST(IcSlackTest, SlackReducesReindexingAndGrowsIndex) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.01, &params));
  // Spiky stream that triggers frequent max growth.
  Rng rng(11);
  Stream stream;
  Timestamp now = 0.0;
  for (int i = 0; i < 400; ++i) {
    std::vector<Coord> coords = {
        {static_cast<DimId>(i % 10), 1.0 + (i % 17) * 0.4}};
    for (int k = 0; k < 4; ++k) {
      coords.push_back(Coord{static_cast<DimId>(10 + rng.NextBelow(15)),
                             0.2 + 0.5 * rng.NextDouble()});
    }
    now += rng.NextDouble();
    stream.push_back(::sssj::testing::Item(
        i, now, SparseVector::UnitFromCoords(std::move(coords))));
  }

  const auto run = [&](double slack) {
    StreamL2apIndex index(params, slack);
    CollectorSink sink;
    for (const StreamItem& item : stream) index.ProcessArrival(item, &sink);
    return index.stats();
  };
  const RunStats tight = run(0.0);
  const RunStats lax = run(0.5);
  EXPECT_LT(lax.reindexed_coords, tight.reindexed_coords);
  EXPECT_GE(lax.entries_indexed, tight.entries_indexed);
  EXPECT_EQ(lax.pairs_emitted, tight.pairs_emitted);
}

class StrApTest : public ::testing::TestWithParam<std::tuple<double, double>> {
};

TEST_P(StrApTest, ApOnlyVariantMatchesOracle) {
  const auto [theta, lambda] = GetParam();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(theta, lambda, &params));
  const Stream stream = TestStream(300);

  StreamL2apIndex index(params, /*ic_theta_slack=*/0.0,
                        /*use_l2_bounds=*/false);
  EXPECT_STREQ(index.name(), "AP");
  CollectorSink sink;
  for (const StreamItem& item : stream) index.ProcessArrival(item, &sink);
  ExpectMatchesOracle(stream, params, sink.pairs());
}

INSTANTIATE_TEST_SUITE_P(Sweep, StrApTest,
                         ::testing::Combine(::testing::Values(0.5, 0.8),
                                            ::testing::Values(0.001, 0.1)));

TEST(StrApTest, ApGeneratesAtLeastAsManyCandidatesAsL2ap) {
  // The paper's preliminary finding: AP without ℓ2 bounds prunes less.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.8, 0.01, &params));
  const Stream stream = TestStream(42);

  StreamL2apIndex l2ap(params);
  StreamL2apIndex ap(params, 0.0, /*use_l2_bounds=*/false);
  CollectorSink s1, s2;
  for (const StreamItem& item : stream) l2ap.ProcessArrival(item, &s1);
  for (const StreamItem& item : stream) ap.ProcessArrival(item, &s2);
  EXPECT_GE(ap.stats().candidates_generated,
            l2ap.stats().candidates_generated);
  EXPECT_GE(ap.stats().entries_indexed, l2ap.stats().entries_indexed);
  EXPECT_EQ(PairSet(s1.pairs()), PairSet(s2.pairs()));
}

}  // namespace
}  // namespace sssj
