// MB framework (Algorithm 1 + §6.1 two-window refinement) against the
// sliding-window oracle, plus window-mechanics unit tests.
#include "stream/minibatch.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "index/inv_index.h"
#include "index/prefix_index.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectMatchesOracle;
using ::sssj::testing::Item;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::UnitVec;

enum class Scheme { kInv, kAp, kL2ap, kL2 };

MiniBatchJoin::IndexFactory FactoryFor(Scheme s, double theta) {
  switch (s) {
    case Scheme::kInv:
      return [theta] { return std::make_unique<InvIndex>(theta); };
    case Scheme::kAp:
      return [theta] { return std::make_unique<ApIndex>(theta); };
    case Scheme::kL2ap:
      return [theta] { return std::make_unique<L2apIndex>(theta); };
    case Scheme::kL2:
      return [theta] { return std::make_unique<L2Index>(theta); };
  }
  return nullptr;
}

std::vector<ResultPair> RunMb(Scheme s, const DecayParams& params,
                              const Stream& stream) {
  MiniBatchJoin mb(params, FactoryFor(s, params.theta));
  CollectorSink sink;
  for (const StreamItem& item : stream) {
    EXPECT_TRUE(mb.Push(item, &sink));
  }
  mb.Flush(&sink);
  return sink.pairs();
}

class MiniBatchParamTest
    : public ::testing::TestWithParam<
          std::tuple<Scheme, double, double, uint64_t>> {};

TEST_P(MiniBatchParamTest, MatchesSlidingWindowOracle) {
  const auto [scheme, theta, lambda, seed] = GetParam();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(theta, lambda, &params));

  RandomStreamSpec spec;
  spec.n = 300;
  spec.dims = 35;
  spec.max_nnz = 7;
  spec.max_gap = 3.0;
  spec.seed = seed;
  const Stream stream = RandomStream(spec);

  const auto pairs = RunMb(scheme, params, stream);
  ExpectMatchesOracle(stream, params, pairs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MiniBatchParamTest,
    ::testing::Combine(::testing::Values(Scheme::kInv, Scheme::kAp,
                                         Scheme::kL2ap, Scheme::kL2),
                       ::testing::Values(0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(0.001, 0.05, 0.5),
                       ::testing::Values(21u, 22u)));

TEST(MiniBatchTest, LambdaZeroDegeneratesToBatchApss) {
  // τ = ∞: one window, everything reported at Flush.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.0, &params));
  RandomStreamSpec spec;
  spec.n = 150;
  spec.dims = 25;
  spec.seed = 30;
  const Stream stream = RandomStream(spec);

  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.7));
  CollectorSink sink;
  for (const StreamItem& item : stream) mb.Push(item, &sink);
  EXPECT_TRUE(sink.pairs().empty());  // nothing until the window closes
  mb.Flush(&sink);
  ExpectMatchesOracle(stream, params, sink.pairs());
}

TEST(MiniBatchTest, CrossWindowPairsReported) {
  // Windows are anchored at the first arrival: [0, τ), [τ, 2τ), …
  // An unrelated anchor item starts window 1; the similar pair straddles
  // the boundary (0.9τ and 1.1τ, Δt = 0.2τ → sim = θ^0.2 ≥ θ).
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.8, 0.01, &params));
  SparseVector v = UnitVec({{1, 0.5}, {2, 0.5}});
  Stream stream = {Item(0, 0.0, UnitVec({{9, 1.0}})),
                   Item(1, params.tau * 0.9, v),
                   Item(2, params.tau * 1.1, v)};
  const auto pairs = RunMb(Scheme::kL2, params, stream);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a, 1u);
  EXPECT_EQ(pairs[0].b, 2u);
}

TEST(MiniBatchTest, DecayFilterDropsCrossWindowFarPairs) {
  // MB tests pairs up to 2τ apart; ApplyDecay must reject those beyond τ.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.8, 0.01, &params));
  SparseVector v = UnitVec({{1, 1.0}});
  Stream stream = {Item(0, 0.0, v), Item(1, params.tau * 1.8, v)};
  const auto pairs = RunMb(Scheme::kInv, params, stream);
  EXPECT_TRUE(pairs.empty());
}

TEST(MiniBatchTest, RejectsOutOfOrderTimestamps) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));
  MiniBatchJoin mb(params, FactoryFor(Scheme::kInv, 0.5));
  CollectorSink sink;
  EXPECT_TRUE(mb.Push(Item(0, 10.0, UnitVec({{1, 1.0}})), &sink));
  EXPECT_FALSE(mb.Push(Item(1, 5.0, UnitVec({{1, 1.0}})), &sink));
  // Equal timestamps are fine.
  EXPECT_TRUE(mb.Push(Item(1, 10.0, UnitVec({{1, 1.0}})), &sink));
}

TEST(MiniBatchTest, EmptyWindowsInTheMiddleAreHandled) {
  // A long silent gap spans several windows; the loop must close them all
  // without emitting garbage.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));  // τ ≈ 6.93
  SparseVector v = UnitVec({{1, 1.0}});
  Stream stream = {Item(0, 0.0, v), Item(1, params.tau * 7.5, v),
                   Item(2, params.tau * 7.6, v)};
  const auto pairs = RunMb(Scheme::kL2, params, stream);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a, 1u);
  EXPECT_EQ(pairs[0].b, 2u);
}

TEST(MiniBatchTest, ThetaOneZeroHorizonOnlyPairsTies) {
  // θ = 1, λ > 0 → τ = 0: only simultaneous identical vectors qualify.
  // Regression: the window-advance logic must not loop or divide by the
  // zero-length window.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(1.0, 0.5, &params));
  EXPECT_EQ(params.tau, 0.0);
  MiniBatchJoin mb(params, FactoryFor(Scheme::kInv, 1.0));
  CollectorSink sink;
  SparseVector v = UnitVec({{1, 3.0}});  // single-coordinate: dot is exact 1
  mb.Push(Item(0, 5.0, v), &sink);
  mb.Push(Item(1, 5.0, v), &sink);  // tie: sim = 1 ≥ θ
  mb.Push(Item(2, 6.0, v), &sink);  // later: decayed below 1
  mb.Push(Item(3, 1e9, v), &sink);  // far future: exercises re-anchoring
  mb.Flush(&sink);
  ASSERT_EQ(sink.pairs().size(), 1u);
  EXPECT_EQ(sink.pairs()[0].a, 0u);
  EXPECT_EQ(sink.pairs()[0].b, 1u);
}

TEST(MiniBatchTest, HugeGapIsConstantTime) {
  // A gap spanning ~10^12 windows must not iterate per window.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.99, 0.1, &params));  // τ ≈ 0.1
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.99));
  CollectorSink sink;
  SparseVector v = UnitVec({{1, 1.0}});
  mb.Push(Item(0, 0.0, v), &sink);
  mb.Push(Item(1, 0.05, v), &sink);
  mb.Push(Item(2, 1e11, v), &sink);  // would previously take ~10^12 steps
  mb.Push(Item(3, 1e11 + 0.01, v), &sink);
  mb.Flush(&sink);
  const auto got = ::sssj::testing::PairSet(sink.pairs());
  EXPECT_TRUE(got.count({0, 1}));
  EXPECT_TRUE(got.count({2, 3}));
  EXPECT_EQ(got.size(), 2u);
}

TEST(MiniBatchTest, StatsAggregateAcrossWindows) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.5, &params));
  RandomStreamSpec spec;
  spec.n = 120;
  spec.seed = 33;
  const Stream stream = RandomStream(spec);
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.5));
  CollectorSink sink;
  for (const StreamItem& item : stream) mb.Push(item, &sink);
  mb.Flush(&sink);
  EXPECT_EQ(mb.stats().vectors_processed, stream.size());
  EXPECT_GT(mb.stats().index_rebuilds, 1u);  // many windows
}

class WindowFactorTest : public ::testing::TestWithParam<double> {};

TEST_P(WindowFactorTest, LargerWindowsStayComplete) {
  // Any window length ≥ τ preserves the completeness argument; the factor
  // trades rebuild frequency for per-window size.
  const double factor = GetParam();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  RandomStreamSpec spec;
  spec.n = 300;
  spec.dims = 30;
  spec.seed = 40;
  const Stream stream = RandomStream(spec);

  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, params.theta), factor);
  CollectorSink sink;
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(mb.Push(item, &sink));
  }
  mb.Flush(&sink);
  ExpectMatchesOracle(stream, params, sink.pairs());
}

INSTANTIATE_TEST_SUITE_P(Factors, WindowFactorTest,
                         ::testing::Values(1.0, 1.5, 2.0, 4.0));

TEST(WindowFactorTest, LargerWindowsRebuildLessOften) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.1, &params));
  RandomStreamSpec spec;
  spec.n = 400;
  spec.seed = 41;
  const Stream stream = RandomStream(spec);
  const auto rebuilds = [&](double factor) {
    MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, params.theta), factor);
    CollectorSink sink;
    for (const StreamItem& item : stream) mb.Push(item, &sink);
    mb.Flush(&sink);
    return mb.stats().index_rebuilds;
  };
  EXPECT_GT(rebuilds(1.0), rebuilds(4.0));
}

TEST(MiniBatchTest, ReuseAfterFlushDoesNotDoubleCountStats) {
  // Flush's contract says the join is reusable; stats_ used to survive the
  // reset, so a reused join reported run-1 + run-2 aggregates. Counters
  // must restart with the first Push of the new run, while reading stats()
  // right after Flush still gives the finished run's totals.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));
  RandomStreamSpec spec;
  spec.n = 150;
  spec.seed = 44;
  const Stream stream = RandomStream(spec);

  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.5));
  CollectorSink sink;
  for (const StreamItem& item : stream) mb.Push(item, &sink);
  mb.Flush(&sink);
  const RunStats first_run = mb.stats();
  EXPECT_EQ(first_run.vectors_processed, stream.size());

  // Same stream again (clock restarts with the run): the second run's
  // stats must equal the first run's, not twice them.
  for (const StreamItem& item : stream) ASSERT_TRUE(mb.Push(item, &sink));
  mb.Flush(&sink);
  EXPECT_EQ(mb.stats().vectors_processed, first_run.vectors_processed);
  EXPECT_EQ(mb.stats().pairs_emitted, first_run.pairs_emitted);
  EXPECT_EQ(mb.stats().entries_indexed, first_run.entries_indexed);
  EXPECT_EQ(mb.stats().index_rebuilds, first_run.index_rebuilds);
}

TEST(MiniBatchTest, MemoryBytesTracksWindowsAndPeakIndex) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.01, &params));  // long windows
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.5));
  CollectorSink sink;
  EXPECT_EQ(mb.MemoryBytes(), 0u);
  RandomStreamSpec spec;
  spec.n = 100;
  spec.max_gap = 0.5;
  spec.seed = 45;
  const Stream stream = RandomStream(spec);
  for (const StreamItem& item : stream) mb.Push(item, &sink);
  EXPECT_GT(mb.MemoryBytes(), 0u);  // buffered windows count
  mb.Flush(&sink);
  // Windows drained; the retained index stays resident and is counted.
  EXPECT_EQ(mb.pending_current(), 0u);
  EXPECT_EQ(mb.pending_previous(), 0u);
  ASSERT_NE(mb.index(), nullptr);
  EXPECT_GT(mb.index()->MemoryBytes(), 0u);
  EXPECT_EQ(mb.MemoryBytes(), mb.index()->MemoryBytes());
}

TEST(MiniBatchTest, FlushIsIdempotentAndReusable) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, 0.5));
  CollectorSink sink;
  SparseVector v = UnitVec({{1, 1.0}});
  mb.Push(Item(0, 0.0, v), &sink);
  mb.Push(Item(1, 0.1, v), &sink);
  mb.Flush(&sink);
  const size_t after_first = sink.pairs().size();
  EXPECT_EQ(after_first, 1u);
  mb.Flush(&sink);  // nothing new
  EXPECT_EQ(sink.pairs().size(), after_first);
  // Reuse after flush.
  mb.Push(Item(2, 100.0, v), &sink);
  mb.Push(Item(3, 100.05, v), &sink);
  mb.Flush(&sink);
  EXPECT_EQ(sink.pairs().size(), after_first + 1);
}

}  // namespace
}  // namespace sssj
