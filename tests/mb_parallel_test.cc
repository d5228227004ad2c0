// Parallel MiniBatch window execution: with num_threads > 1 the query
// phase of every window close fans out across the thread pool, and the
// determinism bar is stricter than the sharded STR engine's — the emitted
// pair SEQUENCE (order, ids, timestamps, and bit-exact dot/sim scores)
// must be identical to the sequential engine for any thread count, for
// every batch index scheme. The suite name intentionally matches the TSan
// CI filter (MiniBatchParallel), so these tests also run under
// ThreadSanitizer to watch the concurrent const-Query path.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "index/inv_index.h"
#include "index/prefix_index.h"
#include "stream/minibatch.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectMatchesOracle;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;

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
                              const Stream& stream, size_t num_threads) {
  MiniBatchJoin mb(params, FactoryFor(s, params.theta),
                   /*window_factor=*/1.0, num_threads);
  CollectorSink sink;
  for (const StreamItem& item : stream) {
    EXPECT_TRUE(mb.Push(item, &sink));
  }
  mb.Flush(&sink);
  return sink.pairs();
}

// Every field of every pair, bit for bit, in the same order.
void ExpectBitIdentical(const std::vector<ResultPair>& a,
                        const std::vector<ResultPair>& b, size_t threads) {
  ASSERT_EQ(a.size(), b.size()) << "pair count differs at " << threads
                                << " threads";
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a) << "i=" << i << " threads=" << threads;
    EXPECT_EQ(a[i].b, b[i].b) << "i=" << i << " threads=" << threads;
    EXPECT_EQ(std::memcmp(&a[i].ta, &b[i].ta, sizeof(Timestamp)), 0)
        << "i=" << i << " threads=" << threads;
    EXPECT_EQ(std::memcmp(&a[i].tb, &b[i].tb, sizeof(Timestamp)), 0)
        << "i=" << i << " threads=" << threads;
    EXPECT_EQ(std::memcmp(&a[i].dot, &b[i].dot, sizeof(double)), 0)
        << "i=" << i << " threads=" << threads;
    EXPECT_EQ(std::memcmp(&a[i].sim, &b[i].sim, sizeof(double)), 0)
        << "i=" << i << " threads=" << threads;
  }
}

class MiniBatchParallelTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(MiniBatchParallelTest, BitIdenticalPairSequenceAcrossThreadCounts) {
  const Scheme scheme = GetParam();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.02, &params));

  RandomStreamSpec spec;
  spec.n = 600;
  spec.dims = 40;
  spec.max_nnz = 7;
  spec.max_gap = 1.0;  // dozens of items per window → parallel path taken
  spec.seed = 77;
  const Stream stream = RandomStream(spec);

  const auto sequential = RunMb(scheme, params, stream, 1);
  ExpectMatchesOracle(stream, params, sequential);
  ASSERT_FALSE(sequential.empty());

  for (const size_t threads : {2u, 4u, 8u}) {
    const auto parallel = RunMb(scheme, params, stream, threads);
    ExpectBitIdentical(sequential, parallel, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, MiniBatchParallelTest,
                         ::testing::Values(Scheme::kInv, Scheme::kAp,
                                           Scheme::kL2ap, Scheme::kL2));

TEST(MiniBatchParallelTest, StatsMatchSequentialRun) {
  // Work counters are folded from per-chunk scratches; the totals must be
  // exactly the sequential ones (the per-query work is identical, only
  // its distribution over threads changes).
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  RandomStreamSpec spec;
  spec.n = 500;
  spec.max_gap = 0.5;
  spec.seed = 78;
  const Stream stream = RandomStream(spec);

  const auto run = [&](size_t threads) {
    MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, params.theta), 1.0,
                     threads);
    CollectorSink sink;
    for (const StreamItem& item : stream) mb.Push(item, &sink);
    mb.Flush(&sink);
    return mb.stats();
  };
  const RunStats seq = run(1);
  const RunStats par = run(4);
  EXPECT_EQ(par.pairs_emitted, seq.pairs_emitted);
  EXPECT_EQ(par.entries_traversed, seq.entries_traversed);
  EXPECT_EQ(par.candidates_generated, seq.candidates_generated);
  EXPECT_EQ(par.verify_calls, seq.verify_calls);
  EXPECT_EQ(par.full_dots, seq.full_dots);
  EXPECT_EQ(par.l2_prunes, seq.l2_prunes);
  EXPECT_EQ(par.entries_indexed, seq.entries_indexed);
  EXPECT_EQ(par.index_rebuilds, seq.index_rebuilds);
  EXPECT_EQ(par.vectors_processed, seq.vectors_processed);
}

TEST(MiniBatchParallelTest, EnginePlumbsThreadsIntoMiniBatch) {
  // End-to-end through the facade: EngineConfig::num_threads must reach
  // the MB branch and preserve the bit-identical sequence.
  const Stream stream = RandomStream([] {
    RandomStreamSpec spec;
    spec.n = 400;
    spec.dims = 30;
    spec.max_gap = 0.8;
    spec.seed = 79;
    return spec;
  }());

  const auto run = [&](int threads) {
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.index = IndexScheme::kL2ap;
    cfg.theta = 0.5;
    cfg.lambda = 0.05;
    cfg.num_threads = threads;
    CollectorSink sink;
    auto engine_or = SssjEngine::Make(cfg, &sink);
    EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    auto engine = *std::move(engine_or);
    engine->PushBatch(stream);
    engine->Flush();
    return sink.pairs();
  };
  const auto sequential = run(1);
  ASSERT_FALSE(sequential.empty());
  ExpectBitIdentical(sequential, run(4), 4);
}

TEST(MiniBatchParallelTest, TinyWindowsFallBackToSequentialPath) {
  // Windows smaller than the fan-out cutoff keep the sequential loop;
  // output must still match, and the join must not deadlock or misorder.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.5, &params));  // τ ≈ 1.39: tiny windows
  RandomStreamSpec spec;
  spec.n = 200;
  spec.max_gap = 2.0;
  spec.seed = 80;
  const Stream stream = RandomStream(spec);
  const auto sequential = RunMb(Scheme::kInv, params, stream, 1);
  const auto parallel = RunMb(Scheme::kInv, params, stream, 8);
  ExpectBitIdentical(sequential, parallel, 8);
}

// ---- one fork/join per close: self- and cross-queries together ----

// Windows of a few hundred items, so every close's work is well over
// MiniBatchJoin::kMinFanOutWork and takes the fan-out.
Stream BigWindowStream(uint64_t seed) {
  RandomStreamSpec spec;
  spec.n = 1500;
  spec.dims = 60;
  spec.max_nnz = 7;
  spec.max_gap = 0.2;  // τ ≈ 35 at λ = 0.02 → ~350 items per window
  spec.seed = seed;
  return RandomStream(spec);
}

struct MbRun {
  std::vector<ResultPair> pairs;
  RunStats stats;
  size_t fanned_out_closes = 0;
};

MbRun RunMbJoin(MiniBatchJoin* mb, const Stream& stream) {
  MbRun run;
  CollectorSink sink;
  for (const StreamItem& item : stream) EXPECT_TRUE(mb->Push(item, &sink));
  mb->Flush(&sink);
  run.pairs = sink.pairs();
  run.stats = mb->stats();
  run.fanned_out_closes = mb->fanned_out_closes();
  return run;
}

class MiniBatchParallelPoolTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(MiniBatchParallelPoolTest, PoolSizesMatchOneThreadBitForBit) {
  const Scheme scheme = GetParam();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.02, &params));
  const Stream stream = BigWindowStream(81);

  MiniBatchJoin sequential_mb(params, FactoryFor(scheme, params.theta), 1.0,
                              /*num_threads=*/1);
  const MbRun sequential = RunMbJoin(&sequential_mb, stream);
  ASSERT_FALSE(sequential.pairs.empty());
  EXPECT_EQ(sequential.fanned_out_closes, 0u);
  ExpectMatchesOracle(stream, params, sequential.pairs);

  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    LazyThreadPool pool(threads);
    MiniBatchJoin mb(params, FactoryFor(scheme, params.theta), 1.0, &pool);
    const MbRun parallel = RunMbJoin(&mb, stream);
    ExpectBitIdentical(sequential.pairs, parallel.pairs, threads);
    EXPECT_EQ(parallel.stats.ToString(), sequential.stats.ToString())
        << threads << " threads";
    if (threads > 1) {
      EXPECT_GT(parallel.fanned_out_closes, 0u)
          << "the pool path never ran at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, MiniBatchParallelPoolTest,
                         ::testing::Values(Scheme::kInv, Scheme::kAp,
                                           Scheme::kL2ap, Scheme::kL2));

TEST(MiniBatchParallelPoolTest, PrivatePoolOfZeroUsesHardwareThreads) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.02, &params));
  MiniBatchJoin mb(params, FactoryFor(Scheme::kL2, params.theta), 1.0,
                   /*num_threads=*/size_t{0});
  EXPECT_EQ(mb.num_threads(), HardwareThreads());
}

TEST(MiniBatchParallelPoolTest, EngineDefaultMatchesOneThread) {
  // EngineConfig::num_threads defaults to every hardware thread; the
  // output and every counter must equal the num_threads = 1 engine's.
  const Stream stream = BigWindowStream(82);
  const auto run = [&](int threads, size_t* fanned_out) {
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.index = IndexScheme::kL2;
    cfg.theta = 0.5;
    cfg.lambda = 0.02;
    if (threads >= 0) cfg.num_threads = threads;
    CollectorSink sink;
    auto engine = *SssjEngine::Make(cfg, &sink);
    EXPECT_TRUE(engine->configuration_notes().empty());
    EXPECT_TRUE(engine->PushBatch(stream).all_accepted());
    engine->Flush();
    *fanned_out =
        dynamic_cast<const MiniBatchJoin&>(engine->core()).fanned_out_closes();
    return std::make_pair(sink.pairs(), engine->stats().ToString());
  };
  size_t fanned_default = 0;
  size_t fanned_one = 0;
  const auto by_default = run(/*threads=*/-1, &fanned_default);
  const auto one = run(1, &fanned_one);
  ASSERT_FALSE(one.first.empty());
  ExpectBitIdentical(one.first, by_default.first, 0);
  EXPECT_EQ(by_default.second, one.second);
  EXPECT_EQ(fanned_one, 0u);
  if (HardwareThreads() > 1) {
    EXPECT_GT(fanned_default, 0u);
  }
}

}  // namespace
}  // namespace sssj
