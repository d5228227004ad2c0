// Property-based tests: adversarial stream shapes, invariant checks, and
// counter sanity across all streaming schemes. These are the "no false
// negatives, ever" guards for the pruning bounds.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"
#include "tests/test_util.h"
#include "util/zipf.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectMatchesOracle;
using ::sssj::testing::Item;
using ::sssj::testing::UnitVec;
using ::sssj::testing::WalkMemoryBytes;

// Small frozen blocks, so the short property streams freeze, amend,
// expire and compact blocks. The exact value tier leaves output unchanged.
TieredStorageOptions SmallTiers() {
  TieredStorageOptions opts;
  opts.enabled = true;
  opts.block_entries = 4;
  opts.hot_tail_entries = 4;
  opts.dormant_tail_entries = 2;
  opts.dormant_after_appends = 3;
  opts.cold_freeze_quantum = 2;
  return opts;
}

std::vector<std::unique_ptr<StreamIndex>> AllStreamIndexes(
    const DecayParams& params, bool tiered = false) {
  const TieredStorageOptions opts =
      tiered ? SmallTiers() : TieredStorageOptions{};
  std::vector<std::unique_ptr<StreamIndex>> out;
  out.push_back(std::make_unique<StreamInvIndex>(params, false, opts));
  out.push_back(
      std::make_unique<StreamL2Index>(params, L2IndexOptions{}, false, opts));
  out.push_back(
      std::make_unique<StreamL2apIndex>(params, 0.0, true, false, opts));
  return out;
}

// Every scheme, tiered and not, against the oracle; MemoryBytes() must
// equal the accounting walk after every arrival.
void CheckAll(const Stream& stream, const DecayParams& params) {
  for (bool tiered : {false, true}) {
    for (auto& index : AllStreamIndexes(params, tiered)) {
      SCOPED_TRACE(std::string(index->name()) +
                   (tiered ? " tiered" : " flat"));
      CollectorSink sink;
      for (const StreamItem& item : stream) {
        index->ProcessArrival(item, &sink);
        ASSERT_EQ(index->MemoryBytes(), WalkMemoryBytes(*index))
            << "after item " << item.id;
      }
      ExpectMatchesOracle(stream, params, sink.pairs());
    }
  }
  // Same shapes through the MiniBatch framework (all batch indexes).
  for (IndexScheme ix : {IndexScheme::kInv, IndexScheme::kAp,
                         IndexScheme::kL2ap, IndexScheme::kL2}) {
    SCOPED_TRACE(std::string("MB-") + ToString(ix));
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.index = ix;
    cfg.theta = params.theta;
    cfg.lambda = params.lambda;
    cfg.normalize_inputs = false;
    CollectorSink sink;
    auto engine_or = SssjEngine::Make(cfg, &sink);
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    auto engine = *std::move(engine_or);
    for (const StreamItem& item : stream) {
      ASSERT_TRUE(engine->Push(item.ts, item.vec).ok());
      ASSERT_EQ(engine->MemoryBytes(), WalkMemoryBytes(*engine))
          << "after item " << item.id;
    }
    engine->Flush();
    EXPECT_EQ(engine->MemoryBytes(), WalkMemoryBytes(*engine));
    ExpectMatchesOracle(stream, params, sink.pairs());
  }
}

// Adversarial shape 1: spiky coordinates — single dominant coordinate per
// vector, rotating dimensions, repeatedly raising per-dimension maxima
// (maximum re-indexing pressure for L2AP).
TEST(PropertyTest, SpikyVectorsRotatingMaxima) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.01, &params));
  Rng rng(101);
  Stream stream;
  Timestamp now = 0.0;
  for (int i = 0; i < 250; ++i) {
    const DimId spike = static_cast<DimId>(i % 8);
    std::vector<Coord> coords = {{spike, 1.0 + (i % 13) * 0.6}};
    for (int k = 0; k < 4; ++k) {
      coords.push_back(Coord{static_cast<DimId>(8 + rng.NextBelow(12)),
                             0.1 + 0.3 * rng.NextDouble()});
    }
    now += rng.NextDouble();
    stream.push_back(Item(i, now, UnitVec(std::move(coords))));
  }
  CheckAll(stream, params);
}

// Adversarial shape 2: monotonically growing maxima — every arrival
// raises the max in a shared dimension, so L2AP re-indexes constantly.
TEST(PropertyTest, MonotonicallyGrowingMaxima) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.005, &params));
  Stream stream;
  for (int i = 0; i < 150; ++i) {
    // Weight on dim 0 grows with i, diluting dims 1..5.
    std::vector<Coord> coords = {{0, 0.2 + i * 0.05}};
    for (DimId d = 1; d <= 5; ++d) coords.push_back(Coord{d, 1.0});
    stream.push_back(Item(i, i * 0.5, UnitVec(std::move(coords))));
  }
  CheckAll(stream, params);
}

// Adversarial shape 3: all-identical stream — every in-horizon pair is
// similar at every threshold (maximum output density).
TEST(PropertyTest, AllIdenticalStream) {
  for (double theta : {0.5, 0.99}) {
    DecayParams params;
    ASSERT_TRUE(DecayParams::Make(theta, 0.1, &params));
    SparseVector v = UnitVec({{1, 0.5}, {2, 0.3}, {3, 0.2}});
    Stream stream;
    for (int i = 0; i < 120; ++i) stream.push_back(Item(i, i * 0.7, v));
    CheckAll(stream, params);
  }
}

// Adversarial shape 4: pairwise-disjoint vectors — output must be empty
// and traversal near zero.
TEST(PropertyTest, DisjointVectorsProduceNothing) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.01, &params));
  Stream stream;
  for (int i = 0; i < 100; ++i) {
    stream.push_back(Item(i, i * 0.1,
                          UnitVec({{static_cast<DimId>(2 * i), 1.0},
                                   {static_cast<DimId>(2 * i + 1), 1.0}})));
  }
  for (auto& index : AllStreamIndexes(params)) {
    CollectorSink sink;
    for (const StreamItem& item : stream) index->ProcessArrival(item, &sink);
    EXPECT_TRUE(sink.pairs().empty()) << index->name();
    EXPECT_EQ(index->stats().entries_traversed, 0u) << index->name();
  }
}

// Adversarial shape 5: timestamps with bursts of exact ties.
TEST(PropertyTest, TiedTimestamps) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.2, &params));
  Rng rng(103);
  Stream stream;
  Timestamp now = 0.0;
  for (int i = 0; i < 200; ++i) {
    if (i % 5 != 0) {
      // keep the same timestamp: burst of ties
    } else {
      now += rng.NextExponential(0.5);
    }
    std::vector<Coord> coords;
    for (int k = 0; k < 4; ++k) {
      coords.push_back(
          Coord{static_cast<DimId>(rng.NextBelow(15)), 0.2 + rng.NextDouble()});
    }
    stream.push_back(Item(i, now, UnitVec(std::move(coords))));
  }
  CheckAll(stream, params);
}

// Adversarial shape 6: vectors exactly at the horizon boundary. sim at
// Δt = τ equals θ·dot; identical vectors sit exactly on the threshold.
TEST(PropertyTest, ExactHorizonBoundary) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.8, 0.05, &params));
  SparseVector v = UnitVec({{3, 1.0}, {4, 1.0}});
  Stream stream = {Item(0, 0.0, v), Item(1, params.tau, v),
                   Item(2, 2 * params.tau, v)};
  // The ε-band comparison in ExpectMatchesOracle tolerates either outcome
  // for the boundary pairs; what must NOT happen is a crash or a pair at
  // Δt = 2τ.
  for (auto& index : AllStreamIndexes(params)) {
    CollectorSink sink;
    for (const StreamItem& item : stream) index->ProcessArrival(item, &sink);
    for (const ResultPair& p : sink.pairs()) {
      EXPECT_NE((std::pair<VectorId, VectorId>(p.a, p.b)),
                (std::pair<VectorId, VectorId>(0, 2)))
          << index->name();
    }
  }
}

// Randomized sweep over Zipf-shaped streams (realistic dimension skew)
// with per-seed random θ and λ.
class ZipfSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZipfSweepTest, MatchesOracle) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  const double theta = 0.4 + 0.55 * rng.NextDouble();
  const double lambda = std::pow(10.0, -3.0 + 2.5 * rng.NextDouble());
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(theta, lambda, &params));

  ZipfSampler zipf(60, 1.1);
  Stream stream;
  Timestamp now = 0.0;
  for (int i = 0; i < 250; ++i) {
    std::vector<Coord> coords;
    const int nnz = 2 + static_cast<int>(rng.NextBelow(8));
    for (int k = 0; k < nnz; ++k) {
      coords.push_back(Coord{static_cast<DimId>(zipf.Sample(rng)),
                             0.1 + rng.NextDouble()});
    }
    SparseVector v = UnitVec(std::move(coords));
    if (v.empty()) continue;
    now += rng.NextExponential(1.0);
    stream.push_back(Item(stream.size(), now, std::move(v)));
  }
  CheckAll(stream, params);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZipfSweepTest,
                         ::testing::Range<uint64_t>(0, 12));

// Counter invariants that must hold on any run of any scheme.
TEST(PropertyTest, StatsInvariants) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &params));
  ::sssj::testing::RandomStreamSpec spec;
  spec.n = 300;
  spec.seed = 55;
  const Stream stream = ::sssj::testing::RandomStream(spec);
  for (auto& index : AllStreamIndexes(params)) {
    CollectorSink sink;
    for (const StreamItem& item : stream) index->ProcessArrival(item, &sink);
    const RunStats& s = index->stats();
    SCOPED_TRACE(index->name());
    EXPECT_EQ(s.vectors_processed, stream.size());
    EXPECT_GE(s.entries_traversed, s.candidates_generated);
    EXPECT_GE(s.candidates_generated, s.verify_calls);
    EXPECT_GE(s.verify_calls, s.full_dots);
    if (std::string(index->name()) == "INV") {
      // INV accumulates the exact dot in CG: no residual dots ever.
      EXPECT_EQ(s.full_dots, 0u);
      EXPECT_GE(s.verify_calls, s.pairs_emitted);
    } else {
      EXPECT_GE(s.full_dots, s.pairs_emitted);
    }
    EXPECT_EQ(s.pairs_emitted, sink.pairs().size());
    EXPECT_GE(s.entries_indexed, s.entries_pruned);
    EXPECT_LE(index->live_posting_entries(), s.entries_indexed);
    EXPECT_GE(s.peak_index_entries, index->live_posting_entries());
  }
}

// MB and STR stats must agree on pairs_emitted (same join).
TEST(PropertyTest, FrameworksEmitSameCount) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.05, &params));
  ::sssj::testing::RandomStreamSpec spec;
  spec.n = 250;
  spec.seed = 56;
  const Stream stream = ::sssj::testing::RandomStream(spec);

  uint64_t counts[2];
  int i = 0;
  for (Framework fw : {Framework::kMiniBatch, Framework::kStreaming}) {
    EngineConfig cfg;
    cfg.framework = fw;
    cfg.index = IndexScheme::kL2;
    cfg.theta = params.theta;
    cfg.lambda = params.lambda;
    cfg.normalize_inputs = false;
    CountingSink sink;
    auto engine = *SssjEngine::Make(cfg, &sink);
    for (const StreamItem& item : stream) engine->Push(item.ts, item.vec);
    engine->Flush();
    counts[i++] = sink.count();
  }
  EXPECT_EQ(counts[0], counts[1]);
}

}  // namespace
}  // namespace sssj
