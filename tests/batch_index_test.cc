// Batch indexes (INV, AP, L2AP, L2) against the exact batch oracle, plus
// scheme-specific structural properties (index-size reduction, residuals).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <tuple>

#include "index/inv_index.h"
#include "index/prefix_index.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::Item;
using ::sssj::testing::PairSet;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::UnitVec;

enum class Scheme { kInv, kAp, kL2ap, kL2 };

std::unique_ptr<BatchIndex> Make(Scheme s, double theta,
                                 bool use_simd = false) {
  switch (s) {
    case Scheme::kInv:
      return std::make_unique<InvIndex>(theta, use_simd);
    case Scheme::kAp:
      return std::make_unique<ApIndex>(theta, use_simd);
    case Scheme::kL2ap:
      return std::make_unique<L2apIndex>(theta, use_simd);
    case Scheme::kL2:
      return std::make_unique<L2Index>(theta, use_simd);
  }
  return nullptr;
}

MaxVector MaxOf(const Stream& s) {
  MaxVector m;
  for (const StreamItem& item : s) m.UpdateFrom(item.vec, nullptr);
  return m;
}

class BatchIndexParamTest
    : public ::testing::TestWithParam<std::tuple<Scheme, double, uint64_t>> {};

// Construct() must report exactly the pairs the brute-force batch join
// finds (modulo an ε band at the threshold).
TEST_P(BatchIndexParamTest, ConstructMatchesBatchOracle) {
  const auto [scheme, theta, seed] = GetParam();
  RandomStreamSpec spec;
  spec.n = 250;
  spec.dims = 40;
  spec.max_nnz = 7;
  spec.seed = seed;
  Stream stream = RandomStream(spec);

  std::vector<SparseVector> data;
  for (const auto& item : stream) data.push_back(item.vec);
  CollectorSink oracle;
  BruteForceBatchJoin(data, theta, &oracle);

  auto index = Make(scheme, theta);
  std::vector<ResultPair> pairs;
  index->Construct(stream, MaxOf(stream), &pairs);

  const auto got = PairSet(pairs);
  const double eps = 1e-9;
  for (const ResultPair& p : oracle.pairs()) {
    if (p.dot >= theta + eps) {
      EXPECT_TRUE(got.count({p.a, p.b}))
          << "missing " << p.ToString() << " scheme=" << index->name();
    }
  }
  const auto want = PairSet(oracle.pairs());
  for (const ResultPair& p : pairs) {
    EXPECT_TRUE(want.count({p.a, p.b}))
        << "spurious " << p.ToString() << " scheme=" << index->name();
    EXPECT_GE(p.dot, theta - eps);
  }
  EXPECT_EQ(got.size(), pairs.size()) << "duplicates from " << index->name();
}

// Query() after Construct() must find cross-set pairs exactly.
TEST_P(BatchIndexParamTest, QueryMatchesOracle) {
  const auto [scheme, theta, seed] = GetParam();
  RandomStreamSpec spec;
  spec.n = 160;
  spec.dims = 30;
  spec.max_nnz = 6;
  spec.seed = seed + 1000;
  Stream all = RandomStream(spec);
  Stream indexed(all.begin(), all.begin() + 80);
  Stream queries(all.begin() + 80, all.end());

  // Global max must cover index AND queries (§6.1).
  auto index = Make(scheme, theta);
  std::vector<ResultPair> ignore;
  index->Construct(indexed, MaxOf(all), &ignore);

  std::vector<ResultPair> pairs;
  for (const StreamItem& q : queries) index->Query(q, &pairs);

  const auto got = PairSet(pairs);
  const double eps = 1e-9;
  for (const StreamItem& y : indexed) {
    for (const StreamItem& x : queries) {
      const double d = y.vec.Dot(x.vec);
      if (d >= theta + eps) {
        EXPECT_TRUE(got.count({y.id, x.id}))
            << "missing (" << y.id << "," << x.id << ") dot=" << d
            << " scheme=" << index->name();
      } else if (d < theta - eps) {
        EXPECT_FALSE(got.count({y.id, x.id}))
            << "spurious (" << y.id << "," << x.id << ") dot=" << d
            << " scheme=" << index->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchIndexParamTest,
    ::testing::Combine(::testing::Values(Scheme::kInv, Scheme::kAp,
                                         Scheme::kL2ap, Scheme::kL2),
                       ::testing::Values(0.3, 0.5, 0.7, 0.9, 0.99),
                       ::testing::Values(1u, 2u, 3u)));

TEST(BatchIndexTest, PrefixFilteringShrinksIndex) {
  RandomStreamSpec spec;
  spec.n = 300;
  spec.dims = 60;
  spec.max_nnz = 8;
  spec.seed = 5;
  Stream stream = RandomStream(spec);
  const MaxVector m = MaxOf(stream);

  size_t total_coords = 0;
  for (const auto& item : stream) total_coords += item.vec.nnz();

  L2apIndex l2ap(0.9);
  L2Index l2(0.9);
  std::vector<ResultPair> ignore;
  l2ap.Construct(stream, m, &ignore);
  ignore.clear();
  l2.Construct(stream, m, &ignore);

  // Both prefix filters must index strictly fewer coordinates than INV
  // would (INV indexes everything), and L2AP (more bounds) at most as many
  // as L2.
  EXPECT_LT(l2ap.IndexedEntries(), total_coords);
  EXPECT_LT(l2.IndexedEntries(), total_coords);
  EXPECT_LE(l2ap.IndexedEntries(), l2.IndexedEntries());
}

TEST(BatchIndexTest, HighThetaIndexesFewerEntries) {
  RandomStreamSpec spec;
  spec.n = 200;
  spec.dims = 50;
  spec.seed = 6;
  Stream stream = RandomStream(spec);
  const MaxVector m = MaxOf(stream);

  L2Index low(0.5), high(0.95);
  std::vector<ResultPair> ignore;
  low.Construct(stream, m, &ignore);
  ignore.clear();
  high.Construct(stream, m, &ignore);
  EXPECT_LT(high.IndexedEntries(), low.IndexedEntries());
}

TEST(BatchIndexTest, PruningReducesTraversedEntries) {
  RandomStreamSpec spec;
  spec.n = 300;
  spec.dims = 40;
  spec.seed = 7;
  Stream stream = RandomStream(spec);
  const MaxVector m = MaxOf(stream);

  InvIndex inv(0.9);
  L2Index l2(0.9);
  std::vector<ResultPair> ignore;
  inv.Construct(stream, m, &ignore);
  ignore.clear();
  l2.Construct(stream, m, &ignore);
  EXPECT_LT(l2.stats().entries_traversed, inv.stats().entries_traversed);
}

TEST(BatchIndexTest, EmptyWindowConstructs) {
  L2Index index(0.8);
  std::vector<ResultPair> pairs;
  index.Construct({}, MaxVector(), &pairs);
  EXPECT_TRUE(pairs.empty());
  // A query against an empty index finds nothing.
  index.Query(Item(0, 0.0, UnitVec({{1, 1.0}})), &pairs);
  EXPECT_TRUE(pairs.empty());
}

TEST(BatchIndexTest, SingletonWindowHasNoPairs) {
  Stream s = {Item(0, 0.0, UnitVec({{1, 1.0}, {2, 2.0}}))};
  L2apIndex index(0.5);
  std::vector<ResultPair> pairs;
  index.Construct(s, MaxOf(s), &pairs);
  EXPECT_TRUE(pairs.empty());
}

// ---- Build + position-bounded self-queries vs the interleaved loop ----

// The IndConstr loop as the paper writes it (and as Construct ran it
// before the split): item i queries the index over items 0..i−1, then is
// added. The per-step index state "items 0..i−1 added" is rebuilt here
// from scratch for every i, so the oracle needs nothing but the public
// Build and Query; its counters are the queries' plus one full Build's.
struct InterleavedResult {
  std::vector<ResultPair> pairs;
  RunStats stats;
};

InterleavedResult InterleavedConstruct(Scheme scheme, double theta,
                                       bool use_simd, const Stream& window,
                                       const MaxVector& global_max) {
  InterleavedResult out;
  BatchQueryScratch scratch;
  for (size_t i = 0; i < window.size(); ++i) {
    auto index = Make(scheme, theta, use_simd);
    index->Build(Stream(window.begin(), window.begin() + i), global_max);
    index->Query(window[i], &scratch, &out.pairs);
  }
  auto full = Make(scheme, theta, use_simd);
  full->Build(window, global_max);
  out.stats = full->stats();
  out.stats += scratch.stats;
  return out;
}

void ExpectSameStats(const RunStats& got, const RunStats& want) {
  EXPECT_EQ(got.entries_traversed, want.entries_traversed);
  EXPECT_EQ(got.candidates_generated, want.candidates_generated);
  EXPECT_EQ(got.l2_prunes, want.l2_prunes);
  EXPECT_EQ(got.verify_calls, want.verify_calls);
  EXPECT_EQ(got.full_dots, want.full_dots);
  EXPECT_EQ(got.pairs_emitted, want.pairs_emitted);
  EXPECT_EQ(got.vectors_processed, want.vectors_processed);
  EXPECT_EQ(got.entries_indexed, want.entries_indexed);
  EXPECT_EQ(got.entries_pruned, want.entries_pruned);
  EXPECT_EQ(got.reindex_events, want.reindex_events);
  EXPECT_EQ(got.reindexed_vectors, want.reindexed_vectors);
  EXPECT_EQ(got.reindexed_coords, want.reindexed_coords);
  EXPECT_EQ(got.index_rebuilds, want.index_rebuilds);
  EXPECT_EQ(got.peak_index_entries, want.peak_index_entries);
  EXPECT_EQ(got.ToString(), want.ToString());
}

class BatchIndexSelfQueryTest
    : public ::testing::TestWithParam<std::tuple<Scheme, double, bool>> {};

TEST_P(BatchIndexSelfQueryTest, BuildPlusSelfQueriesEqualsInterleavedLoop) {
  const auto [scheme, theta, use_simd] = GetParam();
  RandomStreamSpec spec;
  spec.n = 180;
  spec.dims = 30;
  spec.max_nnz = 8;
  spec.seed = 4242;
  const Stream all = RandomStream(spec);
  // The window indexes the first half; the global max also covers the
  // second half, as in an MB close.
  const Stream window(all.begin(), all.begin() + 90);
  const MaxVector m = MaxOf(all);

  const InterleavedResult oracle =
      InterleavedConstruct(scheme, theta, use_simd, window, m);
  ASSERT_FALSE(oracle.pairs.empty()) << "the pin would be vacuous";

  auto index = Make(scheme, theta, use_simd);
  std::vector<ResultPair> pairs;
  index->Construct(window, m, &pairs);
  ::sssj::testing::ExpectSamePairSequence(pairs, oracle.pairs);
  ExpectSameStats(index->stats(), oracle.stats);
}

TEST_P(BatchIndexSelfQueryTest, RestrictionKeysOnPositionNotId) {
  // Ids in arbitrary (non-monotone) order: a self-query must still see
  // exactly the items at earlier window positions.
  const auto [scheme, theta, use_simd] = GetParam();
  RandomStreamSpec spec;
  spec.n = 90;
  spec.dims = 25;
  spec.max_nnz = 6;
  spec.seed = 4343;
  Stream window = RandomStream(spec);
  std::vector<VectorId> ids;
  for (size_t i = 0; i < window.size(); ++i) ids.push_back(1000 + 7 * i);
  std::reverse(ids.begin(), ids.end());
  std::rotate(ids.begin(), ids.begin() + 31, ids.end());
  for (size_t i = 0; i < window.size(); ++i) window[i].id = ids[i];
  const MaxVector m = MaxOf(window);

  const InterleavedResult oracle =
      InterleavedConstruct(scheme, theta, use_simd, window, m);
  ASSERT_FALSE(oracle.pairs.empty()) << "the pin would be vacuous";

  auto index = Make(scheme, theta, use_simd);
  index->Build(window, m);
  std::vector<ResultPair> pairs;
  BatchQueryScratch scratch;
  // Self-queries are independent: running them back to front must give
  // each position's pairs unchanged.
  std::vector<std::vector<ResultPair>> per_pos(window.size());
  for (size_t pos = window.size(); pos-- > 0;) {
    index->SelfQuery(window, pos, &scratch, &per_pos[pos]);
  }
  for (const auto& chunk : per_pos) {
    pairs.insert(pairs.end(), chunk.begin(), chunk.end());
  }
  ::sssj::testing::ExpectSamePairSequence(pairs, oracle.pairs);
  RunStats stats = index->stats();
  stats += scratch.stats;
  ExpectSameStats(stats, oracle.stats);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, BatchIndexSelfQueryTest,
    ::testing::Combine(::testing::Values(Scheme::kInv, Scheme::kAp,
                                         Scheme::kL2ap, Scheme::kL2),
                       ::testing::Values(0.5, 0.8),
                       ::testing::Bool()));

TEST(BatchIndexTest, OnlyApFamilyReadsTheGlobalMax) {
  EXPECT_FALSE(Make(Scheme::kInv, 0.5)->UsesGlobalMax());
  EXPECT_TRUE(Make(Scheme::kAp, 0.5)->UsesGlobalMax());
  EXPECT_TRUE(Make(Scheme::kL2ap, 0.5)->UsesGlobalMax());
  EXPECT_FALSE(Make(Scheme::kL2, 0.5)->UsesGlobalMax());
}

}  // namespace
}  // namespace sssj
