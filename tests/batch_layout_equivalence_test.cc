// Pins the window-position CSR batch indexes (index/prefix_index.h) to
// the map-based layout they replaced (tests/map_batch_reference.h): the
// same pairs in the same order with bit-identical doubles, and every
// RunStats counter equal, for INV/AP/L2AP/L2, both kernel paths, the
// self-queries (Construct) and the cross-queries (Query), on RCV1-,
// Tweets- and WebSpam-like streams. The production index is built once
// and reused across windows that grow and shrink, so a stale position of
// an earlier window would show up here. The MiniBatch-level pins run the
// whole framework (one and four threads, a private and a shared pool,
// Flush and reuse) against a join over the reference index.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "data/profiles.h"
#include "index/inv_index.h"
#include "index/prefix_index.h"
#include "stream/minibatch.h"
#include "tests/map_batch_reference.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectSamePairSequence;
using ::sssj::testing::Item;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::WalkMemoryBytes;

enum class Scheme { kInv, kAp, kL2ap, kL2 };

std::unique_ptr<BatchIndex> MakeIndex(Scheme s, double theta, bool simd) {
  switch (s) {
    case Scheme::kInv:
      return std::make_unique<InvIndex>(theta, simd);
    case Scheme::kAp:
      return std::make_unique<ApIndex>(theta, simd);
    case Scheme::kL2ap:
      return std::make_unique<L2apIndex>(theta, simd);
    case Scheme::kL2:
      return std::make_unique<L2Index>(theta, simd);
  }
  return nullptr;
}

std::unique_ptr<BatchIndex> MakeReference(Scheme s, double theta, bool simd) {
  switch (s) {
    case Scheme::kInv:
      return std::make_unique<map_reference::MapInvIndex>(theta, simd);
    case Scheme::kAp:
      return std::make_unique<map_reference::MapPrefixIndex<ApPolicy>>(theta,
                                                                      simd);
    case Scheme::kL2ap:
      return std::make_unique<map_reference::MapPrefixIndex<L2apPolicy>>(
          theta, simd);
    case Scheme::kL2:
      return std::make_unique<map_reference::MapPrefixIndex<L2Policy>>(theta,
                                                                      simd);
  }
  return nullptr;
}

std::string SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kInv:
      return "INV";
    case Scheme::kAp:
      return "AP";
    case Scheme::kL2ap:
      return "L2AP";
    case Scheme::kL2:
      return "L2";
  }
  return "?";
}

void ExpectSameStats(const RunStats& got, const RunStats& want,
                     const std::string& what) {
  EXPECT_EQ(got.entries_traversed, want.entries_traversed) << what;
  EXPECT_EQ(got.candidates_generated, want.candidates_generated) << what;
  EXPECT_EQ(got.l2_prunes, want.l2_prunes) << what;
  EXPECT_EQ(got.verify_calls, want.verify_calls) << what;
  EXPECT_EQ(got.full_dots, want.full_dots) << what;
  EXPECT_EQ(got.pairs_emitted, want.pairs_emitted) << what;
  EXPECT_EQ(got.vectors_processed, want.vectors_processed) << what;
  EXPECT_EQ(got.entries_indexed, want.entries_indexed) << what;
  EXPECT_EQ(got.index_rebuilds, want.index_rebuilds) << what;
  EXPECT_EQ(got.peak_index_entries, want.peak_index_entries) << what;
  EXPECT_EQ(got.ToString(), want.ToString()) << what;
}

MaxVector MaxOf(const Stream& a, const Stream& b) {
  MaxVector m;
  for (const StreamItem& item : a) m.UpdateFrom(item.vec, nullptr);
  for (const StreamItem& item : b) m.UpdateFrom(item.vec, nullptr);
  return m;
}

// Runs one production index, reused, over `windows`: window k is built
// (with a global max over windows k and k+1), self-queried in order, then
// probed by every item of window k+1 — an MB close. A fresh reference
// does the same per window. Returns the pairs pinned.
size_t RunIndexPin(Scheme scheme, double theta, bool simd,
                   const std::vector<Stream>& windows,
                   const std::string& what) {
  static const Stream kNone;
  const auto index = MakeIndex(scheme, theta, simd);
  size_t pinned = 0;
  for (size_t k = 0; k < windows.size(); ++k) {
    const Stream& window = windows[k];
    const Stream& next = k + 1 < windows.size() ? windows[k + 1] : kNone;
    const MaxVector m = MaxOf(window, next);
    const std::string at = what + " window " + std::to_string(k) + " (" +
                           std::to_string(window.size()) + " items)";

    std::vector<ResultPair> got;
    index->stats() = RunStats{};
    index->Construct(window, m, &got);
    EXPECT_EQ(index->MemoryBytes(), WalkMemoryBytes(*index)) << at;
    for (const StreamItem& x : next) index->Query(x, &got);

    const auto ref = MakeReference(scheme, theta, simd);
    std::vector<ResultPair> want;
    ref->Construct(window, m, &want);
    for (const StreamItem& x : next) ref->Query(x, &want);

    ExpectSamePairSequence(got, want);
    ExpectSameStats(index->stats(), ref->stats(), at);
    pinned += want.size();
  }
  return pinned;
}

// Consecutive windows of `stream` whose sizes grow and then shrink, with
// an empty window in the middle.
std::vector<Stream> GrowShrinkWindows(const Stream& stream) {
  const size_t n = stream.size();
  const std::vector<size_t> sizes = {n / 25, n / 10, n / 4, n / 3,
                                     0,      n / 8,  n / 30};
  std::vector<Stream> windows;
  windows.reserve(sizes.size() + 1);
  size_t at = 0;
  for (size_t size : sizes) {
    windows.emplace_back(stream.begin() + at, stream.begin() + at + size);
    at += size;
  }
  windows.emplace_back(stream.begin() + at, stream.end());
  return windows;
}

// A profile stream of n items, ids 0..n−1.
Stream ProfileStream(DatasetProfile profile, size_t n, uint64_t seed) {
  double scale = 1.0;
  switch (profile) {
    case DatasetProfile::kWebSpam:
      scale = static_cast<double>(n) / 1200.0;
      break;
    case DatasetProfile::kRcv1:
      scale = static_cast<double>(n) / 2500.0;
      break;
    case DatasetProfile::kBlogs:
      scale = static_cast<double>(n) / 4000.0;
      break;
    case DatasetProfile::kTweets:
      scale = static_cast<double>(n) / 8000.0;
      break;
  }
  Stream stream = GenerateProfile(profile, scale, seed);
  if (stream.size() > n) stream.resize(n);
  for (size_t i = 0; i < stream.size(); ++i) stream[i].id = i;
  return stream;
}

size_t PinItems(DatasetProfile profile) {
  switch (profile) {
    case DatasetProfile::kWebSpam:
      return 240;
    case DatasetProfile::kTweets:
      return 900;
    default:
      return 500;
  }
}

class BatchLayoutIndexTest
    : public ::testing::TestWithParam<
          std::tuple<Scheme, DatasetProfile, bool>> {};

TEST_P(BatchLayoutIndexTest, ReusedIndexMatchesMapReference) {
  const auto [scheme, profile, simd] = GetParam();
  const Stream stream = ProfileStream(profile, PinItems(profile), 7);
  for (double theta : {0.5, 0.8}) {
    const std::string what = SchemeName(scheme) + " " + ToString(profile) +
                             (simd ? " simd" : " scalar") +
                             " theta=" + std::to_string(theta);
    EXPECT_GT(RunIndexPin(scheme, theta, simd, GrowShrinkWindows(stream),
                          what),
              0u)
        << what << ": vacuous pin";
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchLayoutEquivalence, BatchLayoutIndexTest,
    ::testing::Combine(::testing::Values(Scheme::kInv, Scheme::kAp,
                                         Scheme::kL2ap, Scheme::kL2),
                       ::testing::Values(DatasetProfile::kRcv1,
                                         DatasetProfile::kTweets,
                                         DatasetProfile::kWebSpam),
                       ::testing::Bool()));

// ---- edge cases, one reused index over crafted windows ----

Stream Random(size_t n, uint64_t seed) {
  RandomStreamSpec spec;
  spec.n = n;
  spec.dims = 30;
  spec.max_nnz = 6;
  spec.seed = seed;
  return RandomStream(spec);
}

// Ids base, base + step, base + 2·step, …
Stream WithIds(Stream s, VectorId base, VectorId step) {
  for (size_t i = 0; i < s.size(); ++i) s[i].id = base + step * i;
  return s;
}

// Moves dims 1 and 2 to 0 and 0xFFFFFFFF (the extremes of DimId).
Stream WithExtremeDims(Stream s) {
  for (StreamItem& item : s) {
    std::vector<Coord> coords = item.vec.coords();
    for (Coord& c : coords) {
      if (c.dim == 1) c.dim = 0;
      if (c.dim == 2) c.dim = 0xFFFFFFFFu;
    }
    item.vec = ::sssj::testing::UnitVec(std::move(coords));
  }
  return s;
}

// Every third item becomes an empty vector.
Stream WithEmptyVectors(Stream s) {
  for (size_t i = 0; i < s.size(); i += 3) s[i].vec = SparseVector();
  return s;
}

// Every other item is scaled to norm 0.3: below θ, such an item never
// reaches the indexing bound (the engine's normalize_inputs=false case).
Stream WithLowNormItems(Stream s) {
  for (size_t i = 0; i < s.size(); i += 2) {
    std::vector<Coord> coords = s[i].vec.coords();
    for (Coord& c : coords) c.value *= 0.3;
    s[i].vec = SparseVector::FromCoords(std::move(coords));
  }
  return s;
}

class BatchLayoutEdgeTest
    : public ::testing::TestWithParam<std::tuple<Scheme, bool>> {};

TEST_P(BatchLayoutEdgeTest, CraftedWindowsMatchMapReference) {
  const auto [scheme, simd] = GetParam();
  constexpr VectorId kTop = std::numeric_limits<VectorId>::max();
  const std::vector<Stream> windows = {
      Stream{},
      WithEmptyVectors(Random(60, 1)),
      WithIds(Random(90, 2), 4096, 4096),
      WithIds(Random(40, 3), kTop - 40, 1),  // the last id is 2^64 − 1
      WithExtremeDims(Random(120, 4)),
      Stream{},
      WithLowNormItems(Random(80, 5)),
      WithIds(Random(10, 6), 7, 4096),
  };
  for (double theta : {0.5, 0.8}) {
    const std::string what = SchemeName(scheme) +
                             (simd ? " simd" : " scalar") +
                             " theta=" + std::to_string(theta);
    EXPECT_GT(RunIndexPin(scheme, theta, simd, windows, what), 0u) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchLayoutEquivalence, BatchLayoutEdgeTest,
    ::testing::Combine(::testing::Values(Scheme::kInv, Scheme::kAp,
                                         Scheme::kL2ap, Scheme::kL2),
                       ::testing::Bool()));

TEST(BatchLayoutEquivalenceTest, EmptyIndexAnswersNothing) {
  for (Scheme scheme :
       {Scheme::kInv, Scheme::kAp, Scheme::kL2ap, Scheme::kL2}) {
    const auto index = MakeIndex(scheme, 0.5, false);
    std::vector<ResultPair> pairs;
    index->Construct({}, MaxVector(), &pairs);
    index->Query(Item(0, 0.0, ::sssj::testing::UnitVec({{0, 1.0}})), &pairs);
    index->Query(Item(1, 0.0, SparseVector()), &pairs);
    EXPECT_TRUE(pairs.empty()) << SchemeName(scheme);
    EXPECT_EQ(index->MemoryBytes(), WalkMemoryBytes(*index));
    index->Clear();
    EXPECT_EQ(index->MemoryBytes(), 0u) << SchemeName(scheme);
  }
}

// ---- the MiniBatch framework over both layouts ----

MiniBatchJoin::IndexFactory Factory(bool reference, Scheme scheme,
                                    double theta, bool simd) {
  return [=] {
    return reference ? MakeReference(scheme, theta, simd)
                     : MakeIndex(scheme, theta, simd);
  };
}

struct MbRun {
  std::vector<ResultPair> pairs;
  std::vector<RunStats> stats;  // one per Flush
};

// Pushes every stream of `runs` and flushes after each: the join is
// reused across runs. With `walk`, the join's memory total is checked
// against the accounting walk after every Flush (production joins only).
void PushRuns(MiniBatchJoin* mb, const std::vector<Stream>& runs,
              MbRun* out, bool walk) {
  CollectorSink sink;
  for (const Stream& run : runs) {
    for (const StreamItem& item : run) {
      EXPECT_TRUE(mb->Push(item, &sink));
    }
    mb->Flush(&sink);
    out->stats.push_back(mb->stats());
    if (walk) {
      EXPECT_EQ(mb->MemoryBytes(), WalkMemoryBytes(*mb));
    }
  }
  out->pairs = sink.pairs();
}

void ExpectSameRun(const MbRun& got, const MbRun& want,
                   const std::string& what) {
  ExpectSamePairSequence(got.pairs, want.pairs);
  ASSERT_EQ(got.stats.size(), want.stats.size()) << what;
  for (size_t i = 0; i < got.stats.size(); ++i) {
    ExpectSameStats(got.stats[i], want.stats[i],
                    what + " run " + std::to_string(i));
  }
}

// Timestamps 0.02 apart for the first `sparse_head` items, 0.006 apart
// up to two thirds of the stream, then 0.03 apart: at τ = 2.6 windows of
// about 130, 430 and 90 items, so the dense closes fan out (≥ 512
// probes).
Stream Bursty(Stream s, size_t sparse_head) {
  Timestamp t = 0.0;
  const size_t n = s.size();
  for (size_t i = 0; i < n; ++i) {
    s[i].ts = t;
    t += i < sparse_head ? 0.02 : (i < 2 * n / 3 ? 0.006 : 0.03);
  }
  return s;
}

DecayParams MbParams(double theta) {
  DecayParams params;
  EXPECT_TRUE(DecayParams::Make(theta, std::log(1.0 / theta) / 2.6, &params));
  return params;
}

class BatchLayoutMiniBatchTest
    : public ::testing::TestWithParam<std::tuple<Scheme, DatasetProfile>> {};

TEST_P(BatchLayoutMiniBatchTest, JoinMatchesMapReference) {
  const auto [scheme, profile] = GetParam();
  const double theta = 0.5;
  const DecayParams params = MbParams(theta);
  // WebSpam-like items are 50x denser: a shorter stream, dense from the
  // start.
  const bool dense = profile == DatasetProfile::kWebSpam;
  const size_t n = dense ? 700 : 1200;
  const Stream stream =
      Bursty(ProfileStream(profile, n, 11), dense ? 0 : n / 3);
  const Stream tail(stream.begin(), stream.begin() + n / 5);
  // The second run reuses the join after a Flush.
  const std::vector<Stream> runs = {stream, tail};
  for (bool simd : {false, true}) {
    MiniBatchJoin ref_mb(params, Factory(true, scheme, theta, simd), 1.0,
                         size_t{1});
    MbRun want;
    PushRuns(&ref_mb, runs, &want, false);
    ASSERT_FALSE(want.pairs.empty()) << "vacuous pin";
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string what = SchemeName(scheme) + " " + ToString(profile) +
                               (simd ? " simd " : " scalar ") +
                               std::to_string(threads) + " threads";
      MiniBatchJoin mb(params, Factory(false, scheme, theta, simd), 1.0,
                       threads);
      MbRun got;
      PushRuns(&mb, runs, &got, true);
      ExpectSameRun(got, want, what);
      if (threads > 1) {
        EXPECT_GT(mb.fanned_out_closes(), 0u) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchLayoutEquivalence, BatchLayoutMiniBatchTest,
    ::testing::Combine(::testing::Values(Scheme::kInv, Scheme::kAp,
                                         Scheme::kL2ap, Scheme::kL2),
                       ::testing::Values(DatasetProfile::kRcv1,
                                         DatasetProfile::kTweets,
                                         DatasetProfile::kWebSpam)));

// Two joins on one shared pool, their pushes interleaved, each equal to
// its own run over the reference index. The joins' windows differ in
// size, so the pool threads' shared scratch serves indexes of different
// window sizes in turn.
TEST(BatchLayoutEquivalenceTest, SharedPoolJoinsMatchMapReference) {
  const double theta = 0.5;
  const DecayParams params = MbParams(theta);
  const Stream a =
      Bursty(ProfileStream(DatasetProfile::kTweets, 1500, 21), 500);
  const Stream b = Bursty(ProfileStream(DatasetProfile::kRcv1, 1200, 22), 0);
  LazyThreadPool pool(4);
  for (Scheme scheme :
       {Scheme::kInv, Scheme::kAp, Scheme::kL2ap, Scheme::kL2}) {
    MiniBatchJoin mb_a(params, Factory(false, scheme, theta, false), 1.0,
                       &pool);
    MiniBatchJoin mb_b(params, Factory(false, scheme, theta, true), 1.0,
                       &pool);
    CollectorSink sink_a;
    CollectorSink sink_b;
    for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      if (i < a.size()) {
        ASSERT_TRUE(mb_a.Push(a[i], &sink_a));
      }
      if (i < b.size()) {
        ASSERT_TRUE(mb_b.Push(b[i], &sink_b));
      }
    }
    mb_a.Flush(&sink_a);
    mb_b.Flush(&sink_b);
    EXPECT_GT(mb_a.fanned_out_closes(), 0u);
    EXPECT_GT(mb_b.fanned_out_closes(), 0u);

    MbRun want_a;
    MbRun want_b;
    MiniBatchJoin ref_a(params, Factory(true, scheme, theta, false), 1.0,
                        size_t{1});
    MiniBatchJoin ref_b(params, Factory(true, scheme, theta, true), 1.0,
                        size_t{1});
    PushRuns(&ref_a, {a}, &want_a, false);
    PushRuns(&ref_b, {b}, &want_b, false);
    ExpectSameRun(MbRun{sink_a.pairs(), {mb_a.stats()}}, want_a,
                  SchemeName(scheme) + " join a");
    ExpectSameRun(MbRun{sink_b.pairs(), {mb_b.stats()}}, want_b,
                  SchemeName(scheme) + " join b");
  }
}

// Crafted streams through the framework: stepped and extreme ids,
// extreme dims, never-indexed low-norm items, and a Flush before reuse.
TEST(BatchLayoutEquivalenceTest, MiniBatchEdgeStreamsMatchMapReference) {
  constexpr VectorId kTop = std::numeric_limits<VectorId>::max();
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.2, &params));
  const std::vector<Stream> runs = {
      WithIds(WithExtremeDims(Random(200, 31)), 4096, 4096),
      WithIds(WithLowNormItems(Random(150, 32)), kTop - 150, 1),
  };
  for (Scheme scheme :
       {Scheme::kInv, Scheme::kAp, Scheme::kL2ap, Scheme::kL2}) {
    MiniBatchJoin ref_mb(params, Factory(true, scheme, 0.5, false), 1.0,
                         size_t{1});
    MbRun want;
    PushRuns(&ref_mb, runs, &want, false);
    ASSERT_FALSE(want.pairs.empty()) << "vacuous pin";
    MiniBatchJoin mb(params, Factory(false, scheme, 0.5, false), 1.0,
                     size_t{1});
    MbRun got;
    PushRuns(&mb, runs, &got, true);
    ExpectSameRun(got, want, SchemeName(scheme));
  }
}

}  // namespace
}  // namespace sssj
